//! Prometheus text-format rendering of a metrics snapshot.
//!
//! [`render_prometheus`] turns a [`MetricsSnapshot`] into the plain-text
//! exposition format (version 0.0.4) served by the `/metrics` endpoint:
//! counters (with the conventional `_total` suffix) and each histogram as
//! a summary — `quantile`-labeled series estimated from the log-scale
//! buckets plus `_sum`, `_count`, `_min`, and `_max`.
//!
//! Dotted metric names are sanitized to the Prometheus grammar
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*`) under a `weseer_` prefix; the original
//! dotted name is preserved in the `# HELP` line (with `\\` and `\n`
//! escaped per the exposition format). Output ordering is deterministic:
//! the snapshot's `BTreeMap`s iterate sorted, and the sections render in
//! a fixed order, so two snapshots with equal contents render to equal
//! bytes.

use crate::snapshot::MetricsSnapshot;
use std::fmt::Write as _;

/// Sanitize a dotted metric name into the Prometheus name grammar,
/// prefixed with `weseer_`: every character outside
/// `[a-zA-Z0-9_:]` becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("weseer_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a `# HELP` text: backslash and newline get two-character
/// escapes (the exposition-format rules).
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a label value: backslash, newline, and double quote.
pub fn escape_label_value(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out
}

/// Render `snap` in the Prometheus text exposition format.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();

    for (name, value) in &snap.counters {
        let prom = sanitize_metric_name(name) + "_total";
        let _ = writeln!(out, "# HELP {prom} counter \"{}\"", escape_help(name));
        let _ = writeln!(out, "# TYPE {prom} counter");
        let _ = writeln!(out, "{prom} {value}");
    }

    for (name, h) in &snap.histograms {
        let prom = sanitize_metric_name(name);
        let _ = writeln!(
            out,
            "# HELP {prom} log-scale histogram \"{}\" (microseconds for *_us and span.*)",
            escape_help(name)
        );
        let _ = writeln!(out, "# TYPE {prom} summary");
        for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
            let _ = writeln!(out, "{prom}{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{prom}_sum {}", h.sum);
        let _ = writeln!(out, "{prom}_count {}", h.count);
        let _ = writeln!(out, "{prom}_min {}", h.min);
        let _ = writeln!(out, "{prom}_max {}", h.max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn sanitization_maps_dots_and_odd_chars() {
        assert_eq!(sanitize_metric_name("smt.solve_us"), "weseer_smt_solve_us");
        assert_eq!(
            sanitize_metric_name("span.analyzer.worker0"),
            "weseer_span_analyzer_worker0"
        );
        assert_eq!(sanitize_metric_name("a-b c/d"), "weseer_a_b_c_d");
    }

    #[test]
    fn help_and_label_escaping() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label_value("x\"y\\z\n"), "x\\\"y\\\\z\\n");
    }

    #[test]
    fn renders_counters_and_summaries() {
        let r = Registry::new();
        r.set_enabled(true);
        r.add("smt.solve_calls", 7);
        r.observe("smt.solve_us", 100);
        r.observe("smt.solve_us", 200);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE weseer_smt_solve_calls_total counter"));
        assert!(text.contains("weseer_smt_solve_calls_total 7"));
        assert!(text.contains("# TYPE weseer_smt_solve_us summary"));
        assert!(text.contains("weseer_smt_solve_us{quantile=\"0.5\"}"));
        assert!(text.contains("weseer_smt_solve_us_sum 300"));
        assert!(text.contains("weseer_smt_solve_us_count 2"));
        // The original dotted name survives in HELP.
        assert!(text.contains("# HELP weseer_smt_solve_us log-scale histogram \"smt.solve_us\""));
    }

    #[test]
    fn ordering_is_deterministic() {
        let build = |order_flip: bool| {
            let r = Registry::new();
            r.set_enabled(true);
            let names = if order_flip {
                ["z.last", "a.first", "m.mid"]
            } else {
                ["m.mid", "z.last", "a.first"]
            };
            for n in names {
                r.add(n, 1);
            }
            render_prometheus(&r.snapshot())
        };
        let a = build(false);
        let b = build(true);
        assert_eq!(a, b);
        // Sorted by name within the counters section.
        let first = a.find("weseer_a_first_total 1").unwrap();
        let mid = a.find("weseer_m_mid_total 1").unwrap();
        let last = a.find("weseer_z_last_total 1").unwrap();
        assert!(first < mid && mid < last);
    }
}
