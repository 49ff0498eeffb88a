//! Human-readable metric reports.
//!
//! [`render_report`] turns a [`MetricsSnapshot`] into a fixed-width text
//! report with a **diagnosis funnel** (how many candidates survived each
//! pruning stage, with the drop ratio), a **timing table** for every
//! span and latency histogram (count, total, mean, p50/p90/p99), and the
//! raw counters. The funnel stages are supplied by the caller as
//! `(label, counter name)` pairs so this crate stays agnostic of
//! pipeline-specific metric names.

use crate::snapshot::MetricsSnapshot;
use std::fmt::Write as _;

/// Format a microsecond quantity for humans (`12µs`, `3.4ms`, `1.2s`).
pub fn fmt_micros(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Render `snap` as a text report titled `title`. `funnel` lists the
/// pruning stages to display, outermost first, as
/// `(human label, counter name)` pairs; stages whose counter is absent
/// are shown as `-`.
pub fn render_report(snap: &MetricsSnapshot, title: &str, funnel: &[(&str, &str)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {title} ===");

    if !funnel.is_empty() {
        let _ = writeln!(out, "\n-- diagnosis funnel --");
        let width = funnel.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut prev: Option<u64> = None;
        for (label, counter) in funnel {
            let present = snap.counters.contains_key(*counter);
            let v = snap.counter(counter);
            let keep = match prev {
                Some(p) if p > 0 => format!("  ({:.1}% of previous)", 100.0 * v as f64 / p as f64),
                _ => String::new(),
            };
            if present {
                let _ = writeln!(out, "{label:width$}  {v:>8}{keep}");
                prev = Some(v);
            } else {
                let _ = writeln!(out, "{label:width$}  {:>8}", "-");
            }
        }
    }

    let timing: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .collect();
    if !timing.is_empty() {
        let _ = writeln!(out, "\n-- timings (µs unless noted) --");
        let width = timing
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max(4);
        let _ = writeln!(
            out,
            "{:width$}  {:>8}  {:>10}  {:>8}  {:>8}  {:>8}  {:>8}",
            "name", "count", "total", "mean", "p50", "p90", "p99"
        );
        for (name, h) in &timing {
            let _ = writeln!(
                out,
                "{name:width$}  {:>8}  {:>10}  {:>8}  {:>8}  {:>8}  {:>8}",
                h.count,
                fmt_micros(h.sum),
                fmt_micros(h.mean()),
                fmt_micros(h.p50()),
                fmt_micros(h.p90()),
                fmt_micros(h.p99()),
            );
        }
    }

    let in_funnel = |name: &str| funnel.iter().any(|(_, c)| *c == name);
    let counters: Vec<_> = snap
        .counters
        .iter()
        .filter(|(name, _)| !in_funnel(name))
        .collect();
    if !counters.is_empty() {
        let _ = writeln!(out, "\n-- counters --");
        let width = counters.iter().map(|(n, _)| n.len()).max().unwrap_or(4);
        for (name, v) in &counters {
            let _ = writeln!(out, "{name:width$}  {v:>10}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn fmt_micros_scales() {
        assert_eq!(fmt_micros(12), "12µs");
        assert_eq!(fmt_micros(3_400), "3.4ms");
        assert_eq!(fmt_micros(1_200_000), "1.20s");
    }

    #[test]
    fn report_contains_funnel_and_timings() {
        let r = Registry::new();
        r.set_enabled(true);
        r.add("f.pairs", 100);
        r.add("f.survivors", 12);
        r.observe("span.analyze", 5_000);
        r.add("db.lock.deadlock_aborts", 1);
        let text = render_report(
            &r.snapshot(),
            "test",
            &[
                ("txn pairs", "f.pairs"),
                ("survivors", "f.survivors"),
                ("missing", "f.nope"),
            ],
        );
        assert!(text.contains("=== test ==="));
        assert!(text.contains("txn pairs"));
        assert!(text.contains("(12.0% of previous)"));
        // Absent funnel counters render as '-'.
        assert!(text.contains('-'));
        assert!(text.contains("span.analyze"));
        assert!(text.contains("-- counters --"));
        assert!(text.contains("db.lock.deadlock_aborts"));
        // Funnel counters are not repeated in the counters section.
        assert!(!text.contains("f.pairs  "));
    }
}
