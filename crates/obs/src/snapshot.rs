//! Point-in-time metric snapshots and JSON-lines export.
//!
//! A [`MetricsSnapshot`] is a plain-data copy of a registry's state:
//! cheap to clone, diffable with [`MetricsSnapshot::delta_since`]
//! (per-app and per-phase reporting takes a snapshot before and after a
//! stage and subtracts), and serializable to JSON lines without any
//! external dependency via a small hand-rolled writer.

use crate::hist::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Immutable copy of every metric in a registry. See the
/// [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of the named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if it has been recorded to.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Metrics accumulated since `earlier`: counters and histograms are
    /// subtracted.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (
                    k.clone(),
                    v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let empty = HistogramSnapshot::default();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.delta_since(earlier.histograms.get(k).unwrap_or(&empty)),
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Serialize as JSON lines: one object per metric, each with a
    /// `"type"` discriminant. Histogram lines include derived
    /// p50/p90/p99/mean so downstream tooling needs no bucket math. An
    /// optional `scope` (e.g. the app name) is attached to every line.
    pub fn to_json_lines(&self, scope: Option<&str>) -> String {
        let mut out = String::new();
        let scope_field = |out: &mut String| {
            if let Some(s) = scope {
                out.push_str(",\"scope\":");
                write_json_string(out, s);
            }
        };
        for (name, value) in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            write_json_string(&mut out, name);
            let _ = write!(out, ",\"value\":{value}");
            scope_field(&mut out);
            out.push_str("}\n");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            write_json_string(&mut out, name);
            let _ = write!(
                out,
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99()
            );
            for (i, (b, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{b},{n}]");
            }
            out.push(']');
            scope_field(&mut out);
            out.push_str("}\n");
        }
        out
    }
}

/// Append `s` as a JSON string literal (quotes and escapes included).
/// Runs of bytes that need no escape are copied whole: the bytes that do
/// (`"`, `\`, controls) are ASCII, so a split never lands inside a
/// multi-byte character.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[copied..i]);
        copied = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Registry {
        let r = Registry::new();
        r.set_enabled(true);
        r.add("a.count", 3);
        r.add("victim \"txn-1\"\naborted", 1);
        r.observe("lat", 100);
        r.observe("lat", 200);
        r
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let r = sample();
        let before = r.snapshot();
        r.add("a.count", 4);
        r.observe("lat", 400);
        let d = r.snapshot().delta_since(&before);
        assert_eq!(d.counter("a.count"), 4);
        assert_eq!(d.histogram("lat").unwrap().count, 1);
    }

    #[test]
    fn delta_with_empty_baseline_is_identity_for_counters() {
        let r = sample();
        let snap = r.snapshot();
        let d = snap.delta_since(&MetricsSnapshot::default());
        assert_eq!(d.counters, snap.counters);
    }

    #[test]
    fn json_lines_are_parseable_shape() {
        let snap = sample().snapshot();
        let text = snap.to_json_lines(Some("broadleaf"));
        let lines: Vec<&str> = text.lines().collect();
        // Two counters + one histogram.
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
            assert!(line.contains("\"scope\":\"broadleaf\""), "line: {line}");
        }
        assert!(text.contains("\"type\":\"counter\",\"name\":\"a.count\",\"value\":3"));
        assert!(text.contains("\"p50\":"));
        // Escaping: embedded quote and newline survive as escapes.
        assert!(text.contains("victim \\\"txn-1\\\"\\naborted"));
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        write_json_string(&mut s, "a\"b\\c\n\t\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
    }

    /// The escaper one character at a time, as it was before it copied
    /// unescaped runs whole.
    fn escape_char_by_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn run_copying_escaper_equals_char_by_char() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let cases = [
            "",
            "plain ascii",
            "\"",
            "\\",
            "\"\"\\\\\"",
            "ends with a quote\"",
            "\\starts with a backslash",
            "SELECT * FROM T WHERE NAME = 'caf\u{e9}' AND K = \"\u{4e2d}\u{6587}\"",
            "\u{1f600}\n\u{1f600}\\\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}",
            &controls,
            &format!("x{controls}\u{e9}{controls}\""),
        ];
        for case in cases {
            let mut got = String::new();
            write_json_string(&mut got, case);
            assert_eq!(got, escape_char_by_char(case), "escaping {case:?}");
        }
    }
}
