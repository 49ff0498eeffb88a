//! Harness-side spans: one record around every public call the benchmark
//! makes into the program, kept in memory and written out when the run
//! ends. Nothing here touches the program's source; the spans inside the
//! program (`weseer_obs`) are read separately.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one analysis (batch) or session (fleet) share this id.
    pub analysis_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder (the fleet harness keeps one per thread
/// and merges them). Disabled recorders cost one branch per call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`, nested under the open one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        analysis_id: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            analysis_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its direct children cover. Children may overlap or touch; covered time
/// is the length of the union of their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let iv = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children.entry(p).or_default().push(iv);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut ivs = children.remove(&i).unwrap_or_default();
            ivs.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in ivs {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Conservation: the named parts must add up to the whole, with at most
/// `tolerance` (a share of the whole) left unexplained in either
/// direction. Returns the unexplained share on failure.
pub fn check_conservation(whole: f64, parts: &[f64], tolerance: f64) -> Result<(), f64> {
    let gap = (whole - parts.iter().sum::<f64>()) / whole;
    if gap.abs() <= tolerance {
        Ok(())
    } else {
        Err(gap)
    }
}

/// One JSON line per span (`trace-<workload>.jsonl`).
pub fn to_json_lines(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"analysis_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.analysis_id
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            analysis_id: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span("analysis", 0, 100, None),
            span("open", 0, 10, Some(0)),     // adjacent to the next one
            span("analyze", 10, 80, Some(0)), // has a child of its own
            span("inner", 20, 50, Some(2)),   // nested: must not count against "analysis"
            span("render", 85, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 40, 30, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["analysis"], 10);
        assert_eq!(by_name["analyze"], 40);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("session", 0, 100, None),
            span("send", 10, 60, Some(0)),
            span("recv", 40, 90, Some(0)),
            span("late", 95, 120, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn recorder_nests_and_can_be_switched_off() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| ());
        });
        let spans = rec.into_spans();
        let mut off = Recorder::new(Instant::now(), false);
        assert_eq!(off.span("ignored", 8, |_| 5), 5);
        assert!(off.into_spans().is_empty());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json_lines(&spans).lines().count() == 2);
    }

    #[test]
    fn conservation_fires_on_a_fabricated_ten_percent_gap() {
        // 1000 ms analysis, parts explain 900 ms: a 10 % hole.
        let parts = [3.0, 600.0, 250.0, 2.0, 45.0];
        assert_eq!(check_conservation(1000.0, &parts, 0.05), Err(0.1));
        // Parts that overshoot by 10 % fail too.
        assert!(check_conservation(1000.0, &[1100.0], 0.05).is_err());
        // A 2 % hole is within tolerance.
        assert_eq!(check_conservation(1000.0, &[980.0], 0.05), Ok(()));
    }
}
