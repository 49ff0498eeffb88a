//! Hierarchical timing spans.
//!
//! A [`SpanGuard`] measures the wall time between its creation and drop
//! and records it (in microseconds) into the histogram
//! `span.<dotted.path>`, where the path reflects the stack of spans open
//! on the current thread: a span `"phase1"` opened while `"analyze"` is
//! active records under `span.analyze.phase1`.
//!
//! Spans also feed the trace timeline ([`crate::timeline`]) when it is
//! enabled: each dropped guard records a completed duration under its
//! dotted path, which is how every instrumented stage shows up in the
//! Chrome trace export without any extra call sites. The two sinks are
//! independent — a span records into the histogram only while the
//! registry is enabled and into the timeline only while the timeline is.
//!
//! While both are disabled, `SpanGuard::enter` returns an inert guard
//! after two relaxed atomic loads — no clock read, no thread-local
//! traffic — so spans may be left in hot code unconditionally.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for a timing span. Create with [`crate::span()`] or
/// [`SpanGuard::enter`]; the measurement is recorded on drop.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when observability was disabled at creation time.
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    path: String,
    start: Instant,
    /// Record into the metrics histogram on drop.
    metrics: bool,
    /// Record into the trace timeline on drop.
    timeline: bool,
}

impl SpanGuard {
    /// Open a span named `name`, nested under any spans already open on
    /// this thread. Inert when both the global registry and the timeline
    /// are disabled.
    pub fn enter(name: &str) -> SpanGuard {
        let metrics = crate::registry::global().enabled();
        let timeline = crate::timeline::enabled();
        if !metrics && !timeline {
            return SpanGuard { active: None };
        }
        let path = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name.to_string());
            stack.join(".")
        });
        SpanGuard {
            active: Some(ActiveSpan {
                path,
                start: Instant::now(),
                metrics,
                timeline,
            }),
        }
    }

    /// Dotted path of this span (`None` for inert guards).
    pub fn path(&self) -> Option<&str> {
        self.active.as_ref().map(|a| a.path.as_str())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            if active.metrics {
                let elapsed = active.start.elapsed();
                crate::registry::global()
                    .observe_duration(&format!("span.{}", active.path), elapsed);
            }
            if active.timeline {
                crate::timeline::complete_since(&active.path, "span", active.start, &[]);
            }
            STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tests share the global registry and timeline (and their
    /// enabled flags) with the timeline tests, so they serialize on the
    /// crate-wide mutex, use distinctive span names, and only assert on
    /// their own metrics.
    use crate::global_test_lock as test_lock;

    #[test]
    fn nesting_builds_dotted_paths() {
        let _l = test_lock();
        crate::set_enabled(true);
        {
            let outer = SpanGuard::enter("span_test_outer");
            assert_eq!(outer.path(), Some("span_test_outer"));
            {
                let inner = SpanGuard::enter("span_test_inner");
                assert_eq!(inner.path(), Some("span_test_outer.span_test_inner"));
            }
            // Sibling after inner dropped: nests under outer only.
            let sibling = SpanGuard::enter("span_test_sib");
            assert_eq!(sibling.path(), Some("span_test_outer.span_test_sib"));
        }
        let snap = crate::snapshot();
        assert_eq!(snap.histogram("span.span_test_outer").unwrap().count, 1);
        assert_eq!(
            snap.histogram("span.span_test_outer.span_test_inner")
                .unwrap()
                .count,
            1
        );
        // After all guards dropped, a fresh span is top-level again.
        let top = SpanGuard::enter("span_test_top");
        assert_eq!(top.path(), Some("span_test_top"));
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _l = test_lock();
        let r = crate::registry::global();
        r.set_enabled(false);
        let g = SpanGuard::enter("span_test_disabled");
        assert_eq!(g.path(), None);
        drop(g);
        r.set_enabled(true);
        // Re-enable and confirm nothing was recorded for the inert span.
        assert!(crate::snapshot()
            .histogram("span.span_test_disabled")
            .is_none());
    }

    #[test]
    fn spans_flow_into_the_timeline_without_the_registry() {
        let _l = test_lock();
        let r = crate::registry::global();
        r.set_enabled(false);
        crate::timeline::set_enabled(true);
        {
            let _g = SpanGuard::enter("span_test_timeline_only");
        }
        crate::timeline::set_enabled(false);
        let snap = crate::timeline::snapshot();
        assert!(snap
            .records
            .iter()
            .any(|rec| rec.name == "span_test_timeline_only"
                && rec.cat == "span"
                && rec.dur_us.is_some()));
        // The registry was off: no histogram was recorded.
        r.set_enabled(true);
        assert!(crate::snapshot()
            .histogram("span.span_test_timeline_only")
            .is_none());
    }

    #[test]
    fn spans_are_per_thread() {
        let _l = test_lock();
        crate::set_enabled(true);
        let _outer = SpanGuard::enter("span_test_thread_outer");
        let handle = std::thread::spawn(|| {
            let g = SpanGuard::enter("span_test_thread_child");
            g.path().map(str::to_string)
        });
        // The child thread has its own stack: no nesting under outer.
        assert_eq!(
            handle.join().unwrap().as_deref(),
            Some("span_test_thread_child")
        );
    }
}
