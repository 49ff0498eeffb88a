//! The metric registry.
//!
//! A [`Registry`] owns every named counter and histogram. The
//! process-wide instance lives behind [`global`]; tests can build private
//! registries to avoid cross-test interference.
//!
//! The record paths (`add`, `observe`, …) first check the `enabled` flag
//! with a single relaxed atomic load and return immediately when
//! recording is off, so instrumentation left in hot code is effectively
//! free until someone opts in.

use crate::hist::Histogram;
use crate::snapshot::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named collection of metrics. See the [module docs](self).
pub struct Registry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// New registry, initially disabled.
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether this registry is recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Handle to the named counter, creating it if needed (even while
    /// disabled — handles are cheap and callers may cache them).
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Handle to the named histogram, creating it if needed.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Add `n` to the named counter (no-op while disabled).
    pub fn add(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        self.counter(name).fetch_add(n, Relaxed);
    }

    /// Record a histogram value (no-op while disabled).
    pub fn observe(&self, name: &str, value: u64) {
        if !self.enabled() {
            return;
        }
        self.histogram(name).record(value);
    }

    /// Record a duration as microseconds (no-op while disabled).
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.observe(name, d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Copy every metric into an immutable [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Clear all metrics; the enabled flag is unchanged.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.clear();
        inner.histograms.clear();
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.add("c", 5);
        r.observe("h", 10);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 0);
        assert!(s.histogram("h").is_none());
    }

    #[test]
    fn enabled_registry_records() {
        let r = Registry::new();
        r.set_enabled(true);
        r.add("c", 2);
        r.add("c", 3);
        r.observe("h", 100);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 5);
        assert_eq!(s.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn counter_atomicity_under_threads() {
        use std::sync::Arc;
        let r = Arc::new(Registry::new());
        r.set_enabled(true);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    // Mix cached-handle and by-name increments.
                    let handle = r.counter("shared");
                    for i in 0..5000u64 {
                        if i % 2 == 0 {
                            handle.fetch_add(1, Relaxed);
                        } else {
                            r.add("shared", 1);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.snapshot().counter("shared"), 8 * 5000);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.set_enabled(true);
        r.add("c", 1);
        r.observe("h", 1);
        r.reset();
        let s = r.snapshot();
        assert!(s.counters.is_empty());
        assert!(s.histograms.is_empty());
        assert!(r.enabled());
    }
}
