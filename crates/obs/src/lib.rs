//! Structured observability for the WeSEER pipeline.
//!
//! This crate is a deliberately zero-dependency metrics core shared by
//! every other crate in the workspace. It provides:
//!
//! - **Counters** — lock-free atomics registered by name in a global
//!   [`Registry`].
//! - **Log-scale histograms** ([`hist::Histogram`]) — 64 power-of-two
//!   buckets with `count`/`sum`/`min`/`max`, good enough for p50/p90/p99
//!   latency estimates without allocation on the record path.
//! - **Hierarchical spans** ([`span::SpanGuard`]) — RAII timers that nest
//!   via a thread-local stack; a span opened inside another records under
//!   the dotted path `outer.inner`.
//! - **Snapshots** ([`snapshot::MetricsSnapshot`]) — a point-in-time copy
//!   of every metric, with [`snapshot::MetricsSnapshot::delta_since`] for
//!   per-phase or per-app deltas, JSON-lines export, and a human-readable
//!   funnel/timing report ([`report`]).
//! - **Trace timelines** ([`timeline`]) — a bounded, drop-counting ring
//!   of timestamped records with per-thread lanes, fed by every span and
//!   by key pipeline events, exportable as Chrome trace-event JSON
//!   ([`chrome::to_chrome_trace`]). Enabled separately from the registry
//!   via [`timeline::set_enabled`].
//! - **Live endpoint** ([`http::ObsServer`]) — a std-only HTTP server
//!   exposing `/metrics` (Prometheus text, [`prom`]), `/funnel`,
//!   `/waitfor` (JSON + DOT, [`waitfor`]), and an embedded HTML
//!   dashboard at `/`.
//!
//! # Enabling
//!
//! The global registry starts **disabled**: every record path is a single
//! relaxed atomic load and an early return, so instrumented code costs
//! (well) under 2% when observability is off. Call [`set_enabled`]`(true)`
//! (the `reproduce` binary does this when `--metrics-out` is passed) to
//! start recording.
//!
//! # Example
//!
//! ```
//! weseer_obs::set_enabled(true);
//! {
//!     let _outer = weseer_obs::span("analyze");
//!     let _inner = weseer_obs::span("phase1");
//!     weseer_obs::add("analyzer.txn_pairs", 3);
//! }
//! let snap = weseer_obs::snapshot();
//! assert_eq!(snap.counter("analyzer.txn_pairs"), 3);
//! assert!(snap.histogram("span.analyze.phase1").is_some());
//! weseer_obs::set_enabled(false);
//! ```

pub mod chrome;
pub mod hist;
pub mod http;
pub mod prom;
pub mod registry;
pub mod report;
pub mod snapshot;
pub mod span;
pub mod timeline;
pub mod waitfor;

pub use hist::{Histogram, HistogramSnapshot};
pub use http::ObsServer;
pub use registry::Registry;
pub use snapshot::MetricsSnapshot;
pub use span::SpanGuard;
pub use timeline::{TimelineRecord, TimelineSnapshot};

use std::time::Duration;

/// Whether the global registry is currently recording.
pub fn enabled() -> bool {
    registry::global().enabled()
}

/// Turn global recording on or off.
pub fn set_enabled(on: bool) {
    registry::global().set_enabled(on);
}

/// Add `n` to the named counter (no-op while disabled).
pub fn add(name: &str, n: u64) {
    registry::global().add(name, n);
}

/// Add 1 to the named counter (no-op while disabled).
pub fn incr(name: &str) {
    registry::global().add(name, 1);
}

/// Record `value` into the named histogram (no-op while disabled).
pub fn observe(name: &str, value: u64) {
    registry::global().observe(name, value);
}

/// Record a duration (in microseconds) into the named histogram.
pub fn observe_duration(name: &str, d: Duration) {
    registry::global().observe_duration(name, d);
}

/// Open a hierarchical timing span; the returned guard records its
/// elapsed time under `span.<path>` when dropped. Inert while disabled.
pub fn span(name: &str) -> SpanGuard {
    SpanGuard::enter(name)
}

/// Snapshot every metric in the global registry.
pub fn snapshot() -> MetricsSnapshot {
    registry::global().snapshot()
}

/// Clear all metrics in the global registry (tests and per-run
/// isolation; the enabled flag is left unchanged).
pub fn reset() {
    registry::global().reset();
}

/// Serializes tests that toggle the global registry/timeline enabled
/// flags or global state (spans, timeline, waitfor, http) — they share
/// one process-wide registry, so they must not interleave.
#[cfg(test)]
pub(crate) fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
