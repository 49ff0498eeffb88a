//! # weseer-serve
//!
//! The fleet-scale serving plane: a long-lived daemon that ingests trace
//! streams from many application instances concurrently, runs the
//! deadlock analysis on a thread pool, and streams verdicts back as they
//! land.
//!
//! ## Architecture
//!
//! ```text
//! clients ──bounded MPSC──▶ ingest router ──bounded queue──▶ analysis
//!   (backpressure:            (per-session     (backpressure)  workers
//!    a full channel            trace buffers)                    │
//!    blocks `send`)                                              ▼
//!                                          diagnose_with(.., sink) on
//!                                          `shards` threads ──▶ verdict events
//!                                                │
//!                                      shared warm Store (live append)
//! ```
//!
//! Every channel is bounded, so pressure propagates backwards: a busy
//! analysis worker leaves the work queue full, which stalls the router,
//! which fills the ingest channel, which blocks the submitting clients —
//! the daemon never buffers unboundedly. Verdicts are **byte-identical to
//! the batch pipeline** by construction: it is the same driver
//! (`weseer-analyzer`'s `diagnose_with`), whose ordered merge hands the
//! sink exactly the report sequence a batch caller collects; the thread
//! count only decides where pure per-pair work runs.
//!
//! The shared [`weseer_store::Store`] is opened in live-append mode:
//! analyses publish verdicts into the common in-memory index as they solve
//! (so concurrent submissions hit each other's work) and every record is
//! persisted immediately, making warm starts survive a killed daemon.

pub mod daemon;
pub mod http;

pub use daemon::{
    app_by_name, AnalysisSummary, Daemon, DaemonConfig, IngestClient, ServeEvent, SubmitResult,
};
pub use http::{routes, serve, shards_json};

use weseer_analyzer::DeadlockReport;
use weseer_store::json::Json;

/// One confirmed deadlock as a canonical single-line JSON record — the
/// daemon's wire format for streamed verdicts. The same function renders
/// the batch pipeline's reports (`reproduce --verdicts-out`), so
/// streaming-vs-batch equality can be checked with a byte `diff`.
pub fn verdict_line(app: &str, report: &DeadlockReport) -> String {
    let c = &report.cycle;
    let record = Json::Obj(vec![
        ("app".into(), Json::str(app)),
        (
            "cycle".into(),
            Json::Obj(vec![
                ("a_api".into(), Json::str(c.a_api.clone())),
                ("b_api".into(), Json::str(c.b_api.clone())),
                ("a_txn".into(), Json::u64(c.a_txn as u64)),
                ("b_txn".into(), Json::u64(c.b_txn as u64)),
                ("a_hold".into(), Json::u64(c.a_hold as u64)),
                ("a_wait".into(), Json::u64(c.a_wait as u64)),
                ("b_hold".into(), Json::u64(c.b_hold as u64)),
                ("b_wait".into(), Json::u64(c.b_wait as u64)),
            ]),
        ),
        (
            "statements".into(),
            Json::Arr(
                report
                    .statements
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("label".into(), Json::str(s.label.clone())),
                            ("table".into(), Json::str(s.table.clone())),
                            ("sql".into(), Json::str(s.sql.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut out = String::new();
    record.write(&mut out);
    out.push('\n');
    out
}
