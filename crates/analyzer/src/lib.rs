//! # weseer-analyzer
//!
//! WeSEER's offline deadlock analyzer (paper Sec. V): the three-phase
//! diagnosis over concolic traces with fine-grained database lock modeling
//! and SMT-checked conflict conditions.
//!
//! * [`indexes`] — the index usage graph and `InferPossibleIndexes`
//!   (Sec. V-C2, Fig. 8);
//! * [`locks`] — Alg. 2 shared/exclusive lock generation and the potential
//!   conflict test;
//! * [`encode`] — Alg. 3 conflict conditions (unified read/write
//!   conditions, associated conditions, range-lock enlargement) plus term
//!   import with instance prefixes (Fig. 9's `A1.order_id`);
//! * [`pairs`] — the phase-1 pair generator: the transaction-level
//!   conflict graph built once, yielding conflicting pairs in canonical
//!   order;
//! * [`prefix`] — every trace's path conditions simplified once per run,
//!   feeding pre-simplified conjuncts to the fine phase;
//! * [`schedule`] — the std-only chunk-claiming thread pool with an
//!   order-preserving streaming merge (`threads = 1` runs inline);
//! * [`diagnose`] — the one diagnosis driver: the three phases staged as
//!   pure per-pair scans and fine checks (one persistent SMT solver per
//!   pair) with ordered reduces, optional store and report sink, and
//!   statistics; also the STEPDAD/REDACT-style coarse baseline for the
//!   Sec. VII-B comparison;
//! * [`report`] — developer-facing deadlock reports with triggering code
//!   and witness assignments;
//! * [`anomaly`] — the MVCC side-channel: a table-level screen for
//!   weak-isolation anomaly candidates (lost update, write skew, read
//!   fracture) that the replay engine confirms by exploring interleavings
//!   at the requested isolation level.

pub mod anomaly;
pub mod diagnose;
pub mod encode;
pub mod indexes;
pub mod locks;
pub mod pairs;
pub mod prefix;
pub mod report;
pub mod schedule;
pub mod viz;

pub use anomaly::{find_anomaly_candidates, AnomalyCandidate};
pub use diagnose::{
    coarse_cycle_count, diagnose, diagnose_with, AnalyzerConfig, CollectedTrace, Diagnosis,
    DiagnosisStats, StoreCtx, LOCK_MODEL_VERSION,
};
pub use indexes::IndexOracle;
pub use pairs::{generate_pairs, PairJob, PairSet};
pub use prefix::PrefixTable;
pub use report::{render_stats, CycleId, DeadlockReport, ReportedStatement};
pub use schedule::{resolve_threads, run_ordered};
