//! # weseer-core
//!
//! The WeSEER tool facade: the end-to-end pipeline of paper Fig. 2
//! (concolic trace collection → three-phase deadlock diagnosis → grouped
//! reports) plus the experiment harnesses that regenerate the paper's
//! evaluation:
//!
//! * [`pipeline`] — Table II: run the tool on an application;
//! * [`overhead`] — Table III (execution-mode overhead) and the Sec. IV
//!   path-condition pruning measurement;
//! * [`perf`] — Figs. 10/11 (throughput vs. clients vs. fix
//!   configuration, with abort counters for Sec. VII-D).
//!
//! ```no_run
//! use weseer_core::Weseer;
//! use weseer_apps::Shopizer;
//!
//! let weseer = Weseer::new();
//! let analysis = weseer.analyze(&Shopizer);
//! for report in &analysis.diagnosis.deadlocks {
//!     println!("{report}");
//! }
//! ```

pub mod oracle;
pub mod overhead;
pub mod perf;
pub mod pipeline;
pub mod replay;

pub use oracle::DbPlanOracle;
pub use overhead::{measure_overhead, measure_pruning, OverheadRow, PruningRow};
pub use perf::{fix_configurations, run_perf_sweep, PerfConfig, PerfPoint};
pub use pipeline::{
    AnomalyAnalysis, AnomalyVerdict, AppAnalysis, ReplaySummary, TraceSummary, Weseer,
    FUNNEL_STAGES,
};
pub use replay::prepare_db;
