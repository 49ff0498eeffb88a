//! # weseer-replay
//!
//! Concrete deadlock-witness replay: turn the analyzer's SAT verdicts into
//! *executions that actually deadlock*.
//!
//! The analyzer (phases 1–3) proves a lock-order cycle satisfiable over
//! symbolic API inputs and database state. That is a static claim; this
//! crate checks it dynamically, CLOTHO-style:
//!
//! 1. **Concretize** ([`concretize`]) — render each involved transaction's
//!    traced statements with parameter values evaluated under the SAT
//!    model (projected per instance via [`weseer_smt::Model::strip_prefix`]),
//!    so the replayed inputs are exactly the ones the solver chose.
//! 2. **Explore** ([`explore`](mod@explore)) — deterministic DFS over
//!    statement-level interleavings of the two transactions, one
//!    [`weseer_db::Database::fork`] per root-to-leaf path (a run continues
//!    through branch points into the first child instead of restarting),
//!    with sleep-set (DPOR-style) pruning keyed on table-level lock
//!    footprints. A fork shares the base's tables copy-on-write and copies
//!    only those its schedule writes, and a path records its steps
//!    unrendered, so one path costs the statements it executes; only the
//!    schedule the goal accepts is formatted. Statements run in
//!    nowait mode, so the lock manager's wait-for graph yields instant
//!    deterministic cycle detection without threads or timeouts. There is
//!    one search ([`search`]) whose [`Goal`] judges each closed cycle and
//!    each finished schedule through a [`Schedule`] view (steps rendered on
//!    demand by [`Schedule::steps`], failures,
//!    and per waiting instance the lock it waits on and who was granted
//!    it). [`explore()`] stops at the first wait-for cycle;
//!    [`explore_anomalies`] ([`anomaly`]) runs the same loop at a weak
//!    isolation level, treats a cycle as an abort, and classifies the
//!    committed history of every schedule that runs to the end. Both
//!    return the search's own result, [`Searched`].
//! 3. **Witness** ([`witness`]) — the first deadlocking schedule becomes a
//!    [`Witness`]: ordered steps (instance, statement, concrete SQL, locks
//!    acquired) plus the final wait-for cycle, renderable as text and as
//!    canonical single-line JSON for byte-for-byte reproducibility checks.
//!
//! The driver ([`Replayer`]) wires a [`DeadlockReport`] to the traces it
//! came from and classifies it [`ReplayVerdict::Confirmed`] (a witness
//! exists), [`ReplayVerdict::NotReproduced`] (no schedule in budget
//! deadlocked — e.g. a cycle SAT under the lock model but not reachable in
//! the engine; `budget_hit` tells a search that ran out of budget from one
//! that covered the whole reduced schedule space), or
//! [`ReplayVerdict::Skipped`] (missing trace/transaction).

pub mod anomaly;
pub mod concretize;
pub mod explore;
pub mod witness;

pub use anomaly::{
    explore_anomalies, serial_state_digests, state_digest, AnomalyFinding, AnomalyWitness,
};
pub use concretize::{concretize_txn, render_sql, ConcreteStmt};
pub use explore::{explore, search, Goal, Instance, ReplayConfig, Schedule, Searched, Wait};
pub use witness::{render_lock, Witness, WitnessInstance, WitnessStep};

use weseer_analyzer::{CollectedTrace, DeadlockReport};
use weseer_db::Database;
use weseer_smt::Model;

/// The outcome of replaying one diagnosed cycle.
#[derive(Debug, Clone)]
pub enum ReplayVerdict {
    /// A concrete schedule deadlocked; here is the witness.
    Confirmed(Box<Witness>),
    /// No schedule within budget deadlocked.
    NotReproduced {
        /// Schedules run to completion.
        schedules_explored: usize,
        /// Branches pruned by sleep sets.
        schedules_pruned: usize,
        /// A search stopped at its budget: "not reproduced *so far*".
        budget_hit: bool,
    },
    /// Replay was not attempted, with the reason.
    Skipped(String),
}

impl ReplayVerdict {
    /// Whether this verdict carries a witness.
    pub fn is_confirmed(&self) -> bool {
        matches!(self, ReplayVerdict::Confirmed(_))
    }

    /// The witness, if confirmed.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            ReplayVerdict::Confirmed(w) => Some(w),
            _ => None,
        }
    }

    /// Short stable tag: `confirmed`, `not_reproduced`, or `skipped`.
    pub fn tag(&self) -> &'static str {
        match self {
            ReplayVerdict::Confirmed(_) => "confirmed",
            ReplayVerdict::NotReproduced { .. } => "not_reproduced",
            ReplayVerdict::Skipped(_) => "skipped",
        }
    }
}

/// Replays diagnosed cycles against a prepared database.
pub struct Replayer<'a> {
    traces: &'a [CollectedTrace],
    config: ReplayConfig,
}

impl<'a> Replayer<'a> {
    /// A replayer over the traces the analyzer diagnosed.
    pub fn new(traces: &'a [CollectedTrace]) -> Replayer<'a> {
        Replayer::with_config(traces, ReplayConfig::default())
    }

    /// Override exploration budgets.
    pub fn with_config(traces: &'a [CollectedTrace], config: ReplayConfig) -> Replayer<'a> {
        Replayer { traces, config }
    }

    /// Replay one report's cycle against `base` (a database in the state
    /// the traces were collected from; the explorer forks it per schedule
    /// and never mutates it).
    pub fn replay_report(&self, report: &DeadlockReport, base: &Database) -> ReplayVerdict {
        let _span = weseer_obs::span("replay.report");
        let verdict = self.replay_report_inner(report, base);
        weseer_obs::incr(match &verdict {
            ReplayVerdict::Confirmed(_) => "replay.confirmed",
            ReplayVerdict::NotReproduced { .. } => "replay.not_reproduced",
            ReplayVerdict::Skipped(_) => "replay.skipped",
        });
        verdict
    }

    fn replay_report_inner(&self, report: &DeadlockReport, base: &Database) -> ReplayVerdict {
        let c = &report.cycle;
        let pair = |a: &Model, b: &Model| {
            pair_instances(
                self.traces,
                [(&c.a_api, c.a_txn, a), (&c.b_api, c.b_txn, b)],
            )
        };
        // Attempt 1: the solver's inputs. Attempt 2 (only if the first
        // exhausts its budget, and only when it differs): the inputs
        // observed during tracing — a partial SAT model can pick
        // degenerate values (e.g. every key equal) that serialize the two
        // transactions even though the traced inputs deadlock.
        let solved = pair(
            &report.sat_model.strip_prefix("A1."),
            &report.sat_model.strip_prefix("A2."),
        );
        let empty = Model::default();
        let mut attempts = match (solved, pair(&empty, &empty)) {
            (Ok(solved), Ok(traced)) => vec![solved, traced],
            (Err(reason), _) | (_, Err(reason)) => return ReplayVerdict::Skipped(reason),
        };
        let sqls = |pair: &[Instance]| -> Vec<String> {
            let stmts = pair.iter().flat_map(|inst| &inst.stmts);
            stmts.map(|s| s.sql.clone()).collect()
        };
        if sqls(&attempts[0]) == sqls(&attempts[1]) {
            attempts.pop();
        }
        let (mut explored, mut pruned, mut budget_hit) = (0, 0, false);
        for instances in attempts {
            let s = explore(base, &instances, &self.config);
            explored += s.explored;
            pruned += s.pruned;
            budget_hit |= s.budget_hit;
            if let Some((steps, cycle)) = s.found {
                return ReplayVerdict::Confirmed(Box::new(Witness {
                    instances: witness::named(&instances, [&c.a_api, &c.b_api]),
                    steps,
                    cycle,
                    schedules_explored: explored,
                    schedules_pruned: pruned,
                }));
            }
        }
        ReplayVerdict::NotReproduced {
            schedules_explored: explored,
            schedules_pruned: pruned,
            budget_hit,
        }
    }
}

/// The instances `[A1, A2]` of a diagnosed pair — the one place a report
/// or anomaly candidate becomes something the search can run: find each
/// side's trace by API name and concretize its `txn`-th transaction under
/// that side's model (already projected onto the instance's namespace).
/// `sides` is `(api, txn, model)` for A1 then A2; `Err` carries the reason
/// replay cannot be attempted.
pub fn pair_instances(
    traces: &[CollectedTrace],
    sides: [(&str, usize, &Model); 2],
) -> Result<Vec<Instance>, String> {
    let instance = |(name, (api, txn, model)): (&str, (&str, usize, &Model))| {
        let trace = traces.iter().find(|t| t.api() == api);
        let trace = trace.ok_or_else(|| format!("no trace for API {api}"))?;
        let stmts = concretize_txn(trace, txn, model);
        if stmts.is_empty() {
            return Err("cycle transaction has no statements".to_string());
        }
        let name = name.to_string();
        Ok(Instance { name, stmts })
    };
    ["A1", "A2"].into_iter().zip(sides).map(instance).collect()
}
