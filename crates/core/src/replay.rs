//! Database states from the unit-test chain, and deadlock reproduction
//! from them.
//!
//! * [`prepare_db`] — the database as one unit test found it: the chain
//!   ([`run_chain`]) in native mode, stopped before that test.
//! * `BaseStates` — the same states as trace collection kept them, one
//!   per unit test; witness replay and the anomaly screen fork these.
//! * [`replay`] — the paper's Sec. V-D future work ("develop a framework
//!   to automatically reproduce the deadlocks according to WeSEER's
//!   report — doing so helps eliminate all false positives"): prepare the
//!   state the report's traces were collected under, then race the two
//!   API invocations (same canonical inputs, so they collide on the same
//!   rows) from a barrier, repeatedly, until the database detects a
//!   deadlock and aborts a victim — or an attempt budget runs out.

use std::sync::{Arc, Barrier};
use weseer_analyzer::DeadlockReport;
use weseer_apps::app::{collect_trace, run_chain};
use weseer_apps::{AppLocks, ECommerceApp, Fixes};
use weseer_concolic::{ExecMode, LibraryMode};
use weseer_db::Database;

/// Result of a replay campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Whether a database deadlock was observed.
    pub reproduced: bool,
    /// Attempts used.
    pub attempts: usize,
    /// Deadlock aborts observed across attempts.
    pub deadlock_aborts: u64,
}

/// Prepare a database in the state preceding the unit test `upto`: the
/// unit-test chain ([`run_chain`]) in native mode, stopped before `upto`.
/// Native-mode execution reaches the same state as the concolic chain
/// trace collection runs, so this is the state `upto`'s trace ran from.
pub fn prepare_db(app: &dyn ECommerceApp, upto: &str) -> Database {
    let fixes = Fixes::none();
    let locks = AppLocks::new();
    run_chain(app, Some(upto), |test, db| {
        let (_t, _c, r) = collect_trace(
            app,
            test,
            db,
            &fixes,
            &locks,
            ExecMode::Native,
            LibraryMode::Modeled,
        );
        r.unwrap_or_else(|e| panic!("state preparation failed at {test}: {e}"));
    })
}

/// Index (in unit-test order) of the test whose starting state a pair's
/// statements ran against. Trace collection chains DB state across unit
/// tests, so that is the state left by every test before the *earlier* of
/// the two APIs in test order.
fn earlier_test(app: &dyn ECommerceApp, a_api: &str, b_api: &str) -> usize {
    let order = app.unit_tests();
    order
        .iter()
        .position(|t| *t == a_api || *t == b_api)
        .unwrap_or(0)
}

/// Base databases for schedule replay and the anomaly screen: the states
/// trace collection kept, one per unit test — `kept[i]` is the database
/// as unit test `i` found it. A pair starts from the state before the
/// earlier of its two APIs. The search only forks a base, never mutates
/// it, so one `&BaseStates` serves a whole parallel replay.
pub(crate) struct BaseStates<'a> {
    app: &'a dyn ECommerceApp,
    kept: Vec<Database>,
}

impl<'a> BaseStates<'a> {
    pub(crate) fn new(app: &'a dyn ECommerceApp, kept: Vec<Database>) -> Self {
        debug_assert_eq!(kept.len(), app.unit_tests().len());
        BaseStates { app, kept }
    }

    /// The database in the state the pair's traces were collected from.
    pub(crate) fn for_pair(&self, a_api: &str, b_api: &str) -> &Database {
        &self.kept[earlier_test(self.app, a_api, b_api)]
    }
}

/// Race the report's two APIs until a deadlock reproduces.
///
/// The two instances use the unit tests' canonical inputs, which the
/// analyzer's witness says can collide (for same-API reports the inputs
/// are literally identical). `max_attempts` bounds the campaign.
pub fn replay<A: ECommerceApp + Copy + Send + Sync + 'static>(
    app: A,
    report: &DeadlockReport,
    max_attempts: usize,
) -> ReplayOutcome {
    let a_api = report.cycle.a_api.clone();
    let b_api = report.cycle.b_api.clone();
    let first = app.unit_tests()[earlier_test(&app, &a_api, &b_api)];

    for attempt in 1..=max_attempts {
        let db = prepare_db(&app, first);
        // Slow statements down so the two instances interleave at
        // statement granularity even on a single-core host (the paper's
        // STEPDAD citation does the same trick at the driver level).
        db.set_statement_delay(std::time::Duration::from_micros(400));
        let before = db.stats().deadlock_aborts;
        let barrier = Arc::new(Barrier::new(2));
        let mut handles = Vec::new();
        for api in [a_api.clone(), b_api.clone()] {
            let db = db.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                let fixes = Fixes::none();
                let locks = AppLocks::new();
                let engine = weseer_concolic::shared(ExecMode::Native);
                let mut ctx = weseer_apps::AppCtx::new(&db, engine, &fixes, &locks);
                barrier.wait();
                // The outcome (success, app abort, deadlock victim) is
                // read from the database counters afterwards.
                let _ = app.run_unit_test(&mut ctx, &api);
            }));
        }
        for h in handles {
            h.join().expect("replay thread panicked");
        }
        let aborts = db.stats().deadlock_aborts - before;
        if aborts > 0 {
            return ReplayOutcome {
                reproduced: true,
                attempts: attempt,
                deadlock_aborts: aborts,
            };
        }
    }
    ReplayOutcome {
        reproduced: false,
        attempts: max_attempts,
        deadlock_aborts: 0,
    }
}
