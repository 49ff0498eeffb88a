//! Automatic deadlock reproduction (the paper's Sec. V-D future work:
//! "develop a framework to automatically reproduce the deadlocks
//! according to WeSEER's report — doing so helps eliminate all false
//! positives").
//!
//! Given a report naming two APIs, the replayer prepares the database in
//! the state the traces were collected under, then races the two API
//! invocations (same canonical inputs, so they collide on the same rows)
//! from a barrier, repeatedly, until the database detects a deadlock and
//! aborts a victim — or an attempt budget runs out.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use weseer_analyzer::DeadlockReport;
use weseer_apps::app::collect_trace;
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

/// Prepare a database in the state preceding the report's APIs: seed, then
/// run every unit test before the first involved API (the unit tests are
/// chained — Sec. VII-B). Native-mode execution makes the resulting state
/// deterministic, which the witness replayer relies on.
pub fn prepare_db(app: &dyn ECommerceApp, upto: &str) -> Database {
    let db = Database::new(app.catalog());
    app.seed(&db);
    let fixes = Fixes::none();
    let locks = AppLocks::new();
    for test in app.unit_tests() {
        if *test == upto {
            break;
        }
        let (_t, _c, r) = collect_trace(
            app,
            test,
            &db,
            &fixes,
            &locks,
            ExecMode::Native,
            LibraryMode::Modeled,
        );
        r.unwrap_or_else(|e| panic!("state preparation failed at {test}: {e}"));
    }
    db
}

/// The unit test whose starting state a pair's statements ran against.
/// Trace collection chains DB state across unit tests, so that is the state
/// left by every test before the *earlier* of the two APIs in test order.
fn earlier_api(app: &dyn ECommerceApp, a_api: &str, b_api: &str) -> &'static str {
    let order = app.unit_tests();
    let first = order.iter().find(|t| **t == a_api || **t == b_api);
    first.copied().unwrap_or(order[0])
}

/// Base databases for schedule replay: one [`prepare_db`] per distinct
/// starting API, reused across pairs (the search only forks them).
pub(crate) struct BaseStates<'a> {
    app: &'a dyn ECommerceApp,
    prepared: BTreeMap<&'static str, Database>,
}

impl<'a> BaseStates<'a> {
    pub(crate) fn new(app: &'a dyn ECommerceApp) -> Self {
        BaseStates {
            app,
            prepared: BTreeMap::new(),
        }
    }

    /// The database in the state the pair's traces were collected from.
    pub(crate) fn for_pair(&mut self, a_api: &str, b_api: &str) -> &Database {
        let first = earlier_api(self.app, a_api, b_api);
        self.prepared
            .entry(first)
            .or_insert_with(|| prepare_db(self.app, first))
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
    let first = earlier_api(&app, &a_api, &b_api);

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
