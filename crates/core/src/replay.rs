//! Database states from the unit-test chain, which witness replay starts
//! from.
//!
//! * [`prepare_db`] — the database as one unit test found it: the chain
//!   ([`run_chain`]) in native mode, stopped before that test.
//! * `BaseStates` — the same states as trace collection kept them, one
//!   per unit test; witness replay and the anomaly screen fork these.
//!
//! Replay confirms a report on one thread through the nowait lock path.
//! `tests/witness_replay.rs` re-enacts every confirmed witness on two real
//! threads through the blocking path, from [`prepare_db`]'s states.

use weseer_apps::app::{collect_trace, run_chain};
use weseer_apps::{AppLocks, ECommerceApp, Fixes};
use weseer_concolic::{ExecMode, LibraryMode};
use weseer_db::Database;

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
