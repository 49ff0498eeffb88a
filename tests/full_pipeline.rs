//! Workspace-level integration: the user-facing facade runs the full
//! Fig. 2 pipeline and its reports carry what a developer needs to act on
//! them. Reproducing the reports as real database deadlocks is
//! `tests/witness_replay.rs`'s job.

use weseer::apps::{Broadleaf, KnownDeadlock, Shopizer};
use weseer::core::Weseer;

#[test]
fn facade_finds_every_table2_row() {
    let weseer = Weseer::new();
    let broadleaf = weseer.analyze(&Broadleaf);
    let shopizer = weseer.analyze(&Shopizer);
    let found: usize = broadleaf.deadlock_ids_found() + shopizer.deadlock_ids_found();
    assert_eq!(found, 18, "all 18 paper deadlocks must be covered");
    // Every found row belongs to the right app.
    for row in broadleaf.rows_found() {
        assert_eq!(row.app(), "broadleaf");
    }
    for row in shopizer.rows_found() {
        assert_eq!(row.app(), "shopizer");
    }
    // The three-phase funnel narrows monotonically.
    for a in [&broadleaf, &shopizer] {
        let s = &a.diagnosis.stats;
        assert!(s.pairs_after_phase1 <= s.txn_pairs);
        assert!(s.fine_candidates <= s.coarse_cycles);
        assert!(s.smt_sat + s.smt_unsat + s.smt_unknown == s.fine_candidates);
    }
}

/// What the retired `ablation_no_range_locks` bench was for, as a fact
/// instead of a timing: the Alg. 3 range-lock arm finds deadlocks the
/// row-lock-only model cannot see. (On Shopizer the knob moves nothing.)
#[test]
fn range_locks_find_deadlocks_the_row_lock_model_misses() {
    let cycles = |weseer: &Weseer| -> Vec<String> {
        let reports = weseer.analyze(&Broadleaf).diagnosis.deadlocks;
        reports.iter().map(|r| format!("{:?}", r.cycle)).collect()
    };
    let mut row_locks_only = Weseer::new();
    row_locks_only.config.use_range_locks = false;
    let with_ranges = cycles(&Weseer::new());
    let without = cycles(&row_locks_only);
    assert_eq!(with_ranges.len(), 124);
    assert_eq!(without.len(), 115, "range locks account for 9 reports");
    assert!(
        without.iter().all(|c| with_ranges.contains(c)),
        "dropping the range-lock arm must only lose reports"
    );
}

#[test]
fn reports_carry_actionable_information() {
    // Fig. 2: reports include involved APIs, SQL, triggering code, and a
    // witness for inputs + database state.
    let weseer = Weseer::new();
    let analysis = weseer.analyze(&Shopizer);
    assert!(!analysis.diagnosis.deadlocks.is_empty());
    for r in &analysis.diagnosis.deadlocks {
        assert_eq!(r.statements.len(), 4, "hold/wait per instance");
        for s in &r.statements {
            assert!(!s.sql.is_empty());
            assert!(
                s.trigger.top().is_some(),
                "every statement maps to triggering code: {r}"
            );
        }
        assert!(!r.model.is_empty(), "witness assignment present: {r}");
    }
    // Grouping is total: every report classifies to something known.
    for r in &analysis.diagnosis.deadlocks {
        let k = weseer::apps::classify("shopizer", r);
        assert_ne!(k, KnownDeadlock::Unexpected, "{r}");
    }
}
