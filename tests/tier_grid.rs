//! The solver tiers are pure optimisations on a real application: every
//! row of `TierConfig::ablation_configs()` must report the same cycles in
//! the same order as the untiered solver, and may only *refine* its
//! verdict counts — on Shopizer and on Broadleaf. The fast path only
//! finds models, so this grid is the tiers' one real-app differential.
//! (`crates/smt/tests/cdcl_agreement.rs` checks the same grid on random
//! QF_LIA terms.) Four diagnoses per app.

use std::time::Instant;
use weseer::analyzer::diagnose;
use weseer::apps::{Broadleaf, ECommerceApp, Fixes, Shopizer};
use weseer::core::Weseer;
use weseer::smt::TierConfig;

fn every_row_reports_the_untiered_cycles(app: &dyn ECommerceApp) {
    let weseer = Weseer::new();
    let (traces, _db) = weseer.collect_traces(app, &Fixes::none());
    let catalog = app.catalog();

    let rows: Vec<_> = TierConfig::ablation_configs()
        .into_iter()
        .map(|(label, tiers)| {
            let mut config = weseer.config.clone();
            config.solver.tiers = tiers;
            let start = Instant::now();
            let d = diagnose(&catalog, &traces, &config);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            // Cycle identities only: a tier-1 SAT model may legitimately
            // differ from the full solver's, but which deadlocks are
            // reported, and in what order, must not.
            let cycles: Vec<String> = d
                .deadlocks
                .iter()
                .map(|r| format!("{:?}", r.cycle))
                .collect();
            let verdicts = (d.stats.smt_sat, d.stats.smt_unsat, d.stats.smt_unknown);
            // Visible under `--nocapture`: what each tier costs or saves.
            println!(
                "tier_grid {:<9} {label:<12} {ms:>8.1} ms  (sat, unsat, unknown) = {verdicts:?}",
                app.name()
            );
            (label, cycles, verdicts)
        })
        .collect();

    assert_eq!(rows.len(), 4);
    let (base_label, base_cycles, (bs, bu, bk)) = rows.last().expect("the no_tiers row");
    assert_eq!(*base_label, "no_tiers");
    assert!(!base_cycles.is_empty(), "the app must produce reports");
    for (label, cycles, (s, u, k)) in &rows {
        assert_eq!(cycles, base_cycles, "'{label}' changed the reported cycles");
        // Simplification may let a full solve finish that runs out of
        // budget on the raw formula, turning a baseline Unknown into an
        // Unsat — never the reverse, and never touching the sat count.
        assert!(
            s == bs && k <= bk && u + k == bu + bk,
            "'{label}' verdicts {:?} do not refine no_tiers {:?}",
            (s, u, k),
            (bs, bu, bk)
        );
    }
}

#[test]
fn every_tier_row_reports_the_untiered_cycles() {
    every_row_reports_the_untiered_cycles(&Shopizer);
}

#[test]
fn every_tier_row_reports_the_untiered_cycles_on_broadleaf() {
    every_row_reports_the_untiered_cycles(&Broadleaf);
}
