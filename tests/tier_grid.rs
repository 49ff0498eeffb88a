//! The solver tiers are pure optimisations on a real application: every
//! row of `TierConfig::ablation_configs()` must report the same Shopizer
//! cycles in the same order as the untiered solver, and may only *refine*
//! its verdict counts. (`crates/smt/tests/cdcl_agreement.rs` checks the
//! same grid on random QF_LIA terms.) Five diagnoses: ≈ 0.5 s in a
//! release build, ≈ 6 s in a debug build, where every tier-1 UNSAT is
//! also cross-checked against the full solver.

use std::time::Instant;
use weseer::analyzer::diagnose;
use weseer::apps::{ECommerceApp, Fixes, Shopizer};
use weseer::core::Weseer;
use weseer::smt::TierConfig;

#[test]
fn every_tier_row_reports_the_untiered_cycles() {
    let weseer = Weseer::new();
    let (traces, _db) = weseer.collect_traces(&Shopizer, &Fixes::none());
    let catalog = Shopizer.catalog();

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
            println!("tier_grid {label:<12} {ms:>8.1} ms  (sat, unsat, unknown) = {verdicts:?}");
            (label, cycles, verdicts)
        })
        .collect();

    let (base_label, base_cycles, (bs, bu, bk)) = rows.last().expect("the no_tiers row");
    assert_eq!(*base_label, "no_tiers");
    assert!(!base_cycles.is_empty(), "Shopizer must produce reports");
    for (label, cycles, (s, u, k)) in &rows {
        assert_eq!(cycles, base_cycles, "'{label}' changed the reported cycles");
        // A tier may decide a query whose full solve runs out of budget,
        // turning a baseline Unknown into an Unsat — never the reverse,
        // and never touching the sat count.
        assert!(
            s == bs && k <= bk && u + k == bu + bk,
            "'{label}' verdicts {:?} do not refine no_tiers {:?}",
            (s, u, k),
            (bs, bu, bk)
        );
    }
}
