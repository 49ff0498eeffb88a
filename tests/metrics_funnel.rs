//! Observability integration: a full diagnosis run must publish a
//! self-consistent funnel (the counters mirror `DiagnosisStats`), phase
//! wall times, SMT solver statistics, and lock-manager counters, and the
//! snapshot must export as well-formed JSON lines.

use std::sync::Mutex;
use weseer::apps::{Broadleaf, Shopizer};
use weseer::core::Weseer;

/// `analysis.metrics` is a delta of the process-global obs registry and
/// the harness runs tests on parallel threads: the two tests that analyze
/// must not overlap.
static OBS: Mutex<()> = Mutex::new(());

#[test]
fn broadleaf_metrics_funnel_is_consistent() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    weseer::obs::set_enabled(true);
    let analysis = Weseer::new().analyze(&Broadleaf);
    let m = &analysis.metrics;
    let c = |name: &str| {
        *m.counters
            .get(name)
            .unwrap_or_else(|| panic!("missing counter {name}; have {:?}", m.counters.keys()))
    };

    // The diagnosis funnel narrows monotonically and its tail partitions.
    let txn_pairs = c("analyzer.txn_pairs");
    let after_p1 = c("analyzer.pairs_after_phase1");
    let fine = c("analyzer.fine_candidates");
    let sat = c("analyzer.smt_sat");
    let unsat = c("analyzer.smt_unsat");
    let unknown = c("analyzer.smt_unknown");
    assert!(txn_pairs > 0, "no transaction pairs examined");
    assert!(after_p1 <= txn_pairs, "phase 1 cannot add pairs");
    assert!(
        fine <= c("analyzer.coarse_cycles"),
        "phase 2 cannot add candidates"
    );
    assert_eq!(
        sat + unsat + unknown,
        fine,
        "SMT verdicts must partition the candidates"
    );
    assert!(
        sat > 0,
        "Broadleaf has real deadlocks; some candidates must be sat"
    );

    // The counters are the published image of DiagnosisStats.
    let s = &analysis.diagnosis.stats;
    assert_eq!(txn_pairs, s.txn_pairs as u64);
    assert_eq!(after_p1, s.pairs_after_phase1 as u64);
    assert_eq!(fine, s.fine_candidates as u64);
    assert_eq!(sat, s.smt_sat as u64);
    assert_eq!(unsat, s.smt_unsat as u64);
    assert_eq!(unknown, s.smt_unknown as u64);
    assert_eq!(
        c("analyzer.deadlocks_reported"),
        analysis.diagnosis.deadlocks.len() as u64
    );

    // Per-phase wall times are published (phase 3 does real SMT work).
    assert_eq!(c("analyzer.phase1_us"), s.phase1_time.as_micros() as u64);
    assert_eq!(c("analyzer.phase2_us"), s.phase2_time.as_micros() as u64);
    assert_eq!(c("analyzer.phase3_us"), s.phase3_time.as_micros() as u64);
    assert!(
        c("analyzer.phase3_us") > 0,
        "phase 3 should take measurable time"
    );

    // SMT solver statistics flow out of the solver stack. Every fine
    // candidate dispatches the solver, where tier 1 either finds a model
    // or the query falls through to a full solve — so `t1_sat` plus
    // `fallthrough` partition the candidates. A counter that stays zero
    // is never published, hence the defaulting lookup.
    let c0 = |name: &str| m.counters.get(name).copied().unwrap_or(0);
    assert!(
        c("smt.solve_calls") >= fine,
        "every fine candidate dispatches the solver"
    );
    assert_eq!(
        c0("smt.fastpath.t1_sat") + c0("smt.fastpath.fallthrough"),
        fine,
        "tier-1 models plus fall-throughs must cover exactly the fine candidates"
    );
    assert!(
        c0("smt.fastpath.t1_sat") > 0,
        "tier 1 should find a model for some Broadleaf candidates"
    );
    assert_eq!(c0("smt.model_rejected"), 0);
    assert!(c("smt.sat_propagations") > 0);
    let solve_us = m
        .histogram("smt.solve_us")
        .expect("smt.solve_us histogram missing");
    assert_eq!(solve_us.count, c("smt.solve_calls"));
    assert!(solve_us.p50() <= solve_us.p99());

    // Trace collection ran under the concolic engine.
    assert!(c("concolic.traces") > 0);
    assert!(c("concolic.statements") > 0);
    let api_us = m
        .histogram("concolic.trace_api_us")
        .expect("concolic.trace_api_us histogram missing");
    assert_eq!(api_us.count as usize, analysis.trace_summaries.len());

    // The lock manager counted the unit tests' acquisitions.
    assert!(c("db.lock.acquisitions") > 0);

    // The pipeline span was recorded.
    assert!(
        m.histogram("span.pipeline.analyze").is_some(),
        "pipeline span missing"
    );

    // The JSON-lines export is line-shaped and scoped.
    let json = m.to_json_lines(Some("broadleaf"));
    assert!(!json.is_empty());
    for line in json.lines() {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "malformed JSON line: {line}"
        );
        assert!(
            line.contains("\"scope\":\"broadleaf\""),
            "unscoped line: {line}"
        );
    }
    assert!(json.contains("\"name\":\"analyzer.txn_pairs\""));
    assert!(json.contains("\"name\":\"smt.solve_us\""));
}

/// `smt.solve_us` times the query, not just the tier that answered it:
/// a query that falls through to the full solver still spent its tier-1
/// time, so the per-query histogram can never sum to less than tier 1's.
#[test]
fn solve_time_covers_the_fast_path_tiers() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    weseer::obs::set_enabled(true);
    let analysis = Weseer::new().analyze(&Shopizer);
    let sum = |name: &str| {
        analysis
            .metrics
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} histogram missing"))
            .sum
    };
    assert!(
        sum("smt.solve_us") >= sum("smt.fastpath.t1_us"),
        "smt.solve_us ({} us) must include tier 1 ({} us)",
        sum("smt.solve_us"),
        sum("smt.fastpath.t1_us")
    );
    assert!(sum("smt.solve_us") >= sum("smt.full_solve_us"));
}

/// The funnel definition covers the serving plane: the daemon's ingest
/// and verdict counters render as trailing stages (zero in batch runs),
/// and the stage list stays free of duplicates.
#[test]
fn funnel_stages_cover_the_serving_plane() {
    use weseer::core::FUNNEL_STAGES;
    let counters: Vec<&str> = FUNNEL_STAGES.iter().map(|&(_, c)| c).collect();
    assert!(counters.contains(&"serve.traces_ingested"));
    assert!(counters.contains(&"serve.verdicts_served"));
    let unique: std::collections::BTreeSet<&str> = counters.iter().copied().collect();
    assert_eq!(unique.len(), counters.len(), "duplicate funnel counters");

    // The serve stages sit after the batch pipeline's stages, so the
    // rendered funnel reads collection -> diagnosis -> replay -> serving.
    let serve_idx = counters
        .iter()
        .position(|c| *c == "serve.traces_ingested")
        .unwrap();
    assert!(
        counters[..serve_idx]
            .iter()
            .all(|c| !c.starts_with("serve.")),
        "serve stages must trail the batch stages"
    );
}
