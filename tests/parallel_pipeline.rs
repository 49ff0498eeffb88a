//! End-to-end determinism of the parallel diagnosis: the full Shopizer
//! pipeline must produce byte-identical reports and funnel counters for
//! every thread count, the report sink must see exactly the reports the
//! diagnosis collects, a `max_reports` cap must be visible, the tiered
//! fast path must discharge a real share of the workload, and witness
//! replay must give the same verdicts, witnesses and counters on any
//! number of workers.

use std::sync::Mutex;
use weseer::analyzer::{
    diagnose, diagnose_with, render_stats, AnalyzerConfig, DeadlockReport, DiagnosisStats,
};
use weseer::apps::{Broadleaf, ECommerceApp, Fixes, Shopizer};
use weseer::core::Weseer;
use weseer::store::codec::model_to_json;

/// The obs registry is process-global and the harness runs tests on
/// parallel threads: a test reading counter deltas must not overlap one
/// that diagnoses. Every test here holds this for its whole body.
static OBS: Mutex<()> = Mutex::new(());

/// The deterministic projection of `DiagnosisStats` (drops wall times).
fn funnel(s: &DiagnosisStats) -> [usize; 7] {
    [
        s.txn_pairs,
        s.pairs_after_phase1,
        s.coarse_cycles,
        s.fine_candidates,
        s.smt_sat,
        s.smt_unsat,
        s.smt_unknown,
    ]
}

#[test]
fn shopizer_diagnosis_is_identical_across_thread_counts() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let weseer = Weseer::new();
    let (traces, _db) = weseer.collect_traces(&Shopizer, &Fixes::none());
    let catalog = Shopizer.catalog();

    let run = |threads: usize| {
        let config = AnalyzerConfig {
            threads,
            ..AnalyzerConfig::default()
        };
        diagnose(&catalog, &traces, &config)
    };

    let sequential = run(1);
    assert!(
        !sequential.deadlocks.is_empty(),
        "Shopizer must produce reports"
    );
    let rendered: Vec<String> = sequential.deadlocks.iter().map(|r| r.to_string()).collect();

    for threads in [2, 4] {
        let parallel = run(threads);
        assert_eq!(
            funnel(&parallel.stats),
            funnel(&sequential.stats),
            "funnel differs at threads={threads}"
        );
        let parallel_rendered: Vec<String> =
            parallel.deadlocks.iter().map(|r| r.to_string()).collect();
        assert_eq!(
            parallel_rendered, rendered,
            "rendered reports differ at threads={threads}"
        );
    }
}

#[test]
fn the_sink_sees_exactly_the_collected_reports() {
    // Streaming is the same function as batch: at every thread count the
    // sink receives, in order, the very reports `deadlocks` collects.
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let (traces, _db) = Weseer::new().collect_traces(&Shopizer, &Fixes::none());
    let catalog = Shopizer.catalog();
    // The rendered report plus the full SAT model in its canonical
    // (sorted) serialization.
    let bytes = |r: &DeadlockReport| format!("{r}{}\n", model_to_json(&r.sat_model).to_line());
    let mut reference: Option<String> = None;
    for threads in [1, 2, 4] {
        let config = AnalyzerConfig {
            threads,
            ..AnalyzerConfig::default()
        };
        let mut streamed = String::new();
        let diagnosis = diagnose_with(
            &catalog,
            &traces,
            &config,
            None,
            None,
            Some(&mut |r| streamed.push_str(&bytes(r))),
        );
        let collected: String = diagnosis.deadlocks.iter().map(bytes).collect();
        assert!(!diagnosis.truncated);
        assert_eq!(
            streamed, collected,
            "sink vs deadlocks at threads={threads}"
        );
        assert_eq!(
            reference.get_or_insert(collected.clone()),
            &collected,
            "reports differ at threads={threads}"
        );
    }
}

#[test]
fn a_capped_run_says_so_and_keeps_the_prefix() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let (traces, _db) = Weseer::new().collect_traces(&Shopizer, &Fixes::none());
    let catalog = Shopizer.catalog();
    let run = |threads: usize, max_reports: usize| {
        let config = AnalyzerConfig {
            threads,
            max_reports,
            ..AnalyzerConfig::default()
        };
        let mut sunk: Vec<String> = Vec::new();
        let diagnosis = diagnose_with(
            &catalog,
            &traces,
            &config,
            None,
            None,
            Some(&mut |r| sunk.push(r.to_string())),
        );
        (diagnosis, sunk)
    };
    let (full, full_sunk) = run(1, AnalyzerConfig::default().max_reports);
    assert!(!full.truncated, "an uncapped run must not claim truncation");
    assert!(full_sunk.len() > 3, "Shopizer has more than 3 reports");
    for threads in [1, 4] {
        let (capped, sunk) = run(threads, 3);
        assert!(
            capped.truncated,
            "threads={threads}: the cap must be visible"
        );
        assert_eq!(sunk, full_sunk[..3], "threads={threads}");
        assert_eq!(capped.deadlocks.len(), 3);
        assert!(render_stats(&capped).contains("TRUNCATED at max_reports = 3"));
    }
    assert!(!render_stats(&full).contains("TRUNCATED"));
}

#[test]
fn fastpath_discharges_cover_real_workload() {
    // With all tiers on (the default), tier 1 must find a model for a
    // real share of Shopizer's candidates, and its models plus the
    // fall-throughs must partition them (`fallthrough` counts every
    // query the fast path handed to a full solve).
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    weseer::obs::set_enabled(true);
    let before = weseer::obs::snapshot();
    let weseer_tool = Weseer::new();
    let analysis = weseer_tool.analyze(&Shopizer);
    let m = weseer::obs::snapshot().delta_since(&before);
    let c = |name: &str| m.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        c("smt.fastpath.t1_sat") + c("smt.fastpath.fallthrough"),
        analysis.diagnosis.stats.fine_candidates as u64,
        "tier-1 models plus fall-throughs must cover exactly the fine candidates"
    );
    // The decision split itself, which the benchmark goldens pin only
    // as an opaque digest — and the truncation behind it: every
    // fall-through is a tier-1 arm search that stopped at `MAX_COMBOS`
    // with combinations left untried, not a formula tier 1 exhausted.
    assert_eq!(
        (
            c("smt.fastpath.t1_sat"),
            c("smt.fastpath.fallthrough"),
            c("smt.fastpath.t1_capped"),
        ),
        (21, 12, 12),
        "(t1_sat, fallthrough, t1_capped) on Shopizer"
    );
    assert_eq!(
        c("smt.model_rejected"),
        0,
        "every model passes the SAT gate"
    );
}

#[test]
fn replay_is_identical_across_thread_counts() {
    // Replay maps the reports through the analyzer's worker pool: every
    // witness line, verdict tag and replay counter must match the
    // single-threaded run, in report order, on both applications.
    const COUNTERS: [&str; 5] = [
        "replay.confirmed",
        "replay.not_reproduced",
        "replay.skipped",
        "replay.schedules_explored",
        "replay.schedules_pruned",
    ];
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    weseer::obs::set_enabled(true);
    let apps: [&dyn ECommerceApp; 2] = [&Broadleaf, &Shopizer];
    for app in apps {
        let run = |threads: usize| {
            let before = weseer::obs::snapshot();
            let analysis = Weseer::new()
                .with_threads(threads)
                .with_replay()
                .analyze(app);
            let m = weseer::obs::snapshot().delta_since(&before);
            let verdicts = &analysis.replay.expect("replay enabled").verdicts;
            let witnesses: Vec<String> = verdicts
                .iter()
                .filter_map(|v| v.witness().map(|w| w.to_json()))
                .collect();
            let tags: Vec<&str> = verdicts.iter().map(|v| v.tag()).collect();
            let counters = COUNTERS.map(|name| m.counter(name));
            (witnesses, tags, counters)
        };
        let sequential = run(1);
        assert!(
            !sequential.0.is_empty(),
            "{} must confirm witnesses",
            app.name()
        );
        for threads in [2, 4] {
            assert_eq!(
                run(threads),
                sequential,
                "{} replay differs at threads={threads}",
                app.name()
            );
        }
    }
}
