//! End-to-end incremental warm starts: a warm run against a filled store
//! must be byte-identical to the cold run that filled it — across thread
//! counts — while doing **zero** full DPLL(T) solves and exploring
//! **zero** replay schedules; a cold run must write the same store bytes
//! on any number of threads; dirtying one trace must invalidate exactly
//! the stored outcomes that involve it; every app version analyzed
//! against one store stays resident in it, so switching back is a pure
//! hit; a store file written by an earlier version of the tool must keep
//! opening; and the baseline coarse-cycle count an analysis reports
//! without re-scanning must be the one a re-scan finds, cold and warm.

use std::path::PathBuf;
use std::time::Duration;
use weseer::analyzer::coarse_cycle_count;
use weseer::apps::{Broadleaf, ECommerceApp, Fix, Fixes, Shopizer};
use weseer::core::{AppAnalysis, Weseer};
use weseer::obs::MetricsSnapshot;
use weseer::store::codec::model_to_json;

/// Both tests read deltas of the process-global obs registry, and the
/// harness runs them on parallel threads: each holds this throughout.
static OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn store_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "weseer-incremental-test-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Deterministic projection of an analysis: rendered reports, replay
/// verdicts (witnesses as canonical JSON), and funnel counters.
fn render(analysis: &AppAnalysis) -> String {
    let mut s = String::new();
    for r in &analysis.diagnosis.deadlocks {
        s.push_str(&format!("{r}\n"));
    }
    for v in &analysis.replay.as_ref().expect("replay enabled").verdicts {
        match v.witness() {
            Some(w) => s.push_str(&format!("{}\n", w.to_json())),
            None => s.push_str(&format!("{}\n", v.tag())),
        }
    }
    s.push_str(&format!("funnel {:?}\n", funnel(analysis)));
    s
}

/// The deterministic part of the diagnosis statistics (no wall times).
fn funnel(analysis: &AppAnalysis) -> [usize; 7] {
    let st = &analysis.diagnosis.stats;
    [
        st.txn_pairs,
        st.pairs_after_phase1,
        st.coarse_cycles,
        st.fine_candidates,
        st.smt_sat,
        st.smt_unsat,
        st.smt_unknown,
    ]
}

fn run(path: &PathBuf, threads: usize, dirty: Option<&str>) -> (AppAnalysis, MetricsSnapshot) {
    let mut weseer = Weseer::new()
        .with_threads(threads)
        .with_replay()
        .with_store(path)
        .expect("open store");
    if let Some(api) = dirty {
        weseer = weseer.with_dirty(api);
    }
    let before = weseer::obs::snapshot();
    let analysis = weseer.analyze(&Broadleaf);
    (analysis, weseer::obs::snapshot().delta_since(&before))
}

#[test]
fn warm_runs_are_byte_identical_and_solve_nothing() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    weseer::obs::set_enabled(true);
    let path = store_path("broadleaf");

    // Cold run on one thread fills the store.
    let (cold, _) = run(&path, 1, None);
    let cold_out = render(&cold);
    assert!(
        !cold.diagnosis.deadlocks.is_empty(),
        "cold run must diagnose deadlocks"
    );
    let file_after_cold = std::fs::read(&path).expect("store written");

    // Warm run on four threads: byte-identical output, every store
    // lookup a hit, no SMT full solve, no schedule exploration, and the
    // store file untouched.
    let (warm, wm) = run(&path, 4, None);
    assert_eq!(render(&warm), cold_out, "warm output must match cold");
    assert_eq!(wm.counter("smt.full_solve"), 0, "warm run must not solve");
    assert_eq!(
        wm.counter("replay.schedules_explored"),
        0,
        "warm run must not explore schedules"
    );
    assert_eq!(wm.counter("store.miss"), 0);
    assert!(wm.counter("store.hit") > 0);
    assert_eq!(
        std::fs::read(&path).expect("store present"),
        file_after_cold,
        "an unchanged warm run must leave the store file untouched"
    );

    // Dirty the Ship trace: same output (the traces did not actually
    // change), but exactly the fingerprint-keyed entries involving Ship
    // miss and are recomputed.
    let (dirty, dm) = run(&path, 4, Some("Ship"));
    assert_eq!(render(&dirty), cold_out, "dirtied output must match cold");
    assert!(dm.counter("store.miss") > 0, "dirtying must invalidate");

    // The dirty run looks up what the warm run did: each lookup still
    // hits or misses (per kind: dirty hits + dirty misses == warm hits).
    for kind in ["pair2", "pair3", "wit"] {
        assert_eq!(
            dm.counter(&format!("store.hit.{kind}")) + dm.counter(&format!("store.miss.{kind}")),
            wm.counter(&format!("store.hit.{kind}")),
            "kind {kind}: hits+misses must cover the warm hit set"
        );
    }
    // The missed witness entries are exactly the reports involving Ship.
    let involving_ship = cold
        .diagnosis
        .deadlocks
        .iter()
        .filter(|r| r.cycle.a_api == "Ship" || r.cycle.b_api == "Ship")
        .count() as u64;
    assert!(involving_ship > 0, "Broadleaf reports Ship deadlocks");
    assert_eq!(dm.counter("store.miss.wit"), involving_ship);

    // Pairs not touching Ship stayed warm.
    assert!(
        dm.counter("store.hit.pair2") > 0,
        "pairs not touching Ship must stay warm"
    );

    // The dirtied records sit next to the clean ones: the clean run after
    // it is fully warm again and appends nothing.
    let file_after_dirty = std::fs::read(&path).expect("store present");
    let (clean, cm) = run(&path, 1, None);
    assert_eq!(render(&clean), cold_out);
    assert_eq!(cm.counter("store.miss"), 0, "clean records stay resident");
    assert_eq!(cm.counter("smt.full_solve"), 0);
    assert_eq!(
        std::fs::read(&path).expect("store present"),
        file_after_dirty
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn cold_store_bytes_do_not_depend_on_the_thread_count() {
    // Replay verdicts are written through from the ordered merge, in
    // report order, whichever worker finished first.
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let files = [1, 4].map(|threads| {
        let path = store_path(&format!("cold-threads{threads}"));
        run(&path, threads, None);
        let bytes = std::fs::read(&path).expect("store written");
        let _ = std::fs::remove_file(&path);
        bytes
    });
    assert!(!files[0].is_empty());
    assert!(
        files[0] == files[1],
        "cold store files differ between threads=1 and threads=4"
    );
}

/// The solver tag the previous store format carried in every content key
/// (its `TierConfig` still had the `prefix` field).
const PARENT_SOLVER: &str = "solver=SolverConfig { max_theory_iters: 500, arith_limits: \
    Limits { max_constraints: 50000, max_branches: 64 }, sat_decision_budget: 2000000, tiers: \
    TierConfig { simplify: true, presolve: true, prefix: true } }";

#[test]
fn stores_written_by_the_previous_format_still_open() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    weseer::obs::set_enabled(true);
    let path = store_path("parent-format");
    let reports_and_funnel = |a: &AppAnalysis| {
        let reports: String = a
            .diagnosis
            .deadlocks
            .iter()
            .map(|r| r.to_string())
            .collect();
        format!("{reports}{:?}", funnel(a))
    };
    let analyze = |store: Option<&PathBuf>| {
        let mut weseer = Weseer::new().with_threads(2);
        if let Some(path) = store {
            weseer = weseer.with_store(path).expect("open store");
        }
        let before = weseer::obs::snapshot();
        let analysis = weseer.analyze(&Shopizer);
        (analysis, weseer::obs::snapshot().delta_since(&before))
    };
    let (cold, _) = analyze(None);
    let cold_out = reports_and_funnel(&cold);

    // Records as previous versions wrote them: wall times (`us`) inside
    // pair2/pair3 values, content keys carrying the parent's solver tag
    // (`TierConfig`'s `Debug` text is part of every content key), and
    // records of the `smt` and `prefix` kinds, which nothing reads any
    // more. They must open, never hit, and stay inert next to this
    // version's records.
    let pair_tag = format!("lock-model-v1|fine=true|range=true|skip=false|{PARENT_SOLVER}");
    let fp = "50ac70d7191c28ee1b767deb57f2e571";
    let ship = "ffc52b3d43c6e537e57ed3cff89cc528";
    let lines = [
        "{\"weseer_store\":1}".to_string(),
        format!(
            "{{\"kind\":\"smt\",\"site\":\"5d0b4ab1c2a1f3e07d9a0c4be1f2a3b4\",\"content\":\"{PARENT_SOLVER}\",\
             \"value\":{{\"k\":\"(< v0:Int N3:Int)\",\"r\":{{\"v\":\"unsat\"}}}}}}"
        ),
        format!(
            "{{\"kind\":\"prefix\",\"site\":\"shopizer|0:Register#0\",\"content\":\"{fp}|{PARENT_SOLVER}\",\
             \"value\":{{\"unsat\":false}}}}"
        ),
        format!(
            "{{\"kind\":\"pair2\",\"site\":\"shopizer|0:Register#0|0:Register#0\",\
             \"content\":\"{fp}|{fp}|{pair_tag}\",\"value\":{{\"coarse\":0,\"us\":1,\"cycles\":[]}}}}"
        ),
        format!(
            "{{\"kind\":\"pair3\",\"site\":\"shopizer|4:Ship#0|4:Ship#0|3,5,5,6\",\
             \"content\":\"{ship}|{ship}|{pair_tag}\",\"value\":{{\"verdict\":\"unsat\",\"us\":103127}}}}"
        ),
    ];
    std::fs::write(&path, lines.join("\n") + "\n").expect("write store");
    let (over_parent, pm) = analyze(Some(&path));
    assert_eq!(
        reports_and_funnel(&over_parent),
        cold_out,
        "old records must not leak"
    );
    assert_eq!(
        pm.counter("store.hit"),
        0,
        "nothing of the old format applies"
    );
    let store = weseer::store::Store::open(&path).expect("reopen store");
    let old_pair2 = format!("{fp}|{fp}|{pair_tag}");
    assert!(
        store.get("pair2", "shopizer|0:Register#0|0:Register#0", &old_pair2)
            != weseer::store::Lookup::Miss,
        "the old records stay next to this version's"
    );
    assert!(store.len() > lines.len() - 1);
    drop(store);
    for kind in ["smt", "prefix"] {
        for outcome in ["hit", "miss"] {
            assert_eq!(
                pm.counter(&format!("store.{outcome}.{kind}")),
                0,
                "a {kind} record is never looked up"
            );
        }
    }

    // The store now also holds this version's records. Give each
    // pair2/pair3 value the old `us` field back (10 s apiece): they must
    // still hit, and the phase times must be the time this run spent, not
    // the sum of what the records claim.
    let text = std::fs::read_to_string(&path).expect("store present");
    let with_us: String = text
        .lines()
        .map(|l| {
            let l = if l.contains("\"kind\":\"pair2\"") {
                l.replace("\"cycles\":", "\"us\":10000000,\"cycles\":")
            } else if l.contains("\"kind\":\"pair3\"") && !l.contains("\"us\":") {
                format!(
                    "{},\"us\":10000000}}}}",
                    l.strip_suffix("}}").expect("record")
                )
            } else {
                l.to_string()
            };
            l + "\n"
        })
        .collect();
    std::fs::write(&path, with_us).expect("rewrite store");
    let (warm, wm) = analyze(Some(&path));
    assert_eq!(
        reports_and_funnel(&warm),
        cold_out,
        "extra fields must be skipped"
    );
    assert_eq!(wm.counter("store.miss"), 0);
    assert_eq!(wm.counter("smt.full_solve"), 0);
    let st = &warm.diagnosis.stats;
    assert!(
        st.phase2_time + st.phase3_time < Duration::from_secs(10),
        "stored wall times must not be replayed: {st:?}"
    );

    let _ = std::fs::remove_file(&path);
}

/// `[hits, misses]` of the `pair2` and `pair3` lookups when `fix`'s
/// version is analyzed over the release version's store: the traces a fix
/// leaves alone keep their records. A store-key change that loses reuse
/// (or shares records it must not) moves these.
fn reuse_over_release(fix: Fix) -> [[u64; 2]; 2] {
    match fix {
        Fix::F1 => [[15, 2], [190, 0]],
        Fix::F2 => [[5, 12], [21, 175]],
        Fix::F3 => [[5, 19], [21, 139]],
        Fix::F4 => [[5, 12], [21, 81]],
        Fix::F5 => [[5, 24], [21, 40]],
        Fix::F6 => [[12, 5], [146, 39]],
        Fix::F7 => [[12, 9], [146, 16]],
        Fix::F8 => [[12, 7], [146, 38]],
        Fix::F9 => [[1, 40], [0, 33]],
        Fix::F10 => [[10, 11], [6, 27]],
        Fix::F11 => [[10, 11], [20, 13]],
    }
}

/// Real edits through one shared store: each Table II fix changes a few
/// trace fingerprints. Analyzing the fixed version against a store the
/// release filled must render exactly what a cold analysis of it renders
/// (reports and SAT models), with the per-kind reuse of
/// [`reuse_over_release`]. After release -> fixed, both versions are
/// resident: running release and then the fix again solves nothing, misses
/// nothing and leaves the file untouched.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_fixed_version_stays_resident_next_to_the_release() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    weseer::obs::set_enabled(true);
    let rendered = |a: &AppAnalysis| -> String {
        let model = |r: &weseer::analyzer::DeadlockReport| model_to_json(&r.sat_model).to_line();
        a.diagnosis
            .deadlocks
            .iter()
            .map(|r| format!("{r}\n{}\n", model(r)))
            .collect()
    };
    let apps: [(&dyn ECommerceApp, &[Fix]); 2] =
        [(&Broadleaf, &Fix::BROADLEAF), (&Shopizer, &Fix::SHOPIZER)];
    for (app, own_fixes) in apps {
        let analyze = |store: Option<&PathBuf>, fixes: &Fixes| {
            let mut weseer = Weseer::new().with_threads(2);
            if let Some(path) = store {
                weseer = weseer.with_store(path).expect("open store");
            }
            let before = weseer::obs::snapshot();
            let analysis = weseer.analyze_with_fixes(app, fixes);
            (
                rendered(&analysis),
                weseer::obs::snapshot().delta_since(&before),
            )
        };
        let release = Fixes::none();
        let release_store = store_path(&format!("release-{}", app.name()));
        let (release_out, _) = analyze(Some(&release_store), &release);
        for &fix in own_fixes {
            let mut fixed = Fixes::none();
            fixed.enable(fix);
            let path = store_path(&format!("{fix:?}"));
            std::fs::copy(&release_store, &path).expect("copy the release store");
            let (cold_out, _) = analyze(None, &fixed);
            let (over_release, m) = analyze(Some(&path), &fixed);
            assert_eq!(over_release, cold_out, "{fix:?} over the release store");
            let reuse: Vec<[u64; 2]> = ["pair2", "pair3"]
                .iter()
                .map(|kind| {
                    let count = |outcome| m.counter(&format!("store.{outcome}.{kind}"));
                    [count("hit"), count("miss")]
                })
                .collect();
            assert_eq!(
                reuse,
                reuse_over_release(fix),
                "{fix:?} over the release store"
            );
            let filled = std::fs::read(&path).expect("store present");
            for (version, expected) in [(&release, &release_out), (&fixed, &cold_out)] {
                let (out, m) = analyze(Some(&path), version);
                assert_eq!(&out, expected, "{fix:?}: {version:?} again");
                assert_eq!(m.counter("store.miss"), 0, "{fix:?}: {version:?} again");
                assert_eq!(m.counter("smt.full_solve"), 0, "{fix:?}: {version:?} again");
                assert!(
                    std::fs::read(&path).expect("store present") == filled,
                    "{fix:?}: {version:?} again wrote to the store"
                );
            }
            let _ = std::fs::remove_file(&path);
        }
        let _ = std::fs::remove_file(&release_store);
    }
}

/// `AppAnalysis::coarse_cycles` is read off the diagnosis instead of
/// re-running phases 1–2 — whenever the diagnosis scanned the baseline's
/// job list. It must equal the recomputed count for every fix
/// configuration, from a cold and from a warm store (where the per-pair
/// counts come out of `pair2` records), and fall back to the re-scan when
/// the diagnosis counted something else.
#[test]
fn reported_coarse_cycles_equal_the_recomputed_baseline() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let apps: [(&dyn ECommerceApp, &[Fix]); 2] =
        [(&Broadleaf, &Fix::BROADLEAF), (&Shopizer, &Fix::SHOPIZER)];
    for (app, own_fixes) in apps {
        // A fix of the other app leaves this app's traces as they are.
        let single = own_fixes.iter().map(|&fix| {
            let mut fixes = Fixes::none();
            fixes.enable(fix);
            fixes
        });
        for fixes in std::iter::once(Fixes::none()).chain(single) {
            let path = store_path(&format!("coarse-{}", app.name()));
            let (traces, _db) = Weseer::new().collect_traces(app, &fixes);
            let recomputed = coarse_cycle_count(&traces);
            for temperature in ["cold", "warm"] {
                let weseer = Weseer::new().with_store(&path).expect("open store");
                let analysis = weseer.analyze_with_fixes(app, &fixes);
                assert_eq!(
                    analysis.coarse_cycles,
                    recomputed,
                    "{} under {fixes:?}, {temperature} store",
                    app.name()
                );
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    // Brute force scans every pair, so its own count is not the baseline.
    let mut brute_force = Weseer::new();
    brute_force.config.skip_filter_phases = true;
    let analysis = brute_force.analyze(&Shopizer);
    let (traces, _db) = brute_force.collect_traces(&Shopizer, &Fixes::none());
    assert_eq!(analysis.coarse_cycles, coarse_cycle_count(&traces));
    assert!(analysis.diagnosis.stats.coarse_cycles > analysis.coarse_cycles);
}
