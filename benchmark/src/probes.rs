//! Direct probes (source (c) in the README): short loops timing one public
//! function on inputs taken from the workload, for the layers whose cost
//! inside an analysis no existing span isolates. Run after the timed
//! phases of a traced run, with obs disabled.

use crate::batch::app_of;
use crate::gen::App;
use crate::metrics::Values;
use crate::stats::{mean, median, percentile};
use crate::ANALYZER_THREADS;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use weseer_analyzer::{coarse_cycle_count, generate_pairs, PrefixTable};
use weseer_apps::Fixes;
use weseer_core::{prepare_db, Weseer};
use weseer_replay::Replayer;
use weseer_smt::SolverConfig;
use weseer_store::{json::Json, Store};

/// Mean wall time of `f`, in nanoseconds, over `reps` calls.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

/// Probe the per-trace-set functions on each of the workload's apps and
/// the store functions on each of its store files; every value is the mean
/// over the apps (files), i.e. per analysis.
pub fn run(apps: &[App], store_files: &[PathBuf], dir: &Path, fleet: bool, v: &mut Values) {
    let mut per_app: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut report_us: Vec<f64> = Vec::new();
    let mut prepare_ms: Vec<f64> = Vec::new();
    for (i, &app) in apps.iter().enumerate() {
        let program = app_of(app);
        let (traces, _db) = Weseer::new()
            .with_threads(ANALYZER_THREADS)
            .collect_traces(program, &Fixes::none());
        let mut put = |name, x| per_app.entry(name).or_default().push(x);

        let fingerprints = time_ns(20, || {
            traces
                .iter()
                .map(|t| t.trace.fingerprint(&t.ctx).len())
                .sum::<usize>()
        });
        put(
            "concolic.fingerprint_us",
            fingerprints / traces.len() as f64 / 1e3,
        );

        let sql: BTreeSet<String> = traces
            .iter()
            .flat_map(|t| t.trace.statements.iter().map(|s| s.stmt.to_string()))
            .collect();
        let parsed = time_ns(20, || {
            sql.iter()
                .filter(|s| weseer_sqlir::parser::parse(s).is_ok())
                .count()
        });
        put(
            "sqlir.parse_us_per_stmt",
            parsed / sql.len().max(1) as f64 / 1e3,
        );

        put(
            "analyzer.pairs_us",
            time_ns(20, || generate_pairs(&traces, false).jobs.len()) / 1e3,
        );
        put(
            "analyzer.prefix_us",
            time_ns(5, || PrefixTable::build(&traces, &SolverConfig::default())) / 1e3,
        );
        put(
            "analyzer.coarse_ms",
            time_ns(5, || coarse_cycle_count(&traces)) / 1e6,
        );

        // The daemon never replays: nothing of the replay layer to probe.
        if fleet {
            continue;
        }
        // One prepared database per API a replay can start from.
        let order = program.unit_tests();
        let mut bases = BTreeMap::new();
        for api in order {
            let t = Instant::now();
            bases.insert(*api, prepare_db(program, api));
            prepare_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }

        // The reports to replay come from a warm diagnosis against a copy
        // of the workload's own store (the fleet shares one file).
        let copy = dir.join(format!("probe-{}.jsonl", app.name()));
        let source = &store_files[i.min(store_files.len() - 1)];
        if std::fs::copy(source, &copy).is_err() {
            continue;
        }
        let Ok(weseer) = Weseer::new()
            .with_threads(ANALYZER_THREADS)
            .with_store(&copy)
        else {
            continue;
        };
        let analysis = weseer.analyze(program);
        let replayer = Replayer::new(&traces);
        for report in &analysis.diagnosis.deadlocks {
            // Same base-state rule as the pipeline: the earlier of the
            // cycle's two APIs in unit-test order fixes the DB state.
            let first = order
                .iter()
                .find(|t| **t == report.cycle.a_api || **t == report.cycle.b_api)
                .unwrap_or(&order[0]);
            let t = Instant::now();
            black_box(replayer.replay_report(report, &bases[first]));
            report_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    for (name, xs) in per_app {
        v.insert(name, mean(&xs));
    }
    v.insert("db.prepare_ms", median(&prepare_ms));
    v.insert("replay.report_us_p50", median(&report_us));
    v.insert("replay.report_us_max", percentile(&report_us, 100.0));

    let mut per_file: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, file) in store_files.iter().enumerate() {
        let mut put = |name, x| per_file.entry(name).or_default().push(x);
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        put("store.file_kb", text.len() as f64 / 1024.0);
        let records: Vec<(String, String, String, Json)> = text
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter_map(|r| {
                Some((
                    r.get("kind")?.as_str()?.to_string(),
                    r.get("site")?.as_str()?.to_string(),
                    r.get("content")?.as_str()?.to_string(),
                    r.get("value")?.clone(),
                ))
            })
            .collect();
        if records.is_empty() {
            continue;
        }
        let n = records.len() as f64;
        let t = Instant::now();
        let Ok(store) = Store::open(file) else {
            continue;
        };
        if fleet {
            put("store.open_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        put("store.entries", store.len() as f64);
        let gets = time_ns(10, || {
            records
                .iter()
                .filter(|(k, s, c, _)| store.get(k, s, c) == weseer_store::Lookup::Miss)
                .count()
        });
        put("store.get_ns", gets / n);

        // Fresh inserts into an empty store, batch mode then live-append.
        let batch = dir.join(format!("probe-put-{i}.jsonl"));
        let live = dir.join(format!("probe-live-{i}.jsonl"));
        let _ = (std::fs::remove_file(&batch), std::fs::remove_file(&live));
        let (Ok(b), Ok(l)) = (Store::open(&batch), Store::open_live(&live)) else {
            continue;
        };
        for (name, target) in [("store.put_ns", &b), ("store.live_put_ns", &l)] {
            let t = Instant::now();
            for (k, s, c, value) in &records {
                target.put(k, s, c, value.clone());
            }
            put(name, t.elapsed().as_nanos() as f64 / n);
        }
        let t = Instant::now();
        let _ = b.flush();
        put("store.flush_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    for (name, xs) in per_file {
        v.insert(name, mean(&xs));
    }
}
