//! The tooling around a run: golden generation, the `BENCHMARK.json`
//! manifest, bound calibration, and the comparison of two result files.

use crate::batch::{app_of, render};
use crate::gen::{App, VARIANTS};
use crate::golden::{batch_key, stream_key, Golden};
use crate::metrics::{Better, MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::{out_dir, ANALYZER_THREADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use weseer_apps::{Fix, Fixes};
use weseer_core::Weseer;
use weseer_serve::verdict_line;
use weseer_store::json::Json;

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;
/// The contract's ceiling for a bound, and the bound of `setup_s`.
const MAX_BOUND: f64 = 0.25;
/// No bound is set tighter than this, however steady the metric.
const MIN_BOUND: f64 = 0.10;

fn manifest_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

// ---------------------------------------------------------------- golden

/// Every golden rendering, from the batch pipeline without a store.
fn current_golden() -> Golden {
    let mut g = Golden::default();
    let weseer = Weseer::new().with_threads(ANALYZER_THREADS).with_replay();
    let stream = |app: App, a: &weseer_core::AppAnalysis| -> String {
        a.diagnosis
            .deadlocks
            .iter()
            .map(|r| verdict_line(app.name(), r))
            .collect()
    };
    for app in App::ALL {
        let a = weseer.analyze(app_of(app));
        g.insert(batch_key(app), &render(&a).0);
        g.insert(stream_key(app, None), &stream(app, &a));
    }
    let plain = Weseer::new().with_threads(ANALYZER_THREADS);
    for k in 0..VARIANTS {
        let mut fixes = Fixes::none();
        fixes.enable(Fix::BROADLEAF[k as usize]);
        let a = plain.analyze_with_fixes(app_of(App::Broadleaf), &fixes);
        g.insert(
            stream_key(App::Broadleaf, Some(k)),
            &stream(App::Broadleaf, &a),
        );
    }
    g
}

pub fn golden(write: bool) -> Result<ExitCode, String> {
    let now = current_golden();
    if write {
        let path = Golden::path();
        std::fs::write(&path, now.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }
    if Golden::load()? == now {
        println!("golden outputs match");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "golden outputs differ; the program now renders:\n{}",
            now.render()
        );
        Ok(ExitCode::FAILURE)
    }
}

// -------------------------------------------------------------- manifest

fn json_string(s: &str) -> String {
    let mut out = String::new();
    Json::str(s).write(&mut out);
    out
}

/// `BENCHMARK.json`, generated from the metric tables. `bounds` maps an
/// end-to-end metric to its regression bound.
pub fn manifest_text(bounds: &BTreeMap<String, f64>) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            let bound = bounds.get(d.name).copied().unwrap_or(MAX_BOUND);
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// The bounds a `BENCHMARK.json` carries.
fn parse_bounds(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let json = Json::parse(text)?;
    let rows = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    Ok(rows
        .iter()
        .filter_map(|r| Some((r.get("name")?.as_str()?.to_string(), num(r.get("bound")?)?)))
        .collect())
}

fn read_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_bounds(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the manifest, keeping the bounds of the committed
/// `BENCHMARK.json` when there is one.
pub fn manifest() -> Result<ExitCode, String> {
    let path = manifest_path();
    let bounds = if path.exists() {
        read_bounds(&path)?
    } else {
        BTreeMap::new()
    };
    print!("{}", manifest_text(&bounds));
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------- result files

/// One line of a result file (`--out`).
struct Record {
    workload: String,
    trace: bool,
    seed: u64,
    seconds: f64,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn read_results(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let j = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let bad = || format!("{}: not a result line: {line}", path.display());
            let result = j.get("result").ok_or_else(bad)?;
            let machine = j.get("machine").ok_or_else(bad)?;
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(bad)?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), num(v.get("value")?)?)))
                .collect();
            Ok(Record {
                workload: j
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(bad)?
                    .to_string(),
                trace: j.get("trace").and_then(Json::as_u64).ok_or_else(bad)? == 1,
                seed: machine.get("seed").and_then(Json::as_u64).ok_or_else(bad)?,
                seconds: machine.get("seconds").and_then(num).ok_or_else(bad)?,
                correct: result
                    .get("correct")
                    .and_then(Json::as_bool)
                    .ok_or_else(bad)?,
                failed: result
                    .get("failed")
                    .and_then(Json::as_u64)
                    .ok_or_else(bad)?,
                metrics,
            })
        })
        .collect()
}

/// Values of one metric over the runs of one (workload, trace) cell.
fn cell(records: &[Record], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// By how much of `a` the value `b` is worse, in the metric's direction.
fn worse_by(d: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match d.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse(f64),
    /// The runs scatter more widely than the bound, and the two sides
    /// overlap: no statement either way.
    Unresolved(f64),
}

/// Judge one end-to-end metric on one workload: `a` = the reference runs,
/// `b` = the runs under test.
fn judge(d: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let w = worse_by(d, median(a), median(b));
    let scatter = [a, b].iter().filter_map(|v| spread(v)).fold(0.0, f64::max);
    if scatter > bound {
        let all_better = a
            .iter()
            .all(|x| b.iter().all(|y| worse_by(d, *x, *y) < 0.0));
        if !all_better {
            return Verdict::Unresolved(scatter);
        }
    }
    if w > bound {
        Verdict::Worse(w)
    } else {
        Verdict::Ok
    }
}

/// Exact work counts that differ between two result files taken with the
/// same seed: `(workload, metric, a, b)`.
fn count_mismatches(a: &[Record], b: &[Record]) -> Vec<(String, &'static str, f64, f64)> {
    let mut out = Vec::new();
    for w in Workload::ALL.into_iter().filter(|w| w.counts_are_exact()) {
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (xa, xb) = (
                cell(a, w.name(), true, d.name),
                cell(b, w.name(), true, d.name),
            );
            if let (Some(x), Some(y)) = (xa.first(), xb.first()) {
                let all_same = xa.iter().chain(&xb).all(|v| v == x);
                if !all_same {
                    out.push((w.name().to_string(), d.name, *x, *y));
                }
            }
        }
    }
    out
}

pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: bench compare A.jsonl B.jsonl".into());
    };
    let (a, b) = (read_results(Path::new(a))?, read_results(Path::new(b))?);
    let bounds = read_bounds(&manifest_path())?;
    let mut bad = 0;
    println!(
        "{:<15} {:<22} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    for w in Workload::ALL {
        for d in END_TO_END {
            let (xa, xb) = (
                cell(&a, w.name(), false, d.name),
                cell(&b, w.name(), false, d.name),
            );
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let bound = bounds.get(d.name).copied().unwrap_or(MAX_BOUND);
            let verdict = judge(d, bound, &xa, &xb);
            let text = match verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Worse(_) => "WORSE".to_string(),
                Verdict::Unresolved(s) => format!("unresolved (spread {:.1} %)", s * 100.0),
            };
            bad += usize::from(verdict != Verdict::Ok);
            println!(
                "{:<15} {:<22} {:>12.3} {:>12.3} {:>7.1}% {:>5.0}%  {text}",
                w.name(),
                d.name,
                median(&xa),
                median(&xb),
                worse_by(d, median(&xa), median(&xb)) * 100.0,
                bound * 100.0
            );
        }
    }
    for r in a.iter().chain(&b).filter(|r| !r.correct || r.failed > 0) {
        println!(
            "FAILED RUN: {} (trace {}): {} analyses failed",
            r.workload, r.trace as u8, r.failed
        );
        bad += 1;
    }
    let same_inputs = a
        .iter()
        .chain(&b)
        .all(|r| r.seed == a[0].seed && r.seconds == a[0].seconds);
    if same_inputs {
        let mismatches = count_mismatches(&a, &b);
        for (w, m, x, y) in &mismatches {
            println!("COUNT MISMATCH: {w} {m}: {x} vs {y}");
        }
        bad += mismatches.len();
        println!("exact counts: {} mismatches", mismatches.len());
    } else {
        println!("exact counts: not compared (the runs differ in seed or seconds)");
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

pub fn table(args: &[String]) -> Result<ExitCode, String> {
    let [file] = args else {
        return Err("usage: bench table FILE.jsonl".into());
    };
    let records = read_results(Path::new(file))?;
    for (trace, defs, title) in [
        (false, END_TO_END, "end to end"),
        (true, PER_LAYER, "per layer (traced pass)"),
    ] {
        println!("\n== {title}: median over runs ==");
        print!("{:<28} {:<6}", "metric", "unit");
        for w in Workload::ALL {
            print!(" {:>14}", w.name());
        }
        println!();
        for d in defs {
            print!("{:<28} {:<6}", d.name, d.unit);
            for w in Workload::ALL {
                let xs = cell(&records, w.name(), trace, d.name);
                if xs.is_empty() {
                    print!(" {:>14}", "-");
                } else {
                    print!(" {:>14.3}", median(&xs));
                }
            }
            println!();
        }
    }
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    println!("\nfailed analyses over all runs: {failed}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ------------------------------------------------------------- calibrate

/// Run `--sets` end-to-end sets (each workload once per set, a fresh
/// process and a new seed each time), print every metric's spread per
/// workload, derive the bounds — `max(10 %, 3 × the widest spread)`, so
/// that each spread stays under a third of its bound; `setup_s` gets the
/// ceiling — and write them into `BENCHMARK.json`. The raw runs go to
/// `benchmark/out/calibration.jsonl`.
pub fn calibrate(args: &[String]) -> Result<ExitCode, String> {
    let mut sets = 5u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--sets", Some(v)) => sets = v.parse().map_err(|_| format!("bad --sets {v:?}"))?,
            _ => return Err("usage: bench calibrate [--sets N]".into()),
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = out_dir().join("calibration.jsonl");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&out);
    for set in 0..sets {
        for w in Workload::ALL {
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "0"])
                .args(["--seed", &(11 + set).to_string()])
                .args(["--seconds", &RUN_SECONDS.to_string()])
                .arg("--out")
                .arg(&out)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} failed in set {set}: {status}", w.name()));
            }
        }
    }
    let records = read_results(&out)?;
    let mut bounds = BTreeMap::new();
    println!(
        "{:<22} {:<15} {:>12} {:>9}",
        "metric", "workload", "median", "spread"
    );
    for d in END_TO_END {
        let mut widest: f64 = 0.0;
        for w in Workload::ALL {
            let xs = cell(&records, w.name(), false, d.name);
            let s = spread(&xs).unwrap_or(0.0);
            widest = widest.max(s);
            println!(
                "{:<22} {:<15} {:>12.3} {:>8.2}%",
                d.name,
                w.name(),
                median(&xs),
                s * 100.0
            );
        }
        let wanted = ((3.0 * widest).max(MIN_BOUND) * 100.0).ceil() / 100.0;
        let bound = if d.name == "setup_s" {
            MAX_BOUND
        } else {
            wanted.min(MAX_BOUND)
        };
        if wanted > MAX_BOUND && d.name != "setup_s" {
            println!("  !! {} needs a bound of {wanted} > {MAX_BOUND}: steady it or demote it to a per-layer metric", d.name);
        }
        println!(
            "  => {}: widest spread {:.2} %, bound {bound}",
            d.name,
            widest * 100.0
        );
        bounds.insert(d.name.to_string(), bound);
    }
    let path = manifest_path();
    std::fs::write(&path, manifest_text(&bounds))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, trace: bool, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.into(),
            trace,
            seed: 11,
            seconds: 10.0,
            correct: true,
            failed: 0,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap()
    }

    #[test]
    fn worse_beyond_the_bound_fails_in_the_metrics_direction() {
        let wall = def("wall_ms_p50");
        assert_eq!(judge(wall, 0.10, &[100.0], &[109.0]), Verdict::Ok);
        assert!(matches!(
            judge(wall, 0.10, &[100.0], &[112.0]),
            Verdict::Worse(_)
        ));
        assert_eq!(judge(wall, 0.10, &[100.0], &[50.0]), Verdict::Ok);
        let rate = def("verdicts_per_s");
        assert!(matches!(
            judge(rate, 0.10, &[100.0], &[85.0]),
            Verdict::Worse(_)
        ));
        assert_eq!(judge(rate, 0.10, &[100.0], &[130.0]), Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let wall = def("wall_ms_p50");
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert!(matches!(
            judge(wall, 0.10, &noisy, &[95.0, 101.0, 99.0, 100.0]),
            Verdict::Unresolved(_)
        ));
        // Every run of B beats every run of A: the scatter cannot hide a loss.
        assert_eq!(
            judge(wall, 0.10, &noisy, &[50.0, 60.0, 55.0, 52.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_counts_must_match_between_result_files() {
        let a = [record(
            "warm",
            true,
            &[("smt.solve_calls", 195.0), ("smt.solve_ms", 1.0)],
        )];
        let same = [record(
            "warm",
            true,
            &[("smt.solve_calls", 195.0), ("smt.solve_ms", 9.0)],
        )];
        let off = [record(
            "warm",
            true,
            &[("smt.solve_calls", 196.0), ("smt.solve_ms", 1.0)],
        )];
        assert!(count_mismatches(&a, &same).is_empty());
        assert_eq!(
            count_mismatches(&a, &off),
            vec![("warm".to_string(), "smt.solve_calls", 195.0, 196.0)]
        );
        // Fleet counts race for the shared store and are not held exact.
        let fa = [record("fleet-open", true, &[("smt.solve_calls", 1.0)])];
        let fb = [record("fleet-open", true, &[("smt.solve_calls", 2.0)])];
        assert!(count_mismatches(&fa, &fb).is_empty());
    }

    #[test]
    fn manifest_round_trips_its_bounds_and_meets_the_contract() {
        let bounds = BTreeMap::from([("wall_ms_p50".to_string(), 0.12)]);
        let text = manifest_text(&bounds);
        assert!(text.len() < 64 * 1024);
        let json = Json::parse(&text).expect("manifest is JSON");
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let read = parse_bounds(&text).unwrap();
        assert_eq!(read["wall_ms_p50"], 0.12);
        assert_eq!(read["setup_s"], MAX_BOUND);
        assert!(read.values().all(|b| *b <= MAX_BOUND));
    }

    /// The committed `BENCHMARK.json` is exactly what the tables generate
    /// with the committed bounds: names, units and rationale cannot drift.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = manifest_path();
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let generated = manifest_text(&parse_bounds(&committed).unwrap());
        assert!(
            committed == generated,
            "BENCHMARK.json is out of step with src/metrics.rs: regenerate it with `bench manifest`"
        );
    }
}
