//! Regenerate the paper's evaluation artifacts.
//!
//! ```text
//! reproduce [--quick] [--threads <n>] [--metrics-out <path>]
//!           [--witness-out <path>] [--smt-ablation [app]]
//!           [--store <path>] [--dirty <api>] [--incremental-bench [app]]
//!           [--trace-out <path>] [--serve <addr>] [--serve-hold <secs>]
//!           [--daemon <addr>] [--serve-bench] [--verdicts-out <path>]
//!           [--timeline-bench [app]]
//!           [--isolation <level>] [--anomaly-out <path>] [--mvcc-bench]
//!           [--help]
//!           [table1] [table2] [table3] [fig10] [fig11] [pruning]
//!           [baseline] [aborts] [all]
//! ```
//!
//! With no selector (or `all`), every experiment runs. `--quick` shrinks
//! the performance sweeps for CI-scale runs. `--threads <n>` pins the
//! analyzer's worker count (equivalent to setting `WESEER_THREADS=<n>`;
//! `--threads 0` — or `WESEER_THREADS=0` — auto-detects via
//! `std::thread::available_parallelism`, the same as not passing the
//! flag at all; the diagnosis output is identical for every value — see
//! the CI determinism job). `--metrics-out <path>` runs the diagnosis pipeline on
//! both apps with the observability registry enabled, prints the
//! funnel/timing report, and writes the JSON-lines metrics export to
//! `<path>`. `--witness-out <path>` replays every diagnosed cycle for a
//! concrete deadlock witness, prints the confirmed/not-reproduced funnel,
//! and writes one JSON line per report to `<path>` (byte-for-byte
//! deterministic across runs and thread counts; CI diffs it).
//! `--smt-ablation [broadleaf|shopizer]` diagnoses the app(s) once per
//! named solver configuration (`all_tiers`, `no_simplify`,
//! `no_presolve`, `no_prefix` and `no_tiers`; the grid is
//! `TierConfig::ablation_configs`), prints the full-solver
//! reduction table, writes a one-line summary with a
//! `wallclock_per_solve` row per configuration to `BENCH_smt.json`, and
//! exits nonzero if any configuration changed a verdict or report (the
//! tiers must be pure optimizations). With no app argument both apps
//! run. With no other selector, only the requested export/ablation runs
//! happen.
//!
//! `--store <path>` opens (or creates) the incremental store at `<path>`
//! and runs every selected experiment against it (equivalent to
//! `WESEER_STORE=<path>`): the first run fills it, later runs warm-start
//! from it and are byte-identical. `--dirty <api>` treats `<api>`'s trace
//! as changed (`WESEER_DIRTY=<api>`), invalidating exactly the stored
//! outcomes that involve it. `--incremental-bench [broadleaf|shopizer]`
//! times a cold, a warm, and a one-trace-dirtied pipeline run per app
//! against a throwaway store, writes `BENCH_incremental.json`, and exits
//! nonzero if the warm/dirtied outputs diverge from the cold run or the
//! warm run did any full solving or schedule exploration.
//!
//! Observability plane: `--trace-out <path>` records the run on the
//! [`weseer_obs::timeline`] (every span, SMT solve, lock event, replay
//! step, and store lookup, with per-worker-thread lanes) and writes it as
//! Chrome trace-event JSON — load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>. `--serve <addr>` (or `WESEER_SERVE=<addr>`;
//! use `127.0.0.1:0` for an ephemeral port) enables the registry and
//! serves `/metrics` (Prometheus text), `/funnel` (diagnosis-funnel
//! JSON), `/waitfor` + `/waitfor.dot` (live wait-for graph), and an HTML
//! dashboard at `/` while the experiments run; the bound address is
//! printed as `serving on http://<addr>`. `--serve-hold <secs>` keeps the
//! endpoint up that long after the experiments finish (for a human with a
//! browser). `--timeline-bench [broadleaf|shopizer]` times a
//! timeline-off and a timeline-on pipeline run per app, writes
//! `BENCH_timeline.json`, and exits nonzero if enabling the timeline
//! changed one output byte (it must be a pure observer).
//!
//! Serving plane: `--daemon <addr>` starts the full `weseer-serve`
//! daemon instead of the plain metrics endpoint — everything `--serve`
//! offers plus `GET /analyze/<app>` (stream an app's verdicts as
//! JSON lines) and `GET /shards` (per-analyzer-thread task counts, ingest
//! lag, verdicts/sec, shared-store hits); the bound address is printed as
//! `serving on http://<addr>` and held for `--serve-hold <secs>`
//! (default: forever). `WESEER_SERVE_SHARDS` (analyzer threads per
//! submission), `WESEER_SERVE_WORKERS`, and `WESEER_SERVE_STORE` tune
//! the daemon. `--verdicts-out <path>`
//! runs the *batch* pipeline on both apps and writes their verdicts in
//! the daemon's wire format (broadleaf first, then shopizer) so CI can
//! byte-diff it against the daemon's streamed output. `--serve-bench`
//! replays both apps through an in-process daemon at increasing
//! analyzer-thread (`shards`) and client counts, writes
//! `BENCH_serve.json`, and exits nonzero if streaming diverged from batch
//! anywhere, the warm store session hit nothing, or 4-thread throughput
//! collapsed below the lenient scaling floor (see
//! `weseer_bench::serve_bench`).
//!
//! MVCC isolation plane: `--isolation <level>` selects the session
//! isolation level for every experiment (`serializable` — the default —
//! `snapshot`, `repeatable-read`, or `read-committed`; equivalent to
//! `WESEER_ISOLATION=<level>`, and rejected with the list of valid names
//! on a typo). At the default serializable level every output is
//! byte-identical to the pre-MVCC tool. `--anomaly-out <path>` runs the
//! diagnosis pipeline on both apps, prints the weak-isolation anomaly
//! screen (lost update / write skew / read fracture candidates from the
//! static oracle, confirmed or cleared by the interleaving explorer),
//! and writes one JSON line per app to `<path>` (`null` anomalies under
//! serializable). `--mvcc-bench` explores the planted lost-update and
//! write-skew workloads at all four levels, writes the verdict grid to
//! `BENCH_mvcc.json`, and exits nonzero unless the levels separate (the
//! anomalies show up at their weak levels and vanish at serializable).

use std::io::Write as _;
use weseer_bench::experiments;
use weseer_core::FUNNEL_STAGES;

const USAGE: &str = "\
reproduce: regenerate the paper's evaluation artifacts

USAGE:
    reproduce [OPTIONS] [SELECTORS]

SELECTORS (default: all):
    table1 table2 table3 fig10 fig11 pruning baseline aborts all

OPTIONS:
    --quick                  shrink the performance sweeps for CI-scale runs
    --threads N              pin the analyzer worker count (WESEER_THREADS=N);
                             0 = auto-detect via available_parallelism, the
                             same as omitting the flag. Output is identical
                             at every thread count.
    --metrics-out PATH       write the JSON-lines metrics export
    --witness-out PATH       write one replayed-witness JSON line per report
    --anomaly-out PATH       write the weak-isolation anomaly screen
    --verdicts-out PATH      write both apps' batch verdicts in the serving
                             wire format (for byte-diffing against the
                             daemon's GET /analyze/<app>)
    --store PATH             warm-start from an incremental store (WESEER_STORE)
    --dirty API              treat API's trace as changed (WESEER_DIRTY)
    --isolation LEVEL        serializable | snapshot | repeatable-read |
                             read-committed (WESEER_ISOLATION)
    --trace-out PATH         write a Chrome trace of the run
    --serve ADDR             serve /metrics /funnel /waitfor while running
    --daemon ADDR            start the full weseer-serve daemon instead:
                             adds GET /analyze/<app> and GET /shards; tuned
                             by WESEER_SERVE_SHARDS / WESEER_SERVE_WORKERS /
                             WESEER_SERVE_STORE; runs until killed
    --serve-hold SECS        keep the endpoint/daemon up after the runs
    --smt-ablation [APP]     solver-tier ablation grid -> BENCH_smt.json
    --incremental-bench [APP] cold/warm/dirtied timings -> BENCH_incremental.json
    --timeline-bench [APP]   timeline overhead -> BENCH_timeline.json
    --mvcc-bench             isolation-level separation -> BENCH_mvcc.json
    --serve-bench            streaming identity, thread scaling, warm store
                             -> BENCH_serve.json
    --help                   print this help
";

fn main() {
    let mut metrics_out: Option<String> = None;
    let mut witness_out: Option<String> = None;
    let mut anomaly_out: Option<String> = None;
    let mut mvcc_bench = false;
    let mut smt_ablation: Option<Vec<&'static str>> = None;
    let mut incremental: Option<Vec<&'static str>> = None;
    let mut timeline_bench: Option<Vec<&'static str>> = None;
    let mut trace_out: Option<String> = None;
    let mut serve: Option<String> = None;
    let mut serve_hold: Option<u64> = None;
    let mut daemon_addr: Option<String> = None;
    let mut serve_bench = false;
    let mut verdicts_out: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1).peekable();
    while let Some(arg) = raw.next() {
        if arg == "--smt-ablation" {
            // Optional app argument; default to both apps.
            let apps = match raw.peek().map(|s| s.as_str()) {
                Some("broadleaf") => {
                    raw.next();
                    vec!["broadleaf"]
                }
                Some("shopizer") => {
                    raw.next();
                    vec!["shopizer"]
                }
                _ => vec!["broadleaf", "shopizer"],
            };
            smt_ablation = Some(apps);
        } else if arg == "--incremental-bench" {
            let apps = match raw.peek().map(|s| s.as_str()) {
                Some("broadleaf") => {
                    raw.next();
                    vec!["broadleaf"]
                }
                Some("shopizer") => {
                    raw.next();
                    vec!["shopizer"]
                }
                _ => vec!["broadleaf", "shopizer"],
            };
            incremental = Some(apps);
        } else if arg == "--timeline-bench" {
            let apps = match raw.peek().map(|s| s.as_str()) {
                Some("broadleaf") => {
                    raw.next();
                    vec!["broadleaf"]
                }
                Some("shopizer") => {
                    raw.next();
                    vec!["shopizer"]
                }
                _ => vec!["broadleaf", "shopizer"],
            };
            timeline_bench = Some(apps);
        } else if arg == "--trace-out" {
            let path = raw.next().unwrap_or_else(|| {
                eprintln!("--trace-out requires a path argument");
                std::process::exit(2);
            });
            trace_out = Some(path);
        } else if arg == "--serve" {
            let addr = raw.next().unwrap_or_else(|| {
                eprintln!("--serve requires an address argument (e.g. 127.0.0.1:0)");
                std::process::exit(2);
            });
            serve = Some(addr);
        } else if arg == "--serve-hold" {
            serve_hold = Some(
                raw.next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--serve-hold requires a number of seconds");
                        std::process::exit(2);
                    }),
            );
        } else if arg == "--daemon" {
            let addr = raw.next().unwrap_or_else(|| {
                eprintln!("--daemon requires an address argument (e.g. 127.0.0.1:0)");
                std::process::exit(2);
            });
            daemon_addr = Some(addr);
        } else if arg == "--serve-bench" {
            serve_bench = true;
        } else if arg == "--verdicts-out" {
            let path = raw.next().unwrap_or_else(|| {
                eprintln!("--verdicts-out requires a path argument");
                std::process::exit(2);
            });
            verdicts_out = Some(path);
        } else if arg == "--help" || arg == "-h" {
            // The module doc above is the authoritative manual; keep this
            // in sync with it.
            print!("{USAGE}");
            return;
        } else if arg == "--store" {
            let path = raw.next().unwrap_or_else(|| {
                eprintln!("--store requires a path argument");
                std::process::exit(2);
            });
            // The experiments build their own `Weseer` facades, which
            // consult this variable (see `Weseer::resolve_store`).
            std::env::set_var("WESEER_STORE", path);
        } else if arg == "--dirty" {
            let api = raw.next().unwrap_or_else(|| {
                eprintln!("--dirty requires an API name argument");
                std::process::exit(2);
            });
            std::env::set_var("WESEER_DIRTY", api);
        } else if arg == "--metrics-out" {
            let path = raw.next().unwrap_or_else(|| {
                eprintln!("--metrics-out requires a path argument");
                std::process::exit(2);
            });
            metrics_out = Some(path);
        } else if arg == "--witness-out" {
            let path = raw.next().unwrap_or_else(|| {
                eprintln!("--witness-out requires a path argument");
                std::process::exit(2);
            });
            witness_out = Some(path);
        } else if arg == "--anomaly-out" {
            let path = raw.next().unwrap_or_else(|| {
                eprintln!("--anomaly-out requires a path argument");
                std::process::exit(2);
            });
            anomaly_out = Some(path);
        } else if arg == "--mvcc-bench" {
            mvcc_bench = true;
        } else if arg == "--isolation" {
            let raw_level = raw.next().unwrap_or_else(|| {
                eprintln!("--isolation requires a level argument");
                std::process::exit(2);
            });
            // Validate up front for a clean error, then hand the level to
            // the experiments' `Weseer` facades through the env var
            // (mirrors `--threads` / `WESEER_THREADS`).
            let level = raw_level
                .parse::<weseer_db::IsolationLevel>()
                .unwrap_or_else(|e| {
                    eprintln!("--isolation: {e}");
                    std::process::exit(2);
                });
            std::env::set_var(weseer_db::ISOLATION_ENV, level.name());
        } else if arg == "--threads" {
            // 0 is valid and means auto-detect (available_parallelism),
            // matching `WESEER_THREADS=0` — see `resolve_threads`.
            let n = raw
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--threads requires an integer argument (0 = auto-detect)");
                    std::process::exit(2);
                });
            // The experiments build their own `Weseer` facades with the
            // default (auto) thread setting, which consults this variable.
            std::env::set_var("WESEER_THREADS", n.to_string());
        } else {
            rest.push(arg);
        }
    }
    let quick = rest.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = rest
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let all = (selected.is_empty()
        && metrics_out.is_none()
        && witness_out.is_none()
        && anomaly_out.is_none()
        && !mvcc_bench
        && smt_ablation.is_none()
        && incremental.is_none()
        && timeline_bench.is_none()
        && !serve_bench
        && verdicts_out.is_none()
        && daemon_addr.is_none())
        || selected.contains(&"all");
    let want = |name: &str| all || selected.contains(&name);

    // `WESEER_SERVE` is the env-var spelling of `--serve` (the flag wins).
    if serve.is_none() {
        if let Ok(addr) = std::env::var("WESEER_SERVE") {
            if !addr.is_empty() {
                serve = Some(addr);
            }
        }
    }
    // `--daemon` starts the full serving plane (ingest + streamed analysis
    // + `/analyze` + `/shards`); plain `--serve` binds the metrics-only
    // endpoint. Both print the same grep-able "serving on" line.
    let daemon = daemon_addr.map(|addr| {
        let env_num = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        let defaults = weseer_serve::DaemonConfig::default();
        let config = weseer_serve::DaemonConfig {
            shards: env_num("WESEER_SERVE_SHARDS", defaults.shards),
            workers: env_num("WESEER_SERVE_WORKERS", defaults.workers),
            store_path: std::env::var("WESEER_SERVE_STORE")
                .ok()
                .filter(|p| !p.is_empty())
                .map(std::path::PathBuf::from),
            ..defaults
        };
        match weseer_serve::serve(&addr, config) {
            Ok((daemon, server)) => {
                println!("serving on http://{}", server.local_addr());
                let _ = std::io::stdout().flush();
                (daemon, server)
            }
            Err(e) => {
                eprintln!("failed to start daemon on {addr}: {e}");
                std::process::exit(1);
            }
        }
    });
    let server = if daemon.is_some() {
        None
    } else {
        serve.map(|addr| {
            // The endpoint reads the global registry; recording must be on
            // for `/metrics`, `/funnel`, and `/waitfor` to carry live data.
            weseer_obs::set_enabled(true);
            match weseer_obs::ObsServer::start(addr.as_str(), FUNNEL_STAGES) {
                Ok(server) => {
                    // CI greps this line for the bound (possibly ephemeral)
                    // port; flush so it is visible while the run is live.
                    println!("serving on http://{}", server.local_addr());
                    let _ = std::io::stdout().flush();
                    server
                }
                Err(e) => {
                    eprintln!("failed to bind {addr}: {e}");
                    std::process::exit(1);
                }
            }
        })
    };
    if trace_out.is_some() {
        weseer_obs::timeline::set_enabled(true);
        weseer_obs::timeline::set_lane_name("main");
    }

    if want("table1") {
        let _span = weseer_obs::span("reproduce.table1");
        println!("{}", experiments::table1());
    }
    if want("table2") {
        let _span = weseer_obs::span("reproduce.table2");
        println!("{}", experiments::table2());
    }
    if want("baseline") {
        let _span = weseer_obs::span("reproduce.baseline");
        println!("{}", experiments::baseline());
    }
    if want("table3") {
        let _span = weseer_obs::span("reproduce.table3");
        println!("{}", experiments::table3(if quick { 2 } else { 5 }));
    }
    if want("pruning") {
        let _span = weseer_obs::span("reproduce.pruning");
        println!("{}", experiments::pruning());
    }
    if want("fig10") {
        let _span = weseer_obs::span("reproduce.fig10");
        println!("{}", experiments::figure("broadleaf", quick));
    }
    if want("fig11") {
        let _span = weseer_obs::span("reproduce.fig11");
        println!("{}", experiments::figure("shopizer", quick));
    }
    if want("aborts") {
        let _span = weseer_obs::span("reproduce.aborts");
        println!("{}", experiments::aborts_claim(quick));
    }
    if let Some(path) = metrics_out {
        let _span = weseer_obs::span("reproduce.metrics_report");
        let (human, json) = experiments::metrics_report();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write metrics to {path}: {e}");
            std::process::exit(1);
        }
        println!("{human}");
        println!("metrics written to {path}");
    }
    if let Some(path) = witness_out {
        let _span = weseer_obs::span("reproduce.witness_report");
        let (human, json) = experiments::witness_report();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write witnesses to {path}: {e}");
            std::process::exit(1);
        }
        println!("{human}");
        println!("witnesses written to {path}");
    }
    if let Some(path) = verdicts_out {
        let _span = weseer_obs::span("reproduce.verdicts_out");
        let (human, lines) = experiments::batch_verdicts();
        if let Err(e) = std::fs::write(&path, lines) {
            eprintln!("failed to write verdicts to {path}: {e}");
            std::process::exit(1);
        }
        println!("{human}");
        println!("batch verdicts written to {path}");
    }
    if serve_bench {
        let _span = weseer_obs::span("reproduce.serve_bench");
        let bench = weseer_bench::serve_bench::serve_bench(quick);
        println!("{}", bench.report);
        if let Err(e) = std::fs::write("BENCH_serve.json", &bench.bench_json) {
            eprintln!("failed to write BENCH_serve.json: {e}");
            std::process::exit(1);
        }
        println!("bench summary written to BENCH_serve.json");
        if bench.failed {
            eprintln!(
                "serve-bench: streaming diverged from batch, the warm store \
                 session hit nothing, or shard throughput regressed"
            );
            std::process::exit(1);
        }
    }
    if let Some(path) = anomaly_out {
        let _span = weseer_obs::span("reproduce.anomaly_report");
        let (human, json) = experiments::anomaly_report();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write anomaly report to {path}: {e}");
            std::process::exit(1);
        }
        println!("{human}");
        println!("anomaly report written to {path}");
    }
    if mvcc_bench {
        let _span = weseer_obs::span("reproduce.mvcc_bench");
        let bench = experiments::mvcc_bench();
        println!("{}", bench.report);
        if let Err(e) = std::fs::write("BENCH_mvcc.json", &bench.bench_json) {
            eprintln!("failed to write BENCH_mvcc.json: {e}");
            std::process::exit(1);
        }
        println!("bench summary written to BENCH_mvcc.json");
        if bench.failed {
            eprintln!(
                "mvcc-bench: the isolation levels failed to separate — \
                 planted anomalies must appear at weak levels and vanish at serializable"
            );
            std::process::exit(1);
        }
    }
    if let Some(apps) = smt_ablation {
        let _span = weseer_obs::span("reproduce.smt_ablation");
        let ablation = experiments::smt_ablation(&apps);
        println!("{}", ablation.report);
        if let Err(e) = std::fs::write("BENCH_smt.json", &ablation.bench_json) {
            eprintln!("failed to write BENCH_smt.json: {e}");
            std::process::exit(1);
        }
        println!("bench summary written to BENCH_smt.json");
        if ablation.diverged {
            eprintln!(
                "smt-ablation: tier configurations diverged — the tiers must not change verdicts"
            );
            std::process::exit(1);
        }
    }
    if let Some(apps) = incremental {
        let _span = weseer_obs::span("reproduce.incremental_bench");
        let bench = experiments::incremental_bench(&apps);
        println!("{}", bench.report);
        if let Err(e) = std::fs::write("BENCH_incremental.json", &bench.bench_json) {
            eprintln!("failed to write BENCH_incremental.json: {e}");
            std::process::exit(1);
        }
        println!("bench summary written to BENCH_incremental.json");
        if bench.diverged {
            eprintln!(
                "incremental-bench: warm/dirtied runs diverged from cold — \
                 the store must be a pure optimization"
            );
            std::process::exit(1);
        }
    }
    // Write the Chrome trace before the timeline bench runs: the bench
    // resets the timeline for its own measurements.
    if let Some(path) = trace_out {
        weseer_obs::timeline::set_enabled(false);
        let snap = weseer_obs::timeline::snapshot();
        let json = weseer_obs::chrome::to_chrome_trace(&snap);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "chrome trace ({} records on {} lanes, {} dropped) written to {path}",
            snap.records.len(),
            snap.lanes.len(),
            snap.dropped
        );
    }
    if let Some(apps) = timeline_bench {
        let bench = experiments::timeline_bench(&apps);
        println!("{}", bench.report);
        if let Err(e) = std::fs::write("BENCH_timeline.json", &bench.bench_json) {
            eprintln!("failed to write BENCH_timeline.json: {e}");
            std::process::exit(1);
        }
        println!("bench summary written to BENCH_timeline.json");
        if bench.diverged {
            eprintln!(
                "timeline-bench: enabling the timeline changed the output — \
                 it must be a pure observer"
            );
            std::process::exit(1);
        }
    }
    if let Some((daemon, server)) = daemon {
        // Daemon mode serves until killed unless a hold was given.
        match serve_hold {
            Some(secs) => {
                println!("holding the daemon for {secs}s");
                let _ = std::io::stdout().flush();
                std::thread::sleep(std::time::Duration::from_secs(secs));
            }
            None => loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            },
        }
        server.stop();
        if let Some(d) = std::sync::Arc::into_inner(daemon) {
            d.shutdown();
        }
    }
    if let Some(server) = server {
        let hold = serve_hold.unwrap_or(0);
        if hold > 0 {
            println!("holding the endpoint for {hold}s");
            let _ = std::io::stdout().flush();
            std::thread::sleep(std::time::Duration::from_secs(hold));
        }
        server.stop();
    }
}
