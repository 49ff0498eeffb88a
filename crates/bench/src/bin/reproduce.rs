//! Regenerate the paper's evaluation artifacts.
//!
//! ```text
//! reproduce [--quick] [--threads <n>] [--store <path>] [--dirty <api>]
//!           [--isolation <level>]
//!           [--metrics-out <path>] [--witness-out <path>]
//!           [--anomaly-out <path>] [--verdicts-out <path>]
//!           [--trace-out <path>] [--serve <addr>] [--serve-hold <secs>]
//!           [--help]
//!           [table1] [table2] [table3] [fig10] [fig11] [pruning]
//!           [baseline] [aborts] [all]
//! ```
//!
//! With no selector and no export flag (or with `all`), every experiment
//! runs; with only export flags, only the exports run. An unknown flag or
//! selector prints the usage to stderr and exits 2. `--quick` shrinks the
//! performance sweeps for CI-scale runs. This binary regenerates and
//! exports; it does not measure — perf numbers come from `benchmark/`.
//!
//! The flags are parsed once into [`Args`], which builds the one
//! [`Weseer`] every analyzing experiment runs on:
//!
//! * `--threads <n>` pins the analyzer's worker count
//!   ([`Weseer::with_threads`]; `0`, the default, auto-detects). The
//!   diagnosis output is identical for every value — the CI determinism
//!   job diffs `--threads 1` against `--threads 4`.
//! * `--store <path>` opens (or creates) the incremental store at
//!   `<path>` ([`Weseer::with_store`]): the first run fills it, later runs
//!   warm-start from it and are byte-identical. `--dirty <api>` treats
//!   `<api>`'s trace as changed ([`Weseer::with_dirty`]; repeatable, or
//!   comma-separated), invalidating exactly the stored outcomes that
//!   involve it; an API neither app traces is a usage error.
//! * `--isolation <level>` asks the weak-isolation question at
//!   `serializable` (the default), `snapshot`, `repeatable-read`, or
//!   `read-committed` ([`Weseer::with_isolation`]). At serializable every
//!   output is byte-identical to a run without the flag.
//!
//! Exports: `--metrics-out <path>` runs the diagnosis pipeline on both
//! apps with the observability registry enabled, prints the funnel/timing
//! report, and writes the JSON-lines metrics export. `--witness-out
//! <path>` replays every diagnosed cycle for a concrete deadlock witness,
//! prints the confirmed/not-reproduced funnel, and writes one JSON line
//! per report (byte-for-byte deterministic across runs and thread counts;
//! CI diffs it). `--anomaly-out <path>` prints the weak-isolation anomaly
//! screen (lost update / write skew / read fracture candidates from the
//! static oracle, confirmed or cleared by the interleaving explorer) and
//! writes one JSON line per app (`null` anomalies under serializable).
//! `--verdicts-out <path>` writes both apps' verdicts in the serving
//! daemon's wire format (broadleaf first, then shopizer) so CI can
//! byte-diff them against what `weseer-serve` streams from
//! `GET /analyze/<app>`.
//!
//! Observability: `--trace-out <path>` records the run on the
//! [`weseer_obs::timeline`] (every span, SMT solve, lock event, replay
//! step, and store lookup, with per-worker-thread lanes) and writes it as
//! Chrome trace-event JSON — load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>. `--serve <addr>` (use `127.0.0.1:0` for an
//! ephemeral port) enables the registry and serves `/metrics` (Prometheus
//! text), `/funnel` (diagnosis-funnel JSON), `/waitfor` + `/waitfor.dot`
//! (live wait-for graph), and an HTML dashboard at `/` while the
//! experiments run; the bound address is printed as `serving on
//! http://<addr>`. `--serve-hold <secs>` keeps the endpoint up that long
//! after the experiments finish (for a human with a browser). The
//! analysis daemon itself is the `weseer-serve` binary.

use std::io::Write as _;
use std::process::exit;
use weseer_apps::{Broadleaf, ECommerceApp, Shopizer};
use weseer_bench::experiments;
use weseer_core::{Weseer, FUNNEL_STAGES};
use weseer_db::IsolationLevel;

const SELECTORS: [&str; 9] = [
    "table1", "table2", "table3", "fig10", "fig11", "pruning", "baseline", "aborts", "all",
];

const USAGE: &str = "\
reproduce: regenerate the paper's evaluation artifacts

USAGE:
    reproduce [OPTIONS] [SELECTORS]

SELECTORS (default: all):
    table1 table2 table3 fig10 fig11 pruning baseline aborts all

OPTIONS:
    --quick                  shrink the performance sweeps for CI-scale runs
    --threads N              pin the analyzer worker count; 0 = auto-detect
                             via available_parallelism, the same as omitting
                             the flag. Output is identical at every count.
    --store PATH             warm-start from an incremental store
    --dirty API              treat API's trace as changed
    --isolation LEVEL        serializable | snapshot | repeatable-read |
                             read-committed
    --metrics-out PATH       write the JSON-lines metrics export
    --witness-out PATH       write one replayed-witness JSON line per report
    --anomaly-out PATH       write the weak-isolation anomaly screen
    --verdicts-out PATH      write both apps' batch verdicts in the serving
                             wire format (for byte-diffing against
                             weseer-serve's GET /analyze/<app>)
    --trace-out PATH         write a Chrome trace of the run
    --serve ADDR             serve /metrics /funnel /waitfor while running
    --serve-hold SECS        keep the endpoint up after the runs
    --help                   print this help
";

/// The command line, parsed once.
#[derive(Default)]
struct Args {
    help: bool,
    quick: bool,
    selectors: Vec<String>,
    threads: usize,
    store: Option<String>,
    dirty: Vec<String>,
    isolation: Option<IsolationLevel>,
    metrics_out: Option<String>,
    witness_out: Option<String>,
    anomaly_out: Option<String>,
    verdicts_out: Option<String>,
    trace_out: Option<String>,
    serve: Option<String>,
    serve_hold: u64,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        while let Some(arg) = raw.next() {
            let mut value = || raw.next().ok_or(format!("{arg} requires a value"));
            match arg.as_str() {
                "--help" | "-h" => args.help = true,
                "--quick" => args.quick = true,
                "--threads" => args.threads = number(&arg, value()?)?,
                "--store" => args.store = Some(value()?),
                "--dirty" => args
                    .dirty
                    .extend(value()?.split(',').map(|api| api.trim().to_string())),
                "--isolation" => {
                    args.isolation =
                        Some(value()?.parse().map_err(|e| format!("--isolation: {e}"))?)
                }
                "--metrics-out" => args.metrics_out = Some(value()?),
                "--witness-out" => args.witness_out = Some(value()?),
                "--anomaly-out" => args.anomaly_out = Some(value()?),
                "--verdicts-out" => args.verdicts_out = Some(value()?),
                "--trace-out" => args.trace_out = Some(value()?),
                "--serve" => args.serve = Some(value()?),
                "--serve-hold" => args.serve_hold = number(&arg, value()?)?,
                selector if SELECTORS.contains(&selector) => args.selectors.push(arg),
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                other => return Err(format!("unknown selector {other:?}")),
            }
        }
        let mut known: Vec<&str> = Broadleaf.unit_tests().to_vec();
        for api in Shopizer.unit_tests() {
            if !known.contains(api) {
                known.push(api);
            }
        }
        if let Some(api) = args.dirty.iter().find(|api| !known.contains(&api.as_str())) {
            return Err(format!(
                "--dirty: no app traces an API {api:?} (known APIs: {})",
                known.join(", ")
            ));
        }
        Ok(args)
    }

    /// The one analyzer facade every experiment of this run shares.
    fn weseer(&self) -> std::io::Result<Weseer> {
        let mut weseer = Weseer::new().with_threads(self.threads);
        if let Some(path) = &self.store {
            weseer = weseer.with_store(path)?;
        }
        for api in &self.dirty {
            weseer = weseer.with_dirty(api);
        }
        if let Some(level) = self.isolation {
            weseer = weseer.with_isolation(level);
        }
        Ok(weseer)
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got {v:?}"))
}

/// Print an export's human report and write its payload to `path`.
fn export(path: &str, noun: &str, (human, payload): (String, String)) {
    if let Err(e) = std::fs::write(path, payload) {
        eprintln!("failed to write {noun} to {path}: {e}");
        exit(1);
    }
    println!("{human}");
    println!("{noun} written to {path}");
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        exit(2);
    });
    if args.help {
        print!("{USAGE}");
        return;
    }
    let weseer = &args.weseer().unwrap_or_else(|e| {
        eprintln!("failed to open the store: {e}");
        exit(1);
    });
    let exports = [
        &args.metrics_out,
        &args.witness_out,
        &args.anomaly_out,
        &args.verdicts_out,
    ];
    let all = (args.selectors.is_empty() && exports.iter().all(|e| e.is_none()))
        || args.selectors.iter().any(|s| s == "all");
    let want = |name: &str| all || args.selectors.iter().any(|s| s == name);

    let server = args.serve.as_deref().map(|addr| {
        // The endpoint reads the global registry; recording must be on
        // for `/metrics`, `/funnel`, and `/waitfor` to carry live data.
        weseer_obs::set_enabled(true);
        match weseer_obs::ObsServer::start(addr, FUNNEL_STAGES) {
            Ok(server) => {
                // CI greps this line for the bound (possibly ephemeral)
                // port; flush so it is visible while the run is live.
                println!("serving on http://{}", server.local_addr());
                let _ = std::io::stdout().flush();
                server
            }
            Err(e) => {
                eprintln!("failed to bind {addr}: {e}");
                exit(1);
            }
        }
    });
    if args.trace_out.is_some() {
        weseer_obs::timeline::set_enabled(true);
        weseer_obs::timeline::set_lane_name("main");
    }

    if want("table1") {
        let _span = weseer_obs::span("reproduce.table1");
        println!("{}", experiments::table1());
    }
    if want("table2") {
        let _span = weseer_obs::span("reproduce.table2");
        println!("{}", experiments::table2(weseer));
    }
    if want("baseline") {
        let _span = weseer_obs::span("reproduce.baseline");
        println!("{}", experiments::baseline(weseer));
    }
    if want("table3") {
        let _span = weseer_obs::span("reproduce.table3");
        println!("{}", experiments::table3(if args.quick { 2 } else { 5 }));
    }
    if want("pruning") {
        let _span = weseer_obs::span("reproduce.pruning");
        println!("{}", experiments::pruning());
    }
    if want("fig10") {
        let _span = weseer_obs::span("reproduce.fig10");
        println!("{}", experiments::figure("broadleaf", args.quick));
    }
    if want("fig11") {
        let _span = weseer_obs::span("reproduce.fig11");
        println!("{}", experiments::figure("shopizer", args.quick));
    }
    if want("aborts") {
        let _span = weseer_obs::span("reproduce.aborts");
        println!("{}", experiments::aborts_claim(args.quick));
    }
    if let Some(path) = &args.metrics_out {
        let _span = weseer_obs::span("reproduce.metrics_report");
        export(path, "metrics", experiments::metrics_report(weseer));
    }
    if let Some(path) = &args.witness_out {
        let _span = weseer_obs::span("reproduce.witness_report");
        export(path, "witnesses", experiments::witness_report(weseer));
    }
    if let Some(path) = &args.verdicts_out {
        let _span = weseer_obs::span("reproduce.verdicts_out");
        export(path, "batch verdicts", experiments::batch_verdicts(weseer));
    }
    if let Some(path) = &args.anomaly_out {
        let _span = weseer_obs::span("reproduce.anomaly_report");
        export(path, "anomaly report", experiments::anomaly_report(weseer));
    }
    if let Some(path) = &args.trace_out {
        weseer_obs::timeline::set_enabled(false);
        let snap = weseer_obs::timeline::snapshot();
        let json = weseer_obs::chrome::to_chrome_trace(&snap);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write trace to {path}: {e}");
            exit(1);
        }
        println!(
            "chrome trace ({} records on {} lanes, {} dropped) written to {path}",
            snap.records.len(),
            snap.lanes.len(),
            snap.dropped
        );
    }
    if let Some(server) = server {
        if args.serve_hold > 0 {
            println!("holding the endpoint for {}s", args.serve_hold);
            let _ = std::io::stdout().flush();
            std::thread::sleep(std::time::Duration::from_secs(args.serve_hold));
        }
        server.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn dirty_accepts_only_apis_an_app_traces() {
        let args = parse(&["--dirty", "Ship,Payment", "--dirty", "Register"]).unwrap();
        assert_eq!(args.dirty, ["Ship", "Payment", "Register"]);
        let err = parse(&["--dirty", "Ship,Shp"])
            .err()
            .expect("a typo is rejected");
        assert!(err.contains("\"Shp\""), "{err}");
        assert!(
            err.contains("Register, Add1, Add2, Add3, Ship, Payment, Checkout"),
            "{err}"
        );
    }
}
