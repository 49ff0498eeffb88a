//! `--serve-bench`: the serving-plane benchmark behind
//! `BENCH_serve.json`.
//!
//! Replays the Broadleaf and Shopizer trace sets through an in-process
//! [`weseer_serve::Daemon`] and measures three things:
//!
//! 1. **Identity** — the streamed verdict lines must be byte-identical
//!    to the batch pipeline's reports, cold and warm, at every shard
//!    count. Any divergence fails the bench (and CI).
//! 2. **Thread scaling** — traces/sec and client-observed verdict
//!    latency (p50/p99, submission → receipt) at 1, 2, and 4 analyzer
//!    threads per submission (`DaemonConfig::shards`). The gate is
//!    deliberately lenient — 4 threads must reach at least 0.4× the
//!    1-thread throughput — because CI runners are often single-core,
//!    where extra threads can only add overhead; the gate catches
//!    pathological regressions (a wedged merge, a serialized pool), not
//!    missing speedups.
//! 3. **Warm sharing** — a second daemon session against the same store
//!    file must hit verdicts the first session persisted (hit rate > 0),
//!    proving the store warms across daemon restarts, not just within
//!    one process.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use weseer_apps::{Broadleaf, ECommerceApp, Fixes, Shopizer};
use weseer_core::Weseer;
use weseer_serve::{verdict_line, Daemon, DaemonConfig, ServeEvent};

use crate::render::table;

/// Result of the serving benchmark.
pub struct ServeBench {
    /// Human-readable identity/scaling/warm report.
    pub report: String,
    /// The `BENCH_serve.json` body.
    pub bench_json: String,
    /// True if streaming diverged from batch anywhere, the warm session
    /// hit nothing, or the 4-shard throughput fell below the lenient
    /// scaling floor — all of which fail CI.
    pub failed: bool,
}

fn app_of(name: &str) -> &'static dyn ECommerceApp {
    match name {
        "broadleaf" => &Broadleaf,
        "shopizer" => &Shopizer,
        other => panic!("unknown app {other}"),
    }
}

/// The batch pipeline's verdicts for `app`, rendered with the daemon's
/// own wire format so equality is a plain byte comparison.
fn batch_lines(name: &str) -> String {
    let analysis = Weseer::new().analyze(app_of(name));
    analysis
        .diagnosis
        .deadlocks
        .iter()
        .map(|r| verdict_line(name, r))
        .collect()
}

struct Streamed {
    lines: String,
    traces: usize,
    /// Submission close → `Done` event (analysis wall, excluding trace
    /// collection).
    wall: Duration,
    /// Submission close → each verdict's receipt, in micros.
    latencies_us: Vec<u64>,
}

/// Stream one app's trace set through `daemon` from this thread,
/// recording client-observed verdict latencies.
fn stream_once(daemon: &Daemon, name: &str) -> Streamed {
    let (traces, _db) = Weseer::new().collect_traces(app_of(name), &Fixes::none());
    let n = traces.len();
    let client = daemon.client(name);
    for t in traces {
        client.send(t);
    }
    let rx = client.finish();
    let submitted = Instant::now();
    let mut lines = String::new();
    let mut latencies_us = Vec::new();
    let mut wall = Duration::ZERO;
    for event in rx {
        match event {
            ServeEvent::Verdict(line) => {
                latencies_us.push(submitted.elapsed().as_micros() as u64);
                lines.push_str(&line);
            }
            ServeEvent::Done(_) => {
                wall = submitted.elapsed();
                break;
            }
        }
    }
    Streamed {
        lines,
        traces: n,
        wall,
        latencies_us,
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run the full serving benchmark. `quick` trims the client sweep for
/// CI-scale runs; the identity and shard-scaling gates always run in
/// full.
pub fn serve_bench(quick: bool) -> ServeBench {
    weseer_obs::set_enabled(true);
    let apps = ["broadleaf", "shopizer"];
    let mut report = String::from("Serving plane: streaming identity, shard scaling, warm store\n");
    let mut failed = false;

    // Batch baselines (rendered in the wire format).
    let batch: Vec<(String, String)> = apps
        .iter()
        .map(|&a| (a.to_string(), batch_lines(a)))
        .collect();

    // Phase A: two daemon sessions sharing one store file. The first
    // fills it; the second must both match batch byte-for-byte and hit
    // the first session's verdicts.
    let store_path =
        std::env::temp_dir().join(format!("weseer-serve-bench-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let mut identity_rows = Vec::new();
    let mut identity_json = Vec::new();
    let mut warm_hit = 0u64;
    let mut warm_miss = 0u64;
    for (label, warm) in [("cold", false), ("warm", true)] {
        let daemon = Daemon::start(DaemonConfig {
            store_path: Some(store_path.clone()),
            ..DaemonConfig::default()
        })
        .expect("start bench daemon");
        let before = weseer_obs::snapshot();
        for (name, batch_out) in &batch {
            let streamed = stream_once(&daemon, name);
            let matched = streamed.lines == *batch_out;
            if !matched {
                failed = true;
                let _ = writeln!(
                    report,
                    "DIVERGENCE on {name}: {label} streamed verdicts differ from batch"
                );
            }
            identity_rows.push(vec![
                name.to_string(),
                label.to_string(),
                streamed.traces.to_string(),
                streamed.lines.lines().count().to_string(),
                if matched { "yes".into() } else { "NO".into() },
            ]);
            if warm {
                identity_json.push(format!(
                    "\"{name}\":{{\"verdicts\":{},\"cold_match\":{},\"warm_match\":{matched}}}",
                    streamed.lines.lines().count(),
                    // cold rows were pushed first, two rows per app
                    identity_rows
                        .iter()
                        .any(|r| r[0] == *name && r[1] == "cold" && r[4] == "yes"),
                ));
            }
        }
        let delta = weseer_obs::snapshot().delta_since(&before);
        if warm {
            warm_hit = delta.counter("store.hit");
            warm_miss = delta.counter("store.miss");
        }
        daemon.shutdown();
    }
    let _ = std::fs::remove_file(&store_path);
    let warm_hit_rate = warm_hit as f64 / (warm_hit + warm_miss).max(1) as f64;
    if warm_hit == 0 {
        failed = true;
        let _ = writeln!(
            report,
            "NOT WARM: the second daemon session hit nothing from the first"
        );
    }
    report.push_str(&table(
        &["app", "session", "traces", "verdicts", "matches batch"],
        &identity_rows,
    ));
    let _ = writeln!(
        report,
        "warm session store: {warm_hit} hits / {warm_miss} misses ({:.0}% hit rate)\n",
        warm_hit_rate * 100.0
    );

    // Phase B: shard-scaling curve, cold (no store — the shards must do
    // real solving for throughput to mean anything).
    let mut shard_rows = Vec::new();
    let mut shard_json = Vec::new();
    let mut shard_tput = Vec::new();
    for shards in [1usize, 2, 4] {
        let daemon = Daemon::start(DaemonConfig {
            shards,
            ..DaemonConfig::default()
        })
        .expect("start bench daemon");
        let mut traces = 0usize;
        let mut wall = Duration::ZERO;
        let mut latencies = Vec::new();
        let mut matched = true;
        for (name, batch_out) in &batch {
            let streamed = stream_once(&daemon, name);
            matched &= streamed.lines == *batch_out;
            traces += streamed.traces;
            wall += streamed.wall;
            latencies.extend(streamed.latencies_us);
        }
        daemon.shutdown();
        if !matched {
            failed = true;
            let _ = writeln!(
                report,
                "DIVERGENCE: {shards}-shard streamed verdicts differ from batch"
            );
        }
        latencies.sort_unstable();
        let tput = traces as f64 / wall.as_secs_f64().max(1e-9);
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        shard_tput.push(tput);
        shard_rows.push(vec![
            shards.to_string(),
            format!("{tput:.1}"),
            format!("{:.1}", p50 as f64 / 1000.0),
            format!("{:.1}", p99 as f64 / 1000.0),
            if matched { "yes".into() } else { "NO".into() },
        ]);
        shard_json.push(format!(
            "{{\"shards\":{shards},\"traces_per_sec\":{tput:.1},\
             \"verdict_p50_us\":{p50},\"verdict_p99_us\":{p99},\"match\":{matched}}}"
        ));
    }
    // Lenient on purpose: single-core CI cannot show a speedup, but a
    // 4-thread collapse below 0.4x of 1-thread means the scheduler
    // itself regressed (a stalled merge, workers serialized).
    if shard_tput[2] < 0.4 * shard_tput[0] {
        failed = true;
        let _ = writeln!(
            report,
            "SCALING REGRESSION: 4-shard throughput {:.1} < 0.4x of 1-shard {:.1}",
            shard_tput[2], shard_tput[0]
        );
    }
    report.push_str("Shard scaling (cold, both apps):\n");
    report.push_str(&table(
        &[
            "shards",
            "traces/sec",
            "p50 (ms)",
            "p99 (ms)",
            "matches batch",
        ],
        &shard_rows,
    ));

    // Phase C: concurrent-client curve against one daemon. Clients
    // alternate apps; throughput is aggregate traces over the round's
    // wall clock (ingest backpressure and worker contention included).
    let client_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let mut client_rows = Vec::new();
    let mut client_json = Vec::new();
    for &clients in client_counts {
        let daemon = Daemon::start(DaemonConfig {
            workers: clients,
            ..DaemonConfig::default()
        })
        .expect("start bench daemon");
        let start = Instant::now();
        let (traces, matched) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let daemon = &daemon;
                    let batch = &batch;
                    scope.spawn(move || {
                        let (name, batch_out) = &batch[c % batch.len()];
                        let streamed = stream_once(daemon, name);
                        (streamed.traces, streamed.lines == *batch_out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bench client panicked"))
                .fold((0usize, true), |(t, m), (tc, mc)| (t + tc, m && mc))
        });
        let wall = start.elapsed();
        daemon.shutdown();
        if !matched {
            failed = true;
            let _ = writeln!(
                report,
                "DIVERGENCE: {clients}-client streamed verdicts differ from batch"
            );
        }
        let tput = traces as f64 / wall.as_secs_f64().max(1e-9);
        client_rows.push(vec![
            clients.to_string(),
            traces.to_string(),
            format!("{tput:.1}"),
            if matched { "yes".into() } else { "NO".into() },
        ]);
        client_json.push(format!(
            "{{\"clients\":{clients},\"traces\":{traces},\"traces_per_sec\":{tput:.1},\
             \"match\":{matched}}}"
        ));
    }
    report.push_str("Concurrent clients (one daemon, workers = clients):\n");
    report.push_str(&table(
        &["clients", "traces", "traces/sec", "matches batch"],
        &client_rows,
    ));

    let bench_json = format!(
        "{{\"bench\":\"serve\",\"failed\":{failed},\
         \"identity\":{{{}}},\
         \"warm\":{{\"hit\":{warm_hit},\"miss\":{warm_miss},\"hit_rate\":{warm_hit_rate:.3}}},\
         \"shard_curve\":[{}],\
         \"client_curve\":[{}]}}\n",
        identity_json.join(","),
        shard_json.join(","),
        client_json.join(",")
    );
    ServeBench {
        report,
        bench_json,
        failed,
    }
}
