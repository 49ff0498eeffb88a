//! Serving-plane integration: an in-process `weseer-serve` daemon must
//! stream verdicts byte-identical to the batch pipeline, a second daemon
//! session against the same store file must warm-start from the first
//! (hits > 0 — the store is fleet-shared, not per-process), versions that
//! take turns on one daemon must each stay resident in its store, the
//! HTTP surface must serve `/analyze/<app>` and `/shards` end to end and
//! answer an unknown app with `404`, and `/shards` must count only
//! analysis, not trace collection, as work.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use weseer::analyzer::CollectedTrace;
use weseer::apps::{Fix, Fixes};
use weseer::core::Weseer;
use weseer::serve::{app_by_name, verdict_line, Daemon, DaemonConfig, ServeEvent};
use weseer::store::json::Json;

/// Every test here runs analyses, which add to the process-global obs
/// registry, and some read that registry; the harness runs tests on
/// parallel threads, so each holds this throughout.
static OBS: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The batch pipeline's verdicts in the daemon's wire format.
fn batch_lines(name: &str) -> String {
    let app = app_by_name(name).expect("known app");
    let analysis = Weseer::new().analyze(app);
    analysis
        .diagnosis
        .deadlocks
        .iter()
        .map(|r| verdict_line(name, r))
        .collect()
}

/// Stream the trace set of one app version through `daemon` as an ingest
/// client would and concatenate the verdict events.
fn stream(daemon: &Daemon, name: &str, fixes: &Fixes) -> String {
    let app = app_by_name(name).expect("known app");
    let (traces, _db) = Weseer::new().collect_traces(app, fixes);
    send(daemon, name, traces)
}

/// Send already collected traces through an ingest client of `daemon` and
/// concatenate the verdict events.
fn send(daemon: &Daemon, name: &str, traces: Vec<CollectedTrace>) -> String {
    let client = daemon.client(name);
    for t in traces {
        client.send(t);
    }
    let mut lines = String::new();
    for event in client.finish() {
        match event {
            ServeEvent::Verdict(line) => lines.push_str(&line),
            ServeEvent::Done(summary) => {
                assert!(summary.error.is_none(), "submission failed: {summary:?}");
                break;
            }
        }
    }
    lines
}

#[test]
fn streamed_verdicts_match_batch_and_warm_across_sessions() {
    let _obs = obs_lock();
    weseer::obs::set_enabled(true);
    let store =
        std::env::temp_dir().join(format!("weseer-serve-stream-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let batch = batch_lines("broadleaf");
    assert!(!batch.is_empty(), "broadleaf has deadlocks to stream");

    // Session 1 fills the store cold; sharded streaming must already be
    // byte-identical to the batch reduce.
    let config = DaemonConfig {
        shards: 2,
        store_path: Some(store.clone()),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config.clone()).expect("start daemon");
    assert_eq!(
        stream(&daemon, "broadleaf", &Fixes::none()),
        batch,
        "cold stream diverged"
    );
    daemon.shutdown();

    // Session 2 is a fresh process image as far as the store is
    // concerned: it must reload the first session's verdicts and hit them.
    let before = weseer::obs::snapshot();
    let daemon = Daemon::start(config).expect("restart daemon");
    assert_eq!(
        stream(&daemon, "broadleaf", &Fixes::none()),
        batch,
        "warm stream diverged"
    );
    daemon.shutdown();
    let delta = weseer::obs::snapshot().delta_since(&before);
    assert!(
        delta.counter("store.hit") > 0,
        "second session hit nothing from the first: {:?}",
        delta.counters
    );
    let _ = std::fs::remove_file(&store);
}

#[test]
fn versions_taking_turns_on_one_daemon_each_stay_resident() {
    let _obs = obs_lock();
    let store =
        std::env::temp_dir().join(format!("weseer-serve-churn-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let batch = batch_lines("broadleaf");
    let daemon = Daemon::start(DaemonConfig {
        store_path: Some(store.clone()),
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let release = Fixes::none();
    let mut f1 = Fixes::none();
    f1.enable(Fix::BROADLEAF[0]);
    let mut sizes = Vec::new();
    for (n, version) in [&release, &f1, &release, &f1].into_iter().enumerate() {
        let lines = stream(&daemon, "broadleaf", version);
        if version == &release {
            assert_eq!(lines, batch, "release session {n} diverged from batch");
        }
        sizes.push(std::fs::metadata(&store).expect("live store").len());
    }
    daemon.shutdown();
    // First sight of each version appends its verdicts; returning to a
    // version the store already holds appends nothing.
    assert!(
        0 < sizes[0] && sizes[0] < sizes[1] && sizes[1] == sizes[2] && sizes[2] == sizes[3],
        "store bytes after each session: {sizes:?}"
    );
    let _ = std::fs::remove_file(&store);
}

/// `GET path`: the response head and body.
fn request(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
    (head.to_string(), body.to_string())
}

/// `GET path`, which must answer `200 OK`: the body.
fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let (head, body) = request(addr, path);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{path}: {head}");
    body
}

#[test]
fn http_surface_serves_analyze_and_shards() {
    let _obs = obs_lock();
    let (daemon, server) =
        weseer::serve::serve("127.0.0.1:0", DaemonConfig::default()).expect("bind daemon");
    let addr = server.local_addr();

    let body = get(addr, "/analyze/shopizer");
    assert_eq!(body, batch_lines("shopizer"), "HTTP stream diverged");

    let shards = Json::parse(&get(addr, "/shards")).expect("shards JSON");
    assert_eq!(
        shards.get("shards").and_then(Json::as_u64),
        Some(daemon.config().shards as u64)
    );
    assert!(
        shards
            .get("verdicts_served")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "no verdicts counted: {shards:?}"
    );
    let per_shard = shards
        .get("per_shard")
        .and_then(Json::as_arr)
        .expect("per_shard array");
    assert_eq!(per_shard.len(), daemon.config().shards);
    assert!(
        per_shard
            .iter()
            .map(|s| s.get("tasks").and_then(Json::as_u64).unwrap_or(0))
            .sum::<u64>()
            > 0,
        "no shard did any work: {shards:?}"
    );

    // The funnel's serving stages carry the daemon's counters.
    let funnel = Json::parse(&get(addr, "/funnel")).expect("funnel JSON");
    let stages = funnel
        .get("stages")
        .and_then(Json::as_arr)
        .expect("stages array");
    assert!(
        stages.iter().any(|s| {
            s.get("label").and_then(Json::as_str) == Some("verdicts served (serve)")
                && s.get("value").and_then(Json::as_u64).unwrap_or(0) > 0
        }),
        "serve funnel stage missing or empty"
    );

    server.stop();
}

/// A misspelled app is a client error, not a one-line verdict stream that
/// `curl -f` would accept.
#[test]
fn analyze_of_an_unknown_app_is_not_found() {
    let _obs = obs_lock();
    let (_daemon, server) =
        weseer::serve::serve("127.0.0.1:0", DaemonConfig::default()).expect("bind daemon");
    let (head, body) = request(server.local_addr(), "/analyze/shopizr");
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    assert_eq!(body, "{\"error\":\"unknown app \\\"shopizr\\\"\"}\n");
    server.stop();
}

/// Analyzer tasks `run` adds to the `analyzer.worker{w}.tasks` counters.
fn worker_tasks(run: impl FnOnce()) -> u64 {
    let before = weseer::obs::snapshot();
    run();
    let delta = weseer::obs::snapshot().delta_since(&before);
    delta
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("analyzer.worker") && name.ends_with(".tasks"))
        .map(|(_, n)| n)
        .sum()
}

/// `/shards` reports the `analyzer.worker{w}.tasks` counters as each
/// shard's work. A server-side `submit` (what `GET /analyze/<app>`
/// serves) collects its traces first; that collection is not analyzer
/// work, so the submission must add exactly the tasks that streaming the
/// same, already collected traces adds.
#[test]
fn submit_counts_only_analysis_as_shard_tasks() {
    let _obs = obs_lock();
    weseer::obs::set_enabled(true);
    let daemon = Daemon::start(DaemonConfig::default()).expect("start daemon");
    let submitted = worker_tasks(|| {
        daemon.submit("shopizer").expect("submit");
    });
    let app = app_by_name("shopizer").expect("known app");
    let (traces, _db) = Weseer::new().collect_traces(app, &Fixes::none());
    let streamed = worker_tasks(|| {
        send(&daemon, "shopizer", traces);
    });
    daemon.shutdown();
    assert!(streamed > 0, "the analysis ran on no worker");
    assert_eq!(submitted, streamed, "collection counted as shard tasks");
}
