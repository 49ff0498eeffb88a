//! The daemon's network surface: the obs plane's HTTP server
//! ([`weseer_obs::http::ObsServer`]) extended with serving routes.
//!
//! * `GET /analyze/<app>` — collect that app's unit-test traces
//!   server-side, stream them through the ingest plane, and return the
//!   verdict lines (one JSON object per line, canonical order); an unknown
//!   app is a `404` and a failed submission a `500`, each with a JSON
//!   `{"error": …}` body;
//! * `GET /shards` — per-analyzer-thread task counts, ingest lag
//!   percentiles, verdicts/sec, and shared-store hit counters;
//! * plus the built-in `/metrics`, `/funnel`, `/waitfor`, `/waitfor.dot`
//!   and the dashboard at `/`.

use crate::daemon::{app_by_name, Daemon, DaemonConfig};
use std::io;
use std::sync::Arc;
use weseer_core::FUNNEL_STAGES;
use weseer_obs::http::{ObsServer, RouteHandler};
use weseer_store::json::Json;

/// Build the daemon's extra-route handler for
/// [`ObsServer::start_with`].
pub fn routes(daemon: Arc<Daemon>) -> Arc<RouteHandler> {
    Arc::new(move |route: &str| {
        if route == "/shards" {
            return Some((
                "200 OK",
                "application/json; charset=utf-8".to_string(),
                shards_json(&daemon),
            ));
        }
        if let Some(app) = route.strip_prefix("/analyze/") {
            // The submission runs synchronously on the server thread; the
            // client simply holds the connection until verdicts are in.
            return match daemon.submit(app) {
                Ok(result) => Some((
                    "200 OK",
                    "application/x-ndjson; charset=utf-8".to_string(),
                    result.lines.concat(),
                )),
                Err(e) => Some((
                    if app_by_name(app).is_none() {
                        "404 Not Found"
                    } else {
                        "500 Internal Server Error"
                    },
                    "application/json; charset=utf-8".to_string(),
                    format!("{{\"error\":{:?}}}\n", e),
                )),
            };
        }
        None
    })
}

/// The `/shards` body: live serving statistics from the obs registry.
pub fn shards_json(daemon: &Daemon) -> String {
    let snap = weseer_obs::snapshot();
    let uptime = daemon.started().elapsed();
    let verdicts = snap.counter("serve.verdicts_served");
    let per_sec = verdicts as f64 / uptime.as_secs_f64().max(1e-9);
    let lag = snap.histogram("serve.ingest_lag_us");
    let shards = daemon.config().shards;
    let per_shard: Vec<Json> = (0..shards)
        .map(|s| {
            Json::Obj(vec![
                ("shard".into(), Json::u64(s as u64)),
                (
                    "tasks".into(),
                    Json::u64(snap.counter(&format!("analyzer.worker{s}.tasks"))),
                ),
            ])
        })
        .collect();
    let store = Json::Obj(vec![
        ("hit".into(), Json::u64(snap.counter("store.hit"))),
        ("miss".into(), Json::u64(snap.counter("store.miss"))),
        (
            "entries".into(),
            Json::u64(daemon.store().map(|s| s.len() as u64).unwrap_or(0)),
        ),
        (
            "recovered_truncation".into(),
            Json::u64(snap.counter("store.recovered_truncation")),
        ),
    ]);
    let record = Json::Obj(vec![
        ("shards".into(), Json::u64(shards as u64)),
        ("uptime_ms".into(), Json::u64(uptime.as_millis() as u64)),
        (
            "traces_ingested".into(),
            Json::u64(snap.counter("serve.traces_ingested")),
        ),
        ("verdicts_served".into(), Json::u64(verdicts)),
        ("analyses".into(), Json::u64(snap.counter("serve.analyses"))),
        (
            "verdicts_per_sec".into(),
            Json::Num(format!("{per_sec:.3}")),
        ),
        (
            "ingest_lag_p50_us".into(),
            lag.map(|h| Json::u64(h.p50())).unwrap_or(Json::Null),
        ),
        (
            "ingest_lag_p99_us".into(),
            lag.map(|h| Json::u64(h.p99())).unwrap_or(Json::Null),
        ),
        ("store".into(), store),
        ("per_shard".into(), Json::Arr(per_shard)),
    ]);
    let mut out = String::new();
    record.write(&mut out);
    out.push('\n');
    out
}

/// Start a full serving daemon: enable observability, start the
/// [`Daemon`], and bind the HTTP endpoint with the serving routes.
/// Returns the daemon handle and the bound server (whose `local_addr`
/// resolves an ephemeral `:0` port).
pub fn serve(addr: &str, config: DaemonConfig) -> io::Result<(Arc<Daemon>, ObsServer)> {
    weseer_obs::set_enabled(true);
    let daemon = Arc::new(Daemon::start(config)?);
    let server = ObsServer::start_with(addr, FUNNEL_STAGES, Some(routes(Arc::clone(&daemon))))?;
    Ok((daemon, server))
}
