//! Standalone serving daemon: `weseer-serve [--addr HOST:PORT]
//! [--shards N] [--workers N] [--store PATH] [--hold SECS]`.
//!
//! Binds the obs-plane HTTP server with the serving routes and runs
//! until killed (or for `--hold` seconds, for scripted smoke tests).

use std::path::PathBuf;
use std::process::exit;
use weseer_serve::{serve, DaemonConfig};

const USAGE: &str = "\
weseer-serve: long-lived WeSEER analysis daemon

USAGE:
    weseer-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT   bind address (default 127.0.0.1:0, ephemeral port)
    --shards N         analyzer threads per submission (default 2)
    --workers N        concurrent analysis workers (default 1)
    --store PATH       shared warm verdict store (live-append JSON lines)
    --hold SECS        exit after SECS seconds instead of serving forever
    --help             print this help

ROUTES:
    GET /analyze/<app>   stream an app's verdicts (broadleaf | shopizer)
    GET /shards          per-thread task counts, ingest lag, verdicts/sec
    GET /metrics         Prometheus counters, histograms
    GET /funnel          pipeline funnel JSON
";

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = DaemonConfig::default();
    let mut hold: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--shards" => {
                config.shards = value("--shards").parse().unwrap_or_else(|_| {
                    eprintln!("error: --shards expects a number");
                    exit(2);
                })
            }
            "--workers" => {
                config.workers = value("--workers").parse().unwrap_or_else(|_| {
                    eprintln!("error: --workers expects a number");
                    exit(2);
                })
            }
            "--store" => config.store_path = Some(PathBuf::from(value("--store"))),
            "--hold" => {
                hold = Some(value("--hold").parse().unwrap_or_else(|_| {
                    eprintln!("error: --hold expects seconds");
                    exit(2);
                }))
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown flag {other:?}\n\n{USAGE}");
                exit(2);
            }
        }
    }

    let (daemon, server) = match serve(&addr, config) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: failed to start daemon on {addr}: {e}");
            exit(1);
        }
    };
    println!("serving on http://{}", server.local_addr());
    println!(
        "shards={} workers={} store={}",
        daemon.config().shards,
        daemon.config().workers,
        daemon
            .config()
            .store_path
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "(none)".to_string()),
    );

    match hold {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}
