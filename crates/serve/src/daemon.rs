//! The daemon core: bounded-channel ingestion, per-session trace
//! buffering, and analysis workers running the streaming diagnosis
//! against the shared warm store.

use crate::verdict_line;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use weseer_analyzer::CollectedTrace;
use weseer_apps::{Broadleaf, ECommerceApp, Fixes, Shopizer};
use weseer_core::Weseer;
use weseer_store::Store;

/// Resolve an application by its registered name.
pub fn app_by_name(name: &str) -> Option<&'static dyn ECommerceApp> {
    match name {
        "broadleaf" => Some(&Broadleaf),
        "shopizer" => Some(&Shopizer),
        _ => None,
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Analyzer threads per submission (the diagnosis pool's size).
    pub shards: usize,
    /// Bound of the ingest channel, in messages (traces). A full channel
    /// blocks the submitting client — backpressure, not buffering.
    pub ingest_capacity: usize,
    /// Bound of the router → analysis-worker queue, in whole submissions.
    pub work_capacity: usize,
    /// Concurrent analysis workers (each runs one submission at a time
    /// on its own `shards` analyzer threads).
    pub workers: usize,
    /// Shared warm verdict store, opened in live-append mode. `None`
    /// analyzes cold every time.
    pub store_path: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            shards: 2,
            ingest_capacity: 256,
            work_capacity: 2,
            workers: 1,
            store_path: None,
        }
    }
}

enum IngestMsg {
    Trace {
        session: u64,
        trace: Box<CollectedTrace>,
        sent_at: Instant,
    },
    Finish {
        session: u64,
        app: String,
        reply: Sender<ServeEvent>,
        sent_at: Instant,
    },
}

/// What the daemon streams back to a submitting client.
#[derive(Debug)]
pub enum ServeEvent {
    /// One confirmed deadlock, rendered by [`verdict_line`] — emitted as
    /// soon as the canonical verdict order reaches it, while later
    /// cycles are still solving.
    Verdict(String),
    /// The submission finished; no further events follow.
    Done(AnalysisSummary),
}

/// Closing summary of one analyzed submission.
#[derive(Debug, Clone)]
pub struct AnalysisSummary {
    /// Application name as submitted.
    pub app: String,
    /// Traces analyzed.
    pub traces: usize,
    /// Verdicts streamed.
    pub verdicts: usize,
    /// Analysis wall time (excluding ingest).
    pub wall: Duration,
    /// `Some` if the submission was rejected (unknown app).
    pub error: Option<String>,
}

struct AnalysisJob {
    app: String,
    traces: Vec<CollectedTrace>,
    reply: Sender<ServeEvent>,
}

/// The long-lived serving daemon. Create with [`Daemon::start`], attach
/// any number of [`IngestClient`]s, and drop (or [`Daemon::shutdown`])
/// to drain and stop.
pub struct Daemon {
    ingest: Option<SyncSender<IngestMsg>>,
    next_session: AtomicU64,
    /// What every submission is analyzed with: the batch pipeline's
    /// default configuration on `shards` threads, plus the shared store.
    weseer: Weseer,
    started: Instant,
    config: DaemonConfig,
    router: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Start the ingest router and analysis workers (and open the shared
    /// store, when configured).
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        let weseer = Weseer {
            store: match &config.store_path {
                Some(path) => Some(Arc::new(Store::open_live(path)?)),
                None => None,
            },
            ..Weseer::new().with_threads(config.shards.max(1))
        };
        let (ingest_tx, ingest_rx) = sync_channel::<IngestMsg>(config.ingest_capacity.max(1));
        let (work_tx, work_rx) = sync_channel::<AnalysisJob>(config.work_capacity.max(1));
        let work_rx = Arc::new(Mutex::new(work_rx));

        let router = std::thread::Builder::new()
            .name("serve.ingest".into())
            .spawn(move || {
                let mut sessions: HashMap<u64, Vec<CollectedTrace>> = HashMap::new();
                while let Ok(msg) = ingest_rx.recv() {
                    match msg {
                        IngestMsg::Trace {
                            session,
                            trace,
                            sent_at,
                        } => {
                            weseer_obs::observe_duration("serve.ingest_lag_us", sent_at.elapsed());
                            weseer_obs::incr("serve.traces_ingested");
                            sessions.entry(session).or_default().push(*trace);
                        }
                        IngestMsg::Finish {
                            session,
                            app,
                            reply,
                            sent_at,
                        } => {
                            weseer_obs::observe_duration("serve.ingest_lag_us", sent_at.elapsed());
                            let traces = sessions.remove(&session).unwrap_or_default();
                            // A full work queue blocks here, which in turn
                            // fills the ingest channel: clients feel it.
                            if work_tx.send(AnalysisJob { app, traces, reply }).is_err() {
                                break;
                            }
                        }
                    }
                }
            })
            .expect("spawn serve.ingest");

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for w in 0..config.workers.max(1) {
            let work_rx = Arc::clone(&work_rx);
            let weseer = weseer.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve.analysis{w}"))
                    .spawn(move || loop {
                        let job = {
                            let rx = work_rx.lock().unwrap();
                            rx.recv()
                        };
                        match job {
                            Ok(job) => run_analysis(job, &weseer),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn serve.analysis"),
            );
        }

        Ok(Daemon {
            ingest: Some(ingest_tx),
            next_session: AtomicU64::new(0),
            weseer,
            started: Instant::now(),
            config,
            router: Some(router),
            workers,
        })
    }

    /// The effective configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// When the daemon started (for uptime/throughput reporting).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// The shared store handle, when configured.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.weseer.store.as_ref()
    }

    /// Open a new ingest session for `app`. The client streams traces
    /// with [`IngestClient::send`] (which blocks when the daemon is
    /// saturated) and closes with [`IngestClient::finish`] to trigger
    /// analysis.
    pub fn client(&self, app: &str) -> IngestClient {
        let (reply_tx, reply_rx) = channel();
        IngestClient {
            session: self.next_session.fetch_add(1, Ordering::Relaxed),
            app: app.to_string(),
            ingest: self.ingest.as_ref().expect("daemon not shut down").clone(),
            reply_tx,
            reply_rx,
        }
    }

    /// Server-side submission: collect `app`'s unit-test traces locally,
    /// stream them through the ingest plane, and block until every
    /// verdict is in. This is what `GET /analyze/<app>` serves.
    pub fn submit(&self, app_name: &str) -> Result<SubmitResult, String> {
        let app = app_by_name(app_name).ok_or_else(|| format!("unknown app {app_name:?}"))?;
        let (traces, _db) = Weseer::new().collect_traces(app, &Fixes::none());
        let client = self.client(app_name);
        for trace in traces {
            client.send(trace);
        }
        let events = client.finish();
        let mut lines = Vec::new();
        let mut summary = None;
        for event in events {
            match event {
                ServeEvent::Verdict(line) => lines.push(line),
                ServeEvent::Done(s) => summary = Some(s),
            }
        }
        let summary = summary.ok_or_else(|| "daemon dropped the submission".to_string())?;
        if let Some(e) = &summary.error {
            return Err(e.clone());
        }
        Ok(SubmitResult { lines, summary })
    }

    /// Drain in-flight submissions, stop every thread, and flush the
    /// store. Outstanding [`IngestClient`]s keep the ingest channel open;
    /// finish or drop them first.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        drop(self.ingest.take());
        if let Some(h) = self.router.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(store) = &self.weseer.store {
            let _ = store.flush();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A completed server-side submission.
#[derive(Debug)]
pub struct SubmitResult {
    /// The streamed verdict lines, in canonical order.
    pub lines: Vec<String>,
    /// The closing summary.
    pub summary: AnalysisSummary,
}

/// One application instance's ingest session.
pub struct IngestClient {
    session: u64,
    app: String,
    ingest: SyncSender<IngestMsg>,
    reply_tx: Sender<ServeEvent>,
    reply_rx: Receiver<ServeEvent>,
}

impl IngestClient {
    /// Stream one collected trace. Blocks while the daemon's ingest
    /// channel is full (backpressure).
    pub fn send(&self, trace: CollectedTrace) {
        self.ingest
            .send(IngestMsg::Trace {
                session: self.session,
                trace: Box::new(trace),
                sent_at: Instant::now(),
            })
            .expect("daemon ingest closed");
    }

    /// Close the session and trigger analysis; the returned receiver
    /// yields [`ServeEvent::Verdict`]s as they land, then one
    /// [`ServeEvent::Done`].
    pub fn finish(self) -> Receiver<ServeEvent> {
        self.ingest
            .send(IngestMsg::Finish {
                session: self.session,
                app: self.app,
                reply: self.reply_tx,
                sent_at: Instant::now(),
            })
            .expect("daemon ingest closed");
        self.reply_rx
    }
}

/// Analyze one submission on an analysis worker, streaming verdicts to
/// the session's reply channel. Keys and configuration are the batch
/// pipeline's ([`Weseer::diagnose`]), so verdict bytes match
/// `Weseer::new().analyze`.
fn run_analysis(job: AnalysisJob, weseer: &Weseer) {
    let wall = Instant::now();
    weseer_obs::incr("serve.analyses");
    let Some(app) = app_by_name(&job.app) else {
        let _ = job.reply.send(ServeEvent::Done(AnalysisSummary {
            app: job.app.clone(),
            traces: job.traces.len(),
            verdicts: 0,
            wall: wall.elapsed(),
            error: Some(format!("unknown app {:?}", job.app)),
        }));
        return;
    };
    let mut verdicts = 0usize;
    weseer.diagnose(
        app,
        &job.traces,
        Some(&mut |report| {
            verdicts += 1;
            weseer_obs::incr("serve.verdicts_served");
            let _ = job
                .reply
                .send(ServeEvent::Verdict(verdict_line(&job.app, report)));
        }),
    );
    let _ = job.reply.send(ServeEvent::Done(AnalysisSummary {
        app: job.app,
        traces: job.traces.len(),
        verdicts,
        wall: wall.elapsed(),
        error: None,
    }));
}
