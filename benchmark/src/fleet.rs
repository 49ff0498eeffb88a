//! The two serving workloads: one in-process daemon with a live-append
//! store, pre-warmed with every app version of the session mix, driven either by an
//! open loop (`fleet-open`: fixed arrival rate, latency from due time) or
//! a closed loop (`fleet-closed`: two clients, each sending its next
//! session when the previous `Done` arrives).
//!
//! One *analysis* here is one session: first `send` (open loop: its due
//! time) to receipt of `ServeEvent::Done`. Trace collection happens on the
//! client side before the session is due and is not part of it.

use crate::batch::app_of;
use crate::gen::{self, App, Session, SessionTiming, OPEN_RATE_HZ, SLO_NS, VARIANTS};
use crate::golden;
use crate::layers;
use crate::metrics::Workload;
use crate::spans::{Recorder, Span};
use crate::stats::{median, percentile};
use crate::{Phase, PhaseResult, Run};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};
use weseer_analyzer::CollectedTrace;
use weseer_apps::{Fix, Fixes};
use weseer_core::Weseer;
use weseer_serve::{shards_json, Daemon, DaemonConfig, ServeEvent};
use weseer_store::json::Json;

pub const SHARDS: usize = 2;
pub const WORKERS: usize = 1;
/// Clients of the closed loop (= the harness's thread budget).
pub const CLOSED_CLIENTS: usize = 2;
/// Tolerance of the fleet conservation check: the daemon's own service
/// time may not exceed the finish → `Done` interval it sits inside.
const QUEUE_SLACK_NS: i64 = 1_000_000;

pub struct Fleet {
    workload: Workload,
    daemon: Daemon,
    store: PathBuf,
    sessions: Vec<Session>,
    next: usize,
}

/// What one session produced, as its client saw it.
struct Outcome {
    session: Session,
    timing: SessionTiming,
    verdicts: usize,
    error: Option<String>,
}

/// Client side, before the session is due: trace the app version.
fn collect(session: &Session) -> Vec<CollectedTrace> {
    let mut fixes = Fixes::none();
    if let Some(k) = session.variant {
        fixes.enable(Fix::BROADLEAF[k as usize]);
    }
    Weseer::new()
        .with_threads(1)
        .collect_traces(app_of(session.app), &fixes)
        .0
}

/// Stream a session's traces and close it. Fills the send-side half of
/// the timing; `epoch` is the phase start.
fn send(
    daemon: &Daemon,
    rec: &mut Recorder,
    id: u64,
    session: &Session,
    traces: Vec<CollectedTrace>,
    epoch: Instant,
    due: u64,
) -> (SessionTiming, Receiver<ServeEvent>) {
    let now = || epoch.elapsed().as_nanos() as u64;
    let client = daemon.client(session.app.name());
    let mut t = SessionTiming {
        due,
        // Sampled while earlier sessions may still be in the shards (at a
        // `Done` the queues are empty by construction). Costs a registry
        // snapshot, so traced runs only.
        shard_depth: if rec.enabled() {
            shard_stats(daemon).1
        } else {
            0
        },
        send_start: now(),
        ..SessionTiming::default()
    };
    rec.span("serve.send", id, |_| {
        for trace in traces {
            let entered = now();
            client.send(trace);
            t.send_blocked += now() - entered;
        }
    });
    // Stamped before the call: the daemon may start (even finish) the
    // analysis before this thread runs again, and its service time has to
    // fall inside the finish -> Done interval it is subtracted from.
    t.finished = now();
    let events = rec.span("serve.finish", id, |_| client.finish());
    (t, events)
}

/// Receive a session's events up to `Done`, check the verdict stream
/// against its golden digest, and complete the timing.
fn drain(
    golden: &golden::Golden,
    rec: &mut Recorder,
    id: u64,
    session: Session,
    mut t: SessionTiming,
    events: Receiver<ServeEvent>,
    epoch: Instant,
) -> Outcome {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut lines = String::new();
    let mut verdicts = 0usize;
    let mut summary = None;
    rec.span("serve.receive", id, |_| {
        for event in events {
            match event {
                ServeEvent::Verdict(line) => {
                    t.last_verdict = now();
                    if verdicts == 0 {
                        t.first_verdict = t.last_verdict;
                    }
                    verdicts += 1;
                    lines.push_str(&line);
                }
                ServeEvent::Done(s) => {
                    t.done = now();
                    summary = Some(s);
                    break;
                }
            }
        }
    });
    if verdicts == 0 {
        t.first_verdict = t.done;
        t.last_verdict = t.done;
    }
    let error = match summary {
        None => Some("the daemon dropped the session without Done".to_string()),
        Some(s) => {
            t.service = s.wall.as_nanos() as u64;
            s.error
                .or_else(|| {
                    let key = golden::stream_key(session.app, session.variant);
                    golden.check(&key, &lines).err()
                })
                .or_else(|| {
                    (session.variant.is_none() && verdicts != golden::known(session.app).reports)
                        .then(|| format!("{}: {verdicts} verdicts", session.app.name()))
                })
                .or_else(|| {
                    (t.queue() < -QUEUE_SLACK_NS).then(|| {
                        format!(
                            "conservation: service {} ns exceeds finish->Done {} ns",
                            t.service,
                            t.done - t.finished
                        )
                    })
                })
        }
    };
    Outcome {
        session,
        timing: t,
        verdicts,
        error,
    }
}

impl Fleet {
    /// One set-up: a fresh store file, a fresh daemon, and one session of
    /// every app version the workload sends through it (checked): both
    /// release versions, for `fleet-closed` the eight Broadleaf variants,
    /// then Broadleaf release again so the last-wins sites start out on
    /// the version most sessions run. First sight of a version costs
    /// 50-450 ms of solving; paid here it shows in `setup_s`, and the
    /// timed phase measures the fleet's steady state.
    pub fn set_up(run: &mut Run, workload: Workload) -> Result<Fleet, String> {
        let store = run.dir.join("fleet-store.jsonl");
        let _ = std::fs::remove_file(&store);
        let daemon = Daemon::start(DaemonConfig {
            shards: SHARDS,
            workers: WORKERS,
            store_path: Some(store.clone()),
            ..DaemonConfig::default()
        })
        .map_err(|e| format!("start daemon: {e}"))?;
        let mut rec = Recorder::new(run.epoch, false);
        let churn = if workload == Workload::FleetClosed {
            VARIANTS
        } else {
            0
        };
        let versions = App::ALL
            .into_iter()
            .map(|app| (app, None))
            .chain((0..churn).map(|k| (App::Broadleaf, Some(k))))
            .chain([(App::Broadleaf, None)]);
        for (app, variant) in versions {
            let session = Session {
                app,
                variant,
                due_ns: 0,
            };
            let epoch = Instant::now();
            let (t, events) = send(&daemon, &mut rec, 0, &session, collect(&session), epoch, 0);
            let outcome = drain(&run.golden, &mut rec, 0, session, t, events, epoch);
            run.attempted += 1;
            if let Some(e) = outcome.error {
                run.fail(e);
            }
        }
        Ok(Fleet {
            workload,
            daemon,
            store,
            // The list is a pure prefix-stable function of the seed; a
            // phase takes as many draws as its clock allows.
            // `fleet-open` sends release versions only (README: an open
            // loop under version churn could not be made steady).
            sessions: gen::sessions(run.seed, 1 << 16)
                .into_iter()
                .map(|s| Session {
                    variant: s.variant.filter(|_| workload == Workload::FleetClosed),
                    ..s
                })
                .collect(),
            next: 0,
        })
    }

    pub fn run_phase(&mut self, run: &mut Run, phase: &Phase) -> PhaseResult {
        let before = weseer_obs::snapshot();
        let epoch = Instant::now();
        let (outcomes, spans, backlog_end) = match self.workload {
            Workload::FleetOpen => self.open_loop(run, phase, epoch),
            _ => self.closed_loop(run, phase, epoch),
        };
        let delta = weseer_obs::snapshot().delta_since(&before);

        let mut out = PhaseResult {
            spans,
            ..PhaseResult::default()
        };
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut ok: Vec<&Outcome> = Vec::new();
        for o in &outcomes {
            run.attempted += 1;
            match &o.error {
                Some(e) => run.fail(format!("{:?}: {e}", o.session)),
                None => ok.push(o),
            }
        }
        out.wall_ms = ok.iter().map(|o| ms(o.timing.latency())).collect();
        out.analysis_ms = out.wall_ms.clone();
        out.first_verdict_ms = ok
            .iter()
            .map(|o| ms(o.timing.first_verdict_latency()))
            .collect();
        out.verdicts = ok.iter().map(|o| o.verdicts).sum();
        let last_done = outcomes.iter().map(|o| o.timing.done).max().unwrap_or(0);
        out.busy_s = last_done as f64 / 1e9;
        if !phase.traced {
            return out;
        }

        for (i, o) in outcomes.iter().enumerate() {
            let t = &o.timing;
            out.trace_lines.push_str(&format!(
                "{{\"type\":\"session\",\"n\":{i},\"app\":\"{}\",\"version\":\"{}\",\"ok\":{},\"due_ns\":{},\"send_start_ns\":{},\"finish_ns\":{},\"first_verdict_ns\":{},\"done_ns\":{},\"service_ns\":{},\"verdicts\":{}}}\n",
                o.session.app.name(),
                o.session.variant.map_or("none".to_string(), |k| format!("f{}", k + 1)),
                o.error.is_none(),
                t.due,
                t.send_start,
                t.finished,
                t.first_verdict,
                t.done,
                t.service,
                o.verdicts
            ));
        }
        let col = |f: &dyn Fn(&SessionTiming) -> f64| -> Vec<f64> {
            ok.iter().map(|o| f(&o.timing)).collect()
        };
        let service = col(&|t| ms(t.service));
        let queue = col(&|t| t.queue() as f64 / 1e6);
        let mut v = layers::additive(&delta);
        let n = ok.len().max(1) as f64;
        for x in v.values_mut() {
            *x /= n;
        }
        v.insert(
            "serve.send_wait_ms_p90",
            percentile(&col(&|t| ms(t.send_blocked)), 90.0),
        );
        v.insert("serve.service_ms_p50", median(&service));
        v.insert("serve.service_ms_p90", percentile(&service, 90.0));
        v.insert("serve.queue_ms_p50", median(&queue));
        v.insert("serve.queue_ms_p90", percentile(&queue, 90.0));
        v.insert(
            "serve.stream_spread_ms_p50",
            median(&col(&|t| ms(t.stream_spread()))),
        );
        v.insert(
            "serve.generator_lag_ms_p90",
            percentile(&col(&|t| ms(t.generator_lag())), 90.0),
        );
        v.insert("serve.backlog_end", backlog_end as f64);
        v.insert("serve.sessions_sent", outcomes.len() as f64);
        v.insert("serve.sessions_ok", ok.len() as f64);
        v.insert("serve.sessions_failed", (outcomes.len() - ok.len()) as f64);
        // A failed or refused session misses the limit by definition.
        let within = ok.iter().filter(|o| o.timing.latency() <= SLO_NS).count();
        v.insert(
            "serve.slo_share",
            within as f64 / outcomes.len().max(1) as f64,
        );
        v.insert("serve.shard_task_skew", shard_stats(&self.daemon).0);
        let depth = outcomes.iter().map(|o| o.timing.shard_depth).max();
        v.insert("serve.shard_queue_depth_max", depth.unwrap_or(0) as f64);
        out.layer = v;
        out
    }

    /// Open loop: one generator thread sends on schedule, one receiver
    /// thread drains replies in order (one analysis worker = FIFO).
    fn open_loop(
        &mut self,
        run: &Run,
        phase: &Phase,
        epoch: Instant,
    ) -> (Vec<Outcome>, Vec<Span>, usize) {
        let n = ((phase.seconds * OPEN_RATE_HZ as f64).round() as usize).max(1);
        let first = self.next;
        self.next += n;
        let sessions = &self.sessions[first..first + n];
        let base_due = sessions[0].due_ns;
        let daemon = &self.daemon;
        let done = AtomicUsize::new(0);
        let (tx, rx) = channel();
        let traced = phase.traced;
        let golden = &run.golden;
        let run_epoch = run.epoch;
        std::thread::scope(|scope| {
            let done = &done;
            let generator = scope.spawn(move || {
                let mut rec = Recorder::new(run_epoch, traced);
                let mut backlog = 0;
                for (i, session) in sessions.iter().enumerate() {
                    let id = (first + i) as u64;
                    let traces = rec.span("concolic.collect", id, |_| collect(session));
                    let due = session.due_ns - base_due;
                    let wait = Duration::from_nanos(due).saturating_sub(epoch.elapsed());
                    std::thread::sleep(wait);
                    if i + 1 == n {
                        backlog = i - done.load(Ordering::SeqCst);
                    }
                    let (t, events) = send(daemon, &mut rec, id, session, traces, epoch, due);
                    if tx.send((id, *session, t, events)).is_err() {
                        break;
                    }
                }
                (rec.into_spans(), backlog)
            });
            let receiver = scope.spawn(move || {
                let mut rec = Recorder::new(run_epoch, traced);
                let mut outcomes = Vec::with_capacity(n);
                for (id, session, t, events) in rx {
                    outcomes.push(drain(golden, &mut rec, id, session, t, events, epoch));
                    done.fetch_add(1, Ordering::SeqCst);
                }
                (outcomes, rec.into_spans())
            });
            let (mut spans, backlog) = generator.join().expect("generator thread panicked");
            let (outcomes, more) = receiver.join().expect("receiver thread panicked");
            spans.extend(more);
            (outcomes, spans, backlog)
        })
    }

    /// Closed loop: each client takes the next session of the shared list,
    /// sends it, and waits for its `Done` before taking another.
    fn closed_loop(
        &mut self,
        run: &Run,
        phase: &Phase,
        epoch: Instant,
    ) -> (Vec<Outcome>, Vec<Span>, usize) {
        let next = AtomicUsize::new(self.next);
        let sessions = &self.sessions;
        let daemon = &self.daemon;
        let traced = phase.traced;
        let golden = &run.golden;
        let run_epoch = run.epoch;
        let seconds = phase.seconds;
        let (outcomes, spans) = std::thread::scope(|scope| {
            let next = &next;
            let clients: Vec<_> = (0..CLOSED_CLIENTS)
                .map(|_| {
                    scope.spawn(move || {
                        let mut rec = Recorder::new(run_epoch, traced);
                        let mut outcomes = Vec::new();
                        while epoch.elapsed().as_secs_f64() < seconds {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            let session = sessions[i % sessions.len()];
                            let id = i as u64;
                            let traces = rec.span("concolic.collect", id, |_| collect(&session));
                            let due = epoch.elapsed().as_nanos() as u64;
                            let (t, events) =
                                send(daemon, &mut rec, id, &session, traces, epoch, due);
                            outcomes.push(drain(golden, &mut rec, id, session, t, events, epoch));
                        }
                        (outcomes, rec.into_spans())
                    })
                })
                .collect();
            let mut outcomes = Vec::new();
            let mut spans = Vec::new();
            for c in clients {
                let (o, s) = c.join().expect("client thread panicked");
                outcomes.extend(o);
                spans.extend(s);
            }
            (outcomes, spans)
        });
        self.next = next.load(Ordering::SeqCst);
        (outcomes, spans, 0)
    }

    pub fn store_files(&self) -> Vec<PathBuf> {
        vec![self.store.clone()]
    }

    /// Drain and stop the daemon's threads.
    pub fn shut_down(self) {
        self.daemon.shutdown();
    }
}

/// `(task skew, deepest queue)` over the shards, from the daemon's own
/// `/shards` body: skew = busiest shard's task count ÷ the mean.
fn shard_stats(daemon: &Daemon) -> (f64, i64) {
    let Ok(body) = Json::parse(shards_json(daemon).trim()) else {
        return (0.0, 0);
    };
    let shards = body.get("per_shard").and_then(Json::as_arr).unwrap_or(&[]);
    let tasks: Vec<f64> = shards
        .iter()
        .filter_map(|s| s.get("tasks")?.as_u64())
        .map(|t| t as f64)
        .collect();
    let depth = shards
        .iter()
        .filter_map(|s| s.get("queue_depth")?.as_i64())
        .max()
        .unwrap_or(0);
    let mean = crate::stats::mean(&tasks);
    let skew = if mean > 0.0 {
        tasks.iter().cloned().fold(0.0, f64::max) / mean
    } else {
        0.0
    };
    (skew, depth)
}
