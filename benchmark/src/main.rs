//! `bench` — the repo's one benchmark.
//!
//! ```text
//! bench [run] --workload W --seed N --seconds S --trace 0|1
//!             [--setups K] [--out FILE]
//! bench golden [--write]        compare / regenerate golden/expected.txt
//! bench manifest               print BENCHMARK.json from the metric tables
//! bench calibrate [--sets N]    run N end-to-end sets, derive the bounds
//! bench compare A.jsonl B.jsonl apply the bounds to two result files
//! bench table FILE.jsonl        pretty-print a result file
//! ```
//!
//! A run prints one JSON object as the last line of standard output:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1` — and
//! exits non-zero if any analysis failed its checks.

mod batch;
mod fleet;
mod gen;
mod golden;
mod layers;
mod metrics;
mod probes;
mod spans;
mod stats;
mod tools;

use golden::Golden;
use metrics::{Values, Workload, END_TO_END, PER_LAYER};
use spans::Span;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Worker threads of every batch analysis (`Weseer::with_threads`).
pub const ANALYZER_THREADS: usize = 2;

/// Everything one invocation carries around.
pub struct Run {
    pub seed: u64,
    pub epoch: Instant,
    /// Scratch directory under `benchmark/out/`, removed at the end.
    pub dir: PathBuf,
    pub golden: Golden,
    /// Analyses attempted (timed, warm-up and set-up alike) and failed.
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Run {
    /// Count one failed analysis; the first few reasons go to stderr.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            eprintln!("FAILED: {why}");
            self.failures.push(why);
        }
    }
}

/// One measured stretch of a run.
pub struct Phase {
    pub seconds: f64,
    /// `weseer_obs` enabled and harness spans recorded.
    pub traced: bool,
}

#[derive(Default)]
pub struct PhaseResult {
    /// Wall per operation (a batch pass, a fleet session), milliseconds.
    pub wall_ms: Vec<f64>,
    /// Wall and time to first verdict per analysis, milliseconds.
    pub analysis_ms: Vec<f64>,
    pub first_verdict_ms: Vec<f64>,
    /// Deadlock reports rendered (batch) or received (fleet).
    pub verdicts: usize,
    /// The phase's timed wall: sum of operation walls (batch; the untimed
    /// store resets between them excluded) or first due → last `Done`.
    pub busy_s: f64,
    /// Per-layer values (traced phases only).
    pub layer: Values,
    pub spans: Vec<Span>,
    /// Extra JSON lines for the trace file (fleet: one per session).
    pub trace_lines: String,
}

enum State {
    Batch(batch::Batch),
    Fleet(fleet::Fleet),
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// How often set-up runs; `setup_s` is the median. The smoke run does
    /// it once (a set-up costs as much as its whole measurement).
    setups: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (11u64, 10.0f64, false, None);
    let mut setups = 3;
    let mut it = args
        .iter()
        .skip(usize::from(args.first().is_some_and(|a| a == "run")));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 60]"));
                }
            }
            "--trace" => trace = value == "1",
            "--setups" => {
                setups = value
                    .parse()
                    .map_err(|_| format!("bad --setups {value:?}"))?;
                if !(1..=9).contains(&setups) {
                    return Err(format!("--setups {setups} is outside 1..=9"));
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
        setups,
        out,
    })
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn machine_json(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"analyzer_threads\":{ANALYZER_THREADS},\"shards\":{},\"workers\":{},\"closed_clients\":{},\"open_rate_hz\":{},\"profile\":\"{}\",\"git_rev\":\"{rev}\",\"seed\":{},\"seconds\":{}}}",
        fleet::SHARDS,
        fleet::WORKERS,
        fleet::CLOSED_CLIENTS,
        gen::OPEN_RATE_HZ,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        a.seed,
        a.seconds
    )
}

/// One run in a scratch directory of its own, removed whatever happens.
fn run_workload(a: &Args) -> Result<ExitCode, String> {
    let dir = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = measure(a, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn measure(a: &Args, dir: &std::path::Path) -> Result<ExitCode, String> {
    let epoch = Instant::now();
    let mut run = Run {
        seed: a.seed,
        epoch,
        dir: dir.to_path_buf(),
        golden: Golden::load()?,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    weseer_obs::set_enabled(false);

    // Set-up, several times over; the last one's state is measured.
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..a.setups {
        if let Some(State::Fleet(f)) = state.take() {
            f.shut_down();
        }
        let t = Instant::now();
        state = Some(if a.workload.is_fleet() {
            State::Fleet(fleet::Fleet::set_up(&mut run, a.workload)?)
        } else {
            State::Batch(batch::Batch::set_up(&mut run, a.workload))
        });
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("set-up ran");

    // `--trace 0`: one untraced phase. `--trace 1`: half the time
    // untraced — the baseline the tracing overhead is taken against, in
    // the same process — then half traced.
    let phases: &[Phase] = if a.trace {
        &[
            Phase {
                seconds: a.seconds / 2.0,
                traced: false,
            },
            Phase {
                seconds: a.seconds / 2.0,
                traced: true,
            },
        ]
    } else {
        &[Phase {
            seconds: a.seconds,
            traced: false,
        }]
    };
    let mut results = Vec::new();
    for phase in phases {
        weseer_obs::set_enabled(phase.traced);
        let before = weseer_obs::snapshot();
        let mut r = match &mut state {
            State::Batch(b) => b.run_phase(&mut run, phase),
            State::Fleet(f) => f.run_phase(&mut run, phase),
        };
        if phase.traced {
            let delta = weseer_obs::snapshot().delta_since(&before);
            layers::distributions(&delta, &mut r.layer);
        }
        weseer_obs::set_enabled(false);
        results.push(r);
    }

    let values = if a.trace {
        let mut v = std::mem::take(&mut results[1].layer);
        let (base, traced) = (&results[0], &results[1]);
        let threads = if a.workload.is_fleet() {
            fleet::SHARDS
        } else {
            ANALYZER_THREADS
        };
        layers::derive(&mut v, threads as f64);
        let (apps, files): (&[gen::App], _) = match &state {
            State::Batch(b) => (b.apps(), b.store_files()),
            State::Fleet(f) => (&gen::App::ALL, f.store_files()),
        };
        probes::run(apps, &files, dir, a.workload.is_fleet(), &mut v);
        let p50 = stats::median(&traced.wall_ms);
        let untraced = stats::median(&base.wall_ms);
        if untraced > 0.0 {
            v.insert("obs.trace_overhead_pct", (p50 / untraced - 1.0) * 100.0);
        }
        if let Some(p) = stats::supported_tail(traced.wall_ms.len()) {
            v.insert(
                "bench.wall_ms_tail",
                stats::percentile(&traced.wall_ms, p as f64),
            );
            v.insert("bench.wall_tail_pct", p as f64);
        }
        v.insert("bench.samples", traced.wall_ms.len() as f64);
        v.insert("bench.analysis_ms_p50", stats::median(&traced.analysis_ms));
        v.insert(
            "bench.analysis_ms_max",
            stats::percentile(&traced.analysis_ms, 100.0),
        );
        v.insert(
            "bench.first_verdict_ms_p50",
            stats::median(&traced.first_verdict_ms),
        );
        let trace_file = out_dir().join(format!("trace-{}.jsonl", a.workload.name()));
        let mut text = spans::to_json_lines(&traced.spans);
        text.push_str(&traced.trace_lines);
        for (name, ns) in spans::self_time_by_name(&traced.spans) {
            text.push_str(&format!(
                "{{\"type\":\"self_time\",\"name\":\"{name}\",\"self_ns\":{ns}}}\n"
            ));
        }
        text.push_str(&format!(
            "{{\"type\":\"layers\",\"metrics\":{}}}\n",
            metrics::metrics_json(PER_LAYER, &v)
        ));
        std::fs::write(&trace_file, text).map_err(|e| format!("{}: {e}", trace_file.display()))?;
        v
    } else {
        let r = &results[0];
        Values::from([
            ("wall_ms_p50", stats::median(&r.wall_ms)),
            (
                "verdicts_per_s",
                if r.busy_s > 0.0 {
                    r.verdicts as f64 / r.busy_s
                } else {
                    0.0
                },
            ),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", stats::median(&setup_s)),
        ])
    };

    if let State::Fleet(f) = state {
        f.shut_down();
    }

    let samples: usize = results.iter().map(|r| r.wall_ms.len()).sum();
    let correct = run.failed == 0 && samples > 0;
    let table = if a.trace { PER_LAYER } else { END_TO_END };
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.attempted.max(1),
        run.failed,
        metrics::metrics_json(table, &values)
    );
    eprintln!(
        "{}: {} analyses attempted, {} failed, {samples} timed operations, set-up {:?} s, total {:.1} s",
        a.workload.name(),
        run.attempted,
        run.failed,
        setup_s,
        epoch.elapsed().as_secs_f64()
    );
    for r in results.iter().filter(|r| r.wall_ms.len() <= 40) {
        let walls: Vec<String> = r.wall_ms.iter().map(|w| format!("{w:.0}")).collect();
        eprintln!("  operation walls (ms): {}", walls.join(" "));
    }
    if let Some(path) = &a.out {
        use std::io::Write as _;
        let line = format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"machine\":{},\"result\":{result}}}\n",
            a.workload.name(),
            a.trace as u8,
            machine_json(a)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("golden") => tools::golden(args.get(1).is_some_and(|a| a == "--write")),
        Some("manifest") => tools::manifest(),
        Some("calibrate") => tools::calibrate(&args[1..]),
        Some("compare") => tools::compare(&args[1..]),
        Some("table") => tools::table(&args[1..]),
        _ => parse_args(&args).and_then(|a| run_workload(&a)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::from(2)
    })
}
