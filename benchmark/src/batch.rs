//! The four batch workloads: `cold-broadleaf`, `cold-shopizer`, `warm`,
//! `edit-one`. One *analysis* is one app version's trace set taken from
//! submission to its last verdict made visible: open the store, analyze
//! (collect → diagnose → replay → flush), render every report and every
//! replay verdict. One timed *operation* is one pass over the workload's
//! inputs: one analysis (cold), both apps (warm), all 13 edits (edit-one).

use crate::gen::{self, App};
use crate::golden;
use crate::layers;
use crate::metrics::{Values, Workload};
use crate::spans::{self, Recorder};
use crate::{Phase, PhaseResult, Run, ANALYZER_THREADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use weseer_apps::{Broadleaf, ECommerceApp, Shopizer};
use weseer_core::{AppAnalysis, Weseer};

pub fn app_of(app: App) -> &'static dyn ECommerceApp {
    match app {
        App::Broadleaf => &Broadleaf,
        App::Shopizer => &Shopizer,
    }
}

/// Everything a caller can see of one analysis: each report as the CLI
/// prints it, then each replay verdict (the witness line, or the tag when
/// there is no witness). Returns the text and the instant the first report
/// was rendered.
pub fn render(a: &AppAnalysis) -> (String, Instant) {
    let mut out = String::new();
    let mut first = None;
    for r in &a.diagnosis.deadlocks {
        let _ = write!(out, "{r}");
        first.get_or_insert_with(Instant::now);
    }
    for v in a.replay.iter().flat_map(|r| &r.verdicts) {
        match v.witness() {
            Some(w) => out.push_str(&w.to_json()),
            None => out.push_str(v.tag()),
        }
        out.push('\n');
    }
    (out, first.unwrap_or_else(Instant::now))
}

/// One timed analysis.
pub struct Analysis {
    pub wall_ns: u64,
    pub first_verdict_ns: u64,
    pub open_ns: u64,
    pub render_ns: u64,
    pub reports: usize,
    /// Additive layer values from the analysis's own obs delta (empty
    /// while obs is disabled).
    pub layer: Values,
}

/// Run one analysis of `app` against the store at `store`, check its
/// output, and account for it in `run`. `dirty` marks one API as edited.
/// A panic inside the program is a failed analysis, not a dead benchmark.
pub fn analyze(
    run: &mut Run,
    rec: &mut Recorder,
    app: App,
    store: &Path,
    dirty: Option<&str>,
) -> Option<Analysis> {
    let id = run.attempted;
    run.attempted += 1;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rec.span("analysis", id, |rec| {
            let t0 = Instant::now();
            let weseer = rec.span("store.open", id, |_| {
                Weseer::new()
                    .with_threads(ANALYZER_THREADS)
                    .with_replay()
                    .with_store(store)
            });
            let mut weseer = weseer.map_err(|e| format!("{}: {e}", store.display()))?;
            let open_ns = t0.elapsed().as_nanos() as u64;
            if let Some(api) = dirty {
                weseer = weseer.with_dirty(api);
            }
            let analysis = rec.span("core.analyze", id, |_| weseer.analyze(app_of(app)));
            let analyzed = Instant::now();
            let (text, first) = rec.span("core.render", id, |_| render(&analysis));
            let wall_ns = t0.elapsed().as_nanos() as u64;
            Ok::<_, String>((
                Analysis {
                    wall_ns,
                    first_verdict_ns: (first - t0).as_nanos() as u64,
                    open_ns,
                    render_ns: analyzed.elapsed().as_nanos() as u64,
                    reports: analysis.diagnosis.deadlocks.len(),
                    layer: layers::additive(&analysis.metrics),
                },
                text,
                analysis,
            ))
        })
    }));
    let checked = match outcome {
        Err(_) => Err(format!("{} analysis panicked", app.name())),
        Ok(Err(e)) => Err(e),
        Ok(Ok((timed, text, analysis))) => run
            .golden
            .check(&golden::batch_key(app), &text)
            .and_then(|()| golden::check_known(app, &analysis))
            .map(|()| timed),
    };
    match checked {
        Ok(timed) => Some(timed),
        Err(e) => {
            run.fail(e);
            None
        }
    }
}

/// Harness-side parts of an analysis joined with its obs-side parts, and
/// the conservation check: collect + diagnose + replay + open + render
/// must explain the wall but for `core.other_ms`.
fn close_books(run: &mut Run, a: &mut Analysis, gate: bool) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let wall = ms(a.wall_ns);
    a.layer.insert("store.open_ms", ms(a.open_ns));
    a.layer.insert("core.render_ms", ms(a.render_ns));
    let parts = [
        a.layer["concolic.collect_ms"],
        a.layer["analyzer.diagnose_ms"],
        a.layer["replay.ms"],
        ms(a.open_ns),
        ms(a.render_ns),
    ];
    let other = wall - parts.iter().sum::<f64>();
    a.layer.insert("core.other_ms", other);
    a.layer.insert("core.other_share", other / wall);
    if let (true, Err(gap)) = (gate, spans::check_conservation(wall, &parts, OTHER_LIMIT)) {
        run.fail(format!(
            "conservation: {:.1} % of a {wall:.1} ms analysis is unexplained (limit {:.0} %)",
            gap * 100.0,
            OTHER_LIMIT * 100.0
        ));
    }
}

/// Largest share of a cold analysis that may fall outside the five named
/// parts (flush, classification, the baseline `coarse_cycle_count`).
const OTHER_LIMIT: f64 = 0.05;

/// A phase may run this much past its `--seconds` to finish the operation
/// it is in.
const OVERRUN: f64 = 1.15;

/// State a batch workload carries from set-up into its timed phases.
pub struct Batch {
    workload: Workload,
    dir: PathBuf,
    /// `edit-one`: the edit order, one inner list per permutation.
    edits: Vec<Vec<(App, usize)>>,
    next_perm: usize,
}

fn store_path(dir: &Path, app: App, role: &str) -> PathBuf {
    dir.join(format!("{}-{role}.jsonl", app.name()))
}

fn apps_of(workload: Workload) -> &'static [App] {
    match workload {
        Workload::ColdBroadleaf => &[App::Broadleaf],
        Workload::ColdShopizer => &[App::Shopizer],
        _ => &App::ALL,
    }
}

impl Batch {
    /// One set-up: an analysis of each of the workload's apps against an
    /// empty store file. For the cold workloads that is the warm-up
    /// iteration; for `warm` and `edit-one` it also fills the pristine
    /// store the timed phase reads. Checked like any other analysis.
    pub fn set_up(run: &mut Run, workload: Workload) -> Batch {
        let dir = run.dir.clone();
        let mut rec = Recorder::new(run.epoch, false);
        for &app in apps_of(workload) {
            let pristine = store_path(&dir, app, "pristine");
            let _ = std::fs::remove_file(&pristine);
            analyze(run, &mut rec, app, &pristine, None);
            if workload == Workload::Warm {
                // Let the warm path itself warm up (page cache, allocator).
                for _ in 0..3 {
                    analyze(run, &mut rec, app, &pristine, None);
                }
            }
        }
        let apis = App::ALL.map(|a| app_of(a).unit_tests().len());
        Batch {
            workload,
            dir,
            // More permutations than any run can reach; the order beyond
            // the ones a run uses costs nothing.
            edits: gen::edit_order(run.seed, 64, apis),
            next_perm: 0,
        }
    }

    /// The analyses of the next operation — one pass over the workload's
    /// inputs — as `(app, edited API)`: one cold analysis; both apps warm;
    /// or every one of the 13 sites edited once, in seeded order.
    fn next_pass(&mut self) -> Vec<(App, Option<&'static str>)> {
        match self.workload {
            Workload::EditOne => {
                let perm = &self.edits[self.next_perm % self.edits.len()];
                self.next_perm += 1;
                perm.iter()
                    .map(|&(app, api)| (app, Some(app_of(app).unit_tests()[api])))
                    .collect()
            }
            w => apps_of(w).iter().map(|&app| (app, None)).collect(),
        }
    }

    /// The store an analysis of the timed phase runs against, made ready
    /// (untimed): an empty file for a cold analysis, the pristine store
    /// itself for a warm one, a byte copy of it for an edit.
    fn stage_store(&self, app: App) -> std::io::Result<PathBuf> {
        let pristine = store_path(&self.dir, app, "pristine");
        let scratch = store_path(&self.dir, app, "scratch");
        match self.workload {
            Workload::Warm => return Ok(pristine),
            Workload::EditOne => std::fs::copy(&pristine, &scratch).map(|_| ())?,
            _ => match std::fs::remove_file(&scratch) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            },
        }
        Ok(scratch)
    }

    /// Run timed operations for about `phase.seconds` (at least one; an
    /// operation is never cut short, so what it adds up to does not depend
    /// on where the clock ran out).
    pub fn run_phase(&mut self, run: &mut Run, phase: &Phase) -> PhaseResult {
        let mut rec = Recorder::new(run.epoch, phase.traced);
        let mut out = PhaseResult::default();
        let mut ops: Vec<Values> = Vec::new();
        let started = Instant::now();
        let mut laps = 0.0;
        loop {
            // Another operation only if it is likely to end by the
            // deadline (or shortly after): an `edit-one` pass takes
            // seconds, and a run must not outlast its budget by one.
            let elapsed = started.elapsed().as_secs_f64();
            if laps > 0.0 && elapsed + elapsed / laps > phase.seconds * OVERRUN {
                break;
            }
            laps += 1.0;
            let pass = self.next_pass();
            let mut done = Vec::with_capacity(pass.len());
            for &(app, dirty) in &pass {
                match self.stage_store(app) {
                    Ok(store) => done.extend(analyze(run, &mut rec, app, &store, dirty)),
                    Err(e) => {
                        run.attempted += 1;
                        run.fail(format!("stage {} store: {e}", app.name()));
                    }
                }
            }
            // A pass with a failed analysis is counted as failed above and
            // left out of the timings.
            if done.len() == pass.len() {
                self.record(run, phase, &mut out, &mut ops, done);
            }
        }
        out.layer = layers::median_of(&ops);
        out.spans = rec.into_spans();
        out
    }

    /// Book one operation made of `parts` analyses.
    fn record(
        &self,
        run: &mut Run,
        phase: &Phase,
        out: &mut PhaseResult,
        ops: &mut Vec<Values>,
        mut parts: Vec<Analysis>,
    ) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let wall: u64 = parts.iter().map(|a| a.wall_ns).sum();
        out.wall_ms.push(ms(wall));
        out.analysis_ms.extend(parts.iter().map(|a| ms(a.wall_ns)));
        out.first_verdict_ms
            .extend(parts.iter().map(|a| ms(a.first_verdict_ns)));
        out.busy_s += wall as f64 / 1e9;
        out.verdicts += parts.iter().map(|a| a.reports).sum::<usize>();
        if phase.traced {
            let gate = matches!(
                self.workload,
                Workload::ColdBroadleaf | Workload::ColdShopizer
            );
            let mut op = Values::new();
            for a in &mut parts {
                close_books(run, a, gate);
                for (k, v) in &a.layer {
                    *op.entry(k).or_insert(0.0) += v;
                }
            }
            // A share does not add up over a pass; recompute it.
            op.insert("core.other_share", op["core.other_ms"] / ms(wall));
            ops.push(op);
        }
    }

    /// Store files the direct probes read their entries from.
    pub fn store_files(&self) -> Vec<PathBuf> {
        let role = match self.workload {
            Workload::Warm | Workload::EditOne => "pristine",
            _ => "scratch",
        };
        apps_of(self.workload)
            .iter()
            .map(|&app| store_path(&self.dir, app, role))
            .collect()
    }

    pub fn apps(&self) -> &'static [App] {
        apps_of(self.workload)
    }
}
