//! The three-phase deadlock diagnosis (paper Sec. V-B, Fig. 5), staged as
//! a deterministic parallel pipeline.
//!
//! Every collected trace is analyzed as **two concurrent instances** of the
//! same API (and against every other trace), mirroring the paper's setup.
//!
//! * **Transaction-level phase** — [`crate::pairs::generate_pairs`] builds
//!   the table-level conflict graph once and yields only transaction pairs
//!   that write a commonly accessed table (conflict-cycle filter);
//! * **Coarse-grained phase** — `scan_pair` enumerates SC-graph deadlock
//!   cycles per pair: A holds the lock of an earlier statement that
//!   conflicts with B's later statement and vice versa (table-level
//!   C-edges);
//! * **Fine-grained phase** — `fine_check_pair` models locks (Alg. 2),
//!   requires a potentially conflicting lock pair per C-edge, generates
//!   conflict conditions (Alg. 3), conjoins with both instances' path
//!   conditions up to the waiting statements, and asks the pair's
//!   persistent SMT solver. SAT ⇒ deadlock reported with a witness model.
//!
//! There is one driver, [`diagnose_with`]: the persistent store and the
//! ordered report sink are its optional parameters, and [`diagnose`] is
//! the call with neither.
//!
//! ## Determinism under parallelism
//!
//! Phases 2 and 3 are *pure* per-pair functions — `(job, &PairCtx) ->
//! outcome` with no `&mut` threading — fanned out by
//! [`crate::schedule::run_ordered`] and reduced in canonical pair order
//! inside its in-order `on_ready` sweep. The cross-pair `seen` dedup
//! (which decides what reaches the solver), the `max_reports` truncation
//! and the report sink run only in those ordered sweeps, and every pair
//! owns its solver, so reports, the sink sequence and funnel counters are
//! bit-identical for any `threads` setting — and a streaming caller sees
//! exactly the bytes a batch caller collects.

use crate::encode::{gen_conflict_cond, Importer, Side};
use crate::locks::{gen_exclusive_locks, gen_shared_locks, potential_conflict};
use crate::pairs::{generate_pairs, PairJob};
use crate::prefix::PrefixTable;
use crate::report::{CycleId, DeadlockReport, ReportedStatement};
use crate::schedule::{resolve_threads, run_ordered};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use weseer_concolic::{StmtRecord, Trace};
use weseer_smt::{Ctx, IncrementalSolver, Model, SolveResult, SolverConfig, TermId};
use weseer_sqlir::Catalog;
use weseer_store::{codec, json::Json, Lookup, Store};

/// Version tag of the fine-grained lock model (Alg. 2/3 as implemented).
/// Mixed into every persisted pair verdict's content key; bump it whenever
/// lock generation or conflict-condition encoding changes semantics, and
/// every stored phase-2/3 outcome misses at once.
pub const LOCK_MODEL_VERSION: &str = "lock-model-v1";

/// Persistence context for incremental analysis: an open [`Store`] plus
/// one content fingerprint per trace (`fingerprints[i]` describes
/// `traces[i]`; see `Trace::fingerprint`). A pair's stored outcome is
/// reused only while both fingerprints — and the analyzer/solver
/// configuration — are unchanged.
pub struct StoreCtx<'a> {
    /// The open store.
    pub store: &'a Store,
    /// Content fingerprint per trace, parallel to the trace slice.
    pub fingerprints: Vec<String>,
    /// Namespace prefixed onto every per-trace and per-pair site
    /// (typically the application name). Records are keyed by content, so
    /// two apps that reuse a site (both have a trace 0 called `Register`)
    /// keep one record each instead of overwriting each other. The
    /// namespace only separates apps whose catalogs differ: no fingerprint
    /// covers the schema, so equal traces over different catalogs would
    /// otherwise share verdicts.
    pub namespace: &'a str,
}

/// A trace together with the term context of the engine that produced it.
pub struct CollectedTrace {
    /// The runtime trace.
    pub trace: Trace,
    /// Term context holding the trace's symbolic expressions.
    pub ctx: Ctx,
}

impl CollectedTrace {
    /// Wrap a trace and its context.
    pub fn new(trace: Trace, ctx: Ctx) -> Self {
        CollectedTrace { trace, ctx }
    }

    /// The traced API name.
    pub fn api(&self) -> &str {
        &self.trace.api
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// SMT solver limits.
    pub solver: SolverConfig,
    /// Model range locks in conflict conditions (Alg. 3 lines 10–13).
    pub use_range_locks: bool,
    /// Skip the first two (filtering) phases and send every coarse cycle
    /// candidate straight to the SMT solver — the brute-force baseline of
    /// Sec. V-B, used by the ablation bench.
    pub skip_filter_phases: bool,
    /// Stop after this many confirmed reports.
    pub max_reports: usize,
    /// Worker threads for the pair scans and fine-grained checks. `0`
    /// (default) = auto: `WESEER_THREADS` if set, else
    /// `available_parallelism`. `1` runs everything inline on the calling
    /// thread. Output is identical for every setting.
    pub threads: usize,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            solver: SolverConfig::default(),
            use_range_locks: true,
            skip_filter_phases: false,
            max_reports: 10_000,
            threads: 0,
        }
    }
}

/// Diagnosis-wide counters and per-phase wall times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiagnosisStats {
    /// Transaction pairs examined.
    pub txn_pairs: usize,
    /// Pairs surviving the transaction-level phase.
    pub pairs_after_phase1: usize,
    /// Coarse-grained deadlock cycles found (phase 2).
    pub coarse_cycles: usize,
    /// Cycles whose C-edges had potentially conflicting locks (entering
    /// SMT).
    pub fine_candidates: usize,
    /// SMT SAT / UNSAT / Unknown outcomes.
    pub smt_sat: usize,
    /// SMT UNSAT outcomes.
    pub smt_unsat: usize,
    /// SMT timeouts.
    pub smt_unknown: usize,
    /// Wall time spent generating the phase-1 pair set.
    pub phase1_time: Duration,
    /// CPU time summed over the per-pair coarse cycle scans (phase 2) —
    /// for a pair restored from the store, the time the lookup took.
    pub phase2_time: Duration,
    /// CPU time summed over fine-grained lock modeling + SMT (phase 3),
    /// likewise the lookup time for restored verdicts.
    pub phase3_time: Duration,
}

impl DiagnosisStats {
    /// Publish the funnel counters and phase timings to the global
    /// [`weseer_obs`] registry (no-op while observability is disabled).
    pub fn publish(&self) {
        weseer_obs::add("analyzer.txn_pairs", self.txn_pairs as u64);
        weseer_obs::add(
            "analyzer.pairs_after_phase1",
            self.pairs_after_phase1 as u64,
        );
        weseer_obs::add("analyzer.coarse_cycles", self.coarse_cycles as u64);
        weseer_obs::add("analyzer.fine_candidates", self.fine_candidates as u64);
        weseer_obs::add("analyzer.smt_sat", self.smt_sat as u64);
        weseer_obs::add("analyzer.smt_unsat", self.smt_unsat as u64);
        weseer_obs::add("analyzer.smt_unknown", self.smt_unknown as u64);
        weseer_obs::add("analyzer.phase1_us", self.phase1_time.as_micros() as u64);
        weseer_obs::add("analyzer.phase2_us", self.phase2_time.as_micros() as u64);
        weseer_obs::add("analyzer.phase3_us", self.phase3_time.as_micros() as u64);
    }
}

/// The result of a diagnosis run.
#[derive(Debug)]
pub struct Diagnosis {
    /// Confirmed deadlocks.
    pub deadlocks: Vec<DeadlockReport>,
    /// Counters.
    pub stats: DiagnosisStats,
    /// The run stopped at [`AnalyzerConfig::max_reports`] with fine
    /// candidates left unexamined: `deadlocks` is a prefix of the full
    /// report list and the phase-3 counters cover only that prefix.
    pub truncated: bool,
}

/// Run WeSEER's deadlock analysis over a set of collected traces.
pub fn diagnose(
    catalog: &Catalog,
    traces: &[CollectedTrace],
    config: &AnalyzerConfig,
) -> Diagnosis {
    diagnose_with(catalog, traces, config, None, None)
}

/// The diagnosis driver with every optional collaborator spelled out:
///
/// * `store` — a persistent [`Store`] to consult and feed, so a warm run
///   over unchanged traces reuses every phase-2 scan and phase-3
///   verdict of the run that filled it. Pair generation and
///   the cross-pair dedup sweep always run live (they are cheap and keep
///   the funnel counters exact), and reports are rebuilt from the live
///   traces plus the stored model, so a warm diagnosis is byte-identical
///   to the cold one;
/// * `sink` — called with each confirmed report, in canonical order,
///   *while phase 3 is still running*: as soon as the completed prefix of
///   the cycle order reaches it. A daemon writes a line per call; a batch
///   caller just reads [`Diagnosis::deadlocks`], which holds the same
///   sequence.
pub fn diagnose_with(
    catalog: &Catalog,
    traces: &[CollectedTrace],
    config: &AnalyzerConfig,
    store: Option<&StoreCtx<'_>>,
    sink: Option<&mut dyn FnMut(&DeadlockReport)>,
) -> Diagnosis {
    let _span = weseer_obs::span("analyzer.diagnose");
    if let Some(sc) = store {
        assert_eq!(
            sc.fingerprints.len(),
            traces.len(),
            "one fingerprint per trace"
        );
    }
    let diagnosis = run_pipeline(catalog, traces, config, store, sink);
    diagnosis.stats.publish();
    weseer_obs::add(
        "analyzer.deadlocks_reported",
        diagnosis.deadlocks.len() as u64,
    );
    diagnosis
}

/// Count coarse-grained deadlock cycles only (the STEPDAD/REDACT baseline
/// of Sec. VII-B, which reports 18,384 hold-and-wait cycles on the paper's
/// workload): phase 1's pairs, each scanned by phase 2, on the default
/// worker pool.
/// No lock modeling, no SMT, and — unlike [`diagnose`] — no funnel
/// counters published.
pub fn coarse_cycle_count(traces: &[CollectedTrace]) -> usize {
    let jobs = generate_pairs(traces, false).jobs;
    let threads = resolve_threads(AnalyzerConfig::default().threads);
    run_ordered(
        &jobs,
        threads,
        |_, job| coarse_cycles(job, traces, false).len(),
        |_, _| {},
    )
    .into_iter()
    .sum()
}

/// Shared read-only context for the pure per-pair functions.
pub(crate) struct PairCtx<'a> {
    catalog: &'a Catalog,
    traces: &'a [CollectedTrace],
    config: &'a AnalyzerConfig,
    /// Per-trace pre-simplified path conditions.
    prefix: PrefixTable,
    /// SQL text per trace statement, rendered once (indexed by trace, then
    /// `StmtRecord::index - 1`) — cycle signatures are built in the hot
    /// loop and must not re-render templates per pair.
    stmt_sql: Vec<Vec<String>>,
    /// Incremental persistence, when the caller opened a store.
    store: Option<&'a StoreCtx<'a>>,
    /// Analyzer-level content tag mixed into every stored pair outcome:
    /// lock-model version + the config knobs that change verdicts.
    cfg_tag: String,
}

impl<'a> PairCtx<'a> {
    fn new(
        catalog: &'a Catalog,
        traces: &'a [CollectedTrace],
        config: &'a AnalyzerConfig,
        prefix: PrefixTable,
        store: Option<&'a StoreCtx<'a>>,
    ) -> Self {
        let stmt_sql = traces
            .iter()
            .map(|t| {
                let mut sql = vec![String::new(); t.trace.statements.len()];
                for rec in &t.trace.statements {
                    sql[rec.index - 1] = rec.stmt.to_string();
                }
                sql
            })
            .collect();
        PairCtx {
            catalog,
            traces,
            config,
            prefix,
            stmt_sql,
            store,
            cfg_tag: analyzer_tag(config),
        }
    }

    fn sql(&self, trace: usize, rec: &StmtRecord) -> &str {
        &self.stmt_sql[trace][rec.index - 1]
    }

    /// Stable *site* of a pair — where its stored outcomes live,
    /// independent of the traces' contents. Namespaced by application so
    /// apps with identically named traces don't overwrite each other's
    /// entries in a shared store.
    fn pair_site(&self, job: &PairJob) -> String {
        let ns = self.store.map(|sc| sc.namespace).unwrap_or("");
        format!(
            "{ns}|{}:{}#{}|{}:{}#{}",
            job.a,
            self.traces[job.a].api(),
            job.a_txn,
            job.b,
            self.traces[job.b].api(),
            job.b_txn
        )
    }

    /// Content key of a pair: both trace fingerprints + the config tag.
    fn pair_content(&self, sc: &StoreCtx<'_>, job: &PairJob) -> String {
        format!(
            "{}|{}|{}",
            sc.fingerprints[job.a], sc.fingerprints[job.b], self.cfg_tag
        )
    }
}

/// The analyzer configuration knobs that can change a pair's verdict or
/// report (deliberately excludes `max_reports` and `threads`, which only
/// affect truncation and scheduling).
fn analyzer_tag(config: &AnalyzerConfig) -> String {
    format!(
        "{LOCK_MODEL_VERSION}|range={}|skip={}|solver={:?}",
        config.use_range_locks, config.skip_filter_phases, config.solver
    )
}

/// One coarse SC-graph cycle found by [`scan_pair`], identified by the
/// positions of its four statements within the pair's transactions.
#[derive(Debug, Clone)]
pub(crate) struct CycleCandidate {
    /// Positions into `statements_of(a_txn)` / `statements_of(b_txn)`.
    ah: usize,
    aw: usize,
    bh: usize,
    bw: usize,
    /// C-edge tables: `t1` for a_hold↔b_wait, `t2` for b_hold↔a_wait.
    t1: Vec<String>,
    t2: Vec<String>,
}

/// Everything phase 2 produces for one pair.
pub(crate) struct PairOutcome {
    /// The pair's coarse cycles, in scan order: the fine-grained phase's
    /// candidates.
    cycles: Vec<CycleCandidate>,
    /// Wall time this pair cost phase 2 — the scan, or the store lookup
    /// that replaced it (summed into `phase2_time`).
    scan_time: Duration,
}

/// Phase 2, pure: enumerate the pair's coarse SC-graph deadlock cycles.
/// Behind a store, a hit restores the recorded scan; a miss scans live
/// and records the outcome.
pub(crate) fn scan_pair(job: &PairJob, ctx: &PairCtx<'_>) -> PairOutcome {
    let start = Instant::now();
    let stored = ctx
        .store
        .map(|sc| (sc, ctx.pair_site(job), ctx.pair_content(sc, job)));
    if let Some((sc, site, content)) = &stored {
        if let Lookup::Hit(v) = sc.store.get("pair2", site, content) {
            if let Some(mut out) = pair2_from_json(&v) {
                out.scan_time = start.elapsed();
                return out;
            }
        }
    }
    let mut out = PairOutcome {
        cycles: coarse_cycles(job, ctx.traces, ctx.config.skip_filter_phases),
        scan_time: Duration::ZERO,
    };
    if let Some((sc, site, content)) = &stored {
        sc.store.put("pair2", site, content, pair2_to_json(&out));
    }
    out.scan_time = start.elapsed();
    out
}

/// Enumerate the pair's coarse SC-graph deadlock cycles, in scan order.
/// With `skip_filter` (brute force) every hold-and-wait shape counts, C-edge
/// or not.
fn coarse_cycles(
    job: &PairJob,
    traces: &[CollectedTrace],
    skip_filter: bool,
) -> Vec<CycleCandidate> {
    let same_instance = job.same_instance();
    let mut cycles = Vec::new();
    let stmts_a = traces[job.a].trace.statements_of(job.a_txn);
    let stmts_b = traces[job.b].trace.statements_of(job.b_txn);
    for (ah, a_hold) in stmts_a.iter().enumerate() {
        for (aw, a_wait) in stmts_a.iter().enumerate().skip(ah + 1) {
            for (bh, b_hold) in stmts_b.iter().enumerate() {
                for (bw, b_wait) in stmts_b.iter().enumerate().skip(bh + 1) {
                    if same_instance && (b_hold.index, b_wait.index) < (a_hold.index, a_wait.index)
                    {
                        continue; // symmetric duplicate
                    }
                    // C-edges at table granularity (unless brute force).
                    let t1 = conflict_tables(a_hold, b_wait);
                    let t2 = conflict_tables(b_hold, a_wait);
                    if !skip_filter && (t1.is_empty() || t2.is_empty()) {
                        continue;
                    }
                    cycles.push(CycleCandidate {
                        ah,
                        aw,
                        bh,
                        bw,
                        t1,
                        t2,
                    });
                }
            }
        }
    }
    cycles
}

fn pair2_to_json(out: &PairOutcome) -> Json {
    let cycles: Vec<Json> = out
        .cycles
        .iter()
        .map(|c| {
            Json::Arr(vec![
                Json::u64(c.ah as u64),
                Json::u64(c.aw as u64),
                Json::u64(c.bh as u64),
                Json::u64(c.bw as u64),
                Json::Arr(c.t1.iter().map(Json::str).collect()),
                Json::Arr(c.t2.iter().map(Json::str).collect()),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("coarse".into(), Json::u64(out.cycles.len() as u64)),
        ("cycles".into(), Json::Arr(cycles)),
    ])
}

/// Inverse of [`pair2_to_json`]. Fields it does not name are skipped, so
/// values written before wall times left the records (an extra `us`)
/// still decode.
fn pair2_from_json(v: &Json) -> Option<PairOutcome> {
    let strings = |j: &Json| -> Option<Vec<String>> {
        j.as_arr()?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect()
    };
    let mut cycles = Vec::new();
    for c in v.get("cycles")?.as_arr()? {
        let c = c.as_arr()?;
        cycles.push(CycleCandidate {
            ah: c.first()?.as_u64()? as usize,
            aw: c.get(1)?.as_u64()? as usize,
            bh: c.get(2)?.as_u64()? as usize,
            bw: c.get(3)?.as_u64()? as usize,
            t1: strings(c.get(4)?)?,
            t2: strings(c.get(5)?)?,
        });
    }
    Some(PairOutcome {
        cycles,
        scan_time: Duration::ZERO,
    })
}

/// A deduplicated cycle heading into the fine-grained phase.
pub(crate) struct FineJob {
    pair: PairJob,
    cand: CycleCandidate,
}

enum FineVerdict {
    /// No potentially conflicting lock pair on some C-edge — not a fine
    /// candidate, nothing dispatched to the solver.
    NoCandidate,
    Sat(Box<DeadlockReport>),
    Unsat,
    Unknown,
}

pub(crate) struct FineOutcome {
    verdict: FineVerdict,
    /// Wall time of this check, or of the store lookup that replaced it
    /// (summed into `phase3_time`).
    time: Duration,
}

/// Shared fine-phase state for one transaction pair: the destination
/// context every cycle formula is built in, the term importers for the
/// two instances (whose memo tables make re-imports of the shared path
/// conditions and lock variables free), and the persistent
/// assumption-based solver carrying Tseitin clauses, select-congruence
/// axioms, theory blocking clauses, and learned clauses across the
/// pair's cycles.
///
/// A session never outlives its pair. Sharing a solver across pairs
/// would make a verdict depend on which pairs a worker thread happened
/// to solve earlier, breaking the byte-identical-at-any-thread-count
/// guarantee; per-pair sessions keep cycle order (and therefore solver
/// state) canonical regardless of scheduling.
struct PairSession<'a> {
    dst: Ctx,
    imp_a: Importer<'a>,
    imp_b: Importer<'a>,
    /// Importers for the prefix table's pre-simplified conjuncts.
    pre_a: Importer<'a>,
    pre_b: Importer<'a>,
    solver: IncrementalSolver,
}

impl<'a> PairSession<'a> {
    fn new(pair: &PairJob, ctx: &'a PairCtx<'_>) -> PairSession<'a> {
        let a = &ctx.traces[pair.a];
        let b = &ctx.traces[pair.b];
        PairSession {
            dst: Ctx::new(),
            imp_a: Importer::new(&a.ctx, "A1."),
            imp_b: Importer::new(&b.ctx, "A2."),
            pre_a: Importer::new(&ctx.prefix.trace(pair.a).ctx, "A1."),
            pre_b: Importer::new(&ctx.prefix.trace(pair.b).ctx, "A2."),
            solver: IncrementalSolver::new(ctx.config.solver.clone()),
        }
    }
}

/// Lock modeling + conflict conditions + SMT for one cycle, against its
/// pair's session.
fn check_cycle(job: &FineJob, ctx: &PairCtx<'_>, sess: &mut PairSession<'_>) -> FineVerdict {
    let pair = &job.pair;
    let cand = &job.cand;
    let a = &ctx.traces[pair.a];
    let b = &ctx.traces[pair.b];
    let stmts_a = a.trace.statements_of(pair.a_txn);
    let stmts_b = b.trace.statements_of(pair.b_txn);
    let (a_hold, a_wait) = (stmts_a[cand.ah], stmts_a[cand.aw]);
    let (b_hold, b_wait) = (stmts_b[cand.bh], stmts_b[cand.bw]);
    let config = ctx.config;
    let dst = &mut sess.dst;

    // Edge 1: A's held lock (a_hold) blocks B's waiter (b_wait).
    let e1 = edge_condition(
        dst,
        ctx.catalog,
        a_hold,
        &mut sess.imp_a,
        b_wait,
        &mut sess.imp_b,
        &cand.t1,
        1,
        config,
    );
    // Edge 2: B's held lock blocks A's waiter.
    let e2 = edge_condition(
        dst,
        ctx.catalog,
        b_hold,
        &mut sess.imp_b,
        a_wait,
        &mut sess.imp_a,
        &cand.t2,
        2,
        config,
    );
    let (Some(e1), Some(e2)) = (e1, e2) else {
        return FineVerdict::NoCandidate; // no potentially conflicting lock pair
    };

    // Path conditions recorded before each instance's waiting statement.
    let mut parts = vec![e1, e2];
    // Generated identifiers from the same database sequence never collide:
    // assert pairwise disequality within and across the two instances.
    {
        let mut all: Vec<(String, TermId)> = Vec::new();
        for (g, t) in &a.trace.unique_ids {
            all.push((g.clone(), sess.imp_a.import(dst, *t)));
        }
        for (g, t) in &b.trace.unique_ids {
            all.push((g.clone(), sess.imp_b.import(dst, *t)));
        }
        for x in 0..all.len() {
            for y in (x + 1)..all.len() {
                if all[x].0 == all[y].0 && all[x].1 != all[y].1 {
                    let (tx, ty) = (all[x].1, all[y].1);
                    parts.push(dst.ne(tx, ty));
                }
            }
        }
    }
    // Import the pre-simplified path conditions from the prefix table's
    // context — variables unify with the edge conditions by prefixed
    // name, so the per-pair tier-0 pass only ever sees already-reduced
    // conjuncts. The session importers' memo tables mean every conjunct
    // is imported (and, inside the persistent solver, lowered) once per
    // *pair*, not once per cycle — later cycles only add their delta.
    let tp_a = ctx.prefix.trace(pair.a);
    let tp_b = ctx.prefix.trace(pair.b);
    for (pc, &s) in a.trace.path_conds.iter().zip(&tp_a.simplified) {
        if pc.seq < a_wait.seq {
            parts.push(sess.pre_a.import(dst, s));
        }
    }
    for (pc, &s) in b.trace.path_conds.iter().zip(&tp_b.simplified) {
        if pc.seq < b_wait.seq {
            parts.push(sess.pre_b.import(dst, s));
        }
    }
    let formula = dst.and(parts);

    // The whole formula rides on one assumption literal; shared structure
    // is already lowered and learned clauses from earlier cycles prune
    // this one's search.
    match sess.solver.check_tiered(dst, formula).0 {
        SolveResult::Sat(model) => FineVerdict::Sat(Box::new(build_report(job, ctx, model))),
        SolveResult::Unsat => FineVerdict::Unsat,
        SolveResult::Unknown => FineVerdict::Unknown,
    }
}

/// Assemble the developer-facing report for a SAT cycle. Shared between
/// the live solve path and the store's warm path (which persists only the
/// satisfying model and rebuilds everything else from the live traces),
/// so warm reports are byte-identical to cold ones by construction.
fn build_report(job: &FineJob, ctx: &PairCtx<'_>, model: Model) -> DeadlockReport {
    let pair = &job.pair;
    let cand = &job.cand;
    let a = &ctx.traces[pair.a];
    let b = &ctx.traces[pair.b];
    let stmts_a = a.trace.statements_of(pair.a_txn);
    let stmts_b = b.trace.statements_of(pair.b_txn);
    let (a_hold, a_wait) = (stmts_a[cand.ah], stmts_a[cand.aw]);
    let (b_hold, b_wait) = (stmts_b[cand.bh], stmts_b[cand.bw]);
    let statements = vec![
        reported(a_hold, "A1", &cand.t1),
        reported(a_wait, "A1", &cand.t2),
        reported(b_hold, "A2", &cand.t2),
        reported(b_wait, "A2", &cand.t1),
    ];
    let model_excerpt: Vec<(String, String)> = model
        .iter()
        .filter(|(name, _)| !name.contains('!'))
        .map(|(name, v)| (name.clone(), v.to_string()))
        .collect();
    DeadlockReport {
        cycle: CycleId {
            a_api: a.trace.api.clone(),
            b_api: b.trace.api.clone(),
            a_txn: pair.a_txn,
            b_txn: pair.b_txn,
            a_hold: a_hold.index,
            a_wait: a_wait.index,
            b_hold: b_hold.index,
            b_wait: b_wait.index,
        },
        statements,
        model: model_excerpt,
        sat_model: model,
    }
}

/// Store site of one fine-grained cycle check: the pair's site plus the
/// cycle's statement positions.
fn fine_site(ctx: &PairCtx<'_>, job: &FineJob) -> String {
    format!(
        "{}|{},{},{},{}",
        ctx.pair_site(&job.pair),
        job.cand.ah,
        job.cand.aw,
        job.cand.bh,
        job.cand.bw
    )
}

/// Phase 3, pure: every deduplicated cycle of one transaction pair, in
/// canonical order, against one shared [`PairSession`] (and thus one
/// persistent solver).
///
/// Behind a store the persisted value is just the verdict (plus the SAT
/// model) — reports are rebuilt through [`build_report`], never
/// deserialized, so a hit spends no SMT work at all and still reproduces
/// the cold report bytes. Replay is all-or-nothing per pair: a persistent
/// solver's answers depend on its query sequence, so replaying *some*
/// cycles from the store while solving the rest live would feed the
/// solver a different sequence than a cold run saw — and its verdict
/// bytes could drift. Either every cycle of the pair hits (replay them
/// all, no solver is built), or all of them are solved live and
/// re-persisted.
pub(crate) fn fine_check_pair(jobs: &[FineJob], ctx: &PairCtx<'_>) -> Vec<FineOutcome> {
    let stored = ctx
        .store
        .map(|sc| (sc, ctx.pair_content(sc, &jobs[0].pair)));
    if let Some((sc, content)) = &stored {
        // Look up every cycle eagerly (no short-circuit: each lookup must
        // register its hit or miss), then replay only if the *whole* group
        // hit.
        let replayed: Vec<Option<FineOutcome>> = jobs
            .iter()
            .map(|job| {
                let start = Instant::now();
                let verdict = match sc.store.get("pair3", &fine_site(ctx, job), content) {
                    Lookup::Hit(v) => fine_from_json(job, ctx, &v),
                    Lookup::Miss => None,
                }?;
                Some(FineOutcome {
                    verdict,
                    time: start.elapsed(),
                })
            })
            .collect();
        if replayed.iter().all(Option::is_some) {
            return replayed.into_iter().flatten().collect();
        }
    }
    let mut sess = PairSession::new(&jobs[0].pair, ctx);
    let outs: Vec<FineOutcome> = jobs
        .iter()
        .map(|job| {
            let start = Instant::now();
            let verdict = check_cycle(job, ctx, &mut sess);
            FineOutcome {
                verdict,
                time: start.elapsed(),
            }
        })
        .collect();
    if let Some((sc, content)) = &stored {
        for (job, out) in jobs.iter().zip(&outs) {
            let value = fine_to_json(&out.verdict);
            sc.store.put("pair3", &fine_site(ctx, job), content, value);
        }
    }
    outs
}

fn fine_to_json(verdict: &FineVerdict) -> Json {
    let mut fields = vec![(
        "verdict".into(),
        Json::str(match verdict {
            FineVerdict::NoCandidate => "nocand",
            FineVerdict::Sat(_) => "sat",
            FineVerdict::Unsat => "unsat",
            FineVerdict::Unknown => "unknown",
        }),
    )];
    if let FineVerdict::Sat(report) = verdict {
        fields.push(("model".into(), codec::model_to_json(&report.sat_model)));
    }
    Json::Obj(fields)
}

/// Inverse of [`fine_to_json`]; like [`pair2_from_json`] it skips fields
/// it does not name (the `us` of older records).
fn fine_from_json(job: &FineJob, ctx: &PairCtx<'_>, v: &Json) -> Option<FineVerdict> {
    Some(match v.get("verdict")?.as_str()? {
        "nocand" => FineVerdict::NoCandidate,
        "sat" => {
            let model = codec::model_from_json(v.get("model")?)?;
            FineVerdict::Sat(Box::new(build_report(job, ctx, model)))
        }
        "unsat" => FineVerdict::Unsat,
        "unknown" => FineVerdict::Unknown,
        _ => return None,
    })
}

/// Timeline instant marking a phase transition of the diagnosis
/// pipeline. Cheap no-op while the timeline is disabled.
fn timeline_phase(name: &'static str, what: &str) {
    if weseer_obs::timeline::enabled() {
        weseer_obs::timeline::instant(name, "analyzer", &[("what", what.to_string())]);
    }
}

/// The staged pipeline: generate → scan (parallel) → dedup sweep (ordered)
/// → fine checks (parallel) with the reduce fused into the ordered merge.
fn run_pipeline(
    catalog: &Catalog,
    traces: &[CollectedTrace],
    config: &AnalyzerConfig,
    store: Option<&StoreCtx<'_>>,
    mut sink: Option<&mut dyn FnMut(&DeadlockReport)>,
) -> Diagnosis {
    let mut stats = DiagnosisStats::default();

    // ---- Phase 1: transaction-level conflict filter --------------------
    timeline_phase("analyzer.phase1", "txn-level conflict filter");
    let phase1_start = Instant::now();
    let pair_set = generate_pairs(traces, config.skip_filter_phases);
    stats.phase1_time = phase1_start.elapsed();
    stats.txn_pairs = pair_set.total;
    stats.pairs_after_phase1 = pair_set.jobs.len();

    // Path conditions are simplified once per trace, not once per cycle
    // (sequentially — deterministic pipeline setup).
    let prefix = PrefixTable::build(traces, &config.solver);

    let threads = resolve_threads(config.threads);
    let pctx = PairCtx::new(catalog, traces, config, prefix, store);

    // ---- Phase 2: coarse SC-graph deadlock cycles (parallel) -----------
    timeline_phase("analyzer.phase2", "coarse SC-graph cycle scan");
    let outcomes = run_ordered(
        &pair_set.jobs,
        threads,
        |_, job| scan_pair(job, &pctx),
        |_, _| {},
    );

    // Ordered sweep: cycles with the same statement templates and conflict
    // tables are one deadlock pattern; check each pattern once (the
    // paper's authors group reports the same way). The dedup is cross-pair
    // state, so it runs sequentially in canonical pair order. Each pair's
    // surviving cycles stay together: they share one persistent solver and
    // must run in canonical order on one thread, so phase 3 parallelizes
    // over *pairs*, not cycles.
    let mut seen: HashSet<String> = HashSet::new();
    let mut groups: Vec<Vec<FineJob>> = Vec::new();
    for (job, out) in pair_set.jobs.iter().zip(&outcomes) {
        stats.coarse_cycles += out.cycles.len();
        stats.phase2_time += out.scan_time;
        if out.cycles.is_empty() {
            continue;
        }
        let a = &pctx.traces[job.a];
        let b = &pctx.traces[job.b];
        let stmts_a = a.trace.statements_of(job.a_txn);
        let stmts_b = b.trace.statements_of(job.b_txn);
        let mut group = Vec::new();
        for cand in &out.cycles {
            let signature = format!(
                "{}|{}|{}|{}|{}|{}|{:?}|{:?}",
                a.trace.api,
                b.trace.api,
                pctx.sql(job.a, stmts_a[cand.ah]),
                pctx.sql(job.a, stmts_a[cand.aw]),
                pctx.sql(job.b, stmts_b[cand.bh]),
                pctx.sql(job.b, stmts_b[cand.bw]),
                cand.t1,
                cand.t2,
            );
            if seen.insert(signature) {
                group.push(FineJob {
                    pair: *job,
                    cand: cand.clone(),
                });
            }
        }
        if !group.is_empty() {
            groups.push(group);
        }
    }

    // ---- Phase 3: fine-grained lock modeling + SMT (parallel) ----------
    // The ordered reduce — stats, reports, `max_reports` truncation, and
    // the sink — is the scheduler's in-order `on_ready` sweep, so each
    // confirmed report is emitted while later pairs are still solving,
    // and the sink sees exactly the sequence `reports` collects.
    timeline_phase("analyzer.phase3", "fine-grained lock modeling + SMT");
    let mut reports: Vec<DeadlockReport> = Vec::new();
    let mut truncated = false;
    run_ordered(
        &groups,
        threads,
        |_, group| fine_check_pair(group, &pctx),
        |_, outs: &Vec<FineOutcome>| {
            for out in outs {
                if reports.len() >= config.max_reports {
                    truncated = true;
                    return;
                }
                stats.phase3_time += out.time;
                match &out.verdict {
                    FineVerdict::NoCandidate => continue,
                    FineVerdict::Sat(report) => {
                        stats.smt_sat += 1;
                        if let Some(sink) = sink.as_mut() {
                            sink(report);
                        }
                        reports.push((**report).clone());
                    }
                    FineVerdict::Unsat => stats.smt_unsat += 1,
                    FineVerdict::Unknown => stats.smt_unknown += 1,
                }
                stats.fine_candidates += 1;
            }
        },
    );

    Diagnosis {
        deadlocks: reports,
        stats,
        truncated,
    }
}

/// Coarse C-edge: tables both access where at least one writes.
fn conflict_tables(a: &StmtRecord, b: &StmtRecord) -> Vec<String> {
    let mut out = Vec::new();
    for t in a.stmt.tables() {
        if !b.stmt.tables().contains(&t) {
            continue;
        }
        let a_writes = a.stmt.written_table() == Some(t.as_str());
        let b_writes = b.stmt.written_table() == Some(t.as_str());
        if (a_writes || b_writes) && !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

/// A C-edge's conflict condition: the *holder*'s acquired locks block the
/// *waiter*'s requested locks on some common table.
#[allow(clippy::too_many_arguments)]
fn edge_condition(
    dst: &mut Ctx,
    catalog: &Catalog,
    holder: &StmtRecord,
    holder_imp: &mut Importer<'_>,
    waiter: &StmtRecord,
    waiter_imp: &mut Importer<'_>,
    tables: &[String],
    edge: usize,
    config: &AnalyzerConfig,
) -> Option<TermId> {
    let mut arms: Vec<TermId> = Vec::new();
    for table in tables {
        // Orientations: Alg. 3 takes (sqlw = writer, sqlr = the other).
        let holder_writes = holder.stmt.written_table() == Some(table.as_str());
        let waiter_writes = waiter.stmt.written_table() == Some(table.as_str());
        let mut orientations: Vec<(bool, bool)> = Vec::new();
        if waiter_writes {
            orientations.push((false, true)); // w = waiter, r = holder
        }
        if holder_writes {
            orientations.push((true, false)); // w = holder, r = waiter
        }
        for (w_is_holder, _) in orientations {
            let (w_rec, r_rec) = if w_is_holder {
                (holder, waiter)
            } else {
                (waiter, holder)
            };
            // Fine-grained lock filter: some lock pair must be able to
            // conflict on this table.
            let locks_w = gen_exclusive_locks(&w_rec.stmt, table, catalog);
            let locks_r = gen_shared_locks(&r_rec.stmt, table, r_rec.is_empty, catalog);
            if !potential_conflict(&locks_w, &locks_r) {
                continue;
            }
            let cond = if w_is_holder {
                let mut w_side = Side {
                    rec: w_rec,
                    imp: holder_imp,
                };
                let mut r_side = Side {
                    rec: r_rec,
                    imp: waiter_imp,
                };
                gen_conflict_cond(
                    dst,
                    catalog,
                    &mut w_side,
                    &mut r_side,
                    table,
                    edge,
                    config.use_range_locks,
                )
            } else {
                let mut w_side = Side {
                    rec: w_rec,
                    imp: waiter_imp,
                };
                let mut r_side = Side {
                    rec: r_rec,
                    imp: holder_imp,
                };
                gen_conflict_cond(
                    dst,
                    catalog,
                    &mut w_side,
                    &mut r_side,
                    table,
                    edge,
                    config.use_range_locks,
                )
            };
            arms.push(cond);
        }
    }
    if arms.is_empty() {
        None
    } else {
        Some(dst.or(arms))
    }
}

fn reported(rec: &StmtRecord, instance: &str, tables: &[String]) -> ReportedStatement {
    ReportedStatement {
        label: format!("{instance}.{}", rec.label()),
        sql: rec.stmt.to_string(),
        table: tables.first().cloned().unwrap_or_default(),
        trigger: rec.trigger.clone(),
    }
}
