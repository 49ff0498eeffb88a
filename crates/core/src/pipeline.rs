//! The end-to-end WeSEER pipeline (paper Fig. 2): run an application's
//! unit tests under concolic execution, collect traces, diagnose
//! deadlocks, and group the reports into Table II rows.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use weseer_analyzer::{
    coarse_cycle_count, diagnose_with, find_anomaly_candidates, resolve_threads, run_ordered,
    AnalyzerConfig, AnomalyCandidate, CollectedTrace, Diagnosis, StoreCtx,
};
use weseer_apps::app::{collect_trace, run_chain};
use weseer_apps::{classify, AppLocks, ECommerceApp, Fixes, KnownDeadlock};
use weseer_concolic::{ExecMode, LibraryMode};
use weseer_db::{Database, IsolationLevel};
use weseer_replay::{
    explore_anomalies, pair_instances, AnomalyOutcome, AnomalyWitness, ReplayVerdict, Witness,
};
use weseer_store::{json::Json, Lookup, Store};

/// The WeSEER tool facade.
#[derive(Debug, Clone, Default)]
pub struct Weseer {
    /// Analyzer configuration.
    pub config: AnalyzerConfig,
    /// When set, every diagnosed cycle is replayed for a concrete witness
    /// ([`weseer_replay`]) after diagnosis.
    pub replay: Option<weseer_replay::ReplayConfig>,
    /// When set, analyses consult (and feed) this persistent store so a
    /// warm run over unchanged traces skips the heavy phases
    /// ([`Weseer::with_store`]).
    pub store: Option<Arc<Store>>,
    /// APIs whose traces are treated as changed for store lookups: their
    /// fingerprints are salted, invalidating every stored outcome that
    /// involves them ([`Weseer::with_dirty`]).
    pub dirty_apis: BTreeSet<String>,
    /// When set to a non-serializable level, every analysis additionally
    /// runs the weak-isolation anomaly oracle and confirms its candidates
    /// by exploring interleavings at that level
    /// ([`Weseer::with_isolation`]). Trace collection and deadlock
    /// diagnosis always run at the default serializable level, so the
    /// deadlock output is untouched.
    pub isolation: Option<IsolationLevel>,
}

/// Everything produced by analyzing one application.
pub struct AppAnalysis {
    /// Application name.
    pub app: String,
    /// Unit tests traced, with their statement and path-condition counts.
    pub trace_summaries: Vec<TraceSummary>,
    /// The diagnosis (reports + phase statistics).
    pub diagnosis: Diagnosis,
    /// Reports grouped into Table II rows.
    pub groups: BTreeMap<KnownDeadlock, usize>,
    /// The coarse-grained (STEPDAD/REDACT-style) cycle count on the same
    /// traces, for the Sec. VII-B baseline comparison.
    pub coarse_cycles: usize,
    /// Observability metrics accumulated during this analysis (the delta
    /// of the global [`weseer_obs`] registry over the run; empty unless
    /// `weseer_obs::set_enabled(true)` was called).
    pub metrics: weseer_obs::MetricsSnapshot,
    /// Replay verdicts, aligned index-for-index with
    /// `diagnosis.deadlocks`; `None` unless [`Weseer::with_replay`] was
    /// requested.
    pub replay: Option<ReplaySummary>,
    /// Weak-isolation anomaly analysis; `None` unless a non-serializable
    /// level was requested ([`Weseer::with_isolation`]). Never feeds the
    /// deadlock report, so default output stays byte-identical.
    pub anomalies: Option<AnomalyAnalysis>,
}

/// Static anomaly candidates plus their dynamic confirmation at one
/// isolation level.
#[derive(Debug)]
pub struct AnomalyAnalysis {
    /// Kebab-case isolation level the confirmations ran under.
    pub isolation: String,
    /// Candidates from the static oracle, sorted; capped at
    /// [`AnomalyAnalysis::MAX_CANDIDATES`] (`truncated` counts the rest).
    pub candidates: Vec<AnomalyCandidate>,
    /// One verdict per candidate, index-aligned.
    pub verdicts: Vec<AnomalyVerdict>,
    /// Candidates dropped by the cap.
    pub truncated: usize,
}

/// Dynamic verdict for one anomaly candidate.
#[derive(Debug)]
pub enum AnomalyVerdict {
    /// The explorer found a committed schedule exhibiting the anomaly.
    Confirmed(Box<AnomalyWitness>),
    /// No schedule within budget exhibited it.
    Clean {
        /// Schedules completed.
        explored: usize,
        /// Branches pruned by partial-order reduction.
        pruned: usize,
        /// The search stopped at a budget with schedules left unexplored.
        budget_hit: bool,
    },
    /// The candidate cannot occur at the session's isolation level (e.g.
    /// a lost update under snapshot isolation's first-updater-wins).
    NotApplicable,
    /// Confirmation was not attempted, with the reason.
    Skipped(String),
}

impl AnomalyVerdict {
    /// Short stable tag: `confirmed`, `clean`, `not_applicable`, or
    /// `skipped`.
    pub fn tag(&self) -> &'static str {
        match self {
            AnomalyVerdict::Confirmed(_) => "confirmed",
            AnomalyVerdict::Clean { .. } => "clean",
            AnomalyVerdict::NotApplicable => "not_applicable",
            AnomalyVerdict::Skipped(_) => "skipped",
        }
    }
}

impl AnomalyAnalysis {
    /// Deterministic cap on confirmed candidates per analysis.
    pub const MAX_CANDIDATES: usize = 8;

    /// Confirmed witnesses, in candidate order.
    pub fn confirmed(&self) -> Vec<&AnomalyWitness> {
        self.verdicts
            .iter()
            .filter_map(|v| match v {
                AnomalyVerdict::Confirmed(w) => Some(w.as_ref()),
                _ => None,
            })
            .collect()
    }

    /// Canonical single-line JSON: candidates with their verdict tags and
    /// witness lines, stable field order. A clean verdict cut short by the
    /// exploration budget says so (`"budget_hit":true`; absent otherwise).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\"isolation\":\"{}\",\"truncated\":{},\"candidates\":[",
            self.isolation, self.truncated
        );
        for (i, (c, v)) in self.candidates.iter().zip(&self.verdicts).enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"candidate\":{},\"verdict\":\"{}\"",
                c.to_json(),
                v.tag()
            );
            match v {
                AnomalyVerdict::Confirmed(w) => {
                    let _ = write!(s, ",\"witness\":{}", w.to_json());
                }
                AnomalyVerdict::Clean {
                    budget_hit: true, ..
                } => s.push_str(",\"budget_hit\":true"),
                _ => {}
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// Witness-replay results for one analysis.
#[derive(Debug, Clone)]
pub struct ReplaySummary {
    /// One verdict per diagnosed deadlock, in report order.
    pub verdicts: Vec<weseer_replay::ReplayVerdict>,
}

impl ReplaySummary {
    fn count(&self, tag: &str) -> usize {
        self.verdicts.iter().filter(|v| v.tag() == tag).count()
    }

    /// Reports confirmed with a concrete witness.
    pub fn confirmed(&self) -> usize {
        self.count("confirmed")
    }

    /// Reports where no schedule in budget deadlocked.
    pub fn not_reproduced(&self) -> usize {
        self.count("not_reproduced")
    }

    /// Reports replay could not attempt.
    pub fn skipped(&self) -> usize {
        self.count("skipped")
    }

    /// Not-reproduced reports whose search stopped at the exploration
    /// budget rather than by exhausting the schedule space.
    pub fn budget_hits(&self) -> usize {
        let hit = |v: &&ReplayVerdict| {
            matches!(
                v,
                ReplayVerdict::NotReproduced {
                    budget_hit: true,
                    ..
                }
            )
        };
        self.verdicts.iter().filter(hit).count()
    }

    /// Total schedules explored and pruned across all reports.
    pub fn schedule_totals(&self) -> (usize, usize) {
        let mut explored = 0;
        let mut pruned = 0;
        for v in &self.verdicts {
            match v {
                weseer_replay::ReplayVerdict::Confirmed(w) => {
                    explored += w.schedules_explored;
                    pruned += w.schedules_pruned;
                }
                weseer_replay::ReplayVerdict::NotReproduced {
                    schedules_explored,
                    schedules_pruned,
                    ..
                } => {
                    explored += schedules_explored;
                    pruned += schedules_pruned;
                }
                weseer_replay::ReplayVerdict::Skipped(_) => {}
            }
        }
        (explored, pruned)
    }
}

/// The standard funnel stages for [`weseer_obs::report::render_report`],
/// as `(label, counter)` pairs matching what the analyzer publishes.
pub const FUNNEL_STAGES: &[(&str, &str)] = &[
    ("txn pairs examined", "analyzer.txn_pairs"),
    ("after phase-1 filter", "analyzer.pairs_after_phase1"),
    ("coarse cycles (phase 2)", "analyzer.coarse_cycles"),
    ("fine candidates (to SMT)", "analyzer.fine_candidates"),
    ("SMT sat", "analyzer.smt_sat"),
    ("SMT unsat", "analyzer.smt_unsat"),
    ("SMT unknown", "analyzer.smt_unknown"),
    ("deadlocks reported", "analyzer.deadlocks_reported"),
    ("replay confirmed", "replay.confirmed"),
    ("replay not reproduced", "replay.not_reproduced"),
    ("searches cut by budget", "replay.budget_hit"),
    ("anomaly candidates", "analyzer.anomaly.candidates"),
    ("anomaly confirmed", "replay.anomaly.confirmed"),
    ("anomaly clean", "replay.anomaly.clean"),
    // Serving-plane stages (populated only when a `weseer-serve` daemon
    // runs in-process; zero in plain batch runs).
    ("traces ingested (serve)", "serve.traces_ingested"),
    ("verdicts served (serve)", "serve.verdicts_served"),
];

/// Summary of one collected trace.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Unit test / API name.
    pub api: String,
    /// SQL statements recorded.
    pub statements: usize,
    /// Transactions recorded.
    pub txns: usize,
    /// Path conditions recorded.
    pub path_conds: usize,
}

impl AppAnalysis {
    /// Table II rows found for this app, in row order.
    pub fn rows_found(&self) -> Vec<KnownDeadlock> {
        KnownDeadlock::TABLE2
            .into_iter()
            .filter(|k| k.app() == self.app && self.groups.contains_key(k))
            .collect()
    }

    /// Number of paper deadlock ids covered by the found rows.
    pub fn deadlock_ids_found(&self) -> usize {
        self.rows_found().iter().map(|k| k.id_count()).sum()
    }
}

impl Weseer {
    /// New facade with default configuration.
    pub fn new() -> Self {
        Weseer::default()
    }

    /// Pin the analyzer's worker-thread count (`0` = auto: the
    /// `WESEER_THREADS` environment variable if set, else all cores).
    /// The diagnosis output is identical for every value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Replay every diagnosed cycle for a concrete deadlock witness, with
    /// default exploration budgets.
    pub fn with_replay(mut self) -> Self {
        self.replay = Some(weseer_replay::ReplayConfig::default());
        self
    }

    /// Open (or create) the incremental store at `path` and consult it on
    /// every analysis: a warm run over unchanged traces reuses each
    /// phase-2 scan, phase-3 verdict, and replay outcome recorded by the run that filled the store, and is
    /// byte-identical to it.
    pub fn with_store(mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        self.store = Some(Arc::new(Store::open(path)?));
        Ok(self)
    }

    /// Treat `api`'s trace as changed: its fingerprint is salted, so every
    /// stored outcome involving it misses and is recomputed. The dirtied
    /// records are stored next to the clean ones, which stay resident: a
    /// later run without the flag is a pure hit. (Simulates an edited
    /// endpoint for incremental benchmarks.)
    pub fn with_dirty(mut self, api: &str) -> Self {
        self.dirty_apis.insert(api.to_string());
        self
    }

    /// Ask "what if this deployment ran at `level`?": analyses
    /// additionally run the weak-isolation anomaly oracle and confirm its
    /// candidates by exploring interleavings at that level. Serializable
    /// (the engine default) is a no-op — 2PL admits none of the anomalies.
    pub fn with_isolation(mut self, level: IsolationLevel) -> Self {
        self.isolation = Some(level);
        self
    }

    /// Per-trace content fingerprints for store keys, with dirty APIs
    /// salted so their stored outcomes invalidate.
    fn fingerprints(&self, traces: &[CollectedTrace]) -> Vec<String> {
        traces
            .iter()
            .map(|t| {
                let mut fp = t.trace.fingerprint(&t.ctx);
                if self.dirty_apis.contains(t.api()) {
                    fp.push_str("!dirty");
                }
                fp
            })
            .collect()
    }

    /// Collect the Table I unit-test traces of an application, chaining
    /// database state between tests (paper Sec. VII-B): the unit-test
    /// chain ([`run_chain`]) with one concolic trace per step, in test
    /// order, on the calling thread. Returns the traces and the database
    /// as the last test left it.
    pub fn collect_traces(
        &self,
        app: &dyn ECommerceApp,
        fixes: &Fixes,
    ) -> (Vec<CollectedTrace>, Database) {
        let (traces, db, _kept) = Self::collect_and_keep(app, fixes);
        (traces, db)
    }

    /// [`Weseer::collect_traces`], also keeping a fork of the database from
    /// before each step: `kept[i]` is the state unit test `i` ran from,
    /// which witness replay and the anomaly screen start from.
    fn collect_and_keep(
        app: &dyn ECommerceApp,
        fixes: &Fixes,
    ) -> (Vec<CollectedTrace>, Database, Vec<Database>) {
        let _span = weseer_obs::span("pipeline.collect_traces");
        let locks = AppLocks::new();
        let mut traces = Vec::new();
        let mut kept = Vec::new();
        let db = run_chain(app, None, |test, db| {
            kept.push(db.fork());
            traces.push(Self::trace_one(app, test, db, fixes, &locks));
        });
        (traces, db, kept)
    }

    /// Trace one unit test concolically against `db`, recording exactly
    /// one `concolic.trace_api_us` histogram entry.
    fn trace_one(
        app: &dyn ECommerceApp,
        test: &str,
        db: &Database,
        fixes: &Fixes,
        locks: &AppLocks,
    ) -> CollectedTrace {
        let api_start = std::time::Instant::now();
        let (trace, ctx, result) = collect_trace(
            app,
            test,
            db,
            fixes,
            locks,
            ExecMode::Concolic,
            LibraryMode::Modeled,
        );
        // Per-API trace time: one histogram entry per unit test.
        weseer_obs::observe_duration("concolic.trace_api_us", api_start.elapsed());
        result.unwrap_or_else(|e| panic!("unit test {test} failed: {e}"));
        CollectedTrace::new(trace, ctx)
    }

    /// Run the full pipeline on the *unfixed* application (the published
    /// code is what gets diagnosed).
    pub fn analyze(&self, app: &dyn ECommerceApp) -> AppAnalysis {
        self.analyze_with_fixes(app, &Fixes::none())
    }

    /// Run the full pipeline with an explicit fix configuration (used by
    /// the fixed-code ablation: the sorted Shopizer variants become
    /// UNSAT through their recorded comparison path conditions).
    pub fn analyze_with_fixes(&self, app: &dyn ECommerceApp, fixes: &Fixes) -> AppAnalysis {
        let before = weseer_obs::snapshot();
        let pipeline_span = weseer_obs::span("pipeline.analyze");
        let (traces, _db, kept) = Self::collect_and_keep(app, fixes);
        let trace_summaries = traces
            .iter()
            .map(|t| TraceSummary {
                api: t.trace.api.clone(),
                statements: t.trace.statements.len(),
                txns: t.trace.txns.len(),
                path_conds: t.trace.path_conds.len(),
            })
            .collect();
        let store = self.store.as_ref();
        let fingerprints = store.map(|_| self.fingerprints(&traces));
        let store_ctx = store.zip(fingerprints.as_ref()).map(|(s, fps)| StoreCtx {
            store: s,
            fingerprints: fps,
            namespace: app.name(),
        });
        let diagnosis = diagnose_with(
            &app.catalog(),
            &traces,
            &self.config,
            store_ctx.as_ref(),
            None,
        );
        let mut groups: BTreeMap<KnownDeadlock, usize> = BTreeMap::new();
        for r in &diagnosis.deadlocks {
            *groups.entry(classify(app.name(), r)).or_insert(0) += 1;
        }
        // The baseline count is the diagnosis's own phase-2 count unless
        // the diagnosis scanned every pair (brute force). Store hits
        // restore the per-pair counts, so a warm run qualifies too.
        let coarse_cycles = if self.config.skip_filter_phases {
            coarse_cycle_count(&traces)
        } else {
            diagnosis.stats.coarse_cycles
        };
        // Replay and the anomaly screen start from the states collection
        // kept, and share the analyzer's worker pool.
        let bases = crate::replay::BaseStates::new(app, kept);
        let threads = resolve_threads(self.config.threads);
        let replay = self.replay.as_ref().map(|cfg| {
            Self::replay_reports(
                &bases,
                &diagnosis,
                &traces,
                cfg,
                store_ctx.as_ref(),
                threads,
            )
        });
        let anomalies = self
            .isolation
            .filter(|iso| iso.uses_snapshots())
            .map(|iso| Self::anomaly_reports(&bases, &traces, iso, threads));
        if let Some(s) = store {
            s.flush().unwrap_or_else(|e| panic!("store flush: {e}"));
        }
        drop(pipeline_span);
        let metrics = weseer_obs::snapshot().delta_since(&before);
        AppAnalysis {
            app: app.name().to_string(),
            trace_summaries,
            diagnosis,
            groups,
            coarse_cycles,
            metrics,
            replay,
            anomalies,
        }
    }

    /// Run the static anomaly oracle over the traces, then confirm each
    /// candidate (up to [`AnomalyAnalysis::MAX_CANDIDATES`]) by exploring
    /// interleavings at `iso` from the state the pair's traces ran from.
    /// Candidates whose level list excludes `iso` are reported
    /// [`AnomalyVerdict::NotApplicable`] without exploring.
    /// Candidates are independent, so they are explored on `threads`
    /// workers; the ordered merge keeps the verdicts in candidate order.
    fn anomaly_reports(
        bases: &crate::replay::BaseStates<'_>,
        traces: &[CollectedTrace],
        iso: IsolationLevel,
        threads: usize,
    ) -> AnomalyAnalysis {
        let _span = weseer_obs::span("pipeline.anomalies");
        let mut candidates = find_anomaly_candidates(traces);
        let truncated = candidates
            .len()
            .saturating_sub(AnomalyAnalysis::MAX_CANDIDATES);
        candidates.truncate(AnomalyAnalysis::MAX_CANDIDATES);
        // Replays use the traced inputs (the oracle has no SAT model to pin
        // anything sharper).
        let traced = weseer_smt::Model::default();
        let verdicts = run_ordered(
            &candidates,
            threads,
            |_, c| {
                if !c.levels.iter().any(|l| l == iso.name()) {
                    return AnomalyVerdict::NotApplicable;
                }
                let sides = [(&*c.a_api, c.a_txn, &traced), (&*c.b_api, c.b_txn, &traced)];
                let instances = match pair_instances(traces, sides) {
                    Ok(instances) => instances,
                    Err(reason) => return AnomalyVerdict::Skipped(reason),
                };
                match explore_anomalies(
                    bases.for_pair(&c.a_api, &c.b_api),
                    &instances,
                    &[c.a_api.clone(), c.b_api.clone()],
                    iso,
                    &weseer_replay::ReplayConfig::default(),
                ) {
                    AnomalyOutcome::Anomalous(w) => AnomalyVerdict::Confirmed(w),
                    AnomalyOutcome::Clean {
                        explored,
                        pruned,
                        budget_hit,
                    } => AnomalyVerdict::Clean {
                        explored,
                        pruned,
                        budget_hit,
                    },
                }
            },
            |_, _| {},
        );
        AnomalyAnalysis {
            isolation: iso.name().to_string(),
            candidates,
            verdicts,
            truncated,
        }
    }

    /// Replay each report from the state its traces were collected from,
    /// on `threads` workers of [`run_ordered`]. Reports are independent —
    /// each search only forks its shared base from `bases` — so the
    /// verdicts, in report order, are the same for every thread count.
    ///
    /// With a store, a cycle whose two trace fingerprints are unchanged
    /// restores its recorded verdict — witness included, byte-identical
    /// through [`Witness::to_json`] — without exploring a single schedule
    /// (`replay.schedules_explored` stays 0 on a fully warm run). Lookups
    /// run on the workers; fresh verdicts are written through from the
    /// ordered merge, so the store receives its puts in report order and
    /// its file is byte-identical for every thread count.
    fn replay_reports(
        bases: &crate::replay::BaseStates<'_>,
        diagnosis: &Diagnosis,
        traces: &[CollectedTrace],
        config: &weseer_replay::ReplayConfig,
        store: Option<&StoreCtx<'_>>,
        threads: usize,
    ) -> ReplaySummary {
        let _span = weseer_obs::span("pipeline.replay");
        let replayer = weseer_replay::Replayer::with_config(traces, config.clone());
        let cfg_tag = format!("{config:?}");
        // Each report yields its verdict plus, when it was replayed live
        // behind a store, the `(site, content)` key to record it under.
        let outputs = run_ordered(
            &diagnosis.deadlocks,
            threads,
            |_, r| {
                let persist = store.and_then(|sc| {
                    let fp = |api: &str| {
                        traces
                            .iter()
                            .position(|t| t.api() == api)
                            .map(|i| sc.fingerprints[i].as_str())
                    };
                    let (fa, fb) = (fp(&r.cycle.a_api)?, fp(&r.cycle.b_api)?);
                    let c = &r.cycle;
                    let site = format!(
                        "{}|{}#{}@{}-{}|{}#{}@{}-{}",
                        sc.namespace,
                        c.a_api,
                        c.a_txn,
                        c.a_hold,
                        c.a_wait,
                        c.b_api,
                        c.b_txn,
                        c.b_hold,
                        c.b_wait
                    );
                    Some((sc, site, format!("{fa}|{fb}|{cfg_tag}")))
                });
                if let Some((sc, site, content)) = &persist {
                    if let Lookup::Hit(v) = sc.store.get("wit", site, content) {
                        if let Some(verdict) = verdict_from_json(&v) {
                            weseer_obs::incr(&format!("replay.{}", verdict.tag()));
                            return (verdict, None);
                        }
                    }
                }
                let base = bases.for_pair(&r.cycle.a_api, &r.cycle.b_api);
                (replayer.replay_report(r, base), persist)
            },
            |_, (verdict, fresh)| {
                if let Some((sc, site, content)) = fresh {
                    sc.store.put("wit", site, content, verdict_to_json(verdict));
                }
            },
        );
        let verdicts = outputs.into_iter().map(|(v, _)| v).collect();
        ReplaySummary { verdicts }
    }
}

/// Serialize a replay verdict for the store's `wit` records. Witnesses
/// ride along as their canonical JSON line, so the warm-run export is
/// byte-identical to the cold one.
fn verdict_to_json(v: &ReplayVerdict) -> Json {
    match v {
        ReplayVerdict::Confirmed(w) => Json::Obj(vec![
            ("tag".into(), Json::str("confirmed")),
            ("witness".into(), Json::str(w.to_json())),
        ]),
        ReplayVerdict::NotReproduced {
            schedules_explored,
            schedules_pruned,
            budget_hit,
        } => {
            let mut fields = vec![
                ("tag".into(), Json::str("not_reproduced")),
                ("explored".into(), Json::u64(*schedules_explored as u64)),
                ("pruned".into(), Json::u64(*schedules_pruned as u64)),
            ];
            // Written only when true: a record without the member (every
            // record of the previous format) reads as a genuine exhaustion.
            if *budget_hit {
                fields.push(("budget_hit".into(), Json::Bool(true)));
            }
            Json::Obj(fields)
        }
        ReplayVerdict::Skipped(reason) => Json::Obj(vec![
            ("tag".into(), Json::str("skipped")),
            ("reason".into(), Json::str(reason.clone())),
        ]),
    }
}

/// Inverse of [`verdict_to_json`]; `None` on any malformed record (the
/// caller then replays live and overwrites it).
fn verdict_from_json(v: &Json) -> Option<ReplayVerdict> {
    match v.get("tag")?.as_str()? {
        "confirmed" => {
            let w = Witness::from_json(v.get("witness")?.as_str()?)?;
            Some(ReplayVerdict::Confirmed(Box::new(w)))
        }
        "not_reproduced" => Some(ReplayVerdict::NotReproduced {
            schedules_explored: v.get("explored")?.as_u64()? as usize,
            schedules_pruned: v.get("pruned")?.as_u64()? as usize,
            budget_hit: v.get("budget_hit").and_then(Json::as_bool) == Some(true),
        }),
        "skipped" => Some(ReplayVerdict::Skipped(
            v.get("reason")?.as_str()?.to_string(),
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_apps::{Broadleaf, Shopizer};
    use weseer_db::{Row, TxnId};

    /// What a replay can observe of a database: every table's rows, every
    /// table's next id and the next transaction id. Read off a fork, so
    /// drawing the ids leaves `db` as it is.
    fn observable_state(db: &Database) -> (Vec<Vec<Row>>, Vec<i64>, Option<TxnId>) {
        let probe = db.fork();
        let tables: Vec<String> = db.catalog().tables().map(|t| t.name.clone()).collect();
        let rows = tables.iter().map(|t| probe.dump(t)).collect();
        let ids = tables.iter().map(|t| probe.next_id(t)).collect();
        let mut session = probe.session();
        session.begin();
        (rows, ids, session.txn_id())
    }

    /// Replay starts from the states the concolic chain kept; the frozen
    /// benchmark's probes and the threaded re-enactment of every witness
    /// start from `prepare_db`'s native chain. Both must be the state each
    /// unit test ran from.
    #[test]
    fn kept_states_are_prepare_dbs_states() {
        for app in [&Broadleaf as &dyn ECommerceApp, &Shopizer] {
            let (_traces, _db, kept) = Weseer::collect_and_keep(app, &Fixes::none());
            assert_eq!(kept.len(), app.unit_tests().len());
            for (test, state) in app.unit_tests().iter().zip(&kept) {
                let prepared = crate::prepare_db(app, test);
                assert!(
                    observable_state(state) == observable_state(&prepared),
                    "{} before {test}: the kept state differs from prepare_db's",
                    app.name()
                );
            }
        }
    }

    #[test]
    fn shopizer_pipeline_smoke() {
        let weseer = Weseer::new();
        let analysis = weseer.analyze(&Shopizer);
        assert_eq!(analysis.app, "shopizer");
        assert_eq!(analysis.trace_summaries.len(), 6);
        assert!(
            analysis.deadlock_ids_found() >= 5,
            "groups: {:?}",
            analysis.groups
        );
        assert!(analysis.coarse_cycles > analysis.diagnosis.deadlocks.len());
        // No isolation requested: the anomaly stage must not even run.
        assert!(analysis.anomalies.is_none());
    }

    #[test]
    fn budget_hit_is_stored_only_when_true() {
        let verdict = |budget_hit| ReplayVerdict::NotReproduced {
            schedules_explored: 256,
            schedules_pruned: 9,
            budget_hit,
        };
        // A genuine exhaustion keeps the previous record format, byte for byte.
        let plain = verdict_to_json(&verdict(false));
        let old_format = r#"{"tag":"not_reproduced","explored":256,"pruned":9}"#;
        assert_eq!(plain.to_line(), old_format);
        let cut = verdict_to_json(&verdict(true));
        for (json, hit) in [(plain, false), (cut, true)] {
            let back = verdict_from_json(&Json::parse(&json.to_line()).unwrap()).unwrap();
            assert!(
                matches!(back, ReplayVerdict::NotReproduced { budget_hit, .. } if budget_hit == hit)
            );
        }
    }

    #[test]
    fn isolation_gates_the_anomaly_stage() {
        use weseer_db::IsolationLevel;
        // Serializable is a no-op: 2PL admits none of the anomalies, and
        // the default output must stay byte-identical.
        let at_serializable = Weseer::new()
            .with_isolation(IsolationLevel::Serializable)
            .analyze(&Shopizer);
        assert!(at_serializable.anomalies.is_none());

        let analysis = Weseer::new()
            .with_isolation(IsolationLevel::ReadCommitted)
            .analyze(&Shopizer);
        let anomalies = analysis.anomalies.expect("weak level runs the oracle");
        assert_eq!(anomalies.isolation, "read-committed");
        assert_eq!(anomalies.candidates.len(), anomalies.verdicts.len());
        let json = anomalies.to_json();
        assert!(json.starts_with("{\"isolation\":\"read-committed\""));
        // Deterministic: a second run produces identical JSON.
        let again = Weseer::new()
            .with_isolation(IsolationLevel::ReadCommitted)
            .analyze(&Shopizer);
        assert_eq!(again.anomalies.unwrap().to_json(), json);
    }
}
