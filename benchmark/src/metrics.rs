//! The benchmark's vocabulary: workloads and metrics, by name. The root
//! `BENCHMARK.json` is generated from these tables (`bench manifest`) and a
//! test keeps the committed file in step with them.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdBroadleaf,
    ColdShopizer,
    Warm,
    EditOne,
    FleetOpen,
    FleetClosed,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ColdBroadleaf,
        Workload::ColdShopizer,
        Workload::Warm,
        Workload::EditOne,
        Workload::FleetOpen,
        Workload::FleetClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBroadleaf => "cold-broadleaf",
            Workload::ColdShopizer => "cold-shopizer",
            Workload::Warm => "warm",
            Workload::EditOne => "edit-one",
            Workload::FleetOpen => "fleet-open",
            Workload::FleetClosed => "fleet-closed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdBroadleaf => "First run on the app with many cheap queries (162 solver calls, 124 witnesses to replay, empty store): encoding, tier-1 and replay dominate; store reads and the daemon do nothing.",
            Workload::ColdShopizer => "First run on the app with few hard queries (33 calls, 12 full solves of ~150 ms, 7 replays that exhaust the schedule space): a CDCL/theory/presolve or explorer change shows here first.",
            Workload::Warm => "Steady-state CI run: both apps against an unchanged store, 0 full solves, 0 schedules; cost is store parse/get, trace collection, fingerprints, render. The solver is bypassed: predicts no movement.",
            Workload::EditOne => "Developer loop: each of the 13 (app, API) sites marked changed in seeded order on a copy of the warm store; hits, stale lookups and write-through puts interleave with a partial re-solve.",
            Workload::FleetOpen => "Serving plane on the hit path: open loop at 70 release sessions/s (60/40 app mix, ~40 % of the worker), latency from due time: queue wait, streaming, ingest, store reads; no solve, no replay.",
            Workload::FleetClosed => "Same daemon under version churn: closed loop, 2 clients, a quarter of Broadleaf sessions a single-fix variant, so last-wins store sites flip and re-solve: capacity (verdicts/s) at saturation.",
        }
    }

    pub fn is_fleet(self) -> bool {
        matches!(self, Workload::FleetOpen | Workload::FleetClosed)
    }

    /// Whether per-analysis work is a pure function of the inputs, so the
    /// exact counts must repeat between runs of one seed. The fleet runs
    /// race two shards (and two clients) for the shared store, so who
    /// solves a formula first — and how often — can differ.
    pub fn counts_are_exact(self) -> bool {
        !self.is_fleet()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// An exact work count: must repeat bit-for-bit between two runs of
    /// the same seed on workloads whose `counts_are_exact`.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
    }
}

const fn gauge(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn good_count(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better: Better::Higher,
        exact: true,
    }
}

/// What a user of the system sees. Printed with `--trace 0`. The README
/// says why the issue's tail, first-verdict, SLO and failure metrics are
/// not in this list (the first three are per-layer, the last is the
/// `failed` field of every result line).
pub const END_TO_END: &[MetricDef] = &[
    time("wall_ms_p50", "ms"),
    gauge("verdicts_per_s", "1/s", Better::Higher),
    time("peak_rss_mb", "MB"),
    time("setup_s", "s"),
];

/// One layer = one crate. Printed with `--trace 1`. Times and counts are
/// per operation: the median pass of a batch workload (one analysis cold,
/// two warm, thirteen in `edit-one`), the mean session of a fleet workload.
pub const PER_LAYER: &[MetricDef] = &[
    // concolic
    time("concolic.collect_ms", "ms"),
    time("concolic.fingerprint_us", "us"),
    count("concolic.statements"),
    count("concolic.interpreted_ops"),
    // sqlir
    time("sqlir.parse_us_per_stmt", "us"),
    // db + orm
    time("db.prepare_ms", "ms"),
    count("db.lock.acquisitions"),
    // analyzer
    time("analyzer.diagnose_ms", "ms"),
    time("analyzer.phase1_us", "us"),
    time("analyzer.phase2_ms", "ms"),
    time("analyzer.phase3_ms", "ms"),
    time("analyzer.encode_ms", "ms"),
    gauge("analyzer.worker_util", "ratio", Better::Higher),
    time("analyzer.pairs_us", "us"),
    time("analyzer.prefix_us", "us"),
    time("analyzer.coarse_ms", "ms"),
    count("analyzer.txn_pairs"),
    count("analyzer.pairs_after_phase1"),
    count("analyzer.coarse_cycles"),
    good_count("analyzer.prefix_kills"),
    count("analyzer.fine_candidates"),
    count("analyzer.smt_sat"),
    count("analyzer.smt_unsat"),
    count("analyzer.smt_unknown"),
    gauge("analyzer.fine_yield", "ratio", Better::Higher),
    // smt
    time("smt.solve_ms", "ms"),
    time("smt.full_solve_ms", "ms"),
    time("smt.t0_ms", "ms"),
    time("smt.t1_ms", "ms"),
    time("smt.prefix_ms", "ms"),
    time("smt.full_solve_us_p50", "us"),
    time("smt.full_solve_us_max", "us"),
    count("smt.solve_calls"),
    count("smt.full_solve"),
    good_count("smt.t1_sat"),
    good_count("smt.t1_unsat"),
    count("smt.fallthrough"),
    count("smt.cdcl.conflicts"),
    count("smt.cdcl.propagations"),
    count("smt.sat_decisions"),
    count("smt.theory_iters"),
    count("smt.arith_conflicts"),
    count("smt.budget_exhausted"),
    gauge("smt.fastpath_share", "ratio", Better::Higher),
    // replay
    time("replay.ms", "ms"),
    time("replay.report_us_p50", "us"),
    time("replay.report_us_max", "us"),
    count("replay.schedules_explored"),
    good_count("replay.schedules_pruned"),
    good_count("replay.confirmed"),
    count("replay.not_reproduced"),
    count("replay.skipped"),
    time("replay.us_per_schedule", "us"),
    gauge("replay.confirm_share", "ratio", Better::Higher),
    // store
    time("store.open_ms", "ms"),
    time("store.get_ns", "ns"),
    time("store.put_ns", "ns"),
    time("store.live_put_ns", "ns"),
    time("store.flush_ms", "ms"),
    gauge("store.file_kb", "kB", Better::Lower),
    gauge("store.entries", "count", Better::Lower),
    good_count("store.hit"),
    count("store.stale"),
    count("store.miss"),
    gauge("store.hit_share", "ratio", Better::Higher),
    // serve
    gauge("serve.slo_share", "ratio", Better::Higher),
    time("serve.send_wait_ms_p90", "ms"),
    time("serve.service_ms_p50", "ms"),
    time("serve.service_ms_p90", "ms"),
    time("serve.queue_ms_p50", "ms"),
    time("serve.queue_ms_p90", "ms"),
    time("serve.stream_spread_ms_p50", "ms"),
    time("serve.ingest_lag_us_p50", "us"),
    gauge("serve.shard_task_skew", "ratio", Better::Lower),
    gauge("serve.shard_queue_depth_max", "count", Better::Lower),
    time("serve.generator_lag_ms_p90", "ms"),
    gauge("serve.backlog_end", "count", Better::Lower),
    gauge("serve.sessions_sent", "count", Better::Higher),
    gauge("serve.sessions_ok", "count", Better::Higher),
    gauge("serve.sessions_failed", "count", Better::Lower),
    // core
    time("core.analyze_ms", "ms"),
    time("core.render_ms", "ms"),
    time("core.other_ms", "ms"),
    gauge("core.other_share", "ratio", Better::Lower),
    // obs
    gauge("obs.trace_overhead_pct", "%", Better::Lower),
    // the harness itself: the traced phase's own latency tail, at the
    // highest percentile its sample count supports (0 under 20 samples)
    time("bench.wall_ms_tail", "ms"),
    gauge("bench.wall_tail_pct", "%", Better::Higher),
    gauge("bench.samples", "count", Better::Higher),
    time("bench.analysis_ms_p50", "ms"),
    time("bench.analysis_ms_max", "ms"),
    time("bench.first_verdict_ms_p50", "ms"),
];

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Render `values` in table order as the `"metrics"` object of the result
/// line. Every metric of the table is printed (0 where the workload has
/// nothing to say); a value under a name the table does not know is a bug.
pub fn metrics_json(table: &[MetricDef], values: &Values) -> String {
    for name in values.keys() {
        assert!(
            table.iter().any(|d| d.name == *name),
            "metric {name} is not in the table"
        );
    }
    let fields: Vec<String> = table
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            // `+ 0.0` turns the -0.0 an empty sum yields into 0.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn every_table_metric_is_printed() {
        let mut v = Values::new();
        v.insert("wall_ms_p50", 1.25);
        let json = metrics_json(END_TO_END, &v);
        assert!(json.contains("\"wall_ms_p50\":{\"value\":1.25,\"unit\":\"ms\"}"));
        assert!(json.contains("\"setup_s\":{\"value\":0,\"unit\":\"s\"}"));
    }
}
