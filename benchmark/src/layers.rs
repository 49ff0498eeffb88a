//! Per-layer numbers read from the program's existing `weseer_obs`
//! counters, `_us` histograms and spans (source (b) in the README), plus
//! the ratios derived from them.

use crate::metrics::Values;
use crate::stats;
use weseer_obs::MetricsSnapshot;

/// Sum, in microseconds, of the span histogram whose dotted path ends
/// with `suffix` (the path prefix depends on which thread opened it).
fn span_us(m: &MetricsSnapshot, suffix: &str) -> f64 {
    m.histograms
        .iter()
        .filter(|(k, _)| k.starts_with("span.") && k.ends_with(suffix))
        .map(|(_, h)| h.sum as f64)
        .sum()
}

fn hist_us(m: &MetricsSnapshot, name: &str) -> f64 {
    m.histogram(name).map_or(0.0, |h| h.sum as f64)
}

/// The additive layer values of one obs delta: summing them over the
/// analyses of an interval gives the interval's values.
pub fn additive(m: &MetricsSnapshot) -> Values {
    let c = |name: &str| m.counter(name) as f64;
    let mut v = Values::new();
    v.insert(
        "concolic.collect_ms",
        span_us(m, "pipeline.collect_traces") / 1e3,
    );
    v.insert("concolic.statements", c("concolic.statements"));
    v.insert("concolic.interpreted_ops", c("concolic.interpreted_ops"));
    v.insert("db.lock.acquisitions", c("db.lock.acquisitions"));
    v.insert(
        "analyzer.diagnose_ms",
        span_us(m, "analyzer.diagnose") / 1e3,
    );
    v.insert("analyzer.phase1_us", c("analyzer.phase1_us"));
    v.insert("analyzer.phase2_ms", c("analyzer.phase2_us") / 1e3);
    v.insert("analyzer.phase3_ms", c("analyzer.phase3_us") / 1e3);
    for (name, counter) in [
        ("analyzer.txn_pairs", "analyzer.txn_pairs"),
        ("analyzer.pairs_after_phase1", "analyzer.pairs_after_phase1"),
        ("analyzer.coarse_cycles", "analyzer.coarse_cycles"),
        ("analyzer.prefix_kills", "smt.fastpath.prefix_kill"),
        ("analyzer.fine_candidates", "analyzer.fine_candidates"),
        ("analyzer.smt_sat", "analyzer.smt_sat"),
        ("analyzer.smt_unsat", "analyzer.smt_unsat"),
        ("analyzer.smt_unknown", "analyzer.smt_unknown"),
        ("smt.solve_calls", "smt.solve_calls"),
        ("smt.full_solve", "smt.full_solve"),
        ("smt.t1_sat", "smt.fastpath.t1_sat"),
        ("smt.t1_unsat", "smt.fastpath.t1_unsat"),
        ("smt.fallthrough", "smt.fastpath.fallthrough"),
        ("smt.cdcl.conflicts", "smt.cdcl.conflicts"),
        ("smt.cdcl.propagations", "smt.cdcl.propagations"),
        ("smt.sat_decisions", "smt.sat_decisions"),
        ("smt.theory_iters", "smt.theory_iters"),
        ("smt.arith_conflicts", "smt.arith_conflicts"),
        ("replay.schedules_explored", "replay.schedules_explored"),
        ("replay.schedules_pruned", "replay.schedules_pruned"),
        ("replay.confirmed", "replay.confirmed"),
        ("replay.not_reproduced", "replay.not_reproduced"),
        ("replay.skipped", "replay.skipped"),
        ("store.hit", "store.hit"),
        ("store.stale", "store.stale"),
        ("store.miss", "store.miss"),
    ] {
        v.insert(name, c(counter));
    }
    v.insert(
        "smt.budget_exhausted",
        c("smt.sat_budget_exhausted")
            + c("smt.arith_budget_exhausted")
            + c("smt.theory_iters_exhausted"),
    );
    v.insert("smt.solve_ms", hist_us(m, "smt.solve_us") / 1e3);
    v.insert("smt.full_solve_ms", hist_us(m, "smt.full_solve_us") / 1e3);
    v.insert("smt.t0_ms", hist_us(m, "smt.fastpath.t0_us") / 1e3);
    v.insert("smt.t1_ms", hist_us(m, "smt.fastpath.t1_us") / 1e3);
    v.insert("smt.prefix_ms", hist_us(m, "smt.fastpath.prefix_us") / 1e3);
    v.insert("replay.ms", span_us(m, "pipeline.replay") / 1e3);
    v.insert("core.analyze_ms", span_us(m, "span.pipeline.analyze") / 1e3);
    v
}

/// Distribution readings that cannot be summed: taken once over the whole
/// traced phase. The obs histograms have power-of-two buckets, so these
/// are bucket midpoints, not exact order statistics.
pub fn distributions(m: &MetricsSnapshot, v: &mut Values) {
    if let Some(h) = m.histogram("smt.full_solve_us") {
        v.insert("smt.full_solve_us_p50", h.p50() as f64);
        v.insert("smt.full_solve_us_max", h.max as f64);
    }
    if let Some(h) = m.histogram("serve.ingest_lag_us") {
        v.insert("serve.ingest_lag_us_p50", h.p50() as f64);
    }
}

/// The median operation of a phase, metric by metric (operations of one
/// workload are alike, and exact counts are the same in every one).
pub fn median_of(ops: &[Values]) -> Values {
    let mut out = Values::new();
    for name in ops.first().into_iter().flat_map(|first| first.keys()) {
        let column: Vec<f64> = ops
            .iter()
            .map(|o| o.get(name).copied().unwrap_or(0.0))
            .collect();
        out.insert(name, stats::median(&column));
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Ratios and differences of already-aggregated values. `threads` is the
/// number of analysis workers the diagnosis could keep busy.
pub fn derive(v: &mut Values, threads: f64) {
    let g = |v: &Values, name: &str| v.get(name).copied().unwrap_or(0.0);
    // On a store hit the analyzer restores the phase-2/3 time the *filling*
    // run recorded, so with any hit these counters are not this run's
    // cost. Report them only where every lookup missed (the cold runs).
    if g(v, "store.hit") + g(v, "store.stale") > 0.0 {
        v.insert("analyzer.phase2_ms", 0.0);
        v.insert("analyzer.phase3_ms", 0.0);
    }
    let encode = g(v, "analyzer.phase3_ms") - g(v, "smt.solve_ms");
    v.insert("analyzer.encode_ms", encode.max(0.0));
    v.insert(
        "analyzer.worker_util",
        ratio(
            g(v, "analyzer.phase2_ms") + g(v, "analyzer.phase3_ms"),
            threads * g(v, "analyzer.diagnose_ms"),
        ),
    );
    v.insert(
        "analyzer.fine_yield",
        ratio(g(v, "analyzer.smt_sat"), g(v, "analyzer.fine_candidates")),
    );
    let calls = g(v, "smt.solve_calls");
    let fast = if calls == 0.0 {
        0.0
    } else {
        1.0 - g(v, "smt.full_solve") / calls
    };
    v.insert("smt.fastpath_share", fast);
    v.insert(
        "replay.us_per_schedule",
        ratio(g(v, "replay.ms") * 1e3, g(v, "replay.schedules_explored")),
    );
    let replayed =
        g(v, "replay.confirmed") + g(v, "replay.not_reproduced") + g(v, "replay.skipped");
    v.insert(
        "replay.confirm_share",
        ratio(g(v, "replay.confirmed"), replayed),
    );
    let lookups = g(v, "store.hit") + g(v, "store.stale") + g(v, "store.miss");
    v.insert("store.hit_share", ratio(g(v, "store.hit"), lookups));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_median_operation_metric_by_metric() {
        let op = |x: f64| Values::from([("smt.solve_ms", x), ("smt.solve_calls", 33.0)]);
        let ops = [op(1.0), op(2.0), op(9.0)];
        assert_eq!(median_of(&ops)["smt.solve_ms"], 2.0);
        assert_eq!(median_of(&ops)["smt.solve_calls"], 33.0);
        assert!(median_of(&[]).is_empty());
    }

    #[test]
    fn derived_ratios_have_their_bases_and_survive_zero() {
        let mut v = Values::from([
            ("analyzer.phase2_ms", 10.0),
            ("analyzer.phase3_ms", 990.0),
            ("smt.solve_ms", 700.0),
            ("analyzer.diagnose_ms", 625.0),
            ("analyzer.smt_sat", 124.0),
            ("analyzer.fine_candidates", 162.0),
            ("smt.solve_calls", 162.0),
            ("smt.full_solve", 38.0),
        ]);
        derive(&mut v, 2.0);
        assert_eq!(v["analyzer.encode_ms"], 290.0);
        assert_eq!(v["analyzer.worker_util"], 0.8);
        assert_eq!(v["analyzer.fine_yield"], 124.0 / 162.0);
        assert_eq!(v["smt.fastpath_share"], 1.0 - 38.0 / 162.0);
        assert_eq!(v["store.hit_share"], 0.0);
        assert_eq!(v["replay.us_per_schedule"], 0.0);
        // With any store hit the phase times are the filling run's, not
        // this run's: they and what derives from them read 0.
        v.insert("store.hit", 3.0);
        v.insert("store.stale", 1.0);
        derive(&mut v, 2.0);
        assert_eq!(v["store.hit_share"], 0.75);
        assert_eq!(v["analyzer.phase3_ms"], 0.0);
        assert_eq!(v["analyzer.encode_ms"], 0.0);
        assert_eq!(v["analyzer.worker_util"], 0.0);
        let mut empty = Values::new();
        derive(&mut empty, 2.0);
        assert!(empty.values().all(|x| *x == 0.0));
    }
}
