//! The concolic-execution overhead experiment (paper Table III):
//! per-API unit-test execution time under the original (native) engine,
//! the interpretive engine, and the full concolic engine.

use std::time::{Duration, Instant};
use weseer_apps::app::{collect_trace, run_chain};
use weseer_apps::{AppLocks, ECommerceApp, Fixes};
use weseer_concolic::{ExecMode, LibraryMode};

/// One Table III row.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// API / unit-test name.
    pub api: String,
    /// Native (JIT-equivalent) execution time.
    pub original: Duration,
    /// Interpretive execution (tracing bookkeeping, no symbolic state).
    pub interpretive: Duration,
    /// Full concolic execution.
    pub concolic: Duration,
}

impl OverheadRow {
    /// Interpretive / original slowdown.
    pub fn interpretive_factor(&self) -> f64 {
        ratio(self.interpretive, self.original)
    }

    /// Concolic / original slowdown.
    pub fn concolic_factor(&self) -> f64 {
        ratio(self.concolic, self.original)
    }
}

fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64().max(1e-9)
}

/// Measure Table III for an application.
///
/// Each mode runs the unit-test chain ([`run_chain`]) `repetitions` times
/// on fresh databases; per-API times are the minimum over repetitions
/// (steady-state, like the paper's single measured run on a warm JVM).
pub fn measure_overhead(app: &dyn ECommerceApp, repetitions: usize) -> Vec<OverheadRow> {
    let tests = app.unit_tests();
    let mut best: Vec<[Duration; 3]> = vec![[Duration::MAX; 3]; tests.len()];
    let fixes = Fixes::none();
    let locks = AppLocks::new();
    for (mode_idx, mode) in [ExecMode::Native, ExecMode::Interpretive, ExecMode::Concolic]
        .into_iter()
        .enumerate()
    {
        for _ in 0..repetitions.max(1) {
            let mut slots = best.iter_mut();
            run_chain(app, None, |test, db| {
                let start = Instant::now();
                let (_trace, _ctx, result) =
                    collect_trace(app, test, db, &fixes, &locks, mode, LibraryMode::Modeled);
                let elapsed = start.elapsed();
                result.unwrap_or_else(|e| panic!("unit test {test} failed: {e}"));
                let slot = &mut slots.next().expect("one slot per unit test")[mode_idx];
                *slot = (*slot).min(elapsed);
            });
        }
    }
    tests
        .iter()
        .zip(best)
        .map(|(api, [original, interpretive, concolic])| OverheadRow {
            api: api.to_string(),
            original,
            interpretive,
            concolic,
        })
        .collect()
}

/// The path-condition pruning experiment (paper Sec. IV: Broadleaf's Ship
/// unit test drops from 656K to 2.7K conditions once driver, built-in,
/// and container internals are modeled instead of executed concolically).
#[derive(Debug, Clone)]
pub struct PruningRow {
    /// API name.
    pub api: String,
    /// Path conditions recorded with library internals executed
    /// concolically (naive).
    pub naive: usize,
    /// Path conditions recorded with library modeling (pruned).
    pub modeled: usize,
}

impl PruningRow {
    /// naive / modeled reduction factor.
    pub fn reduction(&self) -> f64 {
        self.naive as f64 / (self.modeled.max(1)) as f64
    }
}

/// Measure the pruning experiment over every unit test of an app: the
/// unit-test chain, traced concolically once per library mode.
pub fn measure_pruning(app: &dyn ECommerceApp) -> Vec<PruningRow> {
    let fixes = Fixes::none();
    let locks = AppLocks::new();
    let path_conds = |lib_mode| {
        let mut per_api = Vec::new();
        run_chain(app, None, |test, db| {
            let (trace, _ctx, result) =
                collect_trace(app, test, db, &fixes, &locks, ExecMode::Concolic, lib_mode);
            result.unwrap_or_else(|e| panic!("unit test {test} failed: {e}"));
            // Each test gets a fresh engine inside collect_trace, so the
            // engine's cumulative stats are per test.
            per_api.push(trace.stats.total_path_conds());
        });
        per_api
    };
    let naive = path_conds(LibraryMode::Naive);
    let modeled = path_conds(LibraryMode::Modeled);
    app.unit_tests()
        .iter()
        .zip(naive.into_iter().zip(modeled))
        .map(|(api, (naive, modeled))| PruningRow {
            api: api.to_string(),
            naive,
            modeled,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_apps::Broadleaf;

    /// Engine work over one Broadleaf unit-test chain in `mode`:
    /// (interpreted operations, symbolic operations).
    fn chain_work(mode: ExecMode) -> (u64, u64) {
        let fixes = Fixes::none();
        let locks = AppLocks::new();
        let mut work = (0, 0);
        run_chain(&Broadleaf, None, |test, db| {
            let (trace, _ctx, result) = collect_trace(
                &Broadleaf,
                test,
                db,
                &fixes,
                &locks,
                mode,
                LibraryMode::Modeled,
            );
            result.unwrap_or_else(|e| panic!("unit test {test} failed: {e}"));
            work.0 += trace.stats.interpreted_ops;
            work.1 += trace.stats.sym_ops;
        });
        work
    }

    #[test]
    fn overhead_modes_are_ordered() {
        assert_eq!(measure_overhead(&Broadleaf, 1).len(), 7);
        // Table III's ordering, on the work each mode does rather than on
        // its wall time: native interprets nothing, interpretive
        // dispatches every operation, concolic also tracks symbols.
        let [native, interpretive, concolic] =
            [ExecMode::Native, ExecMode::Interpretive, ExecMode::Concolic].map(chain_work);
        assert_eq!(native, (0, 0), "native runs no engine");
        assert!(
            interpretive.0 > 0 && interpretive.1 == 0,
            "interpretive {interpretive:?} dispatches without symbols"
        );
        assert!(
            concolic.0 > interpretive.0 && concolic.1 > 0,
            "concolic {concolic:?} must do more than interpretive {interpretive:?}"
        );
        assert_eq!([interpretive, concolic], [(805, 0), (1036, 12)]);
    }

    #[test]
    fn pruning_reduces_path_conditions() {
        let rows = measure_pruning(&Broadleaf);
        let ship = rows.iter().find(|r| r.api == "Ship").expect("Ship row");
        assert!(
            ship.naive > 10 * ship.modeled.max(1),
            "expected an order-of-magnitude reduction, got {} → {}",
            ship.naive,
            ship.modeled
        );
        // Every API prunes at least somewhat.
        for r in &rows {
            assert!(r.naive >= r.modeled, "{r:?}");
        }
    }
}
