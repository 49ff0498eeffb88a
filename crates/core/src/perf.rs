//! The Figs. 10/11 performance experiments: API throughput of each
//! application across client counts and fix configurations.

use std::time::Duration;
use weseer_apps::workload::{run_workload, WorkloadConfig, WorkloadResult};
use weseer_apps::{ECommerceApp, Fix, Fixes};

/// One measured bar of Fig. 10/11.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Configuration label ("enable all", "disable all", "disable f5", …).
    pub label: String,
    /// Client count.
    pub clients: usize,
    /// Result.
    pub result: WorkloadResult,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Client counts to sweep (paper: 8, 64, 128).
    pub client_counts: Vec<usize>,
    /// Measurement duration per point.
    pub duration: Duration,
    /// Hot-product set size.
    pub hot_products: i64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            client_counts: vec![8, 64, 128],
            duration: Duration::from_secs(2),
            hot_products: 8,
        }
    }
}

/// The fix configurations of Fig. 10 (Broadleaf) / Fig. 11 (Shopizer):
/// enable all, disable all, then each app-relevant fix disabled in turn.
pub fn fix_configurations(app_fixes: &[Fix]) -> Vec<(String, Fixes)> {
    let mut out = vec![
        ("enable all".to_string(), Fixes::all()),
        ("disable all".to_string(), Fixes::none()),
    ];
    for fix in app_fixes {
        out.push((format!("disable {fix}"), Fixes::all_but(*fix)));
    }
    out
}

/// Run the full sweep for one application.
pub fn run_perf_sweep<A: ECommerceApp + Copy + Send + 'static>(
    app: A,
    app_fixes: &[Fix],
    config: &PerfConfig,
) -> Vec<PerfPoint> {
    let mut out = Vec::new();
    for (label, fixes) in fix_configurations(app_fixes) {
        for &clients in &config.client_counts {
            let wc = WorkloadConfig {
                clients,
                duration: config.duration,
                fixes: fixes.clone(),
                retries: 3,
                hot_products: config.hot_products,
            };
            let result = run_workload(app, &wc);
            out.push(PerfPoint {
                label: label.clone(),
                clients,
                result,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_apps::Broadleaf;

    #[test]
    fn fix_configurations_cover_table() {
        let cfgs = fix_configurations(&Fix::BROADLEAF);
        assert_eq!(cfgs.len(), 10); // enable/disable all + 8 fixes
        assert_eq!(cfgs[0].0, "enable all");
        assert!(cfgs.iter().any(|(l, _)| l == "disable f5"));
    }

    #[test]
    fn fixed_beats_unfixed_under_contention() {
        // A scaled-down Fig. 10 sanity check: with contention, "enable
        // all" must produce zero deadlock aborts and waste less of its
        // work on rolled-back transactions than "disable all".
        let config = PerfConfig {
            client_counts: vec![8],
            duration: Duration::from_millis(600),
            hot_products: 6,
        };
        let points = run_perf_sweep(Broadleaf, &[], &config);
        assert_eq!(points.len(), 2);
        let enabled = &points[0];
        let disabled = &points[1];
        assert_eq!(enabled.result.db_stats.deadlock_aborts, 0);
        assert!(disabled.result.db_stats.deadlock_aborts > 0);
        // Aborted work per committed transaction, compared as counts
        // (cross-multiplied), not as wall-clock throughput.
        let (e, d) = (&enabled.result.db_stats, &disabled.result.db_stats);
        assert!(e.commits > 0, "enable all commits work");
        assert!(
            e.rollbacks * d.commits < d.rollbacks * e.commits,
            "enable all {}/{} rollbacks per commit, disable all {}/{}",
            e.rollbacks,
            e.commits,
            d.rollbacks,
            d.commits
        );
    }
}
