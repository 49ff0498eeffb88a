//! The multi-threaded client workload (paper Sec. VII-B "Workload"):
//! every client sequentially issues the Table I APIs, simulating one
//! customer; the harness measures API throughput and the database's abort
//! counters — the inputs to Figs. 10/11.

use crate::app::{ClientState, ECommerceApp};
use crate::ctx::AppCtx;
use crate::fixtures::Fixes;
use crate::locks::AppLocks;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use weseer_concolic::{shared, ExecMode};
use weseer_db::{Database, DbStats};
use weseer_orm::OrmError;

/// Workload parameters. Statements run at in-memory speed: no
/// client↔server round trip is simulated, so an abort wastes exactly the
/// work its transaction had done.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of concurrent clients (paper: 8 / 64 / 128).
    pub clients: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Fix configuration under test.
    pub fixes: Fixes,
    /// How many times an API is retried after a deadlock abort.
    pub retries: usize,
    /// Size of the hot product set clients contend on.
    pub hot_products: i64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            clients: 8,
            duration: Duration::from_millis(500),
            fixes: Fixes::all(),
            retries: 3,
            hot_products: 8,
        }
    }
}

/// Workload outcome.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Successfully completed API calls.
    pub apis_completed: u64,
    /// API calls that gave up (after retries) or failed.
    pub apis_failed: u64,
    /// Wall-clock measurement time.
    pub elapsed: Duration,
    /// Database counters accumulated during the run.
    pub db_stats: DbStats,
    /// Completed APIs per second.
    pub throughput: f64,
    /// Deadlock aborts per second.
    pub aborts_per_sec: f64,
}

/// Run the workload against a fresh database.
pub fn run_workload<A: ECommerceApp + Copy + Send + 'static>(
    app: A,
    config: &WorkloadConfig,
) -> WorkloadResult {
    let db = Database::with_timeout(app.catalog(), Duration::from_secs(2));
    app.seed(&db);
    let locks = AppLocks::new();
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let start = Instant::now();
    let mut handles = Vec::with_capacity(config.clients);
    for client_id in 0..config.clients {
        let db = db.clone();
        let locks = locks.clone();
        let fixes = config.fixes.clone();
        let completed = completed.clone();
        let failed = failed.clone();
        let stop = stop.clone();
        let retries = config.retries;
        let hot = config.hot_products;
        handles.push(std::thread::spawn(move || {
            let engine = shared(ExecMode::Native);
            let mut state = ClientState::new(client_id);
            // One warm-up registration so every thread starts aligned.
            while !stop.load(Ordering::Relaxed) {
                state.next_iteration(hot);
                // Each API list entry is retried on deadlock victim.
                let apis: Vec<&'static str> = {
                    // Table I order per iteration.
                    app_unit_apis(&app)
                };
                'apis: for api in apis {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut attempt = 0;
                    loop {
                        let mut ctx = AppCtx::new(&db, engine.clone(), &fixes, &locks);
                        match app.run_client_api(&mut ctx, api, &mut state) {
                            Ok(()) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e) if e.is_deadlock_victim() && attempt < retries => {
                                attempt += 1;
                                continue;
                            }
                            Err(e) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                                if matches!(e, OrmError::AppAbort(_)) || api == "Register" {
                                    // Without a user the iteration cannot
                                    // continue.
                                    break 'apis;
                                }
                                break;
                            }
                        }
                    }
                }
            }
        }));
    }
    while start.elapsed() < config.duration {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("client thread panicked");
    }
    let elapsed = start.elapsed();
    let apis_completed = completed.load(Ordering::Relaxed);
    let apis_failed = failed.load(Ordering::Relaxed);
    let db_stats = db.stats();
    weseer_obs::incr("workload.runs");
    weseer_obs::add("workload.apis_completed", apis_completed);
    weseer_obs::add("workload.apis_failed", apis_failed);
    weseer_obs::add("workload.deadlock_aborts", db_stats.deadlock_aborts);
    weseer_obs::add("workload.timeout_aborts", db_stats.timeout_aborts);
    weseer_obs::add("workload.statements", db_stats.statements);
    weseer_obs::observe_duration("workload.run_us", elapsed);
    WorkloadResult {
        apis_completed,
        apis_failed,
        elapsed,
        db_stats,
        throughput: apis_completed as f64 / elapsed.as_secs_f64(),
        aborts_per_sec: (db_stats.deadlock_aborts + db_stats.timeout_aborts) as f64
            / elapsed.as_secs_f64(),
    }
}

fn app_unit_apis<A: ECommerceApp>(app: &A) -> Vec<&'static str> {
    // The client workflow mirrors the Table I unit-test order.
    app.unit_tests().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadleaf::Broadleaf;
    use crate::shopizer::Shopizer;

    #[test]
    fn broadleaf_fixed_workload_completes_without_deadlocks() {
        let config = WorkloadConfig {
            clients: 4,
            duration: Duration::from_millis(300),
            fixes: Fixes::all(),
            ..WorkloadConfig::default()
        };
        let r = run_workload(Broadleaf, &config);
        assert!(r.apis_completed > 0, "no APIs completed: {r:?}");
        assert_eq!(
            r.db_stats.deadlock_aborts, 0,
            "fully fixed Broadleaf must not deadlock: {r:?}"
        );
    }

    #[test]
    fn broadleaf_unfixed_workload_suffers_deadlocks() {
        let config = WorkloadConfig {
            clients: 8,
            duration: Duration::from_millis(600),
            fixes: Fixes::none(),
            ..WorkloadConfig::default()
        };
        let r = run_workload(Broadleaf, &config);
        assert!(r.apis_completed > 0);
        assert!(
            r.db_stats.deadlock_aborts > 0,
            "unfixed Broadleaf should abort transactions: {r:?}"
        );
    }

    #[test]
    fn shopizer_fixed_workload_completes_without_deadlocks() {
        let config = WorkloadConfig {
            clients: 4,
            duration: Duration::from_millis(300),
            fixes: Fixes::all(),
            hot_products: 6,
            ..WorkloadConfig::default()
        };
        let r = run_workload(Shopizer, &config);
        assert!(r.apis_completed > 0, "no APIs completed: {r:?}");
        assert_eq!(
            r.db_stats.deadlock_aborts, 0,
            "fully fixed Shopizer must not deadlock: {r:?}"
        );
    }

    #[test]
    fn shopizer_unfixed_workload_suffers_deadlocks() {
        let config = WorkloadConfig {
            clients: 8,
            duration: Duration::from_millis(600),
            fixes: Fixes::none(),
            hot_products: 4,
            ..WorkloadConfig::default()
        };
        let r = run_workload(Shopizer, &config);
        assert!(r.apis_completed > 0);
        assert!(
            r.db_stats.deadlock_aborts > 0,
            "unfixed Shopizer should abort transactions: {r:?}"
        );
    }
}
