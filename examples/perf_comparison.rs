//! A scaled-down Fig. 10/11 run: measure throughput and deadlock aborts of
//! both applications with fixes on vs. off.
//!
//! ```sh
//! cargo run --release --example perf_comparison
//! ```

use std::time::Duration;
use weseer::apps::workload::{run_workload, WorkloadConfig, WorkloadResult};
use weseer::apps::{Broadleaf, Fixes, Shopizer};

fn config(clients: usize, fixes: Fixes) -> WorkloadConfig {
    WorkloadConfig {
        clients,
        duration: Duration::from_millis(800),
        fixes,
        retries: 3,
        hot_products: 8,
    }
}

fn show(app: &str, label: &str, r: &WorkloadResult) {
    println!(
        "  {app:<9} {label:<12} {:>8.0} API/s  {:>8.0} aborts/s  ({} commits, {} rollbacks)",
        r.throughput, r.aborts_per_sec, r.db_stats.commits, r.db_stats.rollbacks,
    );
}

fn main() {
    for clients in [8usize, 32] {
        println!("== {clients} clients ==");
        for (label, fixes) in [("enable all", Fixes::all()), ("disable all", Fixes::none())] {
            let r = run_workload(Broadleaf, &config(clients, fixes));
            show("broadleaf", label, &r);
        }
        for (label, fixes) in [("enable all", Fixes::all()), ("disable all", Fixes::none())] {
            let r = run_workload(Shopizer, &config(clients, fixes));
            show("shopizer", label, &r);
        }
        println!();
    }
    println!("paper headline: fixing all deadlocks yields up to 39.5x (Broadleaf) and");
    println!("4.5x (Shopizer) throughput at 128 clients, with aborts dropping 904 -> 0.");
}
