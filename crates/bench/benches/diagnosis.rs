//! Diagnosis-pipeline benchmarks, including the DESIGN.md ablations:
//! the three-phase funnel vs. the brute-force encoding (Sec. V-B), and
//! fine-grained vs. coarse-only analysis.

use criterion::{criterion_group, criterion_main, Criterion};
use weseer_analyzer::{coarse_cycle_count, diagnose, AnalyzerConfig, CollectedTrace};
use weseer_apps::{Broadleaf, ECommerceApp, Shopizer};
use weseer_core::Weseer;

fn traces() -> Vec<CollectedTrace> {
    let weseer = Weseer::new();
    let (traces, _db) = weseer.collect_traces(&Shopizer, &weseer_apps::Fixes::none());
    traces
}

fn broadleaf_traces() -> Vec<CollectedTrace> {
    let weseer = Weseer::new();
    let (traces, _db) = weseer.collect_traces(&Broadleaf, &weseer_apps::Fixes::none());
    traces
}

fn bench(c: &mut Criterion) {
    let catalog = Shopizer.catalog();
    let mut g = c.benchmark_group("diagnosis");
    g.sample_size(10);

    g.bench_function("collect_shopizer_traces", |b| b.iter(traces));

    let ts = traces();
    g.bench_function("three_phase_full", |b| {
        b.iter(|| {
            let d = diagnose(&catalog, &ts, &AnalyzerConfig::default());
            assert!(!d.deadlocks.is_empty());
        })
    });

    g.bench_function("ablation_no_filter_phases", |b| {
        let config = AnalyzerConfig {
            skip_filter_phases: true,
            ..AnalyzerConfig::default()
        };
        b.iter(|| {
            let d = diagnose(&catalog, &ts, &config);
            assert!(!d.deadlocks.is_empty());
        })
    });

    g.bench_function("ablation_no_range_locks", |b| {
        let config = AnalyzerConfig {
            use_range_locks: false,
            ..AnalyzerConfig::default()
        };
        b.iter(|| {
            let _ = diagnose(&catalog, &ts, &config);
        })
    });

    g.bench_function("coarse_baseline_only", |b| {
        b.iter(|| {
            let n = coarse_cycle_count(&ts);
            assert!(n > 0);
        })
    });

    // Scheduler sweep on the Broadleaf-scale workload (the larger trace
    // set): same diagnosis, varying worker counts. Output is identical
    // for every point — only the wall clock moves.
    let bl_catalog = Broadleaf.catalog();
    let bl = broadleaf_traces();
    for threads in [1, 2, 4, 8] {
        let config = AnalyzerConfig {
            threads,
            ..AnalyzerConfig::default()
        };
        g.bench_function(format!("broadleaf_threads{threads}"), |b| {
            b.iter(|| {
                let d = diagnose(&bl_catalog, &bl, &config);
                assert!(!d.deadlocks.is_empty());
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
