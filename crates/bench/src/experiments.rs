//! The per-experiment reproduction drivers: one function per table/figure
//! of the paper, each returning rendered text (consumed by the
//! `reproduce` binary and by EXPERIMENTS.md). The drivers that run the
//! analyzer take the one [`Weseer`] the binary built from its flags.

use crate::render::{bar, table};
use std::fmt::Write as _;
use std::time::Duration;
use weseer_apps::{Broadleaf, ECommerceApp, Fix, KnownDeadlock, Shopizer};
use weseer_core::{
    measure_overhead, measure_pruning, run_perf_sweep, PerfConfig, Weseer, FUNNEL_STAGES,
};

/// Table I: the target APIs with inputs and invocation counts.
pub fn table1() -> String {
    let rows = vec![
        vec![
            "Register".into(),
            "Register one user".into(),
            "username, email, password, password for confirmation".into(),
            "1".into(),
            "1".into(),
        ],
        vec![
            "Add".into(),
            "Add one product to cart".into(),
            "userId, productId".into(),
            "3".into(),
            "3".into(),
        ],
        vec![
            "Ship".into(),
            "Edit user's shipment information".into(),
            "userId, shipment address, ...".into(),
            "1".into(),
            "1".into(),
        ],
        vec![
            "Payment".into(),
            "Edit user's payment information".into(),
            "userId, payment method, amount".into(),
            "1".into(),
            "-".into(),
        ],
        vec![
            "Checkout".into(),
            "Checkout the order".into(),
            "userId".into(),
            "1".into(),
            "1".into(),
        ],
    ];
    let mut out = String::from("Table I: target APIs\n");
    out.push_str(&table(
        &["API", "Description", "Input", "Broadleaf", "Shopizer"],
        &rows,
    ));
    // Verify the simulated apps actually expose these unit tests.
    let bl: Vec<&str> = Broadleaf.unit_tests().to_vec();
    let sz: Vec<&str> = Shopizer.unit_tests().to_vec();
    let _ = writeln!(out, "\nBroadleaf unit tests: {bl:?}");
    let _ = writeln!(out, "Shopizer unit tests:  {sz:?}");
    out
}

/// Table II: run WeSEER on both apps and print the found deadlock rows.
pub fn table2(weseer: &Weseer) -> String {
    let mut out = String::from("Table II: deadlocks found by WeSEER\n");
    let mut rows = Vec::new();
    let mut found_ids = 0usize;
    for analysis in [weseer.analyze(&Broadleaf), weseer.analyze(&Shopizer)] {
        for row in KnownDeadlock::TABLE2 {
            if row.app() != analysis.app {
                continue;
            }
            let count = analysis.groups.get(&row).copied().unwrap_or(0);
            let status = if count > 0 { "FOUND" } else { "missing" };
            if count > 0 {
                found_ids += row.id_count();
            }
            rows.push(vec![
                analysis.app.clone(),
                row.ids().to_string(),
                row.description().to_string(),
                row.fix().map(|f| f.label()).unwrap_or_default(),
                row.fix()
                    .map(|f| f.description().to_string())
                    .unwrap_or_default(),
                format!("{status} ({count} cycles)"),
            ]);
        }
        let fp = analysis
            .groups
            .get(&KnownDeadlock::FpAppLocked)
            .copied()
            .unwrap_or(0);
        rows.push(vec![
            analysis.app.clone(),
            "(fp)".into(),
            "app-level-locked logic (known false positives)".into(),
            "-".into(),
            "-".into(),
            format!("{fp} cycles"),
        ]);
    }
    out.push_str(&table(
        &[
            "App",
            "Id",
            "Deadlock-prone txn",
            "Fix",
            "Fixing approach",
            "WeSEER",
        ],
        &rows,
    ));
    let _ = writeln!(
        out,
        "\npaper: 18 deadlocks (d1–d18); reproduced: {found_ids}/18 covered by found rows"
    );
    out
}

/// Sec. VII-B baseline: coarse-grained STEPDAD/REDACT cycle counts vs
/// WeSEER's confirmed deadlocks.
pub fn baseline(weseer: &Weseer) -> String {
    let mut out = String::from("Coarse-grained baseline (STEPDAD/REDACT) vs WeSEER fine-grained\n");
    let mut rows = Vec::new();
    for analysis in [weseer.analyze(&Broadleaf), weseer.analyze(&Shopizer)] {
        rows.push(vec![
            analysis.app.clone(),
            analysis.coarse_cycles.to_string(),
            analysis.diagnosis.deadlocks.len().to_string(),
            analysis.rows_found().len().to_string(),
        ]);
    }
    out.push_str(&table(
        &[
            "App",
            "coarse hold-and-wait cycles",
            "SMT-confirmed cycles",
            "Table II rows",
        ],
        &rows,
    ));
    out.push_str(
        "\npaper: the coarse approach emits 18,384 cycles on the authors' traces — \
         impractical to triage; the fine-grained phases cut this to the real deadlocks.\n",
    );
    out
}

/// Table III: unit-test execution time per engine mode.
pub fn table3(repetitions: usize) -> String {
    let rows_data = measure_overhead(&Broadleaf, repetitions);
    let mut out = String::from(
        "Table III: time (microseconds) executing Broadleaf unit tests per engine mode\n",
    );
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.api.clone(),
                r.original.as_micros().to_string(),
                r.interpretive.as_micros().to_string(),
                r.concolic.as_micros().to_string(),
                format!("{:.1}x", r.interpretive_factor()),
                format!("{:.1}x", r.concolic_factor()),
            ]
        })
        .collect();
    out.push_str(&table(
        &[
            "API",
            "Original",
            "Interpretive",
            "Interp+Concolic",
            "interp/orig",
            "conc/orig",
        ],
        &rows,
    ));
    out.push_str(
        "\npaper (ms, JVM-scale): Original 9–822, Interpretive ~5–10x, Concolic ~4–6x on top;\n\
         shape check: Concolic > Interpretive > Original for the suite totals.\n",
    );
    out
}

/// Sec. IV pruning: path conditions with vs without library modeling.
pub fn pruning() -> String {
    let rows_data = measure_pruning(&Broadleaf);
    let mut out = String::from(
        "Path-condition pruning (Sec. IV): library modeling on Broadleaf unit tests\n",
    );
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.api.clone(),
                r.naive.to_string(),
                r.modeled.to_string(),
                format!("{:.0}x", r.reduction()),
            ]
        })
        .collect();
    out.push_str(&table(
        &["API", "naive (unmodeled)", "modeled", "reduction"],
        &rows,
    ));
    out.push_str(
        "\npaper: Broadleaf Ship drops 656K -> 2.7K (~243x) once drivers, built-ins and\n\
         containers are modeled; the simulated app shows the same order-of-magnitude cut.\n",
    );
    out
}

/// Figs. 10/11: throughput per client count per fix configuration.
pub fn figure(app_name: &str, quick: bool) -> String {
    let config = if quick {
        PerfConfig {
            client_counts: vec![8, 32],
            duration: Duration::from_millis(700),
            hot_products: 8,
        }
    } else {
        PerfConfig::default()
    };
    let points = match app_name {
        "broadleaf" => run_perf_sweep(Broadleaf, &Fix::BROADLEAF, &config),
        "shopizer" => run_perf_sweep(Shopizer, &Fix::SHOPIZER, &config),
        other => panic!("unknown app {other}"),
    };
    let fig = if app_name == "broadleaf" {
        "Fig. 10"
    } else {
        "Fig. 11"
    };
    let mut out =
        format!("{fig}: {app_name} throughput (API/s) by client count and fix configuration\n");
    let max = points
        .iter()
        .map(|p| p.result.throughput)
        .fold(0.0_f64, f64::max);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                p.clients.to_string(),
                format!("{:.0}", p.result.throughput),
                format!("{:.0}", p.result.aborts_per_sec),
                bar(p.result.throughput, max, 30),
            ]
        })
        .collect();
    out.push_str(&table(
        &["config", "clients", "API/s", "aborts/s", ""],
        &rows,
    ));
    // Headline factor, like the paper's 39.5x / 4.5x.
    let best_clients = *config.client_counts.last().unwrap();
    let tput = |label: &str| {
        points
            .iter()
            .find(|p| p.label == label && p.clients == best_clients)
            .map(|p| p.result.throughput)
            .unwrap_or(0.0)
    };
    let enabled = tput("enable all");
    let disabled = tput("disable all");
    let _ = writeln!(
        out,
        "\nenable-all vs disable-all at {best_clients} clients: {:.1}x improvement \
         (paper: 39.5x Broadleaf / 4.5x Shopizer at 128 clients)",
        enabled / disabled.max(1e-9),
    );
    out
}

/// Observability export: run the full diagnosis pipeline on both apps
/// with the [`weseer_obs`] registry enabled and return
/// `(human_report, json_lines)` — the funnel/timing tables for stdout and
/// the per-app JSON-lines export for `--metrics-out`.
pub fn metrics_report(weseer: &Weseer) -> (String, String) {
    weseer_obs::set_enabled(true);
    let mut human = String::new();
    let mut json = String::new();
    for analysis in [weseer.analyze(&Broadleaf), weseer.analyze(&Shopizer)] {
        human.push_str(&weseer_obs::report::render_report(
            &analysis.metrics,
            &format!("{} diagnosis metrics", analysis.app),
            FUNNEL_STAGES,
        ));
        // The tiered fast path (Sec. "Tiered solving" in the README):
        // which queries tier 1 answered with a model, and which went on
        // to a full solve.
        let c = |name: &str| analysis.metrics.counter(name);
        let _ = writeln!(
            human,
            "SMT fast path: {} tier-1 models, {} fell through \
             ({} full solves; tier-1 arm search capped on {}), \
             {} models rejected by the SAT gate",
            c("smt.fastpath.t1_sat"),
            c("smt.fastpath.fallthrough"),
            c("smt.full_solve"),
            c("smt.fastpath.t1_capped"),
            c("smt.model_rejected"),
        );
        // CDCL internals of the full solves that did run: how hard the
        // persistent SAT core worked and how much it carried across
        // queries (learned clauses survive within each pair's solver).
        let _ = writeln!(
            human,
            "CDCL core: {} conflicts, {} learned clauses, {} restarts, \
             {} propagations, {} DB reductions",
            c("smt.cdcl.conflicts"),
            c("smt.cdcl.learned"),
            c("smt.cdcl.restarts"),
            c("smt.cdcl.propagations"),
            c("smt.cdcl.db_reductions"),
        );
        // Warm-vs-cold funnel of the incremental store (present only when
        // an analysis ran against one, i.e. with `--store`).
        let (sh, sm) = (c("store.hit"), c("store.miss"));
        if sh + sm > 0 {
            let temperature = if sm == 0 {
                "warm: every phase reused"
            } else if sh == 0 {
                "cold: store filled from scratch"
            } else {
                "mixed: changed entries recomputed"
            };
            let _ = writeln!(
                human,
                "incremental store: {sh} hits / {sm} misses ({temperature})",
            );
        }
        human.push('\n');
        json.push_str(&analysis.metrics.to_json_lines(Some(&analysis.app)));
    }
    (human, json)
}

/// Witness replay over both applications: every diagnosed cycle is
/// replayed for a concrete deadlocking schedule ([`weseer_replay`]).
/// Returns `(human report, witness JSON lines)`; the JSON side carries one
/// line per report and is byte-for-byte deterministic across runs and
/// thread counts (CI diffs it).
pub fn witness_report(weseer: &Weseer) -> (String, String) {
    let weseer = weseer.clone().with_replay();
    let mut human = String::new();
    let mut json = String::new();
    for analysis in [weseer.analyze(&Broadleaf), weseer.analyze(&Shopizer)] {
        let summary = analysis
            .replay
            .as_ref()
            .expect("with_replay() populates the summary");
        let stats = &analysis.diagnosis.stats;
        let (explored, pruned) = summary.schedule_totals();
        let _ = writeln!(human, "== {} witness replay ==", analysis.app);
        let _ = writeln!(
            human,
            "funnel: {} txn pairs -> {} after phase 1 -> {} coarse cycles -> \
             {} fine candidates -> {} SAT -> {} replay-confirmed \
             ({} not reproduced, {} skipped)",
            stats.txn_pairs,
            stats.pairs_after_phase1,
            stats.coarse_cycles,
            stats.fine_candidates,
            stats.smt_sat,
            summary.confirmed(),
            summary.not_reproduced(),
            summary.skipped(),
        );
        // A budget-shaped "not reproduced" is said out loud (never on the
        // two apps today: every one of them is a genuine exhaustion).
        let cut = match summary.budget_hits() {
            0 => String::new(),
            n => format!("; {n} not-reproduced report(s) stopped at the exploration budget"),
        };
        let _ = writeln!(
            human,
            "schedules: {explored} explored, {pruned} pruned by sleep sets{cut}"
        );
        let mut first_witness = true;
        for (report, verdict) in analysis.diagnosis.deadlocks.iter().zip(&summary.verdicts) {
            let _ = writeln!(
                human,
                "  {} <-> {}: {}",
                report.cycle.a_api,
                report.cycle.b_api,
                verdict.tag()
            );
            let witness_json = match verdict.witness() {
                Some(w) => {
                    if first_witness {
                        // Show one full schedule per app in the human report.
                        human.push_str(&indent(&w.render(), "    "));
                        first_witness = false;
                    }
                    w.to_json()
                }
                None => "null".to_string(),
            };
            let _ = writeln!(
                json,
                "{{\"app\":\"{}\",\"a_api\":\"{}\",\"b_api\":\"{}\",\"verdict\":\"{}\",\"witness\":{}}}",
                analysis.app,
                report.cycle.a_api,
                report.cycle.b_api,
                verdict.tag(),
                witness_json
            );
        }
        human.push('\n');
    }
    (human, json)
}

/// `--anomaly-out`: run the diagnosis pipeline on both apps at the
/// session isolation level (`--isolation`) and return `(human report,
/// anomaly JSON lines)` — one line per app with the candidate/verdict
/// grid from the static anomaly oracle and the interleaving explorer, or
/// `null` under the default serializable level
/// (the anomaly stage only runs under weak isolation, keeping the
/// default output byte-identical to the pre-MVCC tool).
pub fn anomaly_report(weseer: &Weseer) -> (String, String) {
    let mut human = String::new();
    let mut json = String::new();
    for analysis in [weseer.analyze(&Broadleaf), weseer.analyze(&Shopizer)] {
        match &analysis.anomalies {
            Some(a) => {
                let _ = writeln!(
                    human,
                    "== {} anomaly screen at {} ==",
                    analysis.app, a.isolation
                );
                let _ = writeln!(
                    human,
                    "{} candidates, {} confirmed",
                    a.candidates.len(),
                    a.confirmed().len(),
                );
                for (c, v) in a.candidates.iter().zip(&a.verdicts) {
                    let _ = writeln!(
                        human,
                        "  {} on {}: {} vs {} -> {}",
                        c.kind,
                        c.table,
                        c.a_api,
                        c.b_api,
                        v.tag()
                    );
                }
                let _ = writeln!(
                    json,
                    "{{\"app\":\"{}\",\"anomalies\":{}}}",
                    analysis.app,
                    a.to_json()
                );
            }
            None => {
                let _ = writeln!(
                    human,
                    "== {} anomaly screen == serializable 2PL: stage skipped",
                    analysis.app
                );
                let _ = writeln!(json, "{{\"app\":\"{}\",\"anomalies\":null}}", analysis.app);
            }
        }
    }
    (human, json)
}

/// `--verdicts-out`: both apps' batch-pipeline verdicts rendered in the
/// serving daemon's wire format ([`weseer_serve::verdict_line`]),
/// broadleaf first then shopizer — the exact bytes `GET /analyze/<app>`
/// streams, so CI can byte-diff daemon output against this file.
pub fn batch_verdicts(weseer: &Weseer) -> (String, String) {
    let mut human = String::from("Batch verdicts (serving wire format):\n");
    let mut lines = String::new();
    for &name in &["broadleaf", "shopizer"] {
        let app: &dyn ECommerceApp = match name {
            "broadleaf" => &Broadleaf,
            _ => &Shopizer,
        };
        let analysis = weseer.analyze(app);
        let _ = writeln!(
            human,
            "  {name}: {} verdicts",
            analysis.diagnosis.deadlocks.len()
        );
        for r in &analysis.diagnosis.deadlocks {
            lines.push_str(&weseer_serve::verdict_line(name, r));
        }
    }
    (human, lines)
}

fn indent(text: &str, pad: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let _ = writeln!(out, "{pad}{line}");
    }
    out
}

/// The aborts-per-second claim of Sec. VII-D (904 → 0 at 128 clients).
pub fn aborts_claim(quick: bool) -> String {
    let clients = if quick { 16 } else { 128 };
    let config = PerfConfig {
        client_counts: vec![clients],
        duration: if quick {
            Duration::from_millis(700)
        } else {
            Duration::from_secs(2)
        },
        hot_products: 8,
    };
    let points = run_perf_sweep(Broadleaf, &[], &config);
    let enabled = &points[0];
    let disabled = &points[1];
    format!(
        "Sec. VII-D aborts/second, Broadleaf @ {clients} clients:\n\
         disable all: {:.0} aborts/s   enable all: {:.0} aborts/s\n\
         (paper: 904 -> 0 at 128 clients)\n",
        disabled.result.aborts_per_sec, enabled.result.aborts_per_sec
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_static_content() {
        let t = table1();
        assert!(t.contains("Register"));
        assert!(t.contains("Checkout"));
        assert!(t.contains("Payment"));
    }
}
