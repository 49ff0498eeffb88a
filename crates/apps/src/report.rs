//! Developer-facing report rendering: the code-location report with the
//! replay verdict (and witness schedule, when confirmed) attached.

use std::fmt::Write as _;
use weseer_analyzer::DeadlockReport;
use weseer_replay::ReplayVerdict;

/// Render one diagnosed deadlock as the full developer report: Table II
/// classification, the analyzer's code-location report (statements,
/// triggering stack frames, witness assignment), and the replay verdict —
/// a concrete witness schedule when the deadlock was replay-confirmed.
pub fn witnessed_report(app: &str, report: &DeadlockReport, verdict: &ReplayVerdict) -> String {
    let mut out = String::new();
    let row = crate::classify(app, report);
    let _ = writeln!(out, "[{row:?}] {report}");
    match verdict {
        ReplayVerdict::Confirmed(w) => {
            let _ = writeln!(out, "replay: CONFIRMED");
            out.push_str(&w.render());
        }
        ReplayVerdict::NotReproduced {
            schedules_explored,
            schedules_pruned,
            budget_hit,
        } => {
            let cut = if *budget_hit {
                "; stopped at the exploration budget"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "replay: not reproduced ({schedules_explored} schedules explored, {schedules_pruned} pruned{cut})"
            );
        }
        ReplayVerdict::Skipped(reason) => {
            let _ = writeln!(out, "replay: skipped ({reason})");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_analyzer::CycleId;
    use weseer_replay::{Witness, WitnessInstance, WitnessStep};

    fn sample_report() -> DeadlockReport {
        DeadlockReport {
            cycle: CycleId {
                a_api: "Add2".into(),
                b_api: "Ship".into(),
                a_txn: 0,
                b_txn: 0,
                a_hold: 1,
                a_wait: 2,
                b_hold: 1,
                b_wait: 2,
            },
            statements: vec![],
            model: vec![],
            sat_model: weseer_smt::Model::default(),
        }
    }

    #[test]
    fn confirmed_report_includes_witness_schedule() {
        let verdict = ReplayVerdict::Confirmed(Box::new(Witness {
            instances: vec![WitnessInstance {
                name: "A1".into(),
                api: "Add2".into(),
            }],
            steps: vec![WitnessStep {
                instance: "A1".into(),
                label: "Q4".into(),
                sql: "UPDATE T SET V = 1 WHERE ID = 1".into(),
                locks: vec![],
                outcome: "deadlock".into(),
                waits_on: vec!["A1".into()],
            }],
            cycle: vec!["A1".into()],
            schedules_explored: 1,
            schedules_pruned: 0,
        }));
        let s = witnessed_report("shopizer", &sample_report(), &verdict);
        assert!(s.contains("replay: CONFIRMED"));
        assert!(s.contains("witness schedule"));
        assert!(s.contains("UPDATE T SET V = 1"));
    }

    #[test]
    fn not_reproduced_report_shows_exploration_counts() {
        let verdict = ReplayVerdict::NotReproduced {
            schedules_explored: 9,
            schedules_pruned: 4,
            budget_hit: false,
        };
        let s = witnessed_report("shopizer", &sample_report(), &verdict);
        assert!(s.contains("not reproduced (9 schedules explored, 4 pruned)"));
        let cut = ReplayVerdict::NotReproduced {
            schedules_explored: 256,
            schedules_pruned: 4,
            budget_hit: true,
        };
        let s = witnessed_report("shopizer", &sample_report(), &cut);
        assert!(s.contains("4 pruned; stopped at the exploration budget)"));
    }
}
