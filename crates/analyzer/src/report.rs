//! Deadlock reports (the output of Fig. 2's deadlock analyzer).

use crate::diagnose::Diagnosis;
use std::fmt;
use weseer_concolic::StackTrace;

/// Identifies the four statements of a 2-transaction deadlock cycle
/// (Fig. 4's `[ins1.Q4 → ins1.Q6 → ins2.Q4 → ins2.Q6]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CycleId {
    /// API of instance A.
    pub a_api: String,
    /// API of instance B.
    pub b_api: String,
    /// Transaction index within A's trace.
    pub a_txn: usize,
    /// Transaction index within B's trace.
    pub b_txn: usize,
    /// A's lock-holding statement (index into A's trace).
    pub a_hold: usize,
    /// A's waiting statement.
    pub a_wait: usize,
    /// B's lock-holding statement.
    pub b_hold: usize,
    /// B's waiting statement.
    pub b_wait: usize,
}

/// One statement's role in the report.
#[derive(Debug, Clone)]
pub struct ReportedStatement {
    /// `A1.Q4`-style label.
    pub label: String,
    /// Rendered SQL template.
    pub sql: String,
    /// The table on which this statement conflicts.
    pub table: String,
    /// The code that triggered the statement (Sec. VI).
    pub trigger: StackTrace,
}

/// A confirmed potential deadlock with everything a developer needs to
/// understand and reproduce it (Fig. 2's report contents: involved API,
/// inputs, initial DB state, SQL statements, triggering code).
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// The cycle.
    pub cycle: CycleId,
    /// The four statements (A-hold, A-wait, B-hold, B-wait).
    pub statements: Vec<ReportedStatement>,
    /// Satisfying assignment excerpt: API inputs and database state that
    /// trigger the deadlock, from the SMT model.
    pub model: Vec<(String, String)>,
    /// The full SAT model over both instances' `A1.` / `A2.` namespaces.
    /// Every pair's cycles are solved in canonical order by that pair's
    /// own solver, so this is schedule-independent — identical across
    /// thread counts. The replay engine concretizes symbolic parameters
    /// from it.
    pub sat_model: weseer_smt::Model,
}

impl DeadlockReport {
    /// Whether this deadlock involves the two given APIs (order
    /// insensitive).
    pub fn involves(&self, api1: &str, api2: &str) -> bool {
        (self.cycle.a_api == api1 && self.cycle.b_api == api2)
            || (self.cycle.a_api == api2 && self.cycle.b_api == api1)
    }

    /// The distinct conflict tables.
    pub fn tables(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.statements {
            if !out.contains(&s.table) {
                out.push(s.table.clone());
            }
        }
        out
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock: {} (txn {}) <-> {} (txn {})",
            self.cycle.a_api, self.cycle.a_txn, self.cycle.b_api, self.cycle.b_txn
        )?;
        for s in &self.statements {
            writeln!(f, "  {} on {}: {}", s.label, s.table, s.sql)?;
            if let Some(top) = s.trigger.top() {
                writeln!(f, "    triggered at {top}")?;
            }
        }
        if !self.model.is_empty() {
            writeln!(f, "  witness assignment:")?;
            for (k, v) in self.model.iter().take(12) {
                writeln!(f, "    {k} = {v}")?;
            }
        }
        Ok(())
    }
}

/// Render the diagnosis funnel and per-phase wall times as a short text
/// block for the end of an analysis report. A run cut short by
/// `max_reports` says so in one extra line; a complete run prints none.
pub fn render_stats(diagnosis: &Diagnosis) -> String {
    let stats = &diagnosis.stats;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut out = format!(
        "diagnosis funnel:\n\
         \x20 txn pairs examined      {:>8}\n\
         \x20 after phase 1 filter    {:>8}\n\
         \x20 coarse cycles (phase 2) {:>8}\n\
         \x20 fine candidates         {:>8}\n\
         \x20 SMT sat/unsat/unknown   {:>8} / {} / {}\n\
         phase wall times: phase1 {:.1}ms, phase2 {:.1}ms, phase3 {:.1}ms\n",
        stats.txn_pairs,
        stats.pairs_after_phase1,
        stats.coarse_cycles,
        stats.fine_candidates,
        stats.smt_sat,
        stats.smt_unsat,
        stats.smt_unknown,
        ms(stats.phase1_time),
        ms(stats.phase2_time),
        ms(stats.phase3_time),
    );
    if diagnosis.truncated {
        out.push_str(&format!(
            "TRUNCATED at max_reports = {}: later fine candidates were not examined\n",
            diagnosis.deadlocks.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::DiagnosisStats;

    #[test]
    fn render_stats_includes_funnel_and_times() {
        let stats = DiagnosisStats {
            txn_pairs: 10,
            pairs_after_phase1: 4,
            coarse_cycles: 7,
            fine_candidates: 3,
            smt_sat: 1,
            smt_unsat: 2,
            smt_unknown: 0,
            phase1_time: std::time::Duration::from_millis(2),
            phase2_time: std::time::Duration::from_millis(5),
            phase3_time: std::time::Duration::from_millis(30),
        };
        let mut diagnosis = Diagnosis {
            deadlocks: vec![sample()],
            stats,
            truncated: false,
        };
        let s = render_stats(&diagnosis);
        assert!(s.contains("txn pairs examined"));
        assert!(s.contains("10"));
        assert!(s.contains("1 / 2 / 0"));
        assert!(s.ends_with("phase3 30.0ms\n"), "{s}");

        // A capped run appends exactly one line to the same bytes.
        diagnosis.truncated = true;
        let capped = render_stats(&diagnosis);
        assert_eq!(
            capped.strip_prefix(s.as_str()),
            Some("TRUNCATED at max_reports = 1: later fine candidates were not examined\n")
        );
    }

    fn sample() -> DeadlockReport {
        DeadlockReport {
            cycle: CycleId {
                a_api: "Add2".into(),
                b_api: "Ship".into(),
                a_txn: 0,
                b_txn: 0,
                a_hold: 0,
                a_wait: 1,
                b_hold: 0,
                b_wait: 1,
            },
            statements: vec![ReportedStatement {
                label: "A1.Q4".into(),
                sql: "SELECT …".into(),
                table: "Product".into(),
                trigger: StackTrace::new(),
            }],
            model: vec![("A1.order_id".into(), "1".into())],
            sat_model: weseer_smt::Model::default(),
        }
    }

    #[test]
    fn involves_is_order_insensitive() {
        let r = sample();
        assert!(r.involves("Add2", "Ship"));
        assert!(r.involves("Ship", "Add2"));
        assert!(!r.involves("Ship", "Checkout"));
    }

    #[test]
    fn display_includes_essentials() {
        let r = sample();
        let s = r.to_string();
        assert!(s.contains("Add2"));
        assert!(s.contains("Product"));
        assert!(s.contains("A1.order_id"));
    }

    #[test]
    fn tables_dedup() {
        let mut r = sample();
        r.statements.push(r.statements[0].clone());
        assert_eq!(r.tables(), vec!["Product".to_string()]);
    }
}
