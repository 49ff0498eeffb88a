//! Once-per-trace pre-simplification of path conditions.
//!
//! Many cycles of one transaction conjoin the *same* path conditions —
//! every fine-grained query for a cycle of transaction `t` includes the
//! conditions recorded before `t`'s waiting statement. This module
//! pre-processes each trace once per analysis run: every path condition
//! is tier-0 simplified **once** (per trace, with a shared hash-consing
//! memo) into a cloned context, so per-pair solving imports
//! pre-simplified conjuncts instead of re-simplifying the same terms for
//! every cycle.
//!
//! The pre-simplified conjuncts pay off twice: the per-pair session
//! imports each one into its shared context once, and the pair's
//! persistent [`weseer_smt::IncrementalSolver`] lowers it to CNF once —
//! later cycles of the pair find the conjunct's Tseitin literal already
//! in the clause database and assert only their per-cycle delta on top,
//! under a single assumption literal.
//!
//! Nothing is decided here. A concolic path condition is satisfied by
//! the inputs that produced it, so there is no verdict to be had from a
//! trace's conditions alone (EXPERIMENTS.md, "Measured zero").

use crate::diagnose::CollectedTrace;
use weseer_smt::{Ctx, Simplifier, SolverConfig, TermId};

/// Per-trace prefix data: a context clone holding the simplified
/// path-condition terms.
pub(crate) struct TracePrefix {
    /// Clone of the trace's context with simplified terms interned.
    pub ctx: Ctx,
    /// Simplified terms, parallel to `trace.path_conds`.
    pub simplified: Vec<TermId>,
}

/// Pre-simplified path conditions for every trace, built once per
/// analysis run (sequentially — the table is part of the deterministic
/// pipeline setup).
pub struct PrefixTable {
    per_trace: Vec<TracePrefix>,
}

impl PrefixTable {
    /// Simplify every path condition of every trace.
    // `_config` is unread; `benchmark/src/probes.rs` (frozen) passes it.
    pub fn build(traces: &[CollectedTrace], _config: &SolverConfig) -> PrefixTable {
        let per_trace = traces
            .iter()
            .map(|t| {
                let mut ctx = t.ctx.clone();
                let mut simp = Simplifier::new();
                let simplified = t
                    .trace
                    .path_conds
                    .iter()
                    .map(|pc| simp.simplify(&mut ctx, pc.term))
                    .collect();
                TracePrefix { ctx, simplified }
            })
            .collect();
        PrefixTable { per_trace }
    }

    /// The per-trace prefix data (context + simplified conjuncts).
    pub(crate) fn trace(&self, i: usize) -> &TracePrefix {
        &self.per_trace[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::CollectedTrace;
    use weseer_concolic::{PathCond, StackTrace, StmtRecord, Trace, TxnTrace};
    use weseer_smt::Sort;
    use weseer_sqlir::parser::parse;

    fn stmt(index: usize, seq: u64, txn: usize, sql: &str) -> StmtRecord {
        StmtRecord {
            index,
            seq,
            txn,
            stmt: parse(sql).unwrap(),
            params: Vec::new(),
            rows: Vec::new(),
            is_empty: false,
            trigger: StackTrace::default(),
            sent_at: StackTrace::default(),
        }
    }

    fn two_stmt_trace(ctx: &mut Ctx) -> Trace {
        let x = ctx.var("x", Sort::Int);
        let two = ctx.int(2);
        let lo = ctx.gt(x, two);
        let ten = ctx.int(10);
        let hi = ctx.lt(x, ten);
        Trace {
            api: "api".into(),
            statements: vec![
                stmt(1, 10, 0, "UPDATE t SET a = 1 WHERE id = 1"),
                stmt(2, 20, 0, "UPDATE t SET a = 2 WHERE id = 2"),
            ],
            txns: vec![TxnTrace {
                id: 0,
                stmt_indexes: vec![0, 1],
                committed: true,
            }],
            path_conds: vec![
                PathCond {
                    term: lo,
                    seq: 5,
                    stack: StackTrace::default(),
                    in_library: false,
                },
                PathCond {
                    term: hi,
                    seq: 6,
                    stack: StackTrace::default(),
                    in_library: false,
                },
            ],
            unique_ids: Vec::new(),
            stats: Default::default(),
        }
    }

    #[test]
    fn every_path_condition_is_simplified_into_the_table_context() {
        let mut ctx = Ctx::new();
        let trace = two_stmt_trace(&mut ctx);
        let collected = vec![CollectedTrace::new(trace, ctx)];
        let table = PrefixTable::build(&collected, &SolverConfig::default());
        let tp = table.trace(0);
        let mut table_ctx = tp.ctx.clone();
        let expected: Vec<TermId> = collected[0]
            .trace
            .path_conds
            .iter()
            .map(|pc| weseer_smt::simplify(&mut table_ctx, pc.term))
            .collect();
        assert_eq!(tp.simplified, expected);
        assert_eq!(expected.len(), 2);
    }
}
