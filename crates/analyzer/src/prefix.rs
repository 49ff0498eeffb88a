//! Tier 2 of the tiered solving pipeline: shared path-condition prefixes.
//!
//! Many cycles of one transaction conjoin the *same* path-condition
//! prefix — every fine-grained query for a cycle of transaction `t`
//! includes the conditions recorded before `t`'s waiting statement. This
//! module pre-processes each trace once per analysis run:
//!
//! * every path condition is tier-0 simplified **once** (per trace, with
//!   a shared hash-consing memo) into a cloned context, so per-pair
//!   solving imports pre-simplified conjuncts instead of re-simplifying
//!   the same terms for every cycle;
//! * each transaction's standalone prefix — the conditions recorded
//!   before its earliest possible waiting statement, i.e. the subset
//!   conjoined into *every* fine-grained query of that transaction — is
//!   pre-solved with the tier-1 abstract pre-solver. A definite-UNSAT
//!   prefix makes every such query UNSAT, so all the transaction's pairs
//!   and cycles are killed before the fine phase renders a single lock
//!   conflict ([`crate::pairs::prune_unsat_prefixes`]).
//!
//! Soundness of the kill: the pruned prefix is *implied by* (a subformula
//! of) every formula the fine phase would have built for that
//! transaction, so UNSAT here means the solver verdict for each killed
//! cycle would have been UNSAT — only the cost changes, never the report
//! set. Cross-checked against the full solver under `debug_assertions`.
//!
//! The pre-simplified conjuncts pay off twice: the per-pair session
//! imports each one into its shared context once, and the pair's
//! persistent [`weseer_smt::IncrementalSolver`] lowers it to CNF once —
//! later cycles of the pair find the conjunct's Tseitin literal already
//! in the clause database and assert only their per-cycle delta on top,
//! under a single assumption literal.

use crate::diagnose::{CollectedTrace, StoreCtx};
use std::collections::HashSet;
use std::time::Instant;
use weseer_smt::{presolve, Ctx, PresolveResult, Simplifier, SolverConfig, TermId};
use weseer_store::{json::Json, Lookup};

/// Per-trace prefix data: a context clone holding the simplified
/// path-condition terms.
pub(crate) struct TracePrefix {
    /// Clone of the trace's context with simplified terms interned.
    pub ctx: Ctx,
    /// Simplified terms, parallel to `trace.path_conds`.
    pub simplified: Vec<TermId>,
    /// Transactions whose standalone prefix is definitely UNSAT.
    unsat_txns: HashSet<usize>,
}

/// Pre-solved path-condition prefixes for every trace, built once per
/// analysis run (sequentially — the table is part of the deterministic
/// pipeline setup).
pub struct PrefixTable {
    per_trace: Vec<TracePrefix>,
}

impl PrefixTable {
    /// Simplify every path condition and pre-solve every transaction's
    /// standalone prefix. Records `smt.fastpath.prefix_us` per prefix
    /// pre-solve in the global metrics registry.
    pub fn build(traces: &[CollectedTrace], config: &SolverConfig) -> PrefixTable {
        PrefixTable::build_with_store(traces, config, None)
    }

    /// [`PrefixTable::build`] consulting a persistent store: the tier-0
    /// simplification always runs live (the fine phase imports the
    /// simplified terms), but a stored prefix verdict skips the tier-1
    /// pre-solve *and* the `debug_assertions` full-solver cross-check —
    /// which is what lets a warm debug-build run report zero full solves.
    pub(crate) fn build_with_store(
        traces: &[CollectedTrace],
        config: &SolverConfig,
        store: Option<&StoreCtx<'_>>,
    ) -> PrefixTable {
        let solver_tag = format!("solver={config:?}");
        let per_trace = traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut ctx = t.ctx.clone();
                let mut simp = Simplifier::new();
                let simplified: Vec<TermId> = t
                    .trace
                    .path_conds
                    .iter()
                    .map(|pc| simp.simplify(&mut ctx, pc.term))
                    .collect();
                let mut unsat_txns = HashSet::new();
                for txn in 0..t.trace.txns.len() {
                    let stmts = t.trace.statements_of(txn);
                    // A cycle needs a held and a later waiting statement,
                    // so the earliest wait is the transaction's second
                    // statement; conditions before it are in every query.
                    let Some(first_wait) = stmts.get(1) else {
                        continue;
                    };
                    let parts: Vec<TermId> = t
                        .trace
                        .path_conds
                        .iter()
                        .zip(&simplified)
                        .filter(|(pc, _)| pc.seq < first_wait.seq)
                        .map(|(_, &s)| s)
                        .collect();
                    if parts.is_empty() {
                        continue;
                    }
                    let persist = store.map(|sc| {
                        (
                            sc,
                            format!("{}|{}:{}#{}", sc.namespace, i, t.trace.api, txn),
                            format!("{}|{}", sc.fingerprints[i], solver_tag),
                        )
                    });
                    if let Some((sc, site, content)) = &persist {
                        if let Lookup::Hit(v) = sc.store.get("prefix", site, content) {
                            if let Some(unsat) = v.get("unsat").and_then(Json::as_bool) {
                                if unsat {
                                    unsat_txns.insert(txn);
                                }
                                continue;
                            }
                        }
                    }
                    let conj = ctx.and(parts);
                    let start = Instant::now();
                    let unsat = matches!(presolve(&ctx, conj), PresolveResult::Unsat);
                    weseer_obs::observe_duration("smt.fastpath.prefix_us", start.elapsed());
                    if unsat {
                        #[cfg(debug_assertions)]
                        {
                            let full = weseer_smt::check(&mut ctx, conj, config);
                            debug_assert!(
                                !full.is_sat(),
                                "prefix pre-solve claimed UNSAT for a satisfiable prefix"
                            );
                        }
                        unsat_txns.insert(txn);
                    }
                    if let Some((sc, site, content)) = &persist {
                        let value = Json::Obj(vec![("unsat".into(), Json::Bool(unsat))]);
                        sc.store.put("prefix", site, content, value);
                    }
                }
                TracePrefix {
                    ctx,
                    simplified,
                    unsat_txns,
                }
            })
            .collect();
        PrefixTable { per_trace }
    }

    /// Whether `txn` of trace `trace` has a definitely-UNSAT standalone
    /// prefix (all its pairs can be killed).
    pub fn prefix_unsat(&self, trace: usize, txn: usize) -> bool {
        self.per_trace[trace].unsat_txns.contains(&txn)
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

    fn two_stmt_trace(ctx: &mut Ctx, contradictory: bool) -> Trace {
        let x = ctx.var("x", Sort::Int);
        let two = ctx.int(2);
        let three = ctx.int(3);
        let lo = ctx.gt(x, two);
        let ten = ctx.int(10);
        let hi = if contradictory {
            ctx.lt(x, three) // x > 2 ∧ x < 3 over Int: UNSAT
        } else {
            ctx.lt(x, ten)
        };
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
    fn contradictory_prefix_is_flagged() {
        let mut ctx = Ctx::new();
        let trace = two_stmt_trace(&mut ctx, true);
        let collected = vec![CollectedTrace::new(trace, ctx)];
        let table = PrefixTable::build(&collected, &SolverConfig::default());
        assert!(table.prefix_unsat(0, 0));
    }

    #[test]
    fn satisfiable_prefix_is_kept_and_simplified() {
        let mut ctx = Ctx::new();
        let trace = two_stmt_trace(&mut ctx, false);
        let collected = vec![CollectedTrace::new(trace, ctx)];
        let table = PrefixTable::build(&collected, &SolverConfig::default());
        assert!(!table.prefix_unsat(0, 0));
        assert_eq!(table.trace(0).simplified.len(), 2);
    }
}
