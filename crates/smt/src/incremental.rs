//! The lazy-SMT loop, incremental across related queries.
//!
//! [`IncrementalSolver`] is the crate's one full solver: CDCL on the
//! boolean skeleton, a prime implicant of the boolean model, one
//! arithmetic/string theory round ([`crate::solver`]), a blocking clause
//! on conflict, repeat. [`crate::check`] is one query on a fresh solver.
//! The analyzer keeps one solver per transaction pair instead, because
//! its fine-grained phase checks many conflict-condition formulas per
//! pair — one per lock-wait cycle — and those formulas share almost all
//! of their structure: the transactions' path conditions, the unique-id
//! disequalities, and the container read-congruence axioms differ only in
//! the per-cycle edge conditions.
//!
//! The solver keeps one [`Lowering`] and one persistent CDCL
//! [`sat::Solver`] alive across queries. Each query's formula is lowered
//! once (the Tseitin memo shares every already-seen subterm), its root
//! literal is passed to the SAT core as a single *assumption*, and the
//! lazy theory loop runs on top. Everything durable carries over:
//!
//! * **Definitional clauses** (Tseitin): satisfiable on their own (set
//!   the defined variable to its definition's value), so they never
//!   exclude models of later queries.
//! * **Select-congruence axioms**: universally valid, asserted as
//!   permanent units, and instantiated incrementally — each newly seen
//!   `read(array, index)` is paired against the indices already seen on
//!   that array.
//! * **Theory blocking clauses**: lemmas valid in every model of the
//!   theories, so a conflict discovered (and deletion-minimized) for one
//!   cycle never has to be rediscovered for the next.
//! * **Learned clauses**: resolution consequences of the clause database
//!   alone — assumptions enter the search as ordinary decisions and are
//!   never resolved away — so they stay sound for every later query.
//!
//! Determinism: a solver's answers depend on its query sequence, so the
//! analyzer creates one `IncrementalSolver` per transaction pair and
//! feeds it the pair's cycles in canonical order. No state is shared
//! across pairs; verdicts stay byte-identical at any thread count.

use crate::lower::Lowering;
use crate::presolve;
use crate::sat::{self, SatResult};
use crate::simplify;
use crate::solver::{self, SolveResult, SolverConfig, SolverStats, TheoryOutcome};
use crate::term::{Ctx, TermId, TermKind};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// A persistent solver for a sequence of related queries (see the module
/// docs). Create one per query group (the analyzer: per transaction
/// pair), then call [`IncrementalSolver::check_tiered`] per formula.
#[derive(Debug, Default)]
pub struct IncrementalSolver {
    config: SolverConfig,
    low: Lowering,
    sat: sat::Solver,
    /// Clauses of `low.cnf` already mirrored into `sat`.
    synced_clauses: usize,
    /// Per array variable, the select indices seen so far (axiom
    /// instantiation pairs each new index against these).
    selects: BTreeMap<TermId, Vec<TermId>>,
    /// Terms already walked for select discovery.
    visited: HashSet<TermId>,
    /// Every select-congruence axiom asserted so far, keyed by the two
    /// read terms it links — replayed into the query cone of any later
    /// query that contains *both* reads (a query containing only one
    /// never needs the link to justify its own model, and replaying
    /// every axiom of an array would grow each query's theory problem
    /// quadratically in the pair's read history).
    axioms: Vec<(TermId, TermId, TermId)>,
}

impl IncrementalSolver {
    /// New incremental solver with the given configuration.
    pub fn new(config: SolverConfig) -> IncrementalSolver {
        IncrementalSolver {
            config,
            sat: sat::Solver::new(),
            ..IncrementalSolver::default()
        }
    }

    /// Decide `assertion`: tier-0 simplification, then the tier-1 model
    /// finder, then the lazy loop over the simplified formula with every
    /// clause this solver has accumulated — each subject to
    /// `config.tiers`. The fast path only finds models; every UNSAT comes
    /// from the lazy loop, and every SAT from either passes the SAT gate
    /// ([`crate::Model::satisfies`] on the original `assertion`).
    pub fn check_tiered(&mut self, ctx: &mut Ctx, assertion: TermId) -> (SolveResult, SolverStats) {
        let start = Instant::now();
        let mut stats = SolverStats::default();
        let mut term = assertion;
        if self.config.tiers.simplify {
            let t0 = Instant::now();
            term = simplify::simplify(ctx, term);
            weseer_obs::observe_duration("smt.fastpath.t0_us", t0.elapsed());
        }
        if self.config.tiers.presolve {
            let t1 = Instant::now();
            let (found, capped) = presolve::presolve_with_cap(ctx, term);
            weseer_obs::observe_duration("smt.fastpath.t1_us", t1.elapsed());
            if capped {
                weseer_obs::add("smt.fastpath.t1_capped", 1);
            }
            if let Some(model) = found {
                stats.t1_sat += 1;
                weseer_obs::add("smt.fastpath.t1_sat", 1);
                let result =
                    solver::gate_model(ctx, assertion, SolveResult::Sat(model), &mut stats);
                // Keeps the funnel invariant `smt.solve_calls` = queries
                // answered, whether or not the lazy loop ran.
                let elapsed = start.elapsed();
                stats.wall_us = elapsed.as_micros() as u64;
                if weseer_obs::timeline::enabled() {
                    weseer_obs::timeline::complete_since(
                        "smt.solve",
                        "smt",
                        start,
                        &[
                            ("tier", "t1".to_string()),
                            ("verdict", result.verdict_str().to_string()),
                        ],
                    );
                }
                weseer_obs::observe_duration("smt.solve_us", elapsed);
                weseer_obs::add("smt.solve_calls", 1);
                return (result, stats);
            }
        }
        stats.fallthrough += 1;
        weseer_obs::add("smt.fastpath.fallthrough", 1);
        let full_start = Instant::now();
        let result = self.check_assuming(ctx, term, &mut stats);
        let result = solver::gate_model(ctx, assertion, result, &mut stats);
        solver::record_full_solve(start, full_start, &result, &mut stats);
        (result, stats)
    }

    /// Decide `assertion` with the lazy loop alone (no fast path),
    /// keeping every clause this solver has accumulated.
    fn check_assuming(
        &mut self,
        ctx: &mut Ctx,
        assertion: TermId,
        stats: &mut SolverStats,
    ) -> SolveResult {
        // 1. Instantiate read-congruence axioms for reads this solver has
        //    not seen yet, pairing them against every read already seen on
        //    the same array. The axioms are universally valid, so they are
        //    asserted as permanent units rather than tied to this query's
        //    assumption.
        self.add_select_congruence_incremental(ctx, assertion);

        // 2. Lower the query to a single literal. The Tseitin memo means
        //    subterms shared with earlier queries (path-condition
        //    prefixes, in the analyzer) lower to the literals and clauses
        //    already in the solver — only this query's delta is new.
        let root = self.low.lower(ctx, assertion);

        // 3. Mirror the new clauses into the persistent SAT core.
        self.sync_sat();
        if !self.sat.is_ok() {
            // A permanent fact (axiom unit or definitional clause) closed
            // the database — cannot happen for satisfiable definitions,
            // but keep the verdict sound if it ever does.
            return SolveResult::Unsat;
        }

        // 4. The current query's *cone*: its own subterms' variables
        //    (plus congruence axioms among its reads) and the clauses
        //    built purely from them. Earlier queries' clauses stay in
        //    the SAT database but their atoms need no theory model here
        //    — Tseitin definitions are satisfiable standalone and
        //    blocking clauses/axioms are valid lemmas. Without the
        //    restriction every theory round re-justifies the whole
        //    accumulated history, which costs more than the
        //    incrementality saves. Both sets are fixed for the whole
        //    theory loop: conflicts only append blocking clauses, whose
        //    literals come from the needed set and are therefore
        //    in-cone.
        let relevant = self.cone_vars(ctx, assertion);
        let mut cone_clauses: Vec<usize> = (0..self.low.cnf.clauses.len())
            .filter(|&i| self.low.cnf.clauses[i].iter().all(|l| relevant[l.var]))
            .collect();

        // 5. Lazy theory loop under the assumption `root`.
        for _ in 0..self.config.max_theory_iters {
            stats.theory_iters += 1;
            stats.sat_calls += 1;
            let (sat_result, sat_stats) = self
                .sat
                .solve_under_assumptions(&[root], self.config.sat_decision_budget);
            stats.sat.absorb(sat_stats);
            let bool_model = match sat_result {
                None => {
                    stats.sat_budget_exhausted += 1;
                    return SolveResult::Unknown;
                }
                Some(SatResult::Unsat) => return SolveResult::Unsat,
                Some(SatResult::Sat(m)) => m,
            };

            // Prime implicant over the cone clauses only. The
            // assumption itself is always needed on top: a query whose
            // formula is a bare atom appears in no clause, so the
            // clause scan alone would never mark it — but its polarity
            // is exactly what the query asserts, so the theories must
            // see it.
            let mut needed =
                solver::prime_implicant_over(&self.low.cnf, &bool_model, &cone_clauses);
            needed[root.var] = true;

            match solver::theory_round(ctx, &self.low, &bool_model, &needed, &self.config, stats) {
                TheoryOutcome::Conflict(core) => {
                    let clause = solver::block(&mut self.low, &core);
                    self.sat.add_clause(&clause);
                    self.synced_clauses = self.low.cnf.clauses.len();
                    cone_clauses.push(self.low.cnf.clauses.len() - 1);
                }
                TheoryOutcome::Unknown => return SolveResult::Unknown,
                TheoryOutcome::Sat(model) => return SolveResult::Sat(*model),
            }
        }
        stats.theory_iters_exhausted += 1;
        SolveResult::Unknown
    }

    /// SAT variables in the cone of the current query: the variables of
    /// every lowered subterm of `root`, plus those of every
    /// select-congruence axiom linking two reads the query contains
    /// (their index-equality atoms must stay theory-visible, or a query
    /// that forces two of its indices equal arithmetically could get a
    /// bogus model). This is exactly the atom set a fresh solve of the
    /// same formula would instantiate. Variables outside the cone belong
    /// to earlier queries; the theories never need to justify them
    /// because everything permanent in the database is satisfiable
    /// standalone or universally valid.
    fn cone_vars(&self, ctx: &Ctx, root: TermId) -> Vec<bool> {
        let mut relevant = vec![false; self.low.cnf.num_vars];
        let mut seen: HashSet<TermId> = HashSet::new();
        let mut stack = vec![root];
        let mut walking_axioms = false;
        loop {
            while let Some(t) = stack.pop() {
                if !seen.insert(t) {
                    continue;
                }
                if let Some(lit) = self.low.lowered_lit(t) {
                    relevant[lit.var] = true;
                }
                // Numeric equalities split into two `≤` atoms that no
                // TermId reaches; pull them in through the side table.
                if let Some([l1, l2]) = self.low.eq_aux_lits(t) {
                    relevant[l1.var] = true;
                    relevant[l2.var] = true;
                }
                stack.extend(ctx.children(t));
            }
            if walking_axioms {
                break;
            }
            // Second pass: the axioms linking two reads the query
            // contains. They reference no reads beyond those, so one
            // extra pass reaches a fixpoint.
            walking_axioms = true;
            stack.extend(
                self.axioms
                    .iter()
                    .filter(|(si, sj, _)| seen.contains(si) && seen.contains(sj))
                    .map(|(_, _, axiom)| *axiom),
            );
        }
        relevant
    }

    /// Push clauses added to the lowering since the last sync into the
    /// persistent SAT core.
    fn sync_sat(&mut self) {
        self.sat.ensure_vars(self.low.cnf.num_vars);
        for i in self.synced_clauses..self.low.cnf.clauses.len() {
            let clause = self.low.cnf.clauses[i].clone();
            self.sat.add_clause(&clause);
        }
        self.synced_clauses = self.low.cnf.clauses.len();
    }

    /// Read-congruence instantiation: walk only the parts of the DAG this
    /// solver has not visited, and for each newly discovered
    /// `read(array, index)` assert
    /// `index = index' → read(array, index) = read(array, index')` against
    /// every previously seen index of that array. Discovery order is the
    /// deterministic DFS order of the query sequence, so identical query
    /// sequences produce identical clause databases.
    fn add_select_congruence_incremental(&mut self, ctx: &mut Ctx, root: TermId) {
        let mut fresh: Vec<(TermId, TermId)> = Vec::new();
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            if !self.visited.insert(t) {
                continue;
            }
            if let TermKind::Select(arr, idx) = *ctx.kind(t) {
                debug_assert!(matches!(ctx.kind(arr), TermKind::Var(_)));
                let indexes = self.selects.entry(arr).or_default();
                if !indexes.contains(&idx) && !fresh.contains(&(arr, idx)) {
                    fresh.push((arr, idx));
                }
            }
            stack.extend(ctx.children(t));
        }
        for (arr, idx) in fresh {
            let prior = self.selects.get(&arr).cloned().unwrap_or_default();
            for old in prior {
                let idx_eq = ctx.eq(idx, old);
                let si = ctx.select(arr, idx);
                let sj = ctx.select(arr, old);
                let sel_eq = ctx.eq(si, sj);
                let axiom = ctx.implies(idx_eq, sel_eq);
                self.low.assert(ctx, axiom);
                self.axioms.push((si, sj, axiom));
            }
            self.selects.entry(arr).or_default().push(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{check, TierConfig};
    use crate::term::Sort;

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    /// One full solve (no fast path) with its statistics.
    fn assume(inc: &mut IncrementalSolver, ctx: &mut Ctx, t: TermId) -> (SolveResult, SolverStats) {
        let mut stats = SolverStats::default();
        let result = inc.check_assuming(ctx, t, &mut stats);
        (result, stats)
    }

    /// A pair-like query sequence: shared prefix, per-cycle deltas.
    fn prefix_and_deltas(ctx: &mut Ctx) -> (TermId, Vec<TermId>) {
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let zero = ctx.int(0);
        let ten = ctx.int(10);
        let p1 = ctx.ge(x, zero);
        let p2 = ctx.le(x, ten);
        let p3 = ctx.ge(y, zero);
        let prefix = ctx.and([p1, p2, p3]);
        let five = ctx.int(5);
        let twenty = ctx.int(20);
        let d_sat = ctx.eq(x, five); // prefix ∧ x=5 → SAT
        let d_unsat = ctx.gt(x, twenty); // prefix ∧ x>20 → UNSAT
        let xy = ctx.add(x, y);
        let d_mixed = ctx.eq(xy, twenty); // SAT (x=10, y=10)
        (prefix, vec![d_sat, d_unsat, d_mixed])
    }

    #[test]
    fn matches_fresh_solves_on_shared_prefix_queries() {
        let mut ctx = Ctx::new();
        let (prefix, deltas) = prefix_and_deltas(&mut ctx);
        let mut inc = IncrementalSolver::new(cfg());
        for delta in deltas {
            let q = ctx.and([prefix, delta]);
            let (inc_res, _) = inc.check_tiered(&mut ctx, q);
            let fresh_res = check(&mut ctx, q, &cfg());
            assert_eq!(
                inc_res.verdict_str(),
                fresh_res.verdict_str(),
                "incremental and fresh solves diverged on {q:?}"
            );
            if let SolveResult::Sat(m) = &inc_res {
                assert!(m.satisfies(&ctx, q), "incremental model must satisfy query");
            }
        }
    }

    #[test]
    fn bare_atom_query_reaches_the_theories() {
        // A query that lowers to a single atom literal appears in no
        // clause; the assumption itself must force the theory check.
        // x ≤ 0 ∧ x ≥ 1 as two sequential queries: the second query's
        // conjunction is UNSAT.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let zero = ctx.int(0);
        let one = ctx.int(1);
        let le = ctx.le(x, zero);
        let ge = ctx.ge(x, one);
        let both = ctx.and([le, ge]);
        let mut inc = IncrementalSolver::new(cfg());
        let (r1, _) = assume(&mut inc, &mut ctx, le);
        assert!(matches!(r1, SolveResult::Sat(_)));
        if let SolveResult::Sat(m) = &r1 {
            assert!(m.satisfies(&ctx, le));
        }
        let (r2, _) = assume(&mut inc, &mut ctx, both);
        assert!(matches!(r2, SolveResult::Unsat));
        // The earlier query must still be answerable.
        let (r3, _) = assume(&mut inc, &mut ctx, ge);
        assert!(matches!(r3, SolveResult::Sat(_)));
    }

    #[test]
    fn select_congruence_instantiates_across_queries() {
        // Query 1 reads m[i]; query 2 reads m[j] and asserts i = j with
        // opposite read polarities — UNSAT only if the cross-query
        // congruence axiom was instantiated.
        let mut ctx = Ctx::new();
        let m = ctx.array_var("m", Sort::Int);
        let i = ctx.var("i", Sort::Int);
        let j = ctx.var("j", Sort::Int);
        let ri = ctx.select(m, i);
        let rj = ctx.select(m, j);
        let mut inc = IncrementalSolver::new(cfg());
        let (r1, _) = assume(&mut inc, &mut ctx, ri);
        assert!(matches!(r1, SolveResult::Sat(_)));
        let eq = ctx.eq(i, j);
        let nrj = ctx.not(rj);
        let q2 = ctx.and([eq, ri, nrj]);
        let (r2, _) = assume(&mut inc, &mut ctx, q2);
        assert!(matches!(r2, SolveResult::Unsat), "congruence must fire");
    }

    #[test]
    fn blocking_clauses_carry_over() {
        // The same theory conflict posed twice: the second query must not
        // rediscover the conflict from scratch (fewer theory iterations).
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let zero = ctx.int(0);
        let one = ctx.int(1);
        let c1 = ctx.lt(zero, x);
        let c2 = ctx.lt(x, one);
        let f = ctx.and([c1, c2]); // int gap: UNSAT via arith conflicts
        let mut inc = IncrementalSolver::new(cfg());
        let (r1, s1) = assume(&mut inc, &mut ctx, f);
        assert!(matches!(r1, SolveResult::Unsat));
        let (r2, s2) = assume(&mut inc, &mut ctx, f);
        assert!(matches!(r2, SolveResult::Unsat));
        assert!(
            s2.arith_conflicts <= s1.arith_conflicts,
            "second solve must reuse blocking clauses ({} vs {})",
            s2.arith_conflicts,
            s1.arith_conflicts
        );
    }

    #[test]
    fn a_formula_that_folds_to_false_is_refuted_by_this_solver() {
        // Tier 0 folds `x < x` to `false`; it is lowered and refuted
        // under its assumption like any other query, and the solver
        // stays usable afterwards.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let lt = ctx.lt(x, x);
        let one = ctx.int(1);
        let ge = ctx.ge(x, one);
        let mut inc = IncrementalSolver::new(cfg());
        let (r1, s1) = inc.check_tiered(&mut ctx, lt);
        assert!(matches!(r1, SolveResult::Unsat));
        assert_eq!((s1.t1_sat, s1.fallthrough), (0, 1));
        let (r2, _) = inc.check_tiered(&mut ctx, ge);
        assert!(r2.is_sat());
    }

    #[test]
    fn tier_knobs_still_apply() {
        // With every tier off but solving through the incremental path,
        // verdicts still match (the knob grid is about cost, not truth).
        let mut ctx = Ctx::new();
        let (prefix, deltas) = prefix_and_deltas(&mut ctx);
        let mut off = cfg();
        off.tiers = TierConfig::OFF;
        let mut inc = IncrementalSolver::new(off.clone());
        for delta in deltas {
            let q = ctx.and([prefix, delta]);
            let (inc_res, _) = inc.check_tiered(&mut ctx, q);
            let fresh_res = check(&mut ctx, q, &off);
            assert_eq!(inc_res.verdict_str(), fresh_res.verdict_str());
        }
    }
}
