//! The solver's configuration, verdicts and statistics, the SAT gate, and
//! the theory round of the lazy-SMT loop: arithmetic and string checks on
//! the atom polarities a boolean model implies, a minimized core on
//! conflict. The loop itself — SAT on the boolean skeleton, a theory
//! round, a blocking clause on conflict — is
//! [`crate::IncrementalSolver`]; [`check`] is one query on a fresh one.
//!
//! This is the Z3 stand-in WeSEER's analyzer calls (paper Sec. III-B): it
//! answers SAT with a satisfying assignment, UNSAT, or Unknown (timeout);
//! the analyzer reports a deadlock only on SAT.

use crate::arith::{self, ArithResult, Constraint, Limits};
use crate::incremental::IncrementalSolver;
use crate::lower::{Atom, Lowering};
use crate::model::{Model, ModelKey, ModelValue};
use crate::rational::Rat;
use crate::sat::{Cnf, Lit, SatStats};
use crate::strings::{self, StrResult, StrTerm};
use crate::term::{Ctx, TermId, TermKind};
use std::collections::{BTreeMap, HashMap};

/// Which tiers of the fast path run in front of the lazy loop (see
/// [`IncrementalSolver::check_tiered`]). The fast path only ever answers
/// with a model the SAT gate accepted, so disabling a tier changes cost,
/// never verdicts — which the root `tier_grid` test verifies end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Tier 0: bottom-up simplification ([`crate::simplify`]); the later
    /// stages see the simplified formula.
    pub simplify: bool,
    /// Tier 1: abstract pre-solve ([`crate::presolve`]), which either
    /// finds a model or falls through.
    pub presolve: bool,
}

impl TierConfig {
    /// Every tier disabled — the pre-tiered pipeline, used as the
    /// ablation baseline.
    pub const OFF: TierConfig = TierConfig {
        simplify: false,
        presolve: false,
    };

    /// The named knob ablation grid: every row is the default config with
    /// exactly one knob withheld (plus the all-on and all-off endpoints).
    /// `tests/tier_grid.rs` diagnoses both apps under every row and
    /// `tests/cdcl_agreement.rs` solves random terms under every row, so
    /// a new `TierConfig` knob is gated by adding its row here.
    pub fn ablation_configs() -> Vec<(&'static str, TierConfig)> {
        let all = TierConfig::default();
        vec![
            ("all_tiers", all),
            (
                "no_simplify",
                TierConfig {
                    simplify: false,
                    ..all
                },
            ),
            (
                "no_presolve",
                TierConfig {
                    presolve: false,
                    ..all
                },
            ),
            ("no_tiers", TierConfig::OFF),
        ]
    }
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            simplify: true,
            presolve: true,
        }
    }
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of SAT+theory iterations before giving up.
    pub max_theory_iters: usize,
    /// Arithmetic resource limits.
    pub arith_limits: Limits,
    /// Branching-decision budget per SAT call; exhaustion is a timeout.
    pub sat_decision_budget: u64,
    /// Fast-path tiers run in front of the lazy loop.
    pub tiers: TierConfig,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_theory_iters: 500,
            arith_limits: Limits::default(),
            sat_decision_budget: 2_000_000,
            tiers: TierConfig::default(),
        }
    }
}

/// Outcome of a solver call.
#[derive(Debug, Clone)]
pub enum SolveResult {
    /// Satisfiable with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Resource limits exceeded (reported like a Z3 timeout).
    Unknown,
}

impl SolveResult {
    /// Short verdict label ("sat"/"unsat"/"unknown") for timelines.
    pub fn verdict_str(&self) -> &'static str {
        match self {
            SolveResult::Sat(_) => "sat",
            SolveResult::Unsat => "unsat",
            SolveResult::Unknown => "unknown",
        }
    }

    /// Whether the result is SAT.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// The model if SAT.
    pub fn model(self) -> Option<Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Search-effort statistics for one solver call, summed over every SAT
/// call and theory iteration of the lazy loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// SAT core invocations (one per theory iteration).
    pub sat_calls: u64,
    /// Aggregated SAT-core decision/propagation counts.
    pub sat: SatStats,
    /// Theory iterations executed (= blocking clauses added + 1, unless
    /// the loop exited early).
    pub theory_iters: u64,
    /// Arithmetic-theory conflicts (each adds one blocking clause).
    pub arith_conflicts: u64,
    /// Arithmetic decision-procedure runs: one per theory round plus the
    /// trial solves of core minimization.
    pub arith_solves: u64,
    /// String-theory conflicts (each adds one blocking clause).
    pub str_conflicts: u64,
    /// Total literals across all minimized unsat cores.
    pub core_lits: u64,
    /// Largest single minimized unsat core.
    pub max_core_lits: u64,
    /// Unknowns caused by exhausting the SAT decision budget.
    pub sat_budget_exhausted: u64,
    /// Arithmetic solves that exceeded the resource limits: the first of
    /// a theory round (the query answers Unknown) or a core-minimization
    /// trial (the literal is kept, so the blocked core may not be minimal).
    pub arith_budget_exhausted: u64,
    /// Unknowns caused by running out of theory iterations.
    pub theory_iters_exhausted: u64,
    /// Queries tier 1 found a model for (the full solver never ran).
    pub t1_sat: u64,
    /// Queries that fell through the fast path to the full solver.
    pub fallthrough: u64,
    /// SAT answers turned into Unknown because the model did not
    /// evaluate the original assertion to true.
    pub model_rejected: u64,
    /// Wall-clock microseconds spent answering the query (summed over
    /// calls when absorbed). Nondeterministic — attribution only; must
    /// never feed byte-compared reports or verdicts.
    pub wall_us: u64,
}

impl SolverStats {
    /// Accumulate another call's statistics into this one.
    pub fn absorb(&mut self, other: SolverStats) {
        self.sat_calls += other.sat_calls;
        self.sat.absorb(other.sat);
        self.theory_iters += other.theory_iters;
        self.arith_conflicts += other.arith_conflicts;
        self.arith_solves += other.arith_solves;
        self.str_conflicts += other.str_conflicts;
        self.core_lits += other.core_lits;
        self.max_core_lits = self.max_core_lits.max(other.max_core_lits);
        self.sat_budget_exhausted += other.sat_budget_exhausted;
        self.arith_budget_exhausted += other.arith_budget_exhausted;
        self.theory_iters_exhausted += other.theory_iters_exhausted;
        self.t1_sat += other.t1_sat;
        self.fallthrough += other.fallthrough;
        self.model_rejected += other.model_rejected;
        self.wall_us += other.wall_us;
    }

    /// Total budget exhaustions — Unknown verdicts rather than genuine
    /// pruning, plus minimization trials cut short: the "gave up" bucket,
    /// as opposed to a decided verdict.
    pub fn budget_exhausted(&self) -> u64 {
        self.sat_budget_exhausted + self.arith_budget_exhausted + self.theory_iters_exhausted
    }

    fn record_core(&mut self, core: &[Lit]) {
        self.core_lits += core.len() as u64;
        self.max_core_lits = self.max_core_lits.max(core.len() as u64);
        weseer_obs::observe("smt.unsat_core_size", core.len() as u64);
    }
}

/// Decide the satisfiability of `assertion` (Bool-sorted) as one query on
/// a fresh [`IncrementalSolver`]: the tiers `config.tiers` enables, then
/// the lazy loop, every SAT through the SAT gate. [`TierConfig::OFF`]
/// leaves the lazy loop alone. Per-call latency and the aggregated
/// counters are recorded in the global [`weseer_obs`] registry (histogram
/// `smt.solve_us`, counters `smt.*`) when observability is enabled.
pub fn check(ctx: &mut Ctx, assertion: TermId, config: &SolverConfig) -> SolveResult {
    IncrementalSolver::new(config.clone())
        .check_tiered(ctx, assertion)
        .0
}

/// Record the per-call observability for one query the lazy loop
/// answered: wall-clock histograms, the timeline slice, and the
/// aggregated search counters — including the CDCL internals
/// (`smt.cdcl.{conflicts,learned,restarts,propagations,db_reductions}`).
/// `query_start` is when the query arrived — `smt.solve_us`, the slice
/// and `wall_us` cover the fast-path tiers it fell through — and
/// `full_start` when the lazy loop took over (`smt.full_solve_us`).
pub(crate) fn record_full_solve(
    query_start: std::time::Instant,
    full_start: std::time::Instant,
    result: &SolveResult,
    stats: &mut SolverStats,
) {
    let full_elapsed = full_start.elapsed();
    let elapsed = query_start.elapsed();
    stats.wall_us = elapsed.as_micros() as u64;
    if weseer_obs::timeline::enabled() {
        weseer_obs::timeline::complete_since(
            "smt.solve",
            "smt",
            query_start,
            &[
                ("tier", "full".to_string()),
                ("verdict", result.verdict_str().to_string()),
                ("arith_solves", stats.arith_solves.to_string()),
            ],
        );
    }
    weseer_obs::observe_duration("smt.solve_us", elapsed);
    weseer_obs::observe_duration("smt.full_solve_us", full_elapsed);
    weseer_obs::add("smt.solve_calls", 1);
    weseer_obs::add("smt.full_solve", 1);
    weseer_obs::add("smt.sat_budget_exhausted", stats.sat_budget_exhausted);
    weseer_obs::add("smt.arith_budget_exhausted", stats.arith_budget_exhausted);
    weseer_obs::add("smt.theory_iters_exhausted", stats.theory_iters_exhausted);
    weseer_obs::add("smt.sat_calls", stats.sat_calls);
    weseer_obs::add("smt.sat_decisions", stats.sat.decisions);
    weseer_obs::add("smt.sat_propagations", stats.sat.propagations);
    weseer_obs::add("smt.theory_iters", stats.theory_iters);
    weseer_obs::add("smt.arith_conflicts", stats.arith_conflicts);
    weseer_obs::add("smt.arith_solves", stats.arith_solves);
    weseer_obs::add("smt.str_conflicts", stats.str_conflicts);
    weseer_obs::add("smt.cdcl.conflicts", stats.sat.conflicts);
    weseer_obs::add("smt.cdcl.learned", stats.sat.learned);
    weseer_obs::add("smt.cdcl.restarts", stats.sat.restarts);
    weseer_obs::add("smt.cdcl.propagations", stats.sat.propagations);
    weseer_obs::add("smt.cdcl.db_reductions", stats.sat.db_reductions);
}

/// The SAT gate: a model leaves the solver stack only if it evaluates
/// the *original* assertion — not the simplified term the tiers worked
/// on — to true ([`Model::satisfies`]). A model that does not is a bug in
/// whatever produced it, so the answer becomes `Unknown` (counted in
/// `model_rejected` / `smt.model_rejected`), never a report. UNSAT and
/// Unknown pass through.
pub(crate) fn gate_model(
    ctx: &Ctx,
    assertion: TermId,
    result: SolveResult,
    stats: &mut SolverStats,
) -> SolveResult {
    match result {
        SolveResult::Sat(model) if !model.satisfies(ctx, assertion) => {
            stats.model_rejected += 1;
            weseer_obs::add("smt.model_rejected", 1);
            SolveResult::Unknown
        }
        other => other,
    }
}

/// Outcome of one theory round over a boolean model.
pub(crate) enum TheoryOutcome {
    /// A theory refuted the implied literals; the minimized core must be
    /// blocked (negated into a clause) before the next SAT call.
    Conflict(Vec<Lit>),
    /// A theory exhausted its resource limits.
    Unknown,
    /// Both theories accept; here is the combined model.
    Sat(Box<Model>),
}

/// Run the arithmetic and string theories over the atom polarities a
/// boolean model implies (restricted to `needed` variables), minimizing
/// the unsat core on conflict and assembling the combined model on
/// success.
pub(crate) fn theory_round(
    ctx: &Ctx,
    low: &Lowering,
    bool_model: &[bool],
    needed: &[bool],
    config: &SolverConfig,
    stats: &mut SolverStats,
) -> TheoryOutcome {
    // Collect asserted theory literals.
    let mut lin_cons: Vec<Constraint> = Vec::new();
    let mut lin_lits: Vec<Lit> = Vec::new();
    let mut str_items: Vec<(bool, (StrTerm, StrTerm), Lit)> = Vec::new();
    for (i, atom) in low.atoms.iter().enumerate() {
        let var = low.atom_vars[i];
        if !needed[var] {
            continue;
        }
        let pol = bool_model[var];
        match atom {
            Atom::Lin(c) => {
                let asserted = if pol {
                    c.clone()
                } else {
                    // ¬(e ≤ 0) ⇔ -e < 0 ; ¬(e < 0) ⇔ -e ≤ 0
                    Constraint {
                        expr: c.expr.scale(Rat::int(-1)),
                        strict: !c.strict,
                    }
                };
                lin_cons.push(asserted);
                lin_lits.push(if pol { Lit::pos(var) } else { Lit::neg(var) });
            }
            Atom::StrEq(a, b) => {
                let lit = if pol { Lit::pos(var) } else { Lit::neg(var) };
                str_items.push((pol, (a.clone(), b.clone()), lit));
            }
            Atom::BoolVar(_) | Atom::Select { .. } => {}
        }
    }
    let str_eqs: Vec<(StrTerm, StrTerm)> = str_items
        .iter()
        .filter(|(eq, _, _)| *eq)
        .map(|(_, p, _)| p.clone())
        .collect();
    let str_neqs: Vec<(StrTerm, StrTerm)> = str_items
        .iter()
        .filter(|(eq, _, _)| !*eq)
        .map(|(_, p, _)| p.clone())
        .collect();

    // Arithmetic theory.
    stats.arith_solves += 1;
    let arith_model = match arith::solve(&low.num_vars, &lin_cons, config.arith_limits) {
        ArithResult::Unsat(proof) => {
            // The smaller the blocking clause, the fewer SAT+theory
            // iterations the lazy loop needs (a ~100-literal blocking
            // clause barely prunes anything).
            let minimal =
                arith::minimize_core(&low.num_vars, &lin_cons, &proof, config.arith_limits);
            stats.arith_solves += minimal.solves;
            stats.arith_budget_exhausted += minimal.budget_exhausted;
            let core: Vec<Lit> = minimal.kept.iter().map(|&k| lin_lits[k]).collect();
            stats.arith_conflicts += 1;
            stats.record_core(&core);
            return TheoryOutcome::Conflict(core);
        }
        ArithResult::Unknown => {
            stats.arith_budget_exhausted += 1;
            return TheoryOutcome::Unknown;
        }
        ArithResult::Sat(m) => m,
    };

    // String theory.
    let str_model = match strings::solve(&str_eqs, &str_neqs) {
        StrResult::Unsat => {
            let core = minimize_str_core(&str_items);
            stats.str_conflicts += 1;
            stats.record_core(&core);
            return TheoryOutcome::Conflict(core);
        }
        StrResult::Sat(m) => m,
    };

    // Both theories agree: assemble the model.
    TheoryOutcome::Sat(Box::new(build_model(
        ctx,
        low,
        bool_model,
        &arith_model,
        &str_model,
    )))
}

/// Greedily mark the variables needed to satisfy the clauses `clauses`
/// indexes under `model`; unmarked variables are don't-cares whose truth
/// value the skeleton never relies on. Two passes let later clauses reuse
/// variables marked by earlier ones. The incremental solver passes its
/// per-query cone: clauses belonging to earlier queries need no
/// justification (every permanent clause is satisfiable standalone or a
/// valid theory lemma), and for a fresh solver the cone is every clause.
pub(crate) fn prime_implicant_over(cnf: &Cnf, model: &[bool], clauses: &[usize]) -> Vec<bool> {
    let mut needed = vec![false; model.len()];
    for _ in 0..2 {
        for &i in clauses {
            mark_clause(&cnf.clauses[i], model, &mut needed);
        }
    }
    needed
}

fn mark_clause(clause: &[Lit], model: &[bool], needed: &mut [bool]) {
    if clause
        .iter()
        .any(|l| model[l.var] == l.positive && needed[l.var])
    {
        return;
    }
    if let Some(l) = clause.iter().find(|l| model[l.var] == l.positive) {
        needed[l.var] = true;
    }
}

/// Forbid this exact combination of theory literals, returning the
/// blocking clause so a persistent SAT solver can mirror it. The clause
/// is a theory lemma (valid in every model of the theories), so it is
/// safe to keep forever — including across the incremental solver's
/// later queries under different assumptions.
pub(crate) fn block(low: &mut Lowering, lits: &[Lit]) -> Vec<Lit> {
    let clause: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
    low.cnf.add_clause(clause.clone());
    clause
}

/// Deletion-based unsat-core minimization for string conflicts.
fn minimize_str_core(items: &[(bool, (StrTerm, StrTerm), Lit)]) -> Vec<Lit> {
    let mut keep: Vec<(bool, (StrTerm, StrTerm), Lit)> = items.to_vec();
    let mut i = 0;
    while i < keep.len() {
        let eqs: Vec<(StrTerm, StrTerm)> = keep
            .iter()
            .enumerate()
            .filter(|(j, (eq, _, _))| *j != i && *eq)
            .map(|(_, (_, p, _))| p.clone())
            .collect();
        let neqs: Vec<(StrTerm, StrTerm)> = keep
            .iter()
            .enumerate()
            .filter(|(j, (eq, _, _))| *j != i && !*eq)
            .map(|(_, (_, p, _))| p.clone())
            .collect();
        if matches!(strings::solve(&eqs, &neqs), StrResult::Unsat) {
            keep.remove(i);
        } else {
            i += 1;
        }
    }
    keep.into_iter().map(|(_, _, l)| l).collect()
}

fn build_model(
    ctx: &Ctx,
    low: &Lowering,
    bool_model: &[bool],
    arith_model: &[Rat],
    str_model: &HashMap<String, String>,
) -> Model {
    let mut values: BTreeMap<String, ModelValue> = BTreeMap::new();
    for (i, v) in low.num_vars.iter().enumerate() {
        let r = arith_model[i];
        let mv = if v.is_int {
            debug_assert!(r.is_integer(), "integer var with fractional model value");
            ModelValue::Int(r.floor() as i64)
        } else {
            ModelValue::Real(r.to_f64())
        };
        values.insert(v.name.clone(), mv);
    }
    for (name, s) in str_model {
        values.insert(name.clone(), ModelValue::Str(s.clone()));
    }
    for (i, atom) in low.atoms.iter().enumerate() {
        if let Atom::BoolVar(name) = atom {
            values.insert(name.clone(), ModelValue::Bool(bool_model[low.atom_vars[i]]));
        }
    }
    // Array reads: evaluate index terms under the partial model.
    let partial = Model::new(values.clone(), HashMap::new());
    let mut selects: HashMap<(String, ModelKey), bool> = HashMap::new();
    for (i, atom) in low.atoms.iter().enumerate() {
        if let Atom::Select { array, index } = atom {
            let name = match ctx.kind(*array) {
                TermKind::Var(n) => n.clone(),
                _ => unreachable!("selects expanded to array vars"),
            };
            let key_val = partial.eval(ctx, *index);
            if let Some(key) = ModelKey::from_value(&key_val) {
                selects.insert((name, key), bool_model[low.atom_vars[i]]);
            }
        }
    }
    Model::new(values, selects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatResult, Solver};
    use crate::simplify;
    use crate::term::Sort;

    /// The lazy loop alone: these tests exercise it, not the tiers.
    fn cfg() -> SolverConfig {
        SolverConfig {
            tiers: TierConfig::OFF,
            ..SolverConfig::default()
        }
    }

    /// One query through the lazy loop alone, on a fresh solver.
    fn untiered(ctx: &mut Ctx, f: TermId) -> (SolveResult, SolverStats) {
        IncrementalSolver::new(cfg()).check_tiered(ctx, f)
    }

    #[test]
    fn paper_example_sat() {
        // (syma + 1 != 8) ∧ (syma > 3) → SAT (Sec. III-B gives syma == 4).
        let mut ctx = Ctx::new();
        let a = ctx.var("syma", Sort::Int);
        let one = ctx.int(1);
        let sum = ctx.add(a, one);
        let eight = ctx.int(8);
        let ne = ctx.ne(sum, eight);
        let three = ctx.int(3);
        let gt = ctx.gt(a, three);
        let f = ctx.and([ne, gt]);
        match check(&mut ctx, f, &cfg()) {
            SolveResult::Sat(m) => {
                let v = m.get_int("syma").unwrap();
                assert!(v > 3 && v + 1 != 8, "bad model value {v}");
                assert!(m.satisfies(&ctx, f));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn paper_example_unsat() {
        // (syma + 1 != 8) ∧ (syma == 7) → UNSAT (Sec. III-B).
        let mut ctx = Ctx::new();
        let a = ctx.var("syma", Sort::Int);
        let one = ctx.int(1);
        let sum = ctx.add(a, one);
        let eight = ctx.int(8);
        let ne = ctx.ne(sum, eight);
        let seven = ctx.int(7);
        let eq = ctx.eq(a, seven);
        let f = ctx.and([ne, eq]);
        assert!(matches!(check(&mut ctx, f, &cfg()), SolveResult::Unsat));
    }

    #[test]
    fn disjunction_picks_a_branch() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let zero = ctx.int(0);
        let ten = ctx.int(10);
        let lt = ctx.lt(x, zero);
        let gt = ctx.gt(x, ten);
        let f = ctx.or([lt, gt]);
        match check(&mut ctx, f, &cfg()) {
            SolveResult::Sat(m) => {
                let v = m.get_int("x").unwrap();
                assert!(!(0..=10).contains(&v));
                assert!(m.satisfies(&ctx, f));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn string_theory_integration() {
        let mut ctx = Ctx::new();
        let u = ctx.var("user", Sort::Str);
        let v = ctx.var("email", Sort::Str);
        let alice = ctx.str_const("alice");
        let e1 = ctx.eq(u, alice);
        let e2 = ctx.ne(u, v);
        let f = ctx.and([e1, e2]);
        match check(&mut ctx, f, &cfg()) {
            SolveResult::Sat(m) => {
                assert_eq!(m.get_str("user"), Some("alice"));
                assert_ne!(m.get_str("email"), Some("alice"));
                assert!(m.satisfies(&ctx, f));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn string_conflict_unsat() {
        let mut ctx = Ctx::new();
        let u = ctx.var("u", Sort::Str);
        let a = ctx.str_const("a");
        let b = ctx.str_const("b");
        let e1 = ctx.eq(u, a);
        let e2 = ctx.eq(u, b);
        let f = ctx.and([e1, e2]);
        assert!(matches!(check(&mut ctx, f, &cfg()), SolveResult::Unsat));
    }

    #[test]
    fn mixed_theories_and_booleans() {
        // (flag → x ≥ 5) ∧ (¬flag → s = "no") ∧ x = 7 ∧ flag
        let mut ctx = Ctx::new();
        let flag = ctx.var("flag", Sort::Bool);
        let x = ctx.var("x", Sort::Int);
        let s = ctx.var("s", Sort::Str);
        let five = ctx.int(5);
        let ge = ctx.ge(x, five);
        let i1 = ctx.implies(flag, ge);
        let nf = ctx.not(flag);
        let no = ctx.str_const("no");
        let seq = ctx.eq(s, no);
        let i2 = ctx.implies(nf, seq);
        let seven = ctx.int(7);
        let xeq = ctx.eq(x, seven);
        let f = ctx.and([i1, i2, xeq, flag]);
        match check(&mut ctx, f, &cfg()) {
            SolveResult::Sat(m) => {
                assert_eq!(m.get_int("x"), Some(7));
                assert_eq!(m.get("flag"), Some(&ModelValue::Bool(true)));
                assert!(m.satisfies(&ctx, f));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn array_store_then_read() {
        // read(write(m, k, true), k) must be true; read at другой key is free
        // but constrained false here.
        let mut ctx = Ctx::new();
        let m0 = ctx.array_var("m", Sort::Int);
        let k = ctx.var("k", Sort::Int);
        let j = ctx.var("j", Sort::Int);
        let tt = ctx.bool_const(true);
        let m1 = ctx.store(m0, k, tt);
        let rk = ctx.select(m1, k);
        let rj = ctx.select(m1, j);
        let nrj = ctx.not(rj);
        let f = ctx.and([rk, nrj]);
        match check(&mut ctx, f, &cfg()) {
            SolveResult::Sat(model) => {
                // j must differ from k, otherwise rj would be true.
                assert_ne!(model.get_int("k"), model.get_int("j"));
                assert!(model.satisfies(&ctx, f));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn array_congruence_forces_equal_reads() {
        // i = j ∧ read(m, i) ∧ ¬read(m, j) is UNSAT by congruence.
        let mut ctx = Ctx::new();
        let m = ctx.array_var("m", Sort::Int);
        let i = ctx.var("i", Sort::Int);
        let j = ctx.var("j", Sort::Int);
        let eq = ctx.eq(i, j);
        let ri = ctx.select(m, i);
        let rj = ctx.select(m, j);
        let nrj = ctx.not(rj);
        let f = ctx.and([eq, ri, nrj]);
        assert!(matches!(check(&mut ctx, f, &cfg()), SolveResult::Unsat));
    }

    #[test]
    fn real_arithmetic() {
        // 0 < r < 1 is satisfiable over reals.
        let mut ctx = Ctx::new();
        let r = ctx.var("r", Sort::Real);
        let zero = ctx.real(Rat::int(0));
        let one = ctx.real(Rat::int(1));
        let c1 = ctx.lt(zero, r);
        let c2 = ctx.lt(r, one);
        let f = ctx.and([c1, c2]);
        match check(&mut ctx, f, &cfg()) {
            SolveResult::Sat(m) => match m.get("r") {
                Some(ModelValue::Real(v)) => assert!(*v > 0.0 && *v < 1.0),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn int_gap_unsat_where_real_sat() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let zero = ctx.int(0);
        let one = ctx.int(1);
        let c1 = ctx.lt(zero, x);
        let c2 = ctx.lt(x, one);
        let f = ctx.and([c1, c2]);
        assert!(matches!(check(&mut ctx, f, &cfg()), SolveResult::Unsat));
    }

    #[test]
    fn deep_nesting() {
        // ⋀_{i<6} (xᵢ < xᵢ₊₁) ∧ x₀ = 0 ∧ x₆ ≤ 6 → forces xᵢ = i.
        let mut ctx = Ctx::new();
        let xs: Vec<_> = (0..7)
            .map(|i| ctx.var(format!("x{i}"), Sort::Int))
            .collect();
        let mut parts = Vec::new();
        for w in xs.windows(2) {
            parts.push(ctx.lt(w[0], w[1]));
        }
        let zero = ctx.int(0);
        let six = ctx.int(6);
        parts.push(ctx.eq(xs[0], zero));
        parts.push(ctx.le(xs[6], six));
        let f = ctx.and(parts);
        match check(&mut ctx, f, &cfg()) {
            SolveResult::Sat(m) => {
                for (i, x) in xs.iter().enumerate() {
                    let _ = x;
                    assert_eq!(m.get_int(&format!("x{i}")), Some(i as i64));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_reflect_search_effort() {
        // UNSAT via an arithmetic conflict: the stats must show at least
        // one SAT call, one theory iteration, one arithmetic conflict,
        // and a non-empty minimized core.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let zero = ctx.int(0);
        let one = ctx.int(1);
        let c1 = ctx.lt(zero, x);
        let c2 = ctx.lt(x, one);
        let f = ctx.and([c1, c2]);
        let (res, stats) = untiered(&mut ctx, f);
        assert!(matches!(res, SolveResult::Unsat));
        assert!(stats.sat_calls >= 1);
        assert!(stats.theory_iters >= 1);
        assert!(stats.arith_conflicts >= 1);
        assert!(stats.core_lits >= 1);
        assert!(stats.max_core_lits >= 1);
        assert!(stats.max_core_lits <= stats.core_lits);

        // absorb() sums counters and maxes the core size.
        let mut total = SolverStats::default();
        total.absorb(stats);
        total.absorb(stats);
        assert_eq!(total.arith_conflicts, 2 * stats.arith_conflicts);
        assert_eq!(total.max_core_lits, stats.max_core_lits);
    }

    #[test]
    fn planted_core_is_found_without_a_trial_per_literal() {
        // x0 < x1 < x2 < x0 spread among 57 satisfiable atoms over other
        // variables: one theory round over 60 literals.
        let mut ctx = Ctx::new();
        let xs: Vec<_> = (0..22)
            .map(|i| ctx.var(format!("x{i}"), Sort::Int))
            .collect();
        let (zero, hundred, cap) = (ctx.int(0), ctx.int(100), ctx.int(500));
        let mut parts = Vec::new();
        for &x in &xs[3..] {
            let sum = ctx.add(x, xs[0]);
            parts.extend([ctx.ge(x, zero), ctx.le(x, hundred), ctx.le(sum, cap)]);
        }
        let planted = [
            ctx.lt(xs[0], xs[1]),
            ctx.lt(xs[1], xs[2]),
            ctx.lt(xs[2], xs[0]),
        ];
        for (at, p) in [5, 28, 51].into_iter().zip(planted) {
            parts.insert(at, p);
        }
        assert_eq!(parts.len(), 60);
        let f = ctx.and(parts);

        let mut low = Lowering::new();
        low.assert(&ctx, f);
        let lin_atoms = low.atoms.iter().filter(|a| matches!(a, Atom::Lin(_)));
        assert_eq!(lin_atoms.count(), 60);
        let (sat, _) = Solver::from_cnf(&low.cnf).solve_under_assumptions(&[], u64::MAX);
        let Some(SatResult::Sat(bool_model)) = sat else {
            panic!("the boolean skeleton is a conjunction of atoms");
        };
        let every_clause: Vec<usize> = (0..low.cnf.clauses.len()).collect();
        let needed = prime_implicant_over(&low.cnf, &bool_model, &every_clause);
        let mut stats = SolverStats::default();
        let TheoryOutcome::Conflict(mut core) =
            theory_round(&ctx, &low, &bool_model, &needed, &cfg(), &mut stats)
        else {
            panic!("expected an arithmetic conflict");
        };
        let mut want: Vec<Lit> = planted
            .iter()
            .map(|&t| low.lowered_lit(t).expect("planted atom was lowered"))
            .collect();
        core.sort_by_key(|l| l.var);
        want.sort_by_key(|l| l.var);
        assert_eq!(core, want);
        // One solve for the round, then one trial per proof-core literal;
        // a trial per asserted literal would make it 61.
        assert!(stats.arith_solves <= 12, "{} solves", stats.arith_solves);
        assert_eq!(stats.arith_budget_exhausted, 0);

        let (res, full) = untiered(&mut ctx, f);
        assert!(matches!(res, SolveResult::Unsat));
        assert_eq!(full.arith_solves, stats.arith_solves);
        assert_eq!((full.arith_conflicts, full.core_lits), (1, 3));
    }

    #[test]
    fn a_model_that_falsifies_the_assertion_becomes_unknown() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let two = ctx.int(2);
        let f = ctx.ge(x, two);
        let model = |v| {
            let values = BTreeMap::from([("x".to_string(), ModelValue::Int(v))]);
            SolveResult::Sat(Model::new(values, HashMap::new()))
        };
        let mut stats = SolverStats::default();
        let kept = gate_model(&ctx, f, model(2), &mut stats);
        assert_eq!(kept.model().and_then(|m| m.get_int("x")), Some(2));
        assert_eq!(stats.model_rejected, 0);
        let rejected = gate_model(&ctx, f, model(1), &mut stats);
        assert!(matches!(rejected, SolveResult::Unknown));
        assert_eq!(stats.model_rejected, 1);
        // UNSAT is not a model: it passes through untouched.
        let unsat = gate_model(&ctx, f, SolveResult::Unsat, &mut stats);
        assert!(matches!(unsat, SolveResult::Unsat));
        assert_eq!(stats.model_rejected, 1);
    }

    #[test]
    fn constant_formulas_take_the_ordinary_route() {
        // Tier 0 folds both to a constant; neither is a special case.
        // `true` is a tier-1 SAT with the empty model, `false` is lowered
        // and refuted by the lazy loop.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let lt = ctx.lt(x, x);
        let folded = simplify::simplify(&mut ctx, lt);
        assert_eq!(*ctx.kind(folded), TermKind::BoolConst(false));
        let tiered = SolverConfig::default();
        let (res, stats) = IncrementalSolver::new(tiered.clone()).check_tiered(&mut ctx, lt);
        assert!(matches!(res, SolveResult::Unsat));
        assert_eq!((stats.t1_sat, stats.fallthrough), (0, 1));
        let le = ctx.le(x, x);
        let folded = simplify::simplify(&mut ctx, le);
        assert_eq!(*ctx.kind(folded), TermKind::BoolConst(true));
        let (res, stats) = IncrementalSolver::new(tiered).check_tiered(&mut ctx, le);
        assert!(res.model().expect("valid formula").is_empty());
        assert_eq!((stats.t1_sat, stats.fallthrough), (1, 0));
    }
}
