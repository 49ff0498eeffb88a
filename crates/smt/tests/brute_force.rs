//! Property tests against exhaustive enumeration: on random small
//! formulas over a finite integer domain, the solver's verdict must match
//! enumeration, and SAT models must actually satisfy the assertion. This
//! is the independent reference for the one lazy-SMT loop, both on a
//! fresh solver and on a persistent one fed a query sequence.

mod common;

use common::{build, config_with, form_strategy, mk_vars, Atom, Form};
use proptest::prelude::*;
use weseer_smt::{check, Ctx, IncrementalSolver, Model, ModelKey, SolveResult, TermId, TierConfig};

const VARS: [&str; 3] = ["x", "y", "z"];
const DOMAIN: std::ops::RangeInclusive<i64> = -3..=3;
/// Cells of the array `m` inside the domain, one bit each.
const CELLS: u32 = 7;

/// A point of the search space: the three variables and, bit `k`, the
/// value of `m[DOMAIN.start() + k]`.
struct Env {
    vars: [i64; 3],
    m: u32,
}

fn cmp(op: u8, a: i64, b: i64) -> bool {
    match op {
        0 => a == b,
        1 => a != b,
        2 => a < b,
        3 => a <= b,
        4 => a > b,
        _ => a >= b,
    }
}

fn eval(f: &Form, env: &Env) -> bool {
    match f {
        Form::Atom(Atom::VarConst(v, op, c)) => cmp(*op, env.vars[*v], *c),
        Form::Atom(Atom::VarVar(a, op, b)) => cmp(*op, env.vars[*a], env.vars[*b]),
        Form::Atom(Atom::Read(v)) => env.m >> (env.vars[*v] - DOMAIN.start()) & 1 == 1,
        Form::Not(f) => !eval(f, env),
        Form::And(a, b) => eval(a, env) && eval(b, env),
        Form::Or(a, b) => eval(a, env) || eval(b, env),
    }
}

fn reads(f: &Form) -> bool {
    match f {
        Form::Atom(a) => matches!(a, Atom::Read(_)),
        Form::Not(f) => reads(f),
        Form::And(a, b) | Form::Or(a, b) => reads(a) || reads(b),
    }
}

/// Whether some point of the domain satisfies `f`; the cells of `m` are
/// enumerated only when `f` reads them.
fn enumerate(f: &Form) -> bool {
    let arrays = if reads(f) { 1 << CELLS } else { 1 };
    DOMAIN.clone().any(|x| {
        DOMAIN.clone().any(|y| {
            DOMAIN
                .clone()
                .any(|z| (0..arrays).any(|m| eval(f, &Env { vars: [x, y, z], m })))
        })
    })
}

/// `f` with every variable constrained to the enumerated domain, so
/// UNSAT agreement is meaningful.
fn bounded(ctx: &mut Ctx, f: &Form, vars: &[TermId; 3]) -> TermId {
    let body = build(ctx, f, vars);
    let lo = ctx.int(*DOMAIN.start());
    let hi = ctx.int(*DOMAIN.end());
    let mut parts = vec![body];
    for &v in vars {
        parts.push(ctx.ge(v, lo));
        parts.push(ctx.le(v, hi));
    }
    ctx.and(parts)
}

/// The solver's answer for `f` is enumeration's: SAT with a model that
/// `eval` — not the solver's own evaluator — finds satisfying, or UNSAT
/// exactly when no point satisfies `f`. These formulas are far inside
/// every budget, so Unknown is a failure too.
fn agrees(f: &Form, res: &SolveResult) -> TestCaseResult {
    let sat = enumerate(f);
    match res {
        SolveResult::Sat(model) => {
            prop_assert!(sat, "solver SAT but enumeration finds no point: {f:?}");
            let env = env_of(model);
            for v in env.vars {
                prop_assert!(DOMAIN.contains(&v), "model leaves the domain: {v}");
            }
            prop_assert!(eval(f, &env), "model {:?} does not satisfy {f:?}", env.vars);
        }
        SolveResult::Unsat => prop_assert!(!sat, "solver UNSAT but {f:?} is satisfiable"),
        SolveResult::Unknown => prop_assert!(false, "solver gave up on {f:?}"),
    }
    Ok(())
}

fn env_of(model: &Model) -> Env {
    let vars = VARS.map(|name| model.get_int(name).unwrap_or(0));
    let mut m = 0;
    for ((array, key), &value) in model.selects() {
        match key {
            ModelKey::Int(k) if array == "m" && value && DOMAIN.contains(k) => {
                m |= 1 << (k - DOMAIN.start());
            }
            _ => {}
        }
    }
    Env { vars, m }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// One formula, one fresh solver, the lazy loop alone.
    #[test]
    fn solver_matches_brute_force(f in form_strategy(false)) {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let assertion = bounded(&mut ctx, &f, &vars);
        agrees(&f, &check(&mut ctx, assertion, &config_with(TierConfig::OFF)))?;
    }

    /// One persistent solver fed 1–4 random formulas, with array reads,
    /// untiered and under the default tiers: every query's answer is
    /// enumeration's. Whatever the earlier queries left in the solver —
    /// Tseitin definitions, congruence axioms, blocking and learned
    /// clauses — must neither refute a later query nor let the per-query
    /// cone hide a constraint from the theories.
    #[test]
    fn incremental_sequence_matches_brute_force(
        forms in proptest::collection::vec(form_strategy(true), 1..5)
    ) {
        for tiers in [TierConfig::OFF, TierConfig::default()] {
            let mut ctx = Ctx::new();
            let vars = mk_vars(&mut ctx);
            let mut solver = IncrementalSolver::new(config_with(tiers));
            for f in &forms {
                let assertion = bounded(&mut ctx, f, &vars);
                agrees(f, &solver.check_tiered(&mut ctx, assertion).0)?;
            }
        }
    }

    /// Hash-consing sanity: building the same formula twice yields the
    /// same term id, and double negation collapses.
    #[test]
    fn construction_is_deterministic(f in form_strategy(false)) {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let a = build(&mut ctx, &f, &vars);
        let b = build(&mut ctx, &f, &vars);
        prop_assert_eq!(a, b);
        let na = ctx.not(a);
        let nna = ctx.not(na);
        prop_assert_eq!(nna, a);
    }
}
