//! Property tests for the tiered solving fast path: on random small
//! formulas, tier 0 (simplification) must preserve the full solver's
//! verdict, a tier-1 (abstract pre-solve) model must be one the full
//! solver does not refute, and the tiered entry point must agree with
//! the plain solver.

use proptest::prelude::*;
use weseer_smt::{
    check, check_tiered, presolve, simplify, Ctx, SolveResult, SolverConfig, Sort, TermId,
};

#[derive(Debug, Clone)]
enum Atom {
    /// var[i] ⋈ const
    VarConst(usize, u8, i64),
    /// var[i] ⋈ var[j]
    VarVar(usize, u8, usize),
}

#[derive(Debug, Clone)]
enum Form {
    Atom(Atom),
    Not(Box<Form>),
    And(Box<Form>, Box<Form>),
    Or(Box<Form>, Box<Form>),
}

fn atom_strategy() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (0usize..3, 0u8..6, -3i64..=3).prop_map(|(v, op, c)| Atom::VarConst(v, op, c)),
        (0usize..3, 0u8..6, 0usize..3).prop_map(|(a, op, b)| Atom::VarVar(a, op, b)),
    ]
}

fn form_strategy() -> impl Strategy<Value = Form> {
    atom_strategy()
        .prop_map(Form::Atom)
        .prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                inner.clone().prop_map(|f| Form::Not(Box::new(f))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Form::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner).prop_map(|(a, b)| Form::Or(Box::new(a), Box::new(b))),
            ]
        })
}

fn build(ctx: &mut Ctx, f: &Form, vars: &[TermId; 3]) -> TermId {
    match f {
        Form::Atom(Atom::VarConst(v, op, c)) => {
            let rhs = ctx.int(*c);
            build_cmp(ctx, *op, vars[*v], rhs)
        }
        Form::Atom(Atom::VarVar(a, op, b)) => build_cmp(ctx, *op, vars[*a], vars[*b]),
        Form::Not(f) => {
            let inner = build(ctx, f, vars);
            ctx.not(inner)
        }
        Form::And(a, b) => {
            let (ta, tb) = (build(ctx, a, vars), build(ctx, b, vars));
            ctx.and([ta, tb])
        }
        Form::Or(a, b) => {
            let (ta, tb) = (build(ctx, a, vars), build(ctx, b, vars));
            ctx.or([ta, tb])
        }
    }
}

fn build_cmp(ctx: &mut Ctx, op: u8, a: TermId, b: TermId) -> TermId {
    match op {
        0 => ctx.eq(a, b),
        1 => ctx.ne(a, b),
        2 => ctx.lt(a, b),
        3 => ctx.le(a, b),
        4 => ctx.gt(a, b),
        _ => ctx.ge(a, b),
    }
}

fn mk_vars(ctx: &mut Ctx) -> [TermId; 3] {
    [
        ctx.var("x", Sort::Int),
        ctx.var("y", Sort::Int),
        ctx.var("z", Sort::Int),
    ]
}

/// Collapse a solver result to a three-way verdict for comparisons.
fn verdict(r: &SolveResult) -> &'static str {
    match r {
        SolveResult::Sat(_) => "sat",
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown => "unknown",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tier 0: the simplified formula has the same verdict as the
    /// original, and a model of the simplified form satisfies the
    /// original term (the rewrite is an equivalence, not a refinement).
    #[test]
    fn simplifier_preserves_verdicts(f in form_strategy()) {
        let config = SolverConfig::default();
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let original = build(&mut ctx, &f, &vars);
        let simplified = simplify(&mut ctx, original);

        let r_orig = check(&mut ctx, original, &config);
        let r_simp = check(&mut ctx, simplified, &config);
        prop_assert_eq!(
            verdict(&r_orig),
            verdict(&r_simp),
            "simplification changed the verdict of {:?}",
            f
        );
        if let SolveResult::Sat(model) = &r_simp {
            prop_assert!(
                model.satisfies(&ctx, original),
                "model of the simplified form does not satisfy the original {:?}",
                f
            );
        }
    }

    /// Tier 1 only finds models: a returned model satisfies the
    /// assertion, and the full solver does not say UNSAT.
    #[test]
    fn presolve_models_satisfy_and_are_not_refuted(f in form_strategy()) {
        let config = SolverConfig::default();
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let assertion = build(&mut ctx, &f, &vars);

        if let Some(model) = presolve(&ctx, assertion) {
            prop_assert!(
                model.satisfies(&ctx, assertion),
                "presolve model does not satisfy {:?}",
                f
            );
            let full = check(&mut ctx, assertion, &config);
            prop_assert!(
                verdict(&full) != "unsat",
                "presolve found a model but the full solver says UNSAT: {f:?}"
            );
        }
    }

    /// The tiered entry point agrees with the plain solver on every
    /// decided verdict, its SAT models satisfy the assertion, and
    /// repeated calls are deterministic.
    #[test]
    fn tiered_agrees_with_plain_check(f in form_strategy()) {
        let config = SolverConfig::default();
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let assertion = build(&mut ctx, &f, &vars);

        let (tiered, stats) = check_tiered(&mut ctx, assertion, &config);
        let plain = check(&mut ctx, assertion, &config);
        // Unknown = a resource limit, which tier discharge can avoid;
        // decided verdicts must match exactly.
        if verdict(&tiered) != "unknown" && verdict(&plain) != "unknown" {
            prop_assert_eq!(
                verdict(&tiered),
                verdict(&plain),
                "tiered and plain solver disagree on {:?}",
                f
            );
        }
        if let SolveResult::Sat(model) = &tiered {
            prop_assert!(
                model.satisfies(&ctx, assertion),
                "tiered SAT model does not satisfy {:?}",
                f
            );
        }
        // Every query is accounted for: answered by a tier-1 model or
        // fallen through to the full solver — the only source of UNSAT.
        prop_assert_eq!(
            stats.t1_sat + stats.fallthrough,
            1,
            "fastpath counters must partition the query"
        );
        if verdict(&tiered) == "unsat" {
            prop_assert_eq!(stats.fallthrough, 1);
        }
        prop_assert_eq!(stats.model_rejected, 0);

        let (again, _) = check_tiered(&mut ctx, assertion, &config);
        prop_assert_eq!(verdict(&tiered), verdict(&again), "tiered solving is not deterministic");
    }
}
