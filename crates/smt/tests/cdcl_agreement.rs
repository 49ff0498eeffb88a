//! Property tests for the solver's configurations: on random lowered
//! QF_LIA terms, every row of the ablation grid (each fast-path tier
//! withheld, all on, all off) must yield the same verdict, and every SAT
//! model must satisfy the original formula; an incremental solver fed a
//! query sequence must agree with fresh per-formula solves. A separate
//! property pins determinism: repeated solves of the same input are
//! identical. (CDCL vs the reference DPLL is compared at the CNF level,
//! in `sat.rs`'s own proptests.)

use proptest::prelude::*;
use weseer_smt::{
    check_tiered, Ctx, IncrementalSolver, SolveResult, SolverConfig, Sort, TermId, TierConfig,
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

fn verdict(r: &SolveResult) -> &'static str {
    match r {
        SolveResult::Sat(_) => "sat",
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown => "unknown",
    }
}

fn config_with(tiers: TierConfig) -> SolverConfig {
    SolverConfig {
        tiers,
        ..SolverConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every named ablation config decides random QF_LIA formulas
    /// identically, and each SAT model satisfies the original term.
    #[test]
    fn ablation_grid_agrees_on_random_terms(f in form_strategy()) {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let term = build(&mut ctx, &f, &vars);
        let mut baseline: Option<&'static str> = None;
        for (name, tiers) in TierConfig::ablation_configs() {
            let (res, _) = check_tiered(&mut ctx, term, &config_with(tiers));
            if let SolveResult::Sat(m) = &res {
                prop_assert!(
                    m.satisfies(&ctx, term),
                    "config {} returned a bad model for {:?}",
                    name,
                    f
                );
            }
            match baseline {
                None => baseline = Some(verdict(&res)),
                Some(b) => prop_assert_eq!(
                    b,
                    verdict(&res),
                    "config {} diverged on {:?}",
                    name,
                    f
                ),
            }
        }
    }

    /// An incremental solver fed a sequence of random formulas agrees
    /// with fresh per-formula solves — the accumulated clause database
    /// (Tseitin definitions, congruence axioms, blocking clauses, learned
    /// clauses) must never change later verdicts.
    #[test]
    fn incremental_sequence_agrees_with_fresh_solves(
        forms in proptest::collection::vec(form_strategy(), 1..4)
    ) {
        let config = SolverConfig::default();
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let mut inc = IncrementalSolver::new(config.clone());
        for f in &forms {
            let term = build(&mut ctx, f, &vars);
            let (inc_res, _) = inc.check_tiered(&mut ctx, term);
            let (fresh_res, _) = check_tiered(&mut ctx, term, &config);
            prop_assert_eq!(
                verdict(&inc_res),
                verdict(&fresh_res),
                "incremental diverged from fresh on {:?}",
                f
            );
            if let SolveResult::Sat(m) = &inc_res {
                prop_assert!(m.satisfies(&ctx, term));
            }
        }
    }

    /// Determinism: the same formula solved twice (fresh contexts, fresh
    /// solvers) produces byte-identical verdicts and models.
    #[test]
    fn solving_is_deterministic(f in form_strategy()) {
        let run = |f: &Form| {
            let config = SolverConfig::default();
            let mut ctx = Ctx::new();
            let vars = mk_vars(&mut ctx);
            let term = build(&mut ctx, f, &vars);
            let (res, _) = check_tiered(&mut ctx, term, &config);
            format!("{res:?}")
        };
        prop_assert_eq!(run(&f), run(&f));
    }
}
