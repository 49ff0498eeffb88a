//! Property tests for the solver's configurations: on random lowered
//! QF_LIA terms, every row of the ablation grid (each fast-path tier
//! withheld, all on, all off) must yield the same verdict, and every SAT
//! model must satisfy the original formula; an incremental solver fed a
//! query sequence must agree with a fresh solver per formula. A separate
//! property pins determinism: repeated solves of the same input are
//! identical. (CDCL vs the reference DPLL is compared at the CNF level,
//! in `sat.rs`'s own proptests; the independent reference for verdicts is
//! enumeration, in `brute_force.rs`.)

mod common;

use common::{build, config_with, form_strategy, mk_vars};
use proptest::prelude::*;
use weseer_smt::{check, Ctx, IncrementalSolver, SolveResult, SolverConfig, TierConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every named ablation config decides random QF_LIA formulas
    /// identically, and each SAT model satisfies the original term. The
    /// query is answered exactly once — by a tier-1 model or by the lazy
    /// loop, the only source of UNSAT — and no model fails the SAT gate.
    #[test]
    fn ablation_grid_agrees_on_random_terms(f in form_strategy(false)) {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let term = build(&mut ctx, &f, &vars);
        let mut baseline: Option<&'static str> = None;
        for (name, tiers) in TierConfig::ablation_configs() {
            let (res, stats) = IncrementalSolver::new(config_with(tiers)).check_tiered(&mut ctx, term);
            if let SolveResult::Sat(m) = &res {
                prop_assert!(
                    m.satisfies(&ctx, term),
                    "config {} returned a bad model for {:?}",
                    name,
                    f
                );
            }
            prop_assert_eq!(stats.t1_sat + stats.fallthrough, 1, "config {}", name);
            if matches!(res, SolveResult::Unsat) {
                prop_assert_eq!(stats.fallthrough, 1, "config {}", name);
            }
            prop_assert_eq!(stats.model_rejected, 0, "config {}", name);
            match baseline {
                None => baseline = Some(res.verdict_str()),
                Some(b) => prop_assert_eq!(
                    b,
                    res.verdict_str(),
                    "config {} diverged on {:?}",
                    name,
                    f
                ),
            }
        }
    }

    /// An incremental solver fed a sequence of random formulas agrees
    /// with a fresh solver per formula — the accumulated clause database
    /// (Tseitin definitions, congruence axioms, blocking clauses, learned
    /// clauses) must never change later verdicts.
    #[test]
    fn incremental_sequence_agrees_with_fresh_solves(
        forms in proptest::collection::vec(form_strategy(false), 1..4)
    ) {
        let config = SolverConfig::default();
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let mut inc = IncrementalSolver::new(config.clone());
        for f in &forms {
            let term = build(&mut ctx, f, &vars);
            let (inc_res, _) = inc.check_tiered(&mut ctx, term);
            let fresh_res = check(&mut ctx, term, &config);
            prop_assert_eq!(
                inc_res.verdict_str(),
                fresh_res.verdict_str(),
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
    fn solving_is_deterministic(f in form_strategy(false)) {
        let run = |f: &common::Form| {
            let mut ctx = Ctx::new();
            let vars = mk_vars(&mut ctx);
            let term = build(&mut ctx, f, &vars);
            format!("{:?}", check(&mut ctx, term, &SolverConfig::default()))
        };
        prop_assert_eq!(run(&f), run(&f));
    }
}
