//! Property tests for the tiered solving fast path: on random small
//! formulas, tier 0 (simplification) must preserve the untiered solver's
//! verdict, and a tier-1 (abstract pre-solve) model must be one the
//! untiered solver does not refute. (Agreement of every tier row with
//! `TierConfig::OFF` is the ablation-grid property in
//! `cdcl_agreement.rs`.)

mod common;

use common::{build, config_with, form_strategy, mk_vars};
use proptest::prelude::*;
use weseer_smt::{check, presolve, simplify, Ctx, SolveResult, TierConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tier 0: the simplified formula has the same verdict as the
    /// original, and a model of the simplified form satisfies the
    /// original term (the rewrite is an equivalence, not a refinement).
    #[test]
    fn simplifier_preserves_verdicts(f in form_strategy(false)) {
        let config = config_with(TierConfig::OFF);
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let original = build(&mut ctx, &f, &vars);
        let simplified = simplify(&mut ctx, original);

        let r_orig = check(&mut ctx, original, &config);
        let r_simp = check(&mut ctx, simplified, &config);
        prop_assert_eq!(
            r_orig.verdict_str(),
            r_simp.verdict_str(),
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
    /// assertion, and the untiered solver does not say UNSAT.
    #[test]
    fn presolve_models_satisfy_and_are_not_refuted(f in form_strategy(false)) {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let assertion = build(&mut ctx, &f, &vars);

        if let Some(model) = presolve(&ctx, assertion) {
            prop_assert!(
                model.satisfies(&ctx, assertion),
                "presolve model does not satisfy {:?}",
                f
            );
            let full = check(&mut ctx, assertion, &config_with(TierConfig::OFF));
            prop_assert!(
                !matches!(full, SolveResult::Unsat),
                "presolve found a model but the untiered solver says UNSAT: {f:?}"
            );
        }
    }
}
