//! Property tests for the Alg. 1 container modeling: `SymMap` must behave
//! exactly like an ordinary map at the concrete level, and its recorded
//! path conditions must always be satisfiable together (they describe one
//! real execution).

use proptest::prelude::*;
use std::collections::HashMap;
use weseer_concolic::containers::SymMap;
use weseer_concolic::{Engine, ExecMode};
use weseer_smt::{check, SolveResult, SolverConfig, Sort};
use weseer_sqlir::Value;

#[derive(Debug, Clone)]
enum MapOp {
    Get(i64),
    Put(i64, i32),
    Remove(i64),
}

fn op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0i64..4).prop_map(MapOp::Get),
        (0i64..4, any::<i32>()).prop_map(|(k, v)| MapOp::Put(k, v)),
        (0i64..4).prop_map(MapOp::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    // Op count stays ≤ 12: heavy hit/miss mixes over aliased symbolic keys
    // are hard for the learning-free DPLL(T) core (it degrades to Unknown
    // gracefully beyond that — see SolverConfig::sat_decision_budget).
    #[test]
    fn symmap_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..12)) {
        let mut engine = Engine::new(ExecMode::Concolic);
        engine.start_concolic();
        let mut sym: SymMap<i32> = SymMap::new(&mut engine, "m", Sort::Int);
        let mut oracle: HashMap<i64, i32> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                MapOp::Get(k) => {
                    let key = engine.make_symbolic(format!("k{i}"), Value::Int(*k));
                    prop_assert_eq!(sym.get(&mut engine, &key), oracle.get(k).copied());
                }
                MapOp::Put(k, v) => {
                    let key = engine.make_symbolic(format!("k{i}"), Value::Int(*k));
                    prop_assert_eq!(
                        sym.put(&mut engine, key, *v),
                        oracle.insert(*k, *v)
                    );
                }
                MapOp::Remove(k) => {
                    let key = engine.make_symbolic(format!("k{i}"), Value::Int(*k));
                    prop_assert_eq!(sym.remove(&mut engine, &key), oracle.remove(k));
                }
            }
            prop_assert_eq!(sym.len(), oracle.len());
        }

        // The recorded path conditions describe this very execution, so
        // their conjunction must be satisfiable.
        let terms: Vec<_> = engine.path_conds().iter().map(|p| p.term).collect();
        if !terms.is_empty() {
            let mut ctx = std::mem::take(&mut engine.ctx);
            let conj = ctx.and(terms);
            let r = check(&mut ctx, conj, &SolverConfig::default());
            prop_assert!(
                matches!(r, SolveResult::Sat(_)),
                "path conditions of a real execution must be SAT, got {r:?}"
            );
        }
    }
}
