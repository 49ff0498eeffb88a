//! A golden-independent gate for the schedule-space reduction: on random
//! small workloads the sleep-set search must agree with an exhaustive one.
//!
//! The exhaustive oracle needs no second explorer: widening every
//! statement's table footprint to *all* tables makes every pair of moves
//! dependent, so nothing ever enters a sleep set and the same DFS visits
//! every interleaving. Whatever reduction replaces sleep sets must keep
//! these three properties (budgets are set so they never bind):
//!
//! 1. found / not-found agrees with the exhaustive search, for the
//!    deadlock hunt and for the anomaly hunt at read-committed and snapshot;
//! 2. the exhaustive search prunes nothing;
//! 3. the reduced search completes no more schedules than the exhaustive.

use proptest::prelude::*;
use weseer_db::{Database, IsolationLevel};
use weseer_replay::{explore, explore_anomalies, ConcreteStmt, Instance, ReplayConfig, Searched};
use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder, Value};

const TABLES: [&str; 3] = ["T0", "T1", "T2"];

fn base_db() -> Database {
    let table = |name: &str| {
        TableBuilder::new(name)
            .col("ID", ColType::Int)
            .col("V", ColType::Int)
            .primary_key(&["ID"])
            .build()
            .unwrap()
    };
    let db = Database::new(Catalog::new(TABLES.iter().map(|t| table(t)).collect()).unwrap());
    for t in TABLES {
        let rows = (0..2).map(|k| vec![Value::Int(k), Value::Int(0)]);
        db.seed(t, rows.collect());
    }
    db
}

/// `(is_update, table, key, value)`; two in three statements are updates.
type Stmt = (bool, usize, i64, i64);

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    (0u8..3, 0usize..3, 0i64..2, 1i64..100).prop_map(|(kind, t, k, v)| (kind > 0, t, k, v))
}

/// 2–3 instances of 1–3 statements. So that the found side of the
/// comparison is not starved, in one workload of four the second instance
/// is the first one reversed (cross-order lock acquisition: the deadlock
/// shape), and in another it is the first one reversed with reads and
/// writes swapped (`read x, write y` against `read y, write x`: the
/// write-skew shape).
fn workload_strategy() -> impl Strategy<Value = Vec<Vec<Stmt>>> {
    let instance = proptest::collection::vec(stmt_strategy(), 1..4);
    (proptest::collection::vec(instance, 2..4), 0u8..4).prop_map(|(mut workload, shape)| {
        if shape < 2 {
            let mirrored = workload[0].iter().rev();
            workload[1] = mirrored
                .map(|&(is_update, t, k, v)| (is_update ^ (shape == 1), t, k, v))
                .collect();
        }
        workload
    })
}

fn instances(workload: &[Vec<Stmt>]) -> Vec<Instance> {
    let stmt = |i: usize, &(is_update, t, key, val): &Stmt| {
        let table = TABLES[t];
        if is_update {
            let sql = format!("UPDATE {table} SET V = ? WHERE ID = ?");
            let params = vec![Value::Int(val), Value::Int(key)];
            ConcreteStmt::new(i + 1, parse(&sql).unwrap(), params)
        } else {
            let sql = format!("SELECT * FROM {table} a WHERE a.ID = ?");
            ConcreteStmt::new(i + 1, parse(&sql).unwrap(), vec![Value::Int(key)])
        }
    };
    let instance = |(n, stmts): (usize, &Vec<Stmt>)| Instance {
        name: format!("A{}", n + 1),
        stmts: stmts.iter().enumerate().map(|(i, s)| stmt(i, s)).collect(),
    };
    workload.iter().enumerate().map(instance).collect()
}

/// Every statement made to conflict with every other: no move is ever
/// independent of another, so the sleep sets stay empty.
fn widened(instances: &[Instance]) -> Vec<Instance> {
    let mut all = instances.to_vec();
    for cs in all.iter_mut().flat_map(|inst| &mut inst.stmts) {
        cs.reads.clear();
        cs.writes = TABLES.iter().map(|t| t.to_string()).collect();
    }
    all
}

/// `(found, schedules explored, branches pruned)` of one search.
type Summary = (bool, usize, usize);

fn summary<F>(s: Searched<F>) -> Summary {
    let found = s.found.is_some();
    assert!(found || !s.budget_hit, "budget must not bind in this test");
    (found, s.explored, s.pruned)
}

fn deadlock_hunt(base: &Database, instances: &[Instance], config: &ReplayConfig) -> Summary {
    summary(explore(base, instances, config))
}

fn anomaly_hunt(
    base: &Database,
    instances: &[Instance],
    iso: IsolationLevel,
    config: &ReplayConfig,
) -> Summary {
    summary(explore_anomalies(base, instances, iso, config))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only: ~2 s optimised, ~20 s in debug")]
    fn sleep_sets_agree_with_exhaustive_search(workload in workload_strategy()) {
        let base = base_db();
        let reduced = instances(&workload);
        let exhaustive = widened(&reduced);
        // 3 instances x 3 statements interleave 1680 ways; far below this.
        let config = ReplayConfig {
            max_schedules: 100_000,
            max_runs: 1_000_000,
            max_steps: 512,
        };
        let hunt = |iso: Option<IsolationLevel>, instances: &[Instance]| match iso {
            None => deadlock_hunt(&base, instances, &config),
            Some(iso) => anomaly_hunt(&base, instances, iso, &config),
        };
        let levels = [IsolationLevel::ReadCommitted, IsolationLevel::Snapshot];
        for goal in std::iter::once(None).chain(levels.map(Some)) {
            let (found, explored, _) = hunt(goal, &reduced);
            let (found_all, explored_all, pruned_all) = hunt(goal, &exhaustive);
            prop_assert_eq!(found, found_all, "{:?} hunt disagrees on {:?}", goal, workload);
            prop_assert_eq!(pruned_all, 0, "{:?} hunt: the oracle pruned on {:?}", goal, workload);
            prop_assert!(
                explored <= explored_all,
                "{:?} hunt explored {} > exhaustive {} on {:?}",
                goal, explored, explored_all, workload
            );
        }
    }
}
