//! Explorer behavior on hand-built workloads: deadlock discovery,
//! sleep-set pruning, wake-on-commit, and witness determinism.

use weseer_db::Database;
use weseer_replay::{explore, ConcreteStmt, ExploreOutcome, Instance, ReplayConfig};
use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder, Value};

fn db() -> Database {
    let catalog = Catalog::new(vec![
        TableBuilder::new("T")
            .col("ID", ColType::Int)
            .col("V", ColType::Int)
            .primary_key(&["ID"])
            .build()
            .unwrap(),
        TableBuilder::new("U")
            .col("ID", ColType::Int)
            .col("V", ColType::Int)
            .primary_key(&["ID"])
            .build()
            .unwrap(),
    ])
    .unwrap();
    let db = Database::new(catalog);
    db.seed(
        "T",
        vec![
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(2), Value::Int(0)],
        ],
    );
    db.seed("U", vec![vec![Value::Int(1), Value::Int(0)]]);
    db
}

fn inst(name: &str, stmts: &[(&str, &[i64])]) -> Instance {
    Instance {
        name: name.into(),
        stmts: stmts
            .iter()
            .enumerate()
            .map(|(i, (sql, ps))| {
                ConcreteStmt::new(
                    i + 1,
                    parse(sql).unwrap(),
                    ps.iter().map(|&v| Value::Int(v)).collect(),
                )
            })
            .collect(),
    }
}

fn cross_update_instances() -> Vec<Instance> {
    vec![
        inst(
            "A1",
            &[
                ("UPDATE T SET V = ? WHERE ID = ?", &[1, 1]),
                ("UPDATE T SET V = ? WHERE ID = ?", &[1, 2]),
            ],
        ),
        inst(
            "A2",
            &[
                ("UPDATE T SET V = ? WHERE ID = ?", &[2, 2]),
                ("UPDATE T SET V = ? WHERE ID = ?", &[2, 1]),
            ],
        ),
    ]
}

#[test]
fn cross_update_deadlock_confirmed() {
    let base = db();
    let instances = cross_update_instances();
    match explore(&base, &instances, &ReplayConfig::default()) {
        ExploreOutcome::Deadlock { steps, cycle, .. } => {
            assert!(!steps.is_empty());
            assert!(cycle.contains(&"A1".to_string()), "cycle: {cycle:?}");
            assert!(cycle.contains(&"A2".to_string()), "cycle: {cycle:?}");
            let last = steps.last().unwrap();
            assert_eq!(last.outcome, "deadlock");
            // Every step before the deadlock executed or blocked for real.
            assert!(steps
                .iter()
                .all(|s| ["ok", "blocked", "deadlock"].contains(&s.outcome.as_str())));
            // The schedule shows concrete SQL, not placeholders.
            assert!(steps.iter().all(|s| !s.sql.contains('?')));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn exploration_is_deterministic() {
    let render = || {
        let base = db();
        let instances = cross_update_instances();
        match explore(&base, &instances, &ReplayConfig::default()) {
            ExploreOutcome::Deadlock {
                steps,
                cycle,
                explored,
                pruned,
            } => format!("{steps:?}|{cycle:?}|{explored}|{pruned}"),
            other => panic!("expected deadlock, got {other:?}"),
        }
    };
    assert_eq!(render(), render());
}

#[test]
fn disjoint_tables_prune_and_terminate() {
    let base = db();
    let instances = vec![
        inst(
            "A1",
            &[
                ("UPDATE T SET V = ? WHERE ID = ?", &[1, 1]),
                ("UPDATE T SET V = ? WHERE ID = ?", &[1, 2]),
            ],
        ),
        inst("A2", &[("UPDATE U SET V = ? WHERE ID = ?", &[2, 1])]),
    ];
    match explore(&base, &instances, &ReplayConfig::default()) {
        ExploreOutcome::Exhausted {
            explored,
            pruned,
            budget_hit,
        } => {
            assert!(explored >= 1);
            assert!(pruned >= 1, "independent moves should be pruned");
            assert!(!budget_hit, "the whole reduced space fits the budget");
        }
        other => panic!("expected exhausted, got {other:?}"),
    }
}

#[test]
fn same_lock_order_never_deadlocks_and_blocked_txn_resumes() {
    let base = db();
    let instances = vec![
        inst(
            "A1",
            &[
                ("UPDATE T SET V = ? WHERE ID = ?", &[1, 1]),
                ("UPDATE T SET V = ? WHERE ID = ?", &[1, 2]),
            ],
        ),
        inst(
            "A2",
            &[
                ("UPDATE T SET V = ? WHERE ID = ?", &[2, 1]),
                ("UPDATE T SET V = ? WHERE ID = ?", &[2, 2]),
            ],
        ),
    ];
    match explore(&base, &instances, &ReplayConfig::default()) {
        ExploreOutcome::Exhausted { explored, .. } => assert!(explored >= 2),
        other => panic!("same lock order cannot deadlock, got {other:?}"),
    }
}

#[test]
fn budget_caps_exploration() {
    let base = db();
    let instances = cross_update_instances();
    let config = ReplayConfig {
        max_schedules: 1,
        max_runs: 1,
        max_steps: 512,
    };
    // With a single run the DFS cannot reach the deadlocking interleaving.
    match explore(&base, &instances, &config) {
        ExploreOutcome::Exhausted {
            explored,
            budget_hit,
            ..
        } => {
            assert!(explored <= 1);
            assert!(budget_hit, "stopping at max_runs must say so");
        }
        ExploreOutcome::Deadlock { explored, .. } => assert!(explored <= 1),
    }
    // A schedule abandoned at max_steps is budget-shaped too.
    let config = ReplayConfig {
        max_steps: 1,
        ..ReplayConfig::default()
    };
    match explore(&base, &instances, &config) {
        ExploreOutcome::Exhausted { budget_hit, .. } => assert!(budget_hit),
        other => panic!("one step cannot deadlock, got {other:?}"),
    }
    // A genuine exhaustion — the whole space explored — is not flagged.
    let serial = vec![cross_update_instances().remove(0)];
    match explore(&base, &serial, &ReplayConfig::default()) {
        ExploreOutcome::Exhausted { budget_hit, .. } => assert!(!budget_hit),
        other => panic!("a lone transaction cannot deadlock, got {other:?}"),
    }
}
