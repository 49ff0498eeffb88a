//! Explorer behavior on hand-built workloads: deadlock discovery,
//! sleep-set pruning, wake-on-commit, witness determinism, and what a goal
//! of its own sees of a closed cycle.

use weseer_db::{Database, LockTarget};
use weseer_replay::{
    explore, search, ConcreteStmt, Goal, Instance, ReplayConfig, Schedule, Wait, WitnessStep,
};
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
    let s = explore(&base, &instances, &ReplayConfig::default());
    let (steps, cycle) = s.found.expect("the cross update deadlocks");
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

#[test]
fn exploration_is_deterministic() {
    let render = || {
        let base = db();
        let instances = cross_update_instances();
        let s = explore(&base, &instances, &ReplayConfig::default());
        let (steps, cycle) = s.found.expect("the cross update deadlocks");
        format!("{steps:?}|{cycle:?}|{}|{}", s.explored, s.pruned)
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
    let s = explore(&base, &instances, &ReplayConfig::default());
    assert!(s.found.is_none(), "disjoint tables cannot deadlock");
    assert!(s.explored >= 1);
    assert!(s.pruned >= 1, "independent moves should be pruned");
    assert!(!s.budget_hit, "the whole reduced space fits the budget");
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
    let s = explore(&base, &instances, &ReplayConfig::default());
    assert!(s.found.is_none(), "same lock order cannot deadlock");
    assert!(s.explored >= 2);
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
    let s = explore(&base, &instances, &config);
    assert!(s.explored <= 1);
    assert!(
        s.found.is_some() || s.budget_hit,
        "stopping at max_runs must say so"
    );
    // A schedule abandoned at max_steps is budget-shaped too.
    let config = ReplayConfig {
        max_steps: 1,
        ..ReplayConfig::default()
    };
    let s = explore(&base, &instances, &config);
    assert!(s.found.is_none(), "one step cannot deadlock");
    assert!(s.budget_hit);
    // A genuine exhaustion — the whole space explored — is not flagged.
    let serial = vec![cross_update_instances().remove(0)];
    let s = explore(&base, &serial, &ReplayConfig::default());
    assert!(s.found.is_none(), "a lone transaction cannot deadlock");
    assert!(!s.budget_hit);
}

/// Accepts the first closed cycle and keeps what the view showed of it.
struct FirstCycle;

impl Goal for FirstCycle {
    type Finding = (Vec<Wait>, Vec<WitnessStep>);
    const PREFIX: &'static str = "test.first_cycle";
    fn judge(&self, s: &Schedule<'_>) -> Option<Self::Finding> {
        (!s.waits.is_empty()).then(|| (s.waits.clone(), s.steps()))
    }
}

/// Rejects every cycle, so the search must run to its end.
struct NoCycle;

impl Goal for NoCycle {
    type Finding = ();
    const PREFIX: &'static str = "test.no_cycle";
    fn judge(&self, _s: &Schedule<'_>) -> Option<()> {
        None
    }
}

#[test]
fn a_goal_sees_each_wait_its_target_and_every_holder_step() {
    let base = db();
    let instances = cross_update_instances();
    let config = ReplayConfig::default();
    let s = search(&base, &instances, &FirstCycle, &config);
    let (witness, (waits, steps)) = s.found.expect("the cross update deadlocks");
    // The view showed the witness's steps, closing step last, and the
    // deadlock goal finds the same schedule.
    assert_eq!(steps, witness);
    assert_eq!(steps.last().unwrap().outcome, "deadlock");
    let (deadlock_witness, _) = explore(&base, &instances, &config).found.unwrap();
    assert_eq!(witness, deadlock_witness);
    let row = |key: i64| LockTarget::Row {
        table: "T".into(),
        index: "PRIMARY".into(),
        key: vec![Value::Int(key)],
    };
    // A1 ran its first update, A2 its first, A1 blocked on row 2 and A2
    // closed the cycle on row 1: the victim waits on what A1's first
    // statement was granted, and A1 on what A2's first statement was.
    assert_eq!(
        waits,
        vec![
            Wait {
                instance: 1,
                pos: 1,
                target: row(1),
                holders: vec![0],
            },
            Wait {
                instance: 0,
                pos: 1,
                target: row(2),
                holders: vec![0],
            },
        ]
    );
    // A goal that rejects every cycle fails each victim and lets the
    // search run dry: the survivors of the same schedules commit.
    let s = search(&base, &instances, &NoCycle, &config);
    assert!(s.found.is_none());
    assert!(!s.budget_hit);
    assert!(s.explored >= 2);
}
