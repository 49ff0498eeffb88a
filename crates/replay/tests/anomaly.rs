//! Anomaly explorer behavior on planted workloads: lost-update and
//! write-skew confirmation at weak isolation levels, disappearance at
//! serializable, and canonical witness JSON determinism.

use weseer_db::{Database, IsolationLevel};
use weseer_replay::{
    explore_anomalies, serial_state_digests, state_digest, AnomalyWitness, ConcreteStmt, Instance,
    ReplayConfig,
};
use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder, Value};

fn account_db() -> Database {
    let catalog = Catalog::new(vec![TableBuilder::new("Account")
        .col("ID", ColType::Int)
        .col("BAL", ColType::Int)
        .primary_key(&["ID"])
        .build()
        .unwrap()])
    .unwrap();
    let db = Database::new(catalog);
    db.seed("Account", vec![vec![Value::Int(1), Value::Int(100)]]);
    db
}

fn doctors_db() -> Database {
    let catalog = Catalog::new(vec![TableBuilder::new("Doctors")
        .col("ID", ColType::Int)
        .col("ONCALL", ColType::Int)
        .primary_key(&["ID"])
        .build()
        .unwrap()])
    .unwrap();
    let db = Database::new(catalog);
    db.seed(
        "Doctors",
        vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(2), Value::Int(1)],
        ],
    );
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

/// Two read-modify-write withdrawals over the same account: the classic
/// lost-update pair.
fn withdraw_instances() -> Vec<Instance> {
    vec![
        inst(
            "A1",
            &[
                ("SELECT * FROM Account a WHERE a.ID = ?", &[1]),
                ("UPDATE Account SET BAL = ? WHERE ID = ?", &[90, 1]),
            ],
        ),
        inst(
            "A2",
            &[
                ("SELECT * FROM Account a WHERE a.ID = ?", &[1]),
                ("UPDATE Account SET BAL = ? WHERE ID = ?", &[95, 1]),
            ],
        ),
    ]
}

/// Both check the on-call roster, then each signs off a different doctor:
/// disjoint writes, crossed reads — write skew.
fn oncall_instances() -> Vec<Instance> {
    vec![
        inst(
            "A1",
            &[
                ("SELECT * FROM Doctors d WHERE d.ONCALL = ?", &[1]),
                ("UPDATE Doctors SET ONCALL = ? WHERE ID = ?", &[0, 1]),
            ],
        ),
        inst(
            "A2",
            &[
                ("SELECT * FROM Doctors d WHERE d.ONCALL = ?", &[1]),
                ("UPDATE Doctors SET ONCALL = ? WHERE ID = ?", &[0, 2]),
            ],
        ),
    ]
}

fn apis() -> Vec<String> {
    vec!["ApiA".into(), "ApiB".into()]
}

/// Hunt for an anomaly at `iso`: the witness, built the way the anomaly
/// screen builds it, and the schedules explored.
fn hunt(
    base: &Database,
    instances: &[Instance],
    iso: IsolationLevel,
) -> (Option<AnomalyWitness>, usize) {
    let s = explore_anomalies(base, instances, iso, &ReplayConfig::default());
    (
        AnomalyWitness::found(&s, instances, &apis(), iso),
        s.explored,
    )
}

#[test]
fn lost_update_confirmed_at_read_committed() {
    let base = account_db();
    let (w, _) = hunt(&base, &withdraw_instances(), IsolationLevel::ReadCommitted);
    let w = w.expect("lost update must be confirmed");
    assert_eq!(w.isolation, "read-committed");
    assert!(w.anomalies.iter().any(|a| a.kind == "lost-update"));
    assert_eq!(w.instances.len(), 2);
    assert_eq!(w.instances[0].api, "ApiA");
    assert!(w.steps.iter().all(|s| !s.sql.contains('?')));
}

#[test]
fn lost_update_vanishes_at_serializable() {
    let base = account_db();
    let (w, explored) = hunt(&base, &withdraw_instances(), IsolationLevel::Serializable);
    if let Some(w) = w {
        panic!("serializable must be clean, got {}", w.render());
    }
    assert!(explored >= 1);
}

#[test]
fn lost_update_vanishes_at_snapshot_isolation() {
    // First-updater-wins aborts the stale overwrite, and an aborted
    // transaction contributes no anomalies.
    let base = account_db();
    let (w, _) = hunt(&base, &withdraw_instances(), IsolationLevel::Snapshot);
    assert!(
        w.map(|w| w.anomalies.iter().all(|a| a.kind != "lost-update"))
            .unwrap_or(true),
        "snapshot isolation kills lost updates"
    );
}

#[test]
fn write_skew_confirmed_at_snapshot_but_not_serializable() {
    let base = doctors_db();
    let (w, _) = hunt(&base, &oncall_instances(), IsolationLevel::Snapshot);
    let w = w.expect("write skew must be confirmed at SI");
    assert!(w.anomalies.iter().any(|a| a.kind == "write-skew"));
    assert_eq!(
        w.anomalies
            .iter()
            .find(|a| a.kind == "write-skew")
            .unwrap()
            .table,
        "Doctors"
    );

    let (w, _) = hunt(&base, &oncall_instances(), IsolationLevel::Serializable);
    assert!(w.is_none(), "2PL forbids write skew");
}

#[test]
fn witness_json_is_deterministic_and_round_trips() {
    let render = || {
        let base = account_db();
        let (w, _) = hunt(&base, &withdraw_instances(), IsolationLevel::ReadCommitted);
        w.expect("the lost update is confirmed").to_json()
    };
    let j = render();
    assert_eq!(j, render(), "exploration must be deterministic");
    assert!(!j.contains('\n'));
    assert!(j.starts_with("{\"isolation\":\"read-committed\""));
    let parsed = AnomalyWitness::from_json(&j).expect("parse");
    assert_eq!(parsed.to_json(), j, "byte-exact round trip");
}

#[test]
fn serial_digests_cover_terminal_states_at_serializable() {
    let base = account_db();
    let instances = withdraw_instances();
    let digests = serial_state_digests(&base, &instances, IsolationLevel::Serializable);
    assert!(!digests.is_empty());
    // Running either serial order for real reproduces a listed digest.
    let db = base.fork();
    let mut s = db.session();
    for i in &instances {
        s.begin();
        for cs in &i.stmts {
            s.execute(&cs.stmt, &cs.params).unwrap();
        }
        s.commit().unwrap();
    }
    assert!(digests.contains(&state_digest(&db)));
}
