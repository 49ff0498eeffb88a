//! MVCC subsystem integration tests: snapshot visibility per isolation
//! level, first-updater-wins aborts, anomaly tracking through the real
//! engine, fork hygiene, and isolation-level name parsing.

use weseer_db::{AnomalyKind, Database, DbError, IsolationLevel};
use weseer_sqlir::parser::parse;
use weseer_sqlir::{Catalog, ColType, TableBuilder, Value, Value as V};

fn account_catalog() -> Catalog {
    Catalog::new(vec![TableBuilder::new("Account")
        .col("ID", ColType::Int)
        .col("BAL", ColType::Int)
        .primary_key(&["ID"])
        .build()
        .unwrap()])
    .unwrap()
}

fn account_db() -> Database {
    let db = Database::new(account_catalog());
    db.seed("Account", vec![vec![V::Int(1), V::Int(100)]]);
    db
}

fn bal(db: &Database) -> i64 {
    match db.dump("Account")[0][1] {
        Value::Int(i) => i,
        ref v => panic!("unexpected balance {v:?}"),
    }
}

#[test]
fn snapshot_read_skips_uncommitted_and_takes_no_locks() {
    let db = account_db();
    let sel = parse("SELECT * FROM Account a WHERE a.ID = ?").unwrap();
    let upd = parse("UPDATE Account SET BAL = ? WHERE ID = ?").unwrap();

    let mut writer = db.session(); // serializable
    writer.begin();
    writer.execute(&upd, &[V::Int(50), V::Int(1)]).unwrap();

    let mut reader = db.session_at(IsolationLevel::ReadCommitted);
    reader.begin();
    let r = reader.execute(&sel, &[V::Int(1)]).unwrap();
    // Uncommitted write invisible; no locks held, one snapshot read.
    assert_eq!(r.rows[0][1].1, V::Int(100));
    assert!(r.locks.is_empty());
    assert_eq!(r.snapshot_reads.len(), 1);
    assert_eq!(r.snapshot_reads[0].0, "Account");

    writer.commit().unwrap();
    // Read-committed re-snapshots per statement: the commit is visible.
    let r = reader.execute(&sel, &[V::Int(1)]).unwrap();
    assert_eq!(r.rows[0][1].1, V::Int(50));
    reader.rollback();
}

#[test]
fn repeatable_read_pins_the_transaction_snapshot() {
    let db = account_db();
    let sel = parse("SELECT * FROM Account a WHERE a.ID = ?").unwrap();
    let upd = parse("UPDATE Account SET BAL = ? WHERE ID = ?").unwrap();

    let mut reader = db.session_at(IsolationLevel::RepeatableRead);
    reader.begin();
    let r = reader.execute(&sel, &[V::Int(1)]).unwrap();
    assert_eq!(r.rows[0][1].1, V::Int(100));

    let mut writer = db.session();
    writer.begin();
    writer.execute(&upd, &[V::Int(77), V::Int(1)]).unwrap();
    writer.commit().unwrap();
    assert_eq!(bal(&db), 77);

    // The reader still sees its snapshot.
    let r = reader.execute(&sel, &[V::Int(1)]).unwrap();
    assert_eq!(r.rows[0][1].1, V::Int(100));
    reader.rollback();
}

#[test]
fn serializable_plain_select_still_locks() {
    let db = account_db();
    let sel = parse("SELECT * FROM Account a WHERE a.ID = ?").unwrap();
    let mut s = db.session();
    assert_eq!(s.isolation(), IsolationLevel::Serializable);
    s.begin();
    let r = s.execute(&sel, &[V::Int(1)]).unwrap();
    assert!(!r.locks.is_empty(), "2PL SELECT takes shared locks");
    assert!(r.snapshot_reads.is_empty());
    s.rollback();
}

#[test]
fn snapshot_isolation_aborts_stale_overwrite() {
    let db = account_db();
    let sel = parse("SELECT * FROM Account a WHERE a.ID = ?").unwrap();
    let upd = parse("UPDATE Account SET BAL = ? WHERE ID = ?").unwrap();

    let mut a = db.session_at(IsolationLevel::Snapshot);
    let mut b = db.session_at(IsolationLevel::Snapshot);
    a.begin();
    b.begin();
    a.execute(&sel, &[V::Int(1)]).unwrap();
    b.execute(&sel, &[V::Int(1)]).unwrap();
    a.execute(&upd, &[V::Int(90), V::Int(1)]).unwrap();
    a.commit().unwrap();

    // First-updater-wins: b's overwrite of a newer version aborts.
    let err = b.execute(&upd, &[V::Int(95), V::Int(1)]).unwrap_err();
    assert!(matches!(err, DbError::WriteConflict { ref table } if table == "Account"));
    assert!(!b.in_txn(), "write conflict rolls the transaction back");
    assert_eq!(db.stats().write_conflict_aborts, 1);
    assert_eq!(bal(&db), 90);
    // The aborted transaction contributes no anomalies.
    assert!(db.anomaly_events().is_empty());
}

#[test]
fn lost_update_detected_at_read_committed() {
    let db = account_db();
    let sel = parse("SELECT * FROM Account a WHERE a.ID = ?").unwrap();
    let upd = parse("UPDATE Account SET BAL = ? WHERE ID = ?").unwrap();

    let mut a = db.session_at(IsolationLevel::ReadCommitted);
    let mut b = db.session_at(IsolationLevel::ReadCommitted);
    a.begin();
    b.begin();
    a.execute(&sel, &[V::Int(1)]).unwrap();
    b.execute(&sel, &[V::Int(1)]).unwrap();
    a.execute(&upd, &[V::Int(90), V::Int(1)]).unwrap();
    a.commit().unwrap();
    // b overwrites based on its stale read — the classic lost update.
    b.execute(&upd, &[V::Int(95), V::Int(1)]).unwrap();
    assert!(db.anomaly_events().is_empty(), "promoted only at commit");
    b.commit().unwrap();

    let evs = db.anomaly_events();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].kind, AnomalyKind::LostUpdate);
    assert_eq!(evs[0].table, "Account");
    assert_eq!(bal(&db), 95, "a's committed update was lost");
}

#[test]
fn write_skew_detected_at_snapshot_isolation() {
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
        vec![vec![V::Int(1), V::Int(1)], vec![V::Int(2), V::Int(1)]],
    );
    let sel = parse("SELECT * FROM Doctors d WHERE d.ONCALL = ?").unwrap();
    let upd = parse("UPDATE Doctors SET ONCALL = ? WHERE ID = ?").unwrap();

    let mut a = db.session_at(IsolationLevel::Snapshot);
    let mut b = db.session_at(IsolationLevel::Snapshot);
    a.begin();
    b.begin();
    // Both check "at least two doctors on call", then each signs off a
    // different doctor: disjoint writes, crossed reads.
    assert_eq!(a.execute(&sel, &[V::Int(1)]).unwrap().rows.len(), 2);
    assert_eq!(b.execute(&sel, &[V::Int(1)]).unwrap().rows.len(), 2);
    a.execute(&upd, &[V::Int(0), V::Int(1)]).unwrap();
    b.execute(&upd, &[V::Int(0), V::Int(2)]).unwrap();
    a.commit().unwrap();
    b.commit().unwrap();

    let evs = db.anomaly_events();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].kind, AnomalyKind::WriteSkew);
    // Invariant violated: nobody is on call.
    let on_call = db
        .dump("Doctors")
        .iter()
        .filter(|r| r[1] == V::Int(1))
        .count();
    assert_eq!(on_call, 0);
}

#[test]
fn read_fracture_detected_at_read_committed() {
    let db = account_db();
    let sel = parse("SELECT * FROM Account a WHERE a.ID = ?").unwrap();
    let upd = parse("UPDATE Account SET BAL = ? WHERE ID = ?").unwrap();

    let mut a = db.session_at(IsolationLevel::ReadCommitted);
    a.begin();
    a.execute(&sel, &[V::Int(1)]).unwrap();

    let mut w = db.session();
    w.begin();
    w.execute(&upd, &[V::Int(42), V::Int(1)]).unwrap();
    w.commit().unwrap();

    // Same row, different version within one transaction.
    a.execute(&sel, &[V::Int(1)]).unwrap();
    a.commit().unwrap();
    let evs = db.anomaly_events();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].kind, AnomalyKind::ReadFracture);
}

#[test]
fn fork_rolls_back_in_flight_transactions() {
    let db = account_db();
    let upd = parse("UPDATE Account SET BAL = ? WHERE ID = ?").unwrap();
    let ins = parse("INSERT INTO Account (ID, BAL) VALUES (?, ?)").unwrap();

    let mut open = db.session();
    open.begin();
    open.execute(&upd, &[V::Int(1), V::Int(1)]).unwrap();
    open.execute(&ins, &[V::Int(2), V::Int(5)]).unwrap();

    // The fork must contain only committed state: no dirty balance, no
    // phantom row, no undo log left to roll back.
    let fork = db.fork();
    assert_eq!(fork.count("Account"), 1);
    assert_eq!(bal(&fork), 100);

    // A full transaction on the fork works from the clean state.
    let mut s = fork.session();
    s.begin();
    s.execute(&upd, &[V::Int(60), V::Int(1)]).unwrap();
    s.commit().unwrap();
    assert_eq!(bal(&fork), 60);

    // The source's open transaction is untouched and still rolls back.
    open.rollback();
    assert_eq!(bal(&db), 100);
    assert_eq!(db.count("Account"), 1);
}

#[test]
fn fork_inherits_default_isolation() {
    let db = account_db();
    db.set_default_isolation(IsolationLevel::ReadCommitted);
    let fork = db.fork();
    assert_eq!(fork.default_isolation(), IsolationLevel::ReadCommitted);
    assert_eq!(fork.session().isolation(), IsolationLevel::ReadCommitted);
}

#[test]
fn isolation_level_names_parse_and_a_typo_lists_them() {
    for level in IsolationLevel::ALL {
        assert_eq!(level.name().parse(), Ok(level));
    }
    assert_eq!("SNAPSHOT".parse(), Ok(IsolationLevel::Snapshot));

    let msg = "chaos-monkey"
        .parse::<IsolationLevel>()
        .unwrap_err()
        .to_string();
    assert!(msg.contains("unknown isolation level"), "got: {msg}");
    for level in IsolationLevel::ALL {
        assert!(msg.contains(level.name()), "got: {msg}");
    }
}

#[test]
fn serial_weak_history_is_anomaly_free() {
    let db = account_db();
    let sel = parse("SELECT * FROM Account a WHERE a.ID = ?").unwrap();
    let upd = parse("UPDATE Account SET BAL = ? WHERE ID = ?").unwrap();
    for level in IsolationLevel::ALL {
        for bal in [10, 20] {
            let mut s = db.session_at(level);
            s.begin();
            s.execute(&sel, &[V::Int(1)]).unwrap();
            s.execute(&upd, &[V::Int(bal), V::Int(1)]).unwrap();
            s.commit().unwrap();
        }
    }
    assert!(db.anomaly_events().is_empty());
}
