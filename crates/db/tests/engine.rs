//! End-to-end storage-engine tests: SQL execution, join plans, locking
//! semantics, and concurrent deadlock reproduction (the Fig. 1
//! `finishOrder` pattern).

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};
use weseer_db::{Database, DbError, DbStats, StepResult, TxnId};
use weseer_sqlir::{parser::parse, Catalog, ColType, Statement, TableBuilder, Value};

fn fig1_catalog() -> Catalog {
    Catalog::new(vec![
        TableBuilder::new("Order")
            .col("ID", ColType::Int)
            .primary_key(&["ID"])
            .build()
            .unwrap(),
        TableBuilder::new("Product")
            .col("ID", ColType::Int)
            .col("QTY", ColType::Int)
            .primary_key(&["ID"])
            .build()
            .unwrap(),
        TableBuilder::new("OrderItem")
            .col("ID", ColType::Int)
            .col("O_ID", ColType::Int)
            .col("P_ID", ColType::Int)
            .col("QTY", ColType::Int)
            .primary_key(&["ID"])
            .foreign_key("O_ID", "Order", "ID")
            .foreign_key("P_ID", "Product", "ID")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

fn seeded() -> Database {
    let db = Database::with_timeout(fig1_catalog(), Duration::from_secs(2));
    db.seed("Order", vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    db.seed(
        "Product",
        vec![
            vec![Value::Int(10), Value::Int(100)],
            vec![Value::Int(11), Value::Int(50)],
        ],
    );
    db.seed(
        "OrderItem",
        vec![
            vec![
                Value::Int(100),
                Value::Int(1),
                Value::Int(10),
                Value::Int(3),
            ],
            vec![
                Value::Int(101),
                Value::Int(2),
                Value::Int(11),
                Value::Int(5),
            ],
        ],
    );
    db
}

/// Return once the lock manager lists a transaction waiting on `holder`;
/// fail if `h`'s statement finished first (it never blocked) or nothing
/// waits before a generous deadline.
fn await_waiter<T>(db: &Database, holder: TxnId, h: &thread::JoinHandle<T>, what: &str) {
    let start = Instant::now();
    while !db.wait_for_edges().iter().any(|&(_, held)| held == holder) {
        assert!(!h.is_finished(), "{what} finished without waiting");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "{what} never waited"
        );
        thread::yield_now();
    }
}

#[test]
fn point_select_by_primary_key() {
    let db = seeded();
    let mut s = db.session();
    s.begin();
    let q = parse("SELECT * FROM Product p WHERE p.ID = ?").unwrap();
    let r = s.execute(&q, &[Value::Int(10)]).unwrap();
    assert_eq!(r.rows.len(), 1);
    let row = &r.rows[0];
    assert!(row.contains(&("p.ID".to_string(), Value::Int(10))));
    assert!(row.contains(&("p.QTY".to_string(), Value::Int(100))));
    s.commit().unwrap();
}

#[test]
fn three_way_join_matches_fig1_q4() {
    let db = seeded();
    let mut s = db.session();
    s.begin();
    let q4 = parse(
        "SELECT * FROM OrderItem oi \
         JOIN Order o ON o.ID = oi.O_ID \
         JOIN Product p ON p.ID = oi.P_ID \
         WHERE oi.O_ID = ?",
    )
    .unwrap();
    let r = s.execute(&q4, &[Value::Int(1)]).unwrap();
    assert_eq!(r.rows.len(), 1);
    let row = &r.rows[0];
    assert!(row.contains(&("oi.ID".to_string(), Value::Int(100))));
    assert!(row.contains(&("o.ID".to_string(), Value::Int(1))));
    assert!(row.contains(&("p.ID".to_string(), Value::Int(10))));
    assert!(row.contains(&("p.QTY".to_string(), Value::Int(100))));
    s.commit().unwrap();
}

#[test]
fn update_then_read_back() {
    let db = seeded();
    let mut s = db.session();
    s.begin();
    let q6 = parse("UPDATE Product SET QTY = ? WHERE ID = ?").unwrap();
    let r = s.execute(&q6, &[Value::Int(97), Value::Int(10)]).unwrap();
    assert_eq!(r.affected, 1);
    s.commit().unwrap();
    let rows = db.dump("Product");
    assert_eq!(rows[0], vec![Value::Int(10), Value::Int(97)]);
}

#[test]
fn delete_and_range_select() {
    let db = seeded();
    let mut s = db.session();
    s.begin();
    let del = parse("DELETE FROM OrderItem WHERE O_ID = ?").unwrap();
    let r = s.execute(&del, &[Value::Int(1)]).unwrap();
    assert_eq!(r.affected, 1);
    let q = parse("SELECT * FROM OrderItem oi WHERE oi.ID >= ?").unwrap();
    let r = s.execute(&q, &[Value::Int(0)]).unwrap();
    assert_eq!(r.rows.len(), 1);
    s.commit().unwrap();
    assert_eq!(db.count("OrderItem"), 1);
}

#[test]
fn insert_visible_after_commit_gone_after_rollback() {
    let db = seeded();
    let ins = parse("INSERT INTO Order (ID) VALUES (?)").unwrap();

    let mut s = db.session();
    s.begin();
    s.execute(&ins, &[Value::Int(50)]).unwrap();
    s.rollback();
    assert_eq!(db.count("Order"), 2);

    let mut s = db.session();
    s.begin();
    s.execute(&ins, &[Value::Int(50)]).unwrap();
    s.commit().unwrap();
    assert_eq!(db.count("Order"), 3);
}

#[test]
fn duplicate_key_rejected_but_txn_survives() {
    let db = seeded();
    let mut s = db.session();
    s.begin();
    let ins = parse("INSERT INTO Order (ID) VALUES (?)").unwrap();
    let err = s.execute(&ins, &[Value::Int(1)]).unwrap_err();
    assert!(matches!(err, DbError::DuplicateKey { .. }));
    assert!(!err.aborts_txn());
    // The transaction is still usable.
    let q = parse("SELECT * FROM Order o WHERE o.ID = ?").unwrap();
    assert_eq!(s.execute(&q, &[Value::Int(1)]).unwrap().rows.len(), 1);
    s.commit().unwrap();
}

#[test]
fn upsert_updates_on_duplicate() {
    let db = seeded();
    let mut s = db.session();
    s.begin();
    let up = parse("INSERT INTO Product (ID, QTY) VALUES (?, ?) ON DUPLICATE KEY UPDATE QTY = ?")
        .unwrap();
    let r = s
        .execute(&up, &[Value::Int(10), Value::Int(1), Value::Int(42)])
        .unwrap();
    assert_eq!(r.affected, 2);
    s.commit().unwrap();
    assert_eq!(db.dump("Product")[0], vec![Value::Int(10), Value::Int(42)]);

    // Non-duplicate path inserts.
    let mut s = db.session();
    s.begin();
    let r = s
        .execute(&up, &[Value::Int(99), Value::Int(7), Value::Int(0)])
        .unwrap();
    assert_eq!(r.affected, 1);
    s.commit().unwrap();
    assert_eq!(db.count("Product"), 3);
}

#[test]
fn secondary_index_scan_uses_fk_index() {
    let db = seeded();
    let mut s = db.session();
    s.begin();
    let q = parse("SELECT * FROM OrderItem oi WHERE oi.P_ID = ?").unwrap();
    let r = s.execute(&q, &[Value::Int(11)]).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(r.rows[0].contains(&("oi.ID".to_string(), Value::Int(101))));
    s.commit().unwrap();
}

#[test]
fn empty_select_blocks_insert_in_gap() {
    // A range lock from an empty SELECT must block another transaction's
    // INSERT into that gap (the d3/d7 ingredient).
    let db = seeded();
    let mut s1 = db.session();
    s1.begin();
    let q = parse("SELECT * FROM OrderItem oi WHERE oi.O_ID = ?").unwrap();
    let r = s1.execute(&q, &[Value::Int(77)]).unwrap();
    assert!(r.rows.is_empty());

    let db2 = db.clone();
    let h = thread::spawn(move || {
        let mut s2 = db2.session();
        s2.begin();
        let ins = parse("INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, ?)").unwrap();
        let r = s2.execute(
            &ins,
            &[
                Value::Int(300),
                Value::Int(77),
                Value::Int(10),
                Value::Int(1),
            ],
        );
        if r.is_ok() {
            s2.commit().unwrap();
        }
        r.map(|d| d.affected)
    });
    // The insert must wait on the reader's gap lock until it commits.
    await_waiter(
        &db,
        s1.txn_id().unwrap(),
        &h,
        "the insert into the locked gap",
    );
    s1.commit().unwrap();
    assert_eq!(h.join().unwrap().unwrap(), 1);
    assert!(db.stats().locks.waits >= 1);
}

#[test]
fn reader_writer_row_conflict_blocks() {
    let db = seeded();
    let mut s1 = db.session();
    s1.begin();
    let q = parse("SELECT * FROM Product p WHERE p.ID = ?").unwrap();
    s1.execute(&q, &[Value::Int(10)]).unwrap();

    let db2 = db.clone();
    let h = thread::spawn(move || {
        let mut s2 = db2.session();
        s2.begin();
        let u = parse("UPDATE Product SET QTY = ? WHERE ID = ?").unwrap();
        let r = s2.execute(&u, &[Value::Int(0), Value::Int(10)]);
        if r.is_ok() {
            s2.commit().unwrap();
        }
        r.map(|d| d.affected)
    });
    thread::sleep(Duration::from_millis(100));
    // Reader still sees the old value (no dirty write happened).
    let r = s1.execute(&q, &[Value::Int(10)]).unwrap();
    assert!(r.rows[0].contains(&("p.QTY".to_string(), Value::Int(100))));
    s1.commit().unwrap();
    assert_eq!(h.join().unwrap().unwrap(), 1);
}

/// Fig. 1's Q4: the join that S-locks the order's Product row.
fn finish_order_q4() -> Statement {
    parse(
        "SELECT * FROM OrderItem oi \
         JOIN Order o ON o.ID = oi.O_ID \
         JOIN Product p ON p.ID = oi.P_ID \
         WHERE oi.O_ID = ?",
    )
    .unwrap()
}

/// Fig. 1's Q6: the UPDATE that needs the X lock on that row.
fn finish_order_q6() -> Statement {
    parse("UPDATE Product SET QTY = ? WHERE ID = ?").unwrap()
}

/// Check one run of the finishOrder script: `results` holds each
/// transaction's id and how its UPDATE + commit ended. Returns the
/// counters both drivings must agree on.
fn check_finish_order_run(db: &Database, results: &[(TxnId, Result<(), DbError>)]) -> DbStats {
    let ids: Vec<TxnId> = results.iter().map(|(t, _)| *t).collect();
    let survivors = results.iter().filter(|(_, r)| r.is_ok()).count();
    assert_eq!(survivors, 1, "exactly one transaction commits: {results:?}");
    let cycles: Vec<&[TxnId]> = results
        .iter()
        .filter_map(|(_, r)| r.as_ref().err().and_then(DbError::deadlock_cycle))
        .collect();
    assert_eq!(cycles.len(), 1, "exactly one deadlock victim: {results:?}");
    let (victim, _) = results.iter().find(|(_, r)| r.is_err()).unwrap();
    assert_eq!(cycles[0][0], *victim, "the cycle starts at the victim");
    let mut named = cycles[0].to_vec();
    named.sort_unstable();
    assert_eq!(named, ids, "the cycle names both transactions");
    assert_eq!(db.dump("Product")[0][1], Value::Int(97));
    db.stats()
}

#[test]
fn finish_order_style_deadlock_detected_and_recovered() {
    // Two transactions each SELECT (S lock) the same Product row, then both
    // UPDATE it — the Fig. 4 deadlock cycle. One must be chosen as victim;
    // the other must commit.
    let db = Arc::new(seeded());
    let barrier = Arc::new(Barrier::new(2));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let db = db.clone();
        let barrier = barrier.clone();
        handles.push(thread::spawn(move || {
            let mut s = db.session();
            s.begin();
            let txn = s.txn_id().unwrap();
            s.execute(&finish_order_q4(), &[Value::Int(1)]).unwrap();
            barrier.wait(); // both hold S locks on Product row 10 now
            let result = s
                .execute(&finish_order_q6(), &[Value::Int(97), Value::Int(10)])
                .map(|_| s.commit().unwrap());
            (txn, result)
        }));
    }
    let mut results: Vec<(TxnId, Result<(), DbError>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_by_key(|(t, _)| *t);
    let threaded = check_finish_order_run(&db, &results);
    assert_eq!(threaded.deadlock_aborts, 1);

    // The same script once more, single-threaded through the replay
    // engine's step, in the order the barrier forces: both Q4s, then both
    // Q6s. The second Q6 closes the cycle; the first then re-runs.
    let db = seeded();
    let (mut a, mut b) = (db.session(), db.session());
    a.begin();
    b.begin();
    let (ta, tb) = (a.txn_id().unwrap(), b.txn_id().unwrap());
    let q6_params = [Value::Int(97), Value::Int(10)];
    for s in [&mut a, &mut b] {
        let step = s.execute_nowait(&finish_order_q4(), &[Value::Int(1)]);
        assert!(matches!(step, Ok(StepResult::Done(_))), "{step:?}");
    }
    let step = a.execute_nowait(&finish_order_q6(), &q6_params);
    assert!(
        matches!(&step, Ok(StepResult::Blocked { on, .. }) if on == &[tb]),
        "{step:?}"
    );
    let victim = b.execute_nowait(&finish_order_q6(), &q6_params).map(|_| ());
    let step = a.execute_nowait(&finish_order_q6(), &q6_params);
    assert!(matches!(step, Ok(StepResult::Done(_))), "{step:?}");
    a.commit().unwrap();
    let replayed = check_finish_order_run(&db, &[(ta, Ok(())), (tb, victim)]);

    let counts = |s: DbStats| (s.deadlock_aborts, s.commits, s.rollbacks);
    assert_eq!(
        counts(threaded),
        counts(replayed),
        "(deadlock_aborts, commits, rollbacks)"
    );
}

#[test]
fn check_then_insert_gap_deadlock() {
    // The d2 pattern: both check a missing row (gap S locks), then both try
    // to insert it — mutual insert-intention blocking forms a deadlock.
    let db = Arc::new(seeded());
    let barrier = Arc::new(Barrier::new(2));
    let mut handles = Vec::new();
    for i in 0..2 {
        let db = db.clone();
        let barrier = barrier.clone();
        handles.push(thread::spawn(move || {
            let mut s = db.session();
            s.begin();
            let q = parse("SELECT * FROM Order o WHERE o.ID = ?").unwrap();
            let r = s.execute(&q, &[Value::Int(500)]).unwrap();
            assert!(r.rows.is_empty());
            barrier.wait();
            let ins = parse("INSERT INTO Order (ID) VALUES (?)").unwrap();
            match s.execute(&ins, &[Value::Int(500 + i)]) {
                Ok(_) => {
                    s.commit().unwrap();
                    Ok(())
                }
                Err(e) => Err(e),
            }
        }));
    }
    let results: Vec<Result<(), DbError>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let oks = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(oks, 1, "exactly one inserter should win: {results:?}");
    assert!(db.stats().deadlock_aborts >= 1);
}

#[test]
fn upsert_avoids_check_then_insert_deadlock() {
    // Fix f2: the UPSERT path takes no gap lock on the hit path and the
    // check-free insert races resolve by ordinary lock waits, not
    // deadlocks.
    let db = Arc::new(seeded());
    let barrier = Arc::new(Barrier::new(2));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let db = db.clone();
        let barrier = barrier.clone();
        handles.push(thread::spawn(move || {
            let mut s = db.session();
            s.begin();
            barrier.wait();
            let up = parse(
                "INSERT INTO Product (ID, QTY) VALUES (?, ?) \
                 ON DUPLICATE KEY UPDATE QTY = ?",
            )
            .unwrap();
            let r = s.execute(&up, &[Value::Int(10), Value::Int(1), Value::Int(5)]);
            if r.is_ok() {
                s.commit().unwrap();
            }
            r.map(|d| d.affected)
        }));
    }
    for h in handles {
        h.join().unwrap().unwrap();
    }
    assert_eq!(db.stats().deadlock_aborts, 0);
}

#[test]
fn stats_track_commits_and_statements() {
    let db = seeded();
    let mut s = db.session();
    s.begin();
    let q = parse("SELECT * FROM Order o WHERE o.ID = ?").unwrap();
    s.execute(&q, &[Value::Int(1)]).unwrap();
    s.execute(&q, &[Value::Int(2)]).unwrap();
    s.commit().unwrap();
    let st = db.stats();
    assert_eq!(st.commits, 1);
    assert_eq!(st.statements, 2);
    assert_eq!(st.rollbacks, 0);
}

#[test]
fn session_drop_rolls_back() {
    let db = seeded();
    {
        let mut s = db.session();
        s.begin();
        let ins = parse("INSERT INTO Order (ID) VALUES (?)").unwrap();
        s.execute(&ins, &[Value::Int(50)]).unwrap();
        // dropped without commit
    }
    assert_eq!(db.count("Order"), 2);
    assert_eq!(db.stats().rollbacks, 1);
}

#[test]
fn next_id_sequences() {
    let db = seeded();
    assert_eq!(db.next_id("Order"), 1);
    assert_eq!(db.next_id("Order"), 2);
    db.bump_id("Order", 100);
    assert_eq!(db.next_id("Order"), 101);
    assert_eq!(db.next_id("Product"), 1);
}

#[test]
fn full_scan_without_index_takes_table_lock_path() {
    // QTY has no index → full scan; concurrent write to the same table
    // must conflict at table level... our model locks the whole table, so
    // the write blocks until the reader commits.
    let db = seeded();
    let mut s1 = db.session();
    s1.begin();
    let q = parse("SELECT * FROM Product p WHERE p.QTY > ?").unwrap();
    let r = s1.execute(&q, &[Value::Int(60)]).unwrap();
    assert_eq!(r.rows.len(), 1);

    let db2 = db.clone();
    let h = thread::spawn(move || {
        let mut s2 = db2.session();
        s2.begin();
        let u = parse("UPDATE Product SET QTY = ? WHERE ID = ?").unwrap();
        let r = s2.execute(&u, &[Value::Int(0), Value::Int(11)]);
        if r.is_ok() {
            s2.commit().unwrap();
        }
        r.map(|d| d.affected)
    });
    // The writer must wait on the reader's table lock until it commits.
    await_waiter(
        &db,
        s1.txn_id().unwrap(),
        &h,
        "the write to the scanned table",
    );
    s1.commit().unwrap();
    assert_eq!(h.join().unwrap().unwrap(), 1);
}
