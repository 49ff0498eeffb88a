//! Fork isolation: a [`Database::fork`] shares its source's tables
//! copy-on-write, so every write, commit, rollback and snapshot read must
//! copy a shared table before touching it. Random writes, commits,
//! rollbacks, snapshot reads and further forks run on a base database and
//! on forks of it (siblings, and forks of forks taken mid-transaction);
//! every database must show exactly its own model after every operation.

use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use weseer_db::{Database, DbError, ExecData, IsolationLevel, Session};
use weseer_sqlir::parser::parse;
use weseer_sqlir::{Catalog, ColType, Statement, TableBuilder, Value};

const TABLES: [&str; 2] = ["T0", "T1"];

/// Most databases one case grows to (the base plus forks).
const MAX_SIDES: usize = 4;

fn base_db() -> Database {
    let table = |name: &str| {
        TableBuilder::new(name)
            .col("ID", ColType::Int)
            .col("V", ColType::Int)
            .primary_key(&["ID"])
            .index(format!("idx_{name}_v"), &["V"])
            .build()
            .unwrap()
    };
    let db = Database::new(Catalog::new(TABLES.iter().map(|t| table(t)).collect()).unwrap());
    for t in TABLES {
        db.seed(
            t,
            (0..3)
                .map(|k| vec![Value::Int(k), Value::Int(k % 2)])
                .collect(),
        );
    }
    db
}

/// Rows by `(table, ID)` → `V`.
type Rows = BTreeMap<(usize, i64), i64>;

/// One database with its writer session and what it must contain.
struct Side {
    db: Database,
    writer: Session,
    /// The committed rows: what a fork of this side starts from.
    committed: Rows,
    /// The committed rows plus the writer's open transaction.
    current: Rows,
}

impl Side {
    fn new(db: Database, committed: Rows) -> Side {
        Side {
            writer: db.session_at(IsolationLevel::Serializable),
            db,
            current: committed.clone(),
            committed,
        }
    }

    /// Run `stmt` in the writer's transaction, beginning one if none is open.
    fn run(&mut self, stmt: &Statement, params: &[Value]) -> Result<ExecData, DbError> {
        if !self.writer.in_txn() {
            self.writer.begin();
        }
        self.writer.execute(stmt, params)
    }

    fn write(&mut self, stmt: &Statement, params: &[Value]) -> Result<usize, DbError> {
        self.run(stmt, params).map(|d| d.affected)
    }
}

/// `(kind, side, table, ID, V)`.
type Op = (u8, usize, usize, i64, i64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..7, 0usize..MAX_SIDES, 0usize..2, 0i64..5, 0i64..3);
    proptest::collection::vec(op, 1..40)
}

fn table_rows(rows: &Rows, table: usize) -> Vec<(i64, i64)> {
    let of_table = rows.iter().filter(|((t, _), _)| *t == table);
    of_table.map(|((_, id), v)| (*id, *v)).collect()
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("not an int: {other:?}"),
    }
}

/// `(ID, V)` pairs of a SELECT's result rows, sorted by ID.
fn selected(rows: &[Vec<(String, Value)>]) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = rows.iter().map(|r| (int(&r[0].1), int(&r[1].1))).collect();
    out.sort_unstable();
    out
}

/// Every side's heap, primary index and secondary index hold its model.
fn check(sides: &mut [Side], after: &str) -> Result<(), TestCaseError> {
    for (n, side) in sides.iter_mut().enumerate() {
        for (t, table) in TABLES.iter().enumerate() {
            let want = table_rows(&side.current, t);
            let dump: Vec<(i64, i64)> = side
                .db
                .dump(table)
                .iter()
                .map(|r| (int(&r[0]), int(&r[1])))
                .collect();
            prop_assert_eq!(&dump, &want, "side {} {} heap after {}", n, table, after);
            // The secondary index, read by the writer (it sees its own
            // writes and takes only locks nobody else competes for here).
            let by_v = parse(&format!("SELECT * FROM {table} a WHERE a.V = ?")).unwrap();
            let mut via_index = Vec::new();
            for v in 0..3 {
                let r = side.run(&by_v, &[Value::Int(v)]).expect("index read");
                via_index.extend(selected(&r.rows));
            }
            via_index.sort_unstable();
            prop_assert_eq!(
                &via_index,
                &want,
                "side {} {} index after {}",
                n,
                table,
                after
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forks_never_see_each_others_writes(ops in ops()) {
        let ins = |t: &str| parse(&format!("INSERT INTO {t} (ID, V) VALUES (?, ?)")).unwrap();
        let upd = |t: &str| parse(&format!("UPDATE {t} SET V = ? WHERE ID = ?")).unwrap();
        let del = |t: &str| parse(&format!("DELETE FROM {t} WHERE ID = ?")).unwrap();
        let all = |t: &str| parse(&format!("SELECT * FROM {t} a WHERE a.ID >= ?")).unwrap();

        let base = base_db();
        let seeded: Rows = TABLES
            .iter()
            .enumerate()
            .flat_map(|(t, _)| (0..3).map(move |k| ((t, k), k % 2)))
            .collect();
        let mut sides = vec![Side::new(base, seeded)];
        for (i, &(kind, side, t, id, v)) in ops.iter().enumerate() {
            let s = side % sides.len();
            let table = TABLES[t];
            let after = format!("op {i} {:?} on side {s}", (kind, t, id, v));
            match kind {
                0 => {
                    let r = sides[s].write(&ins(table), &[Value::Int(id), Value::Int(v)]);
                    match sides[s].current.entry((t, id)) {
                        Entry::Occupied(_) => {
                            let dup = matches!(r, Err(DbError::DuplicateKey { .. }));
                            prop_assert!(dup, "{}: {:?}", after, r);
                        }
                        Entry::Vacant(slot) => {
                            prop_assert_eq!(r, Ok(1), "{}", after);
                            slot.insert(v);
                        }
                    }
                }
                1 => {
                    let r = sides[s].write(&upd(table), &[Value::Int(v), Value::Int(id)]);
                    let hit = sides[s].current.get_mut(&(t, id)).map(|old| *old = v);
                    prop_assert_eq!(r, Ok(hit.map_or(0, |()| 1)), "{}", after);
                }
                2 => {
                    let r = sides[s].write(&del(table), &[Value::Int(id)]);
                    let hit = sides[s].current.remove(&(t, id)).is_some();
                    prop_assert_eq!(r, Ok(usize::from(hit)), "{}", after);
                }
                3 => {
                    let side = &mut sides[s];
                    if side.writer.in_txn() {
                        side.writer.commit().unwrap();
                    }
                    side.committed = side.current.clone();
                }
                4 => {
                    let side = &mut sides[s];
                    side.writer.rollback();
                    side.current = side.committed.clone();
                }
                5 => {
                    // A snapshot read by a second session: its view strips
                    // the writer's open transaction, on a copy.
                    let side = &sides[s];
                    let mut reader = side.db.session_at(IsolationLevel::ReadCommitted);
                    reader.begin();
                    let rows = reader.execute(&all(table), &[Value::Int(0)]).unwrap().rows;
                    reader.commit().unwrap();
                    let want = table_rows(&side.committed, t);
                    prop_assert_eq!(selected(&rows), want, "{}: snapshot read", after);
                }
                _ => {
                    // Fork mid-transaction: the fork starts from committed
                    // state, and the source's open transaction goes on.
                    if sides.len() < MAX_SIDES {
                        let fork = sides[s].db.fork();
                        let committed = sides[s].committed.clone();
                        sides.push(Side::new(fork, committed));
                    }
                }
            }
            check(&mut sides, &after)?;
        }
    }
}
