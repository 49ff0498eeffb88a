//! Symbolic lock generation (paper Alg. 2).
//!
//! Given a statement and the *common table* of a potential conflict, these
//! functions enumerate the locks the database may acquire: row locks for
//! unique point queries, range locks (with their predicates) for scans and
//! empty reads, a table lock when no index is usable, and exclusive
//! row/range locks for the write set of UPDATE/INSERT/DELETE.

use crate::indexes::{infer_possible_indexes, IndexUse};
use std::sync::Arc;
use weseer_sqlir::cond::is_point_query;
use weseer_sqlir::{Catalog, IndexDef, Pred, Statement};

/// Lock granularity (paper: `ROW`, `RANGE`, `TABLE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Single index entry.
    Row,
    /// A predicate-bounded range (gap/next-key).
    Range,
    /// Whole table.
    Table,
}

/// Shared or exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymMode {
    /// Shared.
    S,
    /// Exclusive.
    X,
}

/// A symbolic lock descriptor.
#[derive(Debug, Clone)]
pub struct SymLock {
    /// Locked index; `None` for table locks.
    pub index: Option<Arc<IndexDef>>,
    /// Granularity.
    pub granularity: Granularity,
    /// Mode.
    pub mode: SymMode,
    /// Predicates bounding a range lock (paper's `cond`); oriented so the
    /// indexed column is on the left. Empty for row/table locks and for
    /// exclusive range locks (`NULL` in Alg. 2).
    pub preds: Vec<Pred>,
    /// The table alias the lock was derived through (for unification).
    pub alias: Option<String>,
}

/// Alg. 2 `GenSharedLocks`: locks acquired while *reading* `target_table`.
///
/// `is_empty` is whether the statement fetched an empty result at runtime
/// (empty reads still take range locks protecting the empty range — the
/// root cause of d1, d3, d7, …).
pub fn gen_shared_locks(
    stmt: &Statement,
    target_table: &str,
    is_empty: bool,
    catalog: &Catalog,
) -> Vec<SymLock> {
    let uses = infer_possible_indexes(stmt, catalog);
    // An INSERT's "read phase" is its duplicate check: it only locks
    // *unique* indexes (InnoDB takes an S lock on a conflicting entry /
    // its gap); non-unique secondary entries are written without any
    // shared-lock traversal.
    let insert_dup_check_only = matches!(stmt, Statement::Insert(_));
    let mut locks = Vec::new();
    for u in uses.iter().filter(|u| u.table == target_table) {
        let IndexUse {
            alias,
            index,
            preds,
            ..
        } = u;
        let Some(index) = index else {
            continue; // table scan handled below
        };
        if insert_dup_check_only && !index.unique {
            continue;
        }
        if !is_empty {
            if index.unique && is_point_query(preds, index) {
                locks.push(SymLock {
                    index: Some(index.clone()),
                    granularity: Granularity::Row,
                    mode: SymMode::S,
                    preds: vec![],
                    alias: Some(alias.clone()),
                });
            } else {
                locks.push(SymLock {
                    index: Some(index.clone()),
                    granularity: Granularity::Range,
                    mode: SymMode::S,
                    preds: preds.clone(),
                    alias: Some(alias.clone()),
                });
            }
            if index.is_secondary() {
                // Protect the fetched row on the primary index too.
                let def = catalog.table(target_table).expect("table exists");
                locks.push(SymLock {
                    index: Some(Arc::new(def.primary_index().clone())),
                    granularity: Granularity::Row,
                    mode: SymMode::S,
                    preds: vec![],
                    alias: Some(alias.clone()),
                });
            }
        } else {
            // Empty read: a range lock protects the empty read set.
            locks.push(SymLock {
                index: Some(index.clone()),
                granularity: Granularity::Range,
                mode: SymMode::S,
                preds: preds.clone(),
                alias: Some(alias.clone()),
            });
        }
    }
    if locks.is_empty() {
        // No usable indexes: table-level lock (Alg. 2 line 19).
        let alias = uses
            .iter()
            .find(|u| u.table == target_table)
            .map(|u| u.alias.clone());
        locks.push(SymLock {
            index: None,
            granularity: Granularity::Table,
            mode: SymMode::S,
            preds: vec![],
            alias,
        });
    }
    locks
}

/// Alg. 2 `GenExclusiveLocks`: locks acquired by the write set of an
/// UPDATE/INSERT/DELETE on `target_table`.
pub fn gen_exclusive_locks(
    stmt: &Statement,
    target_table: &str,
    catalog: &Catalog,
) -> Vec<SymLock> {
    let def = match catalog.table(target_table) {
        Some(d) => d,
        None => return vec![],
    };
    let mut locks = vec![SymLock {
        index: Some(Arc::new(def.primary_index().clone())),
        granularity: Granularity::Row,
        mode: SymMode::X,
        preds: vec![],
        alias: stmt.aliases_of(target_table).first().cloned(),
    }];
    let written = stmt.written_columns();
    let writes_all = matches!(stmt, Statement::Delete(_) | Statement::Insert(_));
    for idx in def.secondary_indexes() {
        let touched = writes_all || idx.columns.iter().any(|c| written.contains(c));
        if !touched {
            continue;
        }
        locks.push(SymLock {
            index: Some(Arc::new(idx.clone())),
            granularity: if idx.unique {
                Granularity::Row
            } else {
                Granularity::Range
            },
            mode: SymMode::X,
            preds: vec![],
            alias: stmt.aliases_of(target_table).first().cloned(),
        });
    }
    locks
}

/// Whether two lock sets have a potential conflict: a pair of locks on the
/// same index (or any lock vs. a table lock) with at least one exclusive.
pub fn potential_conflict(a: &[SymLock], b: &[SymLock]) -> bool {
    a.iter().any(|la| {
        b.iter().any(|lb| {
            let one_exclusive = la.mode == SymMode::X || lb.mode == SymMode::X;
            if !one_exclusive {
                return false;
            }
            match (&la.index, &lb.index) {
                (None, _) | (_, None) => true, // table lock vs anything
                (Some(ia), Some(ib)) => ia.name == ib.name && ia.table == ib.table,
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder};

    fn catalog() -> Catalog {
        Catalog::new(vec![
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

    #[test]
    fn unique_point_read_takes_row_lock() {
        let cat = catalog();
        let q = parse("SELECT * FROM Product p WHERE p.ID = ?").unwrap();
        let locks = gen_shared_locks(&q, "Product", false, &cat);
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].granularity, Granularity::Row);
        assert_eq!(locks[0].mode, SymMode::S);
    }

    #[test]
    fn empty_read_takes_range_lock() {
        let cat = catalog();
        let q = parse("SELECT * FROM Product p WHERE p.ID = ?").unwrap();
        let locks = gen_shared_locks(&q, "Product", true, &cat);
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].granularity, Granularity::Range);
        assert_eq!(locks[0].preds.len(), 1);
    }

    #[test]
    fn secondary_scan_adds_primary_row_lock() {
        let cat = catalog();
        let q = parse("SELECT * FROM OrderItem oi WHERE oi.O_ID = ?").unwrap();
        let locks = gen_shared_locks(&q, "OrderItem", false, &cat);
        // Range on the secondary + row on PRIMARY.
        assert!(locks.iter().any(|l| l.granularity == Granularity::Range
            && l.index.as_ref().unwrap().name == "idx_orderitem_o_id"));
        assert!(locks
            .iter()
            .any(|l| l.granularity == Granularity::Row
                && l.index.as_ref().unwrap().name == "PRIMARY"));
    }

    #[test]
    fn unindexed_read_takes_table_lock() {
        let cat = catalog();
        let q = parse("SELECT * FROM Product p WHERE p.QTY > ?").unwrap();
        let locks = gen_shared_locks(&q, "Product", false, &cat);
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].granularity, Granularity::Table);
        assert!(locks[0].index.is_none());
    }

    #[test]
    fn update_locks_primary_and_touched_secondaries() {
        let cat = catalog();
        let u = parse("UPDATE OrderItem SET QTY = ? WHERE ID = ?").unwrap();
        let locks = gen_exclusive_locks(&u, "OrderItem", &cat);
        // QTY is unindexed → only the primary row X lock.
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].mode, SymMode::X);
        assert_eq!(locks[0].index.as_ref().unwrap().name, "PRIMARY");

        let u = parse("UPDATE OrderItem SET O_ID = ? WHERE ID = ?").unwrap();
        let locks = gen_exclusive_locks(&u, "OrderItem", &cat);
        assert_eq!(locks.len(), 2);
        assert!(locks
            .iter()
            .any(|l| l.index.as_ref().unwrap().name == "idx_orderitem_o_id"
                && l.granularity == Granularity::Range));
    }

    #[test]
    fn insert_touches_every_index() {
        let cat = catalog();
        let i = parse("INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, ?)").unwrap();
        let locks = gen_exclusive_locks(&i, "OrderItem", &cat);
        assert_eq!(locks.len(), 3); // PRIMARY + two FK indexes
        assert!(locks.iter().all(|l| l.mode == SymMode::X));
    }

    #[test]
    fn conflict_requires_same_index_and_exclusivity() {
        let cat = catalog();
        let sel = parse("SELECT * FROM Product p WHERE p.ID = ?").unwrap();
        let upd = parse("UPDATE Product SET QTY = ? WHERE ID = ?").unwrap();
        let s_locks = gen_shared_locks(&sel, "Product", false, &cat);
        let x_locks = gen_exclusive_locks(&upd, "Product", &cat);
        assert!(potential_conflict(&x_locks, &s_locks));
        // Two readers never conflict.
        assert!(!potential_conflict(&s_locks, &s_locks));
        // Different indexes: OrderItem O_ID range vs Product primary X.
        let oi = parse("SELECT * FROM OrderItem oi WHERE oi.O_ID = ?").unwrap();
        let oi_locks = gen_shared_locks(&oi, "OrderItem", false, &cat);
        assert!(!potential_conflict(&x_locks, &oi_locks));
    }

    #[test]
    fn table_lock_conflicts_with_everything_on_table() {
        let cat = catalog();
        let scan = parse("SELECT * FROM Product p WHERE p.QTY > ?").unwrap();
        let upd = parse("UPDATE Product SET QTY = ? WHERE ID = ?").unwrap();
        let s = gen_shared_locks(&scan, "Product", false, &cat);
        let x = gen_exclusive_locks(&upd, "Product", &cat);
        assert!(potential_conflict(&x, &s));
    }
}
