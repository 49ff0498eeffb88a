//! Physical storage: heap rows plus B-tree primary/secondary indexes,
//! with undo logging for transaction rollback.
//!
//! Writes are performed in place under strict 2PL (exclusive locks prevent
//! dirty reads), so rollback only needs to replay the undo log in reverse.

use crate::mvcc::VersionStore;
use crate::types::{KeyTuple, RowId, TxnId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use weseer_sqlir::{Catalog, IndexDef, TableDef, Value};

/// A stored row: values in table column order.
pub type Row = Vec<Value>;

/// Extract an index key from a row. Secondary keys get the primary-key
/// columns appended so every index entry is unique.
pub fn index_key(def: &TableDef, idx: &IndexDef, row: &Row) -> KeyTuple {
    let mut key: KeyTuple = idx
        .columns
        .iter()
        .map(|c| row[def.col_pos(c).expect("validated column")].clone())
        .collect();
    if idx.is_secondary() {
        for pk in &def.primary_key {
            key.push(row[def.col_pos(pk).expect("validated pk column")].clone());
        }
    }
    key
}

/// One table's physical state.
#[derive(Debug, Clone)]
pub struct TableStore {
    /// Schema.
    pub def: Arc<TableDef>,
    /// The table's name, shared by every lock target on it.
    pub name: Arc<str>,
    /// Heap: row id → current version.
    pub heap: HashMap<RowId, Row>,
    /// One B-tree per index, in `def.indexes` order (primary first),
    /// mapping full entry key → row, each with the index's shared name.
    btrees: Vec<(Arc<str>, BTreeMap<KeyTuple, RowId>)>,
    next_row: u64,
}

impl TableStore {
    fn new(def: Arc<TableDef>) -> Self {
        let btrees = def
            .indexes
            .iter()
            .map(|i| (Arc::from(i.name.as_str()), BTreeMap::new()))
            .collect();
        TableStore {
            name: Arc::from(def.name.as_str()),
            def,
            heap: HashMap::new(),
            btrees,
            next_row: 0,
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Add `row`'s entry under `rid` to every index.
    fn index_row(&mut self, rid: RowId, row: &Row) {
        for (idx, (_, tree)) in self.def.indexes.iter().zip(&mut self.btrees) {
            tree.insert(index_key(&self.def, idx, row), rid);
        }
    }

    /// Insert a row into heap and all indexes. Uniqueness is checked by the
    /// executor *before* calling this.
    pub fn insert(&mut self, row: Row) -> RowId {
        let rid = RowId(self.next_row);
        self.next_row += 1;
        self.index_row(rid, &row);
        self.heap.insert(rid, row);
        rid
    }

    /// Re-insert a previously deleted row under its original id
    /// (rollback of a delete).
    pub fn restore(&mut self, rid: RowId, row: Row) {
        debug_assert!(!self.heap.contains_key(&rid), "restore over live row");
        self.index_row(rid, &row);
        self.heap.insert(rid, row);
    }

    /// Remove a row from heap and all indexes, returning its last version.
    pub fn delete(&mut self, rid: RowId) -> Option<Row> {
        let row = self.heap.remove(&rid)?;
        for (idx, (_, tree)) in self.def.indexes.iter().zip(&mut self.btrees) {
            tree.remove(&index_key(&self.def, idx, &row));
        }
        Some(row)
    }

    /// Replace a row in place, maintaining indexes. Returns the old version.
    pub fn update(&mut self, rid: RowId, new_row: Row) -> Option<Row> {
        let slot = self.heap.get_mut(&rid)?;
        let old = std::mem::replace(slot, new_row);
        let new_row = &*slot;
        for (idx, (_, tree)) in self.def.indexes.iter().zip(&mut self.btrees) {
            let old_key = index_key(&self.def, idx, &old);
            let new_key = index_key(&self.def, idx, new_row);
            if old_key != new_key {
                tree.remove(&old_key);
                tree.insert(new_key, rid);
            }
        }
        Some(old)
    }

    /// The position of an index in `def.indexes`.
    fn index_pos(&self, index: &str) -> usize {
        self.btrees
            .iter()
            .position(|(name, _)| &**name == index)
            .expect("index exists")
    }

    /// The position of the primary index in `def.indexes`.
    pub(crate) fn primary_pos(&self) -> usize {
        let pos = self.def.indexes.iter().position(|i| i.is_primary());
        pos.expect("validated table has a primary index")
    }

    /// The shared name of the index at `pos`.
    pub(crate) fn index_name(&self, pos: usize) -> &Arc<str> {
        &self.btrees[pos].0
    }

    /// The B-tree of the index at `pos`.
    pub(crate) fn btree_at(&self, pos: usize) -> &BTreeMap<KeyTuple, RowId> {
        &self.btrees[pos].1
    }

    /// The row id holding `key` in `index`, if present.
    pub fn lookup(&self, index: &str, key: &KeyTuple) -> Option<RowId> {
        self.btree(index).get(key).copied()
    }

    /// The B-tree of an index.
    pub fn btree(&self, index: &str) -> &BTreeMap<KeyTuple, RowId> {
        self.btree_at(self.index_pos(index))
    }
}

/// An undo-log entry.
#[derive(Debug, Clone)]
pub enum Undo {
    /// A row this transaction inserted (undo = delete it).
    Insert {
        /// Table name.
        table: String,
        /// Inserted row id.
        rid: RowId,
    },
    /// A row this transaction updated (undo = restore old version).
    Update {
        /// Table name.
        table: String,
        /// Updated row id.
        rid: RowId,
        /// Pre-image.
        old: Row,
    },
    /// A row this transaction deleted (undo = re-insert pre-image under
    /// its original row id, so later undo entries still resolve).
    Delete {
        /// Table name.
        table: String,
        /// Original row id.
        rid: RowId,
        /// Pre-image.
        old: Row,
    },
}

/// All tables plus per-transaction undo logs, guarded by one mutex in
/// [`crate::database::Database`]. Tables are shared copy-on-write: `Clone`
/// copies the undo logs and version chains but only bumps each table's
/// reference count, and [`Storage::table_mut`] copies a shared table the
/// first time it is written. A [`crate::database::Database::fork`]
/// therefore costs the tables it writes, not the whole database.
#[derive(Debug, Clone)]
pub struct Storage {
    /// Tables by name, shared copy-on-write between clones.
    pub tables: HashMap<String, Arc<TableStore>>,
    /// Undo logs of active transactions.
    pub undo: HashMap<TxnId, Vec<Undo>>,
    /// Version chains + commit-timestamp clock ([`crate::mvcc`]).
    pub mvcc: VersionStore,
}

impl Storage {
    /// Build empty storage from a catalog.
    pub fn new(catalog: &Catalog) -> Self {
        let tables = catalog
            .tables()
            .map(|t| (t.name.clone(), Arc::new(TableStore::new(t.clone()))))
            .collect();
        Storage {
            tables,
            undo: HashMap::new(),
            mvcc: VersionStore::default(),
        }
    }

    /// The table by name (panics on unknown: validated upstream).
    pub fn table(&self, name: &str) -> &TableStore {
        self.tables.get(name).expect("validated table name")
    }

    /// Mutable table access: copies the table first if a clone of this
    /// storage still shares it.
    pub fn table_mut(&mut self, name: &str) -> &mut TableStore {
        Arc::make_mut(self.tables.get_mut(name).expect("validated table name"))
    }

    /// Append an undo entry for `txn`.
    pub fn log(&mut self, txn: TxnId, u: Undo) {
        self.undo.entry(txn).or_default().push(u);
    }

    /// Commit `txn`: discard its undo log and install the transaction's
    /// net row effects as versions stamped with a fresh commit timestamp.
    /// Returns the commit timestamp (the unchanged clock for read-only
    /// commits).
    ///
    /// The net effect per `(table, row)` is derived from the undo log: the
    /// pre-image is the first touch's "before" state (`None` for an
    /// insert), the post-image is the row's current heap state. Rows whose
    /// pre-image predates version tracking get a ts-0 baseline seeded
    /// first, so older snapshots can still rewind to them.
    pub fn commit(&mut self, txn: TxnId) -> u64 {
        let Some(log) = self.undo.remove(&txn) else {
            return self.mvcc.current_ts();
        };
        // First-touch pre-image per (table, rid), in touch order.
        let mut touched: Vec<(String, RowId)> = Vec::new();
        let mut pre: HashMap<(String, RowId), Option<Row>> = HashMap::new();
        for u in &log {
            let (key, before) = match u {
                Undo::Insert { table, rid } => ((table.clone(), *rid), None),
                Undo::Update { table, rid, old } | Undo::Delete { table, rid, old } => {
                    ((table.clone(), *rid), Some(old.clone()))
                }
            };
            if !pre.contains_key(&key) {
                pre.insert(key.clone(), before);
                touched.push(key);
            }
        }
        if touched.is_empty() {
            return self.mvcc.current_ts();
        }
        for (table, rid) in &touched {
            if let Some(Some(baseline)) = pre.get(&(table.clone(), *rid)) {
                self.mvcc.seed_baseline(table, *rid, baseline.clone());
            }
        }
        let ts = self.mvcc.next_commit_ts();
        for (table, rid) in touched {
            let post = self.tables.get(&table).and_then(|t| t.heap.get(&rid));
            // Skip no-op round trips (insert+delete within the txn, with
            // no earlier chain to terminate).
            if post.is_none() && pre[&(table.clone(), rid)].is_none() {
                continue;
            }
            let post = post.cloned();
            self.mvcc.install(&table, rid, post, ts);
        }
        ts
    }

    /// Roll back every in-flight transaction (newest first), leaving only
    /// committed state. [`crate::database::Database::fork`] calls this so
    /// forks never inherit uncommitted heap data or undo logs; the undo
    /// goes through [`Storage::table_mut`], so a table the fork still
    /// shares with its source is copied, never rolled back in place.
    pub fn reset_in_flight(&mut self) {
        let mut active: Vec<TxnId> = self.undo.keys().copied().collect();
        active.sort_unstable();
        for txn in active.into_iter().rev() {
            self.rollback(txn);
        }
    }

    /// Roll back `txn`: replay undo in reverse.
    pub fn rollback(&mut self, txn: TxnId) {
        let log = self.undo.remove(&txn).unwrap_or_default();
        for u in log.into_iter().rev() {
            match u {
                Undo::Insert { table, rid } => {
                    self.table_mut(&table).delete(rid);
                }
                Undo::Update { table, rid, old } => {
                    self.table_mut(&table).update(rid, old);
                }
                Undo::Delete { table, rid, old } => {
                    self.table_mut(&table).restore(rid, old);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_sqlir::{ColType, TableBuilder};

    fn catalog() -> Catalog {
        Catalog::new(vec![TableBuilder::new("Product")
            .col("ID", ColType::Int)
            .col("SKU", ColType::Str)
            .col("QTY", ColType::Int)
            .primary_key(&["ID"])
            .unique_index("uq_sku", &["SKU"])
            .index("idx_qty", &["QTY"])
            .build()
            .unwrap()])
        .unwrap()
    }

    fn row(id: i64, sku: &str, qty: i64) -> Row {
        vec![Value::Int(id), Value::str(sku), Value::Int(qty)]
    }

    #[test]
    fn insert_maintains_all_indexes() {
        let mut s = Storage::new(&catalog());
        let rid = s.table_mut("Product").insert(row(1, "a", 5));
        let t = s.table("Product");
        assert_eq!(t.lookup("PRIMARY", &vec![Value::Int(1)]), Some(rid));
        // Secondary keys carry the PK suffix.
        assert_eq!(
            t.lookup("uq_sku", &vec![Value::str("a"), Value::Int(1)]),
            Some(rid)
        );
        assert_eq!(
            t.lookup("idx_qty", &vec![Value::Int(5), Value::Int(1)]),
            Some(rid)
        );
    }

    #[test]
    fn update_moves_index_entries() {
        let mut s = Storage::new(&catalog());
        let rid = s.table_mut("Product").insert(row(1, "a", 5));
        s.table_mut("Product").update(rid, row(1, "a", 9));
        let t = s.table("Product");
        assert_eq!(
            t.lookup("idx_qty", &vec![Value::Int(5), Value::Int(1)]),
            None
        );
        assert_eq!(
            t.lookup("idx_qty", &vec![Value::Int(9), Value::Int(1)]),
            Some(rid)
        );
    }

    #[test]
    fn delete_cleans_indexes() {
        let mut s = Storage::new(&catalog());
        let rid = s.table_mut("Product").insert(row(1, "a", 5));
        let old = s.table_mut("Product").delete(rid).unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert!(s.table("Product").is_empty());
        assert_eq!(
            s.table("Product").lookup("PRIMARY", &vec![Value::Int(1)]),
            None
        );
    }

    #[test]
    fn rollback_restores_preimages() {
        let mut s = Storage::new(&catalog());
        let txn = TxnId(1);
        // Baseline row committed by someone else.
        let r0 = s.table_mut("Product").insert(row(1, "a", 5));

        let rid = s.table_mut("Product").insert(row(2, "b", 7));
        s.log(
            txn,
            Undo::Insert {
                table: "Product".into(),
                rid,
            },
        );

        let old = s.table_mut("Product").update(r0, row(1, "a", 99)).unwrap();
        s.log(
            txn,
            Undo::Update {
                table: "Product".into(),
                rid: r0,
                old,
            },
        );

        let old = s.table_mut("Product").delete(r0).unwrap();
        s.log(
            txn,
            Undo::Delete {
                table: "Product".into(),
                rid: r0,
                old,
            },
        );

        s.rollback(txn);
        let t = s.table("Product");
        assert_eq!(t.len(), 1);
        let surviving = t.heap.values().next().unwrap();
        assert_eq!(surviving, &row(1, "a", 5));
        assert_eq!(
            t.lookup("uq_sku", &vec![Value::str("b"), Value::Int(2)]),
            None
        );
    }

    #[test]
    fn commit_discards_undo() {
        let mut s = Storage::new(&catalog());
        let txn = TxnId(1);
        let rid = s.table_mut("Product").insert(row(1, "a", 5));
        s.log(
            txn,
            Undo::Insert {
                table: "Product".into(),
                rid,
            },
        );
        s.commit(txn);
        s.rollback(txn); // no-op now
        assert_eq!(s.table("Product").len(), 1);
    }

    #[test]
    fn index_key_extraction() {
        let cat = catalog();
        let def = cat.table("Product").unwrap();
        let r = row(3, "x", 8);
        assert_eq!(index_key(def, def.primary_index(), &r), vec![Value::Int(3)]);
        let sku = def.index("uq_sku").unwrap();
        assert_eq!(
            index_key(def, sku, &r),
            vec![Value::str("x"), Value::Int(3)]
        );
    }
}
