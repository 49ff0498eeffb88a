//! Multi-version concurrency control: version chains over the heap plus
//! snapshot visibility, layered on [`crate::storage::Storage`].
//!
//! The engine keeps writing *in place* under strict 2PL (writes are
//! "current reads" at every isolation level, exactly like InnoDB UPDATEs),
//! but every commit also installs the transaction's net row effects into a
//! per-row **version chain** stamped with a commit timestamp from a global
//! logical clock. A plain SELECT under a weak isolation level then becomes
//! a lock-free **snapshot read**: the executor materializes a view of the
//! statement's tables as of the session's snapshot timestamp and plans
//! against the view, acquiring no locks at all.
//!
//! Visibility rule: a row's visible version at snapshot `s` is the chain's
//! latest version with `ts <= s` (a `None` row payload marks a committed
//! delete); rows with no chain are bootstrap/seeded rows, implicitly
//! committed at ts 0. A transaction always sees its own uncommitted writes
//! (read-your-own-writes).

use crate::storage::{Row, Storage};
use crate::types::{RowId, TxnId};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// The isolation level of a session.
///
/// `Serializable` is the default and runs the pre-MVCC engine unchanged:
/// strict 2PL with shared locks on plain SELECTs. The three weak levels
/// turn plain SELECTs into lock-free snapshot reads and differ in when the
/// snapshot is taken and whether stale overwrites abort:
///
/// * `ReadCommitted` — a fresh snapshot per *statement* (MySQL/Postgres
///   READ COMMITTED);
/// * `RepeatableRead` — one snapshot per *transaction*, stale overwrites
///   allowed (MySQL REPEATABLE READ, where lost updates are real);
/// * `Snapshot` — one snapshot per transaction plus first-updater-wins:
///   overwriting a version committed after the snapshot aborts with
///   [`crate::DbError::WriteConflict`] (PostgreSQL REPEATABLE READ / classic SI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum IsolationLevel {
    /// Per-statement snapshot reads; no write-conflict aborts.
    ReadCommitted,
    /// Per-transaction snapshot reads; no write-conflict aborts.
    RepeatableRead,
    /// Per-transaction snapshot reads with first-updater-wins aborts.
    Snapshot,
    /// Strict 2PL (the paper's lock model); plain SELECTs take S locks.
    #[default]
    Serializable,
}

impl IsolationLevel {
    /// All levels, weakest first.
    pub const ALL: [IsolationLevel; 4] = [
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Snapshot,
        IsolationLevel::Serializable,
    ];

    /// Canonical kebab-case name (the `Display`/`FromStr` form).
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "read-committed",
            IsolationLevel::RepeatableRead => "repeatable-read",
            IsolationLevel::Snapshot => "snapshot",
            IsolationLevel::Serializable => "serializable",
        }
    }

    /// Whether plain SELECTs read from an MVCC snapshot instead of
    /// taking shared locks.
    pub fn uses_snapshots(self) -> bool {
        self != IsolationLevel::Serializable
    }

    /// Whether the snapshot is fixed for the whole transaction
    /// (repeatable-read and stronger) rather than per statement.
    pub fn txn_snapshot(self) -> bool {
        matches!(
            self,
            IsolationLevel::RepeatableRead | IsolationLevel::Snapshot
        )
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for an unrecognized isolation-level name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIsolationError(String);

impl fmt::Display for ParseIsolationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown isolation level {:?} (expected one of: read-committed, \
             repeatable-read, snapshot, serializable)",
            self.0
        )
    }
}

impl std::error::Error for ParseIsolationError {}

impl FromStr for IsolationLevel {
    type Err = ParseIsolationError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        match norm.as_str() {
            "read-committed" | "rc" => Ok(IsolationLevel::ReadCommitted),
            "repeatable-read" | "rr" => Ok(IsolationLevel::RepeatableRead),
            "snapshot" | "si" => Ok(IsolationLevel::Snapshot),
            "serializable" | "2pl" => Ok(IsolationLevel::Serializable),
            _ => Err(ParseIsolationError(s.to_string())),
        }
    }
}

/// One committed version of a row.
#[derive(Debug, Clone)]
pub struct Version {
    /// Commit timestamp (logical clock tick); 0 marks the pre-existing
    /// baseline (seeded or committed before version tracking observed it).
    pub ts: u64,
    /// Row payload; `None` records a committed delete.
    pub row: Option<Row>,
}

/// Version chains for every row a committed transaction ever touched,
/// plus the commit-timestamp clock.
///
/// Chains are append-only and strictly increasing in `ts`. Rows that were
/// never rewritten have no chain and are implicitly committed at ts 0.
#[derive(Debug, Clone, Default)]
pub struct VersionStore {
    chains: HashMap<(String, RowId), Vec<Version>>,
    clock: u64,
}

impl VersionStore {
    /// The current logical time: the timestamp of the newest commit.
    /// A snapshot taken "now" is this value — it sees every commit so far.
    pub fn current_ts(&self) -> u64 {
        self.clock
    }

    /// Advance the clock for a writing commit and return its timestamp.
    pub fn next_commit_ts(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Seed a ts-0 baseline version for a row about to be rewritten for
    /// the first time, so older snapshots can still rewind to it.
    /// No-op when the row already has a chain.
    pub fn seed_baseline(&mut self, table: &str, rid: RowId, row: Row) {
        self.chains
            .entry((table.to_string(), rid))
            .or_insert_with(|| {
                vec![Version {
                    ts: 0,
                    row: Some(row),
                }]
            });
    }

    /// Append a committed version.
    pub fn install(&mut self, table: &str, rid: RowId, row: Option<Row>, ts: u64) {
        let chain = self.chains.entry((table.to_string(), rid)).or_default();
        debug_assert!(chain.last().map(|v| v.ts < ts).unwrap_or(true));
        chain.push(Version { ts, row });
        weseer_obs::incr("db.mvcc.version_installs");
        if weseer_obs::timeline::enabled() {
            weseer_obs::timeline::instant(
                "mvcc.version_install",
                "db",
                &[("table", table.to_string()), ("commit_ts", ts.to_string())],
            );
        }
    }

    /// The commit timestamp of the newest version of a row (0 when the
    /// row has no chain, i.e. only the implicit baseline exists).
    pub fn latest_ts(&self, table: &str, rid: RowId) -> u64 {
        self.chains
            .get(&(table.to_string(), rid))
            .and_then(|c| c.last())
            .map(|v| v.ts)
            .unwrap_or(0)
    }

    /// The version of a row visible at `snapshot`: `Some(version)` when a
    /// chain exists, `None` when the row has only its implicit baseline
    /// (visible at every snapshot).
    pub fn visible(&self, table: &str, rid: RowId, snapshot: u64) -> Option<&Version> {
        let chain = self.chains.get(&(table.to_string(), rid))?;
        chain.iter().rev().find(|v| v.ts <= snapshot)
    }

    /// Whether any chain exists for `table` (cheap skip for tables never
    /// rewritten).
    pub fn table_has_chains(&self, table: &str) -> bool {
        self.chains.keys().any(|(t, _)| t == table)
    }

    /// Chain keys for one table, sorted by row id (deterministic rewind
    /// order for [`snapshot_view`]).
    fn chained_rids(&self, table: &str) -> Vec<RowId> {
        let mut rids: Vec<RowId> = self
            .chains
            .keys()
            .filter(|(t, _)| t == table)
            .map(|(_, r)| *r)
            .collect();
        rids.sort_unstable();
        rids
    }
}

/// Materialize the state of `tables` as of `snapshot`, as seen by
/// `reader`: committed versions at or before the snapshot, plus the
/// reader's own uncommitted writes.
///
/// Construction works in three steps on the statement's tables, shared
/// with `st` until a step writes one ([`Storage::table_mut`]'s copy-on-write):
///
/// 1. **Un-apply** every *other* active transaction's undo log (newest
///    transaction first — strict 2PL makes active write sets row-disjoint,
///    so the order only matters for determinism). This removes uncommitted
///    data from the view; the reader's own undo is kept, which is what
///    gives read-your-own-writes.
/// 2. **Rewind** every version chain of the view's tables to the latest
///    version with `ts <= snapshot`: too-new inserts disappear, too-new
///    updates roll back to the visible payload, and deletes committed
///    after the snapshot resurrect the visible payload. Rows the reader
///    itself wrote are skipped (step 1 already left the reader's state).
/// 3. Rows without chains are baseline rows, visible unchanged.
pub fn snapshot_view(st: &Storage, reader: TxnId, snapshot: u64, tables: &[String]) -> Storage {
    let _span = weseer_obs::span("db.mvcc.snapshot_view");
    let mut view = Storage {
        tables: tables
            .iter()
            .filter_map(|t| st.tables.get(t).map(|ts| (t.clone(), ts.clone())))
            .collect(),
        undo: HashMap::new(),
        mvcc: VersionStore::default(),
    };

    // Step 1: strip other transactions' uncommitted effects.
    let mut active: Vec<TxnId> = st.undo.keys().copied().filter(|t| *t != reader).collect();
    active.sort_unstable();
    for txn in active.into_iter().rev() {
        for u in st.undo[&txn].iter().rev() {
            use crate::storage::Undo;
            match u {
                Undo::Insert { table, rid } => {
                    if let Some(t) = view.tables.get_mut(table).map(Arc::make_mut) {
                        t.delete(*rid);
                    }
                }
                Undo::Update { table, rid, old } => {
                    if let Some(t) = view.tables.get_mut(table).map(Arc::make_mut) {
                        t.update(*rid, old.clone());
                    }
                }
                Undo::Delete { table, rid, old } => {
                    if let Some(t) = view.tables.get_mut(table).map(Arc::make_mut) {
                        t.restore(*rid, old.clone());
                    }
                }
            }
        }
    }

    // Rows the reader itself wrote: keep as-is (read-your-own-writes).
    let own: HashSet<(String, RowId)> = st
        .undo
        .get(&reader)
        .map(|log| log.iter().map(undo_key).collect())
        .unwrap_or_default();

    // Step 2: rewind chained rows to the snapshot.
    for table in tables {
        if !st.mvcc.table_has_chains(table) {
            continue;
        }
        for rid in st.mvcc.chained_rids(table) {
            if own.contains(&(table.clone(), rid)) {
                continue;
            }
            let visible: Option<Row> = st
                .mvcc
                .visible(table, rid, snapshot)
                .and_then(|v| v.row.clone());
            let Some(t) = view.tables.get_mut(table) else {
                continue;
            };
            match (t.heap.get(&rid), visible) {
                (Some(cur), Some(vis)) if *cur != vis => {
                    Arc::make_mut(t).update(rid, vis);
                }
                (Some(_), None) => {
                    Arc::make_mut(t).delete(rid);
                }
                (None, Some(vis)) => {
                    Arc::make_mut(t).restore(rid, vis);
                }
                _ => {}
            }
        }
    }
    view
}

fn undo_key(u: &crate::storage::Undo) -> (String, RowId) {
    use crate::storage::Undo;
    match u {
        Undo::Insert { table, rid }
        | Undo::Update { table, rid, .. }
        | Undo::Delete { table, rid, .. } => (table.clone(), *rid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_round_trips() {
        for level in IsolationLevel::ALL {
            assert_eq!(level.name().parse::<IsolationLevel>().unwrap(), level);
            assert_eq!(level.to_string(), level.name());
        }
        assert_eq!(
            "REPEATABLE_READ".parse::<IsolationLevel>().unwrap(),
            IsolationLevel::RepeatableRead
        );
        assert_eq!(
            "si".parse::<IsolationLevel>().unwrap(),
            IsolationLevel::Snapshot
        );
        let err = "chaos".parse::<IsolationLevel>().unwrap_err();
        assert!(err.to_string().contains("unknown isolation level"));
        assert!(err.to_string().contains("read-committed"));
    }

    #[test]
    fn default_is_serializable() {
        assert_eq!(IsolationLevel::default(), IsolationLevel::Serializable);
        assert!(!IsolationLevel::Serializable.uses_snapshots());
        assert!(IsolationLevel::ReadCommitted.uses_snapshots());
        assert!(!IsolationLevel::ReadCommitted.txn_snapshot());
        assert!(IsolationLevel::Snapshot.txn_snapshot());
    }

    #[test]
    fn chains_rewind_to_snapshot() {
        let mut vs = VersionStore::default();
        let rid = RowId(0);
        vs.seed_baseline("T", rid, vec![]);
        let t1 = vs.next_commit_ts();
        vs.install("T", rid, Some(vec![weseer_sqlir::Value::Int(1)]), t1);
        let t2 = vs.next_commit_ts();
        vs.install("T", rid, None, t2);
        assert_eq!(vs.latest_ts("T", rid), t2);
        assert_eq!(vs.visible("T", rid, 0).unwrap().row, Some(vec![]));
        assert_eq!(
            vs.visible("T", rid, t1).unwrap().row,
            Some(vec![weseer_sqlir::Value::Int(1)])
        );
        assert_eq!(vs.visible("T", rid, t2).unwrap().row, None);
        assert_eq!(vs.latest_ts("T", RowId(9)), 0);
        assert!(vs.visible("T", RowId(9), t2).is_none());
    }
}
