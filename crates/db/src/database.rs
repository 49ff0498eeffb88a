//! The database facade: shared handle, sessions, transactions, statistics.
//!
//! [`Database`] is cheap to clone and thread-safe; each client thread opens
//! its own [`Session`]. Sessions implement the concolic crate's
//! [`SqlBackend`] so the same database serves both trace collection (under
//! the ORM + tracing driver) and the multi-threaded performance harness
//! (paper Figs. 10/11).

use crate::anomaly::{AnomalyEvent, AnomalyTracker};
use crate::exec::{self, ExecData, MvccCtx};
use crate::lock::{LockManager, LockStats};
use crate::mvcc::IsolationLevel;
use crate::storage::{Row, Storage};
use crate::types::{DbError, TxnId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use weseer_concolic::{BackendError, ExecResult, SqlBackend};
use weseer_sqlir::{Catalog, Statement, Value};

/// Aggregate counters (paper Sec. VII-D reports aborts/second).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back (any reason).
    pub rollbacks: u64,
    /// Rollbacks caused by deadlock victim selection.
    pub deadlock_aborts: u64,
    /// Rollbacks caused by lock-wait timeouts.
    pub timeout_aborts: u64,
    /// Rollbacks caused by snapshot isolation's first-updater-wins rule.
    pub write_conflict_aborts: u64,
    /// Statements executed.
    pub statements: u64,
    /// Lock manager counters.
    pub locks: LockStats,
}

#[derive(Debug, Default)]
struct Counters {
    commits: AtomicU64,
    rollbacks: AtomicU64,
    deadlock_aborts: AtomicU64,
    timeout_aborts: AtomicU64,
    write_conflict_aborts: AtomicU64,
    statements: AtomicU64,
}

/// Encode an [`IsolationLevel`] into an atomic cell (index into
/// [`IsolationLevel::ALL`]).
fn iso_to_u64(level: IsolationLevel) -> u64 {
    IsolationLevel::ALL
        .iter()
        .position(|l| *l == level)
        .expect("level is in ALL") as u64
}

fn iso_from_u64(v: u64) -> IsolationLevel {
    IsolationLevel::ALL[v as usize]
}

#[derive(Debug)]
struct Inner {
    catalog: Catalog,
    storage: Mutex<Storage>,
    locks: LockManager,
    counters: Counters,
    next_txn: AtomicU64,
    id_gens: Mutex<HashMap<String, i64>>,
    /// Default isolation for [`Database::session`] (index into
    /// [`IsolationLevel::ALL`]); serializable unless overridden.
    default_isolation: AtomicU64,
    /// Weak-isolation anomaly observations ([`crate::anomaly`]).
    tracker: AnomalyTracker,
}

/// A shared in-memory database.
#[derive(Debug, Clone)]
pub struct Database {
    inner: Arc<Inner>,
}

impl Database {
    /// Create an empty database for `catalog` with the default 5 s lock
    /// wait timeout.
    pub fn new(catalog: Catalog) -> Self {
        Database::with_timeout(catalog, Duration::from_secs(5))
    }

    /// Create a database with a custom lock-wait timeout (MySQL's
    /// `innodb_lock_wait_timeout`).
    pub fn with_timeout(catalog: Catalog, wait_timeout: Duration) -> Self {
        let storage = Storage::new(&catalog);
        Database {
            inner: Arc::new(Inner {
                catalog,
                storage: Mutex::new(storage),
                locks: LockManager::new(wait_timeout),
                counters: Counters::default(),
                next_txn: AtomicU64::new(1),
                id_gens: Mutex::new(HashMap::new()),
                default_isolation: AtomicU64::new(iso_to_u64(IsolationLevel::Serializable)),
                tracker: AnomalyTracker::default(),
            }),
        }
    }

    /// The schema.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// Open a session at the database's default isolation level
    /// (serializable unless [`Database::set_default_isolation`] changed it).
    pub fn session(&self) -> Session {
        self.session_at(self.default_isolation())
    }

    /// Open a session at an explicit isolation level.
    pub fn session_at(&self, isolation: IsolationLevel) -> Session {
        Session {
            db: self.clone(),
            txn: None,
            isolation,
            snapshot: 0,
        }
    }

    /// The default isolation level for new sessions.
    pub fn default_isolation(&self) -> IsolationLevel {
        iso_from_u64(self.inner.default_isolation.load(Ordering::Relaxed))
    }

    /// Change the default isolation level for new sessions (existing
    /// sessions keep theirs). Forks inherit the default.
    pub fn set_default_isolation(&self, level: IsolationLevel) {
        self.inner
            .default_isolation
            .store(iso_to_u64(level), Ordering::Relaxed);
    }

    /// Weak-isolation anomalies observed in committed transactions so
    /// far, sorted and deduplicated ([`crate::anomaly`]). Always empty
    /// for purely serializable histories.
    pub fn anomaly_events(&self) -> Vec<AnomalyEvent> {
        self.inner.tracker.events()
    }

    /// Current counters.
    pub fn stats(&self) -> DbStats {
        let c = &self.inner.counters;
        DbStats {
            commits: c.commits.load(Ordering::Relaxed),
            rollbacks: c.rollbacks.load(Ordering::Relaxed),
            deadlock_aborts: c.deadlock_aborts.load(Ordering::Relaxed),
            timeout_aborts: c.timeout_aborts.load(Ordering::Relaxed),
            write_conflict_aborts: c.write_conflict_aborts.load(Ordering::Relaxed),
            statements: c.statements.load(Ordering::Relaxed),
            locks: self.inner.locks.stats(),
        }
    }

    /// Draw the next value from a per-table id sequence (the ORM's
    /// identifier generator).
    pub fn next_id(&self, table: &str) -> i64 {
        let mut gens = self.inner.id_gens.lock();
        let e = gens.entry(table.to_string()).or_insert(0);
        *e += 1;
        *e
    }

    /// Advance a table's id sequence to at least `floor` (after seeding).
    pub fn bump_id(&self, table: &str, floor: i64) {
        let mut gens = self.inner.id_gens.lock();
        let e = gens.entry(table.to_string()).or_insert(0);
        *e = (*e).max(floor);
    }

    /// Seed rows directly, outside any transaction (test/bootstrap setup).
    ///
    /// # Panics
    /// Panics on unknown table or arity mismatch.
    pub fn seed(&self, table: &str, rows: Vec<Row>) {
        let mut st = self.inner.storage.lock();
        let t = st.table_mut(table);
        let width = t.def.columns.len();
        for row in rows {
            assert_eq!(row.len(), width, "seed row arity mismatch for {table}");
            t.insert(row);
        }
    }

    /// Snapshot a table's rows in primary-key order (test introspection).
    pub fn dump(&self, table: &str) -> Vec<Row> {
        let st = self.inner.storage.lock();
        let t = st.table(table);
        t.btree(&t.def.primary_index().name)
            .values()
            .filter_map(|rid| t.heap.get(rid).cloned())
            .collect()
    }

    /// Number of rows in a table.
    pub fn count(&self, table: &str) -> usize {
        self.inner.storage.lock().table(table).len()
    }

    /// Sorted snapshot of the lock manager's waits-for edges
    /// `(waiter, holder)` — surfaced for replay witnesses and diagnostics.
    pub fn wait_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        self.inner.locks.wait_for_edges()
    }

    /// An independent copy of this database's *committed* state: same
    /// catalog, committed storage and id sequences, fresh lock manager,
    /// counters, and anomaly tracker, transaction ids continuing from this
    /// database's next id.
    ///
    /// The replay engine prepares a database once per report and forks it
    /// per explored schedule, so every branch starts from bit-identical
    /// state. In-flight transactions of the source are rolled back *in the
    /// fork* ([`Storage::reset_in_flight`]): their locks and waits-for
    /// edges live in the source's lock manager and cannot transfer, so
    /// carrying their uncommitted heap data or undo logs across would
    /// leave the fork with orphaned dirty rows and a wait-for graph that
    /// lies about them.
    pub fn fork(&self) -> Database {
        let mut storage = self.inner.storage.lock().clone();
        storage.reset_in_flight();
        let id_gens = self.inner.id_gens.lock().clone();
        Database {
            inner: Arc::new(Inner {
                catalog: self.inner.catalog.clone(),
                storage: Mutex::new(storage),
                locks: LockManager::new(self.inner.locks.wait_timeout),
                counters: Counters::default(),
                next_txn: AtomicU64::new(self.inner.next_txn.load(Ordering::Relaxed)),
                id_gens: Mutex::new(id_gens),
                default_isolation: AtomicU64::new(
                    self.inner.default_isolation.load(Ordering::Relaxed),
                ),
                tracker: AnomalyTracker::default(),
            }),
        }
    }
}

/// A client session holding at most one open transaction.
#[derive(Debug)]
pub struct Session {
    db: Database,
    txn: Option<TxnId>,
    isolation: IsolationLevel,
    /// Transaction snapshot timestamp, taken at `begin` for MVCC levels.
    snapshot: u64,
}

impl Session {
    /// The owning database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// This session's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Begin a transaction. Under an MVCC isolation level the transaction
    /// snapshot is taken here and the transaction registers with the
    /// anomaly tracker.
    pub fn begin(&mut self) {
        assert!(self.txn.is_none(), "transaction already open");
        let id = TxnId(self.db.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        self.txn = Some(id);
        if self.isolation.uses_snapshots() {
            self.snapshot = self.db.inner.storage.lock().mvcc.current_ts();
            self.db.inner.tracker.begin(id, self.snapshot);
        }
    }

    fn mvcc_ctx(&self) -> MvccCtx<'_> {
        MvccCtx {
            iso: self.isolation,
            txn_snapshot: self.snapshot,
            tracker: &self.db.inner.tracker,
        }
    }

    /// The open transaction's id, if any.
    pub fn txn_id(&self) -> Option<TxnId> {
        self.txn
    }

    /// Execute one statement in the open transaction.
    ///
    /// On [`DbError::Deadlock`] / [`DbError::LockWaitTimeout`] the
    /// transaction is rolled back before returning (MySQL victim
    /// recovery).
    pub fn execute(&mut self, stmt: &Statement, params: &[Value]) -> Result<ExecData, DbError> {
        self.run(|inner, txn, mvcc| {
            exec::execute(&inner.storage, &inner.locks, txn, stmt, params, mvcc)
        })
    }

    /// Execute one statement without ever waiting (the replay engine's
    /// step function): the statement either completes, reports whom it
    /// waits on ([`exec::StepResult::Blocked`], waits-for edge recorded),
    /// or closes a waits-for cycle — in which case the transaction is
    /// rolled back and [`DbError::Deadlock`] carries the concrete cycle.
    pub fn execute_nowait(
        &mut self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<exec::StepResult, DbError> {
        self.run(|inner, txn, mvcc| {
            exec::execute_nowait(&inner.storage, &inner.locks, txn, stmt, params, mvcc)
        })
    }

    /// The body both `execute` flavours share: count the statement, run
    /// `exec` in the open transaction, and count and roll back an
    /// engine-initiated abort before returning it.
    fn run<T>(
        &mut self,
        exec: impl FnOnce(&Inner, TxnId, MvccCtx<'_>) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let txn = self.txn.ok_or(DbError::NoTransaction)?;
        let inner = &self.db.inner;
        inner.counters.statements.fetch_add(1, Ordering::Relaxed);
        let result = exec(inner, txn, self.mvcc_ctx());
        // The errors that abort the transaction (`DbError::aborts_txn`).
        let aborts = match &result {
            Err(DbError::Deadlock { .. }) => Some(&inner.counters.deadlock_aborts),
            Err(DbError::LockWaitTimeout) => Some(&inner.counters.timeout_aborts),
            Err(DbError::WriteConflict { .. }) => Some(&inner.counters.write_conflict_aborts),
            _ => None,
        };
        if let Some(counter) = aborts {
            counter.fetch_add(1, Ordering::Relaxed);
            self.rollback();
        }
        result
    }

    /// Commit the open transaction. Under an MVCC isolation level the
    /// commit installs the transaction's net row effects as versions and
    /// reports the commit to the anomaly tracker.
    pub fn commit(&mut self) -> Result<(), DbError> {
        let txn = self.txn.take().ok_or(DbError::NoTransaction)?;
        let commit_ts = {
            let mut st = self.db.inner.storage.lock();
            st.commit(txn)
        };
        if self.isolation.uses_snapshots() {
            self.db.inner.tracker.commit(txn, commit_ts);
        }
        self.db.inner.locks.release_all(txn);
        self.db
            .inner
            .counters
            .commits
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Roll back the open transaction (no-op without one).
    pub fn rollback(&mut self) {
        if let Some(txn) = self.txn.take() {
            {
                let mut st = self.db.inner.storage.lock();
                st.rollback(txn);
            }
            if self.isolation.uses_snapshots() {
                self.db.inner.tracker.rollback(txn);
            }
            self.db.inner.locks.release_all(txn);
            self.db
                .inner
                .counters
                .rollbacks
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.rollback();
    }
}

impl SqlBackend for Session {
    fn begin(&mut self) {
        Session::begin(self);
    }

    fn execute(&mut self, stmt: &Statement, params: &[Value]) -> Result<ExecResult, BackendError> {
        Session::execute(self, stmt, params)
            .map(|d| ExecResult {
                rows: d.rows,
                affected: d.affected,
            })
            .map_err(|e| BackendError {
                message: e.to_string(),
                deadlock_victim: e.aborts_txn(),
            })
    }

    fn commit(&mut self) -> Result<(), BackendError> {
        Session::commit(self).map_err(|e| BackendError {
            message: e.to_string(),
            deadlock_victim: false,
        })
    }

    fn rollback(&mut self) {
        Session::rollback(self);
    }
}
