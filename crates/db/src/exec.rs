//! Statement execution with InnoDB-style locking.
//!
//! Locks are acquired "during index traversal" (paper Sec. V-C): the
//! executor picks an access path per table, locks what it visits —
//! row locks for unique point reads, next-key (row+gap) locks for scans,
//! gap locks for empty reads, a table lock when no index is usable, and
//! insert-intention + row locks for inserts — then evaluates residual
//! conditions.
//!
//! Execution is one step, [`execute_nowait`]: under the storage mutex the
//! statement is planned and each of its lock targets is requested through
//! [`LockManager::acquire_nowait`]. If every lock is granted, the plan is
//! applied atomically. Otherwise the step returns [`StepResult::Blocked`]
//! with the waits-for edge recorded, or [`DbError::Deadlock`] when the
//! wait would close a cycle. The replay engine drives this step directly.
//! The blocking [`execute`] runs the same step; on `Blocked` it drops the
//! storage mutex, sleeps in [`LockManager::acquire`] on the contended
//! lock, and replans. A threaded run therefore decides every lock request
//! in the same code as a replayed schedule.

use crate::anomaly::AnomalyTracker;
use crate::lock::{AcquireOutcome, LockManager, LockMode, LockTarget};
use crate::mvcc::{snapshot_view, IsolationLevel};
use crate::storage::{index_key, Row, Storage, TableStore, Undo};
use crate::types::{DbError, KeyBound, KeyTuple, RowId, TxnId};
use std::collections::HashMap;
use std::sync::Arc;
use weseer_sqlir::ast::{Assignment, Statement};
use weseer_sqlir::cond::{evaluate, Truth};
use weseer_sqlir::{CmpOp, Cond, IndexDef, Operand, TableDef, Value};

/// Concrete result of one statement.
#[derive(Debug, Clone, Default)]
pub struct ExecData {
    /// Result rows (`alias.column` → value), empty for writes.
    pub rows: Vec<Vec<(String, Value)>>,
    /// Rows affected by a write.
    pub affected: usize,
    /// Lock targets of the statement's final (applied) plan, in
    /// acquisition order — what the statement holds on top of earlier
    /// statements. Replay witnesses record these per step.
    pub locks: Vec<(LockTarget, LockMode)>,
    /// Rows this statement read from an MVCC snapshot (lock-free plain
    /// SELECTs under weak isolation): `(table, row id, version ts)`.
    /// Empty under serializable and for current reads.
    pub snapshot_reads: Vec<(String, RowId, u64)>,
}

/// MVCC execution context of one statement: the session's isolation
/// level, its transaction snapshot, and the database's anomaly tracker.
/// At [`IsolationLevel::Serializable`] the snapshot and tracker are inert
/// and execution is byte-identical to the pre-MVCC engine.
#[derive(Debug, Clone, Copy)]
pub struct MvccCtx<'a> {
    /// Session isolation level.
    pub iso: IsolationLevel,
    /// Transaction snapshot timestamp (used by repeatable-read and
    /// snapshot; read-committed re-snapshots per statement internally).
    pub txn_snapshot: u64,
    /// Anomaly tracker to feed snapshot reads and current writes.
    pub tracker: &'a AnomalyTracker,
}

/// Outcome of one non-blocking statement step ([`execute_nowait`]).
#[derive(Debug)]
pub enum StepResult {
    /// Statement completed and its effects were applied.
    Done(ExecData),
    /// The statement must wait before it can make progress. Nothing was
    /// applied, but locks granted during the attempt — and the recorded
    /// waits-for edge — remain held, exactly like a blocked InnoDB
    /// statement mid-traversal. Re-execute the statement after the
    /// blockers release to make progress.
    Blocked {
        /// Transactions currently blocking this statement (sorted).
        on: Vec<TxnId>,
        /// The contended lock target.
        target: LockTarget,
        /// The requested mode.
        mode: LockMode,
    },
}

/// A mutation to apply once all locks are granted.
#[derive(Debug)]
enum Op {
    Insert {
        table: String,
        row: Row,
    },
    Update {
        table: String,
        rid: RowId,
        new_row: Row,
    },
    Delete {
        table: String,
        rid: RowId,
    },
}

/// The full plan of one attempt.
#[derive(Debug, Default)]
struct Plan {
    locks: Vec<(LockTarget, LockMode)>,
    ops: Vec<Op>,
    data: ExecData,
    /// A non-lock error discovered during planning (duplicate key); locks
    /// collected so far are still acquired (InnoDB locks the conflicting
    /// row on duplicate-key errors).
    error: Option<DbError>,
}

impl Plan {
    fn lock(&mut self, t: LockTarget, m: LockMode) {
        // Dedup exact repeats to keep the lock pass short.
        if !self.locks.iter().any(|(lt, lm)| lt == &t && lm == &m) {
            self.locks.push((t, m));
        }
    }
}

/// A predicate usable for index selection once its right side is bound.
#[derive(Debug, Clone)]
struct BoundPred {
    column: String,
    op: CmpOp,
    value: Value,
}

/// How a table will be accessed; `index` is a position in the table's
/// `def.indexes`.
#[derive(Debug, Clone)]
enum Access {
    PointUnique {
        index: usize,
        key: KeyTuple,
    },
    EqScan {
        index: usize,
        first: Value,
    },
    RangeScan {
        index: usize,
        low: Option<(Value, bool)>,
        high: Option<(Value, bool)>,
    },
    FullScan,
}

/// Maximum plan/lock/replan iterations before giving up.
const MAX_REPLANS: usize = 10_000;

/// Whether the statement is a lock-free snapshot read under `iso`:
/// a plain SELECT (no `FOR UPDATE`) at a weak isolation level. Writes and
/// locking reads stay current reads under 2PL at every level (InnoDB's
/// semantics).
fn is_snapshot_read(iso: IsolationLevel, stmt: &Statement) -> bool {
    match stmt {
        Statement::Select(s) => iso.uses_snapshots() && !s.for_update,
        _ => false,
    }
}

/// Execute `stmt` for `txn`, blocking on contended locks.
pub fn execute(
    storage: &parking_lot::Mutex<Storage>,
    locks: &LockManager,
    txn: TxnId,
    stmt: &Statement,
    params: &[Value],
    mvcc: MvccCtx<'_>,
) -> Result<ExecData, DbError> {
    for _ in 0..MAX_REPLANS {
        match execute_nowait(storage, locks, txn, stmt, params, mvcc)? {
            StepResult::Done(data) => return Ok(data),
            // Sleep on the contended lock with the storage mutex released,
            // then replan: the rows may have changed while we waited.
            StepResult::Blocked { target, mode, .. } => locks.acquire(txn, &target, mode)?,
        }
    }
    Err(DbError::Unsupported(
        "statement did not converge under contention".into(),
    ))
}

/// Execute `stmt` for `txn` without ever sleeping: either the statement
/// completes, or it reports exactly whom it would wait on (recording the
/// waits-for edge via [`LockManager::acquire_nowait`]), or the wait would
/// close a cycle and [`DbError::Deadlock`] surfaces instantly.
///
/// This is the replay engine's step function: single-threaded schedule
/// exploration drives interleavings statement by statement and needs
/// blocking and deadlock detection to be synchronous and deterministic.
/// The blocking [`execute`] is this step plus a wait.
pub fn execute_nowait(
    storage: &parking_lot::Mutex<Storage>,
    locks: &LockManager,
    txn: TxnId,
    stmt: &Statement,
    params: &[Value],
    mvcc: MvccCtx<'_>,
) -> Result<StepResult, DbError> {
    let mut st = storage.lock();
    if is_snapshot_read(mvcc.iso, stmt) {
        return snapshot_select(&st, txn, stmt, params, mvcc).map(StepResult::Done);
    }
    let plan = plan_statement(&st, txn, stmt, params)?;
    for (t, m) in &plan.locks {
        match locks.acquire_nowait(txn, t, *m)? {
            AcquireOutcome::Granted => {}
            AcquireOutcome::WouldBlock(on) => {
                return Ok(StepResult::Blocked {
                    on,
                    target: t.clone(),
                    mode: *m,
                });
            }
        }
    }
    if let Some(e) = plan.error {
        return Err(e);
    }
    write_scan(&st, txn, &plan.ops, mvcc)?;
    apply(&mut st, txn, plan.ops);
    let mut data = plan.data;
    data.locks = plan.locks;
    Ok(StepResult::Done(data))
}

/// Run a plain SELECT against a materialized MVCC snapshot of the
/// statement's tables: no locks, no waits-for edges, rows as of the
/// session's snapshot (plus its own uncommitted writes). Records every
/// read row with its version timestamp in the anomaly tracker and in
/// [`ExecData::snapshot_reads`].
fn snapshot_select(
    st: &Storage,
    txn: TxnId,
    stmt: &Statement,
    params: &[Value],
    mvcc: MvccCtx<'_>,
) -> Result<ExecData, DbError> {
    let Statement::Select(s) = stmt else {
        unreachable!("snapshot_select is only called for SELECTs")
    };
    // Read-committed re-snapshots at every statement; repeatable-read and
    // snapshot pin the transaction snapshot taken at `begin`.
    let snapshot = if mvcc.iso.txn_snapshot() {
        mvcc.txn_snapshot
    } else {
        st.mvcc.current_ts()
    };
    let tables = stmt.tables();
    let view = snapshot_view(st, txn, snapshot, &tables);
    let mut plan = plan_select(&view, stmt, params)?;
    weseer_obs::incr("db.mvcc.snapshot_reads");

    // Row-level read set: extract each level's primary key from the
    // result rows and resolve it to a row id in the view.
    let mut levels: Vec<(String, String)> = vec![(s.from.alias.clone(), s.from.table.clone())];
    for j in &s.joins {
        levels.push((j.table.alias.clone(), j.table.table.clone()));
    }
    let mut reads: Vec<(String, RowId)> = Vec::new();
    for row in &plan.data.rows {
        for (alias, table) in &levels {
            let def = &view.table(table).def;
            let key: Option<KeyTuple> = def
                .primary_key
                .iter()
                .map(|pk| {
                    let name = format!("{alias}.{pk}");
                    row.iter().find(|(c, _)| c == &name).map(|(_, v)| v.clone())
                })
                .collect();
            let Some(key) = key else { continue };
            if let Some(rid) = view.table(table).lookup(&def.primary_index().name, &key) {
                if !reads.contains(&(table.clone(), rid)) {
                    reads.push((table.clone(), rid));
                }
            }
        }
    }
    reads.sort();
    let own = st.undo.get(&txn);
    for (table, rid) in reads {
        // The session's own uncommitted writes have no committed version
        // timestamp; reading them back is not a snapshot observation.
        let is_own = own.is_some_and(|log| {
            log.iter().any(|u| {
                let (t, r) = match u {
                    Undo::Insert { table, rid }
                    | Undo::Update { table, rid, .. }
                    | Undo::Delete { table, rid, .. } => (table, rid),
                };
                t == &table && *r == rid
            })
        });
        if is_own {
            continue;
        }
        let ts = st
            .mvcc
            .visible(&table, rid, snapshot)
            .map(|v| v.ts)
            .unwrap_or(0);
        mvcc.tracker.record_read(txn, &table, rid, ts);
        if weseer_obs::timeline::enabled() {
            weseer_obs::timeline::instant(
                "mvcc.snapshot_read",
                "db",
                &[
                    ("txn", txn.to_string()),
                    ("table", table.clone()),
                    ("row", rid.0.to_string()),
                    ("version_ts", ts.to_string()),
                    ("snapshot", snapshot.to_string()),
                ],
            );
        }
        plan.data.snapshot_reads.push((table, rid, ts));
    }
    Ok(plan.data)
}

/// Pre-apply scan over a write plan's row operations (all locks held,
/// nothing applied yet): enforce snapshot isolation's first-updater-wins
/// rule and feed current writes to the anomaly tracker. Statement-atomic:
/// a [`DbError::WriteConflict`] aborts before any op is applied.
fn write_scan(st: &Storage, txn: TxnId, ops: &[Op], mvcc: MvccCtx<'_>) -> Result<(), DbError> {
    if !mvcc.iso.uses_snapshots() {
        return Ok(());
    }
    let own = st.undo.get(&txn);
    for op in ops {
        let (table, rid) = match op {
            Op::Update { table, rid, .. } | Op::Delete { table, rid } => (table, *rid),
            // Fresh inserts have no prior versions to conflict with.
            Op::Insert { .. } => continue,
        };
        let already_mine = own.is_some_and(|log| {
            log.iter().any(|u| {
                let (t, r) = match u {
                    Undo::Insert { table, rid }
                    | Undo::Update { table, rid, .. }
                    | Undo::Delete { table, rid, .. } => (table, rid),
                };
                t == table && *r == rid
            })
        });
        let latest = st.mvcc.latest_ts(table, rid);
        if mvcc.iso == IsolationLevel::Snapshot && !already_mine && latest > mvcc.txn_snapshot {
            weseer_obs::incr("db.mvcc.write_conflicts");
            if weseer_obs::timeline::enabled() {
                weseer_obs::timeline::instant(
                    "mvcc.write_conflict",
                    "db",
                    &[
                        ("txn", txn.to_string()),
                        ("table", table.clone()),
                        ("row", rid.0.to_string()),
                        ("latest_ts", latest.to_string()),
                        ("snapshot", mvcc.txn_snapshot.to_string()),
                    ],
                );
            }
            return Err(DbError::WriteConflict {
                table: table.clone(),
            });
        }
        mvcc.tracker.record_write(txn, table, rid, latest);
    }
    Ok(())
}

fn apply(st: &mut Storage, txn: TxnId, ops: Vec<Op>) {
    for op in ops {
        match op {
            Op::Insert { table, row } => {
                let rid = st.table_mut(&table).insert(row);
                st.log(txn, Undo::Insert { table, rid });
            }
            Op::Update {
                table,
                rid,
                new_row,
            } => {
                if let Some(old) = st.table_mut(&table).update(rid, new_row) {
                    st.log(txn, Undo::Update { table, rid, old });
                }
            }
            Op::Delete { table, rid } => {
                if let Some(old) = st.table_mut(&table).delete(rid) {
                    st.log(txn, Undo::Delete { table, rid, old });
                }
            }
        }
    }
}

fn plan_statement(
    st: &Storage,
    _txn: TxnId,
    stmt: &Statement,
    params: &[Value],
) -> Result<Plan, DbError> {
    match stmt {
        Statement::Select(_) => plan_select(st, stmt, params),
        Statement::Update(_) | Statement::Delete(_) => plan_update_delete(st, stmt, params),
        Statement::Insert(_) => plan_insert(st, stmt, params),
    }
}

// ---------------------------------------------------------------------------
// shared scan machinery
// ---------------------------------------------------------------------------

type Bindings<'a> = HashMap<&'a str, (&'a str, &'a Row)>; // alias → (table, row)
type TableDefs = HashMap<String, Arc<TableDef>>; // table name → definition

fn resolve(
    op: &Operand,
    bindings: &Bindings,
    tables: &TableDefs,
    params: &[Value],
) -> Option<Value> {
    match op {
        Operand::Param(i) => params.get(*i).cloned(),
        Operand::Const(v) => Some(v.clone()),
        Operand::Column { alias, column } => {
            let (table, row) = bindings.get(alias.as_str())?;
            let def = tables.get(*table)?;
            def.col_pos(column).map(|p| row[p].clone())
        }
    }
}

/// Predicates on `alias` whose other side is resolvable right now.
fn bound_preds(
    conds: &[&Cond],
    alias: &str,
    bindings: &Bindings,
    tables: &TableDefs,
    params: &[Value],
) -> Vec<BoundPred> {
    let mut out = Vec::new();
    for cond in conds {
        for p in cond.top_predicates() {
            let o = p.oriented_for(alias);
            if let Operand::Column { alias: a, column } = &o.lhs {
                if a == alias {
                    if let Some(v) = resolve(&o.rhs, bindings, tables, params) {
                        if !v.is_null() {
                            out.push(BoundPred {
                                column: column.clone(),
                                op: o.op,
                                value: v,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

fn choose_access(def: &TableDef, preds: &[BoundPred]) -> Access {
    // 1. A unique index with equality on every key column → point lookup.
    for (pos, idx) in def.indexes.iter().enumerate() {
        if !idx.unique {
            continue;
        }
        let key: Option<KeyTuple> = idx
            .columns
            .iter()
            .map(|c| {
                preds
                    .iter()
                    .find(|p| p.op == CmpOp::Eq && &p.column == c)
                    .map(|p| p.value.clone())
            })
            .collect();
        if let Some(key) = key {
            return Access::PointUnique { index: pos, key };
        }
    }
    // 2. Any index with equality on its leading column → equality scan.
    for (pos, idx) in def.indexes.iter().enumerate() {
        if let Some(lead) = idx.columns.first() {
            if let Some(p) = preds
                .iter()
                .find(|p| p.op == CmpOp::Eq && &p.column == lead)
            {
                return Access::EqScan {
                    index: pos,
                    first: p.value.clone(),
                };
            }
        }
    }
    // 3. Any index with a range predicate on its leading column.
    for (pos, idx) in def.indexes.iter().enumerate() {
        if let Some(lead) = idx.columns.first() {
            let mut low = None;
            let mut high = None;
            for p in preds.iter().filter(|p| &p.column == lead) {
                match p.op {
                    CmpOp::Gt => low = Some((p.value.clone(), true)),
                    CmpOp::Ge => low = Some((p.value.clone(), false)),
                    CmpOp::Lt => high = Some((p.value.clone(), true)),
                    CmpOp::Le => high = Some((p.value.clone(), false)),
                    _ => {}
                }
            }
            if low.is_some() || high.is_some() {
                return Access::RangeScan {
                    index: pos,
                    low,
                    high,
                };
            }
        }
    }
    Access::FullScan
}

/// Candidate rows for an access path, plus the key that bounds the scanned
/// region (for the terminating gap lock).
fn fetch(ts: &TableStore, access: &Access) -> (Vec<(KeyTuple, RowId)>, Option<KeyBound>) {
    match access {
        Access::PointUnique { index, key } => {
            let tree = ts.btree_at(*index);
            // Unique index keys may be stored with the PK suffix when
            // secondary; compare on the prefix.
            let mut matches = Vec::new();
            let mut succ = None;
            for (k, rid) in tree.range(key.clone()..) {
                if k.len() >= key.len() && &k[..key.len()] == key.as_slice() {
                    matches.push((k.clone(), *rid));
                } else {
                    succ = Some(KeyBound::Key(k.clone()));
                    break;
                }
            }
            let succ = succ.or(Some(KeyBound::Supremum));
            (matches, succ)
        }
        Access::EqScan { index, first } => {
            let tree = ts.btree_at(*index);
            let start: KeyTuple = vec![first.clone()];
            let mut matches = Vec::new();
            let mut succ = None;
            for (k, rid) in tree.range(start..) {
                if k.first() == Some(first) {
                    matches.push((k.clone(), *rid));
                } else {
                    succ = Some(KeyBound::Key(k.clone()));
                    break;
                }
            }
            (matches, succ.or(Some(KeyBound::Supremum)))
        }
        Access::RangeScan { index, low, high } => {
            let tree = ts.btree_at(*index);
            let mut matches = Vec::new();
            let mut succ = None;
            let start: KeyTuple = match low {
                Some((v, _)) => vec![v.clone()],
                None => Vec::new(),
            };
            for (k, rid) in tree.range(start..) {
                let lead = k.first().cloned().unwrap_or(Value::Null);
                if let Some((lo, strict)) = low {
                    let ord = lead.total_cmp(lo);
                    if ord == std::cmp::Ordering::Less
                        || (*strict && ord == std::cmp::Ordering::Equal)
                    {
                        continue;
                    }
                }
                if let Some((hi, strict)) = high {
                    let ord = lead.total_cmp(hi);
                    if ord == std::cmp::Ordering::Greater
                        || (*strict && ord == std::cmp::Ordering::Equal)
                    {
                        succ = Some(KeyBound::Key(k.clone()));
                        break;
                    }
                }
                matches.push((k.clone(), *rid));
            }
            (matches, succ.or(Some(KeyBound::Supremum)))
        }
        Access::FullScan => {
            let tree = ts.btree(&ts.def.primary_index().name);
            let matches = tree.iter().map(|(k, rid)| (k.clone(), *rid)).collect();
            (matches, None)
        }
    }
}

/// Emit the locks of one table access (Alg. 2's shared/exclusive lock
/// generation, executed for real).
fn lock_access(
    plan: &mut Plan,
    ts: &TableStore,
    access: &Access,
    matches: &[(KeyTuple, RowId)],
    succ: Option<&KeyBound>,
    exclusive: bool,
) {
    let mode = if exclusive {
        LockMode::Exclusive
    } else {
        LockMode::Shared
    };
    if !matches!(access, Access::FullScan) {
        // Row access announces itself at table level so full scans
        // (table S/X) and row operations conflict properly.
        let intent = if exclusive {
            LockMode::IntentionExclusive
        } else {
            LockMode::IntentionShared
        };
        plan.lock(
            LockTarget::Table {
                table: ts.name.clone(),
            },
            intent,
        );
    }
    match *access {
        Access::FullScan => {
            plan.lock(
                LockTarget::Table {
                    table: ts.name.clone(),
                },
                mode,
            );
        }
        Access::PointUnique { index, .. } => {
            let point = matches.len() == 1;
            for (key, rid) in matches {
                plan.lock(row_target(ts, index, key.clone()), mode);
                if !point {
                    plan.lock(gap_target(ts, index, KeyBound::Key(key.clone())), mode);
                }
                lock_primary_for_secondary(plan, ts, index, *rid, mode);
            }
            if matches.is_empty() {
                if let Some(succ) = succ {
                    plan.lock(gap_target(ts, index, succ.clone()), mode);
                }
            }
        }
        Access::EqScan { index, .. } | Access::RangeScan { index, .. } => {
            for (key, rid) in matches {
                // Next-key: the record and the gap before it.
                plan.lock(row_target(ts, index, key.clone()), mode);
                plan.lock(gap_target(ts, index, KeyBound::Key(key.clone())), mode);
                lock_primary_for_secondary(plan, ts, index, *rid, mode);
            }
            // Terminating gap: protects the scanned range's tail (and the
            // whole range when the result is empty) — this is what turns
            // empty SELECTs into insert-blocking range locks (d3, d7, …).
            if let Some(succ) = succ {
                plan.lock(gap_target(ts, index, succ.clone()), mode);
            }
        }
    }
}

/// The X/S record lock on the primary entry of a row reached through the
/// index at position `index` (nothing when that index is the primary).
fn lock_primary_for_secondary(
    plan: &mut Plan,
    ts: &TableStore,
    index: usize,
    rid: RowId,
    mode: LockMode,
) {
    if ts.def.indexes[index].is_primary() {
        return;
    }
    if let Some(row) = ts.heap.get(&rid) {
        plan.lock(primary_row(ts, row), mode);
    }
}

/// The record-lock target of `key` in the index at position `index`.
fn row_target(ts: &TableStore, index: usize, key: KeyTuple) -> LockTarget {
    LockTarget::Row {
        table: ts.name.clone(),
        index: ts.index_name(index).clone(),
        key,
    }
}

/// The gap-lock target before `upper` in the index at position `index`.
fn gap_target(ts: &TableStore, index: usize, upper: KeyBound) -> LockTarget {
    LockTarget::Gap {
        table: ts.name.clone(),
        index: ts.index_name(index).clone(),
        upper,
    }
}

/// The record-lock target of `row`'s primary-index entry.
fn primary_row(ts: &TableStore, row: &Row) -> LockTarget {
    let pri = ts.primary_pos();
    row_target(ts, pri, index_key(&ts.def, &ts.def.indexes[pri], row))
}

/// The secondary indexes of `def` with their positions in `def.indexes`.
fn secondary_indexes(def: &TableDef) -> impl Iterator<Item = (usize, &IndexDef)> {
    def.indexes
        .iter()
        .enumerate()
        .filter(|(_, i)| i.is_secondary())
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

fn plan_select(st: &Storage, stmt: &Statement, params: &[Value]) -> Result<Plan, DbError> {
    let Statement::Select(s) = stmt else {
        unreachable!("plan_select is only called for SELECTs")
    };
    let tables = table_map(st, stmt)?;
    let mut plan = Plan::default();
    let exclusive = s.for_update;

    // Conditions usable per level: the FROM level sees WHERE; each JOIN
    // level sees its ON plus WHERE.
    let mut levels: Vec<Level<'_>> = Vec::new();
    let where_conds: Vec<&Cond> = s.where_clause.iter().collect();
    levels.push((&s.from.alias, &s.from.table, where_conds.clone()));
    for j in &s.joins {
        let mut cs: Vec<&Cond> = vec![&j.on];
        cs.extend(where_conds.iter().copied());
        levels.push((&j.table.alias, &j.table.table, cs));
    }
    // The complete query condition: every ON and the WHERE.
    let full_cond: Vec<&Cond> = s
        .joins
        .iter()
        .map(|j| &j.on)
        .chain(&s.where_clause)
        .collect();

    let mut bindings: Bindings = HashMap::new();
    let mut out_rows: Vec<Vec<(String, Value)>> = Vec::new();
    scan_levels(
        st,
        &tables,
        &levels,
        0,
        params,
        exclusive,
        &mut bindings,
        &mut plan,
        &mut |bindings, tables| {
            // Final filter: the complete query condition, true when each
            // conjunct is.
            let resolver = |alias: &str, column: &str| -> Option<Value> {
                let (table, row) = bindings.get(alias)?;
                let def = tables.get(*table)?;
                def.col_pos(column).map(|p| row[p].clone())
            };
            let pass = full_cond
                .iter()
                .all(|c| matches!(evaluate(c, &resolver, params), Some(Truth::True)));
            if pass {
                let mut row_out = Vec::new();
                for (alias, _, _) in &levels {
                    let (table, row) = bindings[alias.as_str()];
                    let def = &tables[table];
                    for (i, col) in def.columns.iter().enumerate() {
                        row_out.push((format!("{alias}.{}", col.name), row[i].clone()));
                    }
                }
                out_rows.push(row_out);
            }
        },
    );
    plan.data.rows = out_rows;
    Ok(plan)
}

/// One join level of a SELECT: alias, table, the conditions usable there.
type Level<'s> = (&'s String, &'s String, Vec<&'s Cond>);

/// Recursive nested-loop join; calls `emit` for every fully bound tuple.
#[allow(clippy::too_many_arguments)]
fn scan_levels<'a>(
    st: &'a Storage,
    tables: &TableDefs,
    levels: &[Level<'a>],
    depth: usize,
    params: &[Value],
    exclusive: bool,
    bindings: &mut Bindings<'a>,
    plan: &mut Plan,
    emit: &mut dyn FnMut(&Bindings<'a>, &TableDefs),
) {
    if depth == levels.len() {
        emit(bindings, tables);
        return;
    }
    let (alias, table, conds) = &levels[depth];
    let ts = st.table(table);
    let preds = bound_preds(conds, alias, bindings, tables, params);
    let access = choose_access(&ts.def, &preds);
    let (matches, succ) = fetch(ts, &access);
    lock_access(plan, ts, &access, &matches, succ.as_ref(), exclusive);
    for (_, rid) in &matches {
        let Some(row) = ts.heap.get(rid) else {
            continue;
        };
        // Residual filter on this level's bound predicates.
        let def = &ts.def;
        let ok = preds.iter().all(|p| {
            def.col_pos(&p.column)
                .and_then(|pos| row[pos].sql_cmp(&p.value))
                .is_some_and(|ord| p.op.eval(ord))
        });
        if !ok {
            continue;
        }
        bindings.insert(alias, (table, row));
        scan_levels(
            st,
            tables,
            levels,
            depth + 1,
            params,
            exclusive,
            bindings,
            plan,
            emit,
        );
        bindings.remove(alias.as_str());
    }
}

fn table_map(st: &Storage, stmt: &Statement) -> Result<TableDefs, DbError> {
    let mut out = HashMap::new();
    for t in stmt.tables() {
        let ts = st
            .tables
            .get(&t)
            .ok_or_else(|| DbError::Schema(format!("unknown table {t}")))?;
        out.insert(t, ts.def.clone());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE
// ---------------------------------------------------------------------------

fn plan_update_delete(st: &Storage, stmt: &Statement, params: &[Value]) -> Result<Plan, DbError> {
    let (table, where_clause, sets): (&str, _, Option<&Vec<Assignment>>) = match stmt {
        Statement::Update(u) => (u.table.as_str(), &u.where_clause, Some(&u.sets)),
        Statement::Delete(d) => (d.table.as_str(), &d.where_clause, None),
        _ => unreachable!(),
    };
    let tables = table_map(st, stmt)?;
    let ts = st.table(table);
    let def = ts.def.clone();
    let mut plan = Plan::default();

    let conds: Vec<&Cond> = where_clause.iter().collect();
    let preds = bound_preds(&conds, table, &HashMap::new(), &tables, params);
    let access = choose_access(&def, &preds);
    let (matches, succ) = fetch(ts, &access);
    lock_access(&mut plan, ts, &access, &matches, succ.as_ref(), true);

    let mut seen: Vec<RowId> = Vec::new();
    for (_, rid) in &matches {
        if seen.contains(rid) {
            continue;
        }
        let Some(row) = ts.heap.get(rid) else {
            continue;
        };
        // Full residual evaluation.
        let resolver = |alias: &str, column: &str| -> Option<Value> {
            if alias != table {
                return None;
            }
            def.col_pos(column).map(|p| row[p].clone())
        };
        let pass = match where_clause {
            None => true,
            Some(c) => matches!(evaluate(c, &resolver, params), Some(Truth::True)),
        };
        if !pass {
            continue;
        }
        seen.push(*rid);
        // X lock on the primary entry.
        plan.lock(primary_row(ts, row), LockMode::Exclusive);
        match sets {
            Some(sets) => {
                let mut new_row = row.clone();
                for a in sets {
                    let v = resolve(&a.value, &HashMap::new(), &tables, params)
                        .or_else(|| match &a.value {
                            Operand::Column { alias, column } if alias == table => {
                                def.col_pos(column).map(|p| row[p].clone())
                            }
                            _ => None,
                        })
                        .ok_or_else(|| {
                            DbError::Unsupported(format!("unresolvable SET value {:?}", a.value))
                        })?;
                    let pos = def
                        .col_pos(&a.column)
                        .ok_or_else(|| DbError::Schema(format!("unknown column {}", a.column)))?;
                    new_row[pos] = v;
                }
                // X locks on modified secondary entries (old and new).
                for (pos, idx) in secondary_indexes(&def) {
                    let old_key = index_key(&def, idx, row);
                    let new_key = index_key(&def, idx, &new_row);
                    if old_key != new_key {
                        for key in [old_key, new_key] {
                            plan.lock(row_target(ts, pos, key), LockMode::Exclusive);
                        }
                    }
                }
                plan.ops.push(Op::Update {
                    table: table.to_string(),
                    rid: *rid,
                    new_row,
                });
            }
            None => {
                // DELETE: X lock every index entry of the row.
                for (pos, idx) in secondary_indexes(&def) {
                    let key = index_key(&def, idx, row);
                    plan.lock(row_target(ts, pos, key), LockMode::Exclusive);
                }
                plan.ops.push(Op::Delete {
                    table: table.to_string(),
                    rid: *rid,
                });
            }
        }
        plan.data.affected += 1;
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// INSERT
// ---------------------------------------------------------------------------

fn plan_insert(st: &Storage, stmt: &Statement, params: &[Value]) -> Result<Plan, DbError> {
    let ins = match stmt {
        Statement::Insert(i) => i,
        _ => unreachable!(),
    };
    let tables = table_map(st, stmt)?;
    let ts = st.table(&ins.table);
    let def = ts.def.clone();
    let mut plan = Plan::default();

    // Build the new row.
    let columns: Vec<String> = if ins.columns.is_empty() {
        def.columns.iter().map(|c| c.name.clone()).collect()
    } else {
        ins.columns.clone()
    };
    if columns.len() != ins.values.len() {
        return Err(DbError::Schema(format!(
            "INSERT into {} has {} columns but {} values",
            ins.table,
            columns.len(),
            ins.values.len()
        )));
    }
    let mut row: Row = vec![Value::Null; def.columns.len()];
    for (c, vexpr) in columns.iter().zip(&ins.values) {
        let pos = def
            .col_pos(c)
            .ok_or_else(|| DbError::Schema(format!("unknown column {c}")))?;
        row[pos] = resolve(vexpr, &HashMap::new(), &tables, params)
            .ok_or_else(|| DbError::Unsupported("unresolvable INSERT value".into()))?;
    }

    // Uniqueness checks first (primary + unique secondaries).
    for (pos, idx) in def.indexes.iter().enumerate().filter(|(_, i)| i.unique) {
        let logical: KeyTuple = idx
            .columns
            .iter()
            .map(|c| row[def.col_pos(c).expect("validated")].clone())
            .collect();
        let dup = ts
            .btree_at(pos)
            .range(logical.clone()..)
            .next()
            .filter(|(k, _)| k.len() >= logical.len() && k[..logical.len()] == logical[..])
            .map(|(k, rid)| (k.clone(), *rid));
        if let Some((dup_key, dup_rid)) = dup {
            if !ins.on_duplicate.is_empty() {
                return plan_upsert_update(st, ins, &def, dup_rid, params, plan);
            }
            // InnoDB takes an S lock on the conflicting record before
            // reporting the duplicate — itself a deadlock ingredient.
            plan.lock(row_target(ts, pos, dup_key), LockMode::Shared);
            plan.error = Some(DbError::DuplicateKey {
                index: idx.name.clone(),
            });
            return Ok(plan);
        }
    }

    // Insert-intention lock on the gap receiving the key, per index, then
    // an X record lock on the new entry.
    plan.lock(
        LockTarget::Table {
            table: ts.name.clone(),
        },
        LockMode::IntentionExclusive,
    );
    for (pos, idx) in def.indexes.iter().enumerate() {
        let key = index_key(&def, idx, &row);
        let succ = ts
            .btree_at(pos)
            .range(key.clone()..)
            .next()
            .map(|(k, _)| KeyBound::Key(k.clone()))
            .unwrap_or(KeyBound::Supremum);
        plan.lock(gap_target(ts, pos, succ), LockMode::InsertIntention);
        plan.lock(row_target(ts, pos, key), LockMode::Exclusive);
    }
    plan.ops.push(Op::Insert {
        table: ins.table.clone(),
        row,
    });
    plan.data.affected = 1;
    Ok(plan)
}

/// The UPDATE arm of `INSERT ... ON DUPLICATE KEY UPDATE` (fix f2).
fn plan_upsert_update(
    st: &Storage,
    ins: &weseer_sqlir::Insert,
    def: &Arc<TableDef>,
    rid: RowId,
    params: &[Value],
    mut plan: Plan,
) -> Result<Plan, DbError> {
    let ts = st.table(&ins.table);
    let Some(row) = ts.heap.get(&rid) else {
        return Ok(plan);
    };
    plan.lock(primary_row(ts, row), LockMode::Exclusive);
    let mut new_row = row.clone();
    let tables: TableDefs = [(ins.table.clone(), def.clone())].into_iter().collect();
    for a in &ins.on_duplicate {
        let v = resolve(&a.value, &HashMap::new(), &tables, params)
            .ok_or_else(|| DbError::Unsupported("unresolvable UPSERT value".into()))?;
        let pos = def
            .col_pos(&a.column)
            .ok_or_else(|| DbError::Schema(format!("unknown column {}", a.column)))?;
        new_row[pos] = v;
    }
    plan.ops.push(Op::Update {
        table: ins.table.clone(),
        rid,
        new_row,
    });
    plan.data.affected = 2; // MySQL convention for upsert-as-update
    Ok(plan)
}
