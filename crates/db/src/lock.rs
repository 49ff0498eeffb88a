//! The lock manager: strict two-phase locking with InnoDB-style
//! row / gap / insert-intention / table locks, blocking waits, waits-for
//! cycle detection, and victim abort (paper Sec. II-A's detect-and-recover).
//!
//! Compatibility rules mirror InnoDB:
//!
//! * row and table locks: S/S compatible, anything with X conflicts;
//! * gap locks (S or X) are *purely inhibitive*: they never conflict with
//!   each other, but they block other transactions' insert-intention locks
//!   into the same gap;
//! * insert-intention locks are compatible with each other.
//!
//! A transaction that would close a hold-and-wait cycle is rolled back
//! immediately with [`DbError::Deadlock`] carrying the concrete waits-for
//! cycle (the requester is the victim, as in InnoDB when it is the
//! cheapest to roll back).
//!
//! Every request is decided by one step under the manager's mutex: grant
//! it, or record the waits-for edge and report whom it waits on, or detect
//! the cycle. That step also records all of the request's bookkeeping
//! ([`LockStats`], the `db.lock.*` counters, `/waitfor`, the timeline).
//! [`LockManager::acquire_nowait`] is the step alone: it never sleeps, so
//! the replay engine sees deadlocks instantly and deterministically.
//! The blocking [`LockManager::acquire`] re-runs the same step after each
//! condition-variable wakeup and adds only the timeout, so a threaded run
//! and a replayed schedule cannot decide a request differently. The
//! current edge set is observable through [`LockManager::wait_for_edges`].

use crate::types::{DbError, KeyBound, KeyTuple, TxnId};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What is being locked. Table and index names are shared with the
/// table's [`crate::storage::TableStore`], so cloning a target copies no
/// name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockTarget {
    /// Whole table (used when no index is usable — Alg. 2 line 19).
    Table {
        /// Table name.
        table: Arc<str>,
    },
    /// One index entry (record lock).
    Row {
        /// Table name.
        table: Arc<str>,
        /// Index name.
        index: Arc<str>,
        /// Index key (with PK suffix for secondary indexes).
        key: KeyTuple,
    },
    /// The open interval before an index entry (gap lock).
    Gap {
        /// Table name.
        table: Arc<str>,
        /// Index name.
        index: Arc<str>,
        /// The key the gap precedes.
        upper: KeyBound,
    },
}

impl LockTarget {
    /// The table this target belongs to.
    pub fn table(&self) -> &str {
        match self {
            LockTarget::Table { table }
            | LockTarget::Row { table, .. }
            | LockTarget::Gap { table, .. } => table,
        }
    }
}

/// Lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared.
    Shared,
    /// Exclusive.
    Exclusive,
    /// Insert intention (into a gap).
    InsertIntention,
    /// Intention shared (table level, taken before row S locks).
    IntentionShared,
    /// Intention exclusive (table level, taken before row X locks).
    IntentionExclusive,
}

/// Whether a held lock blocks a requested one on the *same* target.
fn conflicts(target: &LockTarget, held: LockMode, req: LockMode) -> bool {
    use LockMode::*;
    match target {
        LockTarget::Gap { .. } => matches!(
            (held, req),
            (Shared, InsertIntention) | (Exclusive, InsertIntention)
        ),
        LockTarget::Table { .. } => matches!(
            (held, req),
            (Shared, Exclusive)
                | (Shared, IntentionExclusive)
                | (Exclusive, _)
                | (IntentionShared, Exclusive)
                | (IntentionExclusive, Shared)
                | (IntentionExclusive, Exclusive)
        ),
        LockTarget::Row { .. } => !matches!((held, req), (Shared, Shared)),
    }
}

#[derive(Debug, Default)]
struct LockState {
    /// Granted locks per target.
    granted: HashMap<LockTarget, Vec<(TxnId, LockMode)>>,
    /// Targets held per transaction (release bookkeeping).
    held_by: HashMap<TxnId, Vec<LockTarget>>,
    /// Current waits-for edges of blocked transactions.
    waiting_for: HashMap<TxnId, HashSet<TxnId>>,
    /// Counters, updated with the decisions they count.
    stats: LockStats,
}

impl LockState {
    fn blockers(&self, txn: TxnId, target: &LockTarget, mode: LockMode) -> HashSet<TxnId> {
        self.granted
            .get(target)
            .into_iter()
            .flatten()
            .filter(|(holder, held)| *holder != txn && conflicts(target, *held, mode))
            .map(|(holder, _)| *holder)
            .collect()
    }

    /// DFS over waits-for edges: does any of `from` reach `to`?
    fn reaches(&self, from: &HashSet<TxnId>, to: TxnId) -> bool {
        let mut stack: Vec<TxnId> = from.iter().copied().collect();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = self.waiting_for.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// A deterministic waits-for cycle through the victim: DFS from the
    /// victim's blockers back to the victim, visiting candidates in
    /// ascending `TxnId` order. Only called after [`LockState::reaches`]
    /// confirmed a cycle exists.
    fn cycle_path(&self, victim: TxnId, blockers: &HashSet<TxnId>) -> Vec<TxnId> {
        let mut starts: Vec<TxnId> = blockers.iter().copied().collect();
        starts.sort_unstable();
        let mut visited = HashSet::new();
        let mut path = vec![victim];
        for s in starts {
            if self.find_path(s, victim, &mut visited, &mut path) {
                return path;
            }
        }
        path
    }

    fn find_path(
        &self,
        from: TxnId,
        to: TxnId,
        visited: &mut HashSet<TxnId>,
        path: &mut Vec<TxnId>,
    ) -> bool {
        if from == to {
            return true;
        }
        if !visited.insert(from) {
            return false;
        }
        path.push(from);
        let mut nexts: Vec<TxnId> = self
            .waiting_for
            .get(&from)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        nexts.sort_unstable();
        for n in nexts {
            if self.find_path(n, to, visited, path) {
                return true;
            }
        }
        path.pop();
        false
    }

    /// Sorted snapshot of the waits-for edges.
    fn edges_snapshot(&self) -> Vec<(TxnId, TxnId)> {
        let mut out: Vec<(TxnId, TxnId)> = self
            .waiting_for
            .iter()
            .flat_map(|(w, bs)| bs.iter().map(move |b| (*w, *b)))
            .collect();
        out.sort_unstable();
        out
    }

    fn grant(&mut self, txn: TxnId, target: &LockTarget, mode: LockMode) {
        if !self.granted.contains_key(target) {
            self.granted.insert(target.clone(), Vec::new());
        }
        let entry = self.granted.get_mut(target).expect("inserted above");
        if entry.iter().any(|(t, m)| *t == txn && *m == mode) {
            return;
        }
        let first_for_txn = !entry.iter().any(|(t, _)| *t == txn);
        entry.push((txn, mode));
        if first_for_txn {
            self.held_by.entry(txn).or_default().push(target.clone());
        }
    }
}

/// Mirror the current waits-for edge set into the obs crate's live
/// wait-for state for the `/waitfor` endpoint. Cheap no-op while the
/// registry is disabled.
fn publish_waitfor(st: &LockState) {
    if weseer_obs::enabled() {
        weseer_obs::waitfor::update_edges(
            st.edges_snapshot()
                .into_iter()
                .map(|(w, h)| (w.0, h.0))
                .collect(),
        );
    }
}

/// Timeline instant for a lock-manager event (acquire / wait / deadlock /
/// release). `detail` runs only while the timeline is enabled, so a
/// disabled timeline formats nothing.
fn timeline_lock_event<const N: usize>(
    name: &'static str,
    txn: TxnId,
    detail: impl FnOnce() -> [(&'static str, String); N],
) {
    if weseer_obs::timeline::enabled() {
        let mut args = vec![("txn", txn.0.to_string())];
        args.extend(detail());
        weseer_obs::timeline::instant(name, "db", &args);
    }
}

/// Counters published by the lock manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Lock requests that had to wait (counted once per recorded edge,
    /// however often the request is re-decided while it waits).
    pub waits: u64,
    /// Deadlocks detected (victim aborts).
    pub deadlocks: u64,
    /// Lock-wait timeouts.
    pub timeouts: u64,
}

/// Outcome of a non-blocking [`LockManager::acquire_nowait`] attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// Lock granted.
    Granted,
    /// The request must wait on these transactions (sorted). The waits-for
    /// edge has been recorded; it persists until the lock is granted or
    /// the transaction releases.
    WouldBlock(Vec<TxnId>),
}

/// The lock manager.
#[derive(Debug)]
pub struct LockManager {
    state: Mutex<LockState>,
    cond: Condvar,
    /// Maximum blocking time before a timeout abort.
    pub wait_timeout: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(Duration::from_secs(5))
    }
}

impl LockManager {
    /// Create a lock manager with the given wait timeout.
    pub fn new(wait_timeout: Duration) -> Self {
        LockManager {
            state: Mutex::new(LockState::default()),
            cond: Condvar::new(),
            wait_timeout,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> LockStats {
        self.state.lock().stats
    }

    /// The one lock-request decision, made under the state mutex: grant
    /// the request, or record the waits-for edge and report whom it waits
    /// on, or — when waiting would close a cycle — refuse it with the
    /// cycle, requester (the victim) first. Every counter, `/waitfor`
    /// update and timeline instant a request produces is recorded here.
    fn decide(
        &self,
        st: &mut LockState,
        txn: TxnId,
        target: &LockTarget,
        mode: LockMode,
    ) -> Result<AcquireOutcome, DbError> {
        let blockers = st.blockers(txn, target, mode);
        if blockers.is_empty() {
            timeline_lock_event("db.lock.acquire", txn, || {
                [
                    ("target", format!("{target:?}")),
                    ("mode", format!("{mode:?}")),
                ]
            });
            st.grant(txn, target, mode);
            weseer_obs::incr("db.lock.acquisitions");
            if st.waiting_for.remove(&txn).is_some() {
                publish_waitfor(st);
                self.cond.notify_all();
            }
            return Ok(AcquireOutcome::Granted);
        }
        // Would waiting close a cycle? blockers ⇒ … ⇒ txn.
        if st.reaches(&blockers, txn) {
            let cycle = st.cycle_path(txn, &blockers);
            if weseer_obs::enabled() {
                // Edge set *at detection time*, before the victim's edges
                // are rolled back, plus the closing edges the victim was
                // about to add.
                let mut edges: Vec<(u64, u64)> = st
                    .edges_snapshot()
                    .into_iter()
                    .map(|(w, h)| (w.0, h.0))
                    .collect();
                edges.extend(blockers.iter().map(|b| (txn.0, b.0)));
                edges.sort_unstable();
                edges.dedup();
                weseer_obs::waitfor::record_deadlock(cycle.iter().map(|t| t.0).collect(), edges);
            }
            st.waiting_for.remove(&txn);
            st.stats.deadlocks += 1;
            weseer_obs::incr("db.lock.deadlock_aborts");
            timeline_lock_event("db.lock.deadlock", txn, || {
                [("cycle", format!("{cycle:?}"))]
            });
            publish_waitfor(st);
            self.cond.notify_all();
            return Err(DbError::Deadlock {
                cycle,
                target: target.clone(),
            });
        }
        let mut on: Vec<TxnId> = blockers.iter().copied().collect();
        on.sort_unstable();
        if st.waiting_for.insert(txn, blockers).is_none() {
            st.stats.waits += 1;
            weseer_obs::incr("db.lock.waits");
            timeline_lock_event("db.lock.wait", txn, || {
                [
                    ("target", format!("{target:?}")),
                    ("mode", format!("{mode:?}")),
                ]
            });
        }
        publish_waitfor(st);
        Ok(AcquireOutcome::WouldBlock(on))
    }

    /// Acquire `mode` on `target` for `txn`, blocking until granted: the
    /// [`LockManager::acquire_nowait`] decision, re-run after every wakeup
    /// of the condition-variable wait. This method owns only the timeout.
    ///
    /// Returns [`DbError::Deadlock`] (with the concrete waits-for cycle)
    /// when granting would require waiting inside a hold-and-wait cycle,
    /// and [`DbError::LockWaitTimeout`] after `wait_timeout`, with the
    /// waits-for edge cleared. In both cases the caller must roll the
    /// transaction back.
    pub fn acquire(&self, txn: TxnId, target: &LockTarget, mode: LockMode) -> Result<(), DbError> {
        let start = Instant::now();
        let deadline = start + self.wait_timeout;
        let mut st = self.state.lock();
        let mut waited = false;
        while let AcquireOutcome::WouldBlock(_) = self.decide(&mut st, txn, target, mode)? {
            waited = true;
            if self.cond.wait_until(&mut st, deadline).timed_out() {
                st.waiting_for.remove(&txn);
                st.stats.timeouts += 1;
                weseer_obs::incr("db.lock.timeouts");
                publish_waitfor(&st);
                return Err(DbError::LockWaitTimeout);
            }
        }
        if waited {
            weseer_obs::observe_duration("db.lock.wait_us", start.elapsed());
        }
        Ok(())
    }

    /// Acquire without ever sleeping: grant, or *record the waits-for
    /// edge* and return [`AcquireOutcome::WouldBlock`], or detect that
    /// waiting would close a cycle and return [`DbError::Deadlock`].
    ///
    /// A blocked request leaves the transaction's waits-for edge in
    /// place, so a later request by another transaction sees it and
    /// deadlocks *instantly and deterministically* — no timeouts, no
    /// condition-variable races. The replay engine's schedule explorer is
    /// built on this, and the blocking [`LockManager::acquire`] is this
    /// decision in a wait loop. The edge is cleared when the lock is
    /// eventually granted, on a timeout, or when the transaction releases
    /// via [`LockManager::release_all`].
    pub fn acquire_nowait(
        &self,
        txn: TxnId,
        target: &LockTarget,
        mode: LockMode,
    ) -> Result<AcquireOutcome, DbError> {
        self.decide(&mut self.state.lock(), txn, target, mode)
    }

    /// Sorted snapshot of the current waits-for edges
    /// `(waiter, holder it waits on)` — consumed by the replay engine's
    /// witnesses; `/waitfor` gets the same set on every change.
    pub fn wait_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        self.state.lock().edges_snapshot()
    }

    /// Release every lock of `txn` (commit or rollback) and wake waiters.
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        if let Some(targets) = st.held_by.remove(&txn) {
            for t in targets {
                if let Some(holders) = st.granted.get_mut(&t) {
                    holders.retain(|(h, _)| *h != txn);
                    if holders.is_empty() {
                        st.granted.remove(&t);
                    }
                }
            }
        }
        st.waiting_for.remove(&txn);
        timeline_lock_event("db.lock.release", txn, || []);
        publish_waitfor(&st);
        self.cond.notify_all();
    }

    /// Locks currently held by `txn` (tests and diagnostics); a target
    /// appears once per mode held on it.
    pub fn held(&self, txn: TxnId) -> Vec<(LockTarget, LockMode)> {
        let st = self.state.lock();
        st.held_by
            .get(&txn)
            .into_iter()
            .flatten()
            .flat_map(|t| {
                st.granted
                    .get(t)
                    .into_iter()
                    .flatten()
                    .filter(|(h, _)| *h == txn)
                    .map(|(_, m)| (t.clone(), *m))
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use weseer_sqlir::Value;

    fn row(k: i64) -> LockTarget {
        LockTarget::Row {
            table: "T".into(),
            index: "PRIMARY".into(),
            key: vec![Value::Int(k)],
        }
    }

    fn gap(upper: i64) -> LockTarget {
        LockTarget::Gap {
            table: "T".into(),
            index: "PRIMARY".into(),
            upper: KeyBound::Key(vec![Value::Int(upper)]),
        }
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), &row(1), LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), &row(1), LockMode::Shared).unwrap();
        assert_eq!(lm.held(TxnId(1)).len(), 1);
        assert_eq!(lm.held(TxnId(2)).len(), 1);
    }

    #[test]
    fn exclusive_blocks_then_releases() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire_nowait(TxnId(2), &row(1), LockMode::Shared),
            Ok(AcquireOutcome::WouldBlock(vec![TxnId(1)]))
        );
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.acquire(TxnId(2), &row(1), LockMode::Shared));
        thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        // The blocking acquire re-decided the request behind the edge the
        // probe recorded: one wait, and the edge is gone with the grant.
        assert_eq!(lm.stats().waits, 1);
        assert!(lm.wait_for_edges().is_empty());
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), &row(1), LockMode::Shared).unwrap();
        lm.acquire(TxnId(1), &row(1), LockMode::Shared).unwrap();
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        let held = lm.held(TxnId(1));
        assert!(held.iter().any(|(_, m)| *m == LockMode::Exclusive));
        // The upgraded row is still blocked for others.
        assert_eq!(
            lm.acquire_nowait(TxnId(2), &row(1), LockMode::Shared),
            Ok(AcquireOutcome::WouldBlock(vec![TxnId(1)]))
        );
    }

    #[test]
    fn gap_locks_are_mutually_compatible() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), &gap(10), LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), &gap(10), LockMode::Exclusive).unwrap();
        // But insert intention by a third party must wait.
        assert_eq!(
            lm.acquire_nowait(TxnId(3), &gap(10), LockMode::InsertIntention),
            Ok(AcquireOutcome::WouldBlock(vec![TxnId(1), TxnId(2)]))
        );
        // Even a gap holder is blocked by the *other* holder's gap lock —
        // this mutual blocking is exactly how the Table-II deadlocks form.
        assert_eq!(
            lm.acquire_nowait(TxnId(1), &gap(10), LockMode::InsertIntention),
            Ok(AcquireOutcome::WouldBlock(vec![TxnId(2)]))
        );
        // A txn holding the only gap lock may insert through it.
        lm.release_all(TxnId(2));
        assert_eq!(
            lm.acquire_nowait(TxnId(1), &gap(10), LockMode::InsertIntention),
            Ok(AcquireOutcome::Granted)
        );
    }

    #[test]
    fn insert_intentions_are_compatible() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), &gap(10), LockMode::InsertIntention)
            .unwrap();
        assert_eq!(
            lm.acquire_nowait(TxnId(2), &gap(10), LockMode::InsertIntention),
            Ok(AcquireOutcome::Granted)
        );
        // Gap locks never wait, even with an II present (InnoDB).
        assert_eq!(
            lm.acquire_nowait(TxnId(3), &gap(10), LockMode::Shared),
            Ok(AcquireOutcome::Granted)
        );
    }

    #[test]
    fn two_txn_deadlock_detected() {
        // T1: X(r1) then wants X(r2); T2: X(r2) then wants X(r1).
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), &row(2), LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            // T1 blocks on r2.
            lm2.acquire(TxnId(1), &row(2), LockMode::Exclusive)
        });
        thread::sleep(Duration::from_millis(50));
        // T2 requesting r1 closes the cycle → T2 is the victim, and the
        // error names the concrete cycle T2 → T1 → T2.
        let r = lm.acquire(TxnId(2), &row(1), LockMode::Exclusive);
        assert_eq!(
            r,
            Err(DbError::Deadlock {
                cycle: vec![TxnId(2), TxnId(1)],
                target: row(1),
            })
        );
        lm.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        lm.release_all(TxnId(1));
        assert_eq!(lm.stats().deadlocks, 1);
    }

    #[test]
    fn classic_gap_insert_deadlock() {
        // The paper's d1-style deadlock: both transactions hold a gap lock,
        // both try to insert into it.
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.acquire(TxnId(1), &gap(100), LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), &gap(100), LockMode::Shared).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.acquire(TxnId(1), &gap(100), LockMode::InsertIntention));
        thread::sleep(Duration::from_millis(50));
        let r = lm.acquire(TxnId(2), &gap(100), LockMode::InsertIntention);
        assert!(matches!(r, Err(DbError::Deadlock { .. })));
        lm.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        lm.release_all(TxnId(1));
    }

    #[test]
    fn three_txn_cycle_detected() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), &row(2), LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(3), &row(3), LockMode::Exclusive).unwrap();
        let lm1 = lm.clone();
        let h1 = thread::spawn(move || lm1.acquire(TxnId(1), &row(2), LockMode::Exclusive));
        let lm2 = lm.clone();
        let h2 = thread::spawn(move || lm2.acquire(TxnId(2), &row(3), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(80));
        let r = lm.acquire(TxnId(3), &row(1), LockMode::Exclusive);
        assert_eq!(
            r,
            Err(DbError::Deadlock {
                cycle: vec![TxnId(3), TxnId(1), TxnId(2)],
                target: row(1),
            })
        );
        lm.release_all(TxnId(3));
        h2.join().unwrap().unwrap();
        lm.release_all(TxnId(2));
        h1.join().unwrap().unwrap();
        lm.release_all(TxnId(1));
    }

    #[test]
    fn timeout_fires() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        let r = lm.acquire(TxnId(2), &row(1), LockMode::Exclusive);
        assert_eq!(r, Err(DbError::LockWaitTimeout));
        assert_eq!(lm.stats().timeouts, 1);
    }

    #[test]
    fn release_clears_everything() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(1), &gap(5), LockMode::Shared).unwrap();
        assert_eq!(lm.held(TxnId(1)).len(), 2);
        lm.release_all(TxnId(1));
        assert!(lm.held(TxnId(1)).is_empty());
        assert_eq!(
            lm.acquire_nowait(TxnId(2), &row(1), LockMode::Exclusive),
            Ok(AcquireOutcome::Granted)
        );
    }

    #[test]
    fn nowait_records_edges_and_detects_cycles_without_threads() {
        // The same two-txn deadlock as above, but entirely single-threaded
        // through the nowait path — the foundation of deterministic replay.
        let lm = LockManager::default();
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), &row(2), LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire_nowait(TxnId(1), &row(2), LockMode::Exclusive),
            Ok(AcquireOutcome::WouldBlock(vec![TxnId(2)]))
        );
        assert_eq!(lm.wait_for_edges(), vec![(TxnId(1), TxnId(2))]);
        // A repeat attempt is idempotent (no double wait counting).
        let waits = lm.stats().waits;
        assert_eq!(
            lm.acquire_nowait(TxnId(1), &row(2), LockMode::Exclusive),
            Ok(AcquireOutcome::WouldBlock(vec![TxnId(2)]))
        );
        assert_eq!(lm.stats().waits, waits);
        // T2 closing the cycle deadlocks instantly, no other threads.
        let r = lm.acquire_nowait(TxnId(2), &row(1), LockMode::Exclusive);
        assert_eq!(
            r,
            Err(DbError::Deadlock {
                cycle: vec![TxnId(2), TxnId(1)],
                target: row(1),
            })
        );
        assert_eq!(lm.stats().deadlocks, 1);
        // The victim's rollback clears its locks; T1's edge resolves once
        // it re-attempts and is granted.
        lm.release_all(TxnId(2));
        assert_eq!(
            lm.acquire_nowait(TxnId(1), &row(2), LockMode::Exclusive),
            Ok(AcquireOutcome::Granted)
        );
        assert!(lm.wait_for_edges().is_empty());
    }

    #[test]
    fn deadlock_then_timeout_on_the_same_edge() {
        // T2 blocks on the edge T2 → T1; T1 then closes a cycle through
        // that same edge and is aborted as the victim, but keeps its
        // locks (the caller has not rolled back yet), so T2's wait on the
        // very same edge subsequently times out. Both counters must fire
        // and the manager must stay consistent.
        let lm = Arc::new(LockManager::new(Duration::from_millis(150)));
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), &row(2), LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.acquire(TxnId(2), &row(1), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(40));
        // Closing the cycle: T1 is the victim and errors instantly …
        let r = lm.acquire(TxnId(1), &row(2), LockMode::Exclusive);
        assert_eq!(
            r,
            Err(DbError::Deadlock {
                cycle: vec![TxnId(1), TxnId(2)],
                target: row(2),
            })
        );
        // … but T1 deliberately does not release, so T2's wait on the
        // same edge runs into the timeout backstop.
        assert_eq!(h.join().unwrap(), Err(DbError::LockWaitTimeout));
        let stats = lm.stats();
        assert_eq!(stats.deadlocks, 1);
        assert_eq!(stats.timeouts, 1);
        // Once both roll back, the rows are free again.
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(2));
        assert_eq!(
            lm.acquire_nowait(TxnId(3), &row(1), LockMode::Exclusive),
            Ok(AcquireOutcome::Granted)
        );
        assert_eq!(
            lm.acquire_nowait(TxnId(3), &row(2), LockMode::Exclusive),
            Ok(AcquireOutcome::Granted)
        );
    }

    #[test]
    fn timeout_clears_edge_so_no_stale_cycle() {
        // A timed-out waiter must remove its waits-for edge; otherwise a
        // later request in the opposite direction would see a phantom
        // cycle and abort a perfectly healthy transaction.
        let lm = LockManager::new(Duration::from_millis(40));
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        let r = lm.acquire(TxnId(2), &row(1), LockMode::Exclusive);
        assert_eq!(r, Err(DbError::LockWaitTimeout));
        assert!(lm.wait_for_edges().is_empty());
        // T2 holds r2 now; T1 requesting it must block, not deadlock —
        // the stale T2 → T1 edge is gone.
        lm.acquire(TxnId(2), &row(2), LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire_nowait(TxnId(1), &row(2), LockMode::Exclusive),
            Ok(AcquireOutcome::WouldBlock(vec![TxnId(2)]))
        );
        assert_eq!(lm.stats().deadlocks, 0);
    }

    #[test]
    fn nowait_victim_first_cycle_ordering_under_concurrent_release() {
        // Two cycles through the victim at once: T2 and T3 both hold the
        // gap and both wait on T1's row, so T1's insert intention closes
        // T1→T2→T1 *and* T1→T3→T1. The reported cycle must start with
        // the victim and pick blockers in ascending TxnId order.
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), &gap(100), LockMode::Shared).unwrap();
        lm.acquire(TxnId(3), &gap(100), LockMode::Shared).unwrap();
        assert_eq!(
            lm.acquire_nowait(TxnId(2), &row(1), LockMode::Exclusive),
            Ok(AcquireOutcome::WouldBlock(vec![TxnId(1)]))
        );
        assert_eq!(
            lm.acquire_nowait(TxnId(3), &row(1), LockMode::Exclusive),
            Ok(AcquireOutcome::WouldBlock(vec![TxnId(1)]))
        );
        let r = lm.acquire_nowait(TxnId(1), &gap(100), LockMode::InsertIntention);
        assert_eq!(
            r,
            Err(DbError::Deadlock {
                cycle: vec![TxnId(1), TxnId(2)],
                target: gap(100),
            })
        );
        // T2 releases from another thread; once it is gone the remaining
        // cycle runs through T3, and the re-detected cycle is again
        // victim-first and deterministic.
        let lm2 = lm.clone();
        thread::spawn(move || lm2.release_all(TxnId(2)))
            .join()
            .unwrap();
        let r = lm.acquire_nowait(TxnId(1), &gap(100), LockMode::InsertIntention);
        assert_eq!(
            r,
            Err(DbError::Deadlock {
                cycle: vec![TxnId(1), TxnId(3)],
                target: gap(100),
            })
        );
        assert_eq!(lm.stats().deadlocks, 2);
        // After every participant rolls back, the gap is insertable.
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(3));
        assert_eq!(
            lm.acquire_nowait(TxnId(4), &gap(100), LockMode::InsertIntention),
            Ok(AcquireOutcome::Granted)
        );
    }

    #[test]
    fn different_targets_do_not_conflict() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), &row(1), LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire_nowait(TxnId(2), &row(2), LockMode::Exclusive),
            Ok(AcquireOutcome::Granted)
        );
        let t = LockTarget::Table { table: "U".into() };
        assert_eq!(
            lm.acquire_nowait(TxnId(2), &t, LockMode::Exclusive),
            Ok(AcquireOutcome::Granted)
        );
    }
}
