//! Phase 1 as an explicit *pair generator*.
//!
//! The transaction-level filter (paper Sec. V-B) keeps only transaction
//! pairs that write a commonly accessed table. Instead of testing the
//! predicate inside an O(n²) quadruple loop, [`generate_pairs`] builds the
//! transaction-level conflict graph once — a table → accessors/writers
//! index over every `(trace, txn)` unit — and emits exactly the conflicting
//! pairs, in canonical order. Pruned pairs are never enumerated downstream.
//!
//! Canonical order is the legacy loop order — lexicographic
//! `(a, b, a_txn, b_txn)` — which the deterministic scheduler's ordered
//! merge relies on. [`PairJob`]'s derived `Ord` encodes it, so keep the
//! field declaration order.

use crate::diagnose::CollectedTrace;
use std::collections::{BTreeMap, BTreeSet};
use weseer_concolic::Trace;

/// One unit of phase-2/3 work: transaction `a_txn` of trace `a` paired
/// with transaction `b_txn` of trace `b` (two concurrent API instances).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairJob {
    /// First trace index (`a <= b`).
    pub a: usize,
    /// Second trace index.
    pub b: usize,
    /// Transaction within trace `a`.
    pub a_txn: usize,
    /// Transaction within trace `b` (`a_txn <= b_txn` when `a == b`).
    pub b_txn: usize,
}

impl PairJob {
    /// Both sides are the same transaction of the same trace (the two
    /// concurrent instances run identical code), so symmetric cycles are
    /// deduplicated during the scan.
    pub fn same_instance(&self) -> bool {
        self.a == self.b && self.a_txn == self.b_txn
    }
}

/// Output of the generator: the surviving pairs plus the size of the full
/// pair space they were drawn from.
#[derive(Debug)]
pub struct PairSet {
    /// Conflicting pairs in canonical `(a, b, a_txn, b_txn)` order.
    pub jobs: Vec<PairJob>,
    /// Total unordered transaction pairs (incl. self-pairs) the legacy
    /// enumeration would have examined — the funnel's `txn_pairs` stage.
    pub total: usize,
}

impl PairSet {
    /// Pairs removed by the transaction-level filter.
    pub fn pruned(&self) -> usize {
        self.total - self.jobs.len()
    }
}

/// Tables accessed and written by one transaction of a trace.
pub(crate) fn txn_tables(trace: &Trace, txn: usize) -> (Vec<String>, Vec<String>) {
    let mut accessed = Vec::new();
    let mut written = Vec::new();
    for s in trace.statements_of(txn) {
        for t in s.stmt.tables() {
            if !accessed.contains(&t) {
                accessed.push(t);
            }
        }
        if let Some(w) = s.stmt.written_table() {
            if !written.contains(&w.to_string()) {
                written.push(w.to_string());
            }
        }
    }
    (accessed, written)
}

/// Build the phase-1 pair set. With `skip_filter` every pair of the space
/// is yielded (the brute-force baseline of Sec. V-B).
pub fn generate_pairs(traces: &[CollectedTrace], skip_filter: bool) -> PairSet {
    // Units: every (trace, txn), flattened.
    let units: Vec<(usize, usize)> = traces
        .iter()
        .enumerate()
        .flat_map(|(i, t)| (0..t.trace.txns.len()).map(move |x| (i, x)))
        .collect();
    let total = units.len() * (units.len() + 1) / 2;

    let job_of = |u: (usize, usize), v: (usize, usize)| {
        let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
        PairJob {
            a: lo.0,
            b: hi.0,
            a_txn: lo.1,
            b_txn: hi.1,
        }
    };

    if skip_filter {
        let mut jobs = Vec::with_capacity(total);
        for (i, &u) in units.iter().enumerate() {
            for &v in &units[i..] {
                jobs.push(job_of(u, v));
            }
        }
        jobs.sort_unstable();
        return PairSet { jobs, total };
    }

    // Conflict graph, built once: table → (accessor units, writer units).
    let mut by_table: BTreeMap<String, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (uid, &(i, x)) in units.iter().enumerate() {
        let (accessed, written) = txn_tables(&traces[i].trace, x);
        // The filter predicate needs the conflict table *accessed* by both
        // sides, so a write to a never-read table only counts if the
        // statement's table set covers it too (it always does for SQL we
        // emit, but keep the graph faithful to the predicate).
        for t in &written {
            if accessed.contains(t) {
                by_table.entry(t.clone()).or_default().1.push(uid);
            }
        }
        for t in accessed {
            by_table.entry(t).or_default().0.push(uid);
        }
    }

    // A pair conflicts iff some table is accessed by both and written by
    // at least one — i.e. it joins a writer with an accessor (possibly the
    // same unit: a self-pair of two concurrent instances of one writing
    // transaction).
    let mut set: BTreeSet<PairJob> = BTreeSet::new();
    for (accessors, writers) in by_table.values() {
        for &w in writers {
            for &u in accessors {
                set.insert(job_of(units[w], units[u]));
            }
        }
    }
    PairSet {
        jobs: set.into_iter().collect(),
        total,
    }
}
