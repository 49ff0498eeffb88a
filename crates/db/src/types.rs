//! Core identifiers and key types for the storage engine.

use crate::lock::LockTarget;
use std::fmt;
use weseer_sqlir::Value;

/// A transaction identifier; monotonically increasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Internal row identifier within a table (never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// An index key: the indexed column values, in key order. Secondary index
/// keys are suffixed with the primary-key values to make entries unique
/// (InnoDB's physical layout).
pub type KeyTuple = Vec<Value>;

/// The upper boundary of a B-tree gap: the key the gap precedes, or the
/// index supremum (InnoDB's "gap before the supremum pseudo-record").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyBound {
    /// Gap immediately before this existing key.
    Key(KeyTuple),
    /// Gap after the last key.
    Supremum,
}

impl fmt::Display for KeyBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyBound::Key(k) => {
                write!(f, "<")?;
                for (i, v) in k.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">")
            }
            KeyBound::Supremum => write!(f, "<sup>"),
        }
    }
}

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// This transaction was chosen as a deadlock victim and rolled back.
    /// Carries the waits-for cycle that was closed, starting and ending at
    /// the victim: `cycle[0]` waits on `cycle[1]`, …, and the last entry
    /// waits back on `cycle[0]`.
    Deadlock {
        /// The waits-for cycle (victim first; implicitly closed).
        cycle: Vec<TxnId>,
        /// The lock the victim requested when waiting would have closed
        /// the cycle.
        target: LockTarget,
    },
    /// Waited longer than the configured lock-wait timeout; the
    /// transaction was rolled back (MySQL's detect-or-timeout recovery).
    LockWaitTimeout,
    /// Under snapshot isolation the transaction tried to overwrite a row
    /// version committed after its snapshot (first-updater-wins); the
    /// transaction was rolled back (PostgreSQL's "could not serialize
    /// access due to concurrent update").
    WriteConflict {
        /// Table holding the conflicting row.
        table: String,
    },
    /// Unique-key violation.
    DuplicateKey {
        /// Violated index.
        index: String,
    },
    /// Statement used outside of a transaction.
    NoTransaction,
    /// Statement shape not supported by the engine.
    Unsupported(String),
    /// Schema-level problem (unknown table/column, arity mismatch).
    Schema(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Deadlock { cycle, .. } => {
                write!(
                    f,
                    "deadlock found when trying to get lock; transaction rolled back"
                )?;
                if !cycle.is_empty() {
                    write!(f, " (cycle: ")?;
                    for t in cycle {
                        write!(f, "{t} -> ")?;
                    }
                    write!(f, "{})", cycle[0])?;
                }
                Ok(())
            }
            DbError::LockWaitTimeout => write!(f, "lock wait timeout exceeded"),
            DbError::WriteConflict { table } => {
                write!(
                    f,
                    "could not serialize access due to concurrent update on {table}; \
                     transaction rolled back"
                )
            }
            DbError::DuplicateKey { index } => {
                write!(f, "duplicate entry for index {index:?}")
            }
            DbError::NoTransaction => write!(f, "no active transaction"),
            DbError::Unsupported(s) => write!(f, "unsupported statement: {s}"),
            DbError::Schema(s) => write!(f, "schema error: {s}"),
        }
    }
}

impl std::error::Error for DbError {}

impl DbError {
    /// Whether this error implies the transaction was rolled back by the
    /// engine (abort-style recovery).
    pub fn aborts_txn(&self) -> bool {
        matches!(
            self,
            DbError::Deadlock { .. } | DbError::LockWaitTimeout | DbError::WriteConflict { .. }
        )
    }

    /// The waits-for cycle of a deadlock error, if any.
    pub fn deadlock_cycle(&self) -> Option<&[TxnId]> {
        match self {
            DbError::Deadlock { cycle, .. } => Some(cycle),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(TxnId(3).to_string().contains('3'));
        assert!(KeyBound::Supremum.to_string().contains("sup"));
        assert!(KeyBound::Key(vec![Value::Int(1), Value::str("a")])
            .to_string()
            .contains("1,'a'"));
        let target = LockTarget::Table { table: "T".into() };
        let dl = DbError::Deadlock {
            cycle: vec![TxnId(2), TxnId(1)],
            target,
        };
        assert!(dl.to_string().contains("deadlock"));
        assert!(dl.to_string().contains("txn#2 -> txn#1 -> txn#2"));
    }

    #[test]
    fn abort_classification() {
        let target = LockTarget::Table { table: "T".into() };
        let dl = DbError::Deadlock {
            cycle: vec![],
            target,
        };
        assert!(dl.aborts_txn());
        assert_eq!(dl.deadlock_cycle(), Some(&[][..]));
        assert!(DbError::LockWaitTimeout.aborts_txn());
        let wc = DbError::WriteConflict {
            table: "Account".into(),
        };
        assert!(wc.aborts_txn());
        assert!(wc.to_string().contains("concurrent update on Account"));
        assert!(!DbError::DuplicateKey {
            index: "PRIMARY".into()
        }
        .aborts_txn());
        assert!(!DbError::NoTransaction.aborts_txn());
    }
}
