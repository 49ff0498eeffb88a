//! # weseer-db
//!
//! An in-memory, multi-threaded storage engine with InnoDB-style locking —
//! the MySQL 5.7 stand-in for the WeSEER reproduction.
//!
//! Features relevant to the paper:
//!
//! * strict two-phase locking with **row**, **gap**, **next-key**,
//!   **insert-intention**, and **table** locks acquired during index
//!   traversal (Sec. V-C's lock model, executed for real);
//! * **detect-and-recover** deadlock handling: waits-for cycle detection on
//!   every lock request that must wait, victim abort with full transaction
//!   rollback (Sec. II-A) plus a lock-wait timeout backstop; threaded
//!   sessions and the replay engine's non-blocking step decide each
//!   request in the same code ([`lock`]);
//! * B-tree primary and secondary indexes with PK-suffixed secondary keys;
//! * abort/commit/lock-wait statistics for the Fig. 10/11 throughput and
//!   aborts-per-second experiments.
//!
//! * **MVCC version chains with selectable isolation levels**
//!   ([`mvcc`]): every commit installs the transaction's net row effects
//!   as timestamped versions, and sessions opened at `read-committed`,
//!   `repeatable-read`, or `snapshot` turn plain SELECTs into lock-free
//!   snapshot reads (writes stay current reads under 2PL, like InnoDB).
//!   A runtime oracle ([`anomaly`]) reports the weak-isolation anomalies
//!   this enables — lost updates, write skew, read fractures — and
//!   snapshot isolation aborts stale overwrites with
//!   [`DbError::WriteConflict`] (first-updater-wins).
//!
//! The default isolation level is **serializable**: strict 2PL with shared
//! locks on plain SELECTs, matching the locking model WeSEER's analyzer
//! assumes (Alg. 2) and making the 18 Table-II deadlock patterns actually
//! reproducible in-process. Every pre-MVCC behavior, report, and witness
//! is byte-identical at the default level.
//!
//! ```
//! use weseer_db::Database;
//! use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder, Value};
//!
//! let catalog = Catalog::new(vec![TableBuilder::new("Product")
//!     .col("ID", ColType::Int)
//!     .col("QTY", ColType::Int)
//!     .primary_key(&["ID"])
//!     .build()
//!     .unwrap()])
//! .unwrap();
//! let db = Database::new(catalog);
//! db.seed("Product", vec![vec![Value::Int(1), Value::Int(10)]]);
//!
//! let mut session = db.session();
//! session.begin();
//! let q = parse("SELECT * FROM Product p WHERE p.ID = ?").unwrap();
//! let r = session.execute(&q, &[Value::Int(1)]).unwrap();
//! assert_eq!(r.rows.len(), 1);
//! session.commit().unwrap();
//! ```

pub mod anomaly;
pub mod database;
pub mod exec;
pub mod lock;
pub mod mvcc;
pub mod storage;
pub mod types;

pub use anomaly::{AnomalyEvent, AnomalyKind, AnomalyTracker};
pub use database::{Database, DbStats, Session};
pub use exec::{ExecData, ExplainRow, MvccCtx, StepResult};
pub use lock::{AcquireOutcome, LockManager, LockMode, LockStats, LockTarget};
pub use mvcc::{IsolationLevel, VersionStore};
pub use storage::{Row, Storage};
pub use types::{DbError, KeyBound, KeyTuple, RowId, TxnId};
