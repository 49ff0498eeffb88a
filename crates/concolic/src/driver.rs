//! The database-driver shim (paper Sec. IV-A).
//!
//! Real WeSEER hooks JDBC: it watches (1) transaction begin/commit/abort,
//! (2) statement preparation, (3) statement submission, and (4) result
//! retrieval. [`TraceDriver`] plays that role here: it wraps any
//! [`SqlBackend`] (the in-memory storage engine in production use, or a
//! scripted stub in tests), records templates + symbolic parameters into
//! the trace, and assigns symbolic aliases (`res4.row0.p.ID`) to fetched
//! database state.

use crate::engine::{EngineRef, ExecMode, LibraryMode};
use crate::location::StackTrace;
use crate::sym::SymValue;
use crate::trace::{ResultRow, StmtRecord, Trace, TxnTrace};
use weseer_sqlir::{Statement, Value};

/// Error surfaced by a backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Human-readable cause.
    pub message: String,
    /// Whether the statement's transaction was chosen as a deadlock victim
    /// and rolled back by the database.
    pub deadlock_victim: bool,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)?;
        if self.deadlock_victim {
            write!(f, " (deadlock victim)")?;
        }
        Ok(())
    }
}

impl std::error::Error for BackendError {}

/// A statement's concrete execution result.
#[derive(Debug, Clone, Default)]
pub struct ExecResult {
    /// Result rows; each row maps `alias.column` to a value. Empty for
    /// writes.
    pub rows: Vec<Vec<(String, Value)>>,
    /// Rows affected by a write.
    pub affected: usize,
}

/// Something that can execute the supported SQL subset concretely.
pub trait SqlBackend {
    /// Begin a transaction.
    fn begin(&mut self);
    /// Execute one statement inside the current transaction.
    fn execute(&mut self, stmt: &Statement, params: &[Value]) -> Result<ExecResult, BackendError>;
    /// Commit the current transaction.
    fn commit(&mut self) -> Result<(), BackendError>;
    /// Roll back the current transaction.
    fn rollback(&mut self);
}

/// A symbolicized result set handed back to the ORM.
#[derive(Debug, Clone, Default)]
pub struct SymResultSet {
    /// Rows with concolic column values.
    pub rows: Vec<ResultRow>,
}

impl SymResultSet {
    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// The tracing driver.
#[derive(Debug)]
pub struct TraceDriver<B> {
    backend: B,
    engine: EngineRef,
    statements: Vec<StmtRecord>,
    txns: Vec<TxnTrace>,
    current_txn: Option<usize>,
    next_stmt_index: usize,
}

impl<B: SqlBackend> TraceDriver<B> {
    /// Wrap a backend.
    pub fn new(engine: EngineRef, backend: B) -> Self {
        TraceDriver {
            backend,
            engine,
            statements: Vec::new(),
            txns: Vec::new(),
            current_txn: None,
            next_stmt_index: 1,
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The engine handle.
    pub fn engine(&self) -> &EngineRef {
        &self.engine
    }

    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.current_txn.is_some()
    }

    /// Driver function kind 1: transaction begin.
    pub fn begin(&mut self) {
        assert!(
            self.current_txn.is_none(),
            "nested transactions are not supported"
        );
        self.backend.begin();
        let id = self.txns.len();
        self.txns.push(TxnTrace {
            id,
            stmt_indexes: Vec::new(),
            committed: false,
        });
        self.current_txn = Some(id);
    }

    /// Driver function kind 1: commit.
    pub fn commit(&mut self) -> Result<(), BackendError> {
        let id = self.current_txn.take().expect("commit without begin");
        let r = self.backend.commit();
        if r.is_ok() {
            self.txns[id].committed = true;
        }
        r
    }

    /// Driver function kind 1: rollback.
    pub fn rollback(&mut self) {
        let _ = self.current_txn.take().expect("rollback without begin");
        self.backend.rollback();
    }

    /// Driver function kinds 2–4: prepare, submit, and symbolicize results.
    ///
    /// `trigger` is the triggering-code stack (Sec. VI); pass `None` to use
    /// the current stack (eager operations). The ORM passes the recorded
    /// last-modification stack for write-behind flushes.
    pub fn execute(
        &mut self,
        stmt: &Statement,
        params: &[SymValue],
        trigger: Option<StackTrace>,
    ) -> Result<SymResultSet, BackendError> {
        let txn = self.current_txn.expect("statement outside a transaction");
        let concrete_params: Vec<Value> = params.iter().map(|p| p.concrete.clone()).collect();
        let result = self.backend.execute(stmt, &concrete_params)?;

        let mut engine = self.engine.borrow_mut();
        if engine.mode() == ExecMode::Native {
            // No tracing at all in the baseline mode.
            let rows = result
                .rows
                .into_iter()
                .map(|cols| ResultRow {
                    cols: cols
                        .into_iter()
                        .map(|(n, v)| (n, SymValue::concrete(v)))
                        .collect(),
                })
                .collect();
            return Ok(SymResultSet { rows });
        }

        engine.note_statement();
        let index = self.next_stmt_index;
        self.next_stmt_index += 1;
        let seq = engine.next_seq();
        let sent_at = engine.stack();
        let trigger = trigger.unwrap_or_else(|| sent_at.clone());

        // Kind 2: statement preparation. Interpreted drivers walk the SQL
        // template; unmodeled (naive) ones additionally branch per token.
        let template_len = stmt.to_string().len() as u64;
        engine.dispatch_n(template_len / 4);
        let tracking = engine.tracking();
        let naive = engine.library_mode() == LibraryMode::Naive;
        if naive && tracking {
            drop(engine);
            {
                let mut e = self.engine.borrow_mut();
                crate::builtins::naive_probe_branches(&mut e, (template_len / 4) as usize);
            }
            engine = self.engine.borrow_mut();
        }

        // Kind 4: assign symbolic aliases to fetched database state
        // (res4.row0.p.ID naming from Fig. 3).
        let mut rows = Vec::with_capacity(result.rows.len());
        for (r, cols) in result.rows.into_iter().enumerate() {
            let mut row = ResultRow::default();
            for (name, v) in cols {
                // Result parsing is interpreted library code; naive mode
                // also branches once per parsed character/digit.
                let width = (v.to_string().len() as u64).max(1);
                engine.dispatch_n(width);
                if naive && tracking {
                    drop(engine);
                    {
                        let mut e = self.engine.borrow_mut();
                        crate::builtins::naive_probe_branches(&mut e, width as usize);
                    }
                    engine = self.engine.borrow_mut();
                }
                let sym = if tracking && !v.is_null() {
                    let alias = format!("res{index}.row{r}.{name}");
                    Some(engine.make_symbolic(alias, v.clone()))
                } else {
                    None
                };
                row.cols
                    .push((name, sym.unwrap_or_else(|| SymValue::concrete(v))));
            }
            rows.push(row);
        }

        // Result-consistency conditions: every fetched row satisfies the
        // statement's query condition — the recorded result symbols
        // "reflect the database state" (Sec. III-A), so the analyzer may
        // rely on e.g. `res1.row0.e.ID = pid` for a point SELECT.
        if tracking {
            if let Some(q) = stmt.query_condition() {
                let stack = engine.stack();
                for row in &rows {
                    if let Some(t) = row_condition(&mut engine, &q, params, row) {
                        engine.record_condition(t, stack.clone());
                    }
                }
            }
        }

        let is_empty = rows.is_empty();
        let record = StmtRecord {
            index,
            seq,
            txn,
            stmt: stmt.clone(),
            params: params.to_vec(),
            rows: rows.clone(),
            is_empty,
            trigger,
            sent_at,
        };
        let pos = self.statements.len();
        self.statements.push(record);
        self.txns[txn].stmt_indexes.push(pos);
        Ok(SymResultSet { rows })
    }

    /// Finalize the trace for an API unit test, draining recorded state.
    /// The engine's execution counters are also published to the global
    /// [`weseer_obs`] registry under `concolic.*`.
    pub fn take_trace(&mut self, api: impl Into<String>) -> Trace {
        let engine = self.engine.borrow();
        let stats = engine.stats();
        weseer_obs::incr("concolic.traces");
        weseer_obs::add("concolic.statements", stats.statements as u64);
        weseer_obs::add("concolic.app_path_conds", stats.app_path_conds as u64);
        weseer_obs::add("concolic.lib_path_conds", stats.lib_path_conds as u64);
        weseer_obs::add(
            "concolic.lib_path_conds_avoided",
            stats.lib_path_conds_avoided as u64,
        );
        weseer_obs::add("concolic.sym_ops", stats.sym_ops);
        weseer_obs::add("concolic.interpreted_ops", stats.interpreted_ops);
        Trace {
            api: api.into(),
            statements: std::mem::take(&mut self.statements),
            txns: std::mem::take(&mut self.txns),
            path_conds: engine.path_conds().to_vec(),
            unique_ids: engine.unique_ids().to_vec(),
            stats,
        }
    }
}

/// Encode "this result row satisfies the statement's query condition" as
/// a term. Atoms that cannot be encoded faithfully (NULLs, unresolvable
/// operands, string orderings) make their surrounding disjunction opaque;
/// plain conjunctions simply drop the opaque atom (sound for a fact that
/// is known true).
fn row_condition(
    engine: &mut crate::engine::Engine,
    cond: &weseer_sqlir::Cond,
    params: &[SymValue],
    row: &ResultRow,
) -> Option<weseer_smt::TermId> {
    use weseer_smt::Sort;
    use weseer_sqlir::ast::Term as CondTerm;
    use weseer_sqlir::{CmpOp, Cond, Operand};

    fn operand_term(
        engine: &mut crate::engine::Engine,
        op: &Operand,
        params: &[SymValue],
        row: &ResultRow,
    ) -> Option<weseer_smt::TermId> {
        match op {
            Operand::Param(i) => {
                let p = params.get(*i)?.clone();
                engine.term_of_value(&p)
            }
            Operand::Const(v) => engine.term_of_value(&SymValue::concrete(v.clone())),
            Operand::Column { alias, column } => {
                let v = row.get(&format!("{alias}.{column}"))?.clone();
                engine.term_of_value(&v)
            }
        }
    }

    match cond {
        Cond::And(a, b) => {
            let (ta, tb) = (
                row_condition(engine, a, params, row),
                row_condition(engine, b, params, row),
            );
            match (ta, tb) {
                (Some(x), Some(y)) => Some(engine.ctx.and([x, y])),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            }
        }
        Cond::Or(a, b) => {
            let ta = row_condition(engine, a, params, row)?;
            let tb = row_condition(engine, b, params, row)?;
            Some(engine.ctx.or([ta, tb]))
        }
        Cond::Term(CondTerm::Cmp(p)) => {
            let lhs = operand_term(engine, &p.lhs, params, row)?;
            let rhs = operand_term(engine, &p.rhs, params, row)?;
            let (sl, sr) = (engine.ctx.sort(lhs).clone(), engine.ctx.sort(rhs).clone());
            let compatible = sl == sr || (sl.is_numeric() && sr.is_numeric());
            if !compatible {
                return None;
            }
            if matches!(sl, Sort::Str | Sort::Bool) && !matches!(p.op, CmpOp::Eq | CmpOp::Ne) {
                return None;
            }
            Some(match p.op {
                CmpOp::Eq => engine.ctx.eq(lhs, rhs),
                CmpOp::Ne => engine.ctx.ne(lhs, rhs),
                CmpOp::Lt => engine.ctx.lt(lhs, rhs),
                CmpOp::Le => engine.ctx.le(lhs, rhs),
                CmpOp::Gt => engine.ctx.gt(lhs, rhs),
                CmpOp::Ge => engine.ctx.ge(lhs, rhs),
            })
        }
        Cond::Term(CondTerm::IsNull(_)) | Cond::Term(CondTerm::NotNull(_)) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, ExecMode};
    use weseer_sqlir::parser::parse;

    /// A scripted backend returning canned rows.
    #[derive(Default)]
    struct StubBackend {
        rows: Vec<Vec<(String, Value)>>,
        executed: Vec<(Statement, Vec<Value>)>,
        begun: usize,
        committed: usize,
        rolled_back: usize,
    }

    impl SqlBackend for StubBackend {
        fn begin(&mut self) {
            self.begun += 1;
        }
        fn execute(
            &mut self,
            stmt: &Statement,
            params: &[Value],
        ) -> Result<ExecResult, BackendError> {
            self.executed.push((stmt.clone(), params.to_vec()));
            Ok(ExecResult {
                rows: self.rows.clone(),
                affected: 1,
            })
        }
        fn commit(&mut self) -> Result<(), BackendError> {
            self.committed += 1;
            Ok(())
        }
        fn rollback(&mut self) {
            self.rolled_back += 1;
        }
    }

    fn driver_with_rows(
        mode: ExecMode,
        rows: Vec<Vec<(String, Value)>>,
    ) -> TraceDriver<StubBackend> {
        let e = engine::shared(mode);
        e.borrow_mut().start_concolic();
        TraceDriver::new(
            e,
            StubBackend {
                rows,
                ..Default::default()
            },
        )
    }

    #[test]
    fn records_statement_with_symbolic_params() {
        let mut d = driver_with_rows(ExecMode::Concolic, vec![]);
        let stmt = parse("SELECT * FROM Order o WHERE o.ID = ?").unwrap();
        let p = d
            .engine()
            .borrow_mut()
            .make_symbolic("order_id", Value::Int(7));
        d.begin();
        let rs = d.execute(&stmt, std::slice::from_ref(&p), None).unwrap();
        assert!(rs.is_empty());
        d.commit().unwrap();
        let trace = d.take_trace("Demo");
        assert_eq!(trace.statements.len(), 1);
        let rec = &trace.statements[0];
        assert_eq!(rec.label(), "Q1");
        assert!(rec.is_empty);
        assert!(rec.params[0].is_symbolic());
        assert_eq!(rec.params[0].concrete, Value::Int(7));
        assert!(trace.txns[0].committed);
    }

    #[test]
    fn results_get_symbolic_aliases() {
        let rows = vec![vec![
            ("p.ID".to_string(), Value::Int(3)),
            ("p.QTY".to_string(), Value::Int(10)),
        ]];
        let mut d = driver_with_rows(ExecMode::Concolic, rows);
        let stmt = parse("SELECT * FROM Product p WHERE p.ID = ?").unwrap();
        d.begin();
        let rs = d.execute(&stmt, &[SymValue::concrete(3i64)], None).unwrap();
        d.commit().unwrap();
        assert_eq!(rs.len(), 1);
        let v = rs.rows[0].get("p.ID").unwrap();
        assert!(v.is_symbolic());
        let e = d.engine().borrow();
        assert_eq!(e.ctx.display(v.sym.unwrap()), "res1.row0.p.ID");
    }

    #[test]
    fn native_mode_records_nothing() {
        let rows = vec![vec![("p.ID".to_string(), Value::Int(3))]];
        let mut d = driver_with_rows(ExecMode::Native, rows);
        let stmt = parse("SELECT * FROM Product p WHERE p.ID = ?").unwrap();
        d.begin();
        let rs = d.execute(&stmt, &[SymValue::concrete(3i64)], None).unwrap();
        d.commit().unwrap();
        assert!(!rs.rows[0].get("p.ID").unwrap().is_symbolic());
        let trace = d.take_trace("Demo");
        assert!(trace.statements.is_empty());
    }

    #[test]
    fn interpretive_mode_records_but_no_symbols() {
        let rows = vec![vec![("p.ID".to_string(), Value::Int(3))]];
        let mut d = driver_with_rows(ExecMode::Interpretive, rows);
        let stmt = parse("SELECT * FROM Product p WHERE p.ID = ?").unwrap();
        d.begin();
        let rs = d.execute(&stmt, &[SymValue::concrete(3i64)], None).unwrap();
        d.commit().unwrap();
        assert!(!rs.rows[0].get("p.ID").unwrap().is_symbolic());
        let trace = d.take_trace("Demo");
        assert_eq!(trace.statements.len(), 1);
    }

    #[test]
    fn txn_boundaries_tracked() {
        let mut d = driver_with_rows(ExecMode::Concolic, vec![]);
        let stmt = parse("INSERT INTO T (A) VALUES (?)").unwrap();
        d.begin();
        d.execute(&stmt, &[SymValue::concrete(1i64)], None).unwrap();
        d.commit().unwrap();
        d.begin();
        d.execute(&stmt, &[SymValue::concrete(2i64)], None).unwrap();
        d.rollback();
        let trace = d.take_trace("Demo");
        assert_eq!(trace.txns.len(), 2);
        assert!(trace.txns[0].committed);
        assert!(!trace.txns[1].committed);
        assert_eq!(trace.statements_of(0).len(), 1);
        assert_eq!(trace.statements_of(1).len(), 1);
        assert_eq!(d.backend().begun, 2);
        assert_eq!(d.backend().committed, 1);
        assert_eq!(d.backend().rolled_back, 1);
    }

    #[test]
    #[should_panic(expected = "outside a transaction")]
    fn statement_outside_txn_panics() {
        let mut d = driver_with_rows(ExecMode::Concolic, vec![]);
        let stmt = parse("SELECT * FROM T t WHERE t.A = 1").unwrap();
        let _ = d.execute(&stmt, &[], None);
    }

    #[test]
    fn naive_mode_floods_driver_parse_branches() {
        let rows = vec![
            vec![
                ("p.ID".to_string(), Value::Int(1)),
                ("p.QTY".to_string(), Value::Int(2)),
            ],
            vec![
                ("p.ID".to_string(), Value::Int(2)),
                ("p.QTY".to_string(), Value::Int(3)),
            ],
        ];
        let mut d = driver_with_rows(ExecMode::Concolic, rows);
        d.engine().borrow_mut().set_library_mode(LibraryMode::Naive);
        let stmt = parse("SELECT * FROM Product p WHERE p.QTY > ?").unwrap();
        d.begin();
        d.execute(&stmt, &[SymValue::concrete(0i64)], None).unwrap();
        d.commit().unwrap();
        let stats = d.engine().borrow().stats();
        assert!(
            stats.lib_path_conds >= 4,
            "expected per-column parse branches"
        );
    }
}
