//! The statement AST for the SQL subset WeSEER supports (paper Fig. 6):
//!
//! ```text
//! SELECT ... FROM tab alias [JOIN tab alias ON ...]* WHERE ...
//! UPDATE tab SET col = ... [, col = ...]* WHERE ...
//! INSERT INTO tab VALUES (param, ..., param)
//! DELETE FROM tab WHERE ...
//! ```
//!
//! Query conditions follow Fig. 7: conjunctions/disjunctions over comparison
//! terms whose operands are table columns (`alias.col`), SQL parameters
//! (`?`), or literals.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators (`NumOp`/`StrOp` in Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluate against a comparison result.
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A scalar operand in a condition or assignment (Fig. 7's `var`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// `alias.column` — a table column reference.
    Column {
        /// Table alias introduced in FROM/JOIN (or the table name itself
        /// for UPDATE/DELETE without aliases).
        alias: String,
        /// Column name.
        column: String,
    },
    /// `?` — the n-th SQL parameter of the statement (0-based).
    Param(usize),
    /// A literal constant.
    Const(Value),
}

impl Operand {
    /// Shorthand column constructor.
    pub fn col(alias: impl Into<String>, column: impl Into<String>) -> Self {
        Operand::Column {
            alias: alias.into(),
            column: column.into(),
        }
    }

    /// Whether this operand is a column of the given alias.
    pub fn is_column_of(&self, a: &str) -> bool {
        matches!(self, Operand::Column { alias, .. } if alias == a)
    }

    /// The column name if this operand references a column.
    pub fn column_name(&self) -> Option<&str> {
        match self {
            Operand::Column { column, .. } => Some(column),
            _ => None,
        }
    }
}

/// A binary comparison predicate (`Exp` in Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pred {
    /// Left operand.
    pub lhs: Operand,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Operand,
}

impl Pred {
    /// Construct a predicate.
    pub fn new(lhs: Operand, op: CmpOp, rhs: Operand) -> Self {
        Pred { lhs, op, rhs }
    }

    /// Equality shorthand.
    pub fn eq(lhs: Operand, rhs: Operand) -> Self {
        Pred::new(lhs, CmpOp::Eq, rhs)
    }

    /// The predicate normalized so that if exactly one side is a column of
    /// `alias`, it appears on the left.
    pub fn oriented_for(&self, alias: &str) -> Pred {
        if !self.lhs.is_column_of(alias) && self.rhs.is_column_of(alias) {
            Pred {
                lhs: self.rhs.clone(),
                op: self.op.flip(),
                rhs: self.lhs.clone(),
            }
        } else {
            self.clone()
        }
    }
}

/// A leaf term of a query condition (Fig. 7's `Term`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Binary comparison.
    Cmp(Pred),
    /// `id IS NULL`.
    IsNull(Operand),
    /// `id IS NOT NULL`.
    NotNull(Operand),
}

/// A query condition: the boolean combination grammar of Fig. 7.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cond {
    /// A leaf term.
    Term(Term),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
}

impl Cond {
    /// Leaf comparison shorthand.
    pub fn cmp(lhs: Operand, op: CmpOp, rhs: Operand) -> Cond {
        Cond::Term(Term::Cmp(Pred::new(lhs, op, rhs)))
    }

    /// Equality shorthand.
    pub fn eq(lhs: Operand, rhs: Operand) -> Cond {
        Cond::cmp(lhs, CmpOp::Eq, rhs)
    }

    /// `self AND other`.
    pub fn and(self, other: Cond) -> Cond {
        Cond::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Cond) -> Cond {
        Cond::Or(Box::new(self), Box::new(other))
    }

    /// Conjoin an iterator of conditions; `None` when empty.
    pub fn conjoin(conds: impl IntoIterator<Item = Cond>) -> Option<Cond> {
        conds.into_iter().reduce(Cond::and)
    }

    /// Split the top-level conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Cond> {
        let mut out = Vec::new();
        fn walk<'a>(c: &'a Cond, out: &mut Vec<&'a Cond>) {
            match c {
                Cond::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// The top-level conjuncts that are plain comparison predicates.
    /// These are the "predicates" the index-usage analysis consumes
    /// (disjunctive conjuncts belong to `Ncond` and never drive an index).
    pub fn top_predicates(&self) -> Vec<&Pred> {
        self.conjuncts()
            .into_iter()
            .filter_map(|c| match c {
                Cond::Term(Term::Cmp(p)) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// Every operand mentioned anywhere in the condition.
    pub fn operands(&self) -> Vec<&Operand> {
        let mut out = Vec::new();
        self.visit_terms(&mut |t| match t {
            Term::Cmp(p) => {
                out.push(&p.lhs);
                out.push(&p.rhs);
            }
            Term::IsNull(o) | Term::NotNull(o) => out.push(o),
        });
        out
    }

    /// Visit every leaf term.
    pub fn visit_terms<'a>(&'a self, f: &mut impl FnMut(&'a Term)) {
        match self {
            Cond::Term(t) => f(t),
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.visit_terms(f);
                b.visit_terms(f);
            }
        }
    }

    /// Rewrite every operand with `f`, rebuilding the condition.
    pub fn map_operands(&self, f: &mut impl FnMut(&Operand) -> Operand) -> Cond {
        match self {
            Cond::Term(Term::Cmp(p)) => Cond::Term(Term::Cmp(Pred {
                lhs: f(&p.lhs),
                op: p.op,
                rhs: f(&p.rhs),
            })),
            Cond::Term(Term::IsNull(o)) => Cond::Term(Term::IsNull(f(o))),
            Cond::Term(Term::NotNull(o)) => Cond::Term(Term::NotNull(f(o))),
            Cond::And(a, b) => Cond::And(Box::new(a.map_operands(f)), Box::new(b.map_operands(f))),
            Cond::Or(a, b) => Cond::Or(Box::new(a.map_operands(f)), Box::new(b.map_operands(f))),
        }
    }

    /// The distinct aliases referenced by column operands.
    pub fn aliases(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for op in self.operands() {
            if let Operand::Column { alias, .. } = op {
                if !out.contains(alias) {
                    out.push(alias.clone());
                }
            }
        }
        out
    }
}

/// A table reference with alias (`tab alias` in Fig. 6).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias; equals `table` when none was written.
    pub alias: String,
}

impl TableRef {
    /// A reference with an explicit alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: alias.into(),
        }
    }

    /// A reference whose alias is the table name.
    pub fn bare(table: impl Into<String>) -> Self {
        let table = table.into();
        TableRef {
            alias: table.clone(),
            table,
        }
    }
}

/// A JOIN arm.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Join {
    /// Joined table.
    pub table: TableRef,
    /// ON condition.
    pub on: Cond,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Select {
    /// FROM table.
    pub from: TableRef,
    /// JOIN arms, in order.
    pub joins: Vec<Join>,
    /// WHERE condition.
    pub where_clause: Option<Cond>,
    /// Whether the statement locks rows exclusively (`FOR UPDATE`).
    pub for_update: bool,
}

/// A `SET col = value` assignment in UPDATE.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assignment {
    /// Assigned column.
    pub column: String,
    /// New value (parameter or literal).
    pub value: Operand,
}

/// An UPDATE statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Update {
    /// Target table (alias = table name; Fig. 6 has no UPDATE aliases).
    pub table: String,
    /// SET assignments.
    pub sets: Vec<Assignment>,
    /// WHERE condition.
    pub where_clause: Option<Cond>,
}

/// An INSERT statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Inserted columns, in VALUES order (all columns when written as
    /// `INSERT INTO tab VALUES (...)`).
    pub columns: Vec<String>,
    /// Inserted values.
    pub values: Vec<Operand>,
    /// MySQL `INSERT ... ON DUPLICATE KEY UPDATE` assignments, if any.
    /// Used by fix f2 (UPSERT) in the paper's Table II.
    pub on_duplicate: Vec<Assignment>,
}

/// A DELETE statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// WHERE condition.
    pub where_clause: Option<Cond>,
}

/// Any supported statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Statement {
    /// SELECT.
    Select(Select),
    /// UPDATE.
    Update(Update),
    /// INSERT.
    Insert(Insert),
    /// DELETE.
    Delete(Delete),
}

impl Statement {
    /// Whether the statement acquires exclusive locks
    /// (writes, or `SELECT ... FOR UPDATE`).
    pub fn is_write(&self) -> bool {
        match self {
            Statement::Select(s) => s.for_update,
            _ => true,
        }
    }

    /// All `(alias, table)` pairs the statement introduces.
    pub fn alias_map(&self) -> Vec<(String, String)> {
        match self {
            Statement::Select(s) => {
                let mut v = vec![(s.from.alias.clone(), s.from.table.clone())];
                v.extend(
                    s.joins
                        .iter()
                        .map(|j| (j.table.alias.clone(), j.table.table.clone())),
                );
                v
            }
            Statement::Update(u) => vec![(u.table.clone(), u.table.clone())],
            Statement::Insert(i) => vec![(i.table.clone(), i.table.clone())],
            Statement::Delete(d) => vec![(d.table.clone(), d.table.clone())],
        }
    }

    /// The distinct table names the statement touches.
    pub fn tables(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (_, t) in self.alias_map() {
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }

    /// Aliases bound to the given table within this statement.
    pub fn aliases_of(&self, table: &str) -> Vec<String> {
        self.alias_map()
            .into_iter()
            .filter(|(_, t)| t == table)
            .map(|(a, _)| a)
            .collect()
    }

    /// The table this statement writes, if it is a write.
    pub fn written_table(&self) -> Option<&str> {
        match self {
            Statement::Select(s) if s.for_update => Some(&s.from.table),
            Statement::Select(_) => None,
            Statement::Update(u) => Some(&u.table),
            Statement::Insert(i) => Some(&i.table),
            Statement::Delete(d) => Some(&d.table),
        }
    }

    /// The full query condition: conjunction of all JOIN ON conditions and
    /// the WHERE clause (paper Sec. V-C1). For INSERT this is the equality
    /// of inserted columns and values (the paper treats INSERT query
    /// conditions as equations on the inserted row's columns).
    pub fn query_condition(&self) -> Option<Cond> {
        match self {
            Statement::Select(s) => {
                let mut conds: Vec<Cond> = s.joins.iter().map(|j| j.on.clone()).collect();
                if let Some(w) = &s.where_clause {
                    conds.push(w.clone());
                }
                Cond::conjoin(conds)
            }
            Statement::Update(u) => u.where_clause.clone(),
            Statement::Delete(d) => d.where_clause.clone(),
            Statement::Insert(i) => Cond::conjoin(
                i.columns
                    .iter()
                    .zip(&i.values)
                    .map(|(c, v)| Cond::eq(Operand::col(&i.table, c), v.clone())),
            ),
        }
    }

    /// Number of `?` parameters (max index + 1).
    pub fn param_count(&self) -> usize {
        let mut max: Option<usize> = None;
        let mut note = |o: &Operand| {
            if let Operand::Param(i) = o {
                max = Some(max.map_or(*i, |m: usize| m.max(*i)));
            }
        };
        if let Some(q) = self.query_condition() {
            for o in q.operands() {
                note(o);
            }
        }
        match self {
            Statement::Update(u) => {
                for a in &u.sets {
                    note(&a.value);
                }
            }
            Statement::Insert(i) => {
                for v in &i.values {
                    note(v);
                }
                for a in &i.on_duplicate {
                    note(&a.value);
                }
            }
            _ => {}
        }
        max.map_or(0, |m| m + 1)
    }

    /// Columns the statement modifies (UPDATE SET / INSERT columns /
    /// all columns for DELETE).
    pub fn written_columns(&self) -> Vec<String> {
        match self {
            Statement::Select(_) => Vec::new(),
            Statement::Update(u) => u.sets.iter().map(|a| a.column.clone()).collect(),
            Statement::Insert(i) => i.columns.clone(),
            Statement::Delete(_) => Vec::new(), // DELETE touches every index anyway
        }
    }
}

impl Statement {
    /// Short tag for display ("SELECT", "UPDATE", ...).
    pub fn kind(&self) -> &'static str {
        match self {
            Statement::Select(_) => "SELECT",
            Statement::Update(_) => "UPDATE",
            Statement::Insert(_) => "INSERT",
            Statement::Delete(_) => "DELETE",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q4() -> Statement {
        // SELECT * FROM OrderItem oi JOIN Order o ON o.ID = oi.O_ID
        //   JOIN Product p ON p.ID = oi.P_ID WHERE oi.O_ID = ?
        Statement::Select(Select {
            from: TableRef::aliased("OrderItem", "oi"),
            joins: vec![
                Join {
                    table: TableRef::aliased("Order", "o"),
                    on: Cond::eq(Operand::col("o", "ID"), Operand::col("oi", "O_ID")),
                },
                Join {
                    table: TableRef::aliased("Product", "p"),
                    on: Cond::eq(Operand::col("p", "ID"), Operand::col("oi", "P_ID")),
                },
            ],
            where_clause: Some(Cond::eq(Operand::col("oi", "O_ID"), Operand::Param(0))),
            for_update: false,
        })
    }

    fn q6() -> Statement {
        // UPDATE Product SET QTY = ? WHERE ID = ?
        Statement::Update(Update {
            table: "Product".into(),
            sets: vec![Assignment {
                column: "QTY".into(),
                value: Operand::Param(0),
            }],
            where_clause: Some(Cond::eq(Operand::col("Product", "ID"), Operand::Param(1))),
        })
    }

    #[test]
    fn alias_map_and_tables() {
        let s = q4();
        assert_eq!(
            s.alias_map(),
            vec![
                ("oi".to_string(), "OrderItem".to_string()),
                ("o".to_string(), "Order".to_string()),
                ("p".to_string(), "Product".to_string()),
            ]
        );
        assert_eq!(s.tables(), vec!["OrderItem", "Order", "Product"]);
        assert_eq!(s.aliases_of("Product"), vec!["p"]);
        assert!(!s.is_write());
        assert_eq!(s.written_table(), None);
    }

    #[test]
    fn update_is_write() {
        let s = q6();
        assert!(s.is_write());
        assert_eq!(s.written_table(), Some("Product"));
        assert_eq!(s.written_columns(), vec!["QTY"]);
        assert_eq!(s.param_count(), 2);
    }

    #[test]
    fn query_condition_conjoins_joins_and_where() {
        let s = q4();
        let q = s.query_condition().unwrap();
        let preds = q.top_predicates();
        assert_eq!(preds.len(), 3);
    }

    #[test]
    fn insert_condition_is_pk_equations() {
        let s = Statement::Insert(Insert {
            table: "Order".into(),
            columns: vec!["ID".into()],
            values: vec![Operand::Param(0)],
            on_duplicate: vec![],
        });
        let q = s.query_condition().unwrap();
        assert_eq!(q.top_predicates().len(), 1);
        assert_eq!(s.param_count(), 1);
        assert!(s.is_write());
    }

    #[test]
    fn cond_combinators() {
        let a = Cond::eq(Operand::col("t", "A"), Operand::Param(0));
        let b = Cond::cmp(
            Operand::col("t", "B"),
            CmpOp::Gt,
            Operand::Const(Value::Int(3)),
        );
        let c = a.clone().and(b.clone()).and(a.clone().or(b.clone()));
        assert_eq!(c.conjuncts().len(), 3);
        assert_eq!(c.top_predicates().len(), 2);
        assert_eq!(c.aliases(), vec!["t".to_string()]);
    }

    #[test]
    fn oriented_pred_flips() {
        let p = Pred::new(Operand::Param(0), CmpOp::Lt, Operand::col("t", "A"));
        let o = p.oriented_for("t");
        assert!(o.lhs.is_column_of("t"));
        assert_eq!(o.op, CmpOp::Gt);
    }

    #[test]
    fn cmp_op_algebra() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
        assert!(CmpOp::Le.eval(Ordering::Equal));
        assert!(!CmpOp::Lt.eval(Ordering::Equal));
    }

    #[test]
    fn map_operands_rewrites() {
        let c = Cond::eq(Operand::col("p", "ID"), Operand::Param(0));
        let renamed = c.map_operands(&mut |o| match o {
            Operand::Column { alias, column } if alias == "p" => {
                Operand::col("r.p", column.clone())
            }
            other => other.clone(),
        });
        assert_eq!(renamed.aliases(), vec!["r.p".to_string()]);
    }

    #[test]
    fn select_for_update_is_write() {
        let mut s = match q4() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        s.for_update = true;
        let st = Statement::Select(s);
        assert!(st.is_write());
        assert_eq!(st.written_table(), Some("OrderItem"));
    }
}
