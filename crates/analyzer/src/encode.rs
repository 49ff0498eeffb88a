//! SMT encoding: importing trace terms into the analyzer's context and
//! generating conflict conditions (paper Alg. 3 and Fig. 9).
//!
//! Each analyzed trace instance gets a *prefix* (`A1.`, `A2.`) so that the
//! two concurrent executions of the same API have distinct symbolic inputs,
//! exactly as Fig. 9 renames `order_id` to `A1.order_id`.

use std::collections::HashMap;
use weseer_concolic::StmtRecord;
use weseer_smt::term::TermKind;
use weseer_smt::{Ctx, Sort, TermId};
use weseer_sqlir::ast::Term as CondTerm;
use weseer_sqlir::{Catalog, CmpOp, ColType, Cond, Operand, Pred, Value};

/// Imports terms from a trace's context into the analyzer context,
/// prefixing every variable name.
#[derive(Debug)]
pub struct Importer<'a> {
    src: &'a Ctx,
    prefix: String,
    memo: HashMap<TermId, TermId>,
}

impl<'a> Importer<'a> {
    /// New importer for one trace instance.
    pub fn new(src: &'a Ctx, prefix: impl Into<String>) -> Self {
        Importer {
            src,
            prefix: prefix.into(),
            memo: HashMap::new(),
        }
    }

    /// The instance prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Import a term, renaming variables `v` to `{prefix}v`.
    pub fn import(&mut self, dst: &mut Ctx, t: TermId) -> TermId {
        if let Some(&d) = self.memo.get(&t) {
            return d;
        }
        let out = match self.src.kind(t).clone() {
            TermKind::Var(name) => {
                let sort = self.src.sort(t).clone();
                dst.var(format!("{}{}", self.prefix, name), sort)
            }
            TermKind::BoolConst(b) => dst.bool_const(b),
            TermKind::NumConst(r) => {
                if self.src.sort(t) == &Sort::Int {
                    dst.int(r.floor() as i64)
                } else {
                    dst.real(r)
                }
            }
            TermKind::StrConst(s) => dst.str_const(s),
            TermKind::Add(a, b) => {
                let (ia, ib) = (self.import(dst, a), self.import(dst, b));
                dst.add(ia, ib)
            }
            TermKind::Sub(a, b) => {
                let (ia, ib) = (self.import(dst, a), self.import(dst, b));
                dst.sub(ia, ib)
            }
            TermKind::Neg(a) => {
                let ia = self.import(dst, a);
                dst.neg(ia)
            }
            TermKind::MulConst(c, a) => {
                let ia = self.import(dst, a);
                dst.mul_const(c, ia)
            }
            TermKind::Cmp(k, a, b) => {
                let (ia, ib) = (self.import(dst, a), self.import(dst, b));
                match k {
                    weseer_smt::term::CmpKind::Lt => dst.lt(ia, ib),
                    weseer_smt::term::CmpKind::Le => dst.le(ia, ib),
                }
            }
            TermKind::Eq(a, b) => {
                let (ia, ib) = (self.import(dst, a), self.import(dst, b));
                dst.eq(ia, ib)
            }
            TermKind::Not(a) => {
                let ia = self.import(dst, a);
                dst.not(ia)
            }
            TermKind::And(parts) => {
                let imported: Vec<TermId> = parts.iter().map(|&p| self.import(dst, p)).collect();
                dst.and(imported)
            }
            TermKind::Or(parts) => {
                let imported: Vec<TermId> = parts.iter().map(|&p| self.import(dst, p)).collect();
                dst.or(imported)
            }
            TermKind::Store(a, i, v) => {
                let (ia, ii, iv) = (
                    self.import(dst, a),
                    self.import(dst, i),
                    self.import(dst, v),
                );
                dst.store(ia, ii, iv)
            }
            TermKind::Select(a, i) => {
                let (ia, ii) = (self.import(dst, a), self.import(dst, i));
                dst.select(ia, ii)
            }
        };
        self.memo.insert(t, out);
        out
    }
}

/// One trace instance participating in an encoding: its statements' terms
/// are imported through `imp`.
pub struct Side<'a, 'b> {
    /// The statement.
    pub rec: &'a StmtRecord,
    /// Importer of the owning instance.
    pub imp: &'a mut Importer<'b>,
}

/// Sort of a table column.
pub fn col_sort(catalog: &Catalog, table: &str, column: &str) -> Sort {
    let ty = catalog
        .table(table)
        .and_then(|t| t.column(column))
        .map(|c| c.ty)
        .unwrap_or(ColType::Int);
    match ty {
        ColType::Int => Sort::Int,
        ColType::Float => Sort::Real,
        ColType::Str => Sort::Str,
        ColType::Bool => Sort::Bool,
    }
}

/// The SMT variable standing for column `alias.column` of the assumed
/// conflicting row `r{edge}` (Fig. 9's `r1.oi.O_ID`).
pub fn r_var(dst: &mut Ctx, edge: usize, alias: &str, column: &str, sort: Sort) -> TermId {
    dst.var(format!("r{edge}.{alias}.{column}"), sort)
}

/// Term for a constant SQL value; `None` for NULL.
pub fn value_term(dst: &mut Ctx, v: &Value) -> Option<TermId> {
    Some(match v {
        Value::Int(i) => dst.int(*i),
        Value::Float(f) => {
            let r = weseer_smt::Rat::from_f64(*f);
            dst.real(r)
        }
        Value::Str(s) => dst.str_const(s.clone()),
        Value::Bool(b) => dst.bool_const(*b),
        Value::Null => return None,
    })
}

/// Term for a statement parameter: the recorded symbolic value (imported)
/// or a constant of its concrete value.
pub fn param_term(
    dst: &mut Ctx,
    side_rec: &StmtRecord,
    imp: &mut Importer<'_>,
    i: usize,
) -> Option<TermId> {
    let p = side_rec.params.get(i)?;
    match p.sym {
        Some(t) => Some(imp.import(dst, t)),
        None => value_term(dst, &p.concrete),
    }
}

/// Convert a query condition to a term, resolving operands through
/// `resolve`. Unresolvable or NULL-involving atoms become fresh
/// unconstrained booleans (they cannot refute satisfiability).
pub fn cond_to_term(
    dst: &mut Ctx,
    cond: &Cond,
    resolve: &mut dyn FnMut(&mut Ctx, &Operand) -> Option<TermId>,
) -> TermId {
    match cond {
        Cond::And(a, b) => {
            let (ta, tb) = (cond_to_term(dst, a, resolve), cond_to_term(dst, b, resolve));
            dst.and([ta, tb])
        }
        Cond::Or(a, b) => {
            let (ta, tb) = (cond_to_term(dst, a, resolve), cond_to_term(dst, b, resolve));
            dst.or([ta, tb])
        }
        Cond::Term(CondTerm::Cmp(p)) => pred_to_term(dst, p, resolve),
        Cond::Term(CondTerm::IsNull(_)) | Cond::Term(CondTerm::NotNull(_)) => {
            dst.fresh_var("nullcheck", Sort::Bool)
        }
    }
}

fn pred_to_term(
    dst: &mut Ctx,
    p: &Pred,
    resolve: &mut dyn FnMut(&mut Ctx, &Operand) -> Option<TermId>,
) -> TermId {
    let (Some(lhs), Some(rhs)) = (resolve(dst, &p.lhs), resolve(dst, &p.rhs)) else {
        return dst.fresh_var("opaque", Sort::Bool);
    };
    // Cross-sort comparisons (schema quirks) become opaque.
    let (sl, sr) = (dst.sort(lhs).clone(), dst.sort(rhs).clone());
    let compatible = sl == sr || (sl.is_numeric() && sr.is_numeric());
    if !compatible {
        return dst.fresh_var("sortmismatch", Sort::Bool);
    }
    if matches!(sl, Sort::Str | Sort::Bool) && !matches!(p.op, CmpOp::Eq | CmpOp::Ne) {
        return dst.fresh_var("strorder", Sort::Bool);
    }
    match p.op {
        CmpOp::Eq => dst.eq(lhs, rhs),
        CmpOp::Ne => dst.ne(lhs, rhs),
        CmpOp::Lt => dst.lt(lhs, rhs),
        CmpOp::Le => dst.le(lhs, rhs),
        CmpOp::Gt => dst.gt(lhs, rhs),
        CmpOp::Ge => dst.ge(lhs, rhs),
    }
}

/// Alg. 3 `GenUnifiedCondForRead`: the reader's query condition with every
/// column reference bound to the assumed row `r{edge}`.
pub fn unified_read_cond(
    dst: &mut Ctx,
    catalog: &Catalog,
    side: &mut Side<'_, '_>,
    edge: usize,
) -> TermId {
    let Some(q) = side.rec.stmt.query_condition() else {
        return dst.bool_const(true);
    };
    let alias_map = side.rec.stmt.alias_map();
    let rec = side.rec;
    let imp = &mut *side.imp;
    cond_to_term(dst, &q, &mut |dst, op| match op {
        Operand::Column { alias, column } => {
            let table = alias_map
                .iter()
                .find(|(a, _)| a == alias)
                .map(|(_, t)| t.as_str())?;
            let sort = col_sort(catalog, table, column);
            Some(r_var(dst, edge, alias, column, sort))
        }
        Operand::Param(i) => param_term(dst, rec, imp, *i),
        Operand::Const(v) => value_term(dst, v),
    })
}

/// Alg. 3 `GenUnifiedCondForWrite`: the writer's query condition with its
/// own-table columns bound to `r{edge}.{alias_r}.…` for every alias the
/// *reader* binds to the common table, disjoined.
pub fn unified_write_cond(
    dst: &mut Ctx,
    catalog: &Catalog,
    side: &mut Side<'_, '_>,
    reader_aliases: &[String],
    common_table: &str,
    edge: usize,
) -> TermId {
    let Some(q) = side.rec.stmt.query_condition() else {
        return dst.bool_const(true);
    };
    if reader_aliases.is_empty() {
        return dst.bool_const(true);
    }
    let writer_aliases = side.rec.stmt.aliases_of(common_table);
    let mut arms = Vec::new();
    for r_alias in reader_aliases {
        let rec = side.rec;
        let imp = &mut *side.imp;
        let arm = cond_to_term(dst, &q, &mut |dst, op| match op {
            Operand::Column { alias, column } => {
                if writer_aliases.contains(alias) {
                    let sort = col_sort(catalog, common_table, column);
                    Some(r_var(dst, edge, r_alias, column, sort))
                } else {
                    // Writer references a non-common table (not produced by
                    // the supported write statements) — opaque.
                    None
                }
            }
            Operand::Param(i) => param_term(dst, rec, imp, *i),
            Operand::Const(v) => value_term(dst, v),
        });
        arms.push(arm);
    }
    dst.or(arms)
}

/// Alg. 3 `GenAssociatedCond`: the assumed row `r{edge}` matches one of the
/// reader's recorded result rows (`res4.row0.…` symbols from Fig. 3/9).
pub fn associated_cond(
    dst: &mut Ctx,
    catalog: &Catalog,
    side: &mut Side<'_, '_>,
    edge: usize,
) -> TermId {
    if side.rec.rows.is_empty() {
        return dst.bool_const(true);
    }
    let alias_map = side.rec.stmt.alias_map();
    let mut rows = Vec::new();
    for row in &side.rec.rows {
        let mut cols = Vec::new();
        for (name, v) in &row.cols {
            let Some((alias, column)) = name.split_once('.') else {
                continue;
            };
            let Some((_, table)) = alias_map.iter().find(|(a, _)| a == alias) else {
                continue;
            };
            let sort = col_sort(catalog, table, column);
            let rv = r_var(dst, edge, alias, column, sort);
            let val = match v.sym {
                Some(t) => side.imp.import(dst, t),
                None => match value_term(dst, &v.concrete) {
                    Some(t) => t,
                    None => continue, // NULL column: unconstrained
                },
            };
            // Sorts can disagree when a NULL-typed column was symbolized
            // oddly; guard like pred_to_term.
            let (sl, sr) = (dst.sort(rv).clone(), dst.sort(val).clone());
            if sl == sr || (sl.is_numeric() && sr.is_numeric()) {
                cols.push(dst.eq(rv, val));
            }
        }
        rows.push(dst.and(cols));
    }
    dst.or(rows)
}

/// Alg. 3 `GenRangeConflictCond`: enlarge a shared range lock's predicates
/// with fresh boundary variables, unified onto `r{edge}`.
pub fn range_conflict_cond(
    dst: &mut Ctx,
    catalog: &Catalog,
    side: &mut Side<'_, '_>,
    lock: &crate::locks::SymLock,
    edge: usize,
) -> TermId {
    let Some(alias) = &lock.alias else {
        return dst.bool_const(true);
    };
    let alias_map = side.rec.stmt.alias_map();
    let table = alias_map
        .iter()
        .find(|(a, _)| a == alias)
        .map(|(_, t)| t.clone())
        .unwrap_or_default();
    let varl = dst.fresh_var("varl", Sort::Int);
    let varg = dst.fresh_var("varg", Sort::Int);
    let mut parts = Vec::new();
    for p in &lock.preds {
        let Operand::Column { column, .. } = &p.lhs else {
            continue;
        };
        let sort = col_sort(catalog, &table, column);
        if sort == Sort::Str || sort == Sort::Bool {
            // Enlargement is numeric; equality on strings stays exact.
            continue;
        }
        let var = r_var(dst, edge, alias, column, sort.clone());
        let rec = side.rec;
        let imp = &mut *side.imp;
        let exp = match &p.rhs {
            Operand::Param(i) => param_term(dst, rec, imp, *i),
            Operand::Const(v) => value_term(dst, v),
            Operand::Column {
                alias: a2,
                column: c2,
            } => {
                let t2 = alias_map
                    .iter()
                    .find(|(a, _)| a == a2)
                    .map(|(_, t)| t.clone())
                    .unwrap_or_default();
                let s2 = col_sort(catalog, &t2, c2);
                Some(r_var(dst, edge, a2, c2, s2))
            }
        };
        let Some(exp) = exp else { continue };
        if !dst.sort(exp).is_numeric() {
            continue;
        }
        let t = match p.op {
            CmpOp::Eq => {
                let a = dst.ge(var, exp);
                let b = dst.le(var, exp);
                dst.and([a, b])
            }
            CmpOp::Ne => {
                let a = dst.lt(var, exp);
                let b = dst.gt(var, exp);
                dst.or([a, b])
            }
            CmpOp::Lt => {
                let a = dst.le(var, varg);
                let b = dst.le(exp, varg);
                dst.and([a, b])
            }
            CmpOp::Le => {
                let a = dst.le(var, varg);
                let b = dst.lt(exp, varg);
                dst.and([a, b])
            }
            CmpOp::Gt => {
                let a = dst.ge(var, varl);
                let b = dst.ge(exp, varl);
                dst.and([a, b])
            }
            CmpOp::Ge => {
                let a = dst.ge(var, varl);
                let b = dst.gt(exp, varl);
                dst.and([a, b])
            }
        };
        parts.push(t);
    }
    dst.and(parts)
}

/// Alg. 3 `GenConflictCond`: the full conflict condition for a C-edge where
/// `w` writes `common_table` and `r` reads (or writes) it.
pub fn gen_conflict_cond(
    dst: &mut Ctx,
    catalog: &Catalog,
    w: &mut Side<'_, '_>,
    r: &mut Side<'_, '_>,
    common_table: &str,
    edge: usize,
    use_range_locks: bool,
) -> TermId {
    let reader_aliases = r.rec.stmt.aliases_of(common_table);
    let read_c = unified_read_cond(dst, catalog, r, edge);
    let write_c = unified_write_cond(dst, catalog, w, &reader_aliases, common_table, edge);
    let assoc_c = associated_cond(dst, catalog, r, edge);
    let mut conflict = dst.and([read_c, write_c, assoc_c]);

    if use_range_locks {
        let locks_w = crate::locks::gen_exclusive_locks(&w.rec.stmt, common_table, catalog);
        let locks_r =
            crate::locks::gen_shared_locks(&r.rec.stmt, common_table, r.rec.is_empty, catalog);
        for lr in locks_r
            .iter()
            .filter(|l| l.granularity == crate::locks::Granularity::Range)
        {
            let matching = locks_w.iter().any(|lw| match (&lw.index, &lr.index) {
                (Some(a), Some(b)) => a.name == b.name && a.table == b.table,
                _ => false,
            });
            if !matching {
                continue;
            }
            let range_c = range_conflict_cond(dst, catalog, r, lr, edge);
            let w_again = unified_write_cond(dst, catalog, w, &reader_aliases, common_table, edge);
            let arm = dst.and([w_again, range_c]);
            conflict = dst.or([conflict, arm]);
        }
    }
    conflict
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_smt::{check, SolveResult, SolverConfig};

    #[test]
    fn importer_renames_variables() {
        let mut src = Ctx::new();
        let x = src.var("order_id", Sort::Int);
        let one = src.int(1);
        let sum = src.add(x, one);
        let mut dst = Ctx::new();
        let mut imp = Importer::new(&src, "A1.");
        let t = imp.import(&mut dst, sum);
        assert_eq!(dst.display(t), "(A1.order_id + 1)");
    }

    #[test]
    fn importer_memoizes_shared_structure() {
        let mut src = Ctx::new();
        let x = src.var("x", Sort::Int);
        let y = src.var("y", Sort::Int);
        let le = src.le(x, y);
        let mut dst = Ctx::new();
        let mut imp = Importer::new(&src, "P.");
        let a = imp.import(&mut dst, le);
        let b = imp.import(&mut dst, le);
        assert_eq!(a, b);
    }

    #[test]
    fn importer_handles_arrays_and_bools() {
        let mut src = Ctx::new();
        let arr = src.array_var("m", Sort::Int);
        let i = src.var("i", Sort::Int);
        let tt = src.bool_const(true);
        let stored = src.store(arr, i, tt);
        let sel = src.select(stored, i);
        let mut dst = Ctx::new();
        let mut imp = Importer::new(&src, "B.");
        let t = imp.import(&mut dst, sel);
        // A read over its own store at the same index is tautologically
        // satisfiable (and indeed true).
        let mut ctx = dst;
        match check(&mut ctx, t, &SolverConfig::default()) {
            SolveResult::Sat(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn value_terms_and_sorts() {
        let mut dst = Ctx::new();
        assert!(value_term(&mut dst, &Value::Null).is_none());
        let t = value_term(&mut dst, &Value::Int(5)).unwrap();
        assert_eq!(dst.sort(t), &Sort::Int);
        let t = value_term(&mut dst, &Value::str("x")).unwrap();
        assert_eq!(dst.sort(t), &Sort::Str);
    }
}
