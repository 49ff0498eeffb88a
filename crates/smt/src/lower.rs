//! Lowering of term-level formulas to CNF over theory atoms (Tseitin).
//!
//! Boolean structure becomes SAT clauses with auxiliary variables; leaves
//! become *atoms*: linear constraints, string (dis)equalities, boolean
//! variables, and array reads. Numeric equalities are split into the pair
//! `a - b ≤ 0 ∧ b - a ≤ 0` so that the arithmetic theory only ever sees
//! convex constraints (a negated `≤` is a strict `<` of the negation).

use crate::arith::{Constraint, LinExpr, VarInfo};
use crate::rational::Rat;
use crate::sat::{Cnf, Lit};
use crate::strings::StrTerm;
use crate::term::{CmpKind, Ctx, Sort, TermId, TermKind};
use std::collections::HashMap;

/// A theory atom tied to one SAT variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Atom {
    /// Linear constraint `expr ≤ 0` (`< 0` when strict).
    Lin(Constraint),
    /// String equality.
    StrEq(StrTerm, StrTerm),
    /// Free boolean variable.
    BoolVar(String),
    /// Array read `read(array, index)`; `array` is a variable term.
    Select {
        /// The array variable term.
        array: TermId,
        /// The index term.
        index: TermId,
    },
}

/// The result of lowering: CNF + atom table + theory variable table.
#[derive(Debug, Default)]
pub struct Lowering {
    /// The boolean skeleton.
    pub cnf: Cnf,
    /// Atoms, indexed by atom id.
    pub atoms: Vec<Atom>,
    /// SAT variable of each atom.
    pub atom_vars: Vec<usize>,
    atom_ids: HashMap<Atom, usize>,
    memo: HashMap<TermId, Lit>,
    /// Per numeric-equality term, the two `≤` half atoms it was split
    /// into. Those atoms carry no TermId of their own, so term-DAG
    /// walks (the incremental solver's cone computation) must recover
    /// their SAT variables through this side table.
    eq_aux: HashMap<TermId, [Lit; 2]>,
    /// Numeric theory variables.
    pub num_vars: Vec<VarInfo>,
    num_var_ids: HashMap<String, usize>,
    true_var: Option<usize>,
}

impl Lowering {
    /// New empty lowering.
    pub fn new() -> Self {
        Lowering::default()
    }

    fn true_lit(&mut self) -> Lit {
        let v = match self.true_var {
            Some(v) => v,
            None => {
                let v = self.cnf.new_var();
                self.cnf.add_unit(Lit::pos(v));
                self.true_var = Some(v);
                v
            }
        };
        Lit::pos(v)
    }

    fn atom_lit(&mut self, atom: Atom) -> Lit {
        if let Some(&id) = self.atom_ids.get(&atom) {
            return Lit::pos(self.atom_vars[id]);
        }
        let var = self.cnf.new_var();
        let id = self.atoms.len();
        self.atoms.push(atom.clone());
        self.atom_vars.push(var);
        self.atom_ids.insert(atom, id);
        Lit::pos(var)
    }

    /// The numeric theory-variable index for `name`.
    pub fn num_var(&mut self, name: &str, is_int: bool) -> usize {
        if let Some(&i) = self.num_var_ids.get(name) {
            return i;
        }
        let i = self.num_vars.len();
        self.num_vars.push(VarInfo {
            name: name.to_string(),
            is_int,
        });
        self.num_var_ids.insert(name.to_string(), i);
        i
    }

    /// Linearize a numeric term.
    ///
    /// # Panics
    /// Panics on non-linear or non-numeric structure (the analyzer only
    /// emits the linear fragment).
    pub fn linearize(&mut self, ctx: &Ctx, t: TermId) -> LinExpr {
        match ctx.kind(t).clone() {
            TermKind::Var(name) => {
                let is_int = ctx.sort(t) == &Sort::Int;
                LinExpr::var(self.num_var(&name, is_int))
            }
            TermKind::NumConst(r) => LinExpr::constant(r),
            TermKind::Add(a, b) => {
                let (ea, eb) = (self.linearize(ctx, a), self.linearize(ctx, b));
                ea.add(&eb)
            }
            TermKind::Sub(a, b) => {
                let (ea, eb) = (self.linearize(ctx, a), self.linearize(ctx, b));
                ea.sub(&eb)
            }
            TermKind::Neg(a) => self.linearize(ctx, a).scale(Rat::int(-1)),
            TermKind::MulConst(c, a) => self.linearize(ctx, a).scale(c),
            k => panic!("non-linear term in arithmetic position: {k:?}"),
        }
    }

    fn str_term(&self, ctx: &Ctx, t: TermId) -> StrTerm {
        match ctx.kind(t) {
            TermKind::Var(name) => StrTerm::Var(name.clone()),
            TermKind::StrConst(s) => StrTerm::Const(s.clone()),
            k => panic!("unsupported string term: {k:?}"),
        }
    }

    /// The literal `t` lowered to earlier, if any. Lets callers walk a
    /// term DAG and recover which SAT variables encode its subterms (the
    /// incremental solver's query-cone computation) without re-lowering.
    pub fn lowered_lit(&self, t: TermId) -> Option<Lit> {
        self.memo.get(&t).copied()
    }

    /// The two `≤` half atoms a numeric equality was split into, if `t`
    /// is one that has been lowered. Companion to [`Self::lowered_lit`]
    /// for cone walks: these atoms are reachable from no TermId.
    pub fn eq_aux_lits(&self, t: TermId) -> Option<[Lit; 2]> {
        self.eq_aux.get(&t).copied()
    }

    /// Lower a Bool-sorted term to a literal, adding Tseitin clauses.
    pub fn lower(&mut self, ctx: &Ctx, t: TermId) -> Lit {
        if let Some(&l) = self.memo.get(&t) {
            return l;
        }
        let lit = match ctx.kind(t).clone() {
            TermKind::BoolConst(true) => self.true_lit(),
            TermKind::BoolConst(false) => self.true_lit().negated(),
            TermKind::Var(name) => {
                debug_assert_eq!(ctx.sort(t), &Sort::Bool);
                self.atom_lit(Atom::BoolVar(name))
            }
            TermKind::Not(a) => self.lower(ctx, a).negated(),
            TermKind::And(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|&p| self.lower(ctx, p)).collect();
                let v = self.cnf.new_var();
                let mut long = vec![Lit::pos(v)];
                for l in &lits {
                    self.cnf.add_clause(vec![Lit::neg(v), *l]);
                    long.push(l.negated());
                }
                self.cnf.add_clause(long);
                Lit::pos(v)
            }
            TermKind::Or(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|&p| self.lower(ctx, p)).collect();
                let v = self.cnf.new_var();
                let mut long = vec![Lit::neg(v)];
                for l in &lits {
                    self.cnf.add_clause(vec![Lit::pos(v), l.negated()]);
                    long.push(*l);
                }
                self.cnf.add_clause(long);
                Lit::pos(v)
            }
            TermKind::Cmp(kind, a, b) => {
                let (ea, eb) = (self.linearize(ctx, a), self.linearize(ctx, b));
                let expr = ea.sub(&eb);
                self.atom_lit(Atom::Lin(Constraint {
                    expr,
                    strict: kind == CmpKind::Lt,
                }))
            }
            TermKind::Eq(a, b) => match ctx.sort(a) {
                Sort::Int | Sort::Real => {
                    let (ea, eb) = (self.linearize(ctx, a), self.linearize(ctx, b));
                    let le1 = self.atom_lit(Atom::Lin(Constraint::le0(ea.sub(&eb))));
                    let le2 = self.atom_lit(Atom::Lin(Constraint::le0(eb.sub(&ea))));
                    self.eq_aux.insert(t, [le1, le2]);
                    let v = self.cnf.new_var();
                    self.cnf.add_clause(vec![Lit::neg(v), le1]);
                    self.cnf.add_clause(vec![Lit::neg(v), le2]);
                    self.cnf
                        .add_clause(vec![Lit::pos(v), le1.negated(), le2.negated()]);
                    Lit::pos(v)
                }
                Sort::Str => {
                    let (sa, sb) = (self.str_term(ctx, a), self.str_term(ctx, b));
                    self.atom_lit(Atom::StrEq(sa, sb))
                }
                Sort::Bool => {
                    let (la, lb) = (self.lower(ctx, a), self.lower(ctx, b));
                    let v = self.cnf.new_var();
                    // v ↔ (la ↔ lb)
                    self.cnf.add_clause(vec![Lit::neg(v), la.negated(), lb]);
                    self.cnf.add_clause(vec![Lit::neg(v), la, lb.negated()]);
                    self.cnf.add_clause(vec![Lit::pos(v), la, lb]);
                    self.cnf
                        .add_clause(vec![Lit::pos(v), la.negated(), lb.negated()]);
                    Lit::pos(v)
                }
                s => panic!("equality unsupported at sort {s}"),
            },
            TermKind::Select(arr, idx) => {
                debug_assert!(
                    matches!(ctx.kind(arr), TermKind::Var(_)),
                    "selects are expanded to array variables at build time"
                );
                self.atom_lit(Atom::Select {
                    array: arr,
                    index: idx,
                })
            }
            k => panic!("term not lowerable at Bool position: {k:?}"),
        };
        self.memo.insert(t, lit);
        lit
    }

    /// Assert a Bool-sorted term as a top-level fact.
    pub fn assert(&mut self, ctx: &Ctx, t: TermId) {
        let lit = self.lower(ctx, t);
        self.cnf.add_unit(lit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat;

    fn solve(cnf: &Cnf) -> Option<sat::SatResult> {
        sat::Solver::from_cnf(cnf)
            .solve_under_assumptions(&[], u64::MAX)
            .0
    }

    #[test]
    fn atoms_deduplicate() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let a = ctx.le(x, y);
        let b = ctx.le(x, y);
        let mut low = Lowering::new();
        let la = low.lower(&ctx, a);
        let lb = low.lower(&ctx, b);
        assert_eq!(la, lb);
        assert_eq!(low.atoms.len(), 1);
    }

    #[test]
    fn numeric_eq_splits_into_two_le() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let e = ctx.eq(x, y);
        let mut low = Lowering::new();
        low.assert(&ctx, e);
        let lin = low
            .atoms
            .iter()
            .filter(|a| matches!(a, Atom::Lin(_)))
            .count();
        assert_eq!(lin, 2);
    }

    #[test]
    fn pure_boolean_formula_solves() {
        let mut ctx = Ctx::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let nb = ctx.not(b);
        let f = ctx.and([a, nb]);
        let mut low = Lowering::new();
        low.assert(&ctx, f);
        match solve(&low.cnf) {
            Some(sat::SatResult::Sat(m)) => {
                // Find the atom vars for a and b.
                let var_of = |name: &str, low: &Lowering| {
                    low.atoms
                        .iter()
                        .position(|at| matches!(at, Atom::BoolVar(n) if n == name))
                        .map(|i| low.atom_vars[i])
                        .expect("atom exists")
                };
                assert!(m[var_of("a", &low)]);
                assert!(!m[var_of("b", &low)]);
            }
            _ => panic!("expected SAT"),
        }
    }

    #[test]
    fn contradiction_is_unsat_at_sat_level() {
        let mut ctx = Ctx::new();
        let a = ctx.var("a", Sort::Bool);
        let na = ctx.not(a);
        let f = ctx.and([a, na]);
        let mut low = Lowering::new();
        low.assert(&ctx, f);
        assert_eq!(solve(&low.cnf), Some(sat::SatResult::Unsat));
    }

    #[test]
    fn linearize_collects_terms() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let two_x = ctx.mul_const(Rat::int(2), x);
        let sum = ctx.add(two_x, y);
        let five = ctx.int(5);
        let e = ctx.sub(sum, five);
        let mut low = Lowering::new();
        let lin = low.linearize(&ctx, e);
        assert_eq!(lin.constant, Rat::int(-5));
        assert_eq!(lin.coeffs.len(), 2);
        assert_eq!(low.num_vars.len(), 2);
        assert!(low.num_vars.iter().all(|v| v.is_int));
    }

    #[test]
    #[should_panic(expected = "non-linear")]
    fn select_in_numeric_position_panics() {
        let mut ctx = Ctx::new();
        let arr = ctx.array_var("m", Sort::Int);
        let i = ctx.var("i", Sort::Int);
        let sel = ctx.select(arr, i);
        let mut low = Lowering::new();
        let _ = low.linearize(&ctx, sel);
    }
}
