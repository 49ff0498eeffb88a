//! Hash-consed term DAG and the formula-building API.
//!
//! A [`Ctx`] owns every term. Building is infallible for well-sorted inputs
//! and panics with a descriptive message on sort mismatches (like most SMT
//! term builders, sort errors are programming bugs, not runtime conditions).
//!
//! The supported fragment mirrors what WeSEER's analyzer emits (paper
//! Sec. IV–V): linear integer/real arithmetic, string equality, booleans,
//! and `Array<K, Bool>` with `read`/`write` (Z3's `select`/`store`) used by
//! the Alg. 1 container modeling.

use crate::rational::Rat;
use std::collections::HashMap;
use std::fmt;

/// Sorts (types) of terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Sort {
    /// Mathematical integers.
    Int,
    /// Reals (stand-in for the paper's float modeling of `BigDecimal`).
    Real,
    /// Strings with (dis)equality.
    Str,
    /// Booleans.
    Bool,
    /// `Array<K, Bool>`: existence maps for container modeling.
    Array(Box<Sort>),
}

impl Sort {
    /// Whether the sort is numeric (Int or Real).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Sort::Int | Sort::Real)
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Int => write!(f, "Int"),
            Sort::Real => write!(f, "Real"),
            Sort::Str => write!(f, "String"),
            Sort::Bool => write!(f, "Bool"),
            Sort::Array(k) => write!(f, "Array<{k}, Bool>"),
        }
    }
}

/// Handle to an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

/// Comparison kinds on numeric terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpKind {
    /// `<`
    Lt,
    /// `<=`
    Le,
}

/// Term structure. Users build terms through [`Ctx`] methods; the enum is
/// public for consumers that walk the DAG (the lowering pass).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// Free variable with a name unique per (name, sort).
    Var(String),
    /// `true`/`false`.
    BoolConst(bool),
    /// Numeric constant (sort distinguishes Int from Real).
    NumConst(Rat),
    /// String constant.
    StrConst(String),
    /// Numeric addition.
    Add(TermId, TermId),
    /// Numeric subtraction.
    Sub(TermId, TermId),
    /// Numeric negation.
    Neg(TermId),
    /// Multiplication by a constant (keeps the fragment linear).
    MulConst(Rat, TermId),
    /// Numeric comparison producing Bool.
    Cmp(CmpKind, TermId, TermId),
    /// Equality at any sort, producing Bool.
    Eq(TermId, TermId),
    /// Logical negation.
    Not(TermId),
    /// N-ary conjunction.
    And(Vec<TermId>),
    /// N-ary disjunction.
    Or(Vec<TermId>),
    /// Array store: `write(arr, idx, val)` with `val: Bool`.
    Store(TermId, TermId, TermId),
    /// Array select: `read(arr, idx)` producing Bool.
    Select(TermId, TermId),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TermData {
    kind: TermKind,
    sort: Sort,
}

/// The term context: allocator and interner. `Clone` snapshots the whole
/// interner — term ids remain valid in the copy, which lets a pre-pass
/// (e.g. the analyzer's prefix table) simplify and intern new terms
/// without mutating the trace's original context.
#[derive(Debug, Default, Clone)]
pub struct Ctx {
    terms: Vec<TermData>,
    intern: HashMap<TermData, TermId>,
    fresh_counter: u64,
}

impl Ctx {
    /// New empty context.
    pub fn new() -> Self {
        Ctx::default()
    }

    fn mk(&mut self, kind: TermKind, sort: Sort) -> TermId {
        let data = TermData { kind, sort };
        if let Some(&id) = self.intern.get(&data) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(data.clone());
        self.intern.insert(data, id);
        id
    }

    /// The structure of a term.
    pub fn kind(&self, t: TermId) -> &TermKind {
        &self.terms[t.0 as usize].kind
    }

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> &Sort {
        &self.terms[t.0 as usize].sort
    }

    /// The direct subterms of `t`, left to right (`Select` yields its
    /// array, then its index). Every term-DAG walk enumerates children
    /// through this one match, so all of them agree on the order.
    pub fn children(&self, t: TermId) -> impl Iterator<Item = TermId> + '_ {
        let (fixed, parts): ([Option<TermId>; 3], &[TermId]) = match self.kind(t) {
            TermKind::Var(_)
            | TermKind::BoolConst(_)
            | TermKind::NumConst(_)
            | TermKind::StrConst(_) => ([None; 3], &[]),
            TermKind::Neg(a) | TermKind::MulConst(_, a) | TermKind::Not(a) => {
                ([Some(*a), None, None], &[])
            }
            TermKind::Add(a, b)
            | TermKind::Sub(a, b)
            | TermKind::Cmp(_, a, b)
            | TermKind::Eq(a, b)
            | TermKind::Select(a, b) => ([Some(*a), Some(*b), None], &[]),
            TermKind::Store(a, i, v) => ([Some(*a), Some(*i), Some(*v)], &[]),
            TermKind::And(parts) | TermKind::Or(parts) => ([None; 3], parts),
        };
        fixed.into_iter().flatten().chain(parts.iter().copied())
    }

    /// Number of interned terms (diagnostics).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the context has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    // ---- leaves ------------------------------------------------------

    /// A named variable of the given sort.
    pub fn var(&mut self, name: impl Into<String>, sort: Sort) -> TermId {
        self.mk(TermKind::Var(name.into()), sort)
    }

    /// A fresh variable whose name embeds `hint` (used when modeling
    /// ignored library functions: the output variable carries no relation
    /// to the inputs — paper Sec. IV).
    pub fn fresh_var(&mut self, hint: &str, sort: Sort) -> TermId {
        self.fresh_counter += 1;
        let name = format!("{hint}!{}", self.fresh_counter);
        self.var(name, sort)
    }

    /// Integer constant.
    pub fn int(&mut self, v: i64) -> TermId {
        self.mk(TermKind::NumConst(Rat::int(v)), Sort::Int)
    }

    /// Real constant.
    pub fn real(&mut self, v: Rat) -> TermId {
        self.mk(TermKind::NumConst(v), Sort::Real)
    }

    /// String constant.
    pub fn str_const(&mut self, s: impl Into<String>) -> TermId {
        self.mk(TermKind::StrConst(s.into()), Sort::Str)
    }

    /// Boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.mk(TermKind::BoolConst(b), Sort::Bool)
    }

    // ---- arithmetic --------------------------------------------------

    fn numeric_join(&self, a: TermId, b: TermId, what: &str) -> Sort {
        let (sa, sb) = (self.sort(a).clone(), self.sort(b).clone());
        assert!(
            sa.is_numeric() && sb.is_numeric(),
            "{what} needs numeric operands, got {sa} and {sb}"
        );
        if sa == Sort::Real || sb == Sort::Real {
            Sort::Real
        } else {
            Sort::Int
        }
    }

    /// `a + b`.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let s = self.numeric_join(a, b, "add");
        self.mk(TermKind::Add(a, b), s)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let s = self.numeric_join(a, b, "sub");
        self.mk(TermKind::Sub(a, b), s)
    }

    /// `-a`.
    pub fn neg(&mut self, a: TermId) -> TermId {
        let s = self.sort(a).clone();
        assert!(s.is_numeric(), "neg needs a numeric operand, got {s}");
        self.mk(TermKind::Neg(a), s)
    }

    /// `c * a` for constant `c`.
    pub fn mul_const(&mut self, c: Rat, a: TermId) -> TermId {
        let s = self.sort(a).clone();
        assert!(s.is_numeric(), "mul_const needs a numeric operand, got {s}");
        let s = if c.is_integer() && s == Sort::Int {
            Sort::Int
        } else {
            Sort::Real
        };
        self.mk(TermKind::MulConst(c, a), s)
    }

    // ---- comparisons -------------------------------------------------

    /// `a < b`.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        self.numeric_join(a, b, "lt");
        self.mk(TermKind::Cmp(CmpKind::Lt, a, b), Sort::Bool)
    }

    /// `a <= b`.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        self.numeric_join(a, b, "le");
        self.mk(TermKind::Cmp(CmpKind::Le, a, b), Sort::Bool)
    }

    /// `a > b`.
    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.lt(b, a)
    }

    /// `a >= b`.
    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.le(b, a)
    }

    /// `a = b` at any matching sort.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        let (sa, sb) = (self.sort(a).clone(), self.sort(b).clone());
        assert!(
            sa == sb || (sa.is_numeric() && sb.is_numeric()),
            "eq needs same-sorted operands, got {sa} and {sb}"
        );
        // Canonical argument order improves sharing for symmetric ops.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(TermKind::Eq(a, b), Sort::Bool)
    }

    /// `a != b`.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    // ---- booleans ----------------------------------------------------

    /// `!a`.
    pub fn not(&mut self, a: TermId) -> TermId {
        assert_eq!(self.sort(a), &Sort::Bool, "not needs a Bool operand");
        // Double-negation collapse keeps lowering simple.
        if let TermKind::Not(inner) = self.kind(a) {
            return *inner;
        }
        if let TermKind::BoolConst(b) = self.kind(a) {
            let b = !*b;
            return self.bool_const(b);
        }
        self.mk(TermKind::Not(a), Sort::Bool)
    }

    /// N-ary conjunction (empty = true).
    pub fn and(&mut self, parts: impl IntoIterator<Item = TermId>) -> TermId {
        let mut flat = Vec::new();
        for p in parts {
            assert_eq!(self.sort(p), &Sort::Bool, "and needs Bool operands");
            match self.kind(p) {
                TermKind::BoolConst(true) => {}
                TermKind::BoolConst(false) => return self.bool_const(false),
                TermKind::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(p),
            }
        }
        match flat.len() {
            0 => self.bool_const(true),
            1 => flat[0],
            _ => self.mk(TermKind::And(flat), Sort::Bool),
        }
    }

    /// N-ary disjunction (empty = false).
    pub fn or(&mut self, parts: impl IntoIterator<Item = TermId>) -> TermId {
        let mut flat = Vec::new();
        for p in parts {
            assert_eq!(self.sort(p), &Sort::Bool, "or needs Bool operands");
            match self.kind(p) {
                TermKind::BoolConst(false) => {}
                TermKind::BoolConst(true) => return self.bool_const(true),
                TermKind::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(p),
            }
        }
        match flat.len() {
            0 => self.bool_const(false),
            1 => flat[0],
            _ => self.mk(TermKind::Or(flat), Sort::Bool),
        }
    }

    /// `a -> b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or([na, b])
    }

    /// Boolean `if c then t else e` (expanded eagerly).
    pub fn ite_bool(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        let then_arm = self.and([c, t]);
        let nc = self.not(c);
        let else_arm = self.and([nc, e]);
        self.or([then_arm, else_arm])
    }

    // ---- arrays ------------------------------------------------------

    /// An array variable `Array<key_sort, Bool>`.
    pub fn array_var(&mut self, name: impl Into<String>, key_sort: Sort) -> TermId {
        self.mk(TermKind::Var(name.into()), Sort::Array(Box::new(key_sort)))
    }

    /// `write(arr, idx, val)` — functional array update.
    pub fn store(&mut self, arr: TermId, idx: TermId, val: TermId) -> TermId {
        let key = match self.sort(arr) {
            Sort::Array(k) => (**k).clone(),
            s => panic!("store needs an array, got {s}"),
        };
        assert_eq!(self.sort(idx), &key, "store index sort mismatch");
        assert_eq!(self.sort(val), &Sort::Bool, "store value must be Bool");
        let arr_sort = self.sort(arr).clone();
        self.mk(TermKind::Store(arr, idx, val), arr_sort)
    }

    /// `read(arr, idx)`.
    ///
    /// Reads over stores are expanded eagerly to `ite(idx = j, v, read(base, idx))`
    /// so the solver only sees reads on array *variables* (read-over-write
    /// reduction).
    pub fn select(&mut self, arr: TermId, idx: TermId) -> TermId {
        let key = match self.sort(arr) {
            Sort::Array(k) => (**k).clone(),
            s => panic!("select needs an array, got {s}"),
        };
        assert_eq!(self.sort(idx), &key, "select index sort mismatch");
        if let TermKind::Store(base, j, v) = self.kind(arr).clone() {
            let same = self.eq(idx, j);
            let base_read = self.select(base, idx);
            return self.ite_bool(same, v, base_read);
        }
        self.mk(TermKind::Select(arr, idx), Sort::Bool)
    }

    /// Pretty-print a term (diagnostics and reports).
    pub fn display(&self, t: TermId) -> String {
        match self.kind(t) {
            TermKind::Var(n) => n.clone(),
            TermKind::BoolConst(b) => b.to_string(),
            TermKind::NumConst(r) => r.to_string(),
            TermKind::StrConst(s) => format!("{s:?}"),
            TermKind::Add(a, b) => format!("({} + {})", self.display(*a), self.display(*b)),
            TermKind::Sub(a, b) => format!("({} - {})", self.display(*a), self.display(*b)),
            TermKind::Neg(a) => format!("(- {})", self.display(*a)),
            TermKind::MulConst(c, a) => format!("({c} * {})", self.display(*a)),
            TermKind::Cmp(CmpKind::Lt, a, b) => {
                format!("({} < {})", self.display(*a), self.display(*b))
            }
            TermKind::Cmp(CmpKind::Le, a, b) => {
                format!("({} <= {})", self.display(*a), self.display(*b))
            }
            TermKind::Eq(a, b) => format!("({} = {})", self.display(*a), self.display(*b)),
            TermKind::Not(a) => format!("(not {})", self.display(*a)),
            TermKind::And(parts) => {
                let inner: Vec<_> = parts.iter().map(|p| self.display(*p)).collect();
                format!("(and {})", inner.join(" "))
            }
            TermKind::Or(parts) => {
                let inner: Vec<_> = parts.iter().map(|p| self.display(*p)).collect();
                format!("(or {})", inner.join(" "))
            }
            TermKind::Store(a, i, v) => format!(
                "(write {} {} {})",
                self.display(*a),
                self.display(*i),
                self.display(*v)
            ),
            TermKind::Select(a, i) => {
                format!("(read {} {})", self.display(*a), self.display(*i))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_structure() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("x", Sort::Int);
        assert_eq!(x, y);
        let one = ctx.int(1);
        let a = ctx.add(x, one);
        let b = ctx.add(x, one);
        assert_eq!(a, b);
    }

    #[test]
    fn sorts_propagate() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let r = ctx.var("r", Sort::Real);
        let s = ctx.add(x, r);
        assert_eq!(ctx.sort(s), &Sort::Real);
        let c = ctx.le(x, r);
        assert_eq!(ctx.sort(c), &Sort::Bool);
    }

    #[test]
    #[should_panic(expected = "numeric")]
    fn add_on_strings_panics() {
        let mut ctx = Ctx::new();
        let a = ctx.str_const("a");
        let b = ctx.str_const("b");
        let _ = ctx.add(a, b);
    }

    #[test]
    #[should_panic(expected = "same-sorted")]
    fn eq_across_sorts_panics() {
        let mut ctx = Ctx::new();
        let a = ctx.str_const("a");
        let b = ctx.int(1);
        let _ = ctx.eq(a, b);
    }

    #[test]
    fn boolean_simplification() {
        let mut ctx = Ctx::new();
        let t = ctx.bool_const(true);
        let f = ctx.bool_const(false);
        let x = ctx.var("b", Sort::Bool);
        assert_eq!(ctx.and([t, x]), x);
        assert_eq!(ctx.and([f, x]), f);
        assert_eq!(ctx.or([f, x]), x);
        assert_eq!(ctx.or([t, x]), t);
        let nx = ctx.not(x);
        assert_eq!(ctx.not(nx), x);
        assert_eq!(ctx.not(t), f);
    }

    #[test]
    fn and_flattens() {
        let mut ctx = Ctx::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let c = ctx.var("c", Sort::Bool);
        let ab = ctx.and([a, b]);
        let abc = ctx.and([ab, c]);
        match ctx.kind(abc) {
            TermKind::And(v) => assert_eq!(v.len(), 3),
            k => panic!("expected flat And, got {k:?}"),
        }
    }

    #[test]
    fn read_over_write_expands() {
        let mut ctx = Ctx::new();
        let arr = ctx.array_var("m", Sort::Int);
        let i = ctx.var("i", Sort::Int);
        let j = ctx.var("j", Sort::Int);
        let t = ctx.bool_const(true);
        let stored = ctx.store(arr, j, t);
        let r = ctx.select(stored, i);
        // Must not contain a Select over a Store.
        fn no_select_over_store(ctx: &Ctx, t: TermId) -> bool {
            match ctx.kind(t) {
                TermKind::Select(a, _) => matches!(ctx.kind(*a), TermKind::Var(_)),
                TermKind::And(v) | TermKind::Or(v) => {
                    v.iter().all(|p| no_select_over_store(ctx, *p))
                }
                TermKind::Not(a) => no_select_over_store(ctx, *a),
                _ => true,
            }
        }
        assert!(no_select_over_store(&ctx, r));
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut ctx = Ctx::new();
        let a = ctx.fresh_var("ret", Sort::Int);
        let b = ctx.fresh_var("ret", Sort::Int);
        assert_ne!(a, b);
    }

    #[test]
    fn display_is_readable() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let one = ctx.int(1);
        let s = ctx.add(x, one);
        let eight = ctx.int(8);
        let c = ctx.eq(s, eight);
        let nc = ctx.not(c);
        assert_eq!(ctx.display(nc), "(not ((x + 1) = 8))");
    }
}
