//! Tier 0 of the tiered solving pipeline: a memoizing bottom-up term
//! simplifier over the hash-consed DAG.
//!
//! The analyzer's conflict ∧ path-condition conjunctions carry a lot of
//! structure the full DPLL(T) stack would otherwise grind through atom by
//! atom: trivially decided comparisons between constants, `x = x`
//! reflexivity from result-consistency encoding, conjuncts duplicated
//! between a path condition and a conflict condition, and contradiction
//! literals (`p ∧ ¬p`). Rewriting these first shrinks what the later
//! tiers see, and a formula that simplifies all the way to a boolean
//! constant never reaches CNF lowering at all.
//!
//! Every rewrite is an equivalence (never a strengthening or weakening):
//! the simplified term is satisfiable iff the original is, and any model
//! of one satisfies the other. The property tests in
//! `crates/smt/tests/tiered.rs` check exactly that against the full
//! solver.
//!
//! Rules implemented:
//!
//! * **Constant folding** — arithmetic over [`Rat`] constants, comparisons
//!   and equalities between constants, `x + 0`, `x - 0`, `x - x`, `1·x`,
//!   `0·x`, `-(-x)`.
//! * **Reflexivity** — `x = x` ⇒ `true`, `x ≤ x` ⇒ `true`, `x < x` ⇒
//!   `false` (same hash-consed id on both sides).
//! * **Boolean equality** — `b = true` ⇒ `b`, `b = false` ⇒ `¬b`.
//! * **Contradiction literals** — an `And` containing both `p` and `¬p`
//!   collapses to `false`; an `Or` containing both collapses to `true`.
//! * **Absorption** — `a ∧ (a ∨ b)` ⇒ `a`, `a ∨ (a ∧ b)` ⇒ `a`.
//! * **Duplicate elimination** — `And`/`Or` children are deduplicated
//!   (hash consing makes duplicates id-equal), preserving first-occurrence
//!   order so results stay deterministic.
//!
//! The [`Ctx`] builders already do light rewriting (flattening, constant
//! short-circuits, double-negation collapse); the simplifier composes with
//! them by rebuilding every node through the builders.

use crate::rational::Rat;
use crate::term::{CmpKind, Ctx, Sort, TermId, TermKind};
use std::collections::{HashMap, HashSet};

/// A memoizing bottom-up simplifier over one [`Ctx`].
///
/// The memo table is keyed by term id, so repeated calls on overlapping
/// DAGs (e.g. every path condition of one trace, which share prefixes) do
/// each node's work once. Create one per context and reuse it; for
/// one-shot use call [`simplify`].
#[derive(Debug, Default)]
pub struct Simplifier {
    memo: HashMap<TermId, TermId>,
}

impl Simplifier {
    /// New simplifier with an empty memo table.
    pub fn new() -> Self {
        Simplifier::default()
    }

    /// Simplify `t` inside `ctx`, returning an equivalent (and possibly
    /// identical) term id in the same context.
    pub fn simplify(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        if let Some(&s) = self.memo.get(&t) {
            return s;
        }
        let out = self.rewrite(ctx, t);
        self.memo.insert(t, out);
        out
    }

    fn rewrite(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        match ctx.kind(t).clone() {
            TermKind::Var(_)
            | TermKind::BoolConst(_)
            | TermKind::NumConst(_)
            | TermKind::StrConst(_) => t,
            TermKind::Add(a, b) => {
                let (a, b) = (self.simplify(ctx, a), self.simplify(ctx, b));
                match (num_const(ctx, a), num_const(ctx, b)) {
                    (Some(x), Some(y)) => {
                        let s = join(ctx, a, b);
                        num(ctx, x + y, s)
                    }
                    (Some(x), None) if x.is_zero() && ctx.sort(a) == ctx.sort(b) => b,
                    (None, Some(y)) if y.is_zero() && ctx.sort(a) == ctx.sort(b) => a,
                    _ => ctx.add(a, b),
                }
            }
            TermKind::Sub(a, b) => {
                let (a, b) = (self.simplify(ctx, a), self.simplify(ctx, b));
                if a == b {
                    let s = ctx.sort(a).clone();
                    return num(ctx, Rat::int(0), s);
                }
                match (num_const(ctx, a), num_const(ctx, b)) {
                    (Some(x), Some(y)) => {
                        let s = join(ctx, a, b);
                        num(ctx, x - y, s)
                    }
                    (None, Some(y)) if y.is_zero() => a,
                    _ => ctx.sub(a, b),
                }
            }
            TermKind::Neg(a) => {
                let a = self.simplify(ctx, a);
                if let Some(x) = num_const(ctx, a) {
                    let s = ctx.sort(a).clone();
                    return num(ctx, -x, s);
                }
                if let TermKind::Neg(inner) = ctx.kind(a) {
                    return *inner;
                }
                ctx.neg(a)
            }
            TermKind::MulConst(c, a) => {
                let a = self.simplify(ctx, a);
                if let Some(x) = num_const(ctx, a) {
                    let s = ctx.sort(t).clone();
                    return num(ctx, c * x, s);
                }
                if c == Rat::int(1) && ctx.sort(a) == ctx.sort(t) {
                    return a;
                }
                if c.is_zero() {
                    let s = ctx.sort(t).clone();
                    return num(ctx, Rat::int(0), s);
                }
                ctx.mul_const(c, a)
            }
            TermKind::Cmp(kind, a, b) => {
                let (a, b) = (self.simplify(ctx, a), self.simplify(ctx, b));
                if a == b {
                    // x < x is false, x ≤ x is true.
                    return ctx.bool_const(kind == CmpKind::Le);
                }
                if let (Some(x), Some(y)) = (num_const(ctx, a), num_const(ctx, b)) {
                    return ctx.bool_const(match kind {
                        CmpKind::Lt => x < y,
                        CmpKind::Le => x <= y,
                    });
                }
                match kind {
                    CmpKind::Lt => ctx.lt(a, b),
                    CmpKind::Le => ctx.le(a, b),
                }
            }
            TermKind::Eq(a, b) => {
                let (a, b) = (self.simplify(ctx, a), self.simplify(ctx, b));
                if a == b {
                    return ctx.bool_const(true);
                }
                match (ctx.kind(a).clone(), ctx.kind(b).clone()) {
                    // Rat equality also decides Int-vs-Real constant pairs.
                    (TermKind::NumConst(x), TermKind::NumConst(y)) => ctx.bool_const(x == y),
                    (TermKind::StrConst(x), TermKind::StrConst(y)) => ctx.bool_const(x == y),
                    (TermKind::BoolConst(x), TermKind::BoolConst(y)) => ctx.bool_const(x == y),
                    // b = true ⇒ b ; b = false ⇒ ¬b (either side).
                    (TermKind::BoolConst(x), _) => {
                        if x {
                            b
                        } else {
                            ctx.not(b)
                        }
                    }
                    (_, TermKind::BoolConst(y)) => {
                        if y {
                            a
                        } else {
                            ctx.not(a)
                        }
                    }
                    _ => ctx.eq(a, b),
                }
            }
            TermKind::Not(a) => {
                let a = self.simplify(ctx, a);
                ctx.not(a)
            }
            TermKind::And(parts) => {
                let parts: Vec<TermId> = parts.iter().map(|&p| self.simplify(ctx, p)).collect();
                // The builder flattens and short-circuits; apply the
                // set-based rules on the flattened child list.
                let flat = ctx.and(parts);
                let children = match ctx.kind(flat) {
                    TermKind::And(c) => c.clone(),
                    _ => return flat,
                };
                let (kept, present) = dedup(&children);
                for &p in &kept {
                    if let TermKind::Not(inner) = ctx.kind(p) {
                        if present.contains(inner) {
                            // p ∧ ¬p ⇒ false.
                            return ctx.bool_const(false);
                        }
                    }
                }
                // Absorption: a ∧ (a ∨ b) ⇒ a — drop any disjunction one
                // of whose arms is already asserted.
                let kept: Vec<TermId> = kept
                    .into_iter()
                    .filter(|&p| match ctx.kind(p) {
                        TermKind::Or(arms) => !arms.iter().any(|arm| present.contains(arm)),
                        _ => true,
                    })
                    .collect();
                ctx.and(kept)
            }
            TermKind::Or(parts) => {
                let parts: Vec<TermId> = parts.iter().map(|&p| self.simplify(ctx, p)).collect();
                let flat = ctx.or(parts);
                let children = match ctx.kind(flat) {
                    TermKind::Or(c) => c.clone(),
                    _ => return flat,
                };
                let (kept, present) = dedup(&children);
                for &p in &kept {
                    if let TermKind::Not(inner) = ctx.kind(p) {
                        if present.contains(inner) {
                            // p ∨ ¬p ⇒ true.
                            return ctx.bool_const(true);
                        }
                    }
                }
                // Absorption: a ∨ (a ∧ b) ⇒ a — drop any conjunction one
                // of whose conjuncts is already an arm.
                let kept: Vec<TermId> = kept
                    .into_iter()
                    .filter(|&p| match ctx.kind(p) {
                        TermKind::And(conj) => !conj.iter().any(|c| present.contains(c)),
                        _ => true,
                    })
                    .collect();
                ctx.or(kept)
            }
            TermKind::Store(arr, idx, val) => {
                let arr = self.simplify(ctx, arr);
                let idx = self.simplify(ctx, idx);
                let val = self.simplify(ctx, val);
                ctx.store(arr, idx, val)
            }
            TermKind::Select(arr, idx) => {
                let arr = self.simplify(ctx, arr);
                let idx = self.simplify(ctx, idx);
                ctx.select(arr, idx)
            }
        }
    }
}

/// One-shot convenience wrapper around [`Simplifier`].
pub fn simplify(ctx: &mut Ctx, t: TermId) -> TermId {
    Simplifier::new().simplify(ctx, t)
}

/// Deduplicate preserving first-occurrence order; also return the set.
fn dedup(children: &[TermId]) -> (Vec<TermId>, HashSet<TermId>) {
    let mut kept = Vec::with_capacity(children.len());
    let mut present = HashSet::with_capacity(children.len());
    for &p in children {
        if present.insert(p) {
            kept.push(p);
        }
    }
    (kept, present)
}

fn num_const(ctx: &Ctx, t: TermId) -> Option<Rat> {
    match ctx.kind(t) {
        TermKind::NumConst(r) => Some(*r),
        _ => None,
    }
}

/// Rebuild a numeric constant at the given sort.
fn num(ctx: &mut Ctx, r: Rat, sort: Sort) -> TermId {
    if sort == Sort::Int && r.is_integer() {
        ctx.int(r.floor() as i64)
    } else {
        ctx.real(r)
    }
}

/// Sort join of two numeric operands (Real wins).
fn join(ctx: &Ctx, a: TermId, b: TermId) -> Sort {
    if ctx.sort(a) == &Sort::Real || ctx.sort(b) == &Sort::Real {
        Sort::Real
    } else {
        Sort::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn folds_constants() {
        let mut ctx = Ctx::new();
        let three = ctx.int(3);
        let five = ctx.int(5);
        let sum = ctx.add(three, five);
        let cmp = ctx.lt(sum, five);
        let s = simplify(&mut ctx, cmp);
        assert_eq!(s, ctx.bool_const(false));
        let eq = ctx.eq(three, three);
        let s = simplify(&mut ctx, eq);
        assert_eq!(s, ctx.bool_const(true));
    }

    #[test]
    fn reflexivity() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let eq = ctx.eq(x, x);
        let s = simplify(&mut ctx, eq);
        assert_eq!(s, ctx.bool_const(true));
        let le = ctx.le(x, x);
        let s = simplify(&mut ctx, le);
        assert_eq!(s, ctx.bool_const(true));
        let lt = ctx.lt(x, x);
        let s = simplify(&mut ctx, lt);
        assert_eq!(s, ctx.bool_const(false));
    }

    #[test]
    fn contradiction_literals() {
        let mut ctx = Ctx::new();
        let p = ctx.var("p", Sort::Bool);
        let np = ctx.not(p);
        let q = ctx.var("q", Sort::Bool);
        let f = ctx.and([p, q, np]);
        let s = simplify(&mut ctx, f);
        assert_eq!(s, ctx.bool_const(false));
        let g = ctx.or([p, q, np]);
        let s = simplify(&mut ctx, g);
        assert_eq!(s, ctx.bool_const(true));
    }

    #[test]
    fn absorption_and_dedup() {
        let mut ctx = Ctx::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let a_or_b = ctx.or([a, b]);
        let f = ctx.and([a, a_or_b]);
        assert_eq!(simplify(&mut ctx, f), a);
        let a_and_b = ctx.and([a, b]);
        let g = ctx.or([a, a_and_b]);
        assert_eq!(simplify(&mut ctx, g), a);
    }

    #[test]
    fn arithmetic_identities() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let zero = ctx.int(0);
        let xp0 = ctx.add(x, zero);
        assert_eq!(simplify(&mut ctx, xp0), x);
        let xmx = ctx.sub(x, x);
        assert_eq!(simplify(&mut ctx, xmx), zero);
        let one_x = ctx.mul_const(Rat::int(1), x);
        assert_eq!(simplify(&mut ctx, one_x), x);
        let neg_neg = {
            let n = ctx.neg(x);
            ctx.neg(n)
        };
        assert_eq!(simplify(&mut ctx, neg_neg), x);
    }

    #[test]
    fn bool_equality_unwraps() {
        let mut ctx = Ctx::new();
        let p = ctx.var("p", Sort::Bool);
        let tt = ctx.bool_const(true);
        let ff = ctx.bool_const(false);
        let e1 = ctx.eq(p, tt);
        assert_eq!(simplify(&mut ctx, e1), p);
        let e2 = ctx.eq(p, ff);
        let s = simplify(&mut ctx, e2);
        let np = ctx.not(p);
        assert_eq!(s, np);
    }

    #[test]
    fn nested_collapse_through_layers() {
        // (x + 0 = x) ∧ q simplifies to q: the equality folds to true.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let zero = ctx.int(0);
        let xp0 = ctx.add(x, zero);
        let eq = ctx.eq(xp0, x);
        let q = ctx.var("q", Sort::Bool);
        let f = ctx.and([eq, q]);
        assert_eq!(simplify(&mut ctx, f), q);
    }

    #[test]
    fn idempotent() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let zero = ctx.int(0);
        let c1 = ctx.lt(x, y);
        let xp0 = ctx.add(x, zero);
        let c2 = ctx.eq(xp0, y);
        let f = ctx.and([c1, c2, c1]);
        let s1 = simplify(&mut ctx, f);
        let s2 = simplify(&mut ctx, s1);
        assert_eq!(s1, s2);
    }

    #[test]
    fn memo_reuse_across_calls() {
        let mut ctx = Ctx::new();
        let mut simp = Simplifier::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let c = ctx.lt(x, y);
        let a = simp.simplify(&mut ctx, c);
        let b = simp.simplify(&mut ctx, c);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}
