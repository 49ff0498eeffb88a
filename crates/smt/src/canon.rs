//! Formula canonicalization for content fingerprints.
//!
//! Traces collected from the same API template carry near-identical
//! symbolic terms: they differ only in variable *names* (symbol counters
//! shift when an unrelated call is added upstream) and in the order
//! symmetric connectives happened to be built. This module maps a set of
//! terms to **content keys** that erase both differences:
//!
//! * children of `And`/`Or` (and the operands of the symmetric `Eq`) are
//!   sorted by their name-erased serialized subterm;
//! * variables are alpha-renamed to `v0, v1, …` in first-occurrence order
//!   over the sorted structure.
//!
//! Two alpha-equivalent (modulo AC-reordering) term sets therefore share
//! one key vector, which is what `weseer_concolic`'s trace fingerprints
//! hash.

use crate::term::{CmpKind, Ctx, TermId, TermKind};
use std::collections::HashMap;

/// Namespace for the canonical serialization of terms.
#[derive(Debug)]
pub struct Canonical;

impl Canonical {
    /// Canonical **content keys** for a set of roots sharing one variable
    /// namespace and one alpha assignment (assigned in first-visit order
    /// across the whole slice, so cross-root variable sharing is visible
    /// in the keys).
    ///
    /// The sort order of symmetric children is computed over
    /// *name-erased* pre-strings, so the keys are fully invariant under
    /// alpha-renaming — two formula sets that differ only in variable
    /// names produce identical key vectors, and spurious differences
    /// never change a fingerprint.
    pub fn content_keys(src: &Ctx, roots: &[TermId]) -> Vec<String> {
        let mut c = Canonicalizer {
            src,
            pre: HashMap::new(),
            var_ids: HashMap::new(),
        };
        for &r in roots {
            c.pre_string(r);
        }
        roots
            .iter()
            .map(|&r| {
                let mut key = String::with_capacity(c.pre[&r].len());
                c.keyed(r, &mut key);
                key
            })
            .collect()
    }
}

struct Canonicalizer<'a> {
    src: &'a Ctx,
    /// Memoized name-erased serialization that defines the sorted order
    /// of symmetric children. With the names gone that order cannot
    /// depend on them, so the emitted keys are fully alpha-invariant.
    pre: HashMap<TermId, String>,
    /// Alpha assignment in first-occurrence order over the sorted walk.
    var_ids: HashMap<String, usize>,
}

impl Canonicalizer<'_> {
    fn pre_string(&mut self, t: TermId) -> &str {
        if !self.pre.contains_key(&t) {
            let s = match self.src.kind(t).clone() {
                TermKind::Var(_) => format!("V:{}", self.src.sort(t)),
                TermKind::BoolConst(b) => format!("B{b}"),
                TermKind::NumConst(r) => format!("N{r}:{}", self.src.sort(t)),
                TermKind::StrConst(s) => format!("S{s:?}"),
                TermKind::Add(a, b) => self.pre_nary("+", &[a, b], false),
                TermKind::Sub(a, b) => self.pre_nary("-", &[a, b], false),
                TermKind::Neg(a) => self.pre_nary("~", &[a], false),
                TermKind::MulConst(c, a) => {
                    self.pre_string(a);
                    format!("(*{c} {})", self.pre[&a])
                }
                TermKind::Cmp(CmpKind::Lt, a, b) => self.pre_nary("<", &[a, b], false),
                TermKind::Cmp(CmpKind::Le, a, b) => self.pre_nary("<=", &[a, b], false),
                TermKind::Eq(a, b) => self.pre_nary("=", &[a, b], true),
                TermKind::Not(a) => self.pre_nary("!", &[a], false),
                TermKind::And(parts) => self.pre_nary("&", &parts, true),
                TermKind::Or(parts) => self.pre_nary("|", &parts, true),
                TermKind::Store(a, i, v) => self.pre_nary("w", &[a, i, v], false),
                TermKind::Select(a, i) => self.pre_nary("r", &[a, i], false),
            };
            self.pre.insert(t, s);
        }
        &self.pre[&t]
    }

    fn pre_nary(&mut self, op: &str, children: &[TermId], sorted: bool) -> String {
        for &c in children {
            self.pre_string(c);
        }
        let mut parts: Vec<&str> = children.iter().map(|c| self.pre[c].as_str()).collect();
        if sorted {
            // Stable: distinct subterms can share a name-erased
            // pre-string, and ties must resolve to the original child
            // order so keys stay deterministic.
            parts.sort();
        }
        format!("({op} {})", parts.join(" "))
    }

    /// The order symmetric children are visited in pass 2 — by
    /// pre-string, matching [`Canonicalizer::pre_nary`].
    fn ordered(&self, children: &[TermId], sorted: bool) -> Vec<TermId> {
        let mut out = children.to_vec();
        if sorted {
            out.sort_by(|a, b| self.pre[a].cmp(&self.pre[b]));
        }
        out
    }

    fn alpha(&mut self, name: &str) -> usize {
        let next = self.var_ids.len();
        *self.var_ids.entry(name.to_string()).or_insert(next)
    }

    /// Pass 2: emit the canonical key, assigning alpha indexes in
    /// first-visit order over the sorted structure.
    fn keyed(&mut self, t: TermId, out: &mut String) {
        use std::fmt::Write as _;
        match self.src.kind(t).clone() {
            TermKind::Var(name) => {
                let sort = self.src.sort(t).clone();
                let i = self.alpha(&name);
                let _ = write!(out, "v{i}:{sort}");
            }
            TermKind::BoolConst(b) => {
                let _ = write!(out, "B{b}");
            }
            TermKind::NumConst(r) => {
                let _ = write!(out, "N{r}:{}", self.src.sort(t));
            }
            TermKind::StrConst(s) => {
                let _ = write!(out, "S{s:?}");
            }
            TermKind::Add(a, b) => self.keyed_nary("+", &[a, b], false, out),
            TermKind::Sub(a, b) => self.keyed_nary("-", &[a, b], false, out),
            TermKind::Neg(a) => self.keyed_nary("~", &[a], false, out),
            TermKind::MulConst(c, a) => {
                let _ = write!(out, "(*{c} ");
                self.keyed(a, out);
                out.push(')');
            }
            TermKind::Cmp(CmpKind::Lt, a, b) => self.keyed_nary("<", &[a, b], false, out),
            TermKind::Cmp(CmpKind::Le, a, b) => self.keyed_nary("<=", &[a, b], false, out),
            TermKind::Eq(a, b) => self.keyed_nary("=", &[a, b], true, out),
            TermKind::Not(a) => self.keyed_nary("!", &[a], false, out),
            TermKind::And(parts) => self.keyed_nary("&", &parts, true, out),
            TermKind::Or(parts) => self.keyed_nary("|", &parts, true, out),
            TermKind::Store(a, i, v) => self.keyed_nary("w", &[a, i, v], false, out),
            TermKind::Select(a, i) => self.keyed_nary("r", &[a, i], false, out),
        }
    }

    fn keyed_nary(&mut self, op: &str, children: &[TermId], sorted: bool, out: &mut String) {
        out.push('(');
        out.push_str(op);
        for c in self.ordered(children, sorted) {
            out.push(' ');
            self.keyed(c, out);
        }
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn content_keys_are_alpha_invariant() {
        // Sorting AND-children by *named* pre-strings would let a pure
        // renaming flip the child order and change the key. Content keys
        // erase names before sorting: renaming every variable leaves the
        // key vector untouched.
        let build = |n1: &str, n2: &str| {
            let mut ctx = Ctx::new();
            let x = ctx.var(n1, Sort::Int);
            let y = ctx.var(n2, Sort::Int);
            let zero = ctx.int(0);
            let a = ctx.lt(zero, x);
            let b = ctx.lt(zero, y);
            let both = ctx.and([a, b]);
            let link = ctx.lt(x, y);
            Canonical::content_keys(&ctx, &[both, link])
        };
        // "zz"/"aa" reverses the lexicographic order of the named
        // pre-strings, which is exactly the case a named sort breaks on.
        assert_eq!(build("aa", "zz"), build("zz", "aa"));
        // Instance prefixes are just names.
        assert_eq!(build("A1.x", "A2.y"), build("B9.u", "C.w"));
    }

    #[test]
    fn content_keys_share_one_alpha_assignment() {
        // The same variable appearing under two roots gets one index, so
        // cross-root sharing is part of the content.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let zero = ctx.int(0);
        let f1 = ctx.lt(zero, x);
        let f2_shared = ctx.lt(x, zero);
        let f2_fresh = ctx.lt(y, zero);
        let shared = Canonical::content_keys(&ctx, &[f1, f2_shared]);
        let fresh = Canonical::content_keys(&ctx, &[f1, f2_fresh]);
        assert_eq!(shared[0], fresh[0]);
        assert_ne!(shared[1], fresh[1], "sharing must be visible in the key");
    }

    #[test]
    fn content_keys_distinguish_structure_constants_and_sorts() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let r = ctx.var("r", Sort::Real);
        let three = ctx.int(3);
        let four = ctx.int(4);
        let zero_r = ctx.real(crate::rational::Rat::int(0));
        let lt = ctx.lt(x, three);
        let le = ctx.le(x, three);
        let lt4 = ctx.lt(x, four);
        let zero_i = ctx.int(0);
        let pos_i = ctx.lt(zero_i, x);
        let pos_r = ctx.lt(zero_r, r);
        let key = |t: TermId| Canonical::content_keys(&ctx, &[t]).remove(0);
        assert_ne!(key(lt), key(le));
        assert_ne!(key(lt), key(lt4));
        assert_ne!(key(pos_i), key(pos_r));
    }

    #[test]
    fn ac_reordering_shares_a_key() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let zero = ctx.int(0);
        let one = ctx.int(1);
        let a = ctx.lt(zero, x);
        let b = ctx.lt(one, y);
        let f1 = ctx.and([a, b]);
        let mut other = Ctx::new();
        let y2 = other.var("y", Sort::Int);
        let x2 = other.var("x", Sort::Int);
        let one2 = other.int(1);
        let zero2 = other.int(0);
        let b2 = other.lt(one2, y2);
        let a2 = other.lt(zero2, x2);
        let f2 = other.and([b2, a2]);
        assert_eq!(
            Canonical::content_keys(&ctx, &[f1]),
            Canonical::content_keys(&other, &[f2])
        );
    }
}
