//! Modeled built-in classes: `String` and `BigDecimal` (paper Sec. IV-B).
//!
//! Instead of executing library internals concolically, the engine maps
//! `BigDecimal` operations to real-number theory operations and `String`
//! operations to string-theory (dis)equalities. Each helper also carries a
//! *naive* code path (active under [`LibraryMode::Naive`]) that mimics the
//! branch-per-character / branch-per-digit behaviour of real library code,
//! used to reproduce the paper's path-condition pruning measurement
//! (656K → 2.7K for Broadleaf's Ship API).

use crate::engine::{Engine, LibraryMode};
use crate::loc;
use crate::sym::{SymBool, SymValue};
use weseer_sqlir::{CmpOp, Value};

/// Record `n` opaque library-internal branches (bucket probes, character
/// loops). Only does anything under [`LibraryMode::Naive`] — modeled mode
/// counts them as avoided.
pub fn naive_probe_branches(engine: &mut Engine, n: usize) {
    for i in 0..n {
        let out = engine.fresh_output("libbr", Value::Bool(i % 2 == 0));
        let cond = SymBool {
            concrete: i % 2 == 0,
            sym: out.sym,
        };
        engine.enter_library();
        engine.branch(&cond, loc!("library_internal"));
        engine.exit_library();
    }
}

/// `String.equals`: a single string-theory equality in modeled mode; one
/// branch per compared character in naive mode.
pub fn string_equals(engine: &mut Engine, a: &SymValue, b: &SymValue) -> SymBool {
    if engine.tracking()
        && engine.library_mode() == LibraryMode::Naive
        && (a.is_symbolic() || b.is_symbolic())
    {
        let len = a
            .as_str()
            .map(str::len)
            .unwrap_or(0)
            .min(b.as_str().map(str::len).unwrap_or(0))
            .max(1);
        naive_probe_branches(engine, len);
    }
    engine.cmp(CmpOp::Eq, a, b)
}

/// `BigDecimal` — high-precision decimal modeled as a real (paper: Z3
/// floats suffice for the unit tests' numeric ranges).
#[derive(Debug, Clone, PartialEq)]
pub struct BigDecimal(pub SymValue);

impl BigDecimal {
    /// From a concrete decimal.
    pub fn from_f64(v: f64) -> Self {
        BigDecimal(SymValue::concrete(Value::Float(v)))
    }

    /// Concrete value.
    pub fn value(&self) -> f64 {
        self.0.as_float().unwrap_or(0.0)
    }

    fn naive_digits(engine: &mut Engine, a: &SymValue, b: &SymValue) {
        if engine.tracking()
            && engine.library_mode() == LibraryMode::Naive
            && (a.is_symbolic() || b.is_symbolic())
        {
            // Digit-array loops inside BigDecimal arithmetic.
            naive_probe_branches(engine, 6);
        }
    }

    /// `add`.
    pub fn add(&self, engine: &mut Engine, other: &BigDecimal) -> BigDecimal {
        Self::naive_digits(engine, &self.0, &other.0);
        BigDecimal(engine.add(&self.0, &other.0))
    }

    /// `subtract`.
    pub fn sub(&self, engine: &mut Engine, other: &BigDecimal) -> BigDecimal {
        Self::naive_digits(engine, &self.0, &other.0);
        BigDecimal(engine.sub(&self.0, &other.0))
    }

    /// `compareTo(other) ⋈ 0` as a concolic boolean.
    pub fn cmp(&self, engine: &mut Engine, op: CmpOp, other: &BigDecimal) -> SymBool {
        Self::naive_digits(engine, &self.0, &other.0);
        engine.cmp(op, &self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecMode;

    fn engine() -> Engine {
        let mut e = Engine::new(ExecMode::Concolic);
        e.start_concolic();
        e
    }

    #[test]
    fn modeled_string_equals_is_one_theory_atom() {
        let mut e = engine();
        let s = e.make_symbolic("user", Value::str("alice"));
        let t = SymValue::concrete("alice");
        let eq = string_equals(&mut e, &s, &t);
        assert!(eq.concrete);
        assert!(eq.sym.is_some());
        assert_eq!(e.stats().lib_path_conds, 0);
    }

    #[test]
    fn naive_string_equals_branches_per_char() {
        let mut e = engine();
        e.set_library_mode(LibraryMode::Naive);
        let s = e.make_symbolic("user", Value::str("alice"));
        let t = SymValue::concrete("alice");
        let _ = string_equals(&mut e, &s, &t);
        assert_eq!(e.stats().lib_path_conds, 5);
    }

    #[test]
    fn bigdecimal_arithmetic_models_reals() {
        let mut e = engine();
        let price = e.make_symbolic("price", Value::Float(10.5));
        let a = BigDecimal(price);
        let b = BigDecimal::from_f64(2.5);
        let sum = a.add(&mut e, &b);
        assert_eq!(sum.value(), 13.0);
        assert!(sum.0.is_symbolic());
        let c = sum.cmp(&mut e, CmpOp::Ge, &BigDecimal::from_f64(0.0));
        assert!(c.concrete);
        assert!(c.sym.is_some());
    }
}
