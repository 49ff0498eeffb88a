//! Exact rational arithmetic for the linear-arithmetic theory solver.
//!
//! `Rat` is an always-normalized fraction of `i128`s. The Fourier–Motzkin
//! elimination in [`crate::arith`] multiplies coefficients pairwise, so exact
//! arithmetic is required — floats would make SAT/UNSAT answers unsound.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A normalized rational number (`den > 0`, `gcd(|num|, den) == 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// The rational 0.
pub const ZERO: Rat = Rat { num: 0, den: 1 };
/// The rational 1.
pub const ONE: Rat = Rat { num: 1, den: 1 };

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

impl Rat {
    /// Construct `num/den`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics when `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        // Integer fast path: nearly every value the theory solver forms
        // (difference-bound potentials, FM coefficients) has denominator 1,
        // and `n/1` is already normal — skip the i128 gcd and divisions.
        if den == 1 {
            return Rat { num, den };
        }
        Rat::normalizing(num, den)
    }

    /// `num/den` for any non-zero `den`, through the gcd.
    fn normalizing(num: i128, den: i128) -> Rat {
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The integer `n` as a rational.
    pub fn int(n: i64) -> Rat {
        Rat {
            num: n as i128,
            den: 1,
        }
    }

    /// Approximate a finite `f64` (used only to import float constants
    /// from the concolic layer; denominators are powers of two).
    pub fn from_f64(f: f64) -> Rat {
        assert!(f.is_finite(), "cannot represent non-finite float");
        // Scale by 2^20 — plenty for the currency/quantity values the
        // workloads use, without risking i128 overflow in FM pivots.
        const SCALE: i128 = 1 << 20;
        Rat::new((f * SCALE as f64).round() as i128, SCALE)
    }

    /// Numerator (after normalization).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// Whether this is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether the value is a whole number.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Sign: -1, 0, or 1.
    pub fn signum(&self) -> i32 {
        self.num.signum() as i32
    }

    /// Largest integer ≤ self.
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer ≥ self.
    pub fn ceil(&self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(&self) -> Rat {
        Rat::new(self.den, self.num)
    }

    /// Convert to `f64` (for model output).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Midpoint of two rationals.
    pub fn midpoint(a: Rat, b: Rat) -> Rat {
        (a + b) * Rat::new(1, 2)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, o: Rat) -> Rat {
        Rat::new(self.num * o.den + o.num * self.den, self.den * o.den)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, o: Rat) -> Rat {
        Rat::new(self.num * o.den - o.num * self.den, self.den * o.den)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, o: Rat) -> Rat {
        Rat::new(self.num * o.num, self.den * o.den)
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, o: Rat) -> Rat {
        assert!(!o.is_zero(), "division by zero rational");
        Rat::new(self.num * o.den, self.den * o.num)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    #[test]
    fn ordering_and_rounding() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < ZERO);
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    fn from_f64_roundtrip() {
        assert_eq!(Rat::from_f64(0.5), Rat::new(1, 2));
        assert_eq!(Rat::from_f64(3.0), Rat::int(3));
        assert!((Rat::from_f64(0.1).to_f64() - 0.1).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn midpoint_between() {
        let m = Rat::midpoint(Rat::int(1), Rat::int(2));
        assert!(Rat::int(1) < m && m < Rat::int(2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 4096 }
        ))]

        /// The integer fast path changes no value: every operator, on
        /// integer-valued and mixed operands alike, agrees with the always
        /// normalizing construction and leaves a normalized result.
        #[test]
        fn fast_path_agrees_with_normalizing(
            a in -1000i128..1000,
            b in prop_oneof![Just(1i128), 1i128..50],
            c in -1000i128..1000,
            d in prop_oneof![Just(1i128), 1i128..50],
        ) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            prop_assert_eq!(x, Rat::normalizing(a, b));
            let mut results = vec![
                (x + y, Rat::normalizing(x.num * y.den + y.num * x.den, x.den * y.den)),
                (x - y, Rat::normalizing(x.num * y.den - y.num * x.den, x.den * y.den)),
                (x * y, Rat::normalizing(x.num * y.num, x.den * y.den)),
            ];
            if !y.is_zero() {
                results.push((x / y, Rat::normalizing(x.num * y.den, x.den * y.num)));
                results.push((y.recip(), Rat::normalizing(y.den, y.num)));
            }
            for (got, want) in results {
                prop_assert_eq!(got, want);
                prop_assert!(got.den > 0 && gcd(got.num, got.den) == 1, "{got:?}");
            }
            prop_assert_eq!(x.cmp(&y), (x - y).signum().cmp(&0));
            prop_assert_eq!(x == y, a * d == c * b);
        }
    }

    proptest! {
        #[test]
        fn add_commutes(a in -1000i128..1000, b in 1i128..50, c in -1000i128..1000, d in 1i128..50) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            prop_assert_eq!(x + y, y + x);
            prop_assert_eq!((x - y) + y, x);
        }

        #[test]
        fn ordering_consistent_with_f64(a in -1000i128..1000, b in 1i128..50, c in -1000i128..1000, d in 1i128..50) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            if x < y {
                prop_assert!(x.to_f64() <= y.to_f64());
            }
        }

        #[test]
        fn floor_ceil_bracket(a in -10000i128..10000, b in 1i128..100) {
            let x = Rat::new(a, b);
            prop_assert!(Rat::int(x.floor() as i64) <= x);
            prop_assert!(x <= Rat::int(x.ceil() as i64));
            prop_assert!(x.ceil() - x.floor() <= 1);
        }
    }
}
