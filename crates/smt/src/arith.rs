//! Linear arithmetic over rationals and integers.
//!
//! Decides conjunctions of constraints `e ≤ 0` / `e < 0` for linear `e` by
//! **Fourier–Motzkin elimination** (sound and complete over the rationals)
//! and handles integer variables with **branch-and-bound** on fractional
//! model values. Equalities are split into two inequalities by the lowering
//! pass before reaching this module.
//!
//! Internally a row is a sorted sparse coefficient list plus constant,
//! strictness and provenance (the inputs it follows from), built once per
//! call. Each elimination step counts every variable's lower and upper
//! bounds in one pass over the nonzeros and eliminates the first remaining
//! variable of least `lowers × uppers`; combinations are sorted merges, and
//! `compact` deduplicates parallel rows by a stable sort and a fold (see
//! DESIGN.md, "Arithmetic conflicts"). Every step is exact and
//! deterministic, so models and proof cores are a function of the input.
//!
//! This is the theory backend for the conflict/path conditions WeSEER's
//! deadlock analyzer emits (paper Sec. V-C4): comparisons between SQL
//! parameters, row columns, and constants.

use crate::rational::{Rat, ONE, ZERO};
use std::collections::BTreeMap;

/// A theory variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Display name (diagnostics, model output).
    pub name: String,
    /// Whether the variable ranges over integers.
    pub is_int: bool,
}

/// A linear expression `Σ cᵢ·xᵢ + k`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinExpr {
    /// Coefficients by variable index; zero coefficients are never stored.
    pub coeffs: BTreeMap<usize, Rat>,
    /// Constant offset.
    pub constant: Rat,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: ZERO,
        }
    }

    /// A single variable.
    pub fn var(i: usize) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(i, Rat::int(1));
        LinExpr {
            coeffs,
            constant: ZERO,
        }
    }

    /// A constant.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        for (&v, &c) in &other.coeffs {
            let e = out.coeffs.entry(v).or_insert(ZERO);
            *e = *e + c;
            if e.is_zero() {
                out.coeffs.remove(&v);
            }
        }
        out.constant = out.constant + other.constant;
        out
    }

    /// `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(Rat::int(-1)))
    }

    /// `k * self`.
    pub fn scale(&self, k: Rat) -> LinExpr {
        if k.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            coeffs: self.coeffs.iter().map(|(&v, &c)| (v, c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// Evaluate under a (total) assignment.
    pub fn eval(&self, model: &[Rat]) -> Rat {
        self.coeffs
            .iter()
            .fold(self.constant, |acc, (&v, &c)| acc + c * model[v])
    }
}

/// A constraint `expr ≤ 0` (or `expr < 0` when `strict`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Strict (`<`) vs non-strict (`≤`).
    pub strict: bool,
}

impl Constraint {
    /// `expr ≤ 0`.
    pub fn le0(expr: LinExpr) -> Constraint {
        Constraint {
            expr,
            strict: false,
        }
    }

    /// Whether a model satisfies the constraint.
    pub fn satisfied(&self, model: &[Rat]) -> bool {
        let v = self.expr.eval(model);
        if self.strict {
            v < ZERO
        } else {
            v <= ZERO
        }
    }
}

/// Outcome of an arithmetic decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArithResult {
    /// Satisfiable with the given assignment (indexed like `vars`).
    Sat(Vec<Rat>),
    /// Unsatisfiable, with a *proof core*: the ascending indices of the
    /// input constraints the refutation was derived from. Their conjunction
    /// alone is unsatisfiable; the set is not necessarily minimal.
    Unsat(Vec<usize>),
    /// Resource limit hit (treated as a solver timeout; the paper reports
    /// no deadlock on timeout).
    Unknown,
}

/// Resource limits for the decision procedure.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum number of constraints FM may generate.
    pub max_constraints: usize,
    /// Maximum branch-and-bound depth for integer tightening.
    pub max_branches: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_constraints: 50_000,
            max_branches: 64,
        }
    }
}

/// The input constraints a row was derived from, as a bitset over input
/// indices. Every set in one `solve` call has the same width.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Provenance(Vec<u64>);

impl Provenance {
    fn empty(n_inputs: usize) -> Provenance {
        Provenance(vec![0; n_inputs.div_ceil(64)])
    }

    fn single(n_inputs: usize, i: usize) -> Provenance {
        let mut p = Provenance::empty(n_inputs);
        p.0[i / 64] |= 1 << (i % 64);
        p
    }

    fn union(&self, other: &Provenance) -> Provenance {
        debug_assert_eq!(self.0.len(), other.0.len());
        Provenance(self.0.iter().zip(&other.0).map(|(a, b)| a | b).collect())
    }

    fn indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (w, &word) in self.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// A row of Fourier–Motzkin's working set: `Σ cᵢ·xᵢ + k ≤ 0` (`< 0` when
/// strict), with its coefficients sorted by variable and none of them zero,
/// together with the inputs it follows from. A bound saved for
/// back-substitution has the same shape and reads `x ⋈ Σ cᵢ·xᵢ + k`.
#[derive(Debug, Clone)]
struct Row {
    coeffs: Vec<(usize, Rat)>,
    constant: Rat,
    strict: bool,
    from: Provenance,
}

impl Row {
    /// Multiply coefficients and constant by `k ≠ 0` in place.
    fn scale(&mut self, k: Rat) {
        for (_, c) in &mut self.coeffs {
            *c = *c * k;
        }
        self.constant = self.constant * k;
    }

    /// `self - other`: a merge of the two sorted coefficient lists.
    fn minus(&self, other: &Row) -> Row {
        let (a, b) = (&self.coeffs, &other.coeffs);
        let mut coeffs = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let va = a.get(i).map_or(usize::MAX, |t| t.0);
            let vb = b.get(j).map_or(usize::MAX, |t| t.0);
            if va < vb {
                coeffs.push(a[i]);
                i += 1;
            } else if vb < va {
                coeffs.push((vb, -b[j].1));
                j += 1;
            } else {
                let c = a[i].1 - b[j].1;
                if !c.is_zero() {
                    coeffs.push((va, c));
                }
                (i, j) = (i + 1, j + 1);
            }
        }
        Row {
            coeffs,
            constant: self.constant - other.constant,
            strict: self.strict || other.strict,
            from: self.from.union(&other.from),
        }
    }

    fn eval(&self, model: &[Rat]) -> Rat {
        self.coeffs
            .iter()
            .fold(self.constant, |acc, &(v, c)| acc + c * model[v])
    }
}

/// The inputs as rows, built once per call. Integer tightening: over
/// integer variables with integer coefficients, `e < 0` is equivalent to
/// `e + 1 ≤ 0`. This keeps Fourier–Motzkin's bounds integral (strict chains
/// like x₀ < x₁ < … otherwise produce fractional midpoints and
/// branch-and-bound blow-ups).
fn input_rows(vars: &[VarInfo], cons: &[Constraint]) -> Vec<Row> {
    let row = |(i, c): (usize, &Constraint)| {
        let tighten = c.strict
            && c.expr.constant.is_integer()
            && c.expr
                .coeffs
                .iter()
                .all(|(&v, k)| vars[v].is_int && k.is_integer());
        Row {
            coeffs: c.expr.coeffs.iter().map(|(&v, &k)| (v, k)).collect(),
            constant: c.expr.constant + if tighten { ONE } else { ZERO },
            strict: c.strict && !tighten,
            from: Provenance::single(cons.len(), i),
        }
    };
    cons.iter().enumerate().map(row).collect()
}

/// Decide a conjunction of constraints over `vars`.
pub fn solve(vars: &[VarInfo], cons: &[Constraint], limits: Limits) -> ArithResult {
    match solve_rec(vars, input_rows(vars, cons), cons.len(), limits, 0) {
        FmResult::Sat(m) => ArithResult::Sat(m),
        FmResult::Unsat(from) => ArithResult::Unsat(from.indices()),
        FmResult::Unknown => ArithResult::Unknown,
    }
}

/// A minimal unsat core and what finding it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimalCore {
    /// Ascending indices into the input: their conjunction is
    /// unsatisfiable, and dropping any one of them makes `solve` stop
    /// answering `Unsat` within the limits.
    pub kept: Vec<usize>,
    /// `solve` calls made.
    pub solves: u64,
    /// Trials that ran out of budget (`Unknown`); their literal is kept.
    pub budget_exhausted: u64,
}

/// Deletion-based unsat-core minimization guided by proof cores.
///
/// `proof` is the core `solve` returned for `cons`. Candidates are tried
/// for deletion in index order, as in the plain loop, but a candidate
/// outside the current proof core is dropped without a trial: the proof
/// does not use it, so the set without it is still unsatisfiable and the
/// trial could only have answered `Unsat`. Each real trial that answers
/// `Unsat` brings a fresh (usually smaller) proof core. Every keep/drop
/// decision is therefore the one the plain loop makes, and so is the
/// result.
///
/// The input rows are built once; a trial clones the ones it keeps. Their
/// provenance names indices into `cons`, so a trial's proof core needs no
/// renumbering.
pub fn minimize_core(
    vars: &[VarInfo],
    cons: &[Constraint],
    proof: &[usize],
    limits: Limits,
) -> MinimalCore {
    let rows = input_rows(vars, cons);
    let mut keep: Vec<usize> = (0..cons.len()).collect();
    let mut in_proof = vec![false; cons.len()];
    for &k in proof {
        in_proof[k] = true;
    }
    let (mut solves, mut budget_exhausted) = (0, 0);
    let mut i = 0;
    while i < keep.len() {
        if !in_proof[keep[i]] {
            keep.remove(i);
            continue;
        }
        // The trial still holds the unvisited candidates outside the
        // proof, exactly as the plain loop's would: a refutation of it may
        // go through them.
        let trial: Vec<Row> = keep
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, &k)| rows[k].clone())
            .collect();
        solves += 1;
        match solve_rec(vars, trial, cons.len(), limits, 0) {
            FmResult::Unsat(from) => {
                keep.remove(i);
                in_proof.fill(false);
                for k in from.indices() {
                    in_proof[k] = true;
                }
            }
            FmResult::Unknown => {
                budget_exhausted += 1;
                i += 1;
            }
            FmResult::Sat(_) => i += 1,
        }
    }
    MinimalCore {
        kept: keep,
        solves,
        budget_exhausted,
    }
}

fn solve_rec(
    vars: &[VarInfo],
    rows: Vec<Row>,
    n_inputs: usize,
    limits: Limits,
    depth: usize,
) -> FmResult {
    let model = match fm_solve(vars.len(), &rows, limits) {
        FmResult::Sat(m) => m,
        refuted_or_unknown => return refuted_or_unknown,
    };
    // Branch-and-bound: fix the first integer variable with a fractional
    // value.
    let Some(i) = (0..vars.len()).find(|&i| vars[i].is_int && !model[i].is_integer()) else {
        return FmResult::Sat(model);
    };
    if depth >= limits.max_branches {
        return FmResult::Unknown;
    }
    // The bounds stay in `i128`: a model value past `i64` must still be
    // cut off.
    let floor = model[i].floor();
    // A branch row is no input, so it starts with empty provenance: the
    // two branches together cover every integer, and the union of their
    // refutations' inputs is what rules the integers out.
    let branch = |coef: i64, constant: i128| Row {
        coeffs: vec![(i, Rat::int(coef))],
        constant: Rat::new(constant, 1),
        strict: false,
        from: Provenance::empty(n_inputs),
    };
    // Branch 1: xᵢ ≤ floor, i.e. xᵢ - floor ≤ 0.
    let mut lo = rows.clone();
    lo.push(branch(1, -floor));
    let lo_from = match solve_rec(vars, lo, n_inputs, limits, depth + 1) {
        FmResult::Unsat(from) => from,
        sat_or_unknown => return sat_or_unknown,
    };
    // Branch 2: xᵢ ≥ floor + 1, i.e. (floor + 1) - xᵢ ≤ 0.
    let mut hi = rows;
    hi.push(branch(-1, floor + 1));
    match solve_rec(vars, hi, n_inputs, limits, depth + 1) {
        FmResult::Unsat(hi_from) => FmResult::Unsat(lo_from.union(&hi_from)),
        sat_or_unknown => sat_or_unknown,
    }
}

enum FmResult {
    Sat(Vec<Rat>),
    /// Refuted, from these inputs.
    Unsat(Provenance),
    Unknown,
}

/// Normalize, deduplicate, and subsume a constraint set. Fourier–Motzkin
/// on equality cliques (x₁ = x₂ = … = xₙ, common in conflict conditions)
/// otherwise re-derives the same parallel constraints combinatorially and
/// blows past the resource limit.
///
/// Rows are scaled so their leading coefficient is ±1 (only those whose
/// leading coefficient is not ±1 already need it); for equal coefficient
/// vectors only the tightest bound survives (largest constant; strict beats
/// non-strict at equal constants; the first seen on an exact tie) and
/// brings its own provenance. Trivially true ground rows are dropped; the
/// first trivially false one short-circuits with its provenance.
///
/// The survivors come from a stable sort by coefficient vector and one fold
/// over each run of equal vectors: the run is in input order, so "replace
/// only when strictly tighter" keeps the first of equally tight rows. The
/// output is ordered by coefficient vector, so it — and with it which of
/// two equally tight parents a refutation names — is a function of the
/// input alone. Compacting is idempotent, and any subsequence of a
/// compacted set is itself compacted.
fn compact(rows: Vec<Row>) -> Result<Vec<Row>, Provenance> {
    let mut out = Vec::with_capacity(rows.len());
    for mut row in rows {
        let Some(&(_, lead)) = row.coeffs.first() else {
            let k = row.constant;
            if (row.strict && k >= ZERO) || k > ZERO {
                return Err(row.from);
            }
            continue; // trivially true
        };
        if lead != ONE && lead != -ONE {
            // Positive scale only (preserves the inequality direction).
            let scale = lead.recip();
            row.scale(if scale.signum() < 0 { -scale } else { scale });
        }
        out.push(row);
    }
    out.sort_by(|a, b| a.coeffs.cmp(&b.coeffs));
    // `dedup_by` hands over (later, kept): swap a tighter later row in,
    // then drop whichever ends up second.
    out.dedup_by(|later, kept| {
        if later.coeffs != kept.coeffs {
            return false;
        }
        if later.constant > kept.constant
            || (later.constant == kept.constant && later.strict && !kept.strict)
        {
            std::mem::swap(later, kept);
        }
        true
    });
    Ok(out)
}

/// One variable's bound rows saved for back-substitution: `lower ≤ var`
/// and `var ≤ upper` (`<` when strict).
struct Eliminated {
    var: usize,
    lowers: Vec<Row>,
    uppers: Vec<Row>,
}

fn fm_solve(n_vars: usize, input: &[Row], limits: Limits) -> FmResult {
    let mut eliminated: Vec<Eliminated> = Vec::new();
    let mut rows = match compact(input.to_vec()) {
        Ok(rows) => rows,
        Err(from) => return FmResult::Unsat(from),
    };

    // Eliminate variables in a greedy order that minimizes the number of
    // generated constraints (lowers × uppers), the classic FM heuristic.
    // One pass over the rows' nonzeros counts every variable's bounds; the
    // first remaining variable of least cost goes next.
    let mut remaining: Vec<usize> = (0..n_vars).collect();
    let mut counts = vec![(0usize, 0usize); n_vars];
    while !remaining.is_empty() {
        counts.fill((0, 0));
        for &(v, k) in rows.iter().flat_map(|row| &row.coeffs) {
            if k.signum() > 0 {
                counts[v].1 += 1;
            } else {
                counts[v].0 += 1;
            }
        }
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &v)| (pos, counts[v].0 * counts[v].1))
            .min_by_key(|&(_, cost)| cost)
            .expect("remaining non-empty");
        let var = remaining.swap_remove(pos);
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        // A variable no row mentions leaves the rows as they are.
        if counts[var] != (0, 0) {
            let mut rest = Vec::new();
            for mut row in rows {
                let Ok(at) = row.coeffs.binary_search_by_key(&var, |&(v, _)| v) else {
                    rest.push(row);
                    continue;
                };
                // expr = coef*x + r ⋈ 0, so x ⋈ -r/coef: an upper bound for
                // positive coef, a lower bound (flipped side) for negative.
                let (_, coef) = row.coeffs.remove(at);
                row.scale(-coef.recip());
                if coef.signum() > 0 {
                    uppers.push(row);
                } else {
                    lowers.push(row);
                }
            }
            // Pairwise combinations: lower ≤ x ≤ upper ⇒ lower - upper ≤ 0.
            for lo in &lowers {
                for hi in &uppers {
                    rest.push(lo.minus(hi));
                    if rest.len() > limits.max_constraints {
                        return FmResult::Unknown;
                    }
                }
            }
            // With no combination added, `rest` is a subsequence of a
            // compacted set and needs no second pass.
            rows = if lowers.is_empty() || uppers.is_empty() {
                rest
            } else {
                match compact(rest) {
                    Ok(rows) => rows,
                    Err(from) => return FmResult::Unsat(from),
                }
            };
        }
        eliminated.push(Eliminated {
            var,
            lowers,
            uppers,
        });
    }
    // Compacting removed every ground row as it appeared, so none is left
    // to check.
    debug_assert!(rows.is_empty());

    // Back-substitute in reverse elimination order.
    let mut model = vec![ZERO; n_vars];
    for e in eliminated.iter().rev() {
        let lo = e
            .lowers
            .iter()
            .map(|b| (b.eval(&model), b.strict))
            .max_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let hi = e
            .uppers
            .iter()
            .map(|b| (b.eval(&model), b.strict))
            .min_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        model[e.var] = match (lo, hi) {
            (None, None) => ZERO,
            (Some((l, strict)), None) => {
                if strict {
                    l + ONE
                } else {
                    l
                }
            }
            (None, Some((h, strict))) => {
                if strict {
                    h - ONE
                } else {
                    h
                }
            }
            (Some((l, sl)), Some((h, sh))) => {
                if l == h {
                    // FM guarantees the interval is non-empty; equal bounds
                    // can only both be non-strict.
                    l
                } else if !sl {
                    // Prefer integral-friendly endpoints.
                    l
                } else if !sh {
                    h
                } else {
                    Rat::midpoint(l, h)
                }
            }
        };
        // Prefer an integer inside the interval when one exists — this cuts
        // most branch-and-bound work.
        if !model[e.var].is_integer() {
            let cand = Rat::new(model[e.var].ceil(), 1);
            let fits_lo = lo.is_none_or(|(l, s)| if s { l < cand } else { l <= cand });
            let fits_hi = hi.is_none_or(|(h, s)| if s { cand < h } else { cand <= h });
            if fits_lo && fits_hi {
                model[e.var] = cand;
            }
        }
    }
    FmResult::Sat(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn int_vars(n: usize) -> Vec<VarInfo> {
        (0..n)
            .map(|i| VarInfo {
                name: format!("x{i}"),
                is_int: true,
            })
            .collect()
    }

    fn real_vars(n: usize) -> Vec<VarInfo> {
        (0..n)
            .map(|i| VarInfo {
                name: format!("r{i}"),
                is_int: false,
            })
            .collect()
    }

    /// Build `a·x + b·y + k ≤ 0` (or `<`).
    fn con(terms: &[(usize, i64)], k: i64, strict: bool) -> Constraint {
        let mut e = LinExpr::constant(Rat::int(k));
        for &(v, c) in terms {
            e = e.add(&LinExpr::var(v).scale(Rat::int(c)));
        }
        Constraint { expr: e, strict }
    }

    #[test]
    fn simple_feasible() {
        // x ≥ 3 ∧ x ≤ 5  ⇔  3 - x ≤ 0 ∧ x - 5 ≤ 0
        let cons = vec![con(&[(0, -1)], 3, false), con(&[(0, 1)], -5, false)];
        match solve(&int_vars(1), &cons, Limits::default()) {
            ArithResult::Sat(m) => {
                assert!(cons.iter().all(|c| c.satisfied(&m)));
                assert!(m[0].is_integer());
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn simple_infeasible() {
        // x < 3 ∧ x > 5
        let cons = vec![con(&[(0, 1)], -3, true), con(&[(0, -1)], 5, true)];
        assert_eq!(
            solve(&int_vars(1), &cons, Limits::default()),
            ArithResult::Unsat(vec![0, 1])
        );
    }

    #[test]
    fn open_interval_real_sat_int_unsat() {
        // 0 < x < 1
        let cons = vec![con(&[(0, -1)], 0, true), con(&[(0, 1)], -1, true)];
        assert!(matches!(
            solve(&real_vars(1), &cons, Limits::default()),
            ArithResult::Sat(_)
        ));
        assert_eq!(
            solve(&int_vars(1), &cons, Limits::default()),
            ArithResult::Unsat(vec![0, 1])
        );
    }

    #[test]
    fn equality_via_two_bounds() {
        // 2x = 1 over ints: 2x - 1 ≤ 0 ∧ 1 - 2x ≤ 0
        let cons = vec![con(&[(0, 2)], -1, false), con(&[(0, -2)], 1, false)];
        assert_eq!(
            solve(&int_vars(1), &cons, Limits::default()),
            ArithResult::Unsat(vec![0, 1])
        );
        match solve(&real_vars(1), &cons, Limits::default()) {
            ArithResult::Sat(m) => assert_eq!(m[0], Rat::new(1, 2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chained_system() {
        // x ≤ y ∧ y ≤ z ∧ z ≤ x ∧ x ≥ 7 → all equal ≥ 7
        let cons = vec![
            con(&[(0, 1), (1, -1)], 0, false),
            con(&[(1, 1), (2, -1)], 0, false),
            con(&[(2, 1), (0, -1)], 0, false),
            con(&[(0, -1)], 7, false),
        ];
        match solve(&int_vars(3), &cons, Limits::default()) {
            ArithResult::Sat(m) => {
                assert!(cons.iter().all(|c| c.satisfied(&m)));
                assert_eq!(m[0], m[1]);
                assert_eq!(m[1], m[2]);
                assert!(m[0] >= Rat::int(7));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn strict_chain_unsat() {
        // x < y ∧ y < x
        let cons = vec![
            con(&[(0, 1), (1, -1)], 0, true),
            con(&[(1, 1), (0, -1)], 0, true),
        ];
        assert_eq!(
            solve(&real_vars(2), &cons, Limits::default()),
            ArithResult::Unsat(vec![0, 1])
        );
    }

    #[test]
    fn unconstrained_vars_default() {
        match solve(&int_vars(2), &[], Limits::default()) {
            ArithResult::Sat(m) => assert_eq!(m, vec![ZERO, ZERO]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn finish_order_conflict_shape() {
        // The Fig. 9-style condition:
        //   qty ≥ oi_qty  ∧  oi_qty ≥ 1  ∧  qty' = qty - oi_qty  ∧  qty' ≥ 0
        // vars: 0=qty, 1=oi_qty, 2=qty'
        let cons = vec![
            con(&[(0, -1), (1, 1)], 0, false),          // oi_qty - qty ≤ 0
            con(&[(1, -1)], 1, false),                  // 1 - oi_qty ≤ 0
            con(&[(2, 1), (0, -1), (1, 1)], 0, false),  // qty' - qty + oi_qty ≤ 0
            con(&[(2, -1), (0, 1), (1, -1)], 0, false), // and ≥ → equality
            con(&[(2, -1)], 0, false),                  // -qty' ≤ 0
        ];
        match solve(&int_vars(3), &cons, Limits::default()) {
            ArithResult::Sat(m) => {
                assert!(cons.iter().all(|c| c.satisfied(&m)));
                assert_eq!(m[2], m[0] - m[1]);
            }
            other => panic!("{other:?}"),
        }
    }

    /// The plain deletion loop `minimize_core` must agree with: one
    /// from-scratch solve per candidate, nothing skipped. Also returns how
    /// many trials ran out of budget.
    fn minimize_by_deletion(
        vars: &[VarInfo],
        cons: &[Constraint],
        limits: Limits,
    ) -> (Vec<usize>, u64) {
        let mut keep: Vec<usize> = (0..cons.len()).collect();
        let mut unknowns = 0;
        let mut i = 0;
        while i < keep.len() {
            let trial: Vec<Constraint> = keep
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, &k)| cons[k].clone())
                .collect();
            match solve(vars, &trial, limits) {
                ArithResult::Unsat(_) => {
                    keep.remove(i);
                }
                ArithResult::Unknown => {
                    unknowns += 1;
                    i += 1;
                }
                ArithResult::Sat(_) => i += 1,
            }
        }
        (keep, unknowns)
    }

    #[test]
    fn integer_refutation_unites_both_branches() {
        // 2x = 2y + 1 has rational solutions only; 0 ≤ x ≤ 3 bounds the
        // branching. Every constraint takes part in ruling the integers
        // out, the unrelated z ≤ 5 does not.
        let cons = vec![
            con(&[(0, 2), (1, -2)], -1, false),
            con(&[(2, 1)], -5, false),
            con(&[(0, -2), (1, 2)], 1, false),
            con(&[(0, -1)], 0, false),
            con(&[(0, 1)], -3, false),
        ];
        assert_eq!(
            solve(&int_vars(3), &cons, Limits::default()),
            ArithResult::Unsat(vec![0, 2, 3, 4])
        );
    }

    /// One free-form row: terms, constant, strictness.
    type RawRow = (Vec<(usize, i64)>, i64, bool);

    /// A random system: variable kinds, free-form constraints, an equality
    /// clique and a strict chain (closed into a cycle one time in four).
    /// About two in three come out unsatisfiable, with minimal cores of one
    /// to nine constraints.
    fn system() -> impl Strategy<Value = (Vec<VarInfo>, Vec<Constraint>)> {
        (
            proptest::collection::vec(any::<bool>(), 1..13),
            proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..12, -3i64..4), 1..4),
                    -12i64..3,
                    any::<bool>(),
                ),
                0..22,
            ),
            proptest::collection::vec(0usize..12, 0..6),
            proptest::collection::vec(0usize..12, 0..6),
            0u8..4,
        )
            .prop_map(|(kinds, raw, clique, chain, closed)| {
                build_system(&kinds, &raw, &clique, chain, closed == 0)
            })
    }

    fn build_system(
        kinds: &[bool],
        raw: &[RawRow],
        clique: &[usize],
        chain: Vec<usize>,
        closed: bool,
    ) -> (Vec<VarInfo>, Vec<Constraint>) {
        let n = kinds.len();
        let vars: Vec<VarInfo> = kinds
            .iter()
            .enumerate()
            .map(|(i, &is_int)| VarInfo {
                name: format!("v{i}"),
                is_int,
            })
            .collect();
        let mut cons = Vec::new();
        for (terms, k, strict) in raw {
            let terms: Vec<(usize, i64)> = terms
                .iter()
                .filter(|&&(_, c)| c != 0)
                .map(|&(v, c)| (v % n, c))
                .collect();
            cons.push(con(&terms, *k, *strict));
        }
        for w in clique.windows(2) {
            let (a, b) = (w[0] % n, w[1] % n);
            cons.push(con(&[(a, 1), (b, -1)], 0, false));
            cons.push(con(&[(b, 1), (a, -1)], 0, false));
        }
        let mut links: Vec<usize> = chain.iter().map(|v| v % n).collect();
        if closed && links.len() > 1 {
            links.push(links[0]);
        }
        for w in links.windows(2) {
            cons.push(con(&[(w[0], 1), (w[1], -1)], 0, true));
        }
        // Interleave the planted structure with the free-form rows.
        cons.reverse();
        cons.truncate(40);
        (vars, cons)
    }

    #[test]
    fn branching_on_values_past_i64_still_cuts() {
        // 2x = 2⁶⁵ + 1 has one rational solution and no integer one. The
        // branch bounds ⌊x⌋ and ⌊x⌋ + 1 lie past `i64`; the two branches
        // must still cut the fractional value off.
        let big = LinExpr::constant(Rat::new((1 << 65) + 1, 1));
        let two_x = LinExpr::var(0).scale(Rat::int(2));
        let cons = vec![
            Constraint::le0(two_x.sub(&big)),
            Constraint::le0(big.sub(&two_x)),
        ];
        assert_eq!(
            solve(&int_vars(1), &cons, Limits::default()),
            ArithResult::Unsat(vec![0, 1])
        );
    }

    /// FNV-1a: a digest that does not depend on the standard library's
    /// hasher.
    struct Fnv(u64);

    impl Fnv {
        fn int(&mut self, v: i128) {
            for b in v.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }

        fn ints(&mut self, vs: impl IntoIterator<Item = i128>) {
            let mut n = 0;
            for v in vs {
                self.int(v);
                n += 1;
            }
            self.int(n);
        }
    }

    /// One corpus system in the shapes of [`system`]; one in four has
    /// constants anywhere in ±2³¹.
    fn corpus_system(rng: &mut TestRng) -> (Vec<VarInfo>, Vec<Constraint>) {
        let mut below = |n: u64| rng.below(n) as i64;
        let kinds: Vec<bool> = (0..1 + below(12)).map(|_| below(2) == 0).collect();
        let wide = below(4) == 0;
        let raw: Vec<RawRow> = (0..below(22))
            .map(|_| {
                let terms = (0..1 + below(3))
                    .map(|_| (below(12) as usize, below(7) - 3))
                    .collect();
                let k = if wide {
                    below(1 << 32) - (1 << 31)
                } else {
                    below(15) - 12
                };
                (terms, k, below(2) == 0)
            })
            .collect();
        let clique: Vec<usize> = (0..below(6)).map(|_| below(12) as usize).collect();
        let chain: Vec<usize> = (0..below(6)).map(|_| below(12) as usize).collect();
        let closed = below(4) == 0;
        build_system(&kinds, &raw, &clique, chain, closed)
    }

    /// Every `solve` answer (tag, model, proof core) and every
    /// `minimize_core` answer (kept set, solve count) over a fixed-seed
    /// corpus, folded into one digest. The kernel must make exactly the
    /// decisions it made when the digest was recorded: a different
    /// elimination order, tie-break or provenance changes some model or
    /// core and fails here.
    #[test]
    fn outputs_match_the_pinned_corpus_digest() {
        let mut rng = TestRng::new(0x5eed_f00d);
        let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
        let limits = Limits::default();
        for _ in 0..3000 {
            let (vars, cons) = corpus_system(&mut rng);
            match solve(&vars, &cons, limits) {
                ArithResult::Sat(model) => {
                    digest.int(0);
                    digest.ints(model.iter().flat_map(|r| [r.num(), r.den()]));
                }
                ArithResult::Unsat(proof) => {
                    digest.int(1);
                    digest.ints(proof.iter().map(|&k| k as i128));
                    let core = minimize_core(&vars, &cons, &proof, limits);
                    digest.ints(core.kept.iter().map(|&k| k as i128));
                    digest.int(core.solves as i128);
                    digest.int(core.budget_exhausted as i128);
                }
                ArithResult::Unknown => digest.int(2),
            }
        }
        assert_eq!(digest.0, 16_893_515_300_852_131_427);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 2048 }
        ))]

        /// A proof core is a sound explanation (its constraints alone are
        /// refuted), and minimizing from it ends on the very core the
        /// plain deletion loop finds.
        #[test]
        fn proof_cores_refute_and_minimize_like_plain_deletion(
            sys in system(),
        ) {
            let (vars, cons) = sys;
            let limits = Limits::default();
            if let ArithResult::Unsat(proof) = solve(&vars, &cons, limits) {
                prop_assert!(proof.windows(2).all(|w| w[0] < w[1]), "{proof:?}");
                prop_assert!(proof.iter().all(|&k| k < cons.len()), "{proof:?}");
                let alone: Vec<Constraint> = proof.iter().map(|&k| cons[k].clone()).collect();
                prop_assert!(
                    matches!(solve(&vars, &alone, limits), ArithResult::Unsat(_)),
                    "proof core {proof:?} is not refuted alone"
                );

                let guided = minimize_core(&vars, &cons, &proof, limits);
                let (plain, unknowns) = minimize_by_deletion(&vars, &cons, limits);
                prop_assert!(guided.budget_exhausted <= unknowns);
                // A trial the plain loop could not finish is one the guided
                // loop may never have run; the two are only comparable
                // when every trial was decided.
                if unknowns == 0 {
                    prop_assert_eq!(&guided.kept, &plain);
                    prop_assert!(guided.solves <= cons.len() as u64);
                }
            }
        }
    }

    proptest! {
        /// Constraints generated to be satisfied by a hidden assignment
        /// must be found SAT, and the returned model must satisfy them.
        #[test]
        fn planted_assignment_found(
            hidden in proptest::collection::vec(-50i64..50, 1..5),
            raw in proptest::collection::vec(
                (proptest::collection::vec((0usize..5, -4i64..5), 1..4), any::<bool>()),
                0..12,
            ),
        ) {
            let n = hidden.len();
            let vars = int_vars(n);
            let mut cons = Vec::new();
            for (terms, strict) in raw {
                let mut e = LinExpr::zero();
                for (v, c) in terms {
                    if c != 0 {
                        e = e.add(&LinExpr::var(v % n).scale(Rat::int(c)));
                    }
                }
                // Choose the offset so the hidden point satisfies it.
                let hidden_rats: Vec<Rat> = hidden.iter().map(|&h| Rat::int(h)).collect();
                let at_hidden = e.eval(&hidden_rats);
                let slack = if strict { Rat::int(1) } else { ZERO };
                let expr = e.sub(&LinExpr::constant(at_hidden + slack));
                cons.push(Constraint { expr, strict });
            }
            match solve(&vars, &cons, Limits::default()) {
                ArithResult::Sat(m) => {
                    prop_assert!(cons.iter().all(|c| c.satisfied(&m)));
                    for (i, v) in vars.iter().enumerate() {
                        if v.is_int {
                            prop_assert!(m[i].is_integer());
                        }
                    }
                }
                other => prop_assert!(false, "planted-SAT instance reported {other:?}"),
            }
        }

        /// Whatever the system, a SAT answer must carry a genuine model.
        #[test]
        fn sat_models_verify(
            raw in proptest::collection::vec(
                (proptest::collection::vec((0usize..4, -3i64..4), 1..4), -10i64..10, any::<bool>()),
                0..10,
            ),
        ) {
            let n = 4;
            let vars = int_vars(n);
            let mut cons = Vec::new();
            for (terms, k, strict) in raw {
                let mut e = LinExpr::constant(Rat::int(k));
                for (v, c) in terms {
                    if c != 0 {
                        e = e.add(&LinExpr::var(v % n).scale(Rat::int(c)));
                    }
                }
                cons.push(Constraint { expr: e, strict });
            }
            if let ArithResult::Sat(m) = solve(&vars, &cons, Limits::default()) {
                prop_assert!(cons.iter().all(|c| c.satisfied(&m)));
            }
        }
    }
}
