//! Tier 1 of the tiered solving pipeline: an abstract model finder.
//!
//! [`presolve`] finds a model for many of the analyzer's queries without
//! ever touching CNF lowering or the DPLL loop, by combining two cheap
//! abstract domains over the conjunctive skeleton of the formula:
//!
//! * **difference bounds** — every unit-coefficient numeric atom
//!   (`x − y ⋈ c`, `x ⋈ c`, and equalities, which contribute both
//!   directions) becomes an edge in a constraint graph with a designated
//!   zero node; shortest-path relaxation either finds a negative cycle
//!   (this constraint set has no candidate) or yields potentials that
//!   double as a candidate assignment.
//!   Interval bounds are exactly the zero-node edges, and strict bounds
//!   between integer variables are tightened to closed integer bounds
//!   first, so the integer candidate respects `x < 3 ∧ x > 1`.
//! * **equality congruence** — string and boolean literals go through a
//!   union–find (strings reuse [`crate::strings::solve`]); a class pinned
//!   to two different literals, or a disequality inside one class, has no
//!   candidate either.
//!
//! The only verdict is **SAT**, claimed only when the constructed
//! candidate assignment *evaluates the formula to true*
//! ([`Model::satisfies`]). The model is the proof, so tier 1 is sound by
//! construction — no agreement check needed — and it can handle formulas
//! beyond the pure-conjunctive fragment: each disjunctive conjunct is
//! satisfied by enumerating a bounded number of arm selections
//! ([`MAX_COMBOS`]) and letting the gate reject bad guesses.
//!
//! Anything else — including a formula whose implied constraints are
//! already infeasible — returns `None` and goes to the full solver, the
//! one source of UNSAT verdicts (DESIGN.md, "Tier-1 soundness invariant").
//!
//! One query asks for up to `MAX_COMBOS` + 1 candidates, each the implied
//! constraints plus a few arms plus the integer splits of its disequality
//! repair, so the constraint graph is built once per query and kept in an
//! incremental store (`DiffStore`): adding an edge re-relaxes only what
//! it moves, and everything past the implied base is undone before the
//! next candidate. Two properties make that invisible from outside:
//!
//! * **Potentials are canonical.** The store keeps them equal to the
//!   *exact* shortest distances from a virtual source, and those are a
//!   function of the edge set alone — not of insertion order, node
//!   numbering or relaxation order. A candidate therefore does not depend
//!   on how its constraint set was reached (from scratch, or by extending
//!   and rolling back a shared store), and neither does any model,
//!   verdict or witness downstream.
//! * **A refused constraint leaves nothing behind.** An `add` that would
//!   close a negative cycle restores the potentials, the edge list and
//!   the node table to their state before the call, and arms and splits
//!   are undone as a group, so a speculative choice can never leak into
//!   the base store the next candidate starts from.

use crate::model::{Model, ModelKey, ModelValue};
use crate::rational::{Rat, ZERO};
use crate::strings::{self, StrResult, StrTerm};
use crate::term::{CmpKind, Ctx, Sort, TermId, TermKind};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Cap on disjunction-arm selections tried for a SAT witness. Keeps the
/// pre-solver linear-ish on formulas with many multi-arm conflict
/// conditions; anything past the cap falls through to the full solver.
pub const MAX_COMBOS: usize = 64;

/// A model of `assertion`, if the abstract domains find one. Never builds
/// terms, so the context is shared.
pub fn presolve(ctx: &Ctx, assertion: TermId) -> Option<Model> {
    presolve_with_cap(ctx, assertion).0
}

/// [`presolve`], also reporting whether no model was found because the
/// arm enumeration stopped at [`MAX_COMBOS`] with combinations left
/// untried (the solver wiring counts these as `smt.fastpath.t1_capped`).
pub(crate) fn presolve_with_cap(ctx: &Ctx, assertion: TermId) -> (Option<Model>, bool) {
    let mut lits = Lits::default();
    let mut disjs: Vec<Vec<(TermId, bool)>> = Vec::new();
    collect(ctx, assertion, false, &mut lits, &mut Some(&mut disjs));

    // Base pass over the implied conjunctive skeleton: every candidate
    // extends it, so if it is infeasible there is none (the full solver
    // will say why). Everything added to the store after `base` is a
    // choice (an arm, an integer split) and is rolled back before the
    // next one is tried.
    let mut store = DiffStore::new();
    if solve_scalars(&lits).is_none() || !store.add_all(ctx, &lits.cons) {
        return (None, false);
    }
    let base = store.mark();

    let vars = VarSets::collect(ctx, assertion);
    // The candidate gate: a candidate is returned only as a total model
    // that evaluates the formula to true.
    let gate = |cand: Candidate| {
        build_model(ctx, &vars, &cand).filter(|model| model.satisfies(ctx, assertion))
    };

    // Pass 1: greedy arm selection. Walk the disjunctions in
    // order, asserting the first arm whose literals keep the accumulated
    // set feasible; scales to formulas with many disjunctive conjuncts
    // where exhaustive combination enumeration cannot.
    {
        let mut chosen = lits.clone();
        let mut solvable = true;
        for arms in &disjs {
            let picked = arms.iter().find_map(|&(arm, arm_neg)| {
                let mut with_arm = chosen.clone();
                collect(ctx, arm, arm_neg, &mut with_arm, &mut None);
                let feasible = solve_scalars(&with_arm).is_some()
                    && store.add_all(ctx, &with_arm.cons[chosen.cons.len()..]);
                feasible.then_some(with_arm)
            });
            match picked {
                Some(with_arm) => chosen = with_arm,
                None => {
                    solvable = false;
                    break;
                }
            }
        }
        if solvable {
            let held = chosen.cons.len(); // every arm is already in the store
            if let Some(model) = candidate(ctx, &chosen, held, &mut store).and_then(gate) {
                return (Some(model), false);
            }
        }
        store.undo_to(base);
    }
    if disjs.is_empty() {
        // No arms to vary: the one candidate there is was just rejected.
        return (None, false);
    }

    // Pass 2: bounded exhaustive arm enumeration (mixed
    // radix over the arm choices), for small formulas where the greedy
    // order picks a dead arm early.
    let total: usize = disjs
        .iter()
        .map(|arms| arms.len().max(1))
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);
    for combo in 0..total.min(MAX_COMBOS) {
        let mut chosen = lits.clone();
        let mut rest = combo;
        for arms in &disjs {
            let n = arms.len().max(1);
            let (pick, pick_neg) = arms[rest % n];
            rest /= n;
            collect(ctx, pick, pick_neg, &mut chosen, &mut None);
        }
        let found = candidate(ctx, &chosen, lits.cons.len(), &mut store).and_then(gate);
        store.undo_to(base);
        if let Some(model) = found {
            return (Some(model), false);
        }
    }
    (None, total > MAX_COMBOS)
}

// ---- literal collection ----------------------------------------------

/// One side of a simple numeric disequality (for model repair).
#[derive(Debug, Clone, Copy)]
enum DiseqSide {
    Var(TermId),
    Const(Rat),
}

/// A parsed numeric constraint `Σ coeffs·var + constant ≤ 0` (`< 0` when
/// strict).
#[derive(Debug, Clone)]
struct LinCon {
    coeffs: BTreeMap<TermId, Rat>,
    constant: Rat,
    strict: bool,
}

/// Recognized literals of the conjunctive skeleton.
#[derive(Debug, Clone, Default)]
struct Lits {
    cons: Vec<LinCon>,
    diseqs: Vec<(DiseqSide, DiseqSide)>,
    str_eqs: Vec<(StrTerm, StrTerm)>,
    str_neqs: Vec<(StrTerm, StrTerm)>,
    bools: Vec<(String, bool)>,
    /// Asserted array-membership literals `(array, index, polarity)`;
    /// resolved against the scalar candidate during model assembly.
    sels: Vec<(TermId, TermId, bool)>,
    ground_false: bool,
}

/// Classify one conjunct (under `neg` polarity) into `lits`; negation is
/// pushed inward (De Morgan), so `¬(a ∨ b)` contributes both negated
/// arms as literals. Disjunctive conjuncts — `Or` under positive
/// polarity, `And` under negative — go to `disjs` when provided (the
/// base pass) and are ignored inside arm expansion (`None`); the
/// satisfies() gate covers whatever is skipped.
fn collect(
    ctx: &Ctx,
    t: TermId,
    neg: bool,
    lits: &mut Lits,
    disjs: &mut Option<&mut Vec<Vec<(TermId, bool)>>>,
) {
    match ctx.kind(t) {
        TermKind::BoolConst(b) if *b == neg => lits.ground_false = true,
        TermKind::BoolConst(_) => {}
        TermKind::Var(name) if ctx.sort(t) == &Sort::Bool => {
            lits.bools.push((name.clone(), !neg));
        }
        TermKind::Not(inner) => collect(ctx, *inner, !neg, lits, disjs),
        TermKind::And(parts) => {
            if neg {
                // ¬(p ∧ q) ⇔ ¬p ∨ ¬q — a disjunction over negated parts.
                if let Some(d) = disjs {
                    d.push(parts.iter().map(|&p| (p, true)).collect());
                }
            } else {
                for p in parts.clone() {
                    collect(ctx, p, false, lits, disjs);
                }
            }
        }
        TermKind::Or(arms) => {
            if neg {
                // ¬(p ∨ q) ⇔ ¬p ∧ ¬q — both negated arms are implied.
                for p in arms.clone() {
                    collect(ctx, p, true, lits, disjs);
                }
            } else if let Some(d) = disjs {
                d.push(arms.iter().map(|&p| (p, false)).collect());
            }
        }
        TermKind::Select(arr, idx) => lits.sels.push((*arr, *idx, !neg)),
        TermKind::Cmp(kind, a, b) => {
            if neg {
                // ¬(a < b) ⇔ b ≤ a ; ¬(a ≤ b) ⇔ b < a.
                let flipped = match kind {
                    CmpKind::Lt => CmpKind::Le,
                    CmpKind::Le => CmpKind::Lt,
                };
                push_cmp(ctx, flipped, *b, *a, lits);
            } else {
                push_cmp(ctx, *kind, *a, *b, lits);
            }
        }
        TermKind::Eq(a, b) => {
            let (a, b) = (*a, *b);
            if neg {
                if ctx.sort(a).is_numeric() {
                    if let (Some(sa), Some(sb)) = (num_side(ctx, a), num_side(ctx, b)) {
                        lits.diseqs.push((sa, sb));
                    }
                } else if let (Some(sa), Some(sb)) = (str_term(ctx, a), str_term(ctx, b)) {
                    lits.str_neqs.push((sa, sb));
                }
            } else if ctx.sort(a).is_numeric() {
                if let Some(d) = diff(ctx, a, b) {
                    lits.cons.push(LinCon {
                        coeffs: d.0.clone(),
                        constant: d.1,
                        strict: false,
                    });
                    lits.cons.push(LinCon {
                        coeffs: d.0.iter().map(|(&v, &c)| (v, -c)).collect(),
                        constant: -d.1,
                        strict: false,
                    });
                }
            } else if let (Some(sa), Some(sb)) = (str_term(ctx, a), str_term(ctx, b)) {
                lits.str_eqs.push((sa, sb));
            }
        }
        _ => {}
    }
}

fn push_cmp(ctx: &Ctx, kind: CmpKind, a: TermId, b: TermId, lits: &mut Lits) {
    if let Some((coeffs, constant)) = diff(ctx, a, b) {
        lits.cons.push(LinCon {
            coeffs,
            constant,
            strict: kind == CmpKind::Lt,
        });
    }
}

/// Linearize `a − b` as `(coeffs, constant)`, dropping zero coefficients.
fn diff(ctx: &Ctx, a: TermId, b: TermId) -> Option<(BTreeMap<TermId, Rat>, Rat)> {
    let mut coeffs = BTreeMap::new();
    let mut constant = ZERO;
    linearize(ctx, a, Rat::int(1), &mut coeffs, &mut constant)?;
    linearize(ctx, b, Rat::int(-1), &mut coeffs, &mut constant)?;
    coeffs.retain(|_, c| !c.is_zero());
    Some((coeffs, constant))
}

fn linearize(
    ctx: &Ctx,
    t: TermId,
    scale: Rat,
    coeffs: &mut BTreeMap<TermId, Rat>,
    constant: &mut Rat,
) -> Option<()> {
    match ctx.kind(t) {
        TermKind::NumConst(r) => {
            *constant = *constant + scale * *r;
            Some(())
        }
        TermKind::Var(_) if ctx.sort(t).is_numeric() => {
            let e = coeffs.entry(t).or_insert(ZERO);
            *e = *e + scale;
            Some(())
        }
        TermKind::Add(a, b) => {
            linearize(ctx, *a, scale, coeffs, constant)?;
            linearize(ctx, *b, scale, coeffs, constant)
        }
        TermKind::Sub(a, b) => {
            linearize(ctx, *a, scale, coeffs, constant)?;
            linearize(ctx, *b, -scale, coeffs, constant)
        }
        TermKind::Neg(a) => linearize(ctx, *a, -scale, coeffs, constant),
        TermKind::MulConst(c, a) => linearize(ctx, *a, scale * *c, coeffs, constant),
        _ => None,
    }
}

fn num_side(ctx: &Ctx, t: TermId) -> Option<DiseqSide> {
    match ctx.kind(t) {
        TermKind::Var(_) => Some(DiseqSide::Var(t)),
        TermKind::NumConst(r) => Some(DiseqSide::Const(*r)),
        _ => None,
    }
}

fn str_term(ctx: &Ctx, t: TermId) -> Option<StrTerm> {
    match ctx.kind(t) {
        TermKind::Var(n) if ctx.sort(t) == &Sort::Str => Some(StrTerm::Var(n.clone())),
        TermKind::StrConst(s) => Some(StrTerm::Const(s.clone())),
        _ => None,
    }
}

// ---- constraint solving ----------------------------------------------

/// Candidate assignment pieces for one literal set.
#[derive(Debug)]
struct Candidate {
    num: HashMap<TermId, Rat>,
    strs: HashMap<String, String>,
    bools: HashMap<String, bool>,
    sels: Vec<(TermId, TermId, bool)>,
}

/// Decide the non-numeric literals — ground falsity, boolean polarity
/// clashes and string congruence. `None` means they are contradictory;
/// `Some` carries the string and boolean halves of a candidate.
#[allow(clippy::type_complexity)]
fn solve_scalars(lits: &Lits) -> Option<(HashMap<String, String>, HashMap<String, bool>)> {
    if lits.ground_false {
        return None;
    }

    // Boolean literals: a variable forced both ways is a contradiction.
    let mut bools: HashMap<String, bool> = HashMap::new();
    for (name, val) in &lits.bools {
        if *bools.entry(name.clone()).or_insert(*val) != *val {
            return None;
        }
    }

    // String congruence (union–find with pinned literals).
    match strings::solve(&lits.str_eqs, &lits.str_neqs) {
        StrResult::Unsat => None,
        StrResult::Sat(strs) => Some((strs, bools)),
    }
}

/// Build the candidate assignment for `lits` on a store that already
/// holds `lits.cons[..held]`. `None` means the literals are infeasible.
/// Whatever this adds to the store — the remaining constraints and the
/// repair's integer splits — is the caller's to undo.
fn candidate(ctx: &Ctx, lits: &Lits, held: usize, store: &mut DiffStore) -> Option<Candidate> {
    let (strs, bools) = solve_scalars(lits)?;
    if !store.add_all(ctx, &lits.cons[held..]) {
        return None;
    }

    // Disequality repair, round 1: violated diseqs between constrained
    // integer sides get an integer split (`a ≤ b − 1`, then `b ≤ a − 1`)
    // added to the store. A split that fails both ways just leaves the
    // diseq violated for the gate to reject.
    let mut num = store.values();
    let mut resolved = true;
    while resolved {
        resolved = false;
        for (a, b) in &lits.diseqs {
            if side_value(a, &num) != side_value(b, &num) {
                continue;
            }
            let (int_a, int_b) = (side_is_int(ctx, a), side_is_int(ctx, b));
            let both_pinned = matches!(
                (a, b),
                (DiseqSide::Var(_) | DiseqSide::Const(_), DiseqSide::Var(_))
                    | (DiseqSide::Var(_), DiseqSide::Const(_))
            ) && store.side_constrained(a)
                && store.side_constrained(b);
            if !(both_pinned && int_a && int_b) {
                continue;
            }
            resolved = [(a, b), (b, a)]
                .into_iter()
                .any(|(lo, hi)| store.add(ctx, &split_con(lo, hi)));
            if resolved {
                num = store.values();
                break; // re-scan: the new potentials move other diseqs
            }
        }
    }

    // Disequality repair, round 2: unconstrained variables get distinct
    // fresh values. Deterministic: literals are processed in input order
    // and fresh values count down from −1.
    let mut used: HashSet<Rat> = num.values().copied().collect();
    for (a, b) in &lits.diseqs {
        used.insert(side_value(a, &num));
        used.insert(side_value(b, &num));
    }
    let mut fresh = Rat::int(-1);
    let mut next_fresh = |used: &mut HashSet<Rat>| {
        while used.contains(&fresh) {
            fresh = fresh - Rat::int(1);
        }
        used.insert(fresh);
        fresh
    };
    for (a, b) in &lits.diseqs {
        if side_value(a, &num) != side_value(b, &num) {
            continue;
        }
        let free = match (a, b) {
            (DiseqSide::Var(v), _) if !store.constrained(*v) => Some(*v),
            (_, DiseqSide::Var(v)) if !store.constrained(*v) => Some(*v),
            _ => None,
        };
        // When both sides stay pinned to the same value the diseq is not
        // repairable here; the satisfies() gate rejects the candidate.
        if let Some(v) = free {
            let val = next_fresh(&mut used);
            num.insert(v, val);
        }
    }

    Some(Candidate {
        num,
        strs,
        bools,
        sels: lits.sels.clone(),
    })
}

/// What [`DiffStore::undo_to`] reverts, newest first.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq))]
enum Undo {
    /// A potential was lowered; the node and its previous value.
    Dist(usize, Rat),
    /// An edge was appended to this node's out-list.
    Edge(usize),
    /// A node was appended.
    Node,
}

/// The incremental difference-bound store: the constraint graph of every
/// unit-shaped [`LinCon`] added so far, with potentials that are at all
/// times the *exact* shortest distances from a virtual source that
/// reaches every node at cost zero. Exact distances are a function of the
/// edge set alone — not of insertion order, node numbering or relaxation
/// order — so a candidate read off the store is the one a from-scratch
/// Bellman–Ford over the same constraints yields.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq))]
struct DiffStore {
    /// Node 0 is the zero reference; `vars[i]` is the variable of node
    /// `i + 1`. Constraints that are not unit-difference shaped add
    /// nothing (they only weaken the SAT candidate).
    node_of: HashMap<TermId, usize>,
    vars: Vec<TermId>,
    /// `out[f]` holds `(t, w)` for every edge value(t) − value(f) ≤ w.
    out: Vec<Vec<(usize, Rat)>>,
    dist: Vec<Rat>,
    trail: Vec<Undo>,
}

impl DiffStore {
    fn new() -> DiffStore {
        DiffStore {
            node_of: HashMap::new(),
            vars: Vec::new(),
            out: vec![Vec::new()],
            dist: vec![ZERO],
            trail: Vec::new(),
        }
    }

    /// A point [`DiffStore::undo_to`] can return to.
    fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Restore the exact state the store had at `mark`.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail is longer than the mark") {
                Undo::Dist(node, old) => self.dist[node] = old,
                Undo::Edge(from) => {
                    self.out[from].pop();
                }
                Undo::Node => {
                    let var = self.vars.pop().expect("a node was recorded");
                    self.node_of.remove(&var);
                    self.out.pop();
                    self.dist.pop();
                }
            }
        }
    }

    /// Add every constraint, or none of them if one makes the store
    /// infeasible.
    fn add_all(&mut self, ctx: &Ctx, cons: &[LinCon]) -> bool {
        let mark = self.mark();
        let feasible = cons.iter().all(|con| self.add(ctx, con));
        if !feasible {
            self.undo_to(mark);
        }
        feasible
    }

    /// Add one constraint. `false` means the store would become
    /// infeasible (a negative cycle, or a ground-false constraint); the
    /// store is then exactly as it was before the call.
    fn add(&mut self, ctx: &Ctx, con: &LinCon) -> bool {
        let mark = self.mark();
        let known = self.vars.len();
        let (from, to, w) = match dbm_edge(ctx, con, &mut self.node_of, &mut self.vars) {
            DbmEdge::Edge(f, t, w) => (f, t, w),
            DbmEdge::GroundFalse => return false,
            DbmEdge::Skip => return true,
        };
        for _ in known..self.vars.len() {
            // A fresh node has no in-edges: the virtual source's zero.
            self.out.push(Vec::new());
            self.dist.push(ZERO);
            self.trail.push(Undo::Node);
        }
        self.out[from].push((to, w));
        self.trail.push(Undo::Edge(from));
        if self.dist[from] + w >= self.dist[to] {
            return true; // the potentials already satisfy the new edge
        }

        // Re-relax forward from the edge's head. The graph without the
        // new edge has no negative cycle, so every negative cycle runs
        // through it — and a walk that lowers the tail's (exact)
        // potential must use the new edge, closing one. Until that
        // happens this is FIFO label correcting on a graph without
        // negative cycles: each node is queued at most |V| times.
        self.lower(to, self.dist[from] + w);
        let mut queue = VecDeque::from([to]);
        let mut queued = vec![false; self.dist.len()];
        queued[to] = true;
        while let Some(u) = queue.pop_front() {
            queued[u] = false;
            for i in 0..self.out[u].len() {
                let (v, w) = self.out[u][i];
                let through = self.dist[u] + w;
                if through >= self.dist[v] {
                    continue;
                }
                if v == from {
                    self.undo_to(mark);
                    return false;
                }
                self.lower(v, through);
                if !queued[v] {
                    queued[v] = true;
                    queue.push_back(v);
                }
            }
        }
        true
    }

    fn lower(&mut self, node: usize, to: Rat) {
        self.trail.push(Undo::Dist(node, self.dist[node]));
        self.dist[node] = to;
    }

    /// Whether `v` appears in an edge.
    fn constrained(&self, v: TermId) -> bool {
        self.node_of.contains_key(&v)
    }

    fn side_constrained(&self, s: &DiseqSide) -> bool {
        match s {
            DiseqSide::Var(v) => self.constrained(*v),
            DiseqSide::Const(_) => true,
        }
    }

    /// Potentials relative to the zero node: a candidate assignment for
    /// every constrained variable.
    fn values(&self) -> HashMap<TermId, Rat> {
        let zero = self.dist[0];
        self.vars
            .iter()
            .zip(&self.dist[1..])
            .map(|(&v, &d)| (v, d - zero))
            .collect()
    }
}

fn side_is_int(ctx: &Ctx, s: &DiseqSide) -> bool {
    match s {
        DiseqSide::Var(v) => ctx.sort(*v) == &Sort::Int,
        DiseqSide::Const(c) => c.is_integer(),
    }
}

/// The integer split `lo ≤ hi − 1` as a [`LinCon`] (`lo − hi + 1 ≤ 0`).
fn split_con(lo: &DiseqSide, hi: &DiseqSide) -> LinCon {
    let mut coeffs = BTreeMap::new();
    let mut constant = Rat::int(1);
    match lo {
        DiseqSide::Var(v) => {
            let e = coeffs.entry(*v).or_insert(ZERO);
            *e = *e + Rat::int(1);
        }
        DiseqSide::Const(c) => constant = constant + *c,
    }
    match hi {
        DiseqSide::Var(v) => {
            let e = coeffs.entry(*v).or_insert(ZERO);
            *e = *e - Rat::int(1);
        }
        DiseqSide::Const(c) => constant = constant - *c,
    }
    coeffs.retain(|_, c| !c.is_zero());
    LinCon {
        coeffs,
        constant,
        strict: false,
    }
}

enum DbmEdge {
    Edge(usize, usize, Rat),
    GroundFalse,
    Skip,
}

/// Convert `Σ coeffs·var + c ⋈ 0` to a difference-bounds edge when it has
/// unit shape after scaling; apply integer tightening so strict bounds
/// between integers become closed (and strict bounds elsewhere relax to
/// closed, which the SAT gate double-checks).
fn dbm_edge(
    ctx: &Ctx,
    con: &LinCon,
    node_of: &mut HashMap<TermId, usize>,
    nodes: &mut Vec<TermId>,
) -> DbmEdge {
    let node = |v: TermId, node_of: &mut HashMap<TermId, usize>, nodes: &mut Vec<TermId>| {
        *node_of.entry(v).or_insert_with(|| {
            nodes.push(v);
            nodes.len() // node ids are 1-based; 0 is the zero reference
        })
    };
    let vars: Vec<(TermId, Rat)> = con.coeffs.iter().map(|(&v, &c)| (v, c)).collect();
    // (to − from ≤ w) after normalization, plus whether every variable
    // involved has integer sort (enabling tightening).
    let (from, to, mut w, all_int) = match vars.as_slice() {
        [] => {
            let violated = if con.strict {
                con.constant >= ZERO
            } else {
                con.constant > ZERO
            };
            return if violated {
                DbmEdge::GroundFalse
            } else {
                DbmEdge::Skip
            };
        }
        [(v, c)] => {
            // c·v + k ⋈ 0 ⇔ v ≤ −k/c (c > 0) or v ≥ −k/c (c < 0).
            let bound = -con.constant / *c;
            let is_int = ctx.sort(*v) == &Sort::Int;
            let vn = node(*v, node_of, nodes);
            if c.signum() > 0 {
                (0, vn, bound, is_int)
            } else {
                (vn, 0, -bound, is_int)
            }
        }
        [(v1, c1), (v2, c2)] if *c1 == -*c2 => {
            // c·(v1 − v2) + k ⋈ 0 ⇔ v1 − v2 ≤ −k/c (c > 0) etc.
            let bound = -con.constant / *c1;
            let all_int = ctx.sort(*v1) == &Sort::Int && ctx.sort(*v2) == &Sort::Int;
            let n1 = node(*v1, node_of, nodes);
            let n2 = node(*v2, node_of, nodes);
            if c1.signum() > 0 {
                (n2, n1, bound, all_int)
            } else {
                (n1, n2, -bound, all_int)
            }
        }
        _ => return DbmEdge::Skip,
    };
    if all_int {
        // Integer difference: strict `< w` ⇔ `≤ ⌈w⌉ − 1`; closed with a
        // fractional bound tightens to `≤ ⌊w⌋`. Both preserve the integer
        // solution set exactly.
        if con.strict {
            w = Rat::new(w.ceil() - 1, 1);
        } else if !w.is_integer() {
            w = Rat::new(w.floor(), 1);
        }
    }
    DbmEdge::Edge(from, to, w)
}

fn side_value(s: &DiseqSide, num: &HashMap<TermId, Rat>) -> Rat {
    match s {
        DiseqSide::Var(v) => num.get(v).copied().unwrap_or(ZERO),
        DiseqSide::Const(c) => *c,
    }
}

// ---- model assembly --------------------------------------------------

/// Every variable mentioned in the formula, grouped for model building.
struct VarSets {
    nums: Vec<(TermId, String, Sort)>,
    strs: Vec<String>,
    bools: Vec<String>,
    str_consts: HashSet<String>,
}

impl VarSets {
    fn collect(ctx: &Ctx, t: TermId) -> VarSets {
        let mut out = VarSets {
            nums: Vec::new(),
            strs: Vec::new(),
            bools: Vec::new(),
            str_consts: HashSet::new(),
        };
        let mut seen = HashSet::new();
        out.walk(ctx, t, &mut seen);
        out.nums.sort_by(|a, b| a.1.cmp(&b.1));
        out.strs.sort();
        out.bools.sort();
        out
    }

    fn walk(&mut self, ctx: &Ctx, t: TermId, seen: &mut HashSet<TermId>) {
        if !seen.insert(t) {
            return;
        }
        match ctx.kind(t) {
            TermKind::Var(name) => match ctx.sort(t) {
                Sort::Int | Sort::Real => self.nums.push((t, name.clone(), ctx.sort(t).clone())),
                Sort::Str => self.strs.push(name.clone()),
                Sort::Bool => self.bools.push(name.clone()),
                Sort::Array(_) => {}
            },
            TermKind::StrConst(s) => {
                self.str_consts.insert(s.clone());
            }
            _ => {}
        }
        for c in ctx.children(t) {
            self.walk(ctx, c, seen);
        }
    }
}

/// Assemble a total [`Model`] over every mentioned variable: constrained
/// numerics take their potentials, free strings get distinct fresh
/// values (the full solver's convention), everything else defaults.
/// Asserted select literals are then resolved by evaluating their index
/// under the scalar model; two literals pinning the same cell both ways
/// reject the candidate (`None`): the collision depends on candidate
/// values, not on the formula.
fn build_model(ctx: &Ctx, vars: &VarSets, cand: &Candidate) -> Option<Model> {
    let mut values: BTreeMap<String, ModelValue> = BTreeMap::new();
    for (id, name, sort) in &vars.nums {
        let v = cand.num.get(id).copied().unwrap_or(ZERO);
        let mv = match sort {
            Sort::Int => ModelValue::Int(v.floor() as i64),
            _ => ModelValue::Real(v.to_f64()),
        };
        values.insert(name.clone(), mv);
    }
    let mut used: HashSet<String> = vars.str_consts.clone();
    used.extend(cand.strs.values().cloned());
    let mut fresh = 0usize;
    for name in &vars.strs {
        let v = match cand.strs.get(name) {
            Some(v) => v.clone(),
            None => loop {
                let c = format!("str!{fresh}");
                fresh += 1;
                if !used.contains(&c) {
                    used.insert(c.clone());
                    break c;
                }
            },
        };
        values.insert(name.clone(), ModelValue::Str(v));
    }
    for name in &vars.bools {
        let v = cand.bools.get(name).copied().unwrap_or(false);
        values.insert(name.clone(), ModelValue::Bool(v));
    }
    let scalar = Model::new(values.clone(), HashMap::new());

    let mut selects: HashMap<(String, ModelKey), bool> = HashMap::new();
    for (arr, idx, pol) in &cand.sels {
        let TermKind::Var(name) = ctx.kind(*arr) else {
            return None; // unexpandable select base — give up on this candidate
        };
        let key = ModelKey::from_value(&scalar.eval(ctx, *idx))?;
        match selects.entry((name.clone(), key)) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(*pol);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if e.get() != pol {
                    return None;
                }
            }
        }
    }
    Some(Model::new(values, selects))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveResult, SolverConfig};
    use crate::IncrementalSolver;
    use proptest::prelude::*;

    /// Tier 1 refutes nothing: it finds no model, and the tiered solver's
    /// UNSAT comes from the full solver the query fell through to.
    fn assert_refuted_by_the_full_solver(ctx: &mut Ctx, f: TermId) {
        assert!(presolve(ctx, f).is_none());
        let (res, stats) = IncrementalSolver::new(SolverConfig::default()).check_tiered(ctx, f);
        assert!(matches!(res, SolveResult::Unsat), "{res:?}");
        assert_eq!((stats.t1_sat, stats.fallthrough), (0, 1));
    }

    fn assert_tiered_sat(ctx: &mut Ctx, f: TermId) {
        let (res, _) = IncrementalSolver::new(SolverConfig::default()).check_tiered(ctx, f);
        assert!(res.is_sat(), "{res:?}");
    }

    #[test]
    fn interval_contradiction_is_unsat() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let three = ctx.int(3);
        let two = ctx.int(2);
        let lo = ctx.gt(x, two); // x > 2
        let hi = ctx.lt(x, three); // x < 3 — no integer fits
        let f = ctx.and([lo, hi]);
        assert_refuted_by_the_full_solver(&mut ctx, f);
    }

    #[test]
    fn bound_past_i64_is_not_wrapped_into_a_contradiction() {
        // 0 ≤ x < 10^19 over an integer: the tightened bound 10^19 − 1
        // does not fit an i64, and a wrapped (negative) bound would close
        // a negative cycle with 0 ≤ x — no candidate for a formula that
        // x = 0 satisfies.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let zero = ctx.int(0);
        let huge = ctx.real(Rat::new(10_000_000_000_000_000_000, 1));
        let lo = ctx.ge(x, zero);
        let hi = ctx.lt(x, huge);
        let f = ctx.and([lo, hi]);
        assert!(presolve(&ctx, f).is_some());
        assert_tiered_sat(&mut ctx, f);
    }

    #[test]
    fn real_interval_stays_open() {
        // The same bounds over reals are satisfiable (x = 2.5); the gate
        // finds no integer witness, so this falls through to a SAT.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Real);
        let three = ctx.int(3);
        let two = ctx.int(2);
        let lo = ctx.gt(x, two);
        let hi = ctx.lt(x, three);
        let f = ctx.and([lo, hi]);
        assert_tiered_sat(&mut ctx, f);
    }

    #[test]
    fn difference_cycle_is_unsat() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let z = ctx.var("z", Sort::Int);
        let c1 = ctx.lt(x, y);
        let c2 = ctx.lt(y, z);
        let c3 = ctx.lt(z, x);
        let f = ctx.and([c1, c2, c3]);
        assert_refuted_by_the_full_solver(&mut ctx, f);
    }

    #[test]
    fn equalities_propagate_through_congruence() {
        let mut ctx = Ctx::new();
        let a = ctx.var("a", Sort::Str);
        let b = ctx.var("b", Sort::Str);
        let lit1 = ctx.str_const("x");
        let lit2 = ctx.str_const("y");
        let e1 = ctx.eq(a, lit1);
        let e2 = ctx.eq(a, b);
        let e3 = ctx.eq(b, lit2);
        let f = ctx.and([e1, e2, e3]);
        assert_refuted_by_the_full_solver(&mut ctx, f);
    }

    #[test]
    fn conjunctive_sat_with_model() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let ten = ctx.int(10);
        let c1 = ctx.lt(x, y);
        let c2 = ctx.le(y, ten);
        let s = ctx.var("s", Sort::Str);
        let lit = ctx.str_const("hello");
        let c3 = ctx.eq(s, lit);
        let f = ctx.and([c1, c2, c3]);
        match presolve(&ctx, f) {
            Some(m) => {
                assert!(m.satisfies(&ctx, f));
                assert_eq!(m.get_str("s"), Some("hello"));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn diseq_repair_finds_distinct_values() {
        let mut ctx = Ctx::new();
        let a = ctx.var("id_a", Sort::Int);
        let b = ctx.var("id_b", Sort::Int);
        let d = ctx.ne(a, b);
        match presolve(&ctx, d) {
            Some(m) => assert!(m.satisfies(&ctx, d)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn disjunction_solved_by_arm_enumeration() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let one = ctx.int(1);
        let two = ctx.int(2);
        // (x = 1 ∨ x = 2) ∧ x > 1 — only the second arm works.
        let a1 = ctx.eq(x, one);
        let a2 = ctx.eq(x, two);
        let arm = ctx.or([a1, a2]);
        let gt = ctx.gt(x, one);
        let f = ctx.and([arm, gt]);
        match presolve(&ctx, f) {
            Some(m) => {
                assert!(m.satisfies(&ctx, f));
                assert_eq!(m.get_int("x"), Some(2));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn unsat_never_claimed_from_an_arm() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let one = ctx.int(1);
        let two = ctx.int(2);
        // x = 1 is inconsistent with x = 2, but only inside one arm — the
        // formula is SAT via the other arm.
        let a1 = ctx.eq(x, one);
        let a2 = ctx.ge(x, two);
        let arm = ctx.or([a1, a2]);
        let ge = ctx.ge(x, two);
        let f = ctx.and([arm, ge]);
        assert_tiered_sat(&mut ctx, f);
    }

    #[test]
    fn bool_conflict_is_unsat() {
        let mut ctx = Ctx::new();
        let p = ctx.var("p", Sort::Bool);
        let q = ctx.var("q", Sort::Bool);
        let np = ctx.not(p);
        // Distinct literal occurrences (p via q∧p) so tier-0 wouldn't
        // have already folded this to false.
        let qp = ctx.and([q, p]);
        let f = ctx.and([np, qp]);
        assert_refuted_by_the_full_solver(&mut ctx, f);
    }

    #[test]
    fn mixed_int_equality_to_fractional_const_unsat() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let half = ctx.real(Rat::new(7, 2));
        let f = ctx.eq(x, half);
        assert_refuted_by_the_full_solver(&mut ctx, f);
    }

    #[test]
    fn select_literals_get_assignments() {
        let mut ctx = Ctx::new();
        let arr = ctx.array_var("rows", Sort::Int);
        let i = ctx.var("i", Sort::Int);
        let j = ctx.var("j", Sort::Int);
        let si = ctx.select(arr, i);
        let sj = ctx.select(arr, j);
        let nsj = ctx.not(sj);
        let ne = ctx.ne(i, j);
        // rows[i] ∧ ¬rows[j] ∧ i ≠ j — needs select assignments keyed by
        // the candidate's index values.
        let f = ctx.and([si, nsj, ne]);
        match presolve(&ctx, f) {
            Some(m) => assert!(m.satisfies(&ctx, f)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_select_cell_is_not_unsat() {
        let mut ctx = Ctx::new();
        let arr = ctx.array_var("rows", Sort::Int);
        let i = ctx.var("i", Sort::Int);
        let j = ctx.var("j", Sort::Int);
        let si = ctx.select(arr, i);
        let sj = ctx.select(arr, j);
        let nsj = ctx.not(sj);
        // rows[i] ∧ ¬rows[j] with i and j both defaulting to the same
        // value: the candidate collides on one cell and is rejected, and
        // the full solver finds the model with i ≠ j.
        let f = ctx.and([si, nsj]);
        assert_tiered_sat(&mut ctx, f);
    }

    #[test]
    fn negated_disjunction_pushes_inward() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let one = ctx.int(1);
        let five = ctx.int(5);
        let lo = ctx.lt(x, one);
        let hi = ctx.gt(x, five);
        let out = ctx.or([lo, hi]);
        let inside = ctx.not(out); // 1 ≤ x ≤ 5
        let zero = ctx.int(0);
        let at_zero = ctx.eq(x, zero);
        let f = ctx.and([inside, at_zero]);
        assert_refuted_by_the_full_solver(&mut ctx, f);
    }

    #[test]
    fn constrained_diseq_repaired_by_integer_split() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let zero = ctx.int(0);
        let one = ctx.int(1);
        // Both variables are pinned to [0, 1] (same potentials), so only
        // an integer split can separate them.
        let c1 = ctx.ge(x, zero);
        let c2 = ctx.le(x, one);
        let c3 = ctx.ge(y, zero);
        let c4 = ctx.le(y, one);
        let ne = ctx.ne(x, y);
        let f = ctx.and([c1, c2, c3, c4, ne]);
        match presolve(&ctx, f) {
            Some(m) => {
                assert!(m.satisfies(&ctx, f));
                assert_ne!(m.get_int("x"), m.get_int("y"));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn many_disjunctions_solved_greedily() {
        // 2^10 arm combinations — far past MAX_COMBOS, so only the greedy
        // pass can find the witness.
        let mut ctx = Ctx::new();
        let one = ctx.int(1);
        let two = ctx.int(2);
        let mut parts = Vec::new();
        for i in 0..10 {
            let x = ctx.var(format!("x{i}"), Sort::Int);
            let a1 = ctx.eq(x, one);
            let a2 = ctx.eq(x, two);
            let arm = ctx.or([a1, a2]);
            let gt = ctx.gt(x, one);
            parts.push(arm);
            parts.push(gt);
        }
        let f = ctx.and(parts);
        match presolve(&ctx, f) {
            Some(m) => assert!(m.satisfies(&ctx, f)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn opaque_formula_falls_through() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let sum = ctx.add(x, y);
        let z = ctx.var("z", Sort::Int);
        // ¬(x + y = z) is not a recognized literal shape (the diseq side
        // is a compound term), the default candidate violates it, and the
        // gate rejects — fall through rather than guess.
        let f = ctx.ne(sum, z);
        assert!(presolve(&ctx, f).is_none());
    }

    // ---- the incremental store against the code it replaced ----------

    /// The from-scratch solver [`DiffStore`] replaced, kept verbatim as
    /// the differential oracle.
    ///
    /// Build the difference-bounds graph for `cons` and run Bellman–Ford.
    /// `None` means the unit-shaped subset is unsatisfiable; `Some` carries
    /// the potentials (a candidate assignment) and the set of variables that
    /// actually appeared in edges.
    #[allow(clippy::type_complexity)]
    fn dbm_solve(ctx: &Ctx, cons: &[LinCon]) -> Option<(HashMap<TermId, Rat>, HashSet<TermId>)> {
        // Node 0 is the zero reference; constraints that are not
        // unit-difference shaped are skipped (they only weaken the SAT
        // candidate, never the UNSAT claim).
        let mut node_of: HashMap<TermId, usize> = HashMap::new();
        let mut nodes: Vec<TermId> = Vec::new();
        // Edge (from, to, w): value(to) − value(from) ≤ w.
        let mut edges: Vec<(usize, usize, Rat)> = Vec::new();
        for con in cons {
            match dbm_edge(ctx, con, &mut node_of, &mut nodes) {
                DbmEdge::Edge(f, t, w) => edges.push((f, t, w)),
                DbmEdge::GroundFalse => return None,
                DbmEdge::Skip => {}
            }
        }

        // Bellman–Ford from a virtual source (all distances start at zero):
        // an improvement in round |V| means a negative cycle ⇒ UNSAT.
        let n = nodes.len() + 1;
        let mut dist = vec![ZERO; n];
        for round in 0..n {
            let mut changed = false;
            for &(f, t, w) in &edges {
                let cand = dist[f] + w;
                if cand < dist[t] {
                    dist[t] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            if round == n - 1 {
                return None;
            }
        }

        // Potentials relative to the zero node are a candidate assignment.
        let zero = dist[0];
        let mut num: HashMap<TermId, Rat> = HashMap::new();
        let mut constrained: HashSet<TermId> = HashSet::new();
        for (i, &v) in nodes.iter().enumerate() {
            num.insert(v, dist[i + 1] - zero);
            constrained.insert(v);
        }
        Some((num, constrained))
    }

    /// `Σ coeffs·var + constant ≤ 0` (`< 0` when strict).
    fn con(coeffs: &[(TermId, i64)], constant: Rat, strict: bool) -> LinCon {
        LinCon {
            coeffs: coeffs.iter().map(|&(v, c)| (v, Rat::int(c))).collect(),
            constant,
            strict,
        }
    }

    /// `v ≤ bound`.
    fn at_most(v: TermId, bound: i64) -> LinCon {
        con(&[(v, 1)], Rat::int(-bound), false)
    }

    /// `v ≥ bound`.
    fn at_least(v: TermId, bound: i64) -> LinCon {
        con(&[(v, -1)], Rat::int(bound), false)
    }

    fn store_of(ctx: &Ctx, cons: &[LinCon]) -> DiffStore {
        let mut store = DiffStore::new();
        assert!(store.add_all(ctx, cons), "the fixture must be feasible");
        store
    }

    #[test]
    fn failed_split_rolls_back_and_the_other_direction_succeeds() {
        // x = 1 and y ∈ [0, 1] share the potential 1. The split x ≤ y − 1
        // needs y ≥ 2 and fails; y ≤ x − 1 puts y at 0.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let y = ctx.var("y", Sort::Int);
        let cons = [at_least(x, 1), at_most(x, 1), at_least(y, 0), at_most(y, 1)];
        let mut store = store_of(&ctx, &cons);
        assert_eq!(store.values()[&x], store.values()[&y]);
        let before = store.clone();
        let (sx, sy) = (DiseqSide::Var(x), DiseqSide::Var(y));
        assert!(!store.add(&ctx, &split_con(&sx, &sy)));
        assert_eq!(store, before, "a failed split must leave no trace");
        assert!(store.add(&ctx, &split_con(&sy, &sx)));
        assert_eq!(store.values()[&x], Rat::int(1));
        assert_eq!(store.values()[&y], ZERO);

        // The same through the front door.
        let one = ctx.int(1);
        let zero = ctx.int(0);
        let parts = [
            ctx.eq(x, one),
            ctx.ge(y, zero),
            ctx.le(y, one),
            ctx.ne(x, y),
        ];
        let f = ctx.and(parts);
        match presolve(&ctx, f) {
            Some(m) => {
                assert_eq!((m.get_int("x"), m.get_int("y")), (Some(1), Some(0)))
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn failed_add_between_known_nodes_restores_the_potentials() {
        // x ≤ y ≤ z, then z ≤ x − 1: the relaxation lowers z and y before
        // it reaches the tail x and sees the cycle. No node is new, so
        // the rollback is all potentials and one edge.
        let mut ctx = Ctx::new();
        let [x, y, z] = ["x", "y", "z"].map(|n| ctx.var(n, Sort::Int));
        let cons = [
            con(&[(x, 1), (y, -1)], ZERO, false),
            con(&[(y, 1), (z, -1)], ZERO, false),
        ];
        let mut store = store_of(&ctx, &cons);
        let before = store.clone();
        assert!(!store.add(&ctx, &con(&[(z, 1), (x, -1)], Rat::int(1), false)));
        assert_eq!(store, before);
        assert_eq!(store.values(), dbm_solve(&ctx, &cons).expect("feasible").0);
    }

    #[test]
    fn failed_group_removes_the_node_it_introduced() {
        // One edge into a node without other edges cannot close a cycle,
        // so a fresh node only ever fails as part of a group: w = 7/2
        // over an integer is w ≤ 3 (introduces w) and then w ≥ 4.
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Int);
        let w = ctx.var("w", Sort::Int);
        let mut store = store_of(&ctx, &[at_most(x, 5)]);
        let before = store.clone();
        let half = Rat::new(7, 2);
        let group = [con(&[(w, 1)], -half, false), con(&[(w, -1)], half, false)];
        assert!(!store.add_all(&ctx, &group));
        assert_eq!(store, before);
        assert!(!store.constrained(w));
        // A ground-false constraint fails without touching anything.
        assert!(!store.add(&ctx, &con(&[], Rat::int(1), false)));
        assert_eq!(store, before);
    }

    /// One generated constraint: its variables (indices into the case's
    /// four), their coefficients, the constant as a fraction, strictness.
    type RawCon = (Vec<(usize, i64)>, (i128, i128), bool);

    fn raw_con() -> impl Strategy<Value = RawCon> {
        // x − y ⋈ c; the same variable twice cancels to a ground atom.
        let difference = (
            0usize..4,
            0usize..4,
            prop_oneof![Just(1i64), Just(-1), Just(2)],
        )
            .prop_map(|(a, b, c)| vec![(a, c), (b, -c)]);
        let shape = prop_oneof![
            // x ⋈ c, scaled either way
            (
                0usize..4,
                prop_oneof![Just(1i64), Just(-1), Just(2), Just(-3)]
            )
                .prop_map(|(v, c)| vec![(v, c)]),
            // twice as likely: difference edges are what closes cycles
            difference.clone(),
            difference,
            // not unit shaped: skipped by the store and the oracle alike
            (0usize..4, 0usize..4).prop_map(|(a, b)| vec![(a, 2), (b, -1)]),
            // ground: violated when the constant is positive (or zero, strict)
            Just(Vec::new()),
        ];
        (
            shape,
            (
                -4i128..=4,
                prop_oneof![Just(1i128), Just(1), Just(2), Just(3)],
            ),
            any::<bool>(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 256 } else { 4096 }
        ))]

        /// The store is the from-scratch solver, one constraint at a
        /// time: after every `add` its feasibility answer, its node set
        /// and its potentials equal `dbm_solve` on the accepted prefix,
        /// and a refused `add` leaves it `==` its state before the call.
        #[test]
        fn store_agrees_with_from_scratch_bellman_ford(
            int_sorted in proptest::collection::vec(any::<bool>(), 4..5),
            raw in proptest::collection::vec(raw_con(), 0..13),
        ) {
            let mut ctx = Ctx::new();
            let vars: Vec<TermId> = int_sorted
                .iter()
                .enumerate()
                .map(|(i, &int)| ctx.var(format!("v{i}"), if int { Sort::Int } else { Sort::Real }))
                .collect();
            let mut store = DiffStore::new();
            let mut accepted: Vec<LinCon> = Vec::new();
            for (terms, (num, den), strict) in raw {
                let mut coeffs: BTreeMap<TermId, Rat> = BTreeMap::new();
                for (v, c) in terms {
                    let e = coeffs.entry(vars[v]).or_insert(ZERO);
                    *e = *e + Rat::int(c);
                }
                coeffs.retain(|_, c| !c.is_zero());
                let next = LinCon { coeffs, constant: Rat::new(num, den), strict };

                let before = store.clone();
                let added = store.add(&ctx, &next);
                accepted.push(next);
                let oracle = dbm_solve(&ctx, &accepted);
                prop_assert_eq!(added, oracle.is_some(), "feasibility of {:?}", accepted);
                match oracle {
                    Some((num, constrained)) => {
                        prop_assert_eq!(store.values(), num, "potentials of {:?}", accepted);
                        for &v in &vars {
                            prop_assert_eq!(store.constrained(v), constrained.contains(&v));
                        }
                    }
                    None => {
                        prop_assert!(store == before, "refused add left a trace: {:?}", accepted);
                        accepted.pop();
                    }
                }
            }
            store.undo_to(0);
            prop_assert!(store == DiffStore::new(), "a full undo must empty the store");
        }
    }
}
