//! A CDCL SAT core with incremental assumption-based solving.
//!
//! The lazy-SMT loop ([`crate::IncrementalSolver`]) re-solves the boolean
//! skeleton after each theory conflict adds a blocking clause. The
//! [`Solver`] here is persistent: the clause database, two-watched-literal
//! lists, learned clauses, and variable activities survive across
//! [`Solver::solve_under_assumptions`] calls — the loop's one entry point
//! into this module — so each re-solve (and each later query of the same
//! incremental solver: in the analyzer, each cycle of a transaction pair)
//! starts from everything the previous calls proved.
//!
//! The search is classic CDCL: first-UIP conflict analysis with learned
//! clause recording and non-chronological backjumping, VSIDS variable
//! activities with phase saving, Luby restarts, and LBD-based learned
//! clause database reduction. Every heuristic breaks ties
//! deterministically (lowest variable index wins; clause traversal is in
//! insertion order), so a solve is a pure function of the clause/call
//! sequence — the deterministic parallel scheduler relies on that.
//!
//! The pre-CDCL chronological-backtracking DPLL survives under
//! `#[cfg(test)]` as `solve_dpll_instrumented`, the oracle the
//! differential proptests run the CDCL core against.

/// A literal: variable index with polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit {
    /// Variable index (0-based).
    pub var: usize,
    /// `true` for the positive literal.
    pub positive: bool,
}

impl Lit {
    /// Positive literal of `var`.
    pub fn pos(var: usize) -> Lit {
        Lit {
            var,
            positive: true,
        }
    }

    /// Negative literal of `var`.
    pub fn neg(var: usize) -> Lit {
        Lit {
            var,
            positive: false,
        }
    }

    /// The opposite literal.
    pub fn negated(self) -> Lit {
        Lit {
            var: self.var,
            positive: !self.positive,
        }
    }

    /// Watch-list index of this literal.
    fn code(self) -> usize {
        self.var * 2 + usize::from(self.positive)
    }
}

/// A CNF formula with a growable clause set.
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    /// Number of variables.
    pub num_vars: usize,
    /// Clauses (disjunctions of literals).
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> usize {
        let v = self.num_vars;
        self.num_vars += 1;
        v
    }

    /// Add a clause. An empty clause makes the formula trivially UNSAT.
    pub fn add_clause(&mut self, lits: impl Into<Vec<Lit>>) {
        self.clauses.push(lits.into());
    }

    /// Add a unit clause.
    pub fn add_unit(&mut self, lit: Lit) {
        self.clauses.push(vec![lit]);
    }
}

/// Result of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with one assignment per variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

/// Search-effort counters for one SAT call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Branching decisions made (assumption placements included).
    pub decisions: u64,
    /// Assignments implied by unit propagation.
    pub propagations: u64,
    /// Conflicts hit (each one triggers first-UIP analysis under CDCL).
    pub conflicts: u64,
    /// Learned clauses recorded (units included).
    pub learned: u64,
    /// Luby restarts performed.
    pub restarts: u64,
    /// Learned-clause database reductions performed.
    pub db_reductions: u64,
}

impl SatStats {
    /// Accumulate another call's counters into this one.
    pub fn absorb(&mut self, other: SatStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.learned += other.learned;
        self.restarts += other.restarts;
        self.db_reductions += other.db_reductions;
    }
}

/// Conflicts between Luby restarts, scaled by `luby()`.
const RESTART_BASE: u64 = 100;
/// Geometric VSIDS decay: activities effectively shrink by this factor
/// per conflict (implemented by growing the increment).
const VAR_DECAY: f64 = 0.95;
/// Rescale threshold for activities (pure magnitude management; the
/// rescale divides everything uniformly, so comparisons are unchanged).
const ACTIVITY_RESCALE: f64 = 1e100;

/// The i-th term (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,…
fn luby(mut x: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learned: bool,
    /// Literal block distance at learn time (0 for original clauses).
    lbd: u32,
    /// Lazily detached from watch lists after DB reduction.
    deleted: bool,
}

/// A persistent CDCL solver.
///
/// Clauses accumulate via [`Solver::add_clause`] (only legal at decision
/// level 0, which is where every `solve_under_assumptions` call leaves
/// the solver). Learned clauses, watch lists, activities, and saved
/// phases persist across calls: a learned clause is a resolution
/// consequence of the clause database alone — assumptions enter the
/// search as ordinary decisions and are never resolved away — so it
/// remains valid for every later call no matter which assumptions that
/// call passes.
#[derive(Debug, Default)]
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Clause>,
    /// Clause indices watching each literal code.
    watches: Vec<Vec<usize>>,
    assign: Vec<Option<bool>>,
    level: Vec<usize>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    /// VSIDS activity per variable; ties break toward the lowest index.
    activity: Vec<f64>,
    var_inc: f64,
    /// Saved phase per variable; initialized `true` to mirror the legacy
    /// DPLL's true-first polarity (theory atoms prefer the weaker,
    /// usually-satisfiable direction).
    phase: Vec<bool>,
    /// Scratch marks for conflict analysis.
    seen: Vec<bool>,
    /// False once the clause database is UNSAT outright (level-0
    /// conflict); unsatisfiability *under assumptions* does not clear it.
    ok: bool,
    n_learnts: usize,
    max_learnts: usize,
    restarts_done: u64,
    stats: SatStats,
}

impl Solver {
    /// New empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ok: true,
            ..Solver::default()
        }
    }

    /// A solver loaded with `cnf`'s variables and clauses.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let mut s = Solver::new();
        s.ensure_vars(cnf.num_vars);
        for c in &cnf.clauses {
            s.add_clause(c);
        }
        s
    }

    /// Grow the variable space to at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        if n <= self.num_vars {
            return;
        }
        self.num_vars = n;
        self.watches.resize(n * 2, Vec::new());
        self.assign.resize(n, None);
        self.level.resize(n, 0);
        self.reason.resize(n, None);
        self.activity.resize(n, 0.0);
        self.phase.resize(n, true);
        self.seen.resize(n, false);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Whether the clause database itself is still satisfiable as far as
    /// the solver knows (false after a level-0 conflict).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var].map(|v| v == l.positive)
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Add a clause to the database. Must be called at decision level 0
    /// (between solves); literals already false at level 0 are dropped
    /// and clauses already true at level 0 are skipped.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0, "add_clause between solves only");
        if !self.ok {
            return;
        }
        let mut lits = lits.to_vec();
        lits.sort_by_key(|l| (l.var, l.positive));
        lits.dedup();
        // Tautology (v ∨ ¬v) — sorted order puts the pair adjacent.
        if lits.windows(2).any(|w| w[0].var == w[1].var) {
            return;
        }
        for l in &lits {
            debug_assert!(l.var < self.num_vars, "literal var out of range");
        }
        if lits.iter().any(|&l| self.value(l) == Some(true)) {
            return;
        }
        lits.retain(|&l| self.value(l).is_none());
        match lits.len() {
            0 => self.ok = false,
            1 => {
                if !self.enqueue(lits[0], None) {
                    self.ok = false;
                }
            }
            _ => {
                let ci = self.clauses.len();
                self.watches[lits[0].code()].push(ci);
                self.watches[lits[1].code()].push(ci);
                self.clauses.push(Clause {
                    lits,
                    learned: false,
                    lbd: 0,
                    deleted: false,
                });
            }
        }
    }

    /// Record an assignment; `false` means it contradicts the current one.
    fn enqueue(&mut self, lit: Lit, reason: Option<usize>) -> bool {
        match self.value(lit) {
            Some(v) => v,
            None => {
                self.assign[lit.var] = Some(lit.positive);
                self.level[lit.var] = self.decision_level();
                self.reason[lit.var] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Watched-literal propagation; returns the conflicting clause index.
    fn propagate(&mut self) -> Option<usize> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            let false_lit = lit.negated();
            let fcode = false_lit.code();
            let mut i = 0;
            while i < self.watches[fcode].len() {
                let ci = self.watches[fcode][i];
                if self.clauses[ci].deleted {
                    self.watches[fcode].swap_remove(i);
                    continue;
                }
                // Keep the false literal at position 1.
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], false_lit);
                let w0 = self.clauses[ci].lits[0];
                if self.value(w0) == Some(true) {
                    i += 1;
                    continue;
                }
                // Find a replacement watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.value(cand) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[cand.code()].push(ci);
                        self.watches[fcode].swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflict on w0.
                match self.value(w0) {
                    None => {
                        self.stats.propagations += 1;
                        let accepted = self.enqueue(w0, Some(ci));
                        debug_assert!(accepted);
                        i += 1;
                    }
                    Some(true) => i += 1,
                    Some(false) => {
                        // Drain the queue so the next propagate starts clean.
                        self.prop_head = self.trail.len();
                        return Some(ci);
                    }
                }
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
    }

    /// First-UIP conflict analysis: resolve the conflict clause backwards
    /// along the trail until exactly one literal of the current decision
    /// level remains. Returns the learned clause (asserting literal at
    /// position 0, backjump-level literal at position 1), the backjump
    /// level, and the clause's LBD.
    fn analyze(&mut self, mut confl: usize) -> (Vec<Lit>, usize, u32) {
        let cur_level = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // slot for the asserting lit
        let mut counter = 0usize;
        let mut resolved_any = false;
        let mut idx = self.trail.len();
        let mut to_clear: Vec<usize> = Vec::new();
        loop {
            // A reason clause implies its position-0 literal; skip it so we
            // resolve on the remaining antecedents only. The initial
            // conflict clause contributes every literal.
            let start = usize::from(resolved_any);
            for k in start..self.clauses[confl].lits.len() {
                let q = self.clauses[confl].lits[k];
                if !self.seen[q.var] && self.level[q.var] > 0 {
                    self.seen[q.var] = true;
                    to_clear.push(q.var);
                    self.bump_var(q.var);
                    if self.level[q.var] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.negated();
                break;
            }
            confl = self.reason[p.var].expect("non-UIP trail literal has a reason");
            resolved_any = true;
        }
        for v in to_clear {
            self.seen[v] = false;
        }
        // Backjump level: the highest level among the non-asserting
        // literals (0 for a learned unit); keep that literal at position 1
        // so it is one of the watches.
        let mut bt = 0usize;
        if learnt.len() > 1 {
            let mut max_k = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var] > self.level[learnt[max_k].var] {
                    max_k = k;
                }
            }
            learnt.swap(1, max_k);
            bt = self.level[learnt[1].var];
        }
        // LBD: distinct decision levels among the learned literals.
        let mut levels: Vec<usize> = learnt.iter().map(|l| self.level[l.var]).collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;
        (learnt, bt, lbd)
    }

    /// Undo the trail down to `target_level`, saving phases.
    fn cancel_until(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let bound = self.trail_lim[target_level];
        for j in (bound..self.trail.len()).rev() {
            let lit = self.trail[j];
            self.phase[lit.var] = lit.positive;
            self.assign[lit.var] = None;
            self.reason[lit.var] = None;
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target_level);
        self.prop_head = bound;
    }

    /// Attach a learned clause and enqueue its asserting literal.
    fn attach_learnt(&mut self, learnt: Vec<Lit>, lbd: u32) {
        self.stats.learned += 1;
        if learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            let accepted = self.enqueue(learnt[0], None);
            debug_assert!(accepted, "asserting unit contradicted after backjump");
            return;
        }
        let ci = self.clauses.len();
        self.watches[learnt[0].code()].push(ci);
        self.watches[learnt[1].code()].push(ci);
        let l0 = learnt[0];
        self.clauses.push(Clause {
            lits: learnt,
            learned: true,
            lbd,
            deleted: false,
        });
        self.n_learnts += 1;
        let accepted = self.enqueue(l0, Some(ci));
        debug_assert!(accepted, "asserting literal contradicted after backjump");
    }

    /// A clause currently serving as the reason for its implied literal
    /// must not be deleted.
    fn locked(&self, ci: usize) -> bool {
        let l0 = self.clauses[ci].lits[0];
        self.value(l0) == Some(true) && self.reason[l0.var] == Some(ci)
    }

    /// Drop the worst half of the deletable learned clauses: highest LBD
    /// first, oldest first within an LBD tier. Clauses with LBD ≤ 2
    /// ("glue" clauses) and clauses locked as reasons are kept. Deleted
    /// clauses detach from watch lists lazily during propagation.
    fn reduce_db(&mut self) {
        self.stats.db_reductions += 1;
        if weseer_obs::timeline::enabled() {
            weseer_obs::timeline::instant(
                "smt.cdcl.db_reduction",
                "smt",
                &[("learned", self.n_learnts.to_string())],
            );
        }
        let mut cands: Vec<usize> = (0..self.clauses.len())
            .filter(|&ci| {
                let c = &self.clauses[ci];
                c.learned && !c.deleted && c.lbd > 2 && !self.locked(ci)
            })
            .collect();
        cands.sort_by(|&a, &b| {
            self.clauses[b]
                .lbd
                .cmp(&self.clauses[a].lbd)
                .then(a.cmp(&b))
        });
        let n_del = cands.len() / 2;
        for &ci in &cands[..n_del] {
            self.clauses[ci].deleted = true;
            self.clauses[ci].lits = Vec::new();
            self.n_learnts -= 1;
        }
        self.max_learnts += self.max_learnts / 2;
    }

    /// Solve the clause database under `assumptions`, giving up (`None`)
    /// after `max_decisions` branching decisions.
    ///
    /// Assumptions are placed as the first decisions (MiniSat style): an
    /// assumption already true gets an empty decision level, one already
    /// false makes the call UNSAT *under these assumptions* without
    /// poisoning the database, and the rest are decided in order. The
    /// solver is always left at decision level 0, so the caller may
    /// `add_clause` and re-solve with different assumptions.
    pub fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        max_decisions: u64,
    ) -> (Option<SatResult>, SatStats) {
        self.stats = SatStats::default();
        if !self.ok {
            return (Some(SatResult::Unsat), self.stats);
        }
        debug_assert!(assumptions.iter().all(|a| a.var < self.num_vars));
        self.cancel_until(0);
        self.max_learnts = self
            .max_learnts
            .max(100)
            .max((self.clauses.len() - self.n_learnts) / 3);
        let mut conflicts_since_restart: u64 = 0;
        let mut restart_limit = RESTART_BASE * luby(self.restarts_done);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return (Some(SatResult::Unsat), self.stats);
                }
                let (learnt, bt, lbd) = self.analyze(confl);
                self.cancel_until(bt);
                self.attach_learnt(learnt, lbd);
                self.var_inc /= VAR_DECAY;
                if self.n_learnts >= self.max_learnts {
                    self.reduce_db();
                }
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    self.restarts_done += 1;
                    conflicts_since_restart = 0;
                    restart_limit = RESTART_BASE * luby(self.restarts_done);
                    if weseer_obs::timeline::enabled() {
                        weseer_obs::timeline::instant(
                            "smt.cdcl.restart",
                            "smt",
                            &[("conflicts", self.stats.conflicts.to_string())],
                        );
                    }
                    self.cancel_until(0);
                }
                continue;
            }
            // Propagation is at a fixpoint: place pending assumptions,
            // then take a VSIDS decision.
            let mut next = None;
            while self.decision_level() < assumptions.len() {
                let a = assumptions[self.decision_level()];
                match self.value(a) {
                    Some(true) => self.trail_lim.push(self.trail.len()),
                    Some(false) => {
                        self.cancel_until(0);
                        return (Some(SatResult::Unsat), self.stats);
                    }
                    None => {
                        next = Some(a);
                        break;
                    }
                }
            }
            let decision = next.or_else(|| {
                let mut best: Option<usize> = None;
                for v in 0..self.num_vars {
                    if self.assign[v].is_none()
                        && best.is_none_or(|b| self.activity[v] > self.activity[b])
                    {
                        best = Some(v);
                    }
                }
                best.map(|v| Lit {
                    var: v,
                    positive: self.phase[v],
                })
            });
            match decision {
                Some(lit) => {
                    self.stats.decisions += 1;
                    if self.stats.decisions > max_decisions {
                        self.cancel_until(0);
                        return (None, self.stats);
                    }
                    self.trail_lim.push(self.trail.len());
                    let accepted = self.enqueue(lit, None);
                    debug_assert!(accepted);
                }
                None => {
                    let model = self.assign.iter().map(|a| a.expect("complete")).collect();
                    self.cancel_until(0);
                    return (Some(SatResult::Sat(model)), self.stats);
                }
            }
        }
    }
}

/// The pre-CDCL core: DPLL with two-watched-literal unit propagation and
/// chronological backtracking (flip the last untried decision), no clause
/// learning. Kept verbatim as the differential-testing oracle for the
/// CDCL core.
#[cfg(test)]
fn solve_dpll_instrumented(cnf: &Cnf, max_decisions: u64) -> (Option<SatResult>, SatStats) {
    let mut stats = SatStats::default();
    let n = cnf.num_vars;
    let code = |l: Lit| -> usize { l.var * 2 + usize::from(l.positive) };

    // Clause database (clauses with ≥2 literals get watches).
    let mut assign: Vec<Option<bool>> = vec![None; n];
    #[derive(Debug)]
    struct TrailEntry {
        var: usize,
        decision: bool,
        flipped: bool,
    }
    let mut trail: Vec<TrailEntry> = Vec::new();
    let mut prop_head = 0usize;

    let mut clauses: Vec<Vec<Lit>> = Vec::with_capacity(cnf.clauses.len());
    let mut watches: Vec<Vec<usize>> = vec![Vec::new(); n * 2];
    let mut initial_units: Vec<Lit> = Vec::new();
    for c in &cnf.clauses {
        match c.len() {
            0 => return (Some(SatResult::Unsat), stats),
            1 => initial_units.push(c[0]),
            _ => {
                let idx = clauses.len();
                watches[code(c[0])].push(idx);
                watches[code(c[1])].push(idx);
                clauses.push(c.clone());
            }
        }
    }

    // Enqueue an implied/decided assignment; false on immediate conflict.
    let enqueue = |lit: Lit,
                   decision: bool,
                   assign: &mut Vec<Option<bool>>,
                   trail: &mut Vec<TrailEntry>|
     -> bool {
        match assign[lit.var] {
            Some(v) => v == lit.positive,
            None => {
                assign[lit.var] = Some(lit.positive);
                trail.push(TrailEntry {
                    var: lit.var,
                    decision,
                    flipped: false,
                });
                true
            }
        }
    };

    for lit in initial_units {
        if !enqueue(lit, false, &mut assign, &mut trail) {
            return (Some(SatResult::Unsat), stats);
        }
        stats.propagations += 1;
    }

    // Watched-literal propagation from trail[prop_head..]; false on
    // conflict.
    let propagate = |prop_head: &mut usize,
                     assign: &mut Vec<Option<bool>>,
                     trail: &mut Vec<TrailEntry>,
                     clauses: &mut [Vec<Lit>],
                     watches: &mut [Vec<usize>],
                     propagations: &mut u64|
     -> bool {
        while *prop_head < trail.len() {
            let var = trail[*prop_head].var;
            *prop_head += 1;
            let value = assign[var].expect("trail var assigned");
            // The literal that became FALSE.
            let false_lit = Lit {
                var,
                positive: !value,
            };
            let fcode = false_lit.var * 2 + usize::from(false_lit.positive);
            let mut i = 0;
            while i < watches[fcode].len() {
                let ci = watches[fcode][i];
                let clause = &mut clauses[ci];
                // Ensure the false literal sits at position 1.
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                // Already satisfied through the other watch?
                let w0 = clause[0];
                if assign[w0.var] == Some(w0.positive) {
                    i += 1;
                    continue;
                }
                // Find a new watchable literal.
                let mut moved = false;
                for k in 2..clause.len() {
                    let cand = clause[k];
                    if assign[cand.var] != Some(!cand.positive) {
                        clause.swap(1, k);
                        let ncode = cand.var * 2 + usize::from(cand.positive);
                        watches[ncode].push(ci);
                        watches[fcode].swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflict on w0.
                match assign[w0.var] {
                    None => {
                        assign[w0.var] = Some(w0.positive);
                        trail.push(TrailEntry {
                            var: w0.var,
                            decision: false,
                            flipped: false,
                        });
                        *propagations += 1;
                        i += 1;
                    }
                    Some(v) if v == w0.positive => {
                        i += 1;
                    }
                    Some(_) => return false, // conflict
                }
            }
        }
        true
    };

    // Backtrack to the last unflipped decision and flip it.
    let backtrack = |prop_head: &mut usize,
                     assign: &mut Vec<Option<bool>>,
                     trail: &mut Vec<TrailEntry>|
     -> bool {
        while let Some(entry) = trail.pop() {
            let val = assign[entry.var].expect("trail var assigned");
            assign[entry.var] = None;
            if entry.decision && !entry.flipped {
                assign[entry.var] = Some(!val);
                trail.push(TrailEntry {
                    var: entry.var,
                    decision: true,
                    flipped: true,
                });
                *prop_head = trail.len() - 1;
                return true;
            }
        }
        false
    };

    let mut next_search = 0usize; // decision variable cursor
    loop {
        if !propagate(
            &mut prop_head,
            &mut assign,
            &mut trail,
            &mut clauses,
            &mut watches,
            &mut stats.propagations,
        ) {
            if !backtrack(&mut prop_head, &mut assign, &mut trail) {
                return (Some(SatResult::Unsat), stats);
            }
            stats.decisions += 1; // a flip is a decision too
            if stats.decisions > max_decisions {
                return (None, stats);
            }
            next_search = 0;
            continue;
        }
        // Decide the next unassigned variable (true-first polarity: theory
        // atoms prefer the weaker, usually-satisfiable direction).
        let mut decided = false;
        while next_search < n {
            if assign[next_search].is_none() {
                assign[next_search] = Some(true);
                trail.push(TrailEntry {
                    var: next_search,
                    decision: true,
                    flipped: false,
                });
                decided = true;
                stats.decisions += 1;
                if stats.decisions > max_decisions {
                    return (None, stats);
                }
                break;
            }
            next_search += 1;
        }
        if !decided {
            if assign.iter().any(|a| a.is_none()) {
                // A backtrack may have exposed unassigned vars before the
                // cursor; rescan.
                next_search = 0;
                continue;
            }
            let model = assign.iter().map(|a| a.expect("complete")).collect();
            return (Some(SatResult::Sat(model)), stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One solve on a fresh CDCL core, no assumptions.
    fn cdcl(cnf: &Cnf, max_decisions: u64) -> (Option<SatResult>, SatStats) {
        Solver::from_cnf(cnf).solve_under_assumptions(&[], max_decisions)
    }

    fn solve(cnf: &Cnf) -> SatResult {
        cdcl(cnf, u64::MAX).0.expect("unbudgeted")
    }

    fn check_model(cnf: &Cnf, model: &[bool]) -> bool {
        cnf.clauses
            .iter()
            .all(|c| c.iter().any(|l| model[l.var] == l.positive))
    }

    fn pigeonhole_3_into_2() -> Cnf {
        // p[i][j]: pigeon i in hole j; 3 pigeons, 2 holes.
        let mut cnf = Cnf::default();
        let mut p = [[0usize; 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = cnf.new_var();
            }
        }
        for row in &p {
            cnf.add_clause(vec![Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for (i1, r1) in p.iter().enumerate() {
            for r2 in p.iter().skip(i1 + 1) {
                for (c1, c2) in r1.iter().zip(r2) {
                    cnf.add_clause(vec![Lit::neg(*c1), Lit::neg(*c2)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn trivial_sat() {
        let mut cnf = Cnf::default();
        let a = cnf.new_var();
        cnf.add_unit(Lit::pos(a));
        match solve(&cnf) {
            SatResult::Sat(m) => assert!(m[a]),
            _ => panic!(),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut cnf = Cnf::default();
        let a = cnf.new_var();
        cnf.add_unit(Lit::pos(a));
        cnf.add_unit(Lit::neg(a));
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut cnf = Cnf::default();
        let _ = cnf.new_var();
        cnf.add_clause(Vec::<Lit>::new());
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn requires_backtracking() {
        // (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ b) ∧ (¬a ∨ ¬b) is UNSAT;
        // dropping the last clause makes it SAT with a=b=true... verify both.
        let mut cnf = Cnf::default();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause(vec![Lit::pos(a), Lit::neg(b)]);
        cnf.add_clause(vec![Lit::neg(a), Lit::pos(b)]);
        match solve(&cnf) {
            SatResult::Sat(m) => assert!(check_model(&cnf, &m)),
            _ => panic!("should be SAT"),
        }
        cnf.add_clause(vec![Lit::neg(a), Lit::neg(b)]);
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        assert_eq!(solve(&pigeonhole_3_into_2()), SatResult::Unsat);
    }

    #[test]
    fn instrumented_counts_search_effort() {
        // The pigeonhole instance forces decisions, propagations, and
        // (under CDCL) conflicts with learned clauses.
        let cnf = pigeonhole_3_into_2();
        let (res, stats) = cdcl(&cnf, u64::MAX);
        assert_eq!(res, Some(SatResult::Unsat));
        assert!(stats.decisions > 0);
        assert!(stats.propagations > 0);
        assert!(stats.conflicts > 0);
        assert!(stats.learned > 0);

        // A budget of 0 decisions must exhaust (CDCL may refute this
        // instance with a single decision, so 1 is not tight enough).
        let (res, stats) = cdcl(&cnf, 0);
        assert_eq!(res, None);
        assert!(stats.decisions >= 1);

        let mut total = SatStats::default();
        total.absorb(stats);
        total.absorb(stats);
        assert_eq!(total.decisions, 2 * stats.decisions);
        assert_eq!(total.conflicts, 2 * stats.conflicts);
    }

    #[test]
    fn legacy_dpll_budget_exhausts() {
        // The chronological-backtracking core needs many flips; a budget
        // of 1 decision must exhaust.
        let cnf = pigeonhole_3_into_2();
        let (res, stats) = solve_dpll_instrumented(&cnf, u64::MAX);
        assert_eq!(res, Some(SatResult::Unsat));
        assert!(stats.decisions > 0);
        let (res, stats) = solve_dpll_instrumented(&cnf, 1);
        assert_eq!(res, None);
        assert!(stats.decisions >= 1);
    }

    #[test]
    fn incremental_clause_addition() {
        // Solve, strengthen with new clauses, solve again on the same
        // solver: the learned state must carry over and verdicts must
        // match from-scratch solving.
        let mut cnf = Cnf::default();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve_under_assumptions(&[], u64::MAX).0 {
            Some(SatResult::Sat(m)) => assert!(check_model(&cnf, &m)),
            other => panic!("{other:?}"),
        }
        solver.add_clause(&[Lit::neg(a)]);
        solver.add_clause(&[Lit::neg(b)]);
        assert_eq!(
            solver.solve_under_assumptions(&[], u64::MAX).0,
            Some(SatResult::Unsat)
        );
        assert!(!solver.is_ok());
    }

    #[test]
    fn assumptions_do_not_poison_the_database() {
        // UNSAT under assumptions must leave the solver reusable: the
        // same database must stay SAT without (or with compatible)
        // assumptions.
        let mut cnf = Cnf::default();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause(vec![Lit::neg(a), Lit::pos(b)]); // a → b
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(
            solver
                .solve_under_assumptions(&[Lit::pos(a), Lit::neg(b)], u64::MAX)
                .0,
            Some(SatResult::Unsat)
        );
        assert!(solver.is_ok());
        match solver
            .solve_under_assumptions(&[Lit::pos(a), Lit::pos(b)], u64::MAX)
            .0
        {
            Some(SatResult::Sat(m)) => {
                assert!(m[a] && m[b]);
                assert!(check_model(&cnf, &m));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    fn arbitrary_cnf() -> impl Strategy<Value = Cnf> {
        (
            1usize..8,
            proptest::collection::vec(
                proptest::collection::vec((0usize..8, any::<bool>()), 1..4),
                0..24,
            ),
        )
            .prop_map(|(n_vars, clauses)| {
                let mut cnf = Cnf::default();
                for _ in 0..n_vars {
                    cnf.new_var();
                }
                for c in &clauses {
                    let lits: Vec<Lit> = c
                        .iter()
                        .map(|&(v, pos)| Lit {
                            var: v % n_vars,
                            positive: pos,
                        })
                        .collect();
                    cnf.add_clause(lits);
                }
                cnf
            })
    }

    proptest! {
        /// Random 3-SAT near/below the threshold: whenever the solver says
        /// SAT, the model must actually satisfy the clauses; whenever it
        /// says UNSAT on small instances, brute force must agree.
        #[test]
        fn random_3sat_sound(cnf in arbitrary_cnf()) {
            let n_vars = cnf.num_vars;
            let brute_sat = (0u32..(1 << n_vars)).any(|bits| {
                let model: Vec<bool> = (0..n_vars).map(|i| bits & (1 << i) != 0).collect();
                check_model(&cnf, &model)
            });
            match solve(&cnf) {
                SatResult::Sat(m) => {
                    prop_assert!(check_model(&cnf, &m));
                    prop_assert!(brute_sat);
                }
                SatResult::Unsat => prop_assert!(!brute_sat),
            }
        }

        /// The CDCL core and the legacy DPLL core agree on SAT/UNSAT, and
        /// each one's SAT model satisfies the clauses.
        #[test]
        fn cdcl_agrees_with_legacy_dpll(cnf in arbitrary_cnf()) {
            let (learned, _) = cdcl(&cnf, u64::MAX);
            let (dpll, _) = solve_dpll_instrumented(&cnf, u64::MAX);
            match (learned.expect("unbudgeted"), dpll.expect("unbudgeted")) {
                (SatResult::Sat(mc), SatResult::Sat(md)) => {
                    prop_assert!(check_model(&cnf, &mc));
                    prop_assert!(check_model(&cnf, &md));
                }
                (SatResult::Unsat, SatResult::Unsat) => {}
                (c, d) => prop_assert!(false, "CDCL {c:?} vs DPLL {d:?}"),
            }
        }

        /// Determinism: the same input yields bit-identical models and
        /// identical search statistics on every run.
        #[test]
        fn cdcl_is_deterministic(cnf in arbitrary_cnf()) {
            let (r1, s1) = cdcl(&cnf, u64::MAX);
            let (r2, s2) = cdcl(&cnf, u64::MAX);
            prop_assert_eq!(r1, r2);
            prop_assert_eq!(s1, s2);
        }

        /// Solving under assumptions agrees with solving the CNF plus the
        /// assumptions as unit clauses, and the model (if any) honors the
        /// assumptions.
        #[test]
        fn assumptions_agree_with_units(
            cnf in arbitrary_cnf(),
            raw_assumps in proptest::collection::vec((0usize..8, any::<bool>()), 0..4),
        ) {
            let assumps: Vec<Lit> = raw_assumps
                .iter()
                .map(|&(v, pos)| Lit { var: v % cnf.num_vars, positive: pos })
                .collect();
            let mut solver = Solver::from_cnf(&cnf);
            let (inc, _) = solver.solve_under_assumptions(&assumps, u64::MAX);
            let mut with_units = cnf.clone();
            for &a in &assumps {
                with_units.add_unit(a);
            }
            match (inc.expect("unbudgeted"), solve(&with_units)) {
                (SatResult::Sat(m), SatResult::Sat(_)) => {
                    prop_assert!(check_model(&cnf, &m));
                    prop_assert!(assumps.iter().all(|a| m[a.var] == a.positive));
                }
                (SatResult::Unsat, SatResult::Unsat) => {}
                (i, u) => prop_assert!(false, "assumed {i:?} vs units {u:?}"),
            }
        }
    }
}
