//! The concolic execution engine (paper Sec. III-A, IV).
//!
//! The engine owns the SMT term context, the path-condition log, and the
//! simulated call stack. Simulated application code performs all
//! input-dependent computation through engine operations so that symbolic
//! expressions propagate; `branch` records a path condition for every
//! input-dependent branch taken.
//!
//! Three execution modes reproduce the paper's Table III measurement:
//!
//! * [`ExecMode::Native`] — every engine operation returns immediately
//!   (JIT-compiled JDK run),
//! * [`ExecMode::Interpretive`] — per-operation bookkeeping but no symbolic
//!   state (interpretive HotSpot run),
//! * [`ExecMode::Concolic`] — full symbolic propagation and path-condition
//!   recording.
//!
//! Library code (string/decimal/container internals, DB drivers) is
//! normally *modeled*: its internal branches are skipped and outputs become
//! fresh symbolic variables (Sec. IV). [`LibraryMode::Naive`] disables the
//! modeling to reproduce the paper's 656K→2.7K path-condition pruning
//! experiment.

use crate::location::{CodeLoc, StackTrace};
use crate::sym::{SymBool, SymValue};
use std::cell::RefCell;
use std::rc::Rc;
use weseer_smt::{Ctx, Rat, Sort, TermId};
use weseer_sqlir::{CmpOp, Value};

/// How application code is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// No tracing, no symbolic state (baseline JDK).
    Native,
    /// Bookkeeping per operation, no symbolic state (interpretive JDK).
    Interpretive,
    /// Full concolic execution.
    Concolic,
}

/// How library-internal branches are treated under concolic execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibraryMode {
    /// Library semantics are modeled; internal branches are pruned and
    /// outputs become fresh symbolic variables (paper Sec. IV).
    Modeled,
    /// Library internals run concolically, flooding the path-condition log
    /// (the paper's unpruned baseline).
    Naive,
}

/// Execution counters reported alongside traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Application-level path conditions recorded.
    pub app_path_conds: usize,
    /// Library-internal path conditions recorded (Naive mode only).
    pub lib_path_conds: usize,
    /// Library-internal path conditions *avoided* by modeling.
    pub lib_path_conds_avoided: usize,
    /// Symbolic operations performed.
    pub sym_ops: u64,
    /// Operations dispatched by the engine (any mode except Native).
    pub interpreted_ops: u64,
    /// SQL statements recorded.
    pub statements: usize,
}

impl EngineStats {
    /// Total path conditions recorded.
    pub fn total_path_conds(&self) -> usize {
        self.app_path_conds + self.lib_path_conds
    }
}

/// One recorded path condition.
#[derive(Debug, Clone)]
pub struct PathCond {
    /// The condition as taken (already negated when the false branch ran).
    pub term: TermId,
    /// Global sequence number; compare with statement sequence numbers to
    /// find "path conditions recorded before statement k" (Sec. V-B).
    pub seq: u64,
    /// Where the branch was evaluated.
    pub stack: StackTrace,
    /// Whether the branch lies inside modeled library code.
    pub in_library: bool,
}

/// The concolic execution engine.
#[derive(Debug)]
pub struct Engine {
    /// SMT term context. Public so the analyzer can keep building formulas
    /// over the trace's terms.
    pub ctx: Ctx,
    mode: ExecMode,
    lib_mode: LibraryMode,
    active: bool,
    ignored_depth: u32,
    frames: Vec<CodeLoc>,
    path_conds: Vec<PathCond>,
    seq: u64,
    unique_ids: Vec<(String, TermId)>,
    stats: EngineStats,
}

/// Shared handle to an engine; the ORM session, the SQL driver, and the
/// application code all hold one.
pub type EngineRef = Rc<RefCell<Engine>>;

/// Create a shared engine.
pub fn shared(mode: ExecMode) -> EngineRef {
    Rc::new(RefCell::new(Engine::new(mode)))
}

/// Move the term context out of an engine once trace collection is done
/// (the analyzer needs the context to interpret the trace's term ids).
/// The engine is left with a fresh empty context.
pub fn take_ctx(engine: &EngineRef) -> Ctx {
    std::mem::take(&mut engine.borrow_mut().ctx)
}

impl Engine {
    /// New engine in the given mode with modeled libraries.
    pub fn new(mode: ExecMode) -> Self {
        Engine {
            ctx: Ctx::new(),
            mode,
            lib_mode: LibraryMode::Modeled,
            active: false,
            ignored_depth: 0,
            frames: Vec::new(),
            path_conds: Vec::new(),
            seq: 0,
            unique_ids: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Switch library handling (before execution starts).
    pub fn set_library_mode(&mut self, m: LibraryMode) {
        self.lib_mode = m;
    }

    /// Current library mode.
    pub fn library_mode(&self) -> LibraryMode {
        self.lib_mode
    }

    /// Current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Begin the concolic section (paper's `start_concolic()`).
    pub fn start_concolic(&mut self) {
        self.active = true;
    }

    /// End the concolic section (paper's `end_concolic()`).
    pub fn end_concolic(&mut self) {
        self.active = false;
    }

    /// Whether symbolic state is being propagated right now.
    pub fn tracking(&self) -> bool {
        self.active && self.mode == ExecMode::Concolic
    }

    /// Whether the engine performs per-operation work at all.
    pub fn dispatching(&self) -> bool {
        self.mode != ExecMode::Native
    }

    /// Next global sequence number (shared between path conditions and
    /// statement records).
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Count a recorded SQL statement (called by the driver).
    pub fn note_statement(&mut self) {
        self.stats.statements += 1;
    }

    // ---- call stack ----------------------------------------------------

    /// Push a stack frame (use [`FrameGuard`] / `frame` for RAII).
    pub fn push_frame(&mut self, loc: CodeLoc) {
        self.frames.push(loc);
    }

    /// Pop the innermost frame.
    pub fn pop_frame(&mut self) {
        self.frames.pop();
    }

    /// Snapshot the current call stack.
    pub fn stack(&self) -> StackTrace {
        StackTrace {
            frames: self.frames.clone(),
        }
    }

    /// Snapshot the stack with one extra frame for a trigger site.
    pub fn stack_at(&self, loc: CodeLoc) -> StackTrace {
        let mut st = self.stack();
        st.frames.push(loc);
        st
    }

    // ---- symbolic inputs -----------------------------------------------

    /// Mark a value as symbolic (paper's `make_symbolic(variable)`).
    pub fn make_symbolic(&mut self, name: impl Into<String>, value: Value) -> SymValue {
        let name = name.into();
        if !self.tracking() {
            return SymValue::concrete(value);
        }
        let sort = match &value {
            Value::Int(_) => Sort::Int,
            Value::Float(_) => Sort::Real,
            Value::Str(_) => Sort::Str,
            Value::Bool(_) => Sort::Bool,
            Value::Null => return SymValue::concrete(value),
        };
        let term = self.ctx.var(name, sort);
        SymValue::with_sym(value, term)
    }

    /// A symbolic value drawn from a database sequence / identifier
    /// generator named `gen`. Values of the same generator are unique
    /// across concurrent executions, so the deadlock analyzer adds
    /// cross-instance disequalities for them (otherwise every pair of
    /// INSERTs with generated keys would look like a key collision).
    pub fn make_unique_id(&mut self, gen: &str, value: Value) -> SymValue {
        if !self.tracking() {
            return SymValue::concrete(value);
        }
        let n = self.unique_ids.len();
        let name = format!("uniq!{gen}!{n}");
        let term = self.ctx.var(name, Sort::Int);
        self.unique_ids.push((gen.to_string(), term));
        SymValue::with_sym(value, term)
    }

    /// Generated-identifier variables recorded so far: `(generator, term)`.
    pub fn unique_ids(&self) -> &[(String, TermId)] {
        &self.unique_ids
    }

    /// A fresh symbolic variable representing an opaque library output
    /// (Sec. IV: "the engine generates a new symbolic variable to
    /// represent its output").
    pub fn fresh_output(&mut self, hint: &str, concrete: Value) -> SymValue {
        if !self.tracking() {
            return SymValue::concrete(concrete);
        }
        let sort = match &concrete {
            Value::Int(_) => Sort::Int,
            Value::Float(_) => Sort::Real,
            Value::Str(_) => Sort::Str,
            Value::Bool(_) => Sort::Bool,
            Value::Null => return SymValue::concrete(concrete),
        };
        let term = self.ctx.fresh_var(hint, sort);
        SymValue::with_sym(concrete, term)
    }

    // ---- ignored (library) sections --------------------------------------

    /// Enter an ignored library function (concrete-only execution).
    pub fn enter_library(&mut self) {
        self.ignored_depth += 1;
    }

    /// Leave an ignored library function.
    pub fn exit_library(&mut self) {
        debug_assert!(self.ignored_depth > 0, "unbalanced exit_library");
        self.ignored_depth = self.ignored_depth.saturating_sub(1);
    }

    /// Whether execution is inside a modeled library.
    pub fn in_library(&self) -> bool {
        self.ignored_depth > 0
    }

    // ---- operations -------------------------------------------------------

    fn term_of(&mut self, v: &SymValue) -> Option<TermId> {
        if let Some(t) = v.sym {
            return Some(t);
        }
        Some(match &v.concrete {
            Value::Int(i) => self.ctx.int(*i),
            Value::Float(f) => {
                let r = Rat::from_f64(*f);
                self.ctx.real(r)
            }
            Value::Str(s) => self.ctx.str_const(s.clone()),
            Value::Bool(b) => self.ctx.bool_const(*b),
            Value::Null => return None,
        })
    }

    fn dispatch(&mut self) {
        if self.dispatching() {
            // A concolic operation interprets strictly more work than a
            // plain interpretive one (symbolic store lookups, taint
            // propagation) — the Table III gap between the two modes.
            let units = if self.mode == ExecMode::Concolic {
                4
            } else {
                1
            };
            self.dispatch_n(units);
        }
    }

    /// Simulate the interpreter executing `n` operation units. The
    /// paper's Interpretive mode is HotSpot with the JIT disabled, so
    /// every operation pays bytecode-dispatch costs; one engine-level
    /// operation here stands for the surrounding application code of the
    /// real 100K-LoC apps, hence the sizeable opaque loop per unit.
    pub fn dispatch_n(&mut self, n: u64) {
        if !self.dispatching() {
            return;
        }
        self.stats.interpreted_ops += n;
        let mut acc = self.seq;
        for i in 0..n * 600 {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(acc);
    }

    /// Numeric addition.
    pub fn add(&mut self, a: &SymValue, b: &SymValue) -> SymValue {
        self.dispatch();
        let concrete = num_bin(&a.concrete, &b.concrete, |x, y| x + y, |x, y| x + y);
        self.num_result(a, b, concrete, |ctx, ta, tb| ctx.add(ta, tb))
    }

    /// Numeric subtraction.
    pub fn sub(&mut self, a: &SymValue, b: &SymValue) -> SymValue {
        self.dispatch();
        let concrete = num_bin(&a.concrete, &b.concrete, |x, y| x - y, |x, y| x - y);
        self.num_result(a, b, concrete, |ctx, ta, tb| ctx.sub(ta, tb))
    }

    fn num_result(
        &mut self,
        a: &SymValue,
        b: &SymValue,
        concrete: Value,
        build: impl FnOnce(&mut Ctx, TermId, TermId) -> TermId,
    ) -> SymValue {
        if !self.tracking() || (!a.is_symbolic() && !b.is_symbolic()) {
            return SymValue::concrete(concrete);
        }
        self.stats.sym_ops += 1;
        match (self.term_of(a), self.term_of(b)) {
            (Some(ta), Some(tb)) => {
                let t = build(&mut self.ctx, ta, tb);
                SymValue::with_sym(concrete, t)
            }
            _ => SymValue::concrete(concrete),
        }
    }

    /// Comparison producing a concolic boolean.
    ///
    /// Strings support only `=`/`!=` symbolically (Fig. 7); other string
    /// comparisons fall back to a fresh opaque boolean.
    pub fn cmp(&mut self, op: CmpOp, a: &SymValue, b: &SymValue) -> SymBool {
        self.dispatch();
        let concrete = match a.concrete.sql_cmp(&b.concrete) {
            Some(ord) => op.eval(ord),
            None => false, // NULL comparisons are not-true
        };
        if !self.tracking() || (!a.is_symbolic() && !b.is_symbolic()) {
            return SymBool::concrete(concrete);
        }
        if a.concrete.is_null() || b.concrete.is_null() {
            return SymBool::concrete(concrete);
        }
        self.stats.sym_ops += 1;
        let is_str = matches!(a.concrete, Value::Str(_)) || matches!(b.concrete, Value::Str(_));
        if is_str && !matches!(op, CmpOp::Eq | CmpOp::Ne) {
            let out = self.fresh_output("strcmp", Value::Bool(concrete));
            return SymBool {
                concrete,
                sym: out.sym,
            };
        }
        let (ta, tb) = match (self.term_of(a), self.term_of(b)) {
            (Some(ta), Some(tb)) => (ta, tb),
            _ => return SymBool::concrete(concrete),
        };
        let term = match op {
            CmpOp::Eq => self.ctx.eq(ta, tb),
            CmpOp::Ne => self.ctx.ne(ta, tb),
            CmpOp::Lt => self.ctx.lt(ta, tb),
            CmpOp::Le => self.ctx.le(ta, tb),
            CmpOp::Gt => self.ctx.gt(ta, tb),
            CmpOp::Ge => self.ctx.ge(ta, tb),
        };
        SymBool::with_sym(concrete, term)
    }

    // ---- branching -------------------------------------------------------

    /// Record a branch on `cond` at `loc` and return the concrete decision.
    ///
    /// Inside modeled library code the condition is *not* recorded (paper
    /// Sec. IV pruning); in [`LibraryMode::Naive`] it is.
    pub fn branch(&mut self, cond: &SymBool, loc: CodeLoc) -> bool {
        self.dispatch();
        let taken = cond.concrete;
        if !self.tracking() {
            return taken;
        }
        let Some(sym) = cond.sym else { return taken };
        let in_lib = self.in_library();
        if in_lib && self.lib_mode == LibraryMode::Modeled {
            self.stats.lib_path_conds_avoided += 1;
            return taken;
        }
        let term = if taken { sym } else { self.ctx.not(sym) };
        let seq = self.next_seq();
        let stack = self.stack_at(loc);
        if in_lib {
            self.stats.lib_path_conds += 1;
        } else {
            self.stats.app_path_conds += 1;
        }
        self.path_conds.push(PathCond {
            term,
            seq,
            stack,
            in_library: in_lib,
        });
        taken
    }

    /// Record an externally constructed condition as a path fact (used by
    /// the driver for result-consistency conditions: fetched rows satisfy
    /// the statement's query condition).
    pub fn record_condition(&mut self, term: TermId, stack: StackTrace) {
        if !self.tracking() {
            return;
        }
        let seq = self.next_seq();
        self.stats.app_path_conds += 1;
        self.path_conds.push(PathCond {
            term,
            seq,
            stack,
            in_library: false,
        });
    }

    /// The symbolic term of a concolic value: its symbolic part, or a
    /// constant term of its concrete value (`None` for NULL).
    pub fn term_of_value(&mut self, v: &SymValue) -> Option<TermId> {
        self.term_of(v)
    }

    /// All recorded path conditions, in order.
    pub fn path_conds(&self) -> &[PathCond] {
        &self.path_conds
    }

    /// Path conditions recorded before the given sequence number.
    pub fn path_conds_before(&self, seq: u64) -> Vec<PathCond> {
        self.path_conds
            .iter()
            .filter(|p| p.seq < seq)
            .cloned()
            .collect()
    }
}

fn num_bin(
    a: &Value,
    b: &Value,
    int_op: impl Fn(i64, i64) -> i64,
    float_op: impl Fn(f64, f64) -> f64,
) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(int_op(*x, *y)),
        _ => {
            let (x, y) = (
                a.as_float()
                    .unwrap_or_else(|| panic!("numeric op on {a:?}")),
                b.as_float()
                    .unwrap_or_else(|| panic!("numeric op on {b:?}")),
            );
            Value::Float(float_op(x, y))
        }
    }
}

/// RAII guard that pops a stack frame on drop.
pub struct FrameGuard {
    engine: EngineRef,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        self.engine.borrow_mut().pop_frame();
    }
}

/// Push `loc` onto the simulated call stack for the guard's lifetime.
pub fn frame(engine: &EngineRef, loc: CodeLoc) -> FrameGuard {
    engine.borrow_mut().push_frame(loc);
    FrameGuard {
        engine: engine.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc;

    fn concolic() -> Engine {
        let mut e = Engine::new(ExecMode::Concolic);
        e.start_concolic();
        e
    }

    #[test]
    fn symbolic_propagation_through_add() {
        // Paper Sec. III-A: a = 1 symbolic; b = a + 1 → concrete 2,
        // symbolic syma + 1.
        let mut e = concolic();
        let a = e.make_symbolic("syma", Value::Int(1));
        let one = SymValue::concrete(1i64);
        let b = e.add(&a, &one);
        assert_eq!(b.concrete, Value::Int(2));
        assert!(b.is_symbolic());
        assert_eq!(e.ctx.display(b.sym.unwrap()), "(syma + 1)");
    }

    #[test]
    fn branch_records_negated_condition_on_else() {
        // if (b == 8) with else taken records syma + 1 != 8.
        let mut e = concolic();
        let a = e.make_symbolic("syma", Value::Int(1));
        let one = SymValue::concrete(1i64);
        let b = e.add(&a, &one);
        let eight = SymValue::concrete(8i64);
        let cond = e.cmp(CmpOp::Eq, &b, &eight);
        let taken = e.branch(&cond, loc!("test"));
        assert!(!taken);
        assert_eq!(e.path_conds().len(), 1);
        let pc = &e.path_conds()[0];
        assert_eq!(e.ctx.display(pc.term), "(not ((syma + 1) = 8))");
    }

    #[test]
    fn concrete_branches_record_nothing() {
        let mut e = concolic();
        let x = SymValue::concrete(5i64);
        let y = SymValue::concrete(3i64);
        let c = e.cmp(CmpOp::Gt, &x, &y);
        assert!(e.branch(&c, loc!("test")));
        assert!(e.path_conds().is_empty());
    }

    #[test]
    fn native_mode_skips_all_tracking() {
        let mut e = Engine::new(ExecMode::Native);
        e.start_concolic();
        let a = e.make_symbolic("a", Value::Int(1));
        assert!(!a.is_symbolic());
        let b = e.add(&a, &SymValue::concrete(1i64));
        assert_eq!(b.concrete, Value::Int(2));
        assert_eq!(e.stats().interpreted_ops, 0);
        assert_eq!(e.stats().sym_ops, 0);
    }

    #[test]
    fn interpretive_mode_counts_but_no_symbols() {
        let mut e = Engine::new(ExecMode::Interpretive);
        e.start_concolic();
        let a = e.make_symbolic("a", Value::Int(1));
        assert!(!a.is_symbolic());
        let _ = e.add(&a, &SymValue::concrete(1i64));
        assert_eq!(e.stats().interpreted_ops, 1);
        assert_eq!(e.stats().sym_ops, 0);
    }

    #[test]
    fn outside_concolic_section_nothing_is_symbolic() {
        let mut e = Engine::new(ExecMode::Concolic);
        let a = e.make_symbolic("a", Value::Int(1));
        assert!(!a.is_symbolic());
        e.start_concolic();
        let b = e.make_symbolic("b", Value::Int(1));
        assert!(b.is_symbolic());
        e.end_concolic();
        let c = e.make_symbolic("c", Value::Int(1));
        assert!(!c.is_symbolic());
    }

    #[test]
    fn library_branches_pruned_in_modeled_mode() {
        let mut e = concolic();
        let a = e.make_symbolic("a", Value::Int(1));
        let zero = SymValue::concrete(0i64);
        let c = e.cmp(CmpOp::Gt, &a, &zero);
        e.enter_library();
        e.branch(&c, loc!("lib_internal"));
        e.exit_library();
        assert_eq!(e.stats().app_path_conds, 0);
        assert_eq!(e.stats().lib_path_conds_avoided, 1);
        assert!(e.path_conds().is_empty());
    }

    #[test]
    fn library_branches_recorded_in_naive_mode() {
        let mut e = concolic();
        e.set_library_mode(LibraryMode::Naive);
        let a = e.make_symbolic("a", Value::Int(1));
        let zero = SymValue::concrete(0i64);
        let c = e.cmp(CmpOp::Gt, &a, &zero);
        e.enter_library();
        e.branch(&c, loc!("lib_internal"));
        e.exit_library();
        assert_eq!(e.stats().lib_path_conds, 1);
        assert_eq!(e.path_conds().len(), 1);
        assert!(e.path_conds()[0].in_library);
    }

    #[test]
    fn string_equality_is_symbolic_order_is_opaque() {
        let mut e = concolic();
        let s = e.make_symbolic("s", Value::str("abc"));
        let t = SymValue::concrete("abc");
        let eq = e.cmp(CmpOp::Eq, &s, &t);
        assert!(eq.concrete);
        assert!(eq.sym.is_some());
        let lt = e.cmp(CmpOp::Lt, &s, &t);
        assert!(lt.sym.is_some()); // fresh opaque var
        assert!(!lt.concrete);
    }

    #[test]
    fn null_comparisons_stay_concrete() {
        let mut e = concolic();
        let s = e.make_symbolic("s", Value::Int(1));
        let null = SymValue::concrete(Value::Null);
        let c = e.cmp(CmpOp::Eq, &s, &null);
        assert!(!c.concrete);
        assert!(c.sym.is_none());
    }

    #[test]
    fn frame_guard_maintains_stack() {
        let e = shared(ExecMode::Concolic);
        e.borrow_mut().start_concolic();
        {
            let _g1 = frame(&e, loc!("outer"));
            {
                let _g2 = frame(&e, loc!("inner"));
                let st = e.borrow().stack();
                assert_eq!(st.frames.len(), 2);
                assert_eq!(st.top().unwrap().function, "inner");
            }
            assert_eq!(e.borrow().stack().frames.len(), 1);
        }
        assert!(e.borrow().stack().frames.is_empty());
    }

    #[test]
    fn path_conds_before_filters_by_seq() {
        let mut e = concolic();
        let a = e.make_symbolic("a", Value::Int(5));
        let zero = SymValue::concrete(0i64);
        let c = e.cmp(CmpOp::Gt, &a, &zero);
        e.branch(&c, loc!("f"));
        let mid = e.next_seq();
        let c2 = e.cmp(CmpOp::Lt, &a, &SymValue::concrete(100i64));
        e.branch(&c2, loc!("f"));
        assert_eq!(e.path_conds_before(mid).len(), 1);
        assert_eq!(e.path_conds().len(), 2);
    }

    #[test]
    fn float_arithmetic_widens() {
        let mut e = concolic();
        let a = e.make_symbolic("price", Value::Float(2.5));
        let b = SymValue::concrete(Value::Int(1));
        let s = e.add(&a, &b);
        assert_eq!(s.concrete, Value::Float(3.5));
        assert!(s.is_symbolic());
    }
}
