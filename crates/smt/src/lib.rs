//! # weseer-smt
//!
//! A from-scratch SMT solver for the fragment WeSEER's deadlock analyzer
//! emits (the paper uses Z3 4.8.14; this crate is its offline stand-in):
//!
//! * quantifier-free boolean combinations,
//! * linear integer/real arithmetic (Fourier–Motzkin + branch-and-bound),
//! * string (dis)equality (union–find),
//! * `Array<K, Bool>` with `read`/`write` (read-over-write reduction plus
//!   lazily instantiated congruence axioms), used by the paper's Alg. 1
//!   container modeling,
//! * model generation — SAT answers carry concrete assignments that the
//!   deadlock reports surface to developers.
//!
//! Every query goes through [`IncrementalSolver::check_tiered`]: the
//! fast-path tiers [`SolverConfig::tiers`] enables ([`simplify()`], then
//! [`presolve()`], which only finds models), then the crate's one lazy-SMT
//! loop, with every SAT answer gated by [`Model::satisfies`] on the
//! original assertion. [`check`] is one query on a fresh
//! [`IncrementalSolver`]; the analyzer keeps one solver per transaction
//! pair so related queries share lowering, axioms and learned clauses.
//!
//! ## Example
//!
//! ```
//! use weseer_smt::{Ctx, Sort, SolverConfig, SolveResult, check};
//!
//! let mut ctx = Ctx::new();
//! let a = ctx.var("syma", Sort::Int);
//! let one = ctx.int(1);
//! let sum = ctx.add(a, one);
//! let eight = ctx.int(8);
//! let ne = ctx.ne(sum, eight);
//! let three = ctx.int(3);
//! let gt = ctx.gt(a, three);
//! let f = ctx.and([ne, gt]);
//! match check(&mut ctx, f, &SolverConfig::default()) {
//!     SolveResult::Sat(model) => {
//!         let v = model.get_int("syma").unwrap();
//!         assert!(v > 3 && v + 1 != 8);
//!     }
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

pub mod arith;
pub mod incremental;
pub mod lower;
pub mod model;
pub mod presolve;
pub mod rational;
pub mod sat;
pub mod simplify;
pub mod solver;
pub mod strings;
pub mod term;

pub use incremental::IncrementalSolver;
pub use model::{Model, ModelKey, ModelValue};
pub use presolve::presolve;
pub use rational::Rat;
pub use simplify::{simplify, Simplifier};
pub use solver::{check, SolveResult, SolverConfig, SolverStats, TierConfig};
pub use term::{Ctx, Sort, TermId, TermKind};
