//! # weseer-bench
//!
//! The evaluation-reproduction harness: one driver per table/figure of the
//! paper (Tables I–III, Figs. 10/11, the Sec. IV pruning measurement, and
//! the Sec. VII-B coarse-baseline comparison).
//!
//! Run `cargo run -p weseer-bench --bin reproduce --release -- all` to
//! regenerate every artifact. This crate regenerates and exports; it does
//! not measure performance — the committed `benchmark/` package is the
//! only place a perf number comes from.

pub mod experiments;
pub mod render;
