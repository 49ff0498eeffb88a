//! Property tests for `Trace::fingerprint`: the incremental store keys
//! persisted verdicts by trace fingerprints, so the fingerprint must be
//! sensitive to every analyzer-visible content change (SQL templates,
//! path-condition formulas and positions, transaction boundaries) and to
//! symbol names — names are content, not noise, because reports print
//! them — while two builds of one trace with the same names agree.

use proptest::prelude::*;
use weseer_concolic::{PathCond, StackTrace, StmtRecord, SymValue, Trace, TxnTrace};
use weseer_smt::{Ctx, Sort};
use weseer_sqlir::parser::parse;

const SQL_POOL: [&str; 3] = [
    "SELECT * FROM T t WHERE t.A = ?",
    "UPDATE T SET A = 1 WHERE ID = 1",
    "UPDATE T SET B = 2 WHERE ID = 2",
];

/// The content of one synthetic trace: per-statement SQL choice and
/// parameter value, path conditions as (position, bound) pairs, and the
/// transaction's commit flag.
#[derive(Debug, Clone)]
struct Spec {
    stmts: Vec<(usize, i64)>,
    conds: Vec<(usize, i64)>,
    committed: bool,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        proptest::collection::vec((0usize..SQL_POOL.len(), -5i64..5), 1..5),
        proptest::collection::vec((0usize..5, -5i64..5), 0..4),
        any::<bool>(),
    )
        .prop_map(|(stmts, conds, committed)| Spec {
            stmts,
            conds,
            committed,
        })
}

/// Materialize `spec` as a trace whose symbol names all start with
/// `prefix`. Symbols are numbered in build order (statement parameters,
/// then condition variables); the one numbered `renamed`, if any, gets a
/// name no other build uses.
fn build(ctx: &mut Ctx, spec: &Spec, prefix: &str, renamed: Option<usize>) -> Trace {
    let name = |k: usize, base: String| {
        if renamed == Some(k) {
            format!("{prefix}renamed")
        } else {
            format!("{prefix}{base}")
        }
    };
    let statements: Vec<StmtRecord> = spec
        .stmts
        .iter()
        .enumerate()
        .map(|(i, &(sql, val))| {
            let p = ctx.var(name(i, format!("p{i}")), Sort::Int);
            StmtRecord {
                index: i + 1,
                seq: (i as u64 + 1) * 10,
                txn: 0,
                stmt: parse(SQL_POOL[sql]).unwrap(),
                params: vec![SymValue::with_sym(val, p)],
                rows: vec![],
                is_empty: false,
                trigger: StackTrace::new(),
                sent_at: StackTrace::new(),
            }
        })
        .collect();
    let path_conds = spec
        .conds
        .iter()
        .enumerate()
        .map(|(j, &(pos, bound))| {
            let v = ctx.var(name(spec.stmts.len() + j, format!("c{j}")), Sort::Int);
            let b = ctx.int(bound);
            let term = ctx.gt(v, b);
            // seq between statement `pos` and `pos + 1` (statements sit
            // at 10, 20, ...), clamped past the last statement.
            let seq = (pos.min(spec.stmts.len()) as u64) * 10 + 5;
            PathCond {
                term,
                seq,
                stack: StackTrace::new(),
                in_library: false,
            }
        })
        .collect();
    Trace {
        api: "Prop".into(),
        statements,
        txns: vec![TxnTrace {
            id: 0,
            stmt_indexes: (0..spec.stmts.len()).collect(),
            committed: spec.committed,
        }],
        path_conds,
        unique_ids: vec![],
        stats: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn renaming_one_symbol_changes_the_fingerprint(spec in spec_strategy(), which in 0usize..9) {
        let mut ctx = Ctx::new();
        let base = build(&mut ctx, &spec, "p.", None);
        let symbols = spec.stmts.len() + spec.conds.len();
        let renamed = build(&mut ctx, &spec, "p.", Some(which % symbols));
        prop_assert_ne!(base.fingerprint(&ctx), renamed.fingerprint(&ctx));
    }

    #[test]
    fn two_builds_with_the_same_names_share_the_fingerprint(spec in spec_strategy()) {
        let mut ctx = Ctx::new();
        let a = build(&mut ctx, &spec, "p.", None);
        // A second context whose term ids are shifted by unrelated terms.
        let mut other = Ctx::new();
        let _ = build(&mut other, &spec, "unrelated.", None);
        let b = build(&mut other, &spec, "p.", None);
        prop_assert_eq!(a.fingerprint(&ctx), b.fingerprint(&other));
    }

    #[test]
    fn content_changes_always_change_the_fingerprint(
        spec in spec_strategy(),
        which in 0usize..4,
    ) {
        let mut ctx = Ctx::new();
        let base = build(&mut ctx, &spec, "p.", None);
        let mut mutated = spec.clone();
        match which {
            // A different SQL template for the first statement.
            0 => mutated.stmts[0].0 = (mutated.stmts[0].0 + 1) % SQL_POOL.len(),
            // A different path-condition formula (falls back to the
            // commit flag when the spec has no conditions).
            1 if !mutated.conds.is_empty() => mutated.conds[0].1 += 100,
            // A condition moved across a statement boundary (needs a
            // position change that survives clamping).
            2 if !mutated.conds.is_empty() && mutated.conds[0].0.min(spec.stmts.len()) != 0 => {
                mutated.conds[0].0 = 0;
            }
            // The transaction boundary itself.
            _ => mutated.committed = !mutated.committed,
        }
        let other = build(&mut ctx, &mutated, "p.", None);
        prop_assert_ne!(base.fingerprint(&ctx), other.fingerprint(&ctx));
    }
}
