//! Direct unit tests of the Alg. 3 conflict-condition generators, checked
//! by solving the produced formulas: the conditions must be satisfiable
//! exactly when a conflicting row can exist.

use weseer_analyzer::encode::{
    associated_cond, gen_conflict_cond, range_conflict_cond, unified_read_cond, unified_write_cond,
    Importer, Side,
};
use weseer_analyzer::locks::{gen_shared_locks, Granularity};
use weseer_concolic::{ResultRow, StackTrace, StmtRecord, SymValue};
use weseer_smt::{check, Ctx, SolveResult, SolverConfig, Sort};
use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder, Value};

fn catalog() -> Catalog {
    Catalog::new(vec![TableBuilder::new("Product")
        .col("ID", ColType::Int)
        .col("QTY", ColType::Int)
        .primary_key(&["ID"])
        .build()
        .unwrap()])
    .unwrap()
}

/// A statement record whose parameters carry the given symbolic terms
/// from `src_ctx`.
fn record(sql: &str, params: Vec<SymValue>, rows: Vec<ResultRow>) -> StmtRecord {
    let is_empty = rows.is_empty();
    StmtRecord {
        index: 1,
        seq: 1,
        txn: 0,
        stmt: parse(sql).unwrap(),
        params,
        rows,
        is_empty,
        trigger: StackTrace::new(),
        sent_at: StackTrace::new(),
    }
}

#[test]
fn unified_read_binds_columns_to_r() {
    let cat = catalog();
    let mut src = Ctx::new();
    let pid = src.var("pid", Sort::Int);
    let rec = record(
        "SELECT * FROM Product p WHERE p.ID = ?",
        vec![SymValue::with_sym(Value::Int(3), pid)],
        vec![],
    );
    let mut dst = Ctx::new();
    let mut imp = Importer::new(&src, "A1.");
    let mut side = Side {
        rec: &rec,
        imp: &mut imp,
    };
    let t = unified_read_cond(&mut dst, &cat, &mut side, 1);
    assert_eq!(dst.display(t), "(r1.p.ID = A1.pid)");
}

#[test]
fn unified_write_disjoins_over_reader_aliases() {
    let cat = catalog();
    let mut src = Ctx::new();
    let qty = src.var("newqty", Sort::Int);
    let pid = src.var("wpid", Sort::Int);
    let rec = record(
        "UPDATE Product SET QTY = ? WHERE ID = ?",
        vec![
            SymValue::with_sym(Value::Int(5), qty),
            SymValue::with_sym(Value::Int(3), pid),
        ],
        vec![],
    );
    let mut dst = Ctx::new();
    let mut imp = Importer::new(&src, "A2.");
    let mut side = Side {
        rec: &rec,
        imp: &mut imp,
    };
    let aliases = vec!["p1".to_string(), "p2".to_string()];
    let t = unified_write_cond(&mut dst, &cat, &mut side, &aliases, "Product", 1);
    let rendered = dst.display(t);
    // Eq canonicalizes operand order, so match either direction.
    assert!(
        rendered.contains("r1.p1.ID = A2.wpid") || rendered.contains("A2.wpid = r1.p1.ID"),
        "{rendered}"
    );
    assert!(
        rendered.contains("r1.p2.ID = A2.wpid") || rendered.contains("A2.wpid = r1.p2.ID"),
        "{rendered}"
    );
    assert!(rendered.starts_with("(or"), "{rendered}");
}

#[test]
fn associated_cond_ties_r_to_result_symbols() {
    let cat = catalog();
    let mut src = Ctx::new();
    let id_sym = src.var("res1.row0.p.ID", Sort::Int);
    let rec = record(
        "SELECT * FROM Product p WHERE p.QTY >= ?",
        vec![SymValue::concrete(1i64)],
        vec![ResultRow {
            cols: vec![
                (
                    "p.ID".to_string(),
                    SymValue::with_sym(Value::Int(10), id_sym),
                ),
                ("p.QTY".to_string(), SymValue::concrete(7i64)),
            ],
        }],
    );
    let mut dst = Ctx::new();
    let mut imp = Importer::new(&src, "A1.");
    let mut side = Side {
        rec: &rec,
        imp: &mut imp,
    };
    let t = associated_cond(&mut dst, &cat, &mut side, 2);
    let rendered = dst.display(t);
    assert!(
        rendered.contains("r2.p.ID = A1.res1.row0.p.ID"),
        "{rendered}"
    );
    assert!(rendered.contains("r2.p.QTY = 7"), "{rendered}");
}

#[test]
fn empty_result_associated_cond_is_true() {
    let cat = catalog();
    let src = Ctx::new();
    let rec = record(
        "SELECT * FROM Product p WHERE p.ID = ?",
        vec![SymValue::concrete(1i64)],
        vec![],
    );
    let mut dst = Ctx::new();
    let mut imp = Importer::new(&src, "A1.");
    let mut side = Side {
        rec: &rec,
        imp: &mut imp,
    };
    let t = associated_cond(&mut dst, &cat, &mut side, 1);
    assert_eq!(dst.display(t), "true");
}

#[test]
fn range_enlargement_admits_neighbours() {
    // Shared range lock from `QTY >= 5`: the enlarged condition must admit
    // a row with QTY = 4 (the actual gap can cover it) via the fresh
    // boundary variable.
    let cat = catalog();
    let src = Ctx::new();
    let rec = record(
        "SELECT * FROM Product p WHERE p.QTY >= 5 AND p.ID >= 0",
        vec![],
        vec![],
    );
    let locks = gen_shared_locks(&rec.stmt, "Product", true, &cat);
    let range = locks
        .iter()
        .find(|l| l.granularity == Granularity::Range)
        .expect("empty read takes a range lock");
    let mut dst = Ctx::new();
    let mut imp = Importer::new(&src, "A1.");
    let mut side = Side {
        rec: &rec,
        imp: &mut imp,
    };
    let enlarged = range_conflict_cond(&mut dst, &cat, &mut side, range, 1);
    // Conjoin with "the row has QTY = 4" and solve: must be SAT — the
    // gap's real extent can reach below the predicate's bound.
    let qty = dst.var("r1.p.QTY", Sort::Int);
    let four = dst.int(4);
    let is_four = dst.eq(qty, four);
    let f = dst.and([enlarged, is_four]);
    assert!(matches!(
        check(&mut dst, f, &SolverConfig::default()),
        SolveResult::Sat(_)
    ));
}

#[test]
fn conflict_cond_sat_when_params_can_collide() {
    let cat = catalog();
    let mut src_r = Ctx::new();
    let rpid = src_r.var("pid", Sort::Int);
    let reader = record(
        "SELECT * FROM Product p WHERE p.ID = ?",
        vec![SymValue::with_sym(Value::Int(3), rpid)],
        vec![],
    );
    let mut src_w = Ctx::new();
    let wpid = src_w.var("pid", Sort::Int);
    let writer = record(
        "UPDATE Product SET QTY = ? WHERE ID = ?",
        vec![
            SymValue::concrete(0i64),
            SymValue::with_sym(Value::Int(3), wpid),
        ],
        vec![],
    );
    let mut dst = Ctx::new();
    let mut imp_r = Importer::new(&src_r, "A1.");
    let mut imp_w = Importer::new(&src_w, "A2.");
    let mut r_side = Side {
        rec: &reader,
        imp: &mut imp_r,
    };
    let mut w_side = Side {
        rec: &writer,
        imp: &mut imp_w,
    };
    let cond = gen_conflict_cond(&mut dst, &cat, &mut w_side, &mut r_side, "Product", 1, true);
    match check(&mut dst, cond, &SolverConfig::default()) {
        SolveResult::Sat(m) => {
            // The witness picks colliding ids.
            assert_eq!(m.get_int("A1.pid"), m.get_int("A2.pid"));
        }
        other => panic!("expected SAT, got {other:?}"),
    }
}

#[test]
fn conflict_cond_unsat_for_disjoint_constants() {
    let cat = catalog();
    let src_r = Ctx::new();
    let reader = record("SELECT * FROM Product p WHERE p.ID = 10", vec![], vec![]);
    let src_w = Ctx::new();
    let writer = record("UPDATE Product SET QTY = 0 WHERE ID = 20", vec![], vec![]);
    let mut dst = Ctx::new();
    let mut imp_r = Importer::new(&src_r, "A1.");
    let mut imp_w = Importer::new(&src_w, "A2.");
    let mut r_side = Side {
        rec: &reader,
        imp: &mut imp_r,
    };
    let mut w_side = Side {
        rec: &writer,
        imp: &mut imp_w,
    };
    let cond = gen_conflict_cond(&mut dst, &cat, &mut w_side, &mut r_side, "Product", 1, true);
    assert!(matches!(
        check(&mut dst, cond, &SolverConfig::default()),
        SolveResult::Unsat
    ));
}
