//! End-to-end analyzer tests: collect real traces through the ORM +
//! concolic driver over the storage engine, then diagnose them — the full
//! Fig. 2 pipeline on the Fig. 1 running example.

use weseer_analyzer::{coarse_cycle_count, diagnose, AnalyzerConfig, CollectedTrace};
use weseer_concolic::{loc, shared, take_ctx, ExecMode, SymValue};
use weseer_db::Database;
use weseer_orm::{LazyCollection, OrmSession};
use weseer_sqlir::{parser::parse, Catalog, CmpOp, ColType, TableBuilder, Value};

fn fig1_catalog() -> Catalog {
    Catalog::new(vec![
        TableBuilder::new("Order")
            .col("ID", ColType::Int)
            .primary_key(&["ID"])
            .build()
            .unwrap(),
        TableBuilder::new("Product")
            .col("ID", ColType::Int)
            .col("QTY", ColType::Int)
            .primary_key(&["ID"])
            .build()
            .unwrap(),
        TableBuilder::new("OrderItem")
            .col("ID", ColType::Int)
            .col("O_ID", ColType::Int)
            .col("P_ID", ColType::Int)
            .col("QTY", ColType::Int)
            .primary_key(&["ID"])
            .foreign_key("O_ID", "Order", "ID")
            .foreign_key("P_ID", "Product", "ID")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

fn seeded_db() -> Database {
    let db = Database::new(fig1_catalog());
    db.seed("Order", vec![vec![Value::Int(1)]]);
    db.seed("Product", vec![vec![Value::Int(10), Value::Int(100)]]);
    db.seed(
        "OrderItem",
        vec![vec![
            Value::Int(100),
            Value::Int(1),
            Value::Int(10),
            Value::Int(3),
        ]],
    );
    db
}

/// Run the Fig. 1 `finishOrder` API as its unit test and collect a trace.
fn collect_finish_order(db: &Database) -> CollectedTrace {
    let engine = shared(ExecMode::Concolic);
    engine.borrow_mut().start_concolic();
    let mut session = OrmSession::new(engine.clone(), db.session(), db.catalog().clone());

    let order_id = engine.borrow_mut().make_symbolic("order_id", Value::Int(1));
    session.begin();
    let _o = session
        .find("Order", &order_id, loc!("finishOrder"))
        .unwrap()
        .unwrap();
    let q4 = parse(
        "SELECT * FROM OrderItem oi \
         JOIN Order o ON o.ID = oi.O_ID \
         JOIN Product p ON p.ID = oi.P_ID \
         WHERE oi.O_ID = ?",
    )
    .unwrap();
    let mut items = LazyCollection::new(q4, vec![order_id.clone()]);
    let rows = items
        .get_or_load(&mut session, loc!("finishOrder"))
        .unwrap()
        .to_vec();
    for row in &rows {
        let oi = &row["oi"];
        let p = &row["p"];
        let p_qty = p.get("QTY");
        let oi_qty = oi.get("QTY");
        let cond = engine.borrow_mut().cmp(CmpOp::Ge, &p_qty, &oi_qty);
        if engine.borrow_mut().branch(&cond, loc!("updateQuantity")) {
            let new_qty = engine.borrow_mut().sub(&p_qty, &oi_qty);
            p.set(&engine, "QTY", new_qty, loc!("updateQuantity"));
        }
    }
    session.commit(loc!("finishOrder")).unwrap();
    let trace = session.driver_mut().take_trace("finishOrder");
    drop(session);
    let ctx = take_ctx(&engine);
    CollectedTrace::new(trace, ctx)
}

#[test]
fn finish_order_deadlock_confirmed() {
    let db = seeded_db();
    let collected = collect_finish_order(&db);
    let diagnosis = diagnose(db.catalog(), &[collected], &AnalyzerConfig::default());
    assert!(
        !diagnosis.deadlocks.is_empty(),
        "the Fig. 4 cycle must be confirmed; stats: {:?}",
        diagnosis.stats
    );
    let r = &diagnosis.deadlocks[0];
    assert!(r.involves("finishOrder", "finishOrder"));
    // The conflict is on Product: both instances hold the S lock from Q4
    // and wait for the X lock of Q6.
    assert!(r.tables().contains(&"Product".to_string()), "{r}");
    // Sec. VI: the UPDATE's trigger is updateQuantity (line 19), not the
    // commit that sent it.
    let upd = r
        .statements
        .iter()
        .find(|s| s.sql.starts_with("UPDATE"))
        .expect("update statement in cycle");
    assert!(upd.trigger.mentions("updateQuantity"), "{}", upd.trigger);
    // The witness model includes the symbolic API inputs of both
    // instances.
    assert!(
        r.model.iter().any(|(k, _)| k == "A1.order_id"),
        "model: {:?}",
        r.model
    );
    assert!(diagnosis.stats.smt_sat >= 1);
}

#[test]
fn no_conflict_no_deadlock() {
    // An API that only reads can never deadlock with itself.
    let db = seeded_db();
    let engine = shared(ExecMode::Concolic);
    engine.borrow_mut().start_concolic();
    let mut session = OrmSession::new(engine.clone(), db.session(), db.catalog().clone());
    let id = engine.borrow_mut().make_symbolic("pid", Value::Int(10));
    session.begin();
    session.find("Product", &id, loc!("browse")).unwrap();
    session.commit(loc!("browse")).unwrap();
    let trace = session.driver_mut().take_trace("browse");
    drop(session);
    let collected = CollectedTrace::new(trace, take_ctx(&engine));
    let d = diagnose(db.catalog(), &[collected], &AnalyzerConfig::default());
    assert!(d.deadlocks.is_empty());
    assert_eq!(
        d.stats.pairs_after_phase1, 0,
        "phase 1 must filter the pair"
    );
}

#[test]
fn concretely_disjoint_parameters_are_unsat() {
    // Two APIs that pin *different* product ids with concrete parameters:
    // the conflict condition forces r.e.ID = 10 ∧ r.e.ID = 20 → UNSAT, so
    // the cross-API pair is refuted while each self-pair still deadlocks.
    // (Symbolic result values stay free — the paper deliberately lets the
    // solver choose the triggering database state — so refutation must
    // come from parameters and path conditions, as here.)
    let db = seeded_db();
    db.seed("Product", vec![vec![Value::Int(20), Value::Int(50)]]);

    let collect = |pid: i64| -> CollectedTrace {
        let engine = shared(ExecMode::Concolic);
        engine.borrow_mut().start_concolic();
        let mut session = OrmSession::new(engine.clone(), db.session(), db.catalog().clone());
        let id = SymValue::concrete(pid);
        session.begin();
        let p = session
            .find("Product", &id, loc!("touch"))
            .unwrap()
            .unwrap();
        let q = p.get("QTY");
        let one = SymValue::concrete(1i64);
        let newq = engine.borrow_mut().sub(&q, &one);
        p.set(&engine, "QTY", newq, loc!("touch"));
        session.commit(loc!("touch")).unwrap();
        let trace = session.driver_mut().take_trace(format!("touch{pid}"));
        drop(session);
        CollectedTrace::new(trace, take_ctx(&engine))
    };

    let t1 = collect(10);
    let t2 = collect(20);
    let d = diagnose(db.catalog(), &[t1, t2], &AnalyzerConfig::default());
    assert!(
        !d.deadlocks.iter().any(|r| r.involves("touch10", "touch20")),
        "concretely disjoint pair wrongly reported: {:?}",
        d.deadlocks
            .iter()
            .map(|r| r.cycle.clone())
            .collect::<Vec<_>>()
    );
    // Self-pairs (two concurrent touch10 calls) still deadlock: S then X
    // on the same row.
    assert!(d.deadlocks.iter().any(|r| r.involves("touch10", "touch10")));
    assert!(d.stats.smt_unsat >= 1, "stats: {:?}", d.stats);
}

#[test]
fn coarse_baseline_overreports() {
    let db = seeded_db();
    let collected = collect_finish_order(&db);
    let fine = diagnose(db.catalog(), &[collected], &AnalyzerConfig::default());
    let collected = collect_finish_order(&db);
    let coarse = coarse_cycle_count(&[collected]);
    assert!(
        coarse >= fine.deadlocks.len(),
        "coarse cycles ({coarse}) must be at least confirmed deadlocks ({})",
        fine.deadlocks.len()
    );
    assert!(coarse >= 1);
}

#[test]
fn path_conditions_can_refute_cycles() {
    // A transaction that only updates when qty > 1000 — the path condition
    // contradicts the seeded database result (qty = 100 recorded in the
    // trace result symbols)… since res symbols are free variables, the
    // solver may still pick 1001. What *is* refutable: a branch condition
    // on the *parameter* contradicting the recorded WHERE equality. We
    // build: branch(order_id > 500) taken FALSE (order_id = 1), so the
    // path condition A1.order_id <= 500 is recorded; the conflict condition
    // requires A1.order_id = A2.order_id; and a second branch in instance
    // B... both instances run the same code, so both get <= 500 — still
    // SAT. To see UNSAT via path conditions we instead record the branch
    // qty >= oi_qty (taken) plus an artificial contradicting branch
    // qty < oi_qty (not taken) — impossible in one execution. So this test
    // asserts the machinery: UNSAT count increases when a fabricated
    // contradictory path condition is injected.
    let db = seeded_db();
    let mut collected = collect_finish_order(&db);
    // Fabricate a contradiction: append the negation of an existing PC.
    if let Some(pc) = collected.trace.path_conds.first().cloned() {
        let neg = collected.ctx.not(pc.term);
        let mut fake = pc;
        fake.term = neg;
        collected.trace.path_conds.push(fake);
    }
    let d = diagnose(db.catalog(), &[collected], &AnalyzerConfig::default());
    assert!(
        d.deadlocks.is_empty(),
        "contradictory path conditions must refute"
    );
    assert!(d.stats.smt_unsat >= 1);
}

/// A transaction that probes a freshly generated id (empty SELECT whose
/// WHERE mentions both the primary key and a secondary column) and then
/// inserts the row.
fn collect_reserve_slot(db: &Database) -> CollectedTrace {
    let engine = shared(ExecMode::Concolic);
    engine.borrow_mut().start_concolic();
    let mut session = OrmSession::new(engine.clone(), db.session(), db.catalog().clone());
    let id = {
        let v = db.next_id("Slot");
        engine.borrow_mut().make_unique_id("Slot", Value::Int(v))
    };
    let a = engine.borrow_mut().make_symbolic("bucket", Value::Int(3));
    session.begin();
    let q = parse("SELECT * FROM Slot s WHERE s.ID = ? AND s.A = ?").unwrap();
    let rs = session
        .raw(&q, &[id.clone(), a.clone()], loc!("reserveSlot"))
        .unwrap();
    assert!(rs.is_empty(), "freshly generated ids are unused");
    session.persist(
        "Slot",
        vec![("ID".into(), id), ("A".into(), a)],
        loc!("reserveSlot"),
    );
    session.commit(loc!("reserveSlot")).unwrap();
    let trace = session.driver_mut().take_trace("ReserveSlot");
    drop(session);
    CollectedTrace::new(trace, take_ctx(&engine))
}

#[test]
fn every_possible_index_is_modelled() {
    // Alg. 2 over-approximates the indexes a statement may use: the
    // empty SELECT could be driven by the secondary index idx_a, whose
    // range lock conflicts with the other instance's INSERT (equal
    // symbolic buckets), so a deadlock is reported. The generated ids
    // themselves cannot collide (distinctness axioms), so this cycle
    // exists *only* through the secondary index.
    let catalog = Catalog::new(vec![TableBuilder::new("Slot")
        .col("ID", ColType::Int)
        .col("A", ColType::Int)
        .primary_key(&["ID"])
        .index("idx_a", &["A"])
        .build()
        .unwrap()])
    .unwrap();
    let db = Database::new(catalog);
    db.seed("Slot", vec![vec![Value::Int(1), Value::Int(1)]]);
    db.bump_id("Slot", 1);
    let d = diagnose(
        db.catalog(),
        &[collect_reserve_slot(&db)],
        &AnalyzerConfig::default(),
    );
    assert!(
        !d.deadlocks.is_empty(),
        "the secondary-index cycle must be reported: {:?}",
        d.stats
    );
}
