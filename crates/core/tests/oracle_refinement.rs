//! The EXPLAIN-oracle extension (paper Sec. V-D future work) eliminates a
//! wrong-index false positive: without the oracle the analyzer assumes a
//! secondary index *might* drive the SELECT and reports a deadlock
//! through its range locks; the engine's concrete plan uses the primary
//! index, and re-analysis with the oracle refutes the cycle.

use weseer_analyzer::{diagnose, diagnose_with, AnalyzerConfig, CollectedTrace};
use weseer_concolic::{loc, shared, take_ctx, ExecMode};
use weseer_core::DbPlanOracle;
use weseer_db::Database;
use weseer_orm::OrmSession;
use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder, Value};

fn setup() -> Database {
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
    db
}

/// A transaction that probes a freshly generated id (empty SELECT whose
/// WHERE mentions both the primary key and the secondary column) and then
/// inserts the row.
fn collect(db: &Database) -> CollectedTrace {
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
fn explain_oracle_removes_wrong_index_false_positive() {
    let db = setup();
    let traces = vec![collect(&db)];
    let config = AnalyzerConfig::default();

    // Without the oracle: the analyzer must consider idx_a as a possible
    // driver of the empty SELECT; its range lock conflicts with the other
    // instance's INSERT (equal symbolic buckets), so a deadlock is
    // reported. The generated ids themselves cannot collide (distinctness
    // axioms), so this cycle exists *only* through the secondary index.
    let without = diagnose(db.catalog(), &traces, &config);
    assert!(
        !without.deadlocks.is_empty(),
        "without EXPLAIN the wrong-index cycle must be reported: {:?}",
        without.stats
    );

    // With the oracle: the engine's plan uses PRIMARY (unique point
    // beats the secondary equality), so only primary locks are modeled
    // and the id-distinctness axioms refute every cycle.
    let oracle = DbPlanOracle::new(db.clone());
    let traces = vec![collect(&db)];
    let with = diagnose_with(db.catalog(), &traces, &config, Some(&oracle), None, None);
    assert!(
        with.deadlocks.is_empty(),
        "EXPLAIN refinement must refute the wrong-index cycle: {:#?}",
        with.deadlocks
            .iter()
            .map(|r| r.cycle.clone())
            .collect::<Vec<_>>()
    );
    assert!(with.stats.smt_unsat >= 1, "{:?}", with.stats);
}

#[test]
fn oracle_preserves_true_positives() {
    // The Fig. 1 finishOrder deadlock survives EXPLAIN refinement — it
    // goes through indexes the engine genuinely uses.
    use weseer_apps::{ECommerceApp, Shopizer};
    use weseer_core::Weseer;
    let weseer = Weseer::new();
    let (traces, db) = weseer.collect_traces(&Shopizer, &weseer_apps::Fixes::none());
    let oracle = DbPlanOracle::new(db);
    let with = diagnose_with(
        &Shopizer.catalog(),
        &traces,
        &AnalyzerConfig::default(),
        Some(&oracle),
        None,
        None,
    );
    assert!(
        !with.deadlocks.is_empty(),
        "true deadlocks must survive refinement: {:?}",
        with.stats
    );
}
