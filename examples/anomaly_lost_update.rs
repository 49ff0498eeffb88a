//! The classic lost update, end to end through the MVCC plane: an ORM
//! withdrawal transaction is traced concolically, the static anomaly
//! oracle flags the read-modify-write self-pair, and the interleaving
//! explorer confirms it with a concrete schedule at READ COMMITTED —
//! where the second withdrawal overwrites a balance it never saw — then
//! comes back clean under the default serializable 2PL.
//!
//! ```sh
//! cargo run --release --example anomaly_lost_update
//! ```

use weseer::analyzer::{find_anomaly_candidates, CollectedTrace};
use weseer::concolic::{loc, shared, take_ctx, ExecMode, SymValue};
use weseer::db::{Database, IsolationLevel};
use weseer::orm::OrmSession;
use weseer::replay::{concretize_txn, explore_anomalies, AnomalyWitness, Instance, ReplayConfig};
use weseer::sqlir::{Catalog, ColType, TableBuilder, Value};

fn catalog() -> Catalog {
    Catalog::new(vec![TableBuilder::new("Account")
        .col("ID", ColType::Int)
        .col("BAL", ColType::Int)
        .primary_key(&["ID"])
        .build()
        .unwrap()])
    .unwrap()
}

fn seeded_db() -> Database {
    let db = Database::new(catalog());
    db.seed("Account", vec![vec![Value::Int(1), Value::Int(100)]]);
    db
}

/// Read-modify-write withdrawal: load the account, subtract, store. Two
/// concurrent runs at a weak level can both read 100 and the later
/// commit silently swallows the earlier one.
fn withdraw(
    session: &mut OrmSession<weseer::db::Session>,
    id: SymValue,
    amount: SymValue,
) -> Result<(), weseer::orm::OrmError> {
    let engine = session.engine().clone();
    session.begin();
    let acc = session
        .find("Account", &id, loc!("withdraw::load"))?
        .ok_or_else(|| weseer::orm::OrmError::AppAbort("unknown account".into()))?;
    let bal = acc.get("BAL");
    let nb = engine.borrow_mut().sub(&bal, &amount);
    acc.set(&engine, "BAL", nb, loc!("withdraw::store"));
    session.commit(loc!("withdraw"))
}

/// Trace one concolic run of the withdrawal API.
fn collect_trace() -> (Database, CollectedTrace) {
    let db = seeded_db();
    let engine = shared(ExecMode::Concolic);
    engine.borrow_mut().start_concolic();
    let mut session = OrmSession::new(engine.clone(), db.session(), db.catalog().clone());
    let id = engine.borrow_mut().make_symbolic("id", Value::Int(1));
    let amount = engine.borrow_mut().make_symbolic("amount", Value::Int(10));
    withdraw(&mut session, id, amount).expect("withdraw runs");
    let trace = session.driver_mut().take_trace("Withdraw");
    drop(session);
    (db, CollectedTrace::new(trace, take_ctx(&engine)))
}

fn main() {
    let (_db, trace) = collect_trace();

    // Static oracle: the SELECT-then-UPDATE on Account is a
    // read-modify-write, so two concurrent Withdraws are a lost-update
    // candidate (a self-pair — one API raced against itself).
    let candidates = find_anomaly_candidates(std::slice::from_ref(&trace));
    println!("== static anomaly oracle ==");
    for c in &candidates {
        println!(
            "  {} on {}: {} vs {} at [{}]",
            c.kind,
            c.table,
            c.a_api,
            c.b_api,
            c.levels.join(", ")
        );
    }
    let lost = candidates
        .iter()
        .find(|c| c.kind == "lost-update")
        .expect("the RMW self-pair must be flagged");
    assert_eq!(lost.table, "Account");

    // Dynamic confirmation: concretize the traced transaction twice (the
    // model is empty — traced inputs stand) and explore interleavings.
    let empty = weseer::smt::Model::default();
    let stmts = concretize_txn(&trace, lost.a_txn, &empty);
    assert!(!stmts.is_empty(), "traced txn concretizes");
    let instances = vec![
        Instance {
            name: "A1".into(),
            stmts: stmts.clone(),
        },
        Instance {
            name: "A2".into(),
            stmts,
        },
    ];
    let apis = vec!["Withdraw".to_string(), "Withdraw".to_string()];

    println!("\n== read-committed: the update is lost ==");
    let base = seeded_db();
    let iso = IsolationLevel::ReadCommitted;
    let out = explore_anomalies(&base, &instances, iso, &ReplayConfig::default());
    let witness = AnomalyWitness::found(&out, &instances, &apis, iso)
        .expect("read committed must lose the update");
    assert!(witness.anomalies.iter().any(|a| a.kind == "lost-update"));
    print!("{}", witness.render());
    println!("canonical witness JSON:\n{}", witness.to_json());

    println!("\n== serializable (default): 2PL forbids it ==");
    let iso = IsolationLevel::Serializable;
    let out = explore_anomalies(&base, &instances, iso, &ReplayConfig::default());
    if let Some(w) = AnomalyWitness::found(&out, &instances, &apis, iso) {
        panic!("serializable must be clean: {}", w.render());
    }
    assert!(
        !out.budget_hit,
        "clean must mean every schedule was covered"
    );
    println!(
        "clean: {} schedules explored, {} pruned",
        out.explored, out.pruned
    );
}
