//! Write skew under snapshot isolation, end to end: two on-call
//! sign-off transactions each check that another doctor is still on
//! call, then remove themselves from the roster. Their writes are
//! disjoint — no lock or first-updater-wins conflict fires — but the
//! crossed read-write antidependencies leave the roster empty, a state
//! no serial order can produce. The static oracle flags the pair, the
//! explorer confirms it at SNAPSHOT, and the default serializable 2PL
//! kills it.
//!
//! ```sh
//! cargo run --release --example anomaly_write_skew
//! ```

use weseer::analyzer::{find_anomaly_candidates, CollectedTrace};
use weseer::concolic::{loc, shared, take_ctx, ExecMode, SymValue};
use weseer::db::{Database, IsolationLevel};
use weseer::orm::OrmSession;
use weseer::replay::{concretize_txn, explore_anomalies, AnomalyWitness, Instance, ReplayConfig};
use weseer::sqlir::{parser::parse, Catalog, ColType, TableBuilder, Value};

fn catalog() -> Catalog {
    Catalog::new(vec![TableBuilder::new("Doctors")
        .col("ID", ColType::Int)
        .col("ONCALL", ColType::Int)
        .primary_key(&["ID"])
        .build()
        .unwrap()])
    .unwrap()
}

fn seeded_db() -> Database {
    let db = Database::new(catalog());
    db.seed(
        "Doctors",
        vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(2), Value::Int(1)],
        ],
    );
    db
}

/// Check the on-call roster, then sign off doctor `my_id`: the read is a
/// plain snapshot SELECT over the whole roster, the write touches only
/// the doctor's own row.
fn sign_off(
    session: &mut OrmSession<weseer::db::Session>,
    my_id: SymValue,
    oncall: SymValue,
) -> Result<(), weseer::orm::OrmError> {
    let engine = session.engine().clone();
    session.begin();
    let roster = parse("SELECT * FROM Doctors d WHERE d.ONCALL = ?").unwrap();
    let rows = session.query(
        &roster,
        std::slice::from_ref(&oncall),
        loc!("sign_off::roster"),
    )?;
    if rows.is_empty() {
        session.rollback();
        return Err(weseer::orm::OrmError::AppAbort("empty roster".into()));
    }
    let me = session
        .find("Doctors", &my_id, loc!("sign_off::me"))?
        .ok_or_else(|| weseer::orm::OrmError::AppAbort("unknown doctor".into()))?;
    me.set(
        &engine,
        "ONCALL",
        SymValue::concrete(Value::Int(0)),
        loc!("sign_off::leave"),
    );
    session.commit(loc!("sign_off"))
}

/// Trace one concolic run of the sign-off API for the given doctor.
fn collect_trace(api: &str, doctor: i64) -> CollectedTrace {
    let db = seeded_db();
    let engine = shared(ExecMode::Concolic);
    engine.borrow_mut().start_concolic();
    let mut session = OrmSession::new(engine.clone(), db.session(), db.catalog().clone());
    let my_id = engine
        .borrow_mut()
        .make_symbolic("my_id", Value::Int(doctor));
    let oncall = engine.borrow_mut().make_symbolic("oncall", Value::Int(1));
    sign_off(&mut session, my_id, oncall).expect("sign off runs");
    let trace = session.driver_mut().take_trace(api);
    drop(session);
    CollectedTrace::new(trace, take_ctx(&engine))
}

fn main() {
    let traces = vec![
        collect_trace("SignOffAlpha", 1),
        collect_trace("SignOffBeta", 2),
    ];

    // Static oracle: both APIs snapshot-read the Doctors roster and both
    // write Doctors — a write-skew candidate across the pair.
    let candidates = find_anomaly_candidates(&traces);
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
    let skew = candidates
        .iter()
        .find(|c| c.kind == "write-skew" && c.a_api != c.b_api)
        .expect("the crossed sign-off pair must be flagged");
    assert_eq!(skew.table, "Doctors");

    let empty = weseer::smt::Model::default();
    let (ta, tb) = (&traces[0], &traces[1]);
    let instances = vec![
        Instance {
            name: "A1".into(),
            stmts: concretize_txn(ta, skew.a_txn, &empty),
        },
        Instance {
            name: "A2".into(),
            stmts: concretize_txn(tb, skew.b_txn, &empty),
        },
    ];
    let apis = vec![skew.a_api.clone(), skew.b_api.clone()];

    println!("\n== snapshot isolation: both sign off ==");
    let base = seeded_db();
    let iso = IsolationLevel::Snapshot;
    let out = explore_anomalies(&base, &instances, iso, &ReplayConfig::default());
    let witness = AnomalyWitness::found(&out, &instances, &apis, iso)
        .expect("snapshot isolation must admit the skew");
    assert!(witness.anomalies.iter().any(|a| a.kind == "write-skew"));
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
