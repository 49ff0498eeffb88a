//! Anomaly-oracle soundness properties on randomly generated workloads:
//!
//! 1. histories with a single writer (and single-read readers) are
//!    anomaly-free at *every* isolation level — the oracle never invents
//!    an anomaly where no write-write or repeated-read structure exists;
//! 2. at the default serializable level no generated two-instance
//!    workload ever produces an anomaly witness, and every committed
//!    terminal state matches some serial execution (2PL serializability,
//!    checked for real via the explorer's serial-digest cross-check).

use proptest::prelude::*;
use weseer_db::{Database, IsolationLevel};
use weseer_replay::{explore_anomalies, ConcreteStmt, Instance, ReplayConfig};
use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder, Value};

fn catalog() -> Catalog {
    Catalog::new(vec![TableBuilder::new("Account")
        .col("ID", ColType::Int)
        .col("BAL", ColType::Int)
        .primary_key(&["ID"])
        .build()
        .unwrap()])
    .unwrap()
}

fn base_db() -> Database {
    let db = Database::new(catalog());
    db.seed(
        "Account",
        (0..3)
            .map(|k| vec![Value::Int(k), Value::Int(100)])
            .collect(),
    );
    db
}

fn update(i: usize, val: i64, key: i64) -> ConcreteStmt {
    ConcreteStmt::new(
        i,
        parse("UPDATE Account SET BAL = ? WHERE ID = ?").unwrap(),
        vec![Value::Int(val), Value::Int(key)],
    )
}

fn select(i: usize, key: i64) -> ConcreteStmt {
    ConcreteStmt::new(
        i,
        parse("SELECT * FROM Account a WHERE a.ID = ?").unwrap(),
        vec![Value::Int(key)],
    )
}

/// One writer doing a random select/update sequence.
fn writer_strategy() -> impl Strategy<Value = Vec<(bool, i64, i64)>> {
    proptest::collection::vec((any::<bool>(), 0i64..3, 0i64..200), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single-writer histories: one writer, up to two readers that each
    /// perform exactly one snapshot read. No level can report an anomaly —
    /// lost updates and write skew need two writers, read fractures need
    /// a repeated read.
    #[test]
    fn single_writer_histories_are_anomaly_free_at_every_level(
        writer in writer_strategy(),
        reader_keys in proptest::collection::vec(0i64..3, 0..3),
    ) {
        let base = base_db();
        let mut instances = vec![Instance {
            name: "W".into(),
            stmts: writer
                .iter()
                .enumerate()
                .map(|(i, &(is_sel, key, val))| {
                    if is_sel {
                        select(i + 1, key)
                    } else {
                        update(i + 1, val, key)
                    }
                })
                .collect(),
        }];
        for (r, &key) in reader_keys.iter().enumerate() {
            instances.push(Instance {
                name: format!("R{r}"),
                stmts: vec![select(1, key)],
            });
        }
        for level in IsolationLevel::ALL {
            let s = explore_anomalies(&base, &instances, level, &ReplayConfig::default());
            prop_assert!(
                s.found.is_none(),
                "single-writer history reported an anomaly at {}: {:?}",
                level.name(),
                s.found.map(|(_, anomalies)| anomalies)
            );
        }
    }

    /// Serializable: two instances with arbitrary select/update mixes.
    /// The explorer must come back clean — the tracker is never engaged
    /// and every committed terminal state digests to a serial execution.
    #[test]
    fn weak_level_anomalies_never_appear_at_serializable(
        a in writer_strategy(),
        b in writer_strategy(),
    ) {
        let build = |name: &str, stmts: &[(bool, i64, i64)]| Instance {
            name: name.into(),
            stmts: stmts
                .iter()
                .enumerate()
                .map(|(i, &(is_sel, key, val))| {
                    if is_sel {
                        select(i + 1, key)
                    } else {
                        update(i + 1, val, key)
                    }
                })
                .collect(),
        };
        let base = base_db();
        let instances = vec![build("A1", &a), build("A2", &b)];
        let s = explore_anomalies(
            &base,
            &instances,
            IsolationLevel::Serializable,
            &ReplayConfig::default(),
        );
        prop_assert!(
            s.found.is_none(),
            "serializable run reported an anomaly: {:?}",
            s.found.map(|(_, anomalies)| anomalies)
        );
        prop_assert!(s.explored >= 1);
    }
}
