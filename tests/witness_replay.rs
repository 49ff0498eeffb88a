//! Acceptance test for the witness replay engine: on Shopizer at least
//! one SAT cycle must be replay-confirmed with a non-empty witness whose
//! final wait-for cycle matches the analyzer's reported cycle,
//! byte-identical across repeated invocations and across analyzer thread
//! counts. It also pins how the replay verdicts fall across Table II's
//! grouping of the reports.

use std::collections::BTreeMap;
use weseer::apps::{classify, KnownDeadlock, Shopizer};
use weseer::core::Weseer;

/// Shopizer's reports per Table II class: (class, confirmed, not
/// reproduced). Not-reproduced is not the false-positive class: two
/// `(fp)` cycles replay, and three reports classified as real deadlocks
/// do not.
const REPLAY_BY_CLASS: [(KnownDeadlock, usize, usize); 6] = [
    (KnownDeadlock::D14, 3, 1),
    (KnownDeadlock::D15, 4, 0),
    (KnownDeadlock::D16, 1, 0),
    (KnownDeadlock::D17, 2, 1),
    (KnownDeadlock::D18, 7, 1),
    (KnownDeadlock::FpAppLocked, 2, 4),
];

fn run(threads: usize) -> (Vec<&'static str>, Vec<String>) {
    let analysis = Weseer::new()
        .with_threads(threads)
        .with_replay()
        .analyze(&Shopizer);
    let summary = analysis.replay.as_ref().expect("replay was requested");
    assert_eq!(
        summary.verdicts.len(),
        analysis.diagnosis.deadlocks.len(),
        "one verdict per report"
    );
    assert!(
        summary.confirmed() >= 1,
        "at least one shopizer SAT cycle must replay-confirm"
    );
    // Shopizer's not-reproduced reports are genuine exhaustions of the
    // (reduced) schedule space, not searches cut short by the budget.
    assert_eq!(summary.not_reproduced(), 7);
    assert_eq!(summary.budget_hits(), 0);
    let mut tags = Vec::new();
    let mut jsons = Vec::new();
    let mut by_class: BTreeMap<KnownDeadlock, (usize, usize)> = BTreeMap::new();
    for (report, verdict) in analysis.diagnosis.deadlocks.iter().zip(&summary.verdicts) {
        tags.push(verdict.tag());
        let class = classify("shopizer", report);
        let counts = by_class.entry(class).or_default();
        match verdict.tag() {
            "confirmed" => counts.0 += 1,
            "not_reproduced" => {
                counts.1 += 1;
                // Every real-classified report that does not replay is a
                // Ship/Ship cycle on `Product`.
                if class != KnownDeadlock::FpAppLocked {
                    assert_eq!(
                        (report.cycle.a_api.as_str(), report.cycle.b_api.as_str()),
                        ("Ship", "Ship")
                    );
                    assert_eq!(report.tables(), ["Product"]);
                }
            }
            tag => panic!("unexpected replay verdict {tag}"),
        }
        if let Some(w) = verdict.witness() {
            assert!(!w.steps.is_empty(), "witness must have steps");
            assert_eq!(w.steps.last().unwrap().outcome, "deadlock");
            // The witness's wait-for cycle involves exactly the two
            // instances of the analyzer's reported cycle, and the
            // instances map back to the report's APIs.
            assert!(
                w.cycle_covers_instances(),
                "cycle {:?} must involve both instances",
                w.cycle
            );
            let apis: Vec<&str> = w.instances.iter().map(|i| i.api.as_str()).collect();
            assert_eq!(
                apis,
                vec![report.cycle.a_api.as_str(), report.cycle.b_api.as_str()]
            );
            jsons.push(w.to_json());
        }
    }
    let expected: BTreeMap<_, _> = REPLAY_BY_CLASS
        .iter()
        .map(|&(class, confirmed, not_reproduced)| (class, (confirmed, not_reproduced)))
        .collect();
    assert_eq!(by_class, expected, "replay verdicts per Table II class");
    (tags, jsons)
}

#[test]
fn shopizer_witnesses_confirm_and_are_deterministic() {
    let (tags1, jsons1) = run(1);
    let (tags4, jsons4) = run(4);
    assert_eq!(tags1, tags4, "verdicts must not depend on thread count");
    assert_eq!(
        jsons1, jsons4,
        "witness bytes must not depend on thread count"
    );
    let (tags1b, jsons1b) = run(1);
    assert_eq!(tags1, tags1b, "verdicts must be stable across invocations");
    assert_eq!(
        jsons1, jsons1b,
        "witness bytes must be stable across invocations"
    );
}
