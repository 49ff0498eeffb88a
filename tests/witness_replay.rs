//! Acceptance test for the witness replay engine (the ISSUE's bar): on
//! Shopizer at least one SAT cycle must be replay-confirmed with a
//! non-empty witness whose final wait-for cycle matches the analyzer's
//! reported cycle, byte-identical across repeated invocations and across
//! analyzer thread counts.

use weseer::apps::Shopizer;
use weseer::core::Weseer;

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
    for (report, verdict) in analysis.diagnosis.deadlocks.iter().zip(&summary.verdicts) {
        tags.push(verdict.tag());
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
