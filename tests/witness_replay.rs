//! Acceptance tests for the witness replay engine.
//!
//! * On Shopizer at least one SAT cycle must be replay-confirmed with a
//!   non-empty witness whose final wait-for cycle matches the analyzer's
//!   reported cycle, byte-identical across repeated invocations and across
//!   analyzer thread counts; the replay verdicts must fall across Table
//!   II's grouping of the reports as pinned below.
//! * Every confirmed witness of both apps must re-enact on two real
//!   threads through the blocking `Session::execute`, step for step,
//!   ending in the witness's deadlock. The explorer found the witness on
//!   one thread through `execute_nowait`; the re-enactment checks what
//!   that path never runs: the condvar wait, the wake once the victim
//!   rolls back, and the blocked statement's replan after it.
//! * "Confirmed" means the pair deadlocks somewhere, not that the reported
//!   cycle happened: a search with a goal that accepts only the report's
//!   own cycle pins, per Table II row, how many reports ever close it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, Scope};
use std::time::{Duration, Instant};
use weseer::analyzer::{CollectedTrace, CycleId, DeadlockReport};
use weseer::apps::{classify, Broadleaf, ECommerceApp, Fixes, KnownDeadlock, Shopizer};
use weseer::core::{prepare_db, Weseer};
use weseer::db::{Database, DbError, DbStats, TxnId};
use weseer::replay::{pair_instances, search, Goal, ReplayConfig, Schedule, Witness};
use weseer::smt::Model;
use weseer::sqlir::{parser::parse, Statement};

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

/// How long any one wait of a re-enactment may take before it fails the
/// test.
const DEADLINE: Duration = Duration::from_secs(30);

/// What the turnstile asks an instance's thread to do next.
enum Command {
    Execute(Statement),
    Commit,
}

/// One witness instance on its own thread: a begun transaction that runs
/// each command it is sent and answers it.
struct Worker {
    txn: TxnId,
    commands: Sender<Command>,
    replies: Receiver<Result<(), DbError>>,
}

impl Worker {
    fn spawn<'s>(scope: &'s Scope<'s, '_>, db: &Database) -> Worker {
        let mut session = db.session();
        session.begin();
        let txn = session.txn_id().expect("begun transaction has an id");
        let (commands, inbox) = mpsc::channel();
        let (outbox, replies) = mpsc::channel();
        scope.spawn(move || {
            for command in inbox {
                let reply = match command {
                    Command::Execute(stmt) => session.execute(&stmt, &[]).map(drop),
                    Command::Commit => session.commit(),
                };
                if outbox.send(reply).is_err() {
                    break;
                }
            }
        });
        Worker {
            txn,
            commands,
            replies,
        }
    }

    fn send(&self, command: Command) {
        self.commands.send(command).expect("worker thread is alive");
    }

    fn reply(&self) -> Result<(), DbError> {
        self.replies
            .recv_timeout(DEADLINE)
            .expect("statement answered before the deadline")
    }

    /// Return once the lock manager lists this transaction as a waiter.
    fn await_wait(&self, db: &Database) {
        let start = Instant::now();
        while !db.wait_for_edges().iter().any(|(w, _)| *w == self.txn) {
            if let Ok(r) = self.replies.try_recv() {
                panic!("a step the witness records as blocked returned {r:?}");
            }
            assert!(start.elapsed() < DEADLINE, "the step never blocked");
            thread::yield_now();
        }
    }
}

/// Re-enact `witness` on a fork of `base`, one thread per instance, in the
/// witness's step order, and return the fork's counters. Sessions begin in
/// instance order, so transaction ids follow the explorer's.
fn reenact(base: &Database, witness: &Witness) -> DbStats {
    let db = base.fork();
    thread::scope(|scope| {
        let workers: Vec<Worker> = witness
            .instances
            .iter()
            .map(|_| Worker::spawn(scope, &db))
            .collect();
        let name = |t: &TxnId| {
            let i = workers
                .iter()
                .position(|w| w.txn == *t)
                .expect("a witness txn");
            witness.instances[i].name.clone()
        };
        let mut blocked = None;
        for (n, step) in witness.steps.iter().enumerate() {
            let who = witness
                .instances
                .iter()
                .position(|i| i.name == step.instance)
                .expect("step names a witness instance");
            assert_ne!(blocked, Some(who), "step {n} runs a blocked instance");
            let stmt = parse(&step.sql).unwrap_or_else(|e| panic!("{}: {e}", step.sql));
            workers[who].send(Command::Execute(stmt));
            match step.outcome.as_str() {
                "ok" => assert_eq!(workers[who].reply(), Ok(()), "step {n}"),
                "blocked" => {
                    assert_eq!(blocked, None, "one blocked step per witness");
                    workers[who].await_wait(&db);
                    blocked = Some(who);
                }
                "deadlock" => {
                    assert_eq!(n + 1, witness.steps.len(), "the deadlock ends the witness");
                    match workers[who].reply() {
                        Err(DbError::Deadlock { cycle, .. }) => {
                            let names: Vec<String> = cycle.iter().map(name).collect();
                            assert_eq!(names, witness.cycle, "cycle, victim first");
                        }
                        other => panic!("the last step returned {other:?}, not a deadlock"),
                    }
                }
                other => panic!("step {n} has outcome {other}"),
            }
        }
        let survivor = &workers[blocked.expect("the witness has a blocked step")];
        assert_eq!(survivor.reply(), Ok(()), "the blocked statement completes");
        survivor.send(Command::Commit);
        assert_eq!(survivor.reply(), Ok(()), "the survivor commits");
    });
    db.stats()
}

#[test]
fn every_witness_deadlocks_on_real_threads() {
    let mut pairs = BTreeSet::new();
    for (app, confirmed) in [(&Broadleaf as &dyn ECommerceApp, 124), (&Shopizer, 19)] {
        let analysis = Weseer::new().with_replay().analyze(app);
        let summary = analysis.replay.expect("replay was requested");
        let witnesses: Vec<&Witness> = summary
            .verdicts
            .iter()
            .filter_map(|v| v.witness())
            .collect();
        assert_eq!(witnesses.len(), confirmed, "{}", app.name());
        // A pair's traces ran from the state before the earlier of its
        // two APIs; build that state once per start test.
        let mut bases: HashMap<&str, Database> = HashMap::new();
        for w in witnesses {
            let apis: Vec<&str> = w.instances.iter().map(|i| i.api.as_str()).collect();
            let first = *app
                .unit_tests()
                .iter()
                .find(|t| apis.contains(t))
                .expect("witness APIs are unit tests");
            let base = bases.entry(first).or_insert_with(|| prepare_db(app, first));
            let s = reenact(base, w);
            assert_eq!(
                (
                    s.deadlock_aborts,
                    s.locks.deadlocks,
                    s.locks.waits,
                    s.commits
                ),
                (1, 1, 1, 1),
                "{}: {}",
                app.name(),
                w.render()
            );
            pairs.insert((apis[0].to_string(), apis[1].to_string()));
        }
    }
    for api in ["Register", "Checkout"] {
        assert!(
            pairs.contains(&(api.to_string(), api.to_string())),
            "{api}/{api} is re-enacted"
        );
    }
}

/// Accepts a wait-for cycle only when it is the report's own: instance 0
/// (the report's A side) waits at `a_wait` and instance 1 at `b_wait`, each
/// matched by trace index or by SQL template. With `hold_lock`, each side
/// must also wait on a lock that a step of the other side template-equal
/// to that side's hold statement was granted. Every other cycle fails its
/// victim and the search goes on.
struct OwnCycle<'r> {
    cycle: &'r CycleId,
    hold_lock: bool,
}

impl Goal for OwnCycle<'_> {
    type Finding = ();
    const PREFIX: &'static str = "test.own_cycle";

    fn judge(&self, s: &Schedule<'_>) -> Option<()> {
        let c = self.cycle;
        // (wait, hold) trace indices of instance 0 (A) and instance 1 (B).
        let roles = [(c.a_wait, c.a_hold), (c.b_wait, c.b_hold)];
        // Statement `pos` of instance `i` is trace statement `index`, or
        // has its template.
        let is = |i: usize, pos: usize, index: usize| {
            let stmts = &s.instances[i].stmts;
            let stmt = &stmts[pos];
            stmt.index == index
                || stmts
                    .iter()
                    .any(|r| r.index == index && r.stmt == stmt.stmt)
        };
        let own = |w: &weseer::replay::Wait| {
            let other = 1 - w.instance;
            is(w.instance, w.pos, roles[w.instance].0)
                && (!self.hold_lock || w.holders.iter().any(|&p| is(other, p, roles[other].1)))
        };
        (s.waits.len() == 2 && s.waits.iter().all(own)).then_some(())
    }
}

/// Whether some schedule of `report`'s pair closes the report's own cycle,
/// trying the model inputs and then the traced inputs as replay does.
fn own_cycle_closes(
    report: &DeadlockReport,
    traces: &[CollectedTrace],
    base: &Database,
    hold_lock: bool,
) -> bool {
    let c = &report.cycle;
    let pair = |a: &Model, b: &Model| {
        pair_instances(traces, [(&c.a_api, c.a_txn, a), (&c.b_api, c.b_txn, b)])
            .expect("every report's pair is replayable")
    };
    let solved = pair(
        &report.sat_model.strip_prefix("A1."),
        &report.sat_model.strip_prefix("A2."),
    );
    let traced = pair(&Model::default(), &Model::default());
    let goal = OwnCycle {
        cycle: c,
        hold_lock,
    };
    [solved, traced].iter().any(|instances| {
        let s = search(base, instances, &goal, &ReplayConfig::default());
        assert!(!s.budget_hit, "{report}: the search stopped at its budget");
        s.found.is_some()
    })
}

/// Per Table II row: reports whose own cycle closes with the waits alone,
/// with the hold lock too, and reports in the row.
const OWN_CYCLE_BY_ROW: [(KnownDeadlock, usize, usize, usize); 15] = [
    (KnownDeadlock::D1, 1, 1, 1),
    (KnownDeadlock::D2, 3, 3, 3),
    (KnownDeadlock::D3_4, 6, 6, 13),
    (KnownDeadlock::D5_6, 4, 3, 5),
    (KnownDeadlock::D7_8, 0, 0, 67),
    (KnownDeadlock::D9, 9, 9, 21),
    (KnownDeadlock::D10, 1, 1, 2),
    (KnownDeadlock::D11, 0, 0, 11),
    (KnownDeadlock::D12_13, 0, 0, 1),
    (KnownDeadlock::D14, 3, 3, 4),
    (KnownDeadlock::D15, 4, 4, 4),
    (KnownDeadlock::D16, 0, 0, 1),
    (KnownDeadlock::D17, 1, 0, 3),
    (KnownDeadlock::D18, 0, 0, 8),
    (KnownDeadlock::FpAppLocked, 2, 2, 6),
];

#[test]
fn few_reports_close_their_own_cycle() {
    let mut by_row: BTreeMap<KnownDeadlock, (usize, usize, usize)> = BTreeMap::new();
    let mut totals = Vec::new();
    for app in [&Broadleaf as &dyn ECommerceApp, &Shopizer] {
        let weseer = Weseer::new();
        let (traces, _) = weseer.collect_traces(app, &Fixes::none());
        let analysis = weseer.analyze(app);
        let mut bases: HashMap<&str, Database> = HashMap::new();
        let mut total = (0, 0, 0);
        for report in &analysis.diagnosis.deadlocks {
            let c = &report.cycle;
            let first = *app
                .unit_tests()
                .iter()
                .find(|t| **t == c.a_api || **t == c.b_api)
                .expect("report APIs are unit tests");
            let base = bases.entry(first).or_insert_with(|| prepare_db(app, first));
            let waits = own_cycle_closes(report, &traces, base, false);
            let held = own_cycle_closes(report, &traces, base, true);
            assert!(waits || !held, "the hold lock only narrows the predicate");
            let row = by_row.entry(classify(app.name(), report)).or_default();
            for counts in [row, &mut total] {
                counts.0 += waits as usize;
                counts.1 += held as usize;
                counts.2 += 1;
            }
        }
        totals.push((app.name(), total.0, total.1, total.2));
    }
    assert_eq!(
        totals,
        [("broadleaf", 24, 23, 124), ("shopizer", 10, 9, 26)],
        "(app, closes with the waits, with the hold lock too, reports)"
    );
    let expected: BTreeMap<_, _> = OWN_CYCLE_BY_ROW
        .iter()
        .map(|&(row, waits, held, reports)| (row, (waits, held, reports)))
        .collect();
    assert_eq!(by_row, expected, "own cycles per Table II row");
}
