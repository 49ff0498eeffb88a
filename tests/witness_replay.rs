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

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, Scope};
use std::time::{Duration, Instant};
use weseer::apps::{classify, Broadleaf, ECommerceApp, KnownDeadlock, Shopizer};
use weseer::core::{prepare_db, Weseer};
use weseer::db::{Database, DbError, DbStats, TxnId};
use weseer::replay::Witness;
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
                        Err(DbError::Deadlock { cycle }) => {
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
