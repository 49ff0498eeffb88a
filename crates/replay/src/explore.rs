//! The replay plane's one schedule search: a deterministic DFS over
//! statement-level interleavings with sleep-set (DPOR-style) pruning,
//! generic over what it is looking for (a crate-private `Goal`).
//!
//! [`explore`] hunts for a schedule that *deadlocks*;
//! [`crate::anomaly::explore_anomalies`] runs the same search at a weak
//! isolation level and hunts for a schedule whose *committed history* is
//! anomalous. The two goals differ at exactly four points — how a fresh
//! fork is set up, what a wait-for cycle means, how a finished schedule is
//! classified, and the prefix of their span and counter names — and share
//! everything else: the driver loop, frontier expansion, sleep sets, DFS
//! order and the per-schedule executor.
//!
//! Every explored schedule runs from the root against a fresh
//! [`Database::fork`], so runs are fully independent and bit-identical
//! regardless of exploration order or thread count. Statements execute in
//! nowait mode ([`weseer_db::Session::execute_nowait`]): a lock conflict
//! records a persistent wait-for edge and returns control instead of
//! parking a thread, which gives the search instant, deterministic
//! deadlock detection from the lock manager's wait-for graph.
//!
//! Pruning uses sleep sets keyed on table-level lock footprints: after
//! exploring instance `i`'s move at a branch point, sibling branches
//! inherit that move in their sleep set as long as their own first move is
//! independent of it, and any node whose chosen move is asleep is skipped —
//! the schedule it leads to is a reordering of one already explored. A
//! sleeping move is woken (dropped from the set) as soon as a dependent
//! move executes. This is the classic sound formulation; a naive "skip if
//! independent of all earlier moves" check misses required interleavings.

use crate::concretize::ConcreteStmt;
use crate::witness::{render_lock, WitnessStep};
use weseer_db::{Database, DbError, StepResult, TxnId};

/// Budget limits for schedule exploration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Maximum schedules run to completion (deadlock or all-terminated).
    pub max_schedules: usize,
    /// Maximum total runs, including prefix re-executions that stop at a
    /// frontier (defensive cap on DFS work).
    pub max_runs: usize,
    /// Maximum steps within one schedule (defensive; schedules are short).
    pub max_steps: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            max_schedules: 256,
            max_runs: 4096,
            max_steps: 512,
        }
    }
}

/// One transaction instance to interleave: a name (`A1`) and its
/// concretized statements.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Display name, used in witness steps and cycles.
    pub name: String,
    /// Statements, executed in order inside one transaction.
    pub stmts: Vec<ConcreteStmt>,
}

/// A scheduling decision: `(instance index, statement position)`.
type Move = (usize, usize);

/// Result of exploring all schedules within budget.
#[derive(Debug)]
pub enum ExploreOutcome {
    /// A schedule deadlocked; first one found in DFS order.
    Deadlock {
        /// The witness schedule.
        steps: Vec<WitnessStep>,
        /// Final wait-for cycle (instance names, victim first).
        cycle: Vec<String>,
        /// Schedules completed up to and including this one.
        explored: usize,
        /// Branches pruned by sleep sets.
        pruned: usize,
    },
    /// No schedule within budget deadlocked.
    Exhausted {
        /// Schedules completed.
        explored: usize,
        /// Branches pruned by sleep sets.
        pruned: usize,
        /// The search stopped at a budget, not by covering the schedule space.
        budget_hit: bool,
    },
}

/// Table-level read/write footprint of one move.
#[derive(Debug, Clone)]
struct Footprint {
    reads: Vec<String>,
    writes: Vec<String>,
}

impl Footprint {
    fn conflicts(&self, other: &Footprint) -> bool {
        let wr = |a: &Footprint, b: &Footprint| {
            a.writes
                .iter()
                .any(|t| b.writes.contains(t) || b.reads.contains(t))
        };
        wr(self, other) || wr(other, self)
    }
}

/// Per-instance, per-statement footprints. The *last* statement's footprint
/// is widened to every table the transaction touches, as writes: its
/// completion commits, and the commit releases every lock the transaction
/// holds — reordering it past any conflicting move changes behavior.
struct Footprints(Vec<Vec<Footprint>>);

impl Footprints {
    fn new(instances: &[Instance]) -> Footprints {
        let per_instance = instances
            .iter()
            .map(|inst| {
                let mut fps: Vec<Footprint> = inst
                    .stmts
                    .iter()
                    .map(|s| Footprint {
                        reads: s.reads.clone(),
                        writes: s.writes.clone(),
                    })
                    .collect();
                if let Some(last) = fps.last_mut() {
                    let mut all: Vec<String> = Vec::new();
                    for s in &inst.stmts {
                        for t in s.reads.iter().chain(s.writes.iter()) {
                            if !all.contains(t) {
                                all.push(t.clone());
                            }
                        }
                    }
                    last.writes = all;
                    last.reads.clear();
                }
                fps
            })
            .collect();
        Footprints(per_instance)
    }

    /// Whether two moves are dependent: same instance (program order), or
    /// overlapping table footprints with at least one write. Out-of-range
    /// positions are conservatively dependent.
    fn dependent(&self, a: Move, b: Move) -> bool {
        if a.0 == b.0 {
            return true;
        }
        match (self.0[a.0].get(a.1), self.0[b.0].get(b.1)) {
            (Some(fa), Some(fb)) => fa.conflicts(fb),
            _ => true,
        }
    }
}

/// What a search is looking for: the four points at which the deadlock
/// hunt and the anomaly hunt differ.
pub(crate) trait Goal {
    /// What a witness schedule carries besides its steps.
    type Finding;
    /// Prefix of the span and counter names (`{PREFIX}.explore`,
    /// `{PREFIX}.schedules_explored`, `{PREFIX}.schedules_pruned`).
    const PREFIX: &'static str;
    /// Prepare a fresh fork before its sessions begin.
    fn setup(&self, _db: &Database) {}
    /// A statement closed a wait-for cycle (instance names, victim first).
    /// `Some` ends the search with this schedule as the witness; `None`
    /// fails the victim and lets the surviving instances run on.
    fn on_deadlock(&self, cycle: &[String]) -> Option<Self::Finding>;
    /// Every instance committed or failed. `Some` ends the search.
    fn on_terminal(&self, fin: &Finished<'_>) -> Option<Self::Finding>;
}

/// One schedule's state; handed to [`Goal::on_terminal`] once every
/// instance has committed or failed.
pub(crate) struct Finished<'a> {
    /// The fork the schedule ran against.
    pub db: Database,
    /// The interleaved instances.
    pub instances: &'a [Instance],
    /// Which instances aborted (deadlock victim, write conflict, error).
    pub failed: Vec<bool>,
    txn_ids: Vec<TxnId>,
}

impl Finished<'_> {
    /// The instances running transactions `ts`, by name.
    pub fn names(&self, ts: &[TxnId]) -> Vec<String> {
        let name = |t: &TxnId| match self.txn_ids.iter().position(|x| x == t) {
            Some(i) => self.instances[i].name.clone(),
            None => t.to_string(),
        };
        ts.iter().map(name).collect()
    }
}

/// What [`search`] came back with.
pub(crate) struct Searched<F> {
    /// The first schedule in DFS order the goal accepted, with its finding.
    pub found: Option<(Vec<WitnessStep>, F)>,
    /// Schedules completed (including the found one).
    pub explored: usize,
    /// Branches pruned by sleep sets.
    pub pruned: usize,
    /// The search stopped at `max_schedules` / `max_runs`, or cut a
    /// schedule at `max_steps`, instead of emptying the DFS stack.
    pub budget_hit: bool,
}

/// What one schedule run produced.
enum RunResult<F> {
    /// The goal accepted this schedule.
    Found { steps: Vec<WitnessStep>, finding: F },
    /// Every instance committed or failed and the goal passed (`cut`: the
    /// schedule was abandoned at `max_steps` instead).
    Terminal { cut: bool },
    /// A forced move past the decided prefix was in the sleep set: the
    /// whole continuation reorders an already-explored schedule.
    Redundant,
    /// Reached a branch point past the decided prefix: `choices` are the
    /// runnable instances, `positions` their next statement positions, and
    /// `sleep` the sleep set as evolved by the moves executed since the
    /// node's parent frontier.
    Frontier {
        choices: Vec<usize>,
        positions: Vec<usize>,
        sleep: Vec<Move>,
    },
}

/// Depth-first search over the interleavings of `instances` on forks of
/// `base`, until `goal` accepts a schedule or the budgets run out.
pub(crate) fn search<G: Goal>(
    base: &Database,
    instances: &[Instance],
    goal: &G,
    config: &ReplayConfig,
) -> Searched<G::Finding> {
    let _span = weseer_obs::span(&format!("{}.explore", G::PREFIX));
    let fps = Footprints::new(instances);
    let (mut explored, mut pruned, mut runs) = (0usize, 0usize, 0usize);
    let (mut found, mut budget_hit) = (None, false);
    // DFS stack of (decided prefix, sleep set at the node).
    let mut stack: Vec<(Vec<usize>, Vec<Move>)> = vec![(Vec::new(), Vec::new())];

    while let Some((decisions, sleep)) = stack.pop() {
        if explored >= config.max_schedules || runs >= config.max_runs {
            budget_hit = true;
            break;
        }
        runs += 1;
        let result = run(
            base,
            instances,
            &fps,
            goal,
            &decisions,
            sleep,
            config.max_steps,
        );
        if weseer_obs::timeline::enabled() {
            let outcome = match &result {
                RunResult::Found { .. } => "found",
                RunResult::Terminal { .. } => "terminal",
                RunResult::Redundant => "redundant",
                RunResult::Frontier { .. } => "frontier",
            };
            weseer_obs::timeline::instant(
                "replay.schedule",
                G::PREFIX,
                &[
                    ("run", runs.to_string()),
                    ("depth", decisions.len().to_string()),
                    ("outcome", outcome.to_string()),
                ],
            );
        }
        match result {
            RunResult::Found { steps, finding } => {
                explored += 1;
                found = Some((steps, finding));
                break;
            }
            RunResult::Terminal { cut } => {
                explored += 1;
                budget_hit |= cut;
            }
            RunResult::Redundant => pruned += 1,
            RunResult::Frontier {
                choices,
                positions,
                sleep,
            } => {
                // Expand children; push in reverse so the lowest instance
                // index is explored first (deterministic DFS order).
                let mut children: Vec<(Vec<usize>, Vec<Move>)> = Vec::new();
                let mut explored_here: Vec<Move> = Vec::new();
                for &choice in &choices {
                    let mv: Move = (choice, positions[choice]);
                    if sleep.contains(&mv) {
                        pruned += 1;
                        continue;
                    }
                    let mut child_dec = decisions.clone();
                    child_dec.push(choice);
                    let mut child_sleep: Vec<Move> = sleep
                        .iter()
                        .chain(explored_here.iter())
                        .filter(|m| !fps.dependent(**m, mv))
                        .copied()
                        .collect();
                    child_sleep.sort_unstable();
                    child_sleep.dedup();
                    children.push((child_dec, child_sleep));
                    explored_here.push(mv);
                }
                stack.extend(children.into_iter().rev());
            }
        }
    }
    weseer_obs::add(
        &format!("{}.schedules_explored", G::PREFIX),
        explored as u64,
    );
    weseer_obs::add(&format!("{}.schedules_pruned", G::PREFIX), pruned as u64);
    if budget_hit {
        weseer_obs::incr("replay.budget_hit");
    }
    Searched {
        found,
        explored,
        pruned,
        budget_hit,
    }
}

/// Execute one schedule from the root on a fresh fork of `base`, following
/// `decisions` at branch points, then stopping at the next branch point (or
/// running until the goal accepts or every instance has terminated).
fn run<G: Goal>(
    base: &Database,
    instances: &[Instance],
    fps: &Footprints,
    goal: &G,
    decisions: &[usize],
    mut sleep: Vec<Move>,
    max_steps: usize,
) -> RunResult<G::Finding> {
    let n = instances.len();
    let mut fin = Finished {
        db: base.fork(),
        instances,
        failed: vec![false; n],
        txn_ids: Vec::new(),
    };
    goal.setup(&fin.db);
    let mut sessions: Vec<_> = (0..n).map(|_| fin.db.session()).collect();
    for s in &mut sessions {
        s.begin();
        fin.txn_ids
            .push(s.txn_id().expect("begun transaction has an id"));
    }

    let mut pos = vec![0usize; n];
    let mut done = vec![false; n];
    let mut blocked = vec![false; n];
    let mut steps: Vec<WitnessStep> = Vec::new();
    let mut di = 0usize;

    for _ in 0..max_steps {
        let runnable: Vec<usize> = (0..n)
            .filter(|&i| {
                !done[i] && !fin.failed[i] && !blocked[i] && pos[i] < instances[i].stmts.len()
            })
            .collect();
        if runnable.is_empty() {
            // Blocked instances cannot persist here: a closing cycle errors
            // out at acquire time, and a finished instance wakes everyone.
            return match goal.on_terminal(&fin) {
                Some(finding) => RunResult::Found { steps, finding },
                None => RunResult::Terminal { cut: false },
            };
        }
        let choice = if runnable.len() == 1 {
            runnable[0]
        } else if di < decisions.len() {
            let c = decisions[di];
            di += 1;
            if !runnable.contains(&c) {
                // Divergence from the recorded prefix; deterministic
                // execution makes this unreachable, but fail safe.
                return RunResult::Terminal { cut: false };
            }
            c
        } else {
            return RunResult::Frontier {
                choices: runnable,
                positions: pos,
                sleep,
            };
        };

        let mv: Move = (choice, pos[choice]);
        if di >= decisions.len() {
            // Past the parent frontier. A forced move that is asleep means
            // this continuation only reorders an explored schedule.
            // (Decided moves can't be asleep: the driver filters them.)
            if sleep.contains(&mv) {
                return RunResult::Redundant;
            }
            // Executed moves wake dependent sleeping moves. (The decided
            // prefix's wakes are already reflected in the inherited set.)
            sleep.retain(|m| !fps.dependent(*m, mv));
        }

        let inst = &instances[choice];
        let cs = &inst.stmts[pos[choice]];
        let mut step = WitnessStep {
            instance: inst.name.clone(),
            label: cs.label.clone(),
            sql: cs.sql.clone(),
            locks: Vec::new(),
            outcome: String::new(),
            waits_on: Vec::new(),
        };
        match sessions[choice].execute_nowait(&cs.stmt, &cs.params) {
            Ok(StepResult::Done(data)) => {
                step.locks = data.locks.iter().map(|(t, m)| render_lock(t, *m)).collect();
                step.outcome = "ok".into();
                steps.push(step);
                pos[choice] += 1;
                if pos[choice] == inst.stmts.len() {
                    let _ = sessions[choice].commit();
                    done[choice] = true;
                    // Released locks may unblock anyone; let them retry.
                    blocked.fill(false);
                }
            }
            Ok(StepResult::Blocked { on, target, mode }) => {
                step.locks = vec![render_lock(&target, mode)];
                step.outcome = "blocked".into();
                step.waits_on = fin.names(&on);
                steps.push(step);
                blocked[choice] = true;
            }
            Err(e) => {
                let finding = if let DbError::Deadlock { cycle } = &e {
                    step.outcome = "deadlock".into();
                    step.waits_on = fin.names(cycle);
                    goal.on_deadlock(&step.waits_on)
                } else {
                    step.outcome = format!("error: {e}");
                    None
                };
                steps.push(step);
                if let Some(finding) = finding {
                    return RunResult::Found { steps, finding };
                }
                // The instance is out: `execute_nowait` already rolled back
                // aborting errors; roll back statement-level ones (e.g.
                // duplicate key) too — partial replays cannot meaningfully
                // continue — and let everyone it blocked retry.
                sessions[choice].rollback();
                fin.failed[choice] = true;
                blocked.fill(false);
            }
        }
    }
    RunResult::Terminal { cut: true }
}

/// The deadlock hunt: the first wait-for cycle ends the search.
struct DeadlockGoal;

impl Goal for DeadlockGoal {
    type Finding = Vec<String>;
    const PREFIX: &'static str = "replay";
    fn on_deadlock(&self, cycle: &[String]) -> Option<Vec<String>> {
        Some(cycle.to_vec())
    }
    fn on_terminal(&self, _fin: &Finished<'_>) -> Option<Vec<String>> {
        None
    }
}

/// Explore interleavings of `instances` over forks of `base`, depth first,
/// until a schedule deadlocks or budgets are exhausted.
pub fn explore(base: &Database, instances: &[Instance], config: &ReplayConfig) -> ExploreOutcome {
    let s = search(base, instances, &DeadlockGoal, config);
    match s.found {
        Some((steps, cycle)) => ExploreOutcome::Deadlock {
            steps,
            cycle,
            explored: s.explored,
            pruned: s.pruned,
        },
        None => ExploreOutcome::Exhausted {
            explored: s.explored,
            pruned: s.pruned,
            budget_hit: s.budget_hit,
        },
    }
}
