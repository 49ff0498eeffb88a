//! The replay plane's one schedule search: a deterministic DFS over
//! statement-level interleavings with sleep-set (DPOR-style) pruning,
//! generic over what it is looking for (a [`Goal`]).
//!
//! A goal judges schedules through one hook, [`Goal::judge`], which sees
//! a [`Schedule`]: the fork, the instances, the steps so far
//! ([`Schedule::steps`], rendered on demand), which instances failed and
//! — when a step closed a wait-for cycle — one [`Wait`] per waiting
//! instance, with the lock it waits on and the steps of the next instance
//! that were granted it. The search calls it at the
//! two points a schedule can end: a closed cycle and a finished schedule.
//! [`explore()`] hunts for a schedule that *deadlocks*;
//! [`crate::anomaly::explore_anomalies`] runs the same search at a weak
//! isolation level and hunts for a schedule whose *committed history* is
//! anomalous. Everything else is shared: the driver loop, frontier
//! expansion, sleep sets, DFS order, the per-schedule executor and the
//! result, [`Searched`], which every caller receives.
//!
//! There is one [`Database::fork`] per root-to-leaf path of the search
//! tree, not per node: a run re-executes the decided prefix of the node it
//! was popped for, and at every branch point after that the driver expands
//! the node — siblings go on the DFS stack — and the run carries on into
//! the first awake child *in the same fork*. Execution is deterministic
//! and nothing happens between a branch point and the child's first move,
//! so this visits the same nodes in the same order with the same sleep
//! sets as re-reaching every child from the root would (the in-crate
//! differential test keeps that expansion as its reference); only the
//! forks and the repeated prefixes are gone. `max_runs` counts nodes
//! visited, `max_schedules` schedules completed, `max_steps` the steps of
//! one path from the root. A fork shares its base's tables copy-on-write
//! and copies only the tables its schedule writes, so a path costs the
//! statements it runs; no fork sees another's writes, so results are
//! bit-identical regardless of thread count. A path records its steps
//! unrendered (the move, how it ended, the lock targets, the transactions
//! waited on); only a schedule the goal accepts, or a goal that asks for
//! [`Schedule::steps`], formats them into [`WitnessStep`]s. Statements
//! execute in nowait mode ([`weseer_db::Session::execute_nowait`]): a lock
//! conflict records a persistent wait-for edge and returns control instead
//! of parking a thread, which gives the search instant, deterministic
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
use weseer_db::{Database, DbError, LockMode, LockTarget, StepResult, TxnId};

/// Budget limits for schedule exploration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Maximum schedules run to completion (deadlock or all-terminated).
    pub max_schedules: usize,
    /// Maximum search-tree nodes visited: the root and every child of a
    /// branch point entered (defensive cap on DFS work).
    pub max_runs: usize,
    /// Maximum steps within one schedule, counted from the root
    /// (defensive; schedules are short).
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

/// What a search is looking for: a judgement over schedules. The deadlock
/// hunt ([`explore()`]) and the anomaly hunt
/// ([`crate::anomaly::explore_anomalies`]) are two goals; a test can bring
/// its own and run it through [`search`].
pub trait Goal {
    /// What a witness schedule carries besides its steps.
    type Finding;
    /// Prefix of the span and counter names (`{PREFIX}.explore`,
    /// `{PREFIX}.schedules_explored`, `{PREFIX}.schedules_pruned`).
    const PREFIX: &'static str;
    /// Prepare a fresh fork before its sessions begin.
    fn setup(&self, _db: &Database) {}
    /// Judge the schedule at one of the two points where it can end: a
    /// step closed a wait-for cycle (`s.waits` is non-empty), or every
    /// instance committed or failed (`s.waits` is empty). `Some` ends the
    /// search with this schedule as the witness. `None` fails the cycle's
    /// victim and lets the other instances run on, or, at the end of a
    /// schedule, moves on to the next one.
    fn judge(&self, s: &Schedule<'_>) -> Option<Self::Finding>;
}

/// One schedule as a [`Goal`] sees it.
pub struct Schedule<'a> {
    /// The fork the schedule runs against.
    pub db: &'a Database,
    /// The interleaved instances.
    pub instances: &'a [Instance],
    steps: &'a [Step],
    /// Which instances aborted (deadlock victim, write conflict, error).
    pub failed: &'a [bool],
    /// For a step that closed a wait-for cycle, one entry per waiting
    /// instance, victim first, each waiting on the next (the last on the
    /// victim); empty otherwise.
    pub waits: Vec<Wait>,
    txn_ids: &'a [TxnId],
}

impl Schedule<'_> {
    /// The instances running transactions `ts`, by name.
    pub fn names(&self, ts: &[TxnId]) -> Vec<String> {
        names(self.instances, self.txn_ids, ts)
    }

    /// The steps so far, in execution order (a closing step is last),
    /// rendered as a witness shows them. Each call formats every step's SQL,
    /// locks and waits afresh; the search itself only renders the schedule a
    /// goal accepts.
    pub fn steps(&self) -> Vec<WitnessStep> {
        render(self.steps, self.instances, self.txn_ids)
    }
}

/// How a step ended.
#[derive(Debug)]
enum Outcome {
    /// The statement completed.
    Ok,
    /// A lock request must wait.
    Blocked,
    /// Waiting would close a wait-for cycle; the instance was the victim.
    Deadlock,
    /// Any other error; the instance is out.
    Error(DbError),
}

/// One executed (or attempted) step as the search records it: what a
/// [`WitnessStep`] shows, before any of it is formatted.
#[derive(Debug)]
struct Step {
    mv: Move,
    outcome: Outcome,
    /// The locks granted ([`Outcome::Ok`]) or the one requested
    /// ([`Outcome::Blocked`]).
    locks: Vec<(LockTarget, LockMode)>,
    /// Whom the step waits on ([`Outcome::Blocked`]) or the closed cycle,
    /// victim first ([`Outcome::Deadlock`]).
    waits_on: Vec<TxnId>,
}

/// Format recorded steps as witness steps.
fn render(steps: &[Step], instances: &[Instance], txn_ids: &[TxnId]) -> Vec<WitnessStep> {
    let step = |s: &Step| {
        let inst = &instances[s.mv.0];
        let cs = &inst.stmts[s.mv.1];
        WitnessStep {
            instance: inst.name.clone(),
            label: cs.label.clone(),
            sql: cs.sql.clone(),
            locks: s.locks.iter().map(|(t, m)| render_lock(t, *m)).collect(),
            outcome: match &s.outcome {
                Outcome::Ok => "ok".into(),
                Outcome::Blocked => "blocked".into(),
                Outcome::Deadlock => "deadlock".into(),
                Outcome::Error(e) => format!("error: {e}"),
            },
            waits_on: names(instances, txn_ids, &s.waits_on),
        }
    };
    steps.iter().map(step).collect()
}

/// One waiting instance of a closed wait-for cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wait {
    /// The waiting instance (an index into [`Schedule::instances`]).
    pub instance: usize,
    /// Position of its waiting statement in its instance's statements.
    pub pos: usize,
    /// The lock it waits on.
    pub target: LockTarget,
    /// Positions, in the next instance's statements, of every step of that
    /// instance whose granted locks include exactly `target`.
    pub holders: Vec<usize>,
}

fn names(instances: &[Instance], txn_ids: &[TxnId], ts: &[TxnId]) -> Vec<String> {
    let name = |t: &TxnId| match txn_ids.iter().position(|x| x == t) {
        Some(i) => instances[i].name.clone(),
        None => t.to_string(),
    };
    ts.iter().map(name).collect()
}

/// What [`search`] came back with; every explorer entry returns it.
#[derive(Debug)]
pub struct Searched<F> {
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

/// How one fork's execution ended.
enum RunResult<F> {
    /// The goal accepted this schedule.
    Found { steps: Vec<WitnessStep>, finding: F },
    /// Every instance committed or failed and the goal passed (`cut`: the
    /// schedule was abandoned at `max_steps` instead).
    Terminal { cut: bool },
    /// A forced move past the decided prefix was in the sleep set: the
    /// whole continuation reorders an already-explored schedule.
    Redundant,
    /// Every choice at a branch point was asleep.
    Dead,
    /// The first awake child of a branch point was refused by the budget.
    Budget,
    /// Test-only reference expansion: the children are on the stack and
    /// each will be re-reached from the root on a fork of its own.
    #[cfg(test)]
    Frontier,
}

impl<F> RunResult<F> {
    fn tag(&self) -> &'static str {
        match self {
            RunResult::Found { .. } => "found",
            RunResult::Terminal { .. } => "terminal",
            RunResult::Redundant => "redundant",
            RunResult::Dead => "dead",
            RunResult::Budget => "budget",
            #[cfg(test)]
            RunResult::Frontier => "frontier",
        }
    }
}

/// The DFS driver's state: what is still to visit and what has been counted.
struct Dfs<'a> {
    fps: Footprints,
    config: &'a ReplayConfig,
    /// Nodes still to visit: (decided prefix, sleep set at the node).
    stack: Vec<(Vec<usize>, Vec<Move>)>,
    explored: usize,
    pruned: usize,
    /// Nodes visited: the root and every child entered.
    runs: usize,
    /// Database forks made: one per root-to-leaf path.
    forks: usize,
    budget_hit: bool,
    /// Reference expansion for the differential test: end the run at every
    /// branch point and re-reach each child from the root.
    #[cfg(test)]
    restart: bool,
}

impl<'a> Dfs<'a> {
    fn new(instances: &[Instance], config: &'a ReplayConfig) -> Dfs<'a> {
        Dfs {
            fps: Footprints::new(instances),
            config,
            stack: vec![(Vec::new(), Vec::new())],
            explored: 0,
            pruned: 0,
            runs: 0,
            forks: 0,
            budget_hit: false,
            #[cfg(test)]
            restart: false,
        }
    }

    /// The next node to visit; `None` once the stack is empty or a budget
    /// is spent with a node still on it.
    fn visit(&mut self) -> Option<(Vec<usize>, Vec<Move>)> {
        let node = self.stack.pop()?;
        if self.explored >= self.config.max_schedules || self.runs >= self.config.max_runs {
            self.budget_hit = true;
            return None;
        }
        self.runs += 1;
        Some(node)
    }

    /// Expand the branch point reached along `path` with sleep set `sleep`:
    /// push its awake children (lowest instance index on top, for a
    /// deterministic DFS order) and enter the first. `Ok` is that child's
    /// choice and sleep set, for the run to continue with on the same
    /// fork; `Err` is how the run ends instead.
    fn expand<F>(
        &mut self,
        path: &[usize],
        choices: &[usize],
        positions: &[usize],
        sleep: &[Move],
    ) -> Result<(usize, Vec<Move>), RunResult<F>> {
        let mut children: Vec<(Vec<usize>, Vec<Move>)> = Vec::new();
        let mut explored_here: Vec<Move> = Vec::new();
        for &choice in choices {
            let mv: Move = (choice, positions[choice]);
            if sleep.contains(&mv) {
                self.pruned += 1;
                continue;
            }
            let mut child_dec = path.to_vec();
            child_dec.push(choice);
            let mut child_sleep: Vec<Move> = sleep
                .iter()
                .chain(explored_here.iter())
                .filter(|m| !self.fps.dependent(**m, mv))
                .copied()
                .collect();
            child_sleep.sort_unstable();
            child_sleep.dedup();
            children.push((child_dec, child_sleep));
            explored_here.push(mv);
        }
        if children.is_empty() {
            return Err(RunResult::Dead);
        }
        self.stack.extend(children.into_iter().rev());
        #[cfg(test)]
        if self.restart {
            return Err(RunResult::Frontier);
        }
        match self.visit() {
            Some((decisions, child_sleep)) => Ok((decisions[path.len()], child_sleep)),
            None => Err(RunResult::Budget),
        }
    }

    /// Visit nodes until the goal accepts a schedule, the stack is empty or
    /// a budget is spent.
    fn search<G: Goal>(
        &mut self,
        base: &Database,
        instances: &[Instance],
        goal: &G,
    ) -> Option<(Vec<WitnessStep>, G::Finding)> {
        while let Some((decisions, sleep)) = self.visit() {
            self.forks += 1;
            let result = run(self, base, instances, goal, decisions, sleep);
            if weseer_obs::timeline::enabled() {
                weseer_obs::timeline::instant(
                    "replay.schedule",
                    G::PREFIX,
                    &[
                        ("run", self.runs.to_string()),
                        ("fork", self.forks.to_string()),
                        ("outcome", result.tag().to_string()),
                    ],
                );
            }
            match result {
                RunResult::Found { steps, finding } => {
                    self.explored += 1;
                    return Some((steps, finding));
                }
                RunResult::Terminal { cut } => {
                    self.explored += 1;
                    self.budget_hit |= cut;
                }
                RunResult::Redundant => self.pruned += 1,
                RunResult::Dead => {}
                RunResult::Budget => break,
                #[cfg(test)]
                RunResult::Frontier => {}
            }
        }
        None
    }
}

/// Depth-first search over the interleavings of `instances` on forks of
/// `base`, until `goal` accepts a schedule or the budgets run out.
pub fn search<G: Goal>(
    base: &Database,
    instances: &[Instance],
    goal: &G,
    config: &ReplayConfig,
) -> Searched<G::Finding> {
    let _span = weseer_obs::span(&format!("{}.explore", G::PREFIX));
    let mut dfs = Dfs::new(instances, config);
    let found = dfs.search(base, instances, goal);
    weseer_obs::add(
        &format!("{}.schedules_explored", G::PREFIX),
        dfs.explored as u64,
    );
    weseer_obs::add(
        &format!("{}.schedules_pruned", G::PREFIX),
        dfs.pruned as u64,
    );
    if dfs.budget_hit {
        weseer_obs::incr("replay.budget_hit");
    }
    Searched {
        found,
        explored: dfs.explored,
        pruned: dfs.pruned,
        budget_hit: dfs.budget_hit,
    }
}

/// Execute one root-to-leaf path on a fresh fork of `base`: follow `path`
/// (the decided prefix, one choice per branch point) to the node being
/// visited, then at every further branch point let `dfs` expand it and
/// carry on into its first awake child — extending `path` — until the
/// goal accepts, every instance has terminated, or the continuation is
/// known redundant.
fn run<G: Goal>(
    dfs: &mut Dfs<'_>,
    base: &Database,
    instances: &[Instance],
    goal: &G,
    mut path: Vec<usize>,
    mut sleep: Vec<Move>,
) -> RunResult<G::Finding> {
    let n = instances.len();
    let db = base.fork();
    goal.setup(&db);
    let mut sessions: Vec<_> = (0..n).map(|_| db.session()).collect();
    let mut txn_ids = Vec::with_capacity(n);
    for s in &mut sessions {
        s.begin();
        txn_ids.push(s.txn_id().expect("begun transaction has an id"));
    }

    let mut pos = vec![0usize; n];
    let mut done = vec![false; n];
    let mut failed = vec![false; n];
    let mut blocked = vec![false; n];
    // What each instance's latest refused lock request asked for.
    let mut waiting_on: Vec<Option<LockTarget>> = vec![None; n];
    let mut steps: Vec<Step> = Vec::new();
    // How many of `path`'s choices have been taken.
    let mut di = 0usize;

    for _ in 0..dfs.config.max_steps {
        let runnable: Vec<usize> = (0..n)
            .filter(|&i| !done[i] && !failed[i] && !blocked[i] && pos[i] < instances[i].stmts.len())
            .collect();
        if runnable.is_empty() {
            // Blocked instances cannot persist here: a closing cycle errors
            // out at acquire time, and a finished instance wakes everyone.
            let finding = goal.judge(&Schedule {
                db: &db,
                instances,
                steps: &steps,
                failed: &failed,
                waits: Vec::new(),
                txn_ids: &txn_ids,
            });
            return match finding {
                Some(finding) => RunResult::Found {
                    steps: render(&steps, instances, &txn_ids),
                    finding,
                },
                None => RunResult::Terminal { cut: false },
            };
        }
        let choice = if runnable.len() == 1 {
            runnable[0]
        } else if di < path.len() {
            let c = path[di];
            di += 1;
            // Execution is deterministic, so the recorded prefix replays.
            // Should a fork ever diverge from it, the rest of this subtree
            // goes unsearched: end the schedule as cut, like one stopped at
            // `max_steps`, so the search reports a budget hit ("not
            // reproduced so far") and never a clean exhaustion.
            debug_assert!(runnable.contains(&c), "fork diverged from its prefix");
            if !runnable.contains(&c) {
                return RunResult::Terminal { cut: true };
            }
            c
        } else {
            match dfs.expand(&path, &runnable, &pos, &sleep) {
                Ok((c, child_sleep)) => {
                    path.push(c);
                    di += 1;
                    sleep = child_sleep;
                    c
                }
                Err(end) => return end,
            }
        };

        let mv: Move = (choice, pos[choice]);
        if di >= path.len() {
            // At or past the node being visited. A forced move that is
            // asleep means this continuation only reorders an explored
            // schedule. (Chosen moves can't be asleep: `expand` skips them.)
            if sleep.contains(&mv) {
                return RunResult::Redundant;
            }
            // Executed moves wake dependent sleeping moves. (The wakes of
            // the moves before the node are already in its sleep set.)
            sleep.retain(|m| !dfs.fps.dependent(*m, mv));
        }

        let inst = &instances[choice];
        let cs = &inst.stmts[pos[choice]];
        let mut step = Step {
            mv,
            outcome: Outcome::Ok,
            locks: Vec::new(),
            waits_on: Vec::new(),
        };
        match sessions[choice].execute_nowait(&cs.stmt, &cs.params) {
            Ok(StepResult::Done(data)) => {
                step.locks = data.locks;
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
                step.outcome = Outcome::Blocked;
                step.locks = vec![(target.clone(), mode)];
                step.waits_on = on;
                steps.push(step);
                blocked[choice] = true;
                waiting_on[choice] = Some(target);
            }
            Err(e) => {
                let finding = if let DbError::Deadlock { cycle, target } = e {
                    step.outcome = Outcome::Deadlock;
                    step.waits_on = cycle;
                    steps.push(step);
                    waiting_on[choice] = Some(target);
                    let cycle = &steps[steps.len() - 1].waits_on;
                    goal.judge(&Schedule {
                        db: &db,
                        instances,
                        steps: &steps,
                        failed: &failed,
                        waits: cycle_waits(cycle, &txn_ids, &pos, &waiting_on, &steps),
                        txn_ids: &txn_ids,
                    })
                } else {
                    step.outcome = Outcome::Error(e);
                    steps.push(step);
                    None
                };
                if let Some(finding) = finding {
                    return RunResult::Found {
                        steps: render(&steps, instances, &txn_ids),
                        finding,
                    };
                }
                // The instance is out: `execute_nowait` already rolled back
                // aborting errors; roll back statement-level ones (e.g.
                // duplicate key) too — partial replays cannot meaningfully
                // continue — and let everyone it blocked retry.
                sessions[choice].rollback();
                failed[choice] = true;
                blocked.fill(false);
            }
        }
    }
    RunResult::Terminal { cut: true }
}

/// The [`Wait`]s of a wait-for cycle the lock manager closed (`cycle`,
/// victim first): every member waits at its current statement on what
/// its latest refused request asked for, and is held up by the completed
/// steps of the next member that were granted exactly that target.
fn cycle_waits(
    cycle: &[TxnId],
    txn_ids: &[TxnId],
    pos: &[usize],
    waiting_on: &[Option<LockTarget>],
    steps: &[Step],
) -> Vec<Wait> {
    let instance = |t: &TxnId| {
        let i = txn_ids.iter().position(|x| x == t);
        i.expect("a cycle runs through the schedule's own transactions")
    };
    let members: Vec<usize> = cycle.iter().map(instance).collect();
    let wait = |(k, &i): (usize, &usize)| {
        let next = members[(k + 1) % members.len()];
        let target = waiting_on[i]
            .clone()
            .expect("a cycle member's request was refused");
        let granted = |s: &&Step| {
            matches!(s.outcome, Outcome::Ok)
                && s.mv.0 == next
                && s.locks.iter().any(|(t, _)| *t == target)
        };
        let holders = steps.iter().filter(granted).map(|s| s.mv.1).collect();
        Wait {
            instance: i,
            pos: pos[i],
            target,
            holders,
        }
    };
    members.iter().enumerate().map(wait).collect()
}

/// The deadlock hunt: the first wait-for cycle ends the search.
struct DeadlockGoal;

impl Goal for DeadlockGoal {
    /// The cycle's instance names, victim first.
    type Finding = Vec<String>;
    const PREFIX: &'static str = "replay";
    fn judge(&self, s: &Schedule<'_>) -> Option<Vec<String>> {
        let cycle = s.waits.iter().map(|w| s.instances[w.instance].name.clone());
        (!s.waits.is_empty()).then(|| cycle.collect())
    }
}

/// Explore interleavings of `instances` over forks of `base`, depth first,
/// until a schedule deadlocks or budgets are exhausted.
pub fn explore(
    base: &Database,
    instances: &[Instance],
    config: &ReplayConfig,
) -> Searched<Vec<String>> {
    search(base, instances, &DeadlockGoal, config)
}

#[cfg(test)]
mod tests {
    //! Differential test of the one-fork-per-path search against the
    //! expansion it replaced: the same DFS with `restart` set ends the run
    //! at every branch point and re-reaches each child from the root on a
    //! fork of its own. Everything a caller can observe must be equal,
    //! including where a budget cuts the search.

    use super::*;
    use crate::anomaly::{serial_state_digests, AnomalyGoal};
    use proptest::prelude::*;
    use weseer_db::IsolationLevel;
    use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder, Value};

    const TABLES: [&str; 3] = ["T0", "T1", "T2"];

    fn base_db() -> Database {
        let table = |name: &str| {
            TableBuilder::new(name)
                .col("ID", ColType::Int)
                .col("V", ColType::Int)
                .primary_key(&["ID"])
                .build()
                .unwrap()
        };
        let db = Database::new(Catalog::new(TABLES.iter().map(|t| table(t)).collect()).unwrap());
        for t in TABLES {
            let rows = (0..2).map(|k| vec![Value::Int(k), Value::Int(0)]);
            db.seed(t, rows.collect());
        }
        db
    }

    /// `(is_update, table, key, value)`.
    type Stmt = (bool, usize, i64, i64);

    /// The workload shapes of `tests/reduction_props.rs`: 2–3 instances of
    /// 1–3 statements; in a quarter the second instance mirrors the first
    /// (cross-order locks), in another quarter it mirrors it with reads and
    /// writes swapped (write skew).
    fn workload_strategy() -> impl Strategy<Value = Vec<Vec<Stmt>>> {
        let stmt =
            (0u8..3, 0usize..3, 0i64..2, 1i64..100).prop_map(|(kind, t, k, v)| (kind > 0, t, k, v));
        let instance = proptest::collection::vec(stmt, 1..4);
        (proptest::collection::vec(instance, 2..4), 0u8..4).prop_map(|(mut workload, shape)| {
            if shape < 2 {
                let mirrored = workload[0].iter().rev();
                workload[1] = mirrored
                    .map(|&(is_update, t, k, v)| (is_update ^ (shape == 1), t, k, v))
                    .collect();
            }
            workload
        })
    }

    fn instances(workload: &[Vec<Stmt>]) -> Vec<Instance> {
        let stmt = |i: usize, &(is_update, t, key, val): &Stmt| {
            let table = TABLES[t];
            let (sql, params) = if is_update {
                let sql = format!("UPDATE {table} SET V = ? WHERE ID = ?");
                (sql, vec![Value::Int(val), Value::Int(key)])
            } else {
                let sql = format!("SELECT * FROM {table} a WHERE a.ID = ?");
                (sql, vec![Value::Int(key)])
            };
            ConcreteStmt::new(i + 1, parse(&sql).unwrap(), params)
        };
        let instance = |(n, stmts): (usize, &Vec<Stmt>)| Instance {
            name: format!("A{}", n + 1),
            stmts: stmts.iter().enumerate().map(|(i, s)| stmt(i, s)).collect(),
        };
        workload.iter().enumerate().map(instance).collect()
    }

    /// Everything one search produced, plus its fork count.
    type Observed<F> = (
        Option<(Vec<WitnessStep>, F)>,
        (usize, usize, usize, bool),
        usize,
    );

    fn observe<G: Goal>(
        base: &Database,
        instances: &[Instance],
        goal: &G,
        config: &ReplayConfig,
        restart: bool,
    ) -> Observed<G::Finding> {
        let mut dfs = Dfs::new(instances, config);
        dfs.restart = restart;
        let found = dfs.search(base, instances, goal);
        let counts = (dfs.explored, dfs.pruned, dfs.runs, dfs.budget_hit);
        (found, counts, dfs.forks)
    }

    /// Both expansions of one search agree; returns whether it found.
    fn assert_same_search<G: Goal>(
        base: &Database,
        instances: &[Instance],
        goal: &G,
        config: &ReplayConfig,
    ) -> Result<bool, TestCaseError>
    where
        G::Finding: PartialEq + std::fmt::Debug,
    {
        let (found, counts, forks) = observe(base, instances, goal, config, false);
        let (ref_found, ref_counts, ref_forks) = observe(base, instances, goal, config, true);
        prop_assert_eq!(&found, &ref_found, "witness under {:?}", config);
        prop_assert_eq!(
            counts,
            ref_counts,
            "(explored, pruned, runs, budget_hit) under {:?}",
            config
        );
        let runs = counts.2;
        prop_assert_eq!(ref_forks, runs, "the reference forks once per node");
        // The second node visited is always the first child of the first
        // branch point, entered without a new fork.
        prop_assert_eq!(forks < runs, runs > 1, "{} forks for {} nodes", forks, runs);
        Ok(found.is_some())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn continuing_in_the_fork_equals_restarting_from_the_root(
            workload in workload_strategy(),
        ) {
            let base = base_db();
            let instances = instances(&workload);
            let config = |max_schedules: usize, max_runs: usize| ReplayConfig {
                max_schedules,
                max_runs,
                max_steps: 512,
            };
            let mut configs = vec![config(100_000, 1_000_000)];
            configs.extend([1, 3, 7].map(|max_runs| config(100_000, max_runs)));
            configs.extend([1, 2].map(|max_schedules| config(max_schedules, 1_000_000)));
            for config in &configs {
                assert_same_search(&base, &instances, &DeadlockGoal, config)?;
                for iso in [IsolationLevel::ReadCommitted, IsolationLevel::Snapshot] {
                    let serial = serial_state_digests(&base, &instances, iso);
                    let goal = AnomalyGoal { iso, serial };
                    assert_same_search(&base, &instances, &goal, config)?;
                }
            }
        }
    }
}
