//! Weak-isolation anomaly exploration: the replay plane's one schedule
//! search ([`mod@crate::explore`]) run at a chosen MVCC isolation level
//! with the *anomaly* goal, whose one judgement treats a wait-for cycle as
//! an abort and classifies every finished schedule. Where
//! [`crate::explore()`] hunts for schedules that *deadlock*,
//! [`explore_anomalies`] hunts for schedules whose
//! committed history exhibits a lost update, write skew, or read fracture
//! under `read-committed`, `repeatable-read`, or `snapshot` isolation, as
//! reported by the storage engine's runtime oracle
//! ([`weseer_db::AnomalyTracker`]). Every schedule runs against a fresh
//! [`Database::fork`] whose default isolation is set to the requested
//! level, so plain SELECTs become lock-free snapshot reads exactly as they
//! would in production. A deadlock or write-conflict abort inside a
//! schedule fails that instance and exploration continues — aborted
//! transactions cannot contribute anomalies, which is precisely how
//! snapshot isolation kills lost updates.
//!
//! As a semantic backstop, every terminal schedule's final table state is
//! digested and compared against the states reachable by *serial*
//! executions of the same instances; a committed interleaving that lands
//! outside that set is reported as a `non-serializable-state` finding
//! even when the tracker saw nothing. At the default serializable level
//! strict 2PL makes this check provably quiet — the property the replay
//! proptests pin down.

use crate::explore::{search, Goal, Instance, ReplayConfig, Schedule, Searched};
use crate::witness::{
    named, parse_schedule_json, quoted, quoted_list, render_schedule, str_field, strs_field,
    write_schedule_json, WitnessInstance, WitnessStep,
};
use std::fmt::Write as _;
use weseer_concolic::fingerprint::fnv64;
use weseer_db::{Database, IsolationLevel};
use weseer_store::json::Json;

/// One confirmed anomaly in a witness schedule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AnomalyFinding {
    /// Kebab-case anomaly kind (`lost-update`, `write-skew`,
    /// `read-fracture`, `non-serializable-state`).
    pub kind: String,
    /// Table of the conflicted row (`*` for whole-state findings).
    pub table: String,
    /// Participating instances, by name.
    pub instances: Vec<String>,
    /// Human-readable explanation with row/version detail.
    pub detail: String,
}

/// A concrete anomaly witness: the first schedule found by the explorer
/// whose committed history exhibits at least one anomaly at the given
/// isolation level. Mirrors [`crate::Witness`]'s canonical JSON shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyWitness {
    /// Kebab-case isolation level the schedule ran under.
    pub isolation: String,
    /// Participating instances in name order.
    pub instances: Vec<WitnessInstance>,
    /// The schedule, in execution order.
    pub steps: Vec<WitnessStep>,
    /// Confirmed anomalies, sorted.
    pub anomalies: Vec<AnomalyFinding>,
    /// Schedules fully explored before (and including) this one.
    pub schedules_explored: usize,
    /// Schedules pruned by the sleep-set check.
    pub schedules_pruned: usize,
}

impl AnomalyWitness {
    /// Canonical single-line JSON rendering (stable field order; byte
    /// identical across runs and thread counts) — the anomaly analogue of
    /// [`crate::Witness::to_json`].
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"isolation\":{},", quoted(&self.isolation));
        write_schedule_json(&mut s, &self.instances, &self.steps);
        s.push_str(",\"anomalies\":[");
        for (i, a) in self.anomalies.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"kind\":{},\"table\":{},\"instances\":[{}],\"detail\":{}}}",
                quoted(&a.kind),
                quoted(&a.table),
                quoted_list(&a.instances),
                quoted(&a.detail),
            );
        }
        let _ = write!(
            s,
            "],\"schedules_explored\":{},\"schedules_pruned\":{}}}",
            self.schedules_explored, self.schedules_pruned
        );
        s
    }

    /// Parse a witness serialized by [`AnomalyWitness::to_json`];
    /// round-trips byte exactly.
    pub fn from_json(s: &str) -> Option<AnomalyWitness> {
        let v = Json::parse(s).ok()?;
        let (instances, steps) = parse_schedule_json(&v)?;
        let mut anomalies = Vec::new();
        for a in v.get("anomalies")?.as_arr()? {
            anomalies.push(AnomalyFinding {
                kind: str_field(a, "kind")?,
                table: str_field(a, "table")?,
                instances: strs_field(a, "instances")?,
                detail: str_field(a, "detail")?,
            });
        }
        Some(AnomalyWitness {
            isolation: str_field(&v, "isolation")?,
            instances,
            steps,
            anomalies,
            schedules_explored: v.get("schedules_explored")?.as_u64()? as usize,
            schedules_pruned: v.get("schedules_pruned")?.as_u64()? as usize,
        })
    }

    /// The witness of an anomaly search at `iso`, if it found one: the one
    /// place a search result becomes an [`AnomalyWitness`]. `apis` names
    /// each instance's API (parallel to `instances`).
    pub fn found(
        s: &Searched<Vec<AnomalyFinding>>,
        instances: &[Instance],
        apis: &[String],
        iso: IsolationLevel,
    ) -> Option<AnomalyWitness> {
        let (steps, anomalies) = s.found.as_ref()?;
        Some(AnomalyWitness {
            isolation: iso.name().to_string(),
            instances: named(instances, apis),
            steps: steps.clone(),
            anomalies: anomalies.clone(),
            schedules_explored: s.explored,
            schedules_pruned: s.pruned,
        })
    }

    /// Human-readable rendering for reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "anomaly witness at {} ({} steps; {} schedules explored, {} pruned):",
            self.isolation,
            self.steps.len(),
            self.schedules_explored,
            self.schedules_pruned
        );
        render_schedule(&mut out, &self.instances, &self.steps);
        for a in &self.anomalies {
            let _ = writeln!(
                out,
                "  anomaly: {} on {} [{}] — {}",
                a.kind,
                a.table,
                a.instances.join(", "),
                a.detail
            );
        }
        out
    }
}

/// Deterministic digest of the database's full committed table state:
/// FNV-1a over every table's primary-order dump, tables in name order.
pub fn state_digest(db: &Database) -> String {
    let mut names: Vec<String> = db.catalog().tables().map(|t| t.name.clone()).collect();
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for name in &names {
        h = fnv64(name.as_bytes(), h);
        h = fnv64(b"=", h);
        for row in db.dump(name) {
            h = fnv64(format!("{row:?};").as_bytes(), h);
        }
        h = fnv64(b"|", h);
    }
    format!("{h:016x}")
}

/// State digests reachable by running the instances *serially* at `iso`:
/// all permutations for up to three instances, first and reverse order
/// beyond that. Errors inside a serial run roll that instance back (its
/// effects vanish, matching what the interleaved run would keep).
pub fn serial_state_digests(
    base: &Database,
    instances: &[Instance],
    iso: IsolationLevel,
) -> Vec<String> {
    let n = instances.len();
    let orders: Vec<Vec<usize>> = if n <= 3 {
        permutations(n)
    } else {
        vec![(0..n).collect(), (0..n).rev().collect()]
    };
    let mut digests: Vec<String> = orders
        .iter()
        .map(|order| {
            let db = base.fork();
            db.set_default_isolation(iso);
            for &i in order {
                let mut s = db.session();
                s.begin();
                let mut ok = true;
                for cs in &instances[i].stmts {
                    if s.execute(&cs.stmt, &cs.params).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    let _ = s.commit();
                } else if s.in_txn() {
                    s.rollback();
                }
            }
            state_digest(&db)
        })
        .collect();
    digests.sort();
    digests.dedup();
    digests
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..n).collect();
    fn heap(k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(cur.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, cur, out);
            if k.is_multiple_of(2) {
                cur.swap(i, k - 1);
            } else {
                cur.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut cur, &mut out);
    out.sort();
    out
}

/// The anomaly hunt at one isolation level: aborts are not verdicts, and a
/// schedule is accepted when its committed history is anomalous.
pub(crate) struct AnomalyGoal {
    pub(crate) iso: IsolationLevel,
    /// State digests the serial executions reach.
    pub(crate) serial: Vec<String>,
}

impl Goal for AnomalyGoal {
    type Finding = Vec<AnomalyFinding>;
    const PREFIX: &'static str = "replay.anomaly";

    fn setup(&self, db: &Database) {
        db.set_default_isolation(self.iso);
    }

    /// A wait-for cycle is an abort, not a verdict: the victim's history
    /// vanishes and the surviving instances keep running — the anomaly
    /// question is about the history that *commits*. A finished schedule
    /// is judged by its tracker events first, then by the serial-state
    /// cross-check (only when every instance committed — an abort
    /// legitimately removes effects no serial order would lose).
    fn judge(&self, s: &Schedule<'_>) -> Option<Vec<AnomalyFinding>> {
        if !s.waits.is_empty() {
            return None;
        }
        let mut findings: Vec<AnomalyFinding> =
            s.db.anomaly_events()
                .into_iter()
                .map(|ev| AnomalyFinding {
                    kind: ev.kind.name().to_string(),
                    table: ev.table.clone(),
                    instances: s.names(&ev.txns),
                    detail: ev.detail.clone(),
                })
                .collect();
        if findings.is_empty() && !s.failed.iter().any(|&f| f) && s.instances.len() <= 3 {
            let digest = state_digest(s.db);
            if !self.serial.contains(&digest) {
                findings.push(AnomalyFinding {
                    kind: "non-serializable-state".into(),
                    table: "*".into(),
                    instances: s.instances.iter().map(|i| i.name.clone()).collect(),
                    detail: format!(
                        "final state {digest} matches none of the {} serial execution(s)",
                        self.serial.len()
                    ),
                });
            }
        }
        findings.sort();
        findings.dedup();
        (!findings.is_empty()).then_some(findings)
    }
}

/// Explore interleavings of `instances` over forks of `base` at isolation
/// level `iso`, depth first, until a committed schedule exhibits an
/// anomaly or budgets are exhausted. [`AnomalyWitness::found`] turns the
/// result into a witness.
pub fn explore_anomalies(
    base: &Database,
    instances: &[Instance],
    iso: IsolationLevel,
    config: &ReplayConfig,
) -> Searched<Vec<AnomalyFinding>> {
    let goal = AnomalyGoal {
        iso,
        serial: serial_state_digests(base, instances, iso),
    };
    let s = search(base, instances, &goal, config);
    weseer_obs::incr(match s.found {
        Some(_) => "replay.anomaly.confirmed",
        None => "replay.anomaly.clean",
    });
    s
}
