//! Concrete deadlock witnesses: the ordered schedule that provably
//! deadlocks, ready to attach to a diagnosis report or export as JSON —
//! plus the one schedule codec (`instances` + `steps` writer, parser and
//! renderer) that [`crate::AnomalyWitness`] shares.

use std::fmt::Write as _;
use weseer_db::{KeyBound, LockMode, LockTarget};
use weseer_obs::snapshot::write_json_string;
use weseer_store::json::Json;

/// One executed (or attempted) statement in the witness schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// Instance name (`A1` / `A2`).
    pub instance: String,
    /// Statement label within the instance's trace (`Q4`).
    pub label: String,
    /// Concrete SQL as executed.
    pub sql: String,
    /// Locks acquired (rendered), or the lock requested when blocked.
    pub locks: Vec<String>,
    /// `ok`, `blocked`, `deadlock`, or `error: …`.
    pub outcome: String,
    /// Instances this step waits on (blocked) or the abort cycle
    /// (deadlock).
    pub waits_on: Vec<String>,
}

/// An instance participating in the witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessInstance {
    /// Instance name (`A1` / `A2`).
    pub name: String,
    /// The API whose trace the instance replays.
    pub api: String,
}

/// A concrete deadlock witness: the first deadlocking schedule found by the
/// explorer, with every step's SQL and locks plus the final wait-for cycle
/// reported by the lock manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Participating instances in name order.
    pub instances: Vec<WitnessInstance>,
    /// The schedule, in execution order.
    pub steps: Vec<WitnessStep>,
    /// Final wait-for cycle as instance names, victim first
    /// (`[A2, A1]` means A2 waits on A1 waits on A2).
    pub cycle: Vec<String>,
    /// Schedules fully explored before (and including) this one.
    pub schedules_explored: usize,
    /// Schedules pruned by the sleep-set check.
    pub schedules_pruned: usize,
}

impl Witness {
    /// Whether every participating instance appears in the final cycle.
    pub fn cycle_covers_instances(&self) -> bool {
        self.instances.iter().all(|i| self.cycle.contains(&i.name))
    }

    /// Canonical single-line JSON rendering (stable field order; byte
    /// identical across runs and thread counts).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        write_schedule_json(&mut s, &self.instances, &self.steps);
        let _ = write!(
            s,
            ",\"cycle\":[{}],\"schedules_explored\":{},\"schedules_pruned\":{}}}",
            quoted_list(&self.cycle),
            self.schedules_explored,
            self.schedules_pruned
        );
        s
    }

    /// Parse a witness serialized by [`Witness::to_json`]. Round-trips
    /// exactly: `from_json(w.to_json()).unwrap().to_json() == w.to_json()`,
    /// which is what lets the incremental store persist confirmed
    /// witnesses and re-export them byte-identically on warm runs.
    pub fn from_json(s: &str) -> Option<Witness> {
        let v = Json::parse(s).ok()?;
        let (instances, steps) = parse_schedule_json(&v)?;
        Some(Witness {
            instances,
            steps,
            cycle: strs_field(&v, "cycle")?,
            schedules_explored: v.get("schedules_explored")?.as_u64()? as usize,
            schedules_pruned: v.get("schedules_pruned")?.as_u64()? as usize,
        })
    }

    /// Human-readable rendering for reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "witness schedule ({} steps; {} schedules explored, {} pruned):",
            self.steps.len(),
            self.schedules_explored,
            self.schedules_pruned
        );
        render_schedule(&mut out, &self.instances, &self.steps);
        if !self.cycle.is_empty() {
            let mut c = self.cycle.join(" -> ");
            let _ = write!(c, " -> {}", self.cycle[0]);
            let _ = writeln!(out, "  wait-for cycle: {c}");
        }
        out
    }
}

/// Render a lock grab as a short stable string, e.g. `X row
/// Product.PRIMARY<3>` or `II gap Stock.PRIMARY before <7>`.
pub fn render_lock(target: &LockTarget, mode: LockMode) -> String {
    let m = match mode {
        LockMode::Shared => "S",
        LockMode::Exclusive => "X",
        LockMode::InsertIntention => "II",
        LockMode::IntentionShared => "IS",
        LockMode::IntentionExclusive => "IX",
    };
    match target {
        LockTarget::Table { table } => format!("{m} table {table}"),
        LockTarget::Row { table, index, key } => {
            format!("{m} row {table}.{index}{}", KeyBound::Key(key.clone()))
        }
        LockTarget::Gap {
            table,
            index,
            upper,
        } => format!("{m} gap {table}.{index} before {upper}"),
    }
}

/// The witness legend: each instance with the API whose trace it replays
/// (`apis` parallel to `instances`).
pub(crate) fn named<'a>(
    instances: &[crate::Instance],
    apis: impl IntoIterator<Item = &'a String>,
) -> Vec<WitnessInstance> {
    let pairs = instances.iter().zip(apis);
    pairs
        .map(|(inst, api)| WitnessInstance {
            name: inst.name.clone(),
            api: api.clone(),
        })
        .collect()
}

/// `s` as a JSON string literal (quotes and escapes included).
pub(crate) fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

/// `parts` as the comma-separated items of a JSON string array.
pub(crate) fn quoted_list(parts: &[String]) -> String {
    parts
        .iter()
        .map(|p| quoted(p))
        .collect::<Vec<_>>()
        .join(",")
}

/// Append `"instances":[…],"steps":[…]` — the two members every witness
/// kind serializes identically.
pub(crate) fn write_schedule_json(
    out: &mut String,
    instances: &[WitnessInstance],
    steps: &[WitnessStep],
) {
    out.push_str("\"instances\":[");
    for (i, inst) in instances.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"api\":{}}}",
            quoted(&inst.name),
            quoted(&inst.api)
        );
    }
    out.push_str("],\"steps\":[");
    for (i, st) in steps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"instance\":{},\"label\":{},\"sql\":{},\"locks\":[{}],\"outcome\":{},\"waits_on\":[{}]}}",
            quoted(&st.instance),
            quoted(&st.label),
            quoted(&st.sql),
            quoted_list(&st.locks),
            quoted(&st.outcome),
            quoted_list(&st.waits_on),
        );
    }
    out.push(']');
}

/// String member `k` of object `j`.
pub(crate) fn str_field(j: &Json, k: &str) -> Option<String> {
    j.get(k)?.as_str().map(str::to_string)
}

/// String-array member `k` of object `j`.
pub(crate) fn strs_field(j: &Json, k: &str) -> Option<Vec<String>> {
    let items = j.get(k)?.as_arr()?.iter();
    items.map(|x| x.as_str().map(str::to_string)).collect()
}

/// Inverse of [`write_schedule_json`] on the parsed enclosing object.
pub(crate) fn parse_schedule_json(v: &Json) -> Option<(Vec<WitnessInstance>, Vec<WitnessStep>)> {
    let mut instances = Vec::new();
    for inst in v.get("instances")?.as_arr()? {
        instances.push(WitnessInstance {
            name: str_field(inst, "name")?,
            api: str_field(inst, "api")?,
        });
    }
    let mut steps = Vec::new();
    for st in v.get("steps")?.as_arr()? {
        steps.push(WitnessStep {
            instance: str_field(st, "instance")?,
            label: str_field(st, "label")?,
            sql: str_field(st, "sql")?,
            locks: strs_field(st, "locks")?,
            outcome: str_field(st, "outcome")?,
            waits_on: strs_field(st, "waits_on")?,
        });
    }
    Some((instances, steps))
}

/// Append the `name = api` legend and one line per step (plus its locks).
pub(crate) fn render_schedule(
    out: &mut String,
    instances: &[WitnessInstance],
    steps: &[WitnessStep],
) {
    for inst in instances {
        let _ = writeln!(out, "  {} = {}", inst.name, inst.api);
    }
    for st in steps {
        let _ = write!(
            out,
            "  {}.{} [{}] {}",
            st.instance, st.label, st.outcome, st.sql
        );
        if !st.waits_on.is_empty() && st.outcome == "blocked" {
            let _ = write!(out, "  (waits on {})", st.waits_on.join(", "));
        }
        let _ = writeln!(out);
        if !st.locks.is_empty() {
            let _ = writeln!(out, "      locks: {}", st.locks.join(", "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Witness {
        Witness {
            instances: vec![
                WitnessInstance {
                    name: "A1".into(),
                    api: "Add2".into(),
                },
                WitnessInstance {
                    name: "A2".into(),
                    api: "Ship".into(),
                },
            ],
            steps: vec![
                WitnessStep {
                    instance: "A1".into(),
                    label: "Q4".into(),
                    sql: "UPDATE T SET V = 1 WHERE ID = 1".into(),
                    locks: vec!["X row T.PRIMARY<1>".into()],
                    outcome: "ok".into(),
                    waits_on: vec![],
                },
                WitnessStep {
                    instance: "A2".into(),
                    label: "Q6".into(),
                    sql: "UPDATE T SET V = 1 WHERE ID = 1".into(),
                    locks: vec![],
                    outcome: "deadlock".into(),
                    waits_on: vec!["A2".into(), "A1".into()],
                },
            ],
            cycle: vec!["A2".into(), "A1".into()],
            schedules_explored: 3,
            schedules_pruned: 1,
        }
    }

    #[test]
    fn json_is_single_line_and_escaped() {
        let mut w = sample();
        w.steps[0].sql = "SELECT 'a\"b'".into();
        let j = w.to_json();
        assert!(!j.contains('\n'));
        assert!(j.contains("\\\"b"));
        assert!(j.starts_with("{\"instances\":"));
        assert!(j.ends_with("\"schedules_explored\":3,\"schedules_pruned\":1}"));
    }

    #[test]
    fn from_json_round_trips_byte_exactly() {
        let mut w = sample();
        w.steps[0].sql = "SELECT 'a\"b\\c\nd'".into();
        let j = w.to_json();
        let parsed = Witness::from_json(&j).expect("parse");
        assert_eq!(parsed, w);
        assert_eq!(parsed.to_json(), j);
        assert!(Witness::from_json("{\"instances\":[]}").is_none());
    }

    #[test]
    fn render_shows_cycle_and_locks() {
        let w = sample();
        let r = w.render();
        assert!(r.contains("A1 = Add2"));
        assert!(r.contains("wait-for cycle: A2 -> A1 -> A2"));
        assert!(r.contains("X row T.PRIMARY<1>"));
    }

    #[test]
    fn cycle_covers_instances_checks_both() {
        let mut w = sample();
        assert!(w.cycle_covers_instances());
        w.cycle = vec!["A1".into()];
        assert!(!w.cycle_covers_instances());
    }
}
