//! Satisfying assignments and model evaluation.
//!
//! When the solver reports SAT, the [`Model`] carries concrete values for
//! every named variable plus the boolean value of each array read. WeSEER
//! surfaces these in deadlock reports so developers can reproduce the
//! deadlock with concrete API inputs and database state (paper Sec. III-B).

use crate::term::{CmpKind, Ctx, Sort, TermId, TermKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A concrete model value.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelValue {
    /// Integer.
    Int(i64),
    /// Real, reported as f64.
    Real(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl fmt::Display for ModelValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelValue::Int(i) => write!(f, "{i}"),
            ModelValue::Real(x) => write!(f, "{x}"),
            ModelValue::Str(s) => write!(f, "{s:?}"),
            ModelValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Hashable key for array-read lookups (index values evaluated under the
/// model).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ModelKey {
    /// Integer key.
    Int(i64),
    /// Real key (bit pattern).
    Real(u64),
    /// String key.
    Str(String),
}

impl ModelKey {
    /// Convert an evaluated value to a key.
    pub fn from_value(v: &ModelValue) -> Option<ModelKey> {
        match v {
            ModelValue::Int(i) => Some(ModelKey::Int(*i)),
            ModelValue::Real(x) => Some(ModelKey::Real(x.to_bits())),
            ModelValue::Str(s) => Some(ModelKey::Str(s.clone())),
            ModelValue::Bool(_) => None,
        }
    }
}

/// A satisfying assignment.
#[derive(Debug, Clone, Default)]
pub struct Model {
    values: BTreeMap<String, ModelValue>,
    /// Array-read values: (array variable name, evaluated key) → Bool.
    selects: HashMap<(String, ModelKey), bool>,
}

impl Model {
    /// Internal constructor used by the solver.
    pub(crate) fn new(
        values: BTreeMap<String, ModelValue>,
        selects: HashMap<(String, ModelKey), bool>,
    ) -> Model {
        Model { values, selects }
    }

    /// Reassemble a model from its parts — the inverse of
    /// [`Model::iter`] + [`Model::selects`]. Lets external persistence
    /// layers round-trip models exactly.
    pub fn from_parts(
        values: impl IntoIterator<Item = (String, ModelValue)>,
        selects: impl IntoIterator<Item = ((String, ModelKey), bool)>,
    ) -> Model {
        Model {
            values: values.into_iter().collect(),
            selects: selects.into_iter().collect(),
        }
    }

    /// Iterate the recorded array-read values, in arbitrary order.
    pub fn selects(&self) -> impl Iterator<Item = (&(String, ModelKey), &bool)> {
        self.selects.iter()
    }

    /// The value of a named variable, if it was constrained.
    pub fn get(&self, name: &str) -> Option<&ModelValue> {
        self.values.get(name)
    }

    /// Integer value of a variable (also accepts integral reals).
    pub fn get_int(&self, name: &str) -> Option<i64> {
        match self.values.get(name)? {
            ModelValue::Int(i) => Some(*i),
            ModelValue::Real(x) if x.fract() == 0.0 => Some(*x as i64),
            _ => None,
        }
    }

    /// String value of a variable.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        match self.values.get(name)? {
            ModelValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Iterate `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &ModelValue)> {
        self.values.iter()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Evaluate a term under this model.
    ///
    /// Unassigned variables default to `0`, `""`, or `false`; array reads
    /// not recorded default to `false`. This is what the solver's SAT
    /// gate (and every model-checking test) evaluates a formula with.
    pub fn eval(&self, ctx: &Ctx, t: TermId) -> ModelValue {
        match ctx.kind(t).clone() {
            TermKind::Var(name) => match ctx.sort(t) {
                Sort::Int => ModelValue::Int(self.get_int(&name).unwrap_or(0)),
                Sort::Real => match self.values.get(&name) {
                    Some(ModelValue::Real(x)) => ModelValue::Real(*x),
                    Some(ModelValue::Int(i)) => ModelValue::Real(*i as f64),
                    _ => ModelValue::Real(0.0),
                },
                Sort::Str => ModelValue::Str(self.get_str(&name).unwrap_or_default().to_string()),
                Sort::Bool => match self.values.get(&name) {
                    Some(ModelValue::Bool(b)) => ModelValue::Bool(*b),
                    _ => ModelValue::Bool(false),
                },
                Sort::Array(_) => panic!("cannot evaluate an array variable to a value"),
            },
            TermKind::BoolConst(b) => ModelValue::Bool(b),
            TermKind::NumConst(r) => {
                if ctx.sort(t) == &Sort::Int {
                    ModelValue::Int(r.floor() as i64)
                } else {
                    ModelValue::Real(r.to_f64())
                }
            }
            TermKind::StrConst(s) => ModelValue::Str(s),
            TermKind::Add(a, b) => self.num_op(ctx, a, b, |x, y| x + y),
            TermKind::Sub(a, b) => self.num_op(ctx, a, b, |x, y| x - y),
            TermKind::Neg(a) => match self.eval(ctx, a) {
                ModelValue::Int(i) => ModelValue::Int(-i),
                ModelValue::Real(x) => ModelValue::Real(-x),
                v => panic!("neg of non-numeric {v}"),
            },
            TermKind::MulConst(c, a) => {
                let f = c.to_f64();
                match self.eval(ctx, a) {
                    ModelValue::Int(i) => {
                        if c.is_integer() {
                            ModelValue::Int(i * c.num() as i64)
                        } else {
                            ModelValue::Real(i as f64 * f)
                        }
                    }
                    ModelValue::Real(x) => ModelValue::Real(x * f),
                    v => panic!("mul_const of non-numeric {v}"),
                }
            }
            TermKind::Cmp(kind, a, b) => {
                let (x, y) = (self.as_f64(ctx, a), self.as_f64(ctx, b));
                ModelValue::Bool(match kind {
                    CmpKind::Lt => x < y,
                    CmpKind::Le => x <= y,
                })
            }
            TermKind::Eq(a, b) => {
                let (va, vb) = (self.eval(ctx, a), self.eval(ctx, b));
                ModelValue::Bool(match (va, vb) {
                    (ModelValue::Int(x), ModelValue::Int(y)) => x == y,
                    (ModelValue::Str(x), ModelValue::Str(y)) => x == y,
                    (ModelValue::Bool(x), ModelValue::Bool(y)) => x == y,
                    (x, y) => {
                        let fx = match x {
                            ModelValue::Int(i) => i as f64,
                            ModelValue::Real(r) => r,
                            v => panic!("eq across sorts: {v}"),
                        };
                        let fy = match y {
                            ModelValue::Int(i) => i as f64,
                            ModelValue::Real(r) => r,
                            v => panic!("eq across sorts: {v}"),
                        };
                        fx == fy
                    }
                })
            }
            TermKind::Not(a) => match self.eval(ctx, a) {
                ModelValue::Bool(b) => ModelValue::Bool(!b),
                v => panic!("not of non-bool {v}"),
            },
            TermKind::And(parts) => ModelValue::Bool(
                parts
                    .iter()
                    .all(|&p| matches!(self.eval(ctx, p), ModelValue::Bool(true))),
            ),
            TermKind::Or(parts) => ModelValue::Bool(
                parts
                    .iter()
                    .any(|&p| matches!(self.eval(ctx, p), ModelValue::Bool(true))),
            ),
            TermKind::Select(arr, idx) => {
                let name = match ctx.kind(arr) {
                    TermKind::Var(n) => n.clone(),
                    _ => panic!("select base must be an array variable after expansion"),
                };
                let key = ModelKey::from_value(&self.eval(ctx, idx))
                    .expect("array keys are Int/Real/Str");
                ModelValue::Bool(*self.selects.get(&(name, key)).unwrap_or(&false))
            }
            TermKind::Store(..) => panic!("cannot evaluate a store to a scalar"),
        }
    }

    fn as_f64(&self, ctx: &Ctx, t: TermId) -> f64 {
        match self.eval(ctx, t) {
            ModelValue::Int(i) => i as f64,
            ModelValue::Real(x) => x,
            v => panic!("expected numeric, got {v}"),
        }
    }

    fn num_op(&self, ctx: &Ctx, a: TermId, b: TermId, f: impl Fn(f64, f64) -> f64) -> ModelValue {
        match (self.eval(ctx, a), self.eval(ctx, b)) {
            (ModelValue::Int(x), ModelValue::Int(y)) => {
                ModelValue::Int(f(x as f64, y as f64) as i64)
            }
            (x, y) => {
                let fx = match x {
                    ModelValue::Int(i) => i as f64,
                    ModelValue::Real(r) => r,
                    v => panic!("non-numeric operand {v}"),
                };
                let fy = match y {
                    ModelValue::Int(i) => i as f64,
                    ModelValue::Real(r) => r,
                    v => panic!("non-numeric operand {v}"),
                };
                ModelValue::Real(f(fx, fy))
            }
        }
    }

    /// Whether the model makes `t` true.
    pub fn satisfies(&self, ctx: &Ctx, t: TermId) -> bool {
        matches!(self.eval(ctx, t), ModelValue::Bool(true))
    }

    /// The sub-model of one analyzer instance: keeps only variables (and
    /// array reads) whose name starts with `prefix`, with the prefix
    /// stripped.
    ///
    /// The analyzer imports both instances' terms under `"A1."` / `"A2."`
    /// prefixes before solving, so a SAT model assigns `A1.order_id`
    /// etc.; the replay engine evaluates each *trace's own* terms (whose
    /// variables are unprefixed) and needs the assignment back in that
    /// namespace.
    pub fn strip_prefix(&self, prefix: &str) -> Model {
        Model {
            values: self
                .values
                .iter()
                .filter_map(|(n, v)| Some((n.strip_prefix(prefix)?.to_string(), v.clone())))
                .collect(),
            selects: self
                .selects
                .iter()
                .filter_map(|((n, k), v)| {
                    Some(((n.strip_prefix(prefix)?.to_string(), k.clone()), *v))
                })
                .collect(),
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, v)) in self.values.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_prefix_projects_one_instance() {
        let mut values = BTreeMap::new();
        values.insert("A1.order_id".to_string(), ModelValue::Int(7));
        values.insert("A2.order_id".to_string(), ModelValue::Int(9));
        values.insert("A1.name".to_string(), ModelValue::Str("x".into()));
        let mut selects = HashMap::new();
        selects.insert(("A1.rows".to_string(), ModelKey::Int(7)), true);
        selects.insert(("A2.rows".to_string(), ModelKey::Int(9)), false);
        let m = Model::new(values, selects);

        let a1 = m.strip_prefix("A1.");
        assert_eq!(a1.get_int("order_id"), Some(7));
        assert_eq!(a1.get_str("name"), Some("x"));
        assert_eq!(a1.get("A2.order_id"), None);
        assert_eq!(a1.len(), 2);

        let a2 = m.strip_prefix("A2.");
        assert_eq!(a2.get_int("order_id"), Some(9));
        assert_eq!(a2.len(), 1);
    }
}
