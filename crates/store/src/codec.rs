//! Exact JSON codec for solver models.
//!
//! Warm runs must be byte-identical to cold runs, so the codec cannot lose
//! information: integers ride as decimal strings, reals as the hex bit
//! pattern of their `f64` (`to_bits`), and array-read entries are emitted
//! in a sorted order so the same model always serializes to the same line.

use crate::json::Json;
use weseer_smt::{Model, ModelKey, ModelValue};

fn value_to_json(v: &ModelValue) -> Json {
    match v {
        ModelValue::Int(i) => Json::Arr(vec![Json::str("i"), Json::str(i.to_string())]),
        ModelValue::Real(x) => Json::Arr(vec![
            Json::str("r"),
            Json::str(format!("{:016x}", x.to_bits())),
        ]),
        ModelValue::Str(s) => Json::Arr(vec![Json::str("s"), Json::str(s.clone())]),
        ModelValue::Bool(b) => Json::Arr(vec![Json::str("b"), Json::Bool(*b)]),
    }
}

fn value_from_json(j: &Json) -> Option<ModelValue> {
    let arr = j.as_arr()?;
    match (arr[0].as_str()?, arr.get(1)?) {
        ("i", v) => Some(ModelValue::Int(v.as_str()?.parse().ok()?)),
        ("r", v) => Some(ModelValue::Real(f64::from_bits(
            u64::from_str_radix(v.as_str()?, 16).ok()?,
        ))),
        ("s", v) => Some(ModelValue::Str(v.as_str()?.to_string())),
        ("b", v) => Some(ModelValue::Bool(v.as_bool()?)),
        _ => None,
    }
}

fn key_to_json(k: &ModelKey) -> Json {
    match k {
        ModelKey::Int(i) => Json::Arr(vec![Json::str("i"), Json::str(i.to_string())]),
        ModelKey::Real(bits) => Json::Arr(vec![Json::str("r"), Json::str(format!("{bits:016x}"))]),
        ModelKey::Str(s) => Json::Arr(vec![Json::str("s"), Json::str(s.clone())]),
    }
}

fn key_from_json(j: &Json) -> Option<ModelKey> {
    let arr = j.as_arr()?;
    match (arr[0].as_str()?, arr.get(1)?) {
        ("i", v) => Some(ModelKey::Int(v.as_str()?.parse().ok()?)),
        ("r", v) => Some(ModelKey::Real(u64::from_str_radix(v.as_str()?, 16).ok()?)),
        ("s", v) => Some(ModelKey::Str(v.as_str()?.to_string())),
        _ => None,
    }
}

/// Serialize a model losslessly.
pub fn model_to_json(m: &Model) -> Json {
    let values: Vec<Json> = m
        .iter()
        .map(|(name, v)| Json::Arr(vec![Json::str(name.clone()), value_to_json(v)]))
        .collect();
    let mut selects: Vec<Json> = m
        .selects()
        .map(|((name, key), b)| {
            Json::Arr(vec![
                Json::str(name.clone()),
                key_to_json(key),
                Json::Bool(*b),
            ])
        })
        .collect();
    // The model's select table iterates in hash order; sort by the
    // serialized entry so the line is canonical.
    selects.sort_by_key(|j| j.to_line());
    Json::Obj(vec![
        ("values".into(), Json::Arr(values)),
        ("selects".into(), Json::Arr(selects)),
    ])
}

/// Rebuild a model serialized by [`model_to_json`].
pub fn model_from_json(j: &Json) -> Option<Model> {
    let mut values = Vec::new();
    for entry in j.get("values")?.as_arr()? {
        let pair = entry.as_arr()?;
        values.push((pair[0].as_str()?.to_string(), value_from_json(&pair[1])?));
    }
    let mut selects = Vec::new();
    for entry in j.get("selects")?.as_arr()? {
        let triple = entry.as_arr()?;
        selects.push((
            (triple[0].as_str()?.to_string(), key_from_json(&triple[1])?),
            triple[2].as_bool()?,
        ));
    }
    Some(Model::from_parts(values, selects))
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_smt::{check, Ctx, SolverConfig, Sort};

    #[test]
    fn solver_model_round_trip_is_byte_exact() {
        let mut ctx = Ctx::new();
        let x = ctx.var("v0", Sort::Int);
        let three = ctx.int(3);
        let f = ctx.gt(x, three);
        let model = check(&mut ctx, f, &SolverConfig::default())
            .model()
            .expect("sat");
        let line = model_to_json(&model).to_line();
        let back = model_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(model_to_json(&back).to_line(), line);
        assert_eq!(back.get_int("v0"), model.get_int("v0"));
    }

    #[test]
    fn real_values_round_trip_bit_for_bit() {
        let m = Model::from_parts(
            [
                ("a".to_string(), ModelValue::Real(0.1 + 0.2)),
                ("b".to_string(), ModelValue::Real(-0.0)),
                ("c".to_string(), ModelValue::Str("x\"y".into())),
            ],
            [(("arr".to_string(), ModelKey::Int(-5)), true)],
        );
        let line = model_to_json(&m).to_line();
        let back = model_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(model_to_json(&back).to_line(), line);
        match (back.get("a"), m.get("a")) {
            (Some(ModelValue::Real(x)), Some(ModelValue::Real(y))) => {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            other => panic!("expected reals, got {other:?}"),
        }
    }
}
