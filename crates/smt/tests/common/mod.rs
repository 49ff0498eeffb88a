//! The random-formula generator the solver property tests share: small
//! boolean combinations of comparisons over three integer variables
//! `x, y, z` and constants in `-3..=3`, optionally with reads `m[v]` of
//! one `Array<Int, Bool>` variable `m`.

use proptest::prelude::*;
use weseer_smt::{Ctx, SolverConfig, Sort, TermId, TierConfig};

#[derive(Debug, Clone)]
pub enum Atom {
    /// var[i] ⋈ const
    VarConst(usize, u8, i64),
    /// var[i] ⋈ var[j]
    VarVar(usize, u8, usize),
    /// m[var[i]]
    Read(usize),
}

#[derive(Debug, Clone)]
pub enum Form {
    Atom(Atom),
    Not(Box<Form>),
    And(Box<Form>, Box<Form>),
    Or(Box<Form>, Box<Form>),
}

/// Random formulas; `reads` adds array reads to the atoms.
pub fn form_strategy(reads: bool) -> impl Strategy<Value = Form> {
    let var_const = (0usize..3, 0u8..6, -3i64..=3).prop_map(|(v, op, c)| Atom::VarConst(v, op, c));
    let var_var = (0usize..3, 0u8..6, 0usize..3).prop_map(|(a, op, b)| Atom::VarVar(a, op, b));
    let atoms = if reads {
        prop_oneof![var_const, var_var, (0usize..3).prop_map(Atom::Read)]
    } else {
        prop_oneof![var_const, var_var]
    };
    atoms
        .prop_map(Form::Atom)
        .prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                inner.clone().prop_map(|f| Form::Not(Box::new(f))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Form::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner).prop_map(|(a, b)| Form::Or(Box::new(a), Box::new(b))),
            ]
        })
}

pub fn build(ctx: &mut Ctx, f: &Form, vars: &[TermId; 3]) -> TermId {
    match f {
        Form::Atom(Atom::VarConst(v, op, c)) => {
            let rhs = ctx.int(*c);
            build_cmp(ctx, *op, vars[*v], rhs)
        }
        Form::Atom(Atom::VarVar(a, op, b)) => build_cmp(ctx, *op, vars[*a], vars[*b]),
        Form::Atom(Atom::Read(v)) => {
            let m = ctx.array_var("m", Sort::Int);
            ctx.select(m, vars[*v])
        }
        Form::Not(f) => {
            let inner = build(ctx, f, vars);
            ctx.not(inner)
        }
        Form::And(a, b) => {
            let (ta, tb) = (build(ctx, a, vars), build(ctx, b, vars));
            ctx.and([ta, tb])
        }
        Form::Or(a, b) => {
            let (ta, tb) = (build(ctx, a, vars), build(ctx, b, vars));
            ctx.or([ta, tb])
        }
    }
}

pub fn build_cmp(ctx: &mut Ctx, op: u8, a: TermId, b: TermId) -> TermId {
    match op {
        0 => ctx.eq(a, b),
        1 => ctx.ne(a, b),
        2 => ctx.lt(a, b),
        3 => ctx.le(a, b),
        4 => ctx.gt(a, b),
        _ => ctx.ge(a, b),
    }
}

/// The default solver configuration with the given fast-path tiers.
pub fn config_with(tiers: TierConfig) -> SolverConfig {
    SolverConfig {
        tiers,
        ..SolverConfig::default()
    }
}

pub fn mk_vars(ctx: &mut Ctx) -> [TermId; 3] {
    [
        ctx.var("x", Sort::Int),
        ctx.var("y", Sort::Int),
        ctx.var("z", Sort::Int),
    ]
}
