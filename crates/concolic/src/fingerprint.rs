//! Stable content fingerprints for traces.
//!
//! The incremental engine keys persisted analysis results by the traces
//! they were computed from, so a fingerprint must capture **everything the
//! analyzer and replayer read** from a [`Trace`] — SQL templates,
//! transaction boundaries, concolic parameter and result values, path
//! conditions with their interleaving against the statements, unique-id
//! generators, and the triggering-code stacks surfaced in reports.
//!
//! Symbolic terms are printed as the analysis reads them
//! ([`Ctx::display`]), **symbol names included**: reports print the names
//! (a witness assignment names the inputs that trigger a deadlock), so
//! two traces that differ only in a name must not share a stored verdict.
//! Names are a deterministic function of the traced code, so re-collecting
//! an unchanged trace prints the same names. Only the engine's raw
//! sequence counters are left out: path conditions are positioned by *how
//! many statements precede them*, not by the global event counter.
//!
//! The description is hashed (two independent 64-bit FNV-1a lanes) under a
//! versioned schema tag, [`FINGERPRINT_SCHEMA`]; bumping the tag invalidates
//! every stored fingerprint at once when the description format changes.

use crate::location::StackTrace;
use crate::sym::SymValue;
use crate::trace::Trace;
use std::fmt::Write as _;
use weseer_smt::Ctx;

/// Versioned schema tag mixed into every fingerprint.
pub const FINGERPRINT_SCHEMA: &str = "weseer-fp-v2";

impl Trace {
    /// A stable content fingerprint of this trace: 32 lowercase hex
    /// characters, a pure function of the trace's analyzer-visible content
    /// (see the module docs for what that includes and excludes).
    ///
    /// `ctx` must be the term context the trace's symbolic terms live in.
    pub fn fingerprint(&self, ctx: &Ctx) -> String {
        let desc = self.describe(ctx);
        let h1 = fnv64(desc.as_bytes(), 0xcbf2_9ce4_8422_2325);
        let h2 = fnv64(desc.as_bytes(), 0x6c62_272e_07bb_0142);
        format!("{h1:016x}{h2:016x}")
    }

    /// The description string that gets hashed. Exposed to the crate's
    /// tests so failures show *what* differed, not just that the hashes
    /// did.
    pub(crate) fn describe(&self, ctx: &Ctx) -> String {
        let sym = |v: &SymValue| match v.sym {
            Some(t) => format!("{:?}#{}", v.concrete, ctx.display(t)),
            None => format!("{:?}", v.concrete),
        };
        let mut out = String::new();
        let _ = writeln!(out, "{FINGERPRINT_SCHEMA}");
        let _ = writeln!(out, "api={}", self.api);
        for s in &self.statements {
            let _ = writeln!(
                out,
                "stmt index={} txn={} empty={} sql={}",
                s.index, s.txn, s.is_empty, s.stmt
            );
            let _ = writeln!(out, " trigger={}", stack_line(&s.trigger));
            let _ = writeln!(out, " sent={}", stack_line(&s.sent_at));
            for p in &s.params {
                let _ = writeln!(out, " param={}", sym(p));
            }
            for row in &s.rows {
                let _ = write!(out, " row");
                for (name, v) in &row.cols {
                    let _ = write!(out, " {name}={}", sym(v));
                }
                let _ = writeln!(out);
            }
        }
        for t in &self.txns {
            let _ = writeln!(
                out,
                "txn id={} stmts={:?} committed={}",
                t.id, t.stmt_indexes, t.committed
            );
        }
        for c in &self.path_conds {
            // Position = number of statements executed before the branch;
            // stable across engines with different global counters.
            let pos = self.statements.iter().filter(|s| s.seq < c.seq).count();
            let _ = writeln!(
                out,
                "cond pos={pos} lib={} stack={} term={}",
                c.in_library,
                stack_line(&c.stack),
                ctx.display(c.term)
            );
        }
        for (gen, t) in &self.unique_ids {
            let _ = writeln!(out, "uid gen={gen} term={}", ctx.display(*t));
        }
        out
    }
}

fn stack_line(st: &StackTrace) -> String {
    let frames: Vec<String> = st.frames.iter().map(|f| f.to_string()).collect();
    frames.join(";")
}

/// FNV-1a-64 of `data` from `basis` (the standard offset basis
/// `0xcbf2_9ce4_8422_2325` for a fresh hash, or a previous result to
/// continue one over further bytes).
pub fn fnv64(data: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineStats, PathCond};
    use crate::trace::{StmtRecord, TxnTrace};
    use weseer_smt::Sort;
    use weseer_sqlir::parser::parse;

    fn trace_with(ctx: &mut Ctx, prefix: &str) -> Trace {
        let x = ctx.var(format!("{prefix}.x"), Sort::Int);
        let zero = ctx.int(0);
        let cond = ctx.gt(x, zero);
        Trace {
            api: "Demo".into(),
            statements: vec![StmtRecord {
                index: 1,
                seq: 10,
                txn: 0,
                stmt: parse("SELECT * FROM T t WHERE t.A = ?").unwrap(),
                params: vec![SymValue::with_sym(3i64, x)],
                rows: vec![],
                is_empty: false,
                trigger: StackTrace::new(),
                sent_at: StackTrace::new(),
            }],
            txns: vec![TxnTrace {
                id: 0,
                stmt_indexes: vec![0],
                committed: true,
            }],
            path_conds: vec![PathCond {
                term: cond,
                seq: 15,
                stack: StackTrace::new(),
                in_library: false,
            }],
            unique_ids: vec![],
            stats: EngineStats::default(),
        }
    }

    #[test]
    fn a_renamed_symbol_changes_the_fingerprint() {
        // Reports print symbol names, so a rename is a content change.
        let mut ctx = Ctx::new();
        let a = trace_with(&mut ctx, "run1");
        let b = trace_with(&mut ctx, "run2");
        assert_ne!(a.fingerprint(&ctx), b.fingerprint(&ctx));
    }

    #[test]
    fn equal_names_give_equal_fingerprints_in_any_context() {
        // Term ids differ between the two contexts; the printed names and
        // structure do not.
        let mut ctx = Ctx::new();
        let a = trace_with(&mut ctx, "p");
        let mut other = Ctx::new();
        let _ = trace_with(&mut other, "unrelated");
        let b = trace_with(&mut other, "p");
        assert_eq!(a.fingerprint(&ctx), b.fingerprint(&other));
    }

    #[test]
    fn sql_template_changes_the_fingerprint() {
        let mut ctx = Ctx::new();
        let a = trace_with(&mut ctx, "p");
        let mut b = trace_with(&mut ctx, "p");
        b.statements[0].stmt = parse("SELECT * FROM T t WHERE t.B = ?").unwrap();
        assert_ne!(a.fingerprint(&ctx), b.fingerprint(&ctx));
    }

    #[test]
    fn txn_boundary_changes_the_fingerprint() {
        let mut ctx = Ctx::new();
        let a = trace_with(&mut ctx, "p");
        let mut b = trace_with(&mut ctx, "p");
        b.txns[0].committed = false;
        assert_ne!(a.fingerprint(&ctx), b.fingerprint(&ctx));
    }

    #[test]
    fn engine_seq_offsets_do_not_matter() {
        // Shifting every sequence number by a constant preserves the
        // statement/condition interleaving, hence the fingerprint.
        let mut ctx = Ctx::new();
        let a = trace_with(&mut ctx, "p");
        let mut b = trace_with(&mut ctx, "p");
        b.statements[0].seq += 1000;
        b.path_conds[0].seq += 1000;
        assert_eq!(a.fingerprint(&ctx), b.fingerprint(&ctx));
        // ...but moving the condition *before* the statement does not.
        let mut c = trace_with(&mut ctx, "p");
        c.path_conds[0].seq = 5;
        assert_ne!(a.fingerprint(&ctx), c.fingerprint(&ctx));
    }
}
