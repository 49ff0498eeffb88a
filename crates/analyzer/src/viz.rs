//! Graphviz (DOT) export of the analyzer's index usage graph (the paper's
//! Fig. 8) as an artifact developers can render while investigating a
//! report.

use crate::indexes::infer_possible_indexes;
use std::fmt::Write as _;
use weseer_sqlir::{Catalog, Statement};

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render a statement's index usage graph (Fig. 8) as DOT: one vertex for
/// the always-available sources (SQL parameters/constants) and one per
/// table alias; edges are tagged with the index they traverse.
pub fn index_usage_dot(stmt: &Statement, catalog: &Catalog) -> String {
    let uses = infer_possible_indexes(stmt, catalog);
    let mut out = String::from("digraph index_usage {\n  rankdir=LR;\n");
    let _ = writeln!(out, "  params [label=\"SQL params\", shape=diamond];");
    for (alias, table) in stmt.alias_map() {
        let _ = writeln!(
            out,
            "  {alias} [label=\"{} ({})\", shape=box];",
            esc(&alias),
            esc(&table)
        );
    }
    for u in &uses {
        match &u.index {
            Some(idx) => {
                // Source: a predicate's other side — parameters or another
                // alias. For display we point from params when any related
                // predicate has a parameter/constant side, else from the
                // other alias mentioned.
                let mut sources: Vec<String> = Vec::new();
                for p in &u.preds {
                    match &p.rhs {
                        weseer_sqlir::Operand::Param(_) | weseer_sqlir::Operand::Const(_) => {
                            sources.push("params".to_string());
                        }
                        weseer_sqlir::Operand::Column { alias, .. } => {
                            sources.push(alias.clone());
                        }
                    }
                }
                sources.sort();
                sources.dedup();
                if sources.is_empty() {
                    sources.push("params".to_string());
                }
                for src in sources {
                    let _ = writeln!(
                        out,
                        "  {src} -> {} [label=\"{}\"];",
                        u.alias,
                        esc(&idx.name)
                    );
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {0} -> {0} [label=\"table scan\", style=dashed];",
                    u.alias
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_sqlir::{parser::parse, ColType, TableBuilder};

    fn catalog() -> Catalog {
        Catalog::new(vec![
            TableBuilder::new("Order")
                .col("ID", ColType::Int)
                .col("NOTE", ColType::Str)
                .primary_key(&["ID"])
                .build()
                .unwrap(),
            TableBuilder::new("OrderItem")
                .col("ID", ColType::Int)
                .col("O_ID", ColType::Int)
                .primary_key(&["ID"])
                .foreign_key("O_ID", "Order", "ID")
                .build()
                .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn index_usage_dot_contains_edges() {
        let cat = catalog();
        let q =
            parse("SELECT * FROM OrderItem oi JOIN Order o ON o.ID = oi.O_ID WHERE oi.O_ID = ?")
                .unwrap();
        let dot = index_usage_dot(&q, &cat);
        assert!(dot.starts_with("digraph index_usage"));
        assert!(
            dot.contains("params -> oi [label=\"idx_orderitem_o_id\"]"),
            "{dot}"
        );
        assert!(dot.contains("-> o [label=\"PRIMARY\"]"), "{dot}");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn scan_rendered_dashed() {
        let cat = catalog();
        // NOTE is unindexed → no usable index → full scan.
        let q = parse("SELECT * FROM Order o WHERE o.NOTE = ?").unwrap();
        let dot = index_usage_dot(&q, &cat);
        assert!(dot.contains("table scan"), "{dot}");
    }
}
