//! Inferring the database indexes a statement may use (paper Sec. V-C2).
//!
//! For each statement we build the *index usage graph*: one vertex per
//! unique SQL parameter (or constant source) and per table alias; a
//! directed edge `src → alias` tagged `(index, predicates)` states that the
//! database can use data available at `src` to access `alias`'s table
//! through `index`. Enumerating topological sorts that start from the
//! always-available sources (parameters/constants) yields every index the
//! database might traverse — Fig. 8's red edges.

use std::collections::HashSet;
use std::sync::Arc;
use weseer_sqlir::cond::index_related_predicates;
use weseer_sqlir::{Catalog, IndexDef, Operand, Pred, Statement};

/// One possible index use: the index (or a full table scan when `None`)
/// with the predicates related to it.
#[derive(Debug, Clone)]
pub struct IndexUse {
    /// Table alias being accessed.
    pub alias: String,
    /// Table name.
    pub table: String,
    /// The index; `None` means no index is usable (full scan).
    pub index: Option<Arc<IndexDef>>,
    /// Predicates related to the index (empty for scans).
    pub preds: Vec<Pred>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Vertex {
    /// All SQL parameters and constants (always available).
    Sources,
    /// A table alias.
    Alias(String),
}

#[derive(Debug, Clone)]
struct Edge {
    src: Vertex,
    dst: String, // alias
    index: Arc<IndexDef>,
}

/// Infer all possible index uses for `stmt` (paper's
/// `InferPossibleIndexes`).
///
/// Aliases that no enumerated traversal can reach through an index are
/// reported with `index: None` (table scan).
pub fn infer_possible_indexes(stmt: &Statement, catalog: &Catalog) -> Vec<IndexUse> {
    let aliases = stmt.alias_map();
    let Some(qcond) = stmt.query_condition() else {
        // No conditions at all: every alias is a full scan.
        return aliases
            .into_iter()
            .map(|(alias, table)| IndexUse {
                alias,
                table,
                index: None,
                preds: vec![],
            })
            .collect();
    };

    // Build edges.
    let mut edges: Vec<Edge> = Vec::new();
    for pred in qcond.top_predicates() {
        for (alias, table) in &aliases {
            let Some(def) = catalog.table(table) else {
                continue;
            };
            let o = pred.oriented_for(alias);
            let Operand::Column { alias: a, column } = &o.lhs else {
                continue;
            };
            if a != alias {
                continue;
            }
            // Which indexes of this table cover the predicate's column?
            for idx in def.indexes.iter().filter(|i| i.columns.contains(column)) {
                // The edge's source: where the other operand's data comes
                // from.
                let src = match &o.rhs {
                    Operand::Param(_) | Operand::Const(_) => Vertex::Sources,
                    Operand::Column {
                        alias: src_alias, ..
                    } => {
                        if src_alias == alias {
                            continue; // self-referential predicate
                        }
                        Vertex::Alias(src_alias.clone())
                    }
                };
                edges.push(Edge {
                    src,
                    dst: alias.clone(),
                    index: Arc::new(idx.clone()),
                });
            }
        }
    }

    // Enumerate topological sorts starting from `Sources`; collect every
    // edge used by at least one sort. When no edge can extend a sort, the
    // database falls back to scanning one remaining table (indexes are
    // preferred — Sec. V-C2), whose data then feeds further edges.
    let alias_names: Vec<String> = aliases.iter().map(|(a, _)| a.clone()).collect();
    let mut usable: HashSet<(String, String)> = HashSet::new(); // (alias, index name)
    let mut scanned: HashSet<String> = HashSet::new();
    let mut visited: HashSet<String> = HashSet::new();
    enumerate(
        &alias_names,
        &edges,
        &mut visited,
        &mut usable,
        &mut scanned,
    );

    let mut out = Vec::new();
    for (alias, table) in &aliases {
        let Some(def) = catalog.table(table) else {
            continue;
        };
        for idx in &def.indexes {
            if usable.contains(&(alias.clone(), idx.name.clone())) {
                let preds = index_related_predicates(&qcond, idx, alias);
                out.push(IndexUse {
                    alias: alias.clone(),
                    table: table.clone(),
                    index: Some(Arc::new(idx.clone())),
                    preds,
                });
            }
        }
        if scanned.contains(alias) {
            out.push(IndexUse {
                alias: alias.clone(),
                table: table.clone(),
                index: None,
                preds: vec![],
            });
        }
    }
    out
}

/// DFS over partial topological orders; records edges usable at each step
/// and the aliases that must be scanned when no edge extends the order.
fn enumerate(
    aliases: &[String],
    edges: &[Edge],
    visited: &mut HashSet<String>,
    usable: &mut HashSet<(String, String)>,
    scanned: &mut HashSet<String>,
) {
    let mut extended = false;
    for e in edges {
        if visited.contains(&e.dst) {
            continue;
        }
        let src_ok = match &e.src {
            Vertex::Sources => true,
            Vertex::Alias(a) => visited.contains(a),
        };
        if !src_ok {
            continue;
        }
        extended = true;
        usable.insert((e.dst.clone(), e.index.name.clone()));
        visited.insert(e.dst.clone());
        enumerate(aliases, edges, visited, usable, scanned);
        visited.remove(&e.dst);
    }
    if !extended {
        let unvisited: Vec<String> = aliases
            .iter()
            .filter(|a| !visited.contains(*a))
            .cloned()
            .collect();
        for a in unvisited {
            scanned.insert(a.clone());
            visited.insert(a.clone());
            enumerate(aliases, edges, visited, usable, scanned);
            visited.remove(&a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weseer_sqlir::{parser::parse, Catalog, ColType, TableBuilder};

    fn catalog() -> Catalog {
        Catalog::new(vec![
            TableBuilder::new("Order")
                .col("ID", ColType::Int)
                .primary_key(&["ID"])
                .build()
                .unwrap(),
            TableBuilder::new("Product")
                .col("ID", ColType::Int)
                .col("QTY", ColType::Int)
                .primary_key(&["ID"])
                .build()
                .unwrap(),
            TableBuilder::new("OrderItem")
                .col("ID", ColType::Int)
                .col("O_ID", ColType::Int)
                .col("P_ID", ColType::Int)
                .col("QTY", ColType::Int)
                .primary_key(&["ID"])
                .foreign_key("O_ID", "Order", "ID")
                .foreign_key("P_ID", "Product", "ID")
                .build()
                .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn fig8_q4_index_inference() {
        // Fig. 8: Q4 can use idx(OrderItem, sec, O_ID) from the parameter,
        // then the primary indexes of Order and Product. Notably,
        // idx(OrderItem, sec, P_ID) must NOT be used (the only edge into
        // OrderItem.P_ID would come from Product, which itself is only
        // reachable through OrderItem).
        let cat = catalog();
        let q4 = parse(
            "SELECT * FROM OrderItem oi \
             JOIN Order o ON o.ID = oi.O_ID \
             JOIN Product p ON p.ID = oi.P_ID \
             WHERE oi.O_ID = ?",
        )
        .unwrap();
        let uses = infer_possible_indexes(&q4, &cat);
        let names: Vec<(String, Option<String>)> = uses
            .iter()
            .map(|u| (u.alias.clone(), u.index.as_ref().map(|i| i.name.clone())))
            .collect();
        assert!(names.contains(&("oi".into(), Some("idx_orderitem_o_id".into()))));
        assert!(names.contains(&("o".into(), Some("PRIMARY".into()))));
        assert!(names.contains(&("p".into(), Some("PRIMARY".into()))));
        // P_ID index of OrderItem is unreachable from sources in any
        // topological sort that starts from the parameter.
        assert!(
            !names.contains(&("oi".into(), Some("idx_orderitem_p_id".into()))),
            "P_ID index should not be usable: {names:?}"
        );
        // No alias falls back to a table scan.
        assert!(uses.iter().all(|u| u.index.is_some()));
    }

    #[test]
    fn point_update_uses_primary() {
        let cat = catalog();
        let q6 = parse("UPDATE Product SET QTY = ? WHERE ID = ?").unwrap();
        let uses = infer_possible_indexes(&q6, &cat);
        assert_eq!(uses.len(), 1);
        let u = &uses[0];
        assert_eq!(u.index.as_ref().unwrap().name, "PRIMARY");
        assert_eq!(u.preds.len(), 1);
    }

    #[test]
    fn insert_condition_reaches_primary() {
        let cat = catalog();
        let ins = parse("INSERT INTO Order (ID) VALUES (?)").unwrap();
        let uses = infer_possible_indexes(&ins, &cat);
        assert!(uses
            .iter()
            .any(|u| u.index.as_ref().is_some_and(|i| i.name == "PRIMARY")));
    }

    #[test]
    fn unindexed_filter_falls_back_to_scan() {
        let cat = catalog();
        let q = parse("SELECT * FROM Product p WHERE p.QTY > ?").unwrap();
        let uses = infer_possible_indexes(&q, &cat);
        assert_eq!(uses.len(), 1);
        assert!(uses[0].index.is_none());
    }

    #[test]
    fn no_condition_is_full_scan() {
        let cat = catalog();
        let q = parse("SELECT * FROM Product p WHERE p.ID = p.ID").unwrap();
        // Self-referential predicate gives no usable edge.
        let uses = infer_possible_indexes(&q, &cat);
        assert!(uses.iter().all(|u| u.index.is_none()));
    }

    #[test]
    fn join_without_filter_scans_driving_table() {
        let cat = catalog();
        // No WHERE: OrderItem has no source edge, so it is scanned; Order
        // then becomes reachable through its primary index.
        let q = parse("SELECT * FROM OrderItem oi JOIN Order o ON o.ID = oi.O_ID").unwrap();
        let uses = infer_possible_indexes(&q, &cat);
        assert!(
            uses.iter().any(|u| u.alias == "oi" && u.index.is_none()),
            "oi must be scanned"
        );
        assert!(
            uses.iter()
                .any(|u| u.alias == "o" && u.index.as_ref().is_some_and(|i| i.name == "PRIMARY")),
            "Order reachable via PRIMARY after scanning oi: {uses:?}"
        );
    }
}
