//! Database schema model: tables, columns, and indexes.
//!
//! WeSEER's fine-grained lock modeling (paper Sec. V-C) reasons about which
//! *database indexes* a statement can traverse, so the catalog records primary
//! and secondary indexes explicitly. The storage engine (`weseer-db`) builds
//! its physical B-trees from the same definitions, keeping the analyzer's
//! model and the executable substrate in sync.

use crate::error::SqlError;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Column data types in the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    /// 64-bit integer.
    Int,
    /// Double-precision float (models `DECIMAL`).
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl ColType {
    /// Whether `v` inhabits this column type (NULL inhabits every type).
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColType::Int, Value::Int(_))
                | (ColType::Float, Value::Float(_))
                | (ColType::Float, Value::Int(_))
                | (ColType::Str, Value::Str(_))
                | (ColType::Bool, Value::Bool(_))
        )
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColType::Int => "INT",
            ColType::Float => "FLOAT",
            ColType::Str => "VARCHAR",
            ColType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-sensitive in this IR).
    pub name: String,
    /// Data type.
    pub ty: ColType,
}

/// Whether an index is the clustered primary index or a secondary index.
///
/// Matches the paper's `index(table, type, columns)` terminology where
/// `type` is `pri` or `sec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Clustered primary index; always unique.
    Primary,
    /// Secondary index over the primary index.
    Secondary,
}

/// An index definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within its table.
    pub name: String,
    /// Owning table.
    pub table: String,
    /// Primary or secondary.
    pub kind: IndexKind,
    /// Whether the key is unique.
    pub unique: bool,
    /// Indexed column names, in key order.
    pub columns: Vec<String>,
}

impl IndexDef {
    /// Whether this is the primary index.
    pub fn is_primary(&self) -> bool {
        self.kind == IndexKind::Primary
    }

    /// Whether this is a secondary index.
    pub fn is_secondary(&self) -> bool {
        self.kind == IndexKind::Secondary
    }
}

/// A foreign-key edge; used by the simulated applications' schemas and the
/// ORM relation mapping (not enforced by the storage engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column in the owning table.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column (its primary key in practice).
    pub ref_column: String,
}

/// A table definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Primary-key column names.
    pub primary_key: Vec<String>,
    /// All indexes, primary first.
    pub indexes: Vec<IndexDef>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableDef {
    /// Position of `column` in the row layout.
    pub fn col_pos(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == column)
    }

    /// The column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// The primary index (always present after catalog validation).
    pub fn primary_index(&self) -> &IndexDef {
        self.indexes
            .iter()
            .find(|i| i.is_primary())
            .expect("validated table has a primary index")
    }

    /// All secondary indexes.
    pub fn secondary_indexes(&self) -> impl Iterator<Item = &IndexDef> {
        self.indexes.iter().filter(|i| i.is_secondary())
    }

    /// The index with the given name.
    pub fn index(&self, name: &str) -> Option<&IndexDef> {
        self.indexes.iter().find(|i| i.name == name)
    }

    /// Indexes whose *leading* column set is covered by `columns`
    /// (a B-tree index is usable when a prefix of its key is constrained).
    pub fn indexes_usable_with(&self, columns: &[&str]) -> Vec<&IndexDef> {
        self.indexes
            .iter()
            .filter(|idx| {
                idx.columns
                    .first()
                    .is_some_and(|lead| columns.contains(&lead.as_str()))
            })
            .collect()
    }
}

/// Builder for a [`TableDef`].
#[derive(Debug)]
pub struct TableBuilder {
    def: TableDef,
}

impl TableBuilder {
    /// Start building a table named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder {
            def: TableDef {
                name: name.into(),
                columns: Vec::new(),
                primary_key: Vec::new(),
                indexes: Vec::new(),
                foreign_keys: Vec::new(),
            },
        }
    }

    /// Add a column.
    pub fn col(mut self, name: impl Into<String>, ty: ColType) -> Self {
        self.def.columns.push(ColumnDef {
            name: name.into(),
            ty,
        });
        self
    }

    /// Declare the primary key.
    pub fn primary_key(mut self, cols: &[&str]) -> Self {
        self.def.primary_key = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Add a (non-unique) secondary index.
    pub fn index(mut self, name: impl Into<String>, cols: &[&str]) -> Self {
        self.push_index(name.into(), cols, false);
        self
    }

    /// Add a unique secondary index.
    pub fn unique_index(mut self, name: impl Into<String>, cols: &[&str]) -> Self {
        self.push_index(name.into(), cols, true);
        self
    }

    /// Add a foreign key plus the customary secondary index on the
    /// referencing column (mirroring Hibernate's DDL generation).
    pub fn foreign_key(
        mut self,
        column: impl Into<String>,
        ref_table: impl Into<String>,
        ref_column: impl Into<String>,
    ) -> Self {
        let column = column.into();
        let idx_name = format!(
            "idx_{}_{}",
            self.def.name.to_lowercase(),
            column.to_lowercase()
        );
        self.push_index(idx_name, &[column.as_str()], false);
        self.def.foreign_keys.push(ForeignKey {
            column,
            ref_table: ref_table.into(),
            ref_column: ref_column.into(),
        });
        self
    }

    fn push_index(&mut self, name: String, cols: &[&str], unique: bool) {
        self.def.indexes.push(IndexDef {
            name,
            table: self.def.name.clone(),
            kind: IndexKind::Secondary,
            unique,
            columns: cols.iter().map(|s| s.to_string()).collect(),
        });
    }

    /// Validate and finish the table definition.
    pub fn build(mut self) -> Result<TableDef, SqlError> {
        let t = &mut self.def;
        if t.primary_key.is_empty() {
            return Err(SqlError::Schema(format!(
                "table {} has no primary key",
                t.name
            )));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &t.columns {
            if !seen.insert(c.name.clone()) {
                return Err(SqlError::Schema(format!(
                    "duplicate column {} in table {}",
                    c.name, t.name
                )));
            }
        }
        for pk in &t.primary_key {
            if t.col_pos(pk).is_none() {
                return Err(SqlError::Schema(format!(
                    "primary key column {pk} missing from table {}",
                    t.name
                )));
            }
        }
        for idx in &t.indexes {
            for c in &idx.columns {
                if t.col_pos(c).is_none() {
                    return Err(SqlError::Schema(format!(
                        "index {} references missing column {c}",
                        idx.name
                    )));
                }
            }
        }
        // The clustered primary index goes first.
        let primary = IndexDef {
            name: "PRIMARY".to_string(),
            table: t.name.clone(),
            kind: IndexKind::Primary,
            unique: true,
            columns: t.primary_key.clone(),
        };
        t.indexes.insert(0, primary);
        Ok(self.def)
    }
}

/// A set of table definitions.
///
/// Cheap to clone (`Arc` inside) so every layer can hold the catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Arc<BTreeMap<String, Arc<TableDef>>>,
}

impl Catalog {
    /// Build a catalog from finished table definitions.
    pub fn new(tables: Vec<TableDef>) -> Result<Self, SqlError> {
        let mut map = BTreeMap::new();
        for t in tables {
            if map.insert(t.name.clone(), Arc::new(t)).is_some() {
                return Err(SqlError::Schema("duplicate table".to_string()));
            }
        }
        Ok(Catalog {
            tables: Arc::new(map),
        })
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Arc<TableDef>> {
        self.tables.get(name)
    }

    /// Look up a table or error.
    pub fn require(&self, name: &str) -> Result<&Arc<TableDef>, SqlError> {
        self.table(name)
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Iterate all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableDef>> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_item() -> TableDef {
        TableBuilder::new("OrderItem")
            .col("ID", ColType::Int)
            .col("O_ID", ColType::Int)
            .col("P_ID", ColType::Int)
            .col("QTY", ColType::Int)
            .primary_key(&["ID"])
            .foreign_key("O_ID", "Order", "ID")
            .foreign_key("P_ID", "Product", "ID")
            .build()
            .unwrap()
    }

    #[test]
    fn primary_index_synthesized_first() {
        let t = order_item();
        assert_eq!(t.indexes[0].name, "PRIMARY");
        assert!(t.indexes[0].unique);
        assert_eq!(t.primary_index().columns, vec!["ID"]);
        assert_eq!(t.secondary_indexes().count(), 2);
    }

    #[test]
    fn foreign_key_gets_secondary_index() {
        let t = order_item();
        let idx = t.index("idx_orderitem_o_id").unwrap();
        assert_eq!(idx.columns, vec!["O_ID"]);
        assert!(idx.is_secondary());
        assert!(!idx.unique);
    }

    #[test]
    fn usable_indexes_by_leading_column() {
        let t = order_item();
        let usable = t.indexes_usable_with(&["O_ID"]);
        assert_eq!(usable.len(), 1);
        assert_eq!(usable[0].name, "idx_orderitem_o_id");
        let usable = t.indexes_usable_with(&["ID", "P_ID"]);
        assert_eq!(usable.len(), 2); // PRIMARY + idx_orderitem_p_id
    }

    #[test]
    fn missing_pk_rejected() {
        let err = TableBuilder::new("T")
            .col("A", ColType::Int)
            .build()
            .unwrap_err();
        assert!(matches!(err, SqlError::Schema(_)));
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = TableBuilder::new("T")
            .col("A", ColType::Int)
            .col("A", ColType::Int)
            .primary_key(&["A"])
            .build()
            .unwrap_err();
        assert!(matches!(err, SqlError::Schema(_)));
    }

    #[test]
    fn pk_column_must_exist() {
        let err = TableBuilder::new("T")
            .col("A", ColType::Int)
            .primary_key(&["B"])
            .build()
            .unwrap_err();
        assert!(matches!(err, SqlError::Schema(_)));
    }

    #[test]
    fn catalog_lookup() {
        let cat = Catalog::new(vec![order_item()]).unwrap();
        assert!(cat.table("OrderItem").is_some());
        assert!(cat.table("Nope").is_none());
        assert!(cat.require("Nope").is_err());
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn coltype_admits() {
        assert!(ColType::Int.admits(&Value::Int(1)));
        assert!(ColType::Float.admits(&Value::Int(1)));
        assert!(ColType::Int.admits(&Value::Null));
        assert!(!ColType::Int.admits(&Value::str("x")));
    }
}
