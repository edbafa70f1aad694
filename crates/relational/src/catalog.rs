//! The relational catalog: table and column definitions plus the statistics
//! the cost-based optimizer consumes.
//!
//! In the LegoDB pipeline the catalog is *generated* — `rel(ps)` maps each
//! named type of a physical schema to a [`TableDef`] and translates the
//! XML data statistics into [`TableStats`]/[`ColumnStats`]. The catalog can
//! also render itself as `CREATE TABLE` DDL, which is what a user would
//! feed to a real RDBMS.

use crate::types::SqlType;
use crate::{PAGE_SIZE, ROW_OVERHEAD};
use std::collections::BTreeMap;
use std::fmt;

/// Physical storage layout of one table.
///
/// The paper's search space is purely *logical* (which types become which
/// tables); `Layout` extends it with a *physical* dimension priced by the
/// same cost model. A row-store table is the classic heap: whole rows,
/// contiguous. A columnar table stores one typed vector per column plus a
/// null bitmap, so a scan that touches `k` of `n` columns reads only the
/// bytes of those `k` columns — and pays a per-row reassembly penalty on
/// random access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layout {
    /// Row heap (the default; what the paper assumes throughout).
    #[default]
    Row,
    /// One typed vector per column + null bitmap.
    Columnar,
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layout::Row => "row",
            Layout::Columnar => "columnar",
        })
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Average width in bytes of non-null values.
    pub avg_width: f64,
    /// Number of distinct values, if known.
    pub distinct: Option<f64>,
    /// Minimum value for numeric columns.
    pub min: Option<i64>,
    /// Maximum value for numeric columns.
    pub max: Option<i64>,
    /// Fraction of rows where this column is NULL (0.0–1.0).
    pub null_fraction: f64,
}

impl ColumnStats {
    /// Unknown statistics with a default width taken from the type.
    pub fn unknown(ty: SqlType) -> ColumnStats {
        ColumnStats {
            avg_width: ty.default_width(),
            distinct: None,
            min: None,
            max: None,
            null_fraction: 0.0,
        }
    }
}

/// One column of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared SQL type.
    pub ty: SqlType,
    /// May this column hold NULL? (The paper's optional types map to
    /// nullable columns.)
    pub nullable: bool,
    /// Optimizer statistics.
    pub stats: ColumnStats,
}

impl ColumnDef {
    /// A NOT NULL column with default (unknown) statistics.
    pub fn new(name: impl Into<String>, ty: SqlType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
            stats: ColumnStats::unknown(ty),
        }
    }

    /// Builder-style: mark nullable.
    pub fn nullable(mut self) -> ColumnDef {
        self.nullable = true;
        self
    }

    /// Builder-style: attach statistics.
    pub fn with_stats(mut self, stats: ColumnStats) -> ColumnDef {
        self.stats = stats;
        self
    }
}

/// A foreign-key edge: `column` of this table references `parent_table`'s
/// key. Generated from the parent-type relationships of the p-schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column in this table (e.g. `parent_Show`).
    pub column: String,
    /// Referenced table (e.g. `Show`).
    pub parent_table: String,
}

/// Table-level statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Estimated row count.
    pub rows: f64,
}

impl Default for TableStats {
    fn default() -> Self {
        TableStats { rows: 0.0 }
    }
}

/// A table definition: columns, key, foreign keys, statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Table name (the type name from the p-schema).
    pub name: String,
    /// Columns in definition order; the first is the id/key column in
    /// generated schemas.
    pub columns: Vec<ColumnDef>,
    /// Name of the key column, if any.
    pub key: Option<String>,
    /// Foreign-key edges to parent tables.
    pub foreign_keys: Vec<ForeignKey>,
    /// Table statistics.
    pub stats: TableStats,
    /// Physical storage layout (row heap vs column store).
    pub layout: Layout,
}

impl TableDef {
    /// A table with no columns yet.
    pub fn new(name: impl Into<String>) -> TableDef {
        TableDef {
            name: name.into(),
            columns: Vec::new(),
            key: None,
            foreign_keys: Vec::new(),
            stats: TableStats::default(),
            layout: Layout::Row,
        }
    }

    /// Builder-style: set the physical layout.
    pub fn with_layout(mut self, layout: Layout) -> TableDef {
        self.layout = layout;
        self
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Average row width in bytes (column widths + row overhead), the
    /// quantity both the executor and the cost model use for page math.
    pub fn row_width(&self) -> f64 {
        ROW_OVERHEAD
            + self
                .columns
                .iter()
                .map(|c| c.stats.avg_width * (1.0 - c.stats.null_fraction) + c.stats.null_fraction)
                .sum::<f64>()
    }

    /// Number of pages the table occupies.
    pub fn pages(&self) -> f64 {
        (self.stats.rows * self.row_width() / PAGE_SIZE).max(1.0)
    }

    /// Effective stored width in bytes of column `i`: non-null values at
    /// their average width, nulls at one bitmap-adjacent byte. This is the
    /// per-column share of [`TableDef::row_width`] minus the row overhead,
    /// which a column store pays per *referenced* column instead of per
    /// row.
    pub fn column_width(&self, i: usize) -> f64 {
        self.columns.get(i).map_or(0.0, |c| {
            c.stats.avg_width * (1.0 - c.stats.null_fraction) + c.stats.null_fraction
        })
    }

    /// Pages a columnar scan reads when it touches only `cols` (all
    /// columns when `None`). Column vectors are densely packed, so there
    /// is no per-row overhead — the whole point of the layout.
    pub fn columnar_scan_pages(&self, cols: Option<&[usize]>) -> f64 {
        let width: f64 = match cols {
            Some(cols) => cols.iter().map(|&i| self.column_width(i)).sum(),
            None => (0..self.columns.len()).map(|i| self.column_width(i)).sum(),
        };
        (self.stats.rows * width / PAGE_SIZE).max(1.0)
    }

    /// Render as a `CREATE TABLE` statement.
    pub fn to_ddl(&self) -> String {
        let mut lines = Vec::new();
        for c in &self.columns {
            let mut line = format!("  {} {}", c.name, c.ty);
            if !c.nullable {
                line.push_str(" NOT NULL");
            }
            if self.key.as_deref() == Some(&c.name) {
                line.push_str(" PRIMARY KEY");
            }
            lines.push(line);
        }
        for fk in &self.foreign_keys {
            lines.push(format!(
                "  FOREIGN KEY ({}) REFERENCES {}",
                fk.column, fk.parent_table
            ));
        }
        format!("CREATE TABLE {} (\n{}\n);", self.name, lines.join(",\n"))
    }
}

/// The catalog: a named set of table definitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    tables: BTreeMap<String, TableDef>,
    order: Vec<String>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Add a table (replaces any table of the same name).
    pub fn add(&mut self, table: TableDef) {
        if !self.tables.contains_key(&table.name) {
            self.order.push(table.name.clone());
        }
        self.tables.insert(table.name.clone(), table);
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(name)
    }

    /// Tables in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &TableDef> {
        self.order.iter().filter_map(move |n| self.tables.get(n))
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Full DDL script for the catalog.
    pub fn to_ddl(&self) -> String {
        let mut out = String::new();
        for t in self.iter() {
            out.push_str(&t.to_ddl());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ddl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn show_table() -> TableDef {
        let mut t = TableDef::new("Show");
        t.columns = vec![
            ColumnDef::new("Show_id", SqlType::Int),
            ColumnDef::new("type", SqlType::Char(8)),
            ColumnDef::new("title", SqlType::Char(50)),
            ColumnDef::new("year", SqlType::Int).nullable(),
        ];
        t.key = Some("Show_id".into());
        t.stats.rows = 34798.0;
        t
    }

    #[test]
    fn column_lookup() {
        let t = show_table();
        assert_eq!(t.column_index("title"), Some(2));
        assert_eq!(t.column_index("missing"), None);
        assert!(t.column("year").unwrap().nullable);
    }

    #[test]
    fn row_width_sums_columns_plus_overhead() {
        let t = show_table();
        // 8 + 8 + 50 + 8 + overhead 16 = 90
        assert!((t.row_width() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn page_count_scales_with_rows() {
        let t = show_table();
        let pages = t.pages();
        assert!((pages - (34798.0 * 90.0 / 8192.0)).abs() < 1.0);
        let empty = TableDef::new("E");
        assert_eq!(empty.pages(), 1.0); // at least one page
    }

    #[test]
    fn ddl_contains_keys_and_fks() {
        let mut t = show_table();
        t.foreign_keys.push(ForeignKey {
            column: "parent_IMDB".into(),
            parent_table: "IMDB".into(),
        });
        let ddl = t.to_ddl();
        assert!(ddl.contains("CREATE TABLE Show"));
        assert!(ddl.contains("Show_id INT NOT NULL PRIMARY KEY"));
        assert!(ddl.contains("year INT,"));
        assert!(ddl.contains("FOREIGN KEY (parent_IMDB) REFERENCES IMDB"));
    }

    #[test]
    fn catalog_preserves_insertion_order() {
        let mut c = Catalog::new();
        c.add(show_table());
        c.add(TableDef::new("Aka"));
        let names: Vec<&str> = c.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["Show", "Aka"]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn adding_same_table_replaces() {
        let mut c = Catalog::new();
        c.add(show_table());
        let mut t2 = show_table();
        t2.stats.rows = 1.0;
        c.add(t2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.table("Show").unwrap().stats.rows, 1.0);
    }

    #[test]
    fn columnar_scan_pages_charges_only_referenced_columns() {
        let t = show_table();
        // title alone: 34798 rows * 50 bytes, no row overhead.
        let title_only = t.columnar_scan_pages(Some(&[2]));
        assert!((title_only - 34798.0 * 50.0 / 8192.0).abs() < 1e-6);
        // All columns (74 bytes) still beat the row heap (90 with overhead).
        let all = t.columnar_scan_pages(None);
        assert!(all < t.pages());
        assert!((all - 34798.0 * 74.0 / 8192.0).abs() < 1e-6);
        assert_eq!(TableDef::new("T").layout, Layout::Row);
        assert_eq!(
            TableDef::new("T").with_layout(Layout::Columnar).layout,
            Layout::Columnar
        );
    }

    #[test]
    fn null_fraction_discounts_width() {
        let mut t = TableDef::new("T");
        let mut stats = ColumnStats::unknown(SqlType::Char(100));
        stats.null_fraction = 0.5;
        t.columns.push(
            ColumnDef::new("c", SqlType::Char(100))
                .nullable()
                .with_stats(stats),
        );
        // 16 overhead + 0.5*100 + 0.5*1 = 66.5
        assert!((t.row_width() - 66.5).abs() < 1e-9);
    }
}
