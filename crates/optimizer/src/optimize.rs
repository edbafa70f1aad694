//! Plan enumeration: access-path selection, System-R style dynamic
//! programming over join orders, join-method selection, and final costing.

use crate::cost::{Cost, CostModel};
use crate::estimate::{filter_selectivity, filtered_cardinality, join_selectivity, output_width};
use crate::query::{ColRef, FilterPred, SpjQuery, Statement};
use legodb_relational::plan::IndexKey;
use legodb_relational::{Catalog, CmpOp, Expr, Layout, PhysicalPlan, TableDef, PAGE_SIZE};
use std::collections::HashMap;
use std::fmt;

/// Which columns the optimizer may assume carry indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexAssumption {
    /// No indexes: every access is a scan.
    None,
    /// Indexes on key columns and foreign-key columns (the indexes the
    /// LegoDB mapping would create by default). This is the paper's
    /// setting: selections on data columns are scans, parent/child
    /// navigation is indexed.
    #[default]
    KeysAndForeignKeys,
    /// Additionally assume an index on any filtered column (an AutoAdmin
    /// "what-if" style assumption).
    AllFiltered,
}

/// Optimizer knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizerConfig {
    /// Index availability assumption.
    pub indexes: IndexAssumption,
    /// Cost constants.
    pub cost_model: CostModel,
}

/// Optimizer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizerError {
    /// Query references a table missing from the catalog.
    UnknownTable(String),
    /// Query references a column missing from its table.
    UnknownColumn { table: String, column: String },
    /// Query has no tables.
    NoTables,
}

impl fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizerError::UnknownTable(t) => write!(f, "unknown table {t}"),
            OptimizerError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            OptimizerError::NoTables => write!(f, "query has no tables"),
        }
    }
}

impl std::error::Error for OptimizerError {}

/// The optimizer's product: an executable plan plus its estimates.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The physical plan (executable by `legodb_relational::exec::run`).
    pub plan: PhysicalPlan,
    /// Component cost breakdown.
    pub cost: Cost,
    /// Estimated output rows.
    pub rows: f64,
    /// Scalar total under the configured cost model.
    pub total: f64,
}

/// Intermediate DP entry: a plan covering a set of tables.
#[derive(Debug, Clone)]
struct SubPlan {
    plan: PhysicalPlan,
    cost: Cost,
    card: f64,
    /// Table indexes (into `query.tables`) in output-row order.
    layout: Vec<usize>,
}

/// Optimize one SPJ block.
pub fn optimize(
    catalog: &Catalog,
    query: &SpjQuery,
    config: &OptimizerConfig,
) -> Result<OptimizedPlan, OptimizerError> {
    validate(catalog, query)?;
    let n = query.tables.len();
    if n == 0 {
        return Err(OptimizerError::NoTables);
    }

    // Best single-table access paths.
    let mut best: HashMap<u64, SubPlan> = HashMap::new();
    for i in 0..n {
        best.insert(1 << i, access_path(catalog, query, i, config));
    }

    // Beyond the DP budget (2^n subsets), fall back to a greedy join
    // order: repeatedly absorb the table that joins cheapest.
    const DP_TABLE_LIMIT: usize = 10;
    if n > DP_TABLE_LIMIT {
        let root = greedy_join_order(catalog, query, &best, config);
        return finish(catalog, query, root, config);
    }

    // System-R DP over every subset and every split of it. A split whose
    // halves share no join edge is still priced: `join_subplans` returns a
    // nested-loop cross product for it, whether or not the query is
    // connected. ROADMAP item 1 (the join DP) is the change that will
    // alter this.
    let full: u64 = if n == 64 { u64::MAX } else { (1 << n) - 1 };
    for size in 2..=n {
        for subset in subsets_of_size(n, size) {
            let mut candidate: Option<SubPlan> = None;
            // Split into (s1, s2): iterate proper non-empty sub-subsets.
            let mut s1 = (subset - 1) & subset;
            while s1 != 0 {
                let s2 = subset & !s1;
                if s1 < s2 {
                    // Each unordered split visited once; try both probe orders.
                    if let (Some(l), Some(r)) = (best.get(&s1), best.get(&s2)) {
                        for (a, b) in [(l, r), (r, l)] {
                            if let Some(joined) = join_subplans(catalog, query, a, b, config) {
                                if replace_if_cheaper(&mut candidate, joined, &config.cost_model) {}
                            }
                        }
                    }
                }
                s1 = (s1 - 1) & subset;
            }
            if let Some(c) = candidate {
                best.insert(subset, c);
            }
        }
    }

    let root = best
        .remove(&full)
        // lint: allow(no-unwrap-in-lib) — the DP table always covers the full join set — cross products keep it reachable
        .expect("DP covers the full set (cross products allowed)");
    finish(catalog, query, root, config)
}

/// Optimize a [`Statement`]: a plain select, or a `UNION ALL` whose cost is
/// the sum of its blocks (each block is optimized independently, as a real
/// engine would).
pub fn optimize_statement(
    catalog: &Catalog,
    statement: &Statement,
    config: &OptimizerConfig,
) -> Result<OptimizedPlan, OptimizerError> {
    match statement {
        Statement::Select(q) => optimize(catalog, q, config),
        Statement::UnionAll(blocks) => {
            let mut plans = Vec::new();
            let mut cost = Cost::ZERO;
            let mut rows = 0.0;
            for block in blocks {
                let opt = optimize(catalog, block, config)?;
                cost = cost + opt.cost;
                rows += opt.rows;
                plans.push(opt.plan);
            }
            let total = config.cost_model.total(&cost);
            Ok(OptimizedPlan {
                plan: PhysicalPlan::Union { inputs: plans },
                cost,
                rows,
                total,
            })
        }
    }
}

fn validate(catalog: &Catalog, query: &SpjQuery) -> Result<(), OptimizerError> {
    for t in &query.tables {
        if catalog.table(&t.table).is_none() {
            return Err(OptimizerError::UnknownTable(t.table.clone()));
        }
    }
    let check_col = |col: &ColRef| -> Result<(), OptimizerError> {
        let table = &query.tables[col.table];
        let def = catalog
            .table(&table.table)
            .ok_or_else(|| OptimizerError::UnknownTable(table.table.clone()))?;
        if def.column(&col.column).is_none() {
            return Err(OptimizerError::UnknownColumn {
                table: table.table.clone(),
                column: col.column.clone(),
            });
        }
        Ok(())
    };
    for f in &query.filters {
        check_col(f.col())?;
    }
    for j in &query.joins {
        check_col(&j.left)?;
        check_col(&j.right)?;
    }
    for p in &query.projection {
        check_col(p)?;
    }
    Ok(())
}

/// Iterate all bitmask subsets of `{0..n}` with exactly `size` bits.
fn subsets_of_size(n: usize, size: usize) -> Vec<u64> {
    let mut out = Vec::new();
    let full: u64 = if n == 64 { u64::MAX } else { (1 << n) - 1 };
    let mut s: u64 = (1 << size) - 1;
    while s <= full {
        out.push(s);
        // Gosper's hack: next subset with the same popcount.
        let c = s & s.wrapping_neg();
        let r = s + c;
        if r == 0 {
            break;
        }
        s = (((r ^ s) >> 2) / c) | r;
    }
    out
}

fn replace_if_cheaper(slot: &mut Option<SubPlan>, candidate: SubPlan, model: &CostModel) -> bool {
    let better = match slot {
        None => true,
        Some(current) => model.total(&candidate.cost) < model.total(&current.cost),
    };
    if better {
        *slot = Some(candidate);
    }
    better
}

/// Does `column` of `table` carry an index under the configured assumption?
/// `is_join_column` marks columns used as join keys (keys and FKs in
/// LegoDB-generated schemas always are).
fn has_index(def: &TableDef, column: &str, config: &OptimizerConfig, filtered: bool) -> bool {
    match config.indexes {
        IndexAssumption::None => false,
        IndexAssumption::KeysAndForeignKeys => {
            def.key.as_deref() == Some(column)
                || def.foreign_keys.iter().any(|fk| fk.column == column)
        }
        IndexAssumption::AllFiltered => {
            def.key.as_deref() == Some(column)
                || def.foreign_keys.iter().any(|fk| fk.column == column)
                || filtered
        }
    }
}

/// Build the executor predicate for a set of filters over one table's rows.
fn filters_to_expr(def: &TableDef, filters: &[&FilterPred], offset: usize) -> Option<Expr> {
    let mut parts = Vec::new();
    for f in filters {
        let ci = def.column_index(&f.col().column)? + offset;
        match f {
            FilterPred::Cmp { op, value, .. } => {
                parts.push(Expr::cmp(*op, ci, value.clone()));
            }
            FilterPred::Between { range, .. } => {
                if let Some(lo) = &range.lo {
                    parts.push(Expr::cmp(CmpOp::Ge, ci, lo.clone()));
                }
                if let Some(hi) = &range.hi {
                    parts.push(Expr::cmp(CmpOp::Le, ci, hi.clone()));
                }
            }
        }
    }
    match parts.len() {
        0 => None,
        1 => parts.pop(),
        _ => Some(Expr::And(parts)),
    }
}

/// Column positions of table `i` referenced anywhere in the query —
/// filters, join edges, and the projection. An empty projection means the
/// query delivers every column (`SELECT *`), so all columns count.
fn referenced_columns(def: &TableDef, query: &SpjQuery, i: usize) -> Vec<usize> {
    if query.projection.is_empty() {
        return (0..def.columns.len()).collect();
    }
    let mut cols = Vec::new();
    let mut add = |col: &ColRef| {
        if col.table == i {
            if let Some(ci) = def.column_index(&col.column) {
                cols.push(ci);
            }
        }
    };
    for f in &query.filters {
        add(f.col());
    }
    for j in &query.joins {
        add(&j.left);
        add(&j.right);
    }
    for p in &query.projection {
        add(p);
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Per-row multiplier for random (index-driven) access. Reassembling one
/// row from a columnar table touches every column vector — one seek and
/// one page apiece — where the row heap pays a single page per row. This
/// is the penalty that keeps point-lookup tables on the row layout.
fn random_access_factor(def: &TableDef) -> f64 {
    match def.layout {
        Layout::Row => 1.0,
        Layout::Columnar => def.columns.len().max(1) as f64,
    }
}

/// Best access path for one table: sequential scan vs. index scan on the
/// most selective indexed equality/range filter.
fn access_path(catalog: &Catalog, query: &SpjQuery, i: usize, config: &OptimizerConfig) -> SubPlan {
    // lint: allow(no-unwrap-in-lib) — table names validated against the catalog before planning
    let def = catalog.table(&query.tables[i].table).expect("validated");
    let filters: Vec<&FilterPred> = query
        .filters
        .iter()
        .filter(|f| f.col().table == i)
        .collect();
    let card = filtered_cardinality(catalog, query, i);
    let rows = def.stats.rows.max(0.0);

    // Sequential scan. A columnar table is charged only for the column
    // vectors the query references; the row heap always reads full pages.
    let seq_pages = match def.layout {
        Layout::Row => def.pages(),
        Layout::Columnar => def.columnar_scan_pages(Some(&referenced_columns(def, query, i))),
    };
    let seq_cost = Cost::seq_read(seq_pages) + Cost::cpu(rows);
    let seq_plan = PhysicalPlan::SeqScan {
        table: def.name.clone(),
        predicate: filters_to_expr(def, &filters, 0),
        projection: None,
    };
    let mut best = SubPlan {
        plan: seq_plan,
        cost: seq_cost,
        card,
        layout: vec![i],
    };

    // Index scans: one candidate per indexed filter; the others become
    // residuals.
    for (fi, filter) in filters.iter().enumerate() {
        if !has_index(def, &filter.col().column, config, true) {
            continue;
        }
        let key = match filter {
            FilterPred::Cmp {
                op: CmpOp::Eq,
                value,
                ..
            } => IndexKey::Eq(value.clone()),
            FilterPred::Between { range, .. } => IndexKey::Range {
                lo: range.lo.clone(),
                hi: range.hi.clone(),
            },
            _ => continue, // open comparisons: skip (scan handles them)
        };
        let sel = filter_selectivity(catalog, query, filter);
        let matches = rows * sel;
        // 1 seek + ~2 index pages + one random page per match (unclustered);
        // columnar rows pay the reassembly factor per match.
        let fetch = matches * random_access_factor(def);
        let cost = Cost {
            seeks: 1.0 + fetch,
            pages_read: 2.0 + fetch,
            ..Cost::ZERO
        } + Cost::cpu(matches);
        let residual: Vec<&FilterPred> = filters
            .iter()
            .enumerate()
            .filter(|&(gi, _)| gi != fi)
            .map(|(_, f)| *f)
            .collect();
        let plan = PhysicalPlan::IndexScan {
            table: def.name.clone(),
            column: filter.col().column.clone(),
            key,
            residual: filters_to_expr(def, &residual, 0),
            projection: None,
        };
        let candidate = SubPlan {
            plan,
            cost,
            card,
            layout: vec![i],
        };
        if config.cost_model.total(&candidate.cost) < config.cost_model.total(&best.cost) {
            best = candidate;
        }
    }

    best
}

/// Position of `col` within the concatenated output row of a plan whose
/// tables appear in `layout` order.
fn col_position(
    catalog: &Catalog,
    query: &SpjQuery,
    layout: &[usize],
    col: &ColRef,
) -> Option<usize> {
    let mut offset = 0;
    for &t in layout {
        let def = catalog.table(&query.tables[t].table)?;
        if t == col.table {
            return Some(offset + def.column_index(&col.column)?);
        }
        offset += def.columns.len();
    }
    None
}

/// Join two subplans if beneficial; returns `None` only when plans overlap.
fn join_subplans(
    catalog: &Catalog,
    query: &SpjQuery,
    left: &SubPlan,
    right: &SubPlan,
    config: &OptimizerConfig,
) -> Option<SubPlan> {
    // Edges connecting the two sides.
    let in_left = |t: usize| left.layout.contains(&t);
    let in_right = |t: usize| right.layout.contains(&t);
    let mut edges = Vec::new();
    for j in &query.joins {
        if in_left(j.left.table) && in_right(j.right.table) {
            edges.push((j.left.clone(), j.right.clone()));
        } else if in_left(j.right.table) && in_right(j.left.table) {
            edges.push((j.right.clone(), j.left.clone()));
        }
    }

    let mut layout = left.layout.clone();
    layout.extend(&right.layout);

    // Join cardinality: product × each edge's selectivity.
    let mut card = left.card * right.card;
    for (l, r) in &edges {
        card *= join_selectivity(catalog, query, l, r);
    }
    let card = card.max(0.0);

    let mut candidate: Option<SubPlan> = None;

    if edges.is_empty() {
        // Cross product via nested loops (needed for disconnected queries).
        let cost = left.cost + right.cost + Cost::cpu(left.card * right.card);
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(left.plan.clone()),
            right: Box::new(right.plan.clone()),
            predicate: None,
        };
        return Some(SubPlan {
            plan,
            cost,
            card,
            layout,
        });
    }

    // Hash join: build on the right, probe with the left.
    {
        let left_keys: Option<Vec<usize>> = edges
            .iter()
            .map(|(l, _)| col_position(catalog, query, &left.layout, l))
            .collect();
        let right_keys: Option<Vec<usize>> = edges
            .iter()
            .map(|(_, r)| col_position(catalog, query, &right.layout, r))
            .collect();
        if let (Some(lk), Some(rk)) = (left_keys, right_keys) {
            let cost = left.cost
                + right.cost
                + Cost::cpu(left.card + right.card + card)
                // Spill factor: building a hash table over a large input
                // writes and re-reads it once (Grace-style partitioning).
                + hash_spill_cost(catalog, query, right, config);
            let plan = PhysicalPlan::HashJoin {
                left: Box::new(left.plan.clone()),
                right: Box::new(right.plan.clone()),
                left_keys: lk,
                right_keys: rk,
            };
            replace_if_cheaper(
                &mut candidate,
                SubPlan {
                    plan,
                    cost,
                    card,
                    layout: layout.clone(),
                },
                &config.cost_model,
            );
        }
    }

    // Index nested-loop join: right side must be a single base table with
    // an index on the join column; remaining edges/filters become residuals.
    if right.layout.len() == 1 {
        let rt = right.layout[0];
        // lint: allow(no-unwrap-in-lib) — table names validated against the catalog before planning
        let def = catalog.table(&query.tables[rt].table).expect("validated");
        if let Some((probe_l, probe_r)) = edges
            .iter()
            .find(|(_, r)| has_index(def, &r.column, config, false))
        {
            let left_key = col_position(catalog, query, &left.layout, probe_l)?;
            // Residual: remaining edges + right-table filters, evaluated on
            // the concatenated row.
            let left_width: usize = left
                .layout
                .iter()
                .map(|&t| {
                    catalog
                        .table(&query.tables[t].table)
                        .map_or(0, |d| d.columns.len())
                })
                .sum();
            let mut residual_parts = Vec::new();
            for (l, r) in &edges {
                if l == probe_l && r == probe_r {
                    continue;
                }
                let lp = col_position(catalog, query, &left.layout, l)?;
                let rp = def.column_index(&r.column)? + left_width;
                residual_parts.push(Expr::col_eq_col(lp, rp));
            }
            let right_filters: Vec<&FilterPred> = query
                .filters
                .iter()
                .filter(|f| f.col().table == rt)
                .collect();
            if let Some(e) = filters_to_expr(def, &right_filters, left_width) {
                residual_parts.push(e);
            }
            let residual = match residual_parts.len() {
                0 => None,
                1 => residual_parts.pop(),
                _ => Some(Expr::And(residual_parts)),
            };
            // Matches per probe: filtered right rows × edge selectivity.
            let sel = join_selectivity(catalog, query, probe_l, probe_r);
            let right_card_filtered = filtered_cardinality(catalog, query, rt);
            let per_probe = (right_card_filtered * sel).max(0.0);
            let probes = left.card.max(0.0);
            let fetch = per_probe * random_access_factor(def);
            let per_probe_cost = Cost {
                seeks: 1.0 + fetch,
                pages_read: 2.0 + fetch,
                ..Cost::ZERO
            } + Cost::cpu(per_probe);
            let cost = left.cost + per_probe_cost.scale(probes);
            let plan = PhysicalPlan::IndexJoin {
                left: Box::new(left.plan.clone()),
                table: def.name.clone(),
                column: probe_r.column.clone(),
                left_key,
                residual,
            };
            replace_if_cheaper(
                &mut candidate,
                SubPlan {
                    plan,
                    cost,
                    card,
                    layout: layout.clone(),
                },
                &config.cost_model,
            );
        }
    }

    candidate
}

/// Greedy join ordering for wide queries: start from the smallest filtered
/// table, repeatedly join the (preferably connected) table whose addition
/// costs least.
fn greedy_join_order(
    catalog: &Catalog,
    query: &SpjQuery,
    access: &HashMap<u64, SubPlan>,
    config: &OptimizerConfig,
) -> SubPlan {
    let n = query.tables.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    // Seed with the smallest filtered cardinality.
    let seed = remaining
        .iter()
        .copied()
        .min_by(|&a, &b| {
            let ca = access[&(1u64 << a)].card;
            let cb = access[&(1u64 << b)].card;
            // total_cmp: a NaN cardinality (corrupt stats) must order
            // last, not panic the join-ordering pass.
            ca.total_cmp(&cb)
        })
        // lint: allow(no-unwrap-in-lib) — min over the block's tables, non-empty by construction
        .expect("n >= 1");
    remaining.retain(|&i| i != seed);
    let mut current = access[&(1u64 << seed)].clone();
    while !remaining.is_empty() {
        let mut best: Option<(usize, SubPlan)> = None;
        for &i in &remaining {
            let right = &access[&(1u64 << i)];
            let Some(joined) = join_subplans(catalog, query, &current, right, config) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((_, b)) => {
                    config.cost_model.total(&joined.cost) < config.cost_model.total(&b.cost)
                }
            };
            if better {
                best = Some((i, joined));
            }
        }
        // lint: allow(no-unwrap-in-lib) — cross products keep the join graph connected, so a best pair always exists
        let (picked, joined) = best.expect("cross products keep the graph joinable");
        remaining.retain(|&i| i != picked);
        current = joined;
    }
    current
}

/// A hash build over inputs larger than memory pays one extra write+read
/// pass (simplified Grace hash accounting). Memory budget: 1024 pages.
fn hash_spill_cost(
    catalog: &Catalog,
    query: &SpjQuery,
    side: &SubPlan,
    _config: &OptimizerConfig,
) -> Cost {
    const MEMORY_PAGES: f64 = 1024.0;
    let width: f64 = side
        .layout
        .iter()
        .filter_map(|&t| catalog.table(&query.tables[t].table))
        .map(|d| d.row_width())
        .sum();
    let pages = side.card * width / PAGE_SIZE;
    if pages > MEMORY_PAGES {
        Cost {
            pages_read: pages,
            pages_written: pages,
            ..Cost::ZERO
        }
    } else {
        Cost::ZERO
    }
}

/// Apply the final projection and the result-delivery cost.
fn finish(
    catalog: &Catalog,
    query: &SpjQuery,
    root: SubPlan,
    config: &OptimizerConfig,
) -> Result<OptimizedPlan, OptimizerError> {
    let mut plan = root.plan;
    if !query.projection.is_empty() {
        let columns: Option<Vec<usize>> = query
            .projection
            .iter()
            .map(|c| col_position(catalog, query, &root.layout, c))
            .collect();
        let columns = columns.ok_or(OptimizerError::NoTables)?;
        // Projection pushdown: a single-table scan over a columnar table
        // applies the projection inside the scan, so only the projected
        // column vectors are ever materialized (no Project node).
        plan = match plan {
            PhysicalPlan::SeqScan {
                table,
                predicate,
                projection: None,
            } if root.layout.len() == 1
                && catalog
                    .table(&table)
                    .is_some_and(|d| d.layout == Layout::Columnar) =>
            {
                PhysicalPlan::SeqScan {
                    table,
                    predicate,
                    projection: Some(columns),
                }
            }
            other => PhysicalPlan::Project {
                input: Box::new(other),
                columns,
            },
        };
    }
    // Result delivery: writing the output (paper: "amount of data written").
    let width = output_width(catalog, query);
    let out_pages = (root.card * width / PAGE_SIZE).max(0.0);
    let cost = root.cost
        + Cost {
            pages_written: out_pages,
            ..Cost::ZERO
        }
        + Cost::cpu(root.card);
    let total = config.cost_model.total(&cost);
    Ok(OptimizedPlan {
        plan,
        cost,
        rows: root.card,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Range;
    use legodb_relational::{ColumnDef, ColumnStats, SqlType, Value};

    fn col(name: &str, ty: SqlType, distinct: f64) -> ColumnDef {
        ColumnDef::new(name, ty).with_stats(ColumnStats {
            avg_width: ty.default_width(),
            distinct: Some(distinct),
            min: if ty == SqlType::Int { Some(0) } else { None },
            max: if ty == SqlType::Int { Some(1000) } else { None },
            null_fraction: 0.0,
        })
    }

    fn catalog() -> Catalog {
        let mut show = TableDef::new("Show");
        show.columns = vec![
            col("Show_id", SqlType::Int, 10000.0),
            col("title", SqlType::Char(50), 10000.0),
            col("year", SqlType::Int, 300.0),
        ];
        show.key = Some("Show_id".into());
        show.stats.rows = 10000.0;
        let mut aka = TableDef::new("Aka");
        aka.columns = vec![
            col("Aka_id", SqlType::Int, 30000.0),
            col("aka", SqlType::Char(40), 20000.0),
            col("parent_Show", SqlType::Int, 10000.0),
        ];
        aka.key = Some("Aka_id".into());
        aka.foreign_keys.push(legodb_relational::ForeignKey {
            column: "parent_Show".into(),
            parent_table: "Show".into(),
        });
        aka.stats.rows = 30000.0;
        let mut c = Catalog::new();
        c.add(show);
        c.add(aka);
        c
    }

    fn default_config() -> OptimizerConfig {
        OptimizerConfig::default()
    }

    #[test]
    fn single_table_scan() {
        let c = catalog();
        let q = SpjQuery::single("Show", "s");
        let opt = optimize(&c, &q, &default_config()).unwrap();
        assert!(matches!(opt.plan, PhysicalPlan::SeqScan { .. }));
        assert!((opt.rows - 10000.0).abs() < 1.0);
        assert!(opt.total > 0.0);
    }

    #[test]
    fn selective_filter_reduces_cardinality() {
        let c = catalog();
        let mut q = SpjQuery::single("Show", "s");
        q.filters.push(FilterPred::eq(ColRef::new(0, "title"), "x"));
        let opt = optimize(&c, &q, &default_config()).unwrap();
        assert!(opt.rows < 2.0);
    }

    #[test]
    fn fk_join_cardinality_is_child_count() {
        let c = catalog();
        let mut q = SpjQuery::single("Show", "s");
        let a = q.add_table("Aka", "a");
        q.add_join(ColRef::new(0, "Show_id"), ColRef::new(a, "parent_Show"));
        let opt = optimize(&c, &q, &default_config()).unwrap();
        assert!((opt.rows - 30000.0).abs() / 30000.0 < 0.01);
    }

    #[test]
    fn selective_probe_prefers_index_join() {
        let c = catalog();
        let mut q = SpjQuery::single("Show", "s");
        let a = q.add_table("Aka", "a");
        q.add_join(ColRef::new(0, "Show_id"), ColRef::new(a, "parent_Show"));
        q.filters.push(FilterPred::eq(ColRef::new(0, "title"), "x"));
        q.projection = vec![ColRef::new(a, "aka")];
        let opt = optimize(&c, &q, &default_config()).unwrap();
        // With ~1 qualifying show, probing Aka's FK index beats hashing 30k rows.
        fn has_index_join(p: &PhysicalPlan) -> bool {
            match p {
                PhysicalPlan::IndexJoin { .. } => true,
                PhysicalPlan::Project { input, .. } | PhysicalPlan::Filter { input, .. } => {
                    has_index_join(input)
                }
                _ => false,
            }
        }
        assert!(
            has_index_join(&opt.plan),
            "expected an index join:\n{}",
            opt.plan
        );
    }

    #[test]
    fn unselective_join_prefers_hash_join() {
        let c = catalog();
        let mut q = SpjQuery::single("Show", "s");
        let a = q.add_table("Aka", "a");
        q.add_join(ColRef::new(0, "Show_id"), ColRef::new(a, "parent_Show"));
        let opt = optimize(&c, &q, &default_config()).unwrap();
        fn has_hash_join(p: &PhysicalPlan) -> bool {
            match p {
                PhysicalPlan::HashJoin { .. } => true,
                PhysicalPlan::Project { input, .. } => has_hash_join(input),
                _ => false,
            }
        }
        assert!(
            has_hash_join(&opt.plan),
            "expected a hash join:\n{}",
            opt.plan
        );
    }

    #[test]
    fn cross_product_when_disconnected() {
        let c = catalog();
        let mut q = SpjQuery::single("Show", "s");
        q.add_table("Aka", "a");
        let opt = optimize(&c, &q, &default_config()).unwrap();
        assert!((opt.rows - 10000.0 * 30000.0).abs() < 1.0);
    }

    #[test]
    fn range_filter_selectivity() {
        let c = catalog();
        let mut q = SpjQuery::single("Show", "s");
        q.filters.push(FilterPred::Between {
            col: ColRef::new(0, "year"),
            range: Range {
                lo: Some(Value::Int(0)),
                hi: Some(Value::Int(500)),
            },
        });
        let opt = optimize(&c, &q, &default_config()).unwrap();
        assert!((opt.rows - 5000.0).abs() < 10.0);
    }

    #[test]
    fn narrower_projection_costs_less() {
        let c = catalog();
        let mut wide = SpjQuery::single("Show", "s");
        wide.projection = vec![];
        let mut narrow = wide.clone();
        narrow.projection = vec![ColRef::new(0, "year")];
        let cfg = default_config();
        let w = optimize(&c, &wide, &cfg).unwrap();
        let n = optimize(&c, &narrow, &cfg).unwrap();
        assert!(n.total < w.total, "narrow {} !< wide {}", n.total, w.total);
    }

    #[test]
    fn union_statement_sums_costs() {
        let c = catalog();
        let s1 = SpjQuery::single("Show", "s");
        let both = Statement::UnionAll(vec![s1.clone(), s1.clone()]);
        let cfg = default_config();
        let one = optimize_statement(&c, &Statement::Select(s1), &cfg).unwrap();
        let two = optimize_statement(&c, &both, &cfg).unwrap();
        assert!((two.total - 2.0 * one.total).abs() < 1e-6);
        assert!(matches!(two.plan, PhysicalPlan::Union { .. }));
    }

    #[test]
    fn unknown_names_are_errors() {
        let c = catalog();
        let q = SpjQuery::single("Nope", "n");
        assert!(matches!(
            optimize(&c, &q, &default_config()),
            Err(OptimizerError::UnknownTable(_))
        ));
        let mut q = SpjQuery::single("Show", "s");
        q.filters
            .push(FilterPred::eq(ColRef::new(0, "bogus"), 1i64));
        assert!(matches!(
            optimize(&c, &q, &default_config()),
            Err(OptimizerError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn index_assumption_none_disables_index_joins() {
        let c = catalog();
        let mut q = SpjQuery::single("Show", "s");
        let a = q.add_table("Aka", "a");
        q.add_join(ColRef::new(0, "Show_id"), ColRef::new(a, "parent_Show"));
        q.filters.push(FilterPred::eq(ColRef::new(0, "title"), "x"));
        let cfg = OptimizerConfig {
            indexes: IndexAssumption::None,
            ..default_config()
        };
        let opt = optimize(&c, &q, &cfg).unwrap();
        fn any_index(p: &PhysicalPlan) -> bool {
            match p {
                PhysicalPlan::IndexJoin { .. } | PhysicalPlan::IndexScan { .. } => true,
                PhysicalPlan::Project { input, .. } | PhysicalPlan::Filter { input, .. } => {
                    any_index(input)
                }
                PhysicalPlan::HashJoin { left, right, .. }
                | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                    any_index(left) || any_index(right)
                }
                _ => false,
            }
        }
        assert!(!any_index(&opt.plan));
    }

    #[test]
    fn columnar_layout_discounts_narrow_scans_and_penalizes_lookups() {
        let row_cat = catalog();
        let mut col_cat = Catalog::new();
        for name in ["Show", "Aka"] {
            col_cat.add(
                row_cat
                    .table(name)
                    .unwrap()
                    .clone()
                    .with_layout(Layout::Columnar),
            );
        }
        // Narrow aggregate-style scan: columnar reads one column vector
        // instead of full pages, and the projection is pushed into the scan.
        let mut narrow = SpjQuery::single("Show", "s");
        narrow.projection = vec![ColRef::new(0, "year")];
        let cfg = default_config();
        let r = optimize(&row_cat, &narrow, &cfg).unwrap();
        let c = optimize(&col_cat, &narrow, &cfg).unwrap();
        assert!(c.total < r.total, "columnar {} !< row {}", c.total, r.total);
        assert!(
            matches!(
                c.plan,
                PhysicalPlan::SeqScan {
                    projection: Some(_),
                    ..
                }
            ),
            "expected pushed-down projection:\n{}",
            c.plan
        );
        // Point lookup: reassembling full columnar rows through the index
        // costs more than the row heap's one page per match.
        let mut lookup = SpjQuery::single("Show", "s");
        lookup
            .filters
            .push(FilterPred::eq(ColRef::new(0, "Show_id"), 7i64));
        let cfg = OptimizerConfig {
            indexes: IndexAssumption::AllFiltered,
            ..default_config()
        };
        let r = optimize(&row_cat, &lookup, &cfg).unwrap();
        let c = optimize(&col_cat, &lookup, &cfg).unwrap();
        assert!(
            r.total <= c.total,
            "row {} !<= columnar {}",
            r.total,
            c.total
        );
    }

    #[test]
    fn all_filtered_assumption_enables_index_scans() {
        let c = catalog();
        let mut q = SpjQuery::single("Show", "s");
        q.filters.push(FilterPred::eq(ColRef::new(0, "title"), "x"));
        let cfg = OptimizerConfig {
            indexes: IndexAssumption::AllFiltered,
            ..default_config()
        };
        let opt = optimize(&c, &q, &cfg).unwrap();
        fn has_index_scan(p: &PhysicalPlan) -> bool {
            match p {
                PhysicalPlan::IndexScan { .. } => true,
                PhysicalPlan::Project { input, .. } => has_index_scan(input),
                _ => false,
            }
        }
        assert!(has_index_scan(&opt.plan), "{}", opt.plan);
    }
}
