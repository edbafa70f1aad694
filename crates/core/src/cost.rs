//! `GetPSchemaCost` (§4.2): price one physical schema against a workload.
//!
//! The pipeline per candidate: `rel(ps)` derives the relational catalog
//! with translated statistics; each workload query is translated to SQL
//! statements over that mapping; the cost-based optimizer prices each
//! statement; the schema's cost is the weight-averaged sum.
//!
//! [`pschema_cost`] prices from scratch and stays the oracle. The greedy
//! search prices hundreds of candidates that each differ from their
//! parent by one local rewriting, so [`CostEvaluator`] prices
//! *incrementally*: a candidate's mapping reuses unchanged tables from
//! its parent ([`legodb_pschema::rel_incremental`]), and a query is
//! re-translated and re-optimized only when its recorded footprint
//! intersects the tables that changed. A memo cache keyed by
//! (statement SQL, referenced-table fingerprints) shares optimizer work
//! across parallel workers, across sibling candidates, and across
//! iterations — a re-translated query re-optimizes only the statements
//! whose tables actually changed. Reused costs are the
//! parent's stored `f64`s and summation stays in workload order, so the
//! incremental total is bit-identical to the from-scratch one — a
//! `debug_assertions` path checks this against the oracle on every
//! incremental evaluation.

use crate::transform::TransformDelta;
use crate::workload::Workload;
use legodb_optimizer::{optimize_statement, OptimizerConfig, OptimizerError, Statement};
use legodb_pschema::{rel, rel_incremental, Mapping, PSchema};
use legodb_util::{fault, StableHasher, Striped};
use legodb_xml::stats::Statistics;
use legodb_xquery::{translate, TranslateError, TranslatedQuery};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Costing failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// A query could not be translated against this mapping.
    Translate {
        /// Query name.
        query: String,
        /// The candidate transformation being priced, when known (so a
        /// dropped candidate's diagnostic names the move).
        transformation: Option<String>,
        /// Inner error.
        error: TranslateError,
    },
    /// The optimizer rejected a translated statement.
    Optimize {
        /// Query name.
        query: String,
        /// The candidate transformation being priced, when known.
        transformation: Option<String>,
        /// Inner error.
        error: OptimizerError,
    },
    /// A cost computed to NaN or infinity. A configuration that cannot be
    /// priced to a finite number cannot seed or win a search.
    NonFiniteCost {
        /// What was being priced (query name or "initial configuration").
        context: String,
        /// The offending value.
        value: f64,
    },
}

impl CostError {
    /// Attach the candidate transformation that was being priced, so the
    /// search's dropped-candidate diagnostics can name the move.
    pub fn with_transformation(mut self, t: impl fmt::Display) -> CostError {
        match &mut self {
            CostError::Translate { transformation, .. }
            | CostError::Optimize { transformation, .. } => {
                *transformation = Some(t.to_string());
            }
            CostError::NonFiniteCost { .. } => {}
        }
        self
    }
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let candidate = |t: &Option<String>| match t {
            Some(t) => format!(" (candidate {t})"),
            None => String::new(),
        };
        match self {
            CostError::Translate {
                query,
                transformation,
                error,
            } => {
                write!(
                    f,
                    "translating {query}{}: {error}",
                    candidate(transformation)
                )
            }
            CostError::Optimize {
                query,
                transformation,
                error,
            } => write!(
                f,
                "optimizing {query}{}: {error}",
                candidate(transformation)
            ),
            CostError::NonFiniteCost { context, value } => {
                write!(f, "non-finite cost {value} for {context}")
            }
        }
    }
}

impl std::error::Error for CostError {}

/// One workload query's priced outcome, with the footprint needed to
/// decide whether a child candidate can reuse it.
#[derive(Debug, Clone)]
pub struct QueryCostRecord {
    /// Query name.
    pub name: String,
    /// Unweighted cost.
    pub cost: f64,
    /// Types consulted during translation (see
    /// [`TranslatedQuery::footprint`]).
    pub footprint: BTreeSet<String>,
}

/// The cost of one configuration.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Weighted total cost (the greedy search's objective).
    pub total: f64,
    /// Per-query records in workload order.
    pub queries: Vec<QueryCostRecord>,
    /// The mapping that was priced (catalog, DDL, table mappings).
    pub mapping: Mapping,
}

impl CostReport {
    /// Per-query `(name, unweighted cost)` pairs in workload order.
    pub fn per_query(&self) -> Vec<(String, f64)> {
        self.queries
            .iter()
            .map(|r| (r.name.clone(), r.cost))
            .collect()
    }

    /// The unweighted cost of a query by name.
    pub fn query_cost(&self, name: &str) -> Option<f64> {
        self.queries.iter().find(|r| r.name == name).map(|r| r.cost)
    }
}

/// Price every statement of a translated query.
fn statements_cost(
    mapping: &Mapping,
    translated: &TranslatedQuery,
    query: &str,
    config: &OptimizerConfig,
) -> Result<f64, CostError> {
    let mut query_cost = 0.0;
    for statement in &translated.statements {
        let optimized =
            optimize_statement(&mapping.catalog, statement, config).map_err(|error| {
                CostError::Optimize {
                    query: query.to_string(),
                    transformation: None,
                    error,
                }
            })?;
        query_cost += optimized.total;
    }
    Ok(query_cost)
}

/// Price a p-schema against a workload. This is the paper's
/// `GetPSchemaCost(pSchema, xWkld, xStats)` — the from-scratch oracle the
/// incremental [`CostEvaluator`] is checked against.
pub fn pschema_cost(
    pschema: &PSchema,
    stats: &Statistics,
    workload: &Workload,
    config: &OptimizerConfig,
) -> Result<CostReport, CostError> {
    let mapping = rel(pschema, stats);
    let mut total = 0.0;
    let mut queries = Vec::new();
    for entry in workload.queries() {
        let translated =
            translate(&mapping, &entry.query).map_err(|error| CostError::Translate {
                query: entry.name.clone(),
                transformation: None,
                error,
            })?;
        let query_cost = statements_cost(&mapping, &translated, &entry.name, config)?;
        total += entry.weight * query_cost;
        queries.push(QueryCostRecord {
            name: entry.name.clone(),
            cost: query_cost,
            footprint: translated.footprint,
        });
    }
    Ok(CostReport {
        total,
        queries,
        mapping,
    })
}

/// Counters from a [`CostEvaluator`]: how candidate pricing was served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Queries whose parent cost was reused outright (footprint disjoint
    /// from the changed tables — no translation, no optimization).
    pub reused: u64,
    /// Queries re-translated but with every statement served from the
    /// memo cache (no optimization).
    pub memo_hits: u64,
    /// Queries with at least one statement re-optimized.
    pub recosted: u64,
}

impl EvalStats {
    /// Total queries priced.
    pub fn total(&self) -> u64 {
        self.reused + self.memo_hits + self.recosted
    }

    /// Fraction of queries served without running the optimizer.
    pub fn hit_rate(&self) -> f64 {
        match self.total() {
            0 => 0.0,
            n => (self.reused + self.memo_hits) as f64 / n as f64,
        }
    }

    /// Counters accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &EvalStats) -> EvalStats {
        EvalStats {
            reused: self.reused.saturating_sub(earlier.reused),
            memo_hits: self.memo_hits.saturating_sub(earlier.memo_hits),
            recosted: self.recosted.saturating_sub(earlier.recosted),
        }
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reused, {} memo hits, {} recosted ({:.0}% avoided)",
            self.reused,
            self.memo_hits,
            self.recosted,
            self.hit_rate() * 100.0
        )
    }
}

/// Memo-cache fingerprint of one statement's referenced tables: each
/// table name plus its per-type mapping fingerprint. Combined with the
/// statement's exact SQL text, an equal key means an identical statement
/// over identical table definitions — and [`optimize_statement`] reads
/// nothing else from the catalog, so a memo hit is exact, not
/// approximate. Statement granularity (rather than whole-query) is what
/// lets a publish-style query that walks the entire schema skip
/// re-optimizing every block except the one over a changed table.
fn statement_tables_fingerprint(mapping: &Mapping, statement: &Statement) -> u64 {
    let mut h = StableHasher::new();
    for block in statement.blocks() {
        for t in &block.tables {
            h.write_str(&t.table);
            let fp = mapping
                .fingerprints
                .get(&legodb_schema::TypeName::new(&t.table))
                .copied()
                .unwrap_or(0);
            h.write_u64(fp);
        }
    }
    h.finish()
}

/// Stripes in the shared memo cache. Sized for the machine widths the
/// search runs at (up to a few dozen workers): with 32 stripes and a
/// stable key hash, two workers only contend when they price statements
/// that land in the same shard.
const MEMO_STRIPES: usize = 32;

/// The stable stripe selector for a memo key. Must depend on the key
/// alone (never on thread or timing state) so a key always routes to the
/// same shard.
fn memo_stripe_hash(key: &(String, u64)) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&key.0);
    h.write_u64(key.1);
    h.finish()
}

/// Incremental, memoizing candidate pricer (shared across the search's
/// parallel workers). See the module docs for the invalidation story.
#[derive(Debug)]
pub struct CostEvaluator {
    config: OptimizerConfig,
    memoize: bool,
    /// The memo cache, lock-striped ([`Striped`]): one evaluator is
    /// shared by every candidate of an iteration (and across
    /// iterations), so under the work-stealing scheduler many workers
    /// hit it concurrently — striping keeps them off a single global
    /// lock. Shards are BTreeMaps, not HashMaps: the cache sits on the
    /// fingerprint path and the deterministic-collections invariant
    /// (DESIGN.md §12) bans hash-randomized containers here outright;
    /// shard *routing* uses the seeded, platform-stable `StableHasher`.
    cache: Striped<BTreeMap<(String, u64), f64>>,
    reused: AtomicU64,
    memo_hits: AtomicU64,
    recosted: AtomicU64,
}

impl CostEvaluator {
    /// An evaluator with memoization on.
    pub fn new(config: OptimizerConfig) -> CostEvaluator {
        CostEvaluator::with_memoize(config, true)
    }

    /// An evaluator with memoization switched explicitly (off = every
    /// evaluation reprices from scratch; the bench's control arm).
    pub fn with_memoize(config: OptimizerConfig, memoize: bool) -> CostEvaluator {
        CostEvaluator {
            config,
            memoize,
            cache: Striped::new(MEMO_STRIPES),
            reused: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            recosted: AtomicU64::new(0),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            reused: self.reused.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            recosted: self.recosted.load(Ordering::Relaxed),
        }
    }

    /// Price a configuration from scratch (the search's starting point).
    /// Translations still seed the memo cache.
    pub fn evaluate_full(
        &self,
        pschema: &PSchema,
        stats: &Statistics,
        workload: &Workload,
    ) -> Result<CostReport, CostError> {
        let mapping = rel(pschema, stats);
        self.evaluate(mapping, workload, None)
    }

    /// Price a candidate that differs from `parent` by `delta`. Unchanged
    /// tables are cloned from the parent's mapping; queries whose
    /// footprint avoids every changed table reuse the parent's cost.
    /// With memoization off this degenerates to the from-scratch path —
    /// the bench's control arm is exactly the pre-incremental pipeline.
    pub fn evaluate_incremental(
        &self,
        pschema: &PSchema,
        stats: &Statistics,
        workload: &Workload,
        parent: &CostReport,
        delta: &TransformDelta,
    ) -> Result<CostReport, CostError> {
        if !self.memoize {
            let report = pschema_cost(pschema, stats, workload, &self.config)?;
            self.recosted
                .fetch_add(report.queries.len() as u64, Ordering::Relaxed);
            return Ok(report);
        }
        let mapping = rel_incremental(pschema, stats, &parent.mapping);
        // Invalidate on the fingerprint diff — plus, defensively, every
        // type the transformation itself names (removed types have no
        // fingerprint on either side if they never mapped to a table).
        let mut changed = mapping.changed_tables(&parent.mapping);
        for name in delta.touched() {
            changed.insert(name.to_string());
        }
        let report = self.evaluate(mapping, workload, Some((parent, &changed)))?;
        #[cfg(debug_assertions)]
        {
            let oracle = pschema_cost(pschema, stats, workload, &self.config)?;
            debug_assert_eq!(
                report.total.to_bits(),
                oracle.total.to_bits(),
                "incremental total {} diverged from oracle {} (changed: {changed:?})",
                report.total,
                oracle.total,
            );
        }
        Ok(report)
    }

    fn evaluate(
        &self,
        mapping: Mapping,
        workload: &Workload,
        reuse: Option<(&CostReport, &BTreeSet<String>)>,
    ) -> Result<CostReport, CostError> {
        let mut total = 0.0;
        let mut queries = Vec::new();
        for (idx, entry) in workload.queries().iter().enumerate() {
            if let Some((parent, changed)) = reuse {
                if let Some(record) = parent.queries.get(idx) {
                    // The failpoint lets fault runs force the recompute
                    // path, so the equivalence property exercises both.
                    if record.name == entry.name
                        && record.footprint.is_disjoint(changed)
                        && fault::failpoint("core.cost.reuse", &entry.name).is_ok()
                    {
                        self.reused.fetch_add(1, Ordering::Relaxed);
                        total += entry.weight * record.cost;
                        queries.push(record.clone());
                        continue;
                    }
                }
            }
            let translated =
                translate(&mapping, &entry.query).map_err(|error| CostError::Translate {
                    query: entry.name.clone(),
                    transformation: None,
                    error,
                })?;
            let cost = if self.memoize {
                // Statement-level memoization: sum in statement order so
                // the total stays bit-identical to `statements_cost`.
                let mut query_cost = 0.0;
                let mut all_hits = true;
                for statement in &translated.statements {
                    let key = (
                        statement.to_sql(),
                        statement_tables_fingerprint(&mapping, statement),
                    );
                    let stripe = self.cache.stripe(memo_stripe_hash(&key));
                    let cached = stripe.read().get(&key).copied();
                    let statement_cost = match cached {
                        Some(cost) => cost,
                        None => {
                            all_hits = false;
                            let optimized =
                                optimize_statement(&mapping.catalog, statement, &self.config)
                                    .map_err(|error| CostError::Optimize {
                                        query: entry.name.clone(),
                                        transformation: None,
                                        error,
                                    })?;
                            stripe.write().insert(key, optimized.total);
                            optimized.total
                        }
                    };
                    query_cost += statement_cost;
                }
                if all_hits {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.recosted.fetch_add(1, Ordering::Relaxed);
                }
                query_cost
            } else {
                self.recosted.fetch_add(1, Ordering::Relaxed);
                statements_cost(&mapping, &translated, &entry.name, &self.config)?
            };
            total += entry.weight * cost;
            queries.push(QueryCostRecord {
                name: entry.name.clone(),
                cost,
                footprint: translated.footprint,
            });
        }
        Ok(CostReport {
            total,
            queries,
            mapping,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{apply, enumerate_candidates, Transformation, TransformationSet};
    use legodb_pschema::PSchema;
    use legodb_schema::parse_schema;

    fn setup() -> (PSchema, Statistics, Workload) {
        let schema = parse_schema(
            "type IMDB = imdb[ Show{0,*} ]
             type Show = show [ title[ String ], year[ Integer ], Aka{0,*} ]
             type Aka = aka[ String ]",
        )
        .unwrap();
        let pschema = PSchema::try_new(schema).unwrap();
        let mut stats = Statistics::new();
        stats
            .set_count(&["imdb"], 1)
            .set_count(&["imdb", "show"], 10000)
            .set_size(&["imdb", "show", "title"], 50.0)
            .set_distinct(&["imdb", "show", "title"], 10000)
            .set_count(&["imdb", "show", "year"], 10000)
            .set_base(&["imdb", "show", "year"], 1900, 2000, 100)
            .set_count(&["imdb", "show", "aka"], 30000)
            .set_size(&["imdb", "show", "aka"], 40.0);
        let workload = Workload::from_sources([
            (
                "lookup",
                r#"FOR $v IN document("x")/imdb/show WHERE $v/title = c1 RETURN $v/year"#,
                0.5,
            ),
            (
                "publish",
                r#"FOR $v IN document("x")/imdb/show RETURN $v"#,
                0.5,
            ),
        ])
        .unwrap();
        (pschema, stats, workload)
    }

    #[test]
    fn produces_positive_costs_per_query() {
        let (p, s, w) = setup();
        let report = pschema_cost(&p, &s, &w, &OptimizerConfig::default()).unwrap();
        assert!(report.total > 0.0);
        assert_eq!(report.queries.len(), 2);
        assert!(report.query_cost("lookup").unwrap() > 0.0);
        assert!(report.query_cost("publish").unwrap() > 0.0);
        // Publishing everything costs more than one lookup.
        assert!(report.query_cost("publish").unwrap() > report.query_cost("lookup").unwrap());
        // Every record carries a non-empty footprint.
        assert!(report.queries.iter().all(|r| !r.footprint.is_empty()));
    }

    #[test]
    fn weights_scale_the_total() {
        let (p, s, w) = setup();
        let cfg = OptimizerConfig::default();
        let base = pschema_cost(&p, &s, &w, &cfg).unwrap();
        let double = pschema_cost(&p, &s, &w.scaled(2.0), &cfg).unwrap();
        assert!((double.total - 2.0 * base.total).abs() < 1e-6);
    }

    #[test]
    fn unresolvable_query_reports_translate_error() {
        let (p, s, _) = setup();
        let w =
            Workload::from_sources([("bad", r#"FOR $v IN document("x")/nothing RETURN $v"#, 1.0)])
                .unwrap();
        let err = pschema_cost(&p, &s, &w, &OptimizerConfig::default()).unwrap_err();
        assert!(matches!(err, CostError::Translate { .. }));
        // Attaching a transformation shows up in the message.
        let named = err.with_transformation("inline(X)");
        assert!(named.to_string().contains("candidate inline(X)"), "{named}");
    }

    #[test]
    fn incremental_totals_match_the_oracle_bit_for_bit() {
        let (p, s, w) = setup();
        let cfg = OptimizerConfig::default();
        let evaluator = CostEvaluator::new(cfg);
        let parent = evaluator.evaluate_full(&p, &s, &w).unwrap();
        assert_eq!(
            parent.total.to_bits(),
            pschema_cost(&p, &s, &w, &cfg).unwrap().total.to_bits()
        );
        for t in enumerate_candidates(&p, &TransformationSet::all(vec![])) {
            let (child, delta) = apply(&p, &t).unwrap();
            let incr = evaluator
                .evaluate_incremental(&child, &s, &w, &parent, &delta)
                .unwrap();
            let oracle = pschema_cost(&child, &s, &w, &cfg).unwrap();
            assert_eq!(
                incr.total.to_bits(),
                oracle.total.to_bits(),
                "candidate {t}: incremental {} vs oracle {}",
                incr.total,
                oracle.total
            );
        }
    }

    #[test]
    fn disjoint_footprints_reuse_the_parent_cost() {
        // The reuse failpoint deliberately perturbs the counters.
        let _quiet = legodb_util::fault::override_for_test(None);
        // A schema with an independent Studio branch: rewriting it must
        // not re-price a query that only walks the Show branch.
        let schema = parse_schema(
            "type IMDB = imdb[ Show{0,*}, Studio{0,*} ]
             type Show = show [ title[ String ], year[ Integer ] ]
             type Studio = studio[ sname[ String ], City ]
             type City = city[ String ]",
        )
        .unwrap();
        let p = PSchema::try_new(schema).unwrap();
        let s = Statistics::new();
        let w = Workload::from_sources([(
            "lookup",
            r#"FOR $v IN document("x")/imdb/show WHERE $v/title = c1 RETURN $v/year"#,
            1.0,
        )])
        .unwrap();
        let evaluator = CostEvaluator::new(OptimizerConfig::default());
        let parent = evaluator.evaluate_full(&p, &s, &w).unwrap();
        let (child, delta) = apply(
            &p,
            &Transformation::Inline(legodb_schema::TypeName::new("City")),
        )
        .unwrap();
        let before = evaluator.stats();
        let incr = evaluator
            .evaluate_incremental(&child, &s, &w, &parent, &delta)
            .unwrap();
        let d = evaluator.stats().since(&before);
        assert_eq!(d.reused, 1, "{d}");
        assert_eq!(d.recosted, 0, "{d}");
        assert_eq!(incr.total.to_bits(), parent.total.to_bits());
    }

    #[test]
    fn memoization_serves_repeat_candidates_without_reoptimizing() {
        let (p, s, w) = setup();
        let evaluator = CostEvaluator::new(OptimizerConfig::default());
        let a = evaluator.evaluate_full(&p, &s, &w).unwrap();
        let before = evaluator.stats();
        let b = evaluator.evaluate_full(&p, &s, &w).unwrap();
        let after = evaluator.stats().since(&before);
        assert_eq!(a.total.to_bits(), b.total.to_bits());
        assert_eq!(after.memo_hits, w.queries().len() as u64, "{after}");
        assert_eq!(after.recosted, 0, "{after}");
        assert!(after.hit_rate() > 0.99);
    }

    #[test]
    fn memoization_off_always_recosts() {
        let (p, s, w) = setup();
        let evaluator = CostEvaluator::with_memoize(OptimizerConfig::default(), false);
        let a = evaluator.evaluate_full(&p, &s, &w).unwrap();
        let b = evaluator.evaluate_full(&p, &s, &w).unwrap();
        assert_eq!(a.total.to_bits(), b.total.to_bits());
        let stats_now = evaluator.stats();
        assert_eq!(stats_now.memo_hits, 0);
        assert_eq!(stats_now.recosted, 2 * w.queries().len() as u64);
    }
}
