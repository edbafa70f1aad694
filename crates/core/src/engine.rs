//! The [`LegoDb`] façade: the paper's Figure 7 architecture in one struct.
//! Inputs are purely XML-level — schema, statistics, XQuery workload —
//! honoring the logical/physical independence principle: callers never
//! touch relational artifacts except through the resulting mapping.

use crate::cost::{pschema_cost, CostError, CostReport};
use crate::search::{greedy_search_from, SearchConfig, SearchOutcome, SearchResult, StartPoint};
use crate::transform::{apply, Transformation};
use crate::workload::Workload;
use legodb_optimizer::OptimizerConfig;
use legodb_pschema::{derive_pschema, InlineStyle, Mapping, PSchema};
use legodb_schema::Schema;
use legodb_util::governor::Budget;
use legodb_xml::stats::Statistics;

/// The LegoDB mapping engine.
#[derive(Debug, Clone)]
pub struct LegoDb {
    schema: Schema,
    stats: Statistics,
    workload: Workload,
    search: SearchConfig,
}

/// The engine's output: a chosen configuration plus its full report.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// The chosen physical schema.
    pub pschema: PSchema,
    /// The relational mapping (catalog, DDL, per-type table mappings).
    pub mapping: Mapping,
    /// Workload cost of the chosen configuration.
    pub cost: f64,
    /// Per-query costs.
    pub per_query: Vec<(String, f64)>,
    /// The greedy trajectory.
    pub trajectory: Vec<crate::search::IterationReport>,
    /// Whether the search converged or stopped on a budget limit (the
    /// configuration is best-so-far either way).
    pub outcome: SearchOutcome,
    /// Candidates dropped across the search (panics, pricing failures,
    /// non-finite costs).
    pub dropped_candidates: u64,
    /// One diagnostic line per dropped candidate, naming the move.
    pub dropped_diagnostics: Vec<String>,
    /// Incremental-costing counters (reused / memo-served / recomputed
    /// query pricings) across the search.
    pub eval: crate::cost::EvalStats,
    /// Candidate-scheduling telemetry across the search (always `Some`;
    /// one worker and no steals for a sequential search).
    pub sched: Option<legodb_util::StealReport>,
}

impl From<SearchResult> for EngineResult {
    fn from(r: SearchResult) -> Self {
        EngineResult {
            pschema: r.pschema,
            mapping: r.report.mapping.clone(),
            cost: r.cost,
            per_query: r.report.per_query(),
            trajectory: r.trajectory,
            outcome: r.outcome,
            dropped_candidates: r.dropped_candidates,
            dropped_diagnostics: r.dropped_diagnostics,
            eval: r.eval,
            sched: r.sched,
        }
    }
}

impl LegoDb {
    /// Create an engine for an application (schema + statistics +
    /// workload), with default search settings.
    pub fn new(schema: Schema, stats: Statistics, workload: Workload) -> LegoDb {
        LegoDb {
            schema,
            stats,
            workload,
            search: SearchConfig::default(),
        }
    }

    /// Override the search configuration.
    pub fn with_search_config(mut self, search: SearchConfig) -> LegoDb {
        self.search = search;
        self
    }

    /// Bound the search by a resource budget (deadline, evaluations,
    /// memory estimate); on exhaustion [`LegoDb::optimize`] returns its
    /// best-so-far configuration with the corresponding
    /// [`SearchOutcome`].
    pub fn with_budget(mut self, budget: Budget) -> LegoDb {
        self.search.budget = Some(budget);
        self
    }

    /// Replace the workload (e.g. to price the same schema under a
    /// different query mix).
    pub fn with_workload(mut self, workload: Workload) -> LegoDb {
        self.workload = workload;
        self
    }

    /// The source schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The statistics.
    pub fn stats(&self) -> &Statistics {
        &self.stats
    }

    /// The workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Run the greedy search and return the chosen configuration.
    pub fn optimize(&self) -> Result<EngineResult, CostError> {
        let initial = self.initial_pschema(self.search.start);
        greedy_search_from(initial, &self.stats, &self.workload, &self.search).map(Into::into)
    }

    /// The initial p-schema for a starting point.
    pub fn initial_pschema(&self, start: StartPoint) -> PSchema {
        match start {
            StartPoint::MaximallyInlined => derive_pschema(&self.schema, InlineStyle::Inlined),
            StartPoint::MaximallyOutlined => derive_pschema(&self.schema, InlineStyle::Outlined),
        }
    }

    /// The paper's ALL-INLINED baseline (Figure 4(a) / §5.3): unions are
    /// first converted to optional groups (nullable columns), then
    /// everything inlineable is inlined.
    pub fn all_inlined_pschema(&self) -> PSchema {
        let mut current = derive_pschema(&self.schema, InlineStyle::Inlined);
        // Convert unions to options wherever applicable, repeatedly (an
        // application may expose another site), then re-derive to inline
        // the freed structure.
        loop {
            let candidates = crate::transform::enumerate_candidates(
                &current,
                &crate::transform::TransformationSet {
                    union_to_options: true,
                    ..Default::default()
                },
            );
            let Some(t) = candidates.first() else { break };
            match apply(&current, t) {
                Ok((next, _)) => current = next,
                Err(_) => break,
            }
        }
        derive_pschema(current.schema(), InlineStyle::Inlined)
    }

    /// Price an arbitrary p-schema under this engine's statistics and
    /// workload (`GetPSchemaCost`).
    pub fn cost_of(&self, pschema: &PSchema) -> Result<CostReport, CostError> {
        pschema_cost(pschema, &self.stats, &self.workload, &self.search.optimizer)
    }

    /// Price a p-schema under a *different* workload (used by the §5.3
    /// sensitivity experiment: configurations tuned for one mix are priced
    /// across the whole spectrum).
    pub fn cost_under(
        &self,
        pschema: &PSchema,
        workload: &Workload,
    ) -> Result<CostReport, CostError> {
        pschema_cost(pschema, &self.stats, workload, &self.search.optimizer)
    }

    /// Apply one transformation to a p-schema (pass-through convenience).
    pub fn transform(
        &self,
        pschema: &PSchema,
        t: &Transformation,
    ) -> Result<PSchema, crate::transform::TransformError> {
        apply(pschema, t).map(|(pschema, _)| pschema)
    }

    /// The optimizer configuration used for costing.
    pub fn optimizer_config(&self) -> &OptimizerConfig {
        &self.search.optimizer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legodb_schema::parse_schema;

    fn engine() -> LegoDb {
        let schema = parse_schema(
            "type IMDB = imdb[ Show{0,*} ]
             type Show = show [ title[ String ], year[ Integer ], ( Movie | TV ) ]
             type Movie = box_office[ Integer ]
             type TV = seasons[ Integer ]",
        )
        .unwrap();
        let mut stats = Statistics::new();
        stats
            .set_count(&["imdb"], 1)
            .set_count(&["imdb", "show"], 10000)
            .set_size(&["imdb", "show", "title"], 50.0)
            .set_distinct(&["imdb", "show", "title"], 10000)
            .set_count(&["imdb", "show", "box_office"], 7000)
            .set_count(&["imdb", "show", "seasons"], 3000);
        let workload = Workload::from_sources([(
            "lookup",
            r#"FOR $v IN document("x")/imdb/show WHERE $v/title = c1 RETURN $v/year"#,
            1.0,
        )])
        .unwrap();
        LegoDb::new(schema, stats, workload)
    }

    #[test]
    fn optimize_returns_a_priced_configuration() {
        let result = engine().optimize().unwrap();
        assert!(result.cost > 0.0);
        assert!(!result.mapping.catalog.is_empty());
        assert!(!result.per_query.is_empty());
    }

    #[test]
    fn all_inlined_flattens_unions_into_nullable_columns() {
        let e = engine();
        let p = e.all_inlined_pschema();
        let s = p.schema();
        assert!(s.get_str("Movie").is_none(), "{s}");
        assert!(s.get_str("TV").is_none(), "{s}");
        // box_office is now a (nullable) column of Show.
        let report = e.cost_of(&p).unwrap();
        let show = report.mapping.catalog.table("Show").unwrap();
        let bo = show.column("box_office").expect("inlined column");
        assert!(bo.nullable);
    }

    #[test]
    fn optimize_surfaces_the_search_outcome() {
        let converged = engine().optimize().unwrap();
        assert_eq!(converged.outcome, SearchOutcome::Converged);
        let deadline = engine()
            .with_budget(Budget::none().with_deadline(std::time::Duration::ZERO))
            .optimize()
            .unwrap();
        assert_eq!(deadline.outcome, SearchOutcome::DeadlineExceeded);
        assert!(deadline.cost > 0.0);
        assert!(!deadline.mapping.catalog.is_empty());
    }

    #[test]
    fn cost_under_prices_alternative_workloads() {
        let e = engine();
        let p = e.initial_pschema(StartPoint::MaximallyInlined);
        let publish = Workload::from_sources([(
            "publish",
            r#"FOR $v IN document("x")/imdb/show RETURN $v"#,
            1.0,
        )])
        .unwrap();
        let lookup_cost = e.cost_of(&p).unwrap().total;
        let publish_cost = e.cost_under(&p, &publish).unwrap().total;
        assert!(publish_cost > lookup_cost);
    }
}
