//! The greedy search of Algorithm 4.1: iteratively apply the single
//! transformation that lowers workload cost the most, until no candidate
//! improves. Candidate evaluation is independent per candidate and runs
//! through the one parallel map, `legodb_util::steal_map_catch` — on one
//! worker for a sequential search, on the work-stealing deques for a
//! parallel one — fault-isolated: a panicking or unpriceable candidate is
//! dropped (and counted), never allowed to tear down the search. Each
//! candidate's cost is a pure function of the candidate, so the worker
//! count never changes the result. An optional [`Budget`] bounds
//! wall-clock time, candidate evaluations, and estimated memory; on
//! exhaustion the search returns its best-so-far configuration tagged
//! with a [`SearchOutcome`] instead of an error.

use crate::cost::{CostError, CostEvaluator, CostReport, EvalStats};
use crate::transform::{apply, enumerate_candidates, Transformation, TransformationSet};
use crate::workload::Workload;
use legodb_optimizer::OptimizerConfig;
use legodb_pschema::{derive_pschema, InlineStyle, PSchema};
use legodb_schema::Schema;
use legodb_util::governor::{Budget, BudgetExceeded, Governor};
use legodb_util::{fault, steal_map_catch, StealReport};
use legodb_xml::stats::Statistics;

/// Which end of the inline spectrum the search starts from (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartPoint {
    /// *greedy-si*: everything inlined, search explores outlining.
    #[default]
    MaximallyInlined,
    /// *greedy-so*: everything outlined, search explores inlining.
    MaximallyOutlined,
}

/// Search knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Starting configuration.
    pub start: StartPoint,
    /// Allowed transformation kinds. When `None`, matches the paper's
    /// prototype: inline moves from an outlined start, outline moves from
    /// an inlined start.
    pub transformations: Option<TransformationSet>,
    /// Optimizer settings used by `GetPSchemaCost`.
    pub optimizer: OptimizerConfig,
    /// Safety cap on greedy iterations (0 = unlimited).
    pub max_iterations: usize,
    /// Evaluate candidates on every available core (work-stealing
    /// deques) rather than one worker. Never changes results: sequential
    /// and parallel searches price bit-identically.
    pub parallel: bool,
    /// Stop when the relative improvement of an iteration falls below this
    /// threshold (the paper suggests this optimization; 0.0 disables it).
    pub improvement_threshold: f64,
    /// Resource budget (deadline / evaluations / memory estimate). When
    /// exhausted mid-search the best configuration found so far is
    /// returned with a non-[`SearchOutcome::Converged`] outcome.
    pub budget: Option<Budget>,
    /// Price candidates incrementally against their parent, with a shared
    /// memo cache (default). Off = every candidate is priced from scratch
    /// (the pre-incremental behavior; costs are bit-identical either way).
    pub memoize: bool,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            start: StartPoint::default(),
            transformations: None,
            optimizer: OptimizerConfig::default(),
            max_iterations: 0,
            parallel: false,
            improvement_threshold: 0.0,
            budget: None,
            memoize: true,
        }
    }
}

impl SearchConfig {
    fn transformation_set(&self) -> TransformationSet {
        match &self.transformations {
            Some(set) => set.clone(),
            None => match self.start {
                StartPoint::MaximallyInlined => TransformationSet::outline_only(),
                StartPoint::MaximallyOutlined => TransformationSet::inline_only(),
            },
        }
    }
}

/// One greedy iteration's record, for the Figure 10 style convergence
/// plots.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Iteration number (0 = the initial configuration).
    pub iteration: usize,
    /// Cost after this iteration.
    pub cost: f64,
    /// Number of candidates evaluated.
    pub candidates: usize,
    /// Candidates dropped this iteration: panicked, failed to apply or
    /// price, or priced to a non-finite cost.
    pub dropped: usize,
    /// The transformation applied (`None` for the initial configuration).
    pub applied: Option<String>,
    /// Evaluator counters for this iteration (how many query pricings
    /// were reused, memo-served, or recomputed).
    pub eval: EvalStats,
}

/// How a search run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchOutcome {
    /// No candidate improved the current configuration (the normal,
    /// fixed-point termination of Algorithm 4.1).
    #[default]
    Converged,
    /// The wall-clock deadline passed; the result is best-so-far.
    DeadlineExceeded,
    /// The evaluation or memory budget ran out; the result is
    /// best-so-far.
    BudgetExhausted,
}

impl From<BudgetExceeded> for SearchOutcome {
    fn from(e: BudgetExceeded) -> Self {
        match e {
            BudgetExceeded::Deadline => SearchOutcome::DeadlineExceeded,
            BudgetExceeded::Evaluations | BudgetExceeded::Memory => SearchOutcome::BudgetExhausted,
        }
    }
}

/// The search outcome.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The selected physical schema.
    pub pschema: PSchema,
    /// Its workload cost.
    pub cost: f64,
    /// Full cost report (per-query costs, catalog, DDL).
    pub report: CostReport,
    /// Per-iteration trajectory (index 0 is the starting configuration).
    pub trajectory: Vec<IterationReport>,
    /// Whether the search converged or stopped on a budget limit.
    pub outcome: SearchOutcome,
    /// Total candidates dropped across all iterations (panics, apply or
    /// costing failures, non-finite costs) — including iterations that
    /// did not improve and are absent from `trajectory`.
    pub dropped_candidates: u64,
    /// One line per dropped candidate, naming the move and why it was
    /// dropped (e.g. `optimizing publish (candidate inline(Aka)): ...`).
    pub dropped_diagnostics: Vec<String>,
    /// Cumulative evaluator counters across the whole run.
    pub eval: EvalStats,
    /// Scheduling telemetry accumulated across every iteration's
    /// candidate evaluation. Always `Some` (one worker and no steals for
    /// a sequential search); kept an `Option` for callers that predate
    /// that.
    pub sched: Option<StealReport>,
}

/// Run Algorithm 4.1 from an arbitrary source schema.
pub fn greedy_search(
    schema: &Schema,
    stats: &Statistics,
    workload: &Workload,
    config: &SearchConfig,
) -> Result<SearchResult, CostError> {
    let start = match config.start {
        StartPoint::MaximallyInlined => derive_pschema(schema, InlineStyle::Inlined),
        StartPoint::MaximallyOutlined => derive_pschema(schema, InlineStyle::Outlined),
    };
    greedy_search_from(start, stats, workload, config)
}

/// Run Algorithm 4.1 from a specific initial p-schema.
pub fn greedy_search_from(
    initial: PSchema,
    stats: &Statistics,
    workload: &Workload,
    config: &SearchConfig,
) -> Result<SearchResult, CostError> {
    let set = config.transformation_set();
    let evaluator = CostEvaluator::with_memoize(config.optimizer, config.memoize);
    let mut current = initial;
    let mut report = evaluator.evaluate_full(&current, stats, workload)?;
    let mut cost = report.total;
    if !cost.is_finite() {
        return Err(CostError::NonFiniteCost {
            context: "initial configuration".to_string(),
            value: cost,
        });
    }
    let mut eval_snapshot = evaluator.stats();
    let mut trajectory = vec![IterationReport {
        iteration: 0,
        cost,
        candidates: 0,
        dropped: 0,
        applied: None,
        eval: eval_snapshot,
    }];

    let governor = config.budget.as_ref().map(Budget::start);
    let mut outcome = SearchOutcome::Converged;
    let mut dropped_candidates: u64 = 0;
    let mut dropped_diagnostics: Vec<String> = Vec::new();
    let mut sched = StealReport::default();
    let mut iteration = 0;
    loop {
        iteration += 1;
        if config.max_iterations != 0 && iteration > config.max_iterations {
            break;
        }
        if let Some(exceeded) = budget_exceeded(&governor) {
            outcome = exceeded.into();
            break;
        }
        let candidates = enumerate_candidates(&current, &set);
        let (evaluated, diagnostics, dropped, iteration_sched) = evaluate_candidates(
            &current,
            &report,
            &candidates,
            stats,
            workload,
            &evaluator,
            config,
            governor.as_ref(),
            // Seed the victim-selection PRNG deterministically per call:
            // the iteration number is stable across runs, so a given
            // (run, iteration, worker) always probes victims in the same
            // order.
            iteration as u64,
        );
        sched.absorb(&iteration_sched);
        dropped_candidates += dropped as u64;
        dropped_diagnostics.extend(diagnostics);
        let best = evaluated
            .into_iter()
            .min_by(|a, b| a.2.total.total_cmp(&b.2.total));
        let Some((t, pschema, new_report)) = best else {
            // Nothing priced. If the budget ran out mid-iteration that is
            // why; otherwise we are at a fixed point.
            if let Some(exceeded) = budget_exceeded(&governor) {
                outcome = exceeded.into();
            }
            break;
        };
        if new_report.total >= cost {
            break;
        }
        // Both costs are finite here: the initial cost was checked above
        // and evaluate_candidates drops non-finite candidates.
        let improvement = (cost - new_report.total) / cost.max(f64::MIN_POSITIVE);
        current = pschema;
        cost = new_report.total;
        report = new_report;
        let now = evaluator.stats();
        trajectory.push(IterationReport {
            iteration,
            cost,
            candidates: candidates.len(),
            dropped,
            applied: Some(t.to_string()),
            eval: now.since(&eval_snapshot),
        });
        eval_snapshot = now;
        if config.improvement_threshold > 0.0 && improvement < config.improvement_threshold {
            break;
        }
        if let Some(exceeded) = budget_exceeded(&governor) {
            outcome = exceeded.into();
            break;
        }
    }

    Ok(SearchResult {
        pschema: current,
        cost,
        report,
        trajectory,
        outcome,
        dropped_candidates,
        dropped_diagnostics,
        eval: evaluator.stats(),
        sched: Some(sched),
    })
}

fn budget_exceeded(governor: &Option<Governor>) -> Option<BudgetExceeded> {
    governor.as_ref().and_then(|g| g.checkpoint().err())
}

/// Coarse per-candidate materialization estimate charged against
/// [`Budget::max_memory_bytes`]: the candidate p-schema, its mapping, and
/// the translated statements scale with the number of types.
fn estimate_candidate_bytes(pschema: &PSchema) -> u64 {
    pschema.schema().len() as u64 * 4096
}

/// One candidate's evaluation verdict (see `evaluate_candidates`).
enum Eval {
    /// Applied and priced to a finite cost. The report is boxed to keep
    /// the enum (and the per-candidate result vectors) small.
    Priced(Transformation, PSchema, Box<CostReport>),
    /// Failed to apply/price, hit an injected fault, or priced non-finite.
    /// Carries a diagnostic naming the move and the reason, when known.
    Dropped(Option<String>),
    /// Not evaluated: the budget was already exhausted.
    Skipped,
}

/// Evaluate all candidates, optionally in parallel, with per-candidate
/// fault isolation: a candidate that panics, fails to apply or price, or
/// prices to a non-finite cost is dropped and counted (a candidate that
/// cannot be priced cannot be chosen — and must not abort the search).
/// Candidates are priced incrementally against the parent's report
/// through the shared evaluator (one lock-striped memo serving every
/// worker). Returns the priced survivors, one diagnostic per dropped
/// candidate, the dropped count, and the iteration's scheduling
/// telemetry.
type PricedCandidate = (Transformation, PSchema, CostReport);

#[allow(clippy::too_many_arguments)]
fn evaluate_candidates(
    current: &PSchema,
    parent: &CostReport,
    candidates: &[Transformation],
    stats: &Statistics,
    workload: &Workload,
    evaluator: &CostEvaluator,
    config: &SearchConfig,
    governor: Option<&Governor>,
    steal_seed: u64,
) -> (Vec<PricedCandidate>, Vec<String>, usize, StealReport) {
    let evaluate_one = |t: &Transformation| -> Eval {
        if let Some(g) = governor {
            if g.checkpoint().is_err() {
                return Eval::Skipped;
            }
            g.note_evaluations(1);
        }
        if fault::failpoint("core.search.candidate", &t.to_string()).is_err() {
            return Eval::Dropped(Some(format!("{t}: injected fault")));
        }
        let (pschema, delta) = match apply(current, t) {
            Ok(applied) => applied,
            Err(e) => return Eval::Dropped(Some(format!("{t}: {e}"))),
        };
        let report = match evaluator.evaluate_incremental(&pschema, stats, workload, parent, &delta)
        {
            Ok(report) => report,
            Err(e) => return Eval::Dropped(Some(e.with_transformation(t).to_string())),
        };
        if !report.total.is_finite() {
            return Eval::Dropped(Some(format!("{t}: non-finite cost {}", report.total)));
        }
        if let Some(g) = governor {
            g.note_memory(estimate_candidate_bytes(&pschema));
        }
        Eval::Priced(t.clone(), pschema, Box::new(report))
    };
    let threads = if config.parallel {
        legodb_util::par::available_threads()
    } else {
        1
    };
    let mut priced = Vec::new();
    let mut diagnostics = Vec::new();
    let mut dropped = 0;
    let (results, sched) = steal_map_catch(candidates, threads, steal_seed, evaluate_one);
    for (t, result) in candidates.iter().zip(results) {
        match result {
            Ok(Eval::Priced(t, pschema, report)) => priced.push((t, pschema, *report)),
            Ok(Eval::Dropped(msg)) => {
                dropped += 1;
                diagnostics.push(msg.unwrap_or_else(|| format!("{t}: dropped")));
            }
            Err(_) => {
                dropped += 1;
                diagnostics.push(format!("{t}: panicked during evaluation"));
            }
            Ok(Eval::Skipped) => {}
        }
    }
    (priced, diagnostics, dropped, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legodb_schema::parse_schema;

    fn schema() -> Schema {
        parse_schema(
            "type IMDB = imdb[ Show{0,*} ]
             type Show = show [ title[ String ], year[ Integer ],
                                description[ String ], Aka{0,*} ]
             type Aka = aka[ String ]",
        )
        .unwrap()
    }

    fn stats() -> Statistics {
        let mut s = Statistics::new();
        s.set_count(&["imdb"], 1)
            .set_count(&["imdb", "show"], 20000)
            .set_size(&["imdb", "show", "title"], 50.0)
            .set_distinct(&["imdb", "show", "title"], 20000)
            .set_count(&["imdb", "show", "year"], 20000)
            .set_base(&["imdb", "show", "year"], 1900, 2000, 100)
            .set_count(&["imdb", "show", "description"], 20000)
            .set_size(&["imdb", "show", "description"], 2000.0)
            .set_count(&["imdb", "show", "aka"], 60000)
            .set_size(&["imdb", "show", "aka"], 40.0);
        s
    }

    fn lookup_workload() -> Workload {
        Workload::from_sources([(
            "lookup",
            r#"FOR $v IN document("x")/imdb/show WHERE $v/title = c1 RETURN $v/year"#,
            1.0,
        )])
        .unwrap()
    }

    #[test]
    fn search_monotonically_improves() {
        let result = greedy_search(
            &schema(),
            &stats(),
            &lookup_workload(),
            &SearchConfig {
                start: StartPoint::MaximallyInlined,
                ..Default::default()
            },
        )
        .unwrap();
        let costs: Vec<f64> = result.trajectory.iter().map(|r| r.cost).collect();
        assert!(costs.windows(2).all(|w| w[1] <= w[0]), "{costs:?}");
        assert_eq!(result.cost, *costs.last().unwrap());
    }

    #[test]
    fn lookup_workload_fragments_the_fat_table() {
        // Injected faults could drop the candidates this asserts on; the
        // robustness invariants are covered by the fault properties.
        let _quiet = fault::override_for_test(None);
        // Show carries a 2 KB description and is only ever probed by
        // title: the search should fragment it (outline the filter column
        // for a narrow selection scan, or the fat description) — paper §2:
        // "the large Description element need not be inlined unless it is
        // frequently queried".
        let result = greedy_search(
            &schema(),
            &stats(),
            &lookup_workload(),
            &SearchConfig {
                start: StartPoint::MaximallyInlined,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            result.trajectory.len() >= 2,
            "expected at least one outline move"
        );
        assert!(
            result.pschema.schema().len() > 3,
            "expected new outlined types:\n{}",
            result.pschema.schema()
        );
        let initial = result.trajectory[0].cost;
        assert!(
            result.cost < 0.5 * initial,
            "cost {initial} -> {} too small a win",
            result.cost
        );
    }

    #[test]
    fn publish_workload_keeps_narrow_columns_inline() {
        // With only narrow columns there is nothing to gain from
        // fragmentation: publishing pays a join per extra table.
        let mut narrow_stats = stats();
        narrow_stats.set_size(&["imdb", "show", "description"], 20.0);
        let publish = Workload::from_sources([(
            "publish",
            r#"FOR $v IN document("x")/imdb/show RETURN $v"#,
            1.0,
        )])
        .unwrap();
        let result = greedy_search(
            &schema(),
            &narrow_stats,
            &publish,
            &SearchConfig {
                start: StartPoint::MaximallyInlined,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            result.trajectory.len(),
            1,
            "publish over narrow columns should stay fully inlined:\n{}",
            result.pschema.schema()
        );
    }

    #[test]
    fn both_starts_converge_to_similar_costs() {
        // Injected faults can prune the two starts' move sets
        // asymmetrically; compare them fault-free.
        let _quiet = fault::override_for_test(None);
        let w = lookup_workload();
        let si = greedy_search(
            &schema(),
            &stats(),
            &w,
            &SearchConfig {
                start: StartPoint::MaximallyInlined,
                ..Default::default()
            },
        )
        .unwrap();
        let so = greedy_search(
            &schema(),
            &stats(),
            &w,
            &SearchConfig {
                start: StartPoint::MaximallyOutlined,
                ..Default::default()
            },
        )
        .unwrap();
        let ratio = si.cost / so.cost;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "si={} so={} should converge to similar costs",
            si.cost,
            so.cost
        );
    }

    #[test]
    fn sequential_and_parallel_searches_agree_bit_for_bit() {
        // Scheduling never changes results: one worker and the
        // work-stealing deques price identically — same final cost bits,
        // same trajectory, same applied moves.
        let run = |parallel| {
            greedy_search(
                &schema(),
                &stats(),
                &lookup_workload(),
                &SearchConfig {
                    parallel,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let (seq, par) = (run(false), run(true));
        assert_eq!(seq.cost.to_bits(), par.cost.to_bits());
        assert_eq!(seq.trajectory.len(), par.trajectory.len());
        for (a, b) in seq.trajectory.iter().zip(&par.trajectory) {
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.applied, b.applied);
        }
        let seq_sched = seq.sched.expect("sequential telemetry");
        assert_eq!(seq_sched.workers, 1);
        assert_eq!(seq_sched.steals, 0);
        let par_sched = par.sched.expect("parallel telemetry");
        assert_eq!(par_sched.items(), seq_sched.items());
        assert!(par_sched.workers >= 1);
    }

    #[test]
    fn zero_deadline_returns_initial_configuration_as_best_so_far() {
        let result = greedy_search(
            &schema(),
            &stats(),
            &lookup_workload(),
            &SearchConfig {
                budget: Some(Budget::none().with_deadline(std::time::Duration::ZERO)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.outcome, SearchOutcome::DeadlineExceeded);
        assert_eq!(result.trajectory.len(), 1);
        assert_eq!(result.cost, result.trajectory[0].cost);
    }

    #[test]
    fn evaluation_budget_stops_with_best_so_far() {
        let unbounded = greedy_search(
            &schema(),
            &stats(),
            &lookup_workload(),
            &SearchConfig::default(),
        )
        .unwrap();
        let bounded = greedy_search(
            &schema(),
            &stats(),
            &lookup_workload(),
            &SearchConfig {
                budget: Some(Budget::none().with_max_evaluations(1)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(bounded.outcome, SearchOutcome::BudgetExhausted);
        // Best-so-far never exceeds the starting cost, and a bounded
        // search cannot beat the unbounded one.
        assert!(bounded.cost <= bounded.trajectory[0].cost);
        assert!(bounded.cost >= unbounded.cost);
    }

    #[test]
    fn memory_budget_stops_with_best_so_far() {
        let result = greedy_search(
            &schema(),
            &stats(),
            &lookup_workload(),
            &SearchConfig {
                budget: Some(Budget::none().with_max_memory_bytes(1)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.outcome, SearchOutcome::BudgetExhausted);
        assert!(result.cost <= result.trajectory[0].cost);
    }

    #[test]
    fn injected_candidate_panics_are_contained() {
        let _guard =
            fault::override_for_test(fault::FaultConfig::always(3, fault::FaultMode::Panic));
        for parallel in [false, true] {
            let result = greedy_search(
                &schema(),
                &stats(),
                &lookup_workload(),
                &SearchConfig {
                    parallel,
                    ..Default::default()
                },
            )
            .unwrap();
            // Every candidate panicked, so the search must hold the
            // initial configuration and report the drops.
            assert_eq!(result.outcome, SearchOutcome::Converged);
            assert!(result.dropped_candidates > 0, "parallel={parallel}");
            assert_eq!(result.trajectory.len(), 1);
            assert_eq!(result.cost, result.trajectory[0].cost);
        }
    }

    #[test]
    fn memoization_does_not_change_the_search() {
        // The reuse failpoint perturbs the memo counters asserted below.
        let _quiet = fault::override_for_test(None);
        // Two independent branches: moves in one branch can reuse the
        // other branch's query pricing.
        let two_branch = parse_schema(
            "type IMDB = imdb[ Show{0,*}, Studio{0,*} ]
             type Show = show [ title[ String ], year[ Integer ],
                                description[ String ], Aka{0,*} ]
             type Aka = aka[ String ]
             type Studio = studio[ sname[ String ],
                                   addr[ street[ String ], city[ String ] ] ]",
        )
        .unwrap();
        let mut s = stats();
        s.set_count(&["imdb", "studio"], 500)
            .set_size(&["imdb", "studio", "sname"], 30.0)
            .set_distinct(&["imdb", "studio", "sname"], 500)
            .set_size(&["imdb", "studio", "addr", "street"], 2000.0)
            .set_size(&["imdb", "studio", "addr", "city"], 20.0);
        let w = Workload::from_sources([
            (
                "lookup",
                r#"FOR $v IN document("x")/imdb/show WHERE $v/title = c1 RETURN $v/year"#,
                0.5,
            ),
            (
                "studios",
                r#"FOR $u IN document("x")/imdb/studio WHERE $u/sname = c2 RETURN $u/sname"#,
                0.5,
            ),
        ])
        .unwrap();
        let on = greedy_search(&two_branch, &s, &w, &SearchConfig::default()).unwrap();
        let off = greedy_search(
            &two_branch,
            &s,
            &w,
            &SearchConfig {
                memoize: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Bit-identical trajectory and final cost either way.
        assert_eq!(on.cost.to_bits(), off.cost.to_bits());
        assert_eq!(on.trajectory.len(), off.trajectory.len());
        for (a, b) in on.trajectory.iter().zip(&off.trajectory) {
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.applied, b.applied);
        }
        // The control arm never reuses; the incremental arm does real work
        // avoidance once the search moves past the first iteration.
        assert_eq!(off.eval.reused + off.eval.memo_hits, 0, "{}", off.eval);
        assert!(off.eval.recosted > 0);
        assert!(
            on.eval.reused + on.eval.memo_hits > 0,
            "expected some avoided pricings: {}",
            on.eval
        );
    }

    #[test]
    fn dropped_candidates_are_named_in_diagnostics() {
        let _guard =
            fault::override_for_test(fault::FaultConfig::always(7, fault::FaultMode::Error));
        let result = greedy_search(
            &schema(),
            &stats(),
            &lookup_workload(),
            &SearchConfig::default(),
        )
        .unwrap();
        assert!(result.dropped_candidates > 0);
        assert_eq!(
            result.dropped_diagnostics.len() as u64,
            result.dropped_candidates
        );
        // Every diagnostic names the move (inlined start => outline moves).
        assert!(
            result
                .dropped_diagnostics
                .iter()
                .all(|d| d.contains("outline(")),
            "{:?}",
            result.dropped_diagnostics
        );
    }

    #[test]
    fn max_iterations_caps_the_search() {
        let result = greedy_search(
            &schema(),
            &stats(),
            &lookup_workload(),
            &SearchConfig {
                start: StartPoint::MaximallyOutlined,
                max_iterations: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(result.trajectory.len() <= 2);
    }
}
