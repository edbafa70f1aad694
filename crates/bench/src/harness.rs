//! Shared experiment machinery: the paper's storage configurations, query
//! costing helpers, and markdown rendering. Each `fig*`/`tab*` function
//! returns the experiment's report as markdown; the binaries print it and
//! `all_experiments` assembles `EXPERIMENTS.md`.

use legodb_core::cost::pschema_cost;
use legodb_core::search::{greedy_search, SearchConfig, StartPoint};
use legodb_core::transform::{apply, Transformation};
use legodb_core::workload::Workload;
use legodb_core::LegoDb;
use legodb_imdb::queries::QUERIES;
use legodb_imdb::stats::with_review_split;
use legodb_imdb::{
    fig5_queries, generate_imdb, imdb_schema, lookup_workload, publish_workload, query,
    scaled_statistics, workload_w1, workload_w2, ScaleConfig,
};
use legodb_optimizer::OptimizerConfig;
use legodb_pschema::{derive_pschema, rel, shred, InlineStyle, PSchema};
use legodb_relational::Database;
use legodb_schema::mega::Occurrence;
use legodb_schema::{mega_schema, MegaConfig, MegaSchema, TypeName};
use legodb_util::fs::DirHandle;
use legodb_util::StdRng;
use legodb_xml::stats::Statistics;
use legodb_xquery::XQuery;
use std::fmt::Write as _;

/// Statistics scale used by the experiments (full Appendix A numbers).
pub const STATS_SCALE: f64 = 1.0;

/// The engine over the IMDB application with an arbitrary workload.
pub fn engine(workload: Workload) -> LegoDb {
    LegoDb::new(imdb_schema(), scaled_statistics(STATS_SCALE), workload)
}

/// Storage Map 1 (Figure 4(a)): ALL-INLINED — unions to options, then
/// maximal inlining.
pub fn map_all_inlined() -> PSchema {
    engine(Workload::new()).all_inlined_pschema()
}

/// Storage Map 2 (Figure 4(b)): ALL-INLINED with the review wildcard
/// materialized into NYT vs other sources.
pub fn map_wildcard_materialized() -> PSchema {
    let base = map_all_inlined();
    apply(
        &base,
        &Transformation::WildcardMaterialize {
            wildcard_type: TypeName::new("Review"),
            name: "nyt".into(),
        },
    )
    // lint: allow(no-unwrap-in-lib) — fixture transform on the compiled-in IMDB schema; a failure is a harness bug
    .expect("review wildcard materializes")
    .0
}

/// Storage Map 3 (Figure 4(c)): the Show union distributed into
/// Show_Part1 (movies) / Show_Part2 (TV).
pub fn map_union_distributed() -> PSchema {
    let e = engine(Workload::new());
    let base = e.initial_pschema(StartPoint::MaximallyInlined);
    apply(
        &base,
        &Transformation::UnionDistribute {
            in_type: TypeName::new("Show"),
        },
    )
    // lint: allow(no-unwrap-in-lib) — fixture transform on the compiled-in IMDB schema; a failure is a harness bug
    .expect("show union distributes")
    .0
}

/// Unweighted cost of one query on a configuration.
pub fn query_cost(pschema: &PSchema, stats: &Statistics, name: &str, q: &XQuery) -> f64 {
    let mut w = Workload::new();
    w.push(name, q.clone(), 1.0);
    pschema_cost(pschema, stats, &w, &OptimizerConfig::default())
        .map(|r| r.total)
        .unwrap_or(f64::INFINITY)
}

/// Weighted workload cost of a configuration.
pub fn workload_cost(pschema: &PSchema, stats: &Statistics, w: &Workload) -> f64 {
    pschema_cost(pschema, stats, w, &OptimizerConfig::default())
        .map(|r| r.total)
        .unwrap_or(f64::INFINITY)
}

/// Render a markdown table.
pub fn md_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

fn fmt3(x: f64) -> String {
    format!("{x:.2}")
}

// ------------------------------------------------------------------ E1

/// Figure 6 (§2): normalized estimated costs of the four Figure 5 queries
/// and workloads W1/W2 across Storage Maps 1–3.
pub fn fig06() -> String {
    let stats = scaled_statistics(STATS_SCALE);
    let maps = [
        ("Map 1 (all-inlined)", map_all_inlined()),
        ("Map 2 (wildcard split)", map_wildcard_materialized()),
        ("Map 3 (union dist.)", map_union_distributed()),
    ];
    let queries = fig5_queries();
    let mut rows = Vec::new();
    let mut baseline: Vec<f64> = Vec::new();
    for (qi, (name, q)) in queries.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for (mi, (_, map)) in maps.iter().enumerate() {
            let c = query_cost(map, &stats, name, q);
            if mi == 0 {
                baseline.push(c);
            }
            row.push(fmt3(c / baseline[qi]));
        }
        rows.push(row);
    }
    for (wname, w) in [("W1", workload_w1()), ("W2", workload_w2())] {
        let mut row = vec![wname.to_string()];
        let base = workload_cost(&maps[0].1, &stats, &w);
        for (_, map) in &maps {
            row.push(fmt3(workload_cost(map, &stats, &w) / base));
        }
        rows.push(row);
    }
    let mut out =
        String::from("## E1 — Figure 6: storage map comparison (costs normalized by Map 1)\n\n");
    out.push_str(&md_table(
        &[
            "Query",
            "Map 1 (Fig 4a)",
            "Map 2 (Fig 4b)",
            "Map 3 (Fig 4c)",
        ],
        &rows,
    ));
    out.push_str(
        "\nPaper shape: Map 2 wins review-heavy queries (Q1/W1-style), Map 3 wins \
         lookups and W2 (union distribution narrows Show), Map 1 never wins.\n",
    );
    out
}

// ------------------------------------------------------------------ E2

/// Figure 10 (§5.2): greedy-so vs greedy-si cost per iteration for the
/// lookup and publish workloads.
pub fn fig10() -> String {
    let schema = imdb_schema();
    let stats = scaled_statistics(STATS_SCALE);
    let mut out = String::from("## E2 — Figure 10: greedy convergence per iteration\n\n");
    for (wname, workload) in [
        ("lookup", lookup_workload()),
        ("publish", publish_workload()),
    ] {
        let mut rows = Vec::new();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for start in [StartPoint::MaximallyOutlined, StartPoint::MaximallyInlined] {
            let result = greedy_search(
                &schema,
                &stats,
                &workload,
                &SearchConfig {
                    start,
                    parallel: true,
                    ..Default::default()
                },
            )
            // lint: allow(no-unwrap-in-lib) — experiment harness: abort on a failed search is the right failure mode
            .expect("search succeeds");
            columns.push(result.trajectory.iter().map(|r| r.cost).collect());
        }
        let iterations = columns.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..iterations {
            rows.push(vec![
                i.to_string(),
                columns[0]
                    .get(i)
                    .map(|&c| fmt3(c))
                    .unwrap_or_else(|| "—".into()),
                columns[1]
                    .get(i)
                    .map(|&c| fmt3(c))
                    .unwrap_or_else(|| "—".into()),
            ]);
        }
        let _ = writeln!(out, "### {wname} workload\n");
        out.push_str(&md_table(&["Iteration", "greedy-so", "greedy-si"], &rows));
        out.push('\n');
    }
    out.push_str(
        "Paper shape: greedy-so starts much higher (every element its own table, \
         joins everywhere) and both strategies converge to similar final costs.\n",
    );
    out
}

// ------------------------------------------------------------------ E3

/// Figure 11 (§5.3): workload-sensitivity spectrum.
pub fn fig11() -> String {
    let schema = imdb_schema();
    let stats = scaled_statistics(STATS_SCALE);
    let lookup = lookup_workload();
    let publish = publish_workload();
    let grid: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();

    // Tune configurations for k = 0.25, 0.50, 0.75.
    let mut tuned = Vec::new();
    for k in [0.25, 0.50, 0.75] {
        let mix = lookup.mix(&publish, k);
        let result = greedy_search(
            &schema,
            &stats,
            &mix,
            &SearchConfig {
                parallel: true,
                ..Default::default()
            },
        )
        // lint: allow(no-unwrap-in-lib) — experiment harness: abort on a failed search is the right failure mode
        .expect("search succeeds");
        tuned.push((format!("C[{k:.2}]"), result.pschema));
    }
    tuned.push(("C[ALL-INLINED]".to_string(), map_all_inlined()));

    let mut rows = Vec::new();
    for &k in &grid {
        let mix = lookup.mix(&publish, k);
        let mut row = vec![format!("{k:.1}")];
        for (_, config) in &tuned {
            row.push(fmt3(workload_cost(config, &stats, &mix)));
        }
        // OPT: a fresh greedy search tuned for this k.
        let opt = greedy_search(
            &schema,
            &stats,
            &mix,
            &SearchConfig {
                parallel: true,
                ..Default::default()
            },
        )
        .map(|r| r.cost)
        .unwrap_or(f64::INFINITY);
        row.push(fmt3(opt));
        rows.push(row);
    }
    let mut out = String::from("## E3 — Figure 11: sensitivity to workload variation\n\n");
    out.push_str("k = fraction of lookup queries in the mix; cells are workload costs.\n\n");
    let headers: Vec<&str> = [
        "k",
        "C[0.25]",
        "C[0.50]",
        "C[0.75]",
        "C[ALL-INLINED]",
        "OPT",
    ]
    .to_vec();
    out.push_str(&md_table(&headers, &rows));
    out.push_str(
        "\nPaper shape: the tuned configurations hug OPT over wide regions and \
         cross at a small angle; ALL-INLINED is a constant factor worse across \
         the spectrum.\n",
    );
    out
}

// ------------------------------------------------------------------ E4

/// Figure 13 (§5.4): cost of the union-distributed configuration as a
/// percentage of the all-inlined configuration.
pub fn fig13() -> String {
    let stats = scaled_statistics(STATS_SCALE);
    let inlined = map_all_inlined();
    let distributed = map_union_distributed();
    let mut rows = Vec::new();
    for name in ["Q4", "Q5", "Q6", "Q7", "Q13", "Q16", "Q19"] {
        let q = query(name);
        let a = query_cost(&inlined, &stats, name, &q);
        let c = query_cost(&distributed, &stats, name, &q);
        rows.push(vec![name.to_string(), format!("{:.0}%", 100.0 * c / a)]);
    }
    let mut out = String::from(
        "## E4 — Figure 13: union distribution vs all-inlined (cost as % of all-inlined)\n\n",
    );
    out.push_str(&md_table(
        &["Query", "union-distributed / all-inlined"],
        &rows,
    ));
    out.push_str(
        "\nPaper shape: the union-transformed configuration is cheaper for every \
         query — including Q6, which touches both movie and TV fields. \
         Measured: confirmed for the selection queries (Q4–Q7, Q19, at 45–75%). \
         Deviations: Q13 (the six-way acted-and-directed join) and Q16 \
         (publish-all) come out more expensive under distribution in our model, \
         because every part statement re-scans the shared Aka/Review child \
         tables once per part — a consequence of compiling publishing into \
         independent per-chain SQL statements.\n",
    );
    out
}

// ------------------------------------------------------------------ E5

/// Figure 14 (§5.4): all-inlined vs repetition-split while the number of
/// akas grows.
pub fn fig14() -> String {
    let aka_lookup = Workload::from_sources([(
        "aka-lookup",
        r#"FOR $v IN document("imdbdata")/imdb/show, $a IN $v/aka
           WHERE $v/title = c1
           RETURN $a"#,
        1.0,
    )])
    // lint: allow(no-unwrap-in-lib) — appendix query literal; parse failure is a harness bug
    .expect("query parses");
    let publish_shows = Workload::from_sources([(
        "publish-shows",
        r#"FOR $s IN document("imdbdata")/imdb/show RETURN $s"#,
        1.0,
    )])
    // lint: allow(no-unwrap-in-lib) — appendix query literal; parse failure is a harness bug
    .expect("query parses");

    let mut out = String::from("## E5 — Figure 14: all-inlined vs repetition-split over #akas\n\n");
    let mut rows = Vec::new();
    for total_akas in [40_000u64, 80_000, 160_000, 320_000, 640_000] {
        // The paper's original schema has aka{1,10} (repetition split
        // needs min ≥ 1); annotate the repetition with the per-show
        // average so the split's positional effect (one aka moves inline,
        // the Aka table shrinks by one row per show) is countable.
        let avg = total_akas as f64 / 34_798.0;
        let schema_src = legodb_imdb::schema::IMDB_SCHEMA_SRC
            .replace("Aka{0,10}", &format!("Aka{{1,20}}<#{avg:.3}>"));
        // lint: allow(no-unwrap-in-lib) — schema variant built from the compiled-in constant; parse failure is a harness bug
        let schema = legodb_schema::parse_schema(&schema_src).expect("variant schema parses");
        let mut stats = scaled_statistics(STATS_SCALE);
        stats.set_count(&["imdb", "show", "aka"], total_akas);
        let e = LegoDb::new(schema.clone(), stats.clone(), Workload::new());
        let inlined = e.all_inlined_pschema();
        let split = apply(
            &e.initial_pschema(StartPoint::MaximallyInlined),
            &Transformation::RepetitionSplit {
                in_type: TypeName::new("Show"),
                target: TypeName::new("Aka"),
            },
        )
        // lint: allow(no-unwrap-in-lib) — fixture transform on the compiled-in IMDB schema; a failure is a harness bug
        .expect("aka repetition splits")
        .0;
        // Flatten the remaining union so the comparison isolates the
        // repetition change.
        let split = apply(
            &split,
            &Transformation::UnionToOptions {
                in_type: TypeName::new("Show"),
            },
        )
        .map(|(p, _)| p)
        .unwrap_or(split);
        let price = |w: &Workload, p: &PSchema| workload_cost(p, &stats, w);
        rows.push(vec![
            total_akas.to_string(),
            fmt3(price(&aka_lookup, &inlined)),
            fmt3(price(&aka_lookup, &split)),
            fmt3(price(&publish_shows, &inlined)),
            fmt3(price(&publish_shows, &split)),
        ]);
    }
    out.push_str(&md_table(
        &[
            "total akas",
            "lookup inlined",
            "lookup split",
            "publish inlined",
            "publish split",
        ],
        &rows,
    ));
    out.push_str(
        "\nPaper shape: the split reduces the Aka table's size; the cost \
         difference between the configurations shrinks as the total aka count \
         grows. Measured: the *relative* gap indeed converges toward zero with \
         scale, but in our model the split never wins outright — the split \
         schema answers aka queries from two places (the inlined first \
         occurrence and the residual table), and the extra union branch \
         outweighs the smaller Aka table. Documented deviation.\n",
    );
    out
}

// ------------------------------------------------------------------ E6

/// Table 2 (§5.4): all-inlined vs wildcard-materialized for
/// *find the NYT reviews of 1999 shows*, varying the NYT share.
pub fn tab02() -> String {
    let nyt_query = Workload::from_sources([(
        "nyt-1999",
        r#"FOR $v IN document("imdbdata")/imdb/show, $r IN $v/review
           WHERE $v/year = 1999
           RETURN $v/title, $r/nyt"#,
        1.0,
    )])
    // lint: allow(no-unwrap-in-lib) — appendix query literal; parse failure is a harness bug
    .expect("query parses");
    let mut out = String::from(
        "## E6 — Table 2: all-inlined vs wildcard-materialized (NYT review lookup)\n\n",
    );
    let mut rows = Vec::new();
    for total in [10_000u64, 100_000] {
        for pct in [0.5, 0.25, 0.125] {
            let stats = with_review_split(scaled_statistics(STATS_SCALE), total, pct);
            let e = LegoDb::new(imdb_schema(), stats.clone(), Workload::new());
            let inlined = e.all_inlined_pschema();
            let wild = apply(
                &inlined,
                &Transformation::WildcardMaterialize {
                    wildcard_type: TypeName::new("Review"),
                    name: "nyt".into(),
                },
            )
            // lint: allow(no-unwrap-in-lib) — fixture transform on the compiled-in IMDB schema; a failure is a harness bug
            .expect("review wildcard materializes")
            .0;
            rows.push(vec![
                total.to_string(),
                format!("{:.1}%", pct * 100.0),
                fmt3(workload_cost(&inlined, &stats, &nyt_query)),
                fmt3(workload_cost(&wild, &stats, &nyt_query)),
            ]);
        }
    }
    out.push_str(&md_table(
        &["total reviews", "NYT share", "inlined", "wildcard split"],
        &rows,
    ));
    out.push_str(
        "\nPaper shape: the inlined cost is flat in the NYT share; the \
         materialized cost shrinks proportionally to it, and the advantage grows \
         with the total review count.\n",
    );
    out
}

// ------------------------------------------------------------------ E7

/// Cost-model validation: optimizer estimates vs executor measurements on
/// generated data (the analogue of the paper's ±10% SQL Server check,
/// §5 preamble).
pub fn validate_cost_model() -> String {
    use legodb_imdb::{generate_imdb, ScaleConfig};
    use legodb_pschema::{rel, shred};
    use legodb_relational::exec::run;
    use legodb_util::StdRng;
    use legodb_xquery::translate;

    let schema = imdb_schema();
    let mut rng = StdRng::seed_from_u64(2002);
    let config = ScaleConfig::at_scale(0.002);
    let doc = generate_imdb(&mut rng, &config);
    let measured_stats = Statistics::collect(&doc);
    let e = LegoDb::new(schema, measured_stats.clone(), Workload::new());
    let pschema = e.initial_pschema(StartPoint::MaximallyInlined);
    let mapping = rel(&pschema, &measured_stats);
    // lint: allow(no-unwrap-in-lib) — generator output matches its own schema; abort on mismatch is the right failure mode
    let db = shred(&mapping, &doc).expect("generated data shreds");

    let mut out = String::from(
        "## E7 — Cost-model validation: estimated vs executed\n\n\
         Generated data at 1/500 scale; per-query estimated output rows and read \
         pages vs the executor's observed counters.\n\n",
    );
    let mut rows = Vec::new();
    for name in ["Q1", "Q3", "Q7", "Q16", "Q19"] {
        let q = query(name);
        // lint: allow(no-unwrap-in-lib) — appendix queries translate under every mapping the harness builds
        let t = translate(&mapping, &q).expect("query translates");
        let mut est_rows = 0.0;
        let mut est_pages = 0.0;
        let mut got_rows = 0u64;
        let mut got_pages = 0.0;
        for statement in &t.statements {
            let opt = legodb_optimizer::optimize_statement(
                &mapping.catalog,
                statement,
                &OptimizerConfig::default(),
            )
            // lint: allow(no-unwrap-in-lib) — experiment harness: abort on an optimizer failure is the right failure mode
            .expect("statement optimizes");
            est_rows += opt.rows;
            est_pages += opt.cost.pages_read;
            // lint: allow(no-unwrap-in-lib) — experiment harness: abort on an executor failure is the right failure mode
            let (result, counters) = run(&db, &opt.plan).expect("plan executes");
            got_rows += result.len() as u64;
            got_pages += counters.pages_read;
        }
        rows.push(vec![
            name.to_string(),
            format!("{est_rows:.0}"),
            got_rows.to_string(),
            format!("{est_pages:.1}"),
            format!("{got_pages:.1}"),
        ]);
    }
    out.push_str(&md_table(
        &[
            "Query",
            "est. rows",
            "actual rows",
            "est. pages",
            "actual pages",
        ],
        &rows,
    ));
    out.push_str("\nEstimates should track measurements within a small factor.\n");
    out
}

/// Every Appendix C query priced on the all-inlined configuration — a
/// smoke check that the full workload costs end to end.
pub fn full_workload_costs() -> String {
    let stats = scaled_statistics(STATS_SCALE);
    let inlined = map_all_inlined();
    let mut rows = Vec::new();
    for (name, _) in QUERIES {
        let q = query(name);
        rows.push(vec![
            name.to_string(),
            fmt3(query_cost(&inlined, &stats, name, &q)),
        ]);
    }
    let mut out = String::from("## Appendix — all twenty queries on ALL-INLINED\n\n");
    out.push_str(&md_table(&["Query", "cost"], &rows));
    out
}

// ------------------------------------------------------------------ E7

/// `search_incremental` (DESIGN.md §11): greedy-si over the IMDB
/// application — the §5.2 lookup + publish mix — with incremental
/// costing and memoization on vs. off. The off arm reprices every
/// candidate from scratch (exactly the pre-incremental pipeline), so
/// the two wall clocks measure what the `CostEvaluator` saves, and the
/// final costs must agree bit-for-bit. Records are appended as
/// JSON-lines to `$LEGODB_BENCH_JSON`, or `BENCH_search.json` when
/// unset, so CI can assert a nonzero cache hit rate.
pub fn search_incremental() -> String {
    let schema = imdb_schema();
    let stats = scaled_statistics(STATS_SCALE);
    // The branch-balanced mix of Appendix C lookups: every query whose
    // footprint spans at most four types, covering each schema branch
    // (Show, TV, Movie, Episode, Actor, Played, Director, Directed,
    // Award), equally weighted. Each candidate transformation touches
    // one branch, so this workload exhibits the footprint structure
    // incremental costing exploits; an all-publish workload whose every
    // query reads every table would show the memo floor instead.
    let names = [
        "Q1", "Q2", "Q3", "Q4", "Q5", "Q7", "Q8", "Q9", "Q10", "Q11", "Q15", "Q17", "Q18", "Q20",
    ];
    let mut workload = Workload::new();
    for name in names {
        workload.push(name.to_string(), query(name), 1.0 / names.len() as f64);
    }
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut wall_ms = [0.0f64; 2];
    let mut costs = [0.0f64; 2];
    for (idx, memoize) in [false, true].into_iter().enumerate() {
        // Sequential candidate evaluation: with parallel workers the
        // iteration wall clock is set by the slowest candidate (which
        // must recost everything it touched in both arms), hiding the
        // work the evaluator avoids. The sequential arms compare total
        // evaluation work apples-to-apples.
        let config = SearchConfig {
            start: StartPoint::MaximallyInlined,
            parallel: false,
            memoize,
            ..Default::default()
        };
        let (result, elapsed) = legodb_util::bench::time_once(|| {
            // lint: allow(no-unwrap-in-lib) — experiment harness: abort on a failed search is the right failure mode
            greedy_search(&schema, &stats, &workload, &config).expect("search succeeds")
        });
        let eval = result.eval;
        wall_ms[idx] = elapsed.as_secs_f64() * 1e3;
        costs[idx] = result.cost;
        rows.push(vec![
            if memoize { "on" } else { "off" }.to_string(),
            format!("{:.1}", wall_ms[idx]),
            eval.reused.to_string(),
            eval.memo_hits.to_string(),
            eval.recosted.to_string(),
            format!("{:.0}%", eval.hit_rate() * 100.0),
            fmt3(result.cost),
        ]);
        records.push(
            legodb_util::json::JsonObject::new()
                .str("experiment", "search_incremental")
                .str("memoize", if memoize { "on" } else { "off" })
                .f64("wall_ms", wall_ms[idx])
                .f64("cost", result.cost)
                .u64("reused", eval.reused)
                .u64("memo_hits", eval.memo_hits)
                .u64("recosted", eval.recosted)
                .f64("hit_rate", eval.hit_rate())
                .finish(),
        );
    }
    let speedup = wall_ms[0] / wall_ms[1].max(1e-9);
    records.push(
        legodb_util::json::JsonObject::new()
            .str("experiment", "search_incremental")
            .u64("summary", 1)
            .f64("speedup", speedup)
            .finish(),
    );
    let path = std::env::var_os("LEGODB_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_search.json"));
    if let Err(e) = legodb_util::bench::append_json_lines(&path, records) {
        eprintln!("bench: cannot write {}: {e}", path.display());
    }
    let mut out = String::from("## E7 — incremental candidate costing: memoization on vs. off\n\n");
    out.push_str(&md_table(
        &[
            "Memoization",
            "wall ms",
            "reused",
            "memo hits",
            "recosted",
            "avoided",
            "final cost",
        ],
        &rows,
    ));
    let _ = writeln!(
        out,
        "\nSpeedup: {speedup:.2}x; final costs bit-identical: {}.",
        if costs[0].to_bits() == costs[1].to_bits() {
            "yes"
        } else {
            "NO — INVESTIGATE"
        },
    );
    out
}

// ------------------------------------------------------------------ E8

/// A workload over a generated mega-schema: lookups probing the key
/// column of types spread across the whole tree (narrow footprints —
/// the shape incremental costing exploits), plus publishes of two
/// root-child subtrees (wide footprints that must recost often). All
/// paths are absolute document-rooted descents, the same dialect as the
/// Appendix C queries.
pub fn mega_workload(mega: &MegaSchema) -> Workload {
    let targets: Vec<&legodb_schema::MegaType> = mega
        .types
        .iter()
        .filter(|t| t.depth >= 1 && t.occurrence != Occurrence::UnionBranch)
        .collect();
    let mut w = Workload::new();
    if targets.is_empty() {
        // A 1-type schema: probe the root itself.
        let root = &mega.types[0];
        let path = root.path.join("/");
        let src = format!(
            r#"FOR $v IN document("mega")/{path} WHERE $v/{} = c1 RETURN $v/{}"#,
            root.key, root.payload
        );
        // lint: allow(no-unwrap-in-lib) — generated query text is valid by construction; tests cover the generator
        w.push_src("lookup0", &src, 1.0).expect("lookup parses");
        return w;
    }
    // Twelve lookups, evenly spaced over the BFS order so every depth
    // band and branch is represented.
    let lookups = 12.min(targets.len());
    let mut picked = Vec::with_capacity(lookups);
    for k in 0..lookups {
        picked.push(targets[k * targets.len() / lookups]);
    }
    let weight = 1.0 / (picked.len() as f64 + 2.0);
    for t in picked {
        let path = t.path.join("/");
        let src = format!(
            r#"FOR $v IN document("mega")/{path} WHERE $v/{} = c1 RETURN $v/{}"#,
            t.key, t.payload
        );
        w.push_src(format!("lookup{}", t.index), &src, weight)
            // lint: allow(no-unwrap-in-lib) — generated query text is valid by construction; tests cover the generator
            .expect("lookup parses");
    }
    // Two publishes of root-child subtrees (or the root when the tree is
    // a single spine).
    let publishes: Vec<&&legodb_schema::MegaType> =
        targets.iter().filter(|t| t.depth == 1).take(2).collect();
    for t in publishes {
        let path = t.path.join("/");
        let src = format!(r#"FOR $v IN document("mega")/{path} RETURN $v"#);
        w.push_src(format!("publish{}", t.index), &src, weight)
            // lint: allow(no-unwrap-in-lib) — generated query text is valid by construction; tests cover the generator
            .expect("publish parses");
    }
    w
}

/// Greedy-iteration cap per scale: at 1× the search runs to convergence
/// (the paper's regime); at larger scales the iteration count is capped
/// so the bench measures *scheduling* at a fixed amount of search work
/// rather than letting wall-clock grow with the (scale-dependent) number
/// of improving moves.
fn scale_iteration_cap(scale: usize) -> usize {
    match scale {
        0..=1 => 0,
        2..=10 => 8,
        _ => 1,
    }
}

/// `search_scale` (DESIGN.md §13): the greedy search over generated
/// mega-schemas at 1×/10×/100× the IMDB type count, with candidates
/// priced sequentially (one worker) and on the work-stealing deques. Both
/// arms must agree on the final cost bit-for-bit (scheduling never
/// changes results); the JSON records capture wall-clock, steal counts,
/// and worker occupancy, and a per-scale summary records the
/// steal-vs-sequential speedup the CI gate enforces at 10×.
///
/// Knobs: `LEGODB_SCALE_LIST` (comma-separated scale factors, default
/// `1,10,100`) and `LEGODB_SCALE_REPS` (wall-clock repetitions per arm,
/// minimum taken, default 2).
pub fn search_scale() -> String {
    let scales: Vec<usize> = std::env::var("LEGODB_SCALE_LIST")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|x| x.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 10, 100]);
    let reps: usize = std::env::var("LEGODB_SCALE_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
        .max(1);

    let arms: [(&str, bool); 2] = [("sequential", false), ("work-stealing", true)];

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut out = String::from(
        "## E8 — search at scale: sequential vs work-stealing\n\n\
         Generated mega-schemas (seed 0), 12 lookups + 2 publishes, \
         greedy-si, incremental costing on.\n\n",
    );
    for &scale in &scales {
        let mega = mega_schema(&MegaConfig::imdb_scaled(scale));
        let workload = mega_workload(&mega);
        let cap = scale_iteration_cap(scale);
        let mut wall = vec![f64::INFINITY; arms.len()];
        let mut cost_bits = vec![0u64; arms.len()];
        let mut iterations = vec![0usize; arms.len()];
        let mut steal_line = String::new();
        for (a, (arm, parallel)) in arms.iter().enumerate() {
            let config = SearchConfig {
                start: StartPoint::MaximallyInlined,
                parallel: *parallel,
                max_iterations: cap,
                ..Default::default()
            };
            let mut last = None;
            for _ in 0..reps {
                let (result, elapsed) = legodb_util::bench::time_once(|| {
                    greedy_search(&mega.schema, &mega.stats, &workload, &config)
                        // lint: allow(no-unwrap-in-lib) — experiment harness: abort on a failed search is the right failure mode
                        .expect("search succeeds")
                });
                // Minimum across repetitions: scheduling wins are about
                // the achievable wall-clock, not scheduler-independent
                // noise from the shared CI machine.
                wall[a] = wall[a].min(elapsed.as_secs_f64() * 1e3);
                last = Some(result);
            }
            // lint: allow(no-unwrap-in-lib) — reps >= 1, so the loop body ran
            let result = last.expect("at least one repetition ran");
            cost_bits[a] = result.cost.to_bits();
            iterations[a] = result.trajectory.len() - 1;
            let sched = result.sched.unwrap_or_default();
            records.push(
                legodb_util::json::JsonObject::new()
                    .str("experiment", "search_scale")
                    .u64("scale", scale as u64)
                    .str("arm", arm)
                    .f64("wall_ms", wall[a])
                    .f64("cost", result.cost)
                    .u64("iterations", iterations[a] as u64)
                    .u64("evaluations", result.eval.total())
                    .u64("workers", sched.workers as u64)
                    .u64("steals", sched.steals)
                    .u64("failed_steals", sched.failed_steals)
                    .f64("occupancy", sched.occupancy())
                    .finish(),
            );
            steal_line = format!(
                "scale {scale}: {} steals over {} items on {} workers",
                sched.steals,
                sched.items(),
                sched.workers
            );
            rows.push(vec![
                format!("{scale}x"),
                mega.types.len().to_string(),
                arm.to_string(),
                format!("{:.1}", wall[a]),
                iterations[a].to_string(),
                sched.steals.to_string(),
                format!("{:.0}%", sched.occupancy() * 100.0),
                fmt3(f64::from_bits(cost_bits[a])),
            ]);
        }
        let cost_match = cost_bits.iter().all(|&b| b == cost_bits[0]);
        let speedup_vs_sequential = wall[0] / wall[1].max(1e-9);
        records.push(
            legodb_util::json::JsonObject::new()
                .str("experiment", "search_scale")
                .u64("scale", scale as u64)
                .u64("summary", 1)
                .f64("steal_speedup_vs_sequential", speedup_vs_sequential)
                .u64("cost_match", u64::from(cost_match))
                .finish(),
        );
        let _ = writeln!(
            out,
            "- {scale}×: work-stealing {speedup_vs_sequential:.2}x vs sequential; \
             {steal_line}; \
             final costs bit-identical: {}.",
            if cost_match {
                "yes"
            } else {
                "NO — INVESTIGATE"
            }
        );
    }
    let path = std::env::var_os("LEGODB_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_search.json"));
    if let Err(e) = legodb_util::bench::append_json_lines(&path, records) {
        eprintln!("bench: cannot write {}: {e}", path.display());
    }
    out.push('\n');
    out.push_str(&md_table(
        &[
            "Scale",
            "types",
            "arm",
            "wall ms",
            "iters",
            "steals",
            "occupancy",
            "final cost",
        ],
        &rows,
    ));
    out
}

// ------------------------------------------------------------------ E9

/// Abort the experiment with context on an infrastructure failure — for
/// a bench harness that is the right failure mode, and it keeps the
/// `no-unwrap-in-lib` discipline (one panic site with a message instead
/// of bare `.expect(…)` calls on every durable operation).
fn must<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => panic!("recovery bench: {what}: {e}"),
    }
}

/// Scales for the durability experiment: `LEGODB_RECOVERY_SCALES` is a
/// comma list of corpus percentages (scale unit = 1% of the Appendix A
/// IMDB corpus, ~348 shows); the default `1,10` probes a 10× spread.
fn recovery_scales() -> Vec<u64> {
    std::env::var("LEGODB_RECOVERY_SCALES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 10])
}

/// The durability experiment (DESIGN.md §14): shred a generated IMDB
/// document, stream it into a durable database (WAL append + fsync per
/// table, checkpoint at the halfway point so recovery exercises both the
/// checkpoint restore *and* the WAL tail replay), then reopen and check
/// the recovered state is byte-identical. JSON-lines records land in
/// `BENCH_recovery.json` (or `$LEGODB_BENCH_JSON`); CI gates on
/// `replay_match == 1` at every scale.
pub fn recovery() -> String {
    let pschema = derive_pschema(&imdb_schema(), InlineStyle::Inlined);
    let root = must(
        DirHandle::create("target/bench_recovery"),
        "create working dir",
    );
    let mut rows_out = Vec::new();
    let mut records = Vec::new();

    fn load_tables(db: &mut Database, src: &Database, names: &[String]) {
        for name in names {
            let table = must(src.table(name), "source table");
            must(db.create_table(table.def.clone()), "create table");
            table.for_each(|row| must(db.insert(name, row.clone()), "insert row"));
        }
        must(db.commit(), "commit");
    }

    for scale in recovery_scales() {
        let mut rng = StdRng::seed_from_u64(0x001E_60DB ^ scale);
        let doc = generate_imdb(&mut rng, &ScaleConfig::at_scale(0.01 * scale as f64));
        let stats = Statistics::collect(&doc);
        let mapping = rel(&pschema, &stats);
        let src = must(shred(&mapping, &doc), "shred document");

        let sub = format!("scale_{scale}");
        let _ = root.remove_tree(&sub);
        let dir = must(root.create_subdir(&sub), "create scale dir");
        let mut db = must(Database::open(&dir), "open durable database");
        let names: Vec<String> = src.tables().map(|t| t.def.name.clone()).collect();
        let half = names.len() / 2;

        let ((), first_wall) = legodb_util::bench::time_once(|| {
            load_tables(&mut db, &src, &names[..half]);
        });
        let first_bytes = must(db.wal().map_or(Ok(0), |w| w.len_bytes()), "WAL size");
        let ((), checkpoint_wall) =
            legodb_util::bench::time_once(|| must(db.checkpoint(&dir), "checkpoint"));
        let ((), second_wall) = legodb_util::bench::time_once(|| {
            load_tables(&mut db, &src, &names[half..]);
        });
        let second_bytes = must(db.wal().map_or(Ok(0), |w| w.len_bytes()), "WAL size");

        let wal_bytes = first_bytes + second_bytes;
        let append_secs = (first_wall + second_wall).as_secs_f64();
        let append_mb_s = wal_bytes as f64 / 1e6 / append_secs.max(1e-9);
        let checkpoint_ms = checkpoint_wall.as_secs_f64() * 1e3;

        let (recovered, replay_wall) =
            legodb_util::bench::time_once(|| must(Database::open(&dir), "recovery open"));
        let replay_ms = replay_wall.as_secs_f64() * 1e3;
        let replay_match = recovered.snapshot_json() == db.snapshot_json();
        let total_rows = db.total_rows() as u64;

        rows_out.push(vec![
            format!("{scale}"),
            total_rows.to_string(),
            format!("{:.2}", wal_bytes as f64 / 1e6),
            format!("{append_mb_s:.1}"),
            format!("{checkpoint_ms:.1}"),
            format!("{replay_ms:.1}"),
            if replay_match {
                "yes".to_string()
            } else {
                "NO — INVESTIGATE".to_string()
            },
        ]);
        records.push(
            legodb_util::json::JsonObject::new()
                .str("experiment", "recovery")
                .u64("scale", scale)
                .u64("rows", total_rows)
                .u64("wal_bytes", wal_bytes)
                .f64("append_mb_s", append_mb_s)
                .f64("checkpoint_ms", checkpoint_ms)
                .f64("replay_ms", replay_ms)
                .u64("replay_match", u64::from(replay_match))
                .finish(),
        );
    }

    let path = std::env::var_os("LEGODB_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_recovery.json"));
    if let Err(e) = legodb_util::bench::append_json_lines(&path, records) {
        eprintln!("bench: cannot write {}: {e}", path.display());
    }
    let mut out =
        String::from("## E9 — durable load, checkpoint, and WAL replay (scale unit = 1% IMDB)\n\n");
    out.push_str(&md_table(
        &[
            "Scale",
            "rows",
            "WAL MB",
            "append MB/s",
            "checkpoint ms",
            "replay ms",
            "recovered identical",
        ],
        &rows_out,
    ));
    out
}

// ----------------------------------------------------------------- E10

/// Scales for the ingest experiment (`LEGODB_INGEST_SCALES`, same 1% unit
/// as the recovery bench; default `1,10`).
fn ingest_scales() -> Vec<u64> {
    std::env::var("LEGODB_INGEST_SCALES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 10])
}

/// The streaming-ingest experiment (DESIGN.md §15): shred a generated
/// IMDB corpus twice — the DOM path (`parse` then `shred_dom`: build the
/// whole tree, validate it upfront, walk it) and the streaming path
/// (`shred_events`: tokenize, buffer one root-child subtree at a time) —
/// and compare wall clock, throughput, and peak resident elements. The
/// hard invariant is bit-identical output (`rows_match`, gated in CI
/// together with `streaming_speedup > 1`). A third arm loads the shredded
/// rows into a durable database through `Database::insert_batch`, one
/// batch per table, counting WAL fsyncs to demonstrate group commit
/// (`fsyncs_per_batch <= 1`).
pub fn ingest() -> String {
    use legodb_pschema::{shred_dom, shred_events_report};
    use legodb_xml::{events, parse};

    let reps: usize = std::env::var("LEGODB_INGEST_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
        .max(1);
    let pschema = derive_pschema(&imdb_schema(), InlineStyle::Inlined);
    let root = must(
        DirHandle::create("target/bench_ingest"),
        "create working dir",
    );
    let mut rows_out = Vec::new();
    let mut records = Vec::new();

    for scale in ingest_scales() {
        let mut rng = StdRng::seed_from_u64(0x001A_6E57 ^ scale);
        let doc = generate_imdb(&mut rng, &ScaleConfig::at_scale(0.01 * scale as f64));
        let xml = doc.to_xml();
        let stats = Statistics::collect(&doc);
        let mapping = rel(&pschema, &stats);
        let mb = xml.len() as f64 / 1e6;
        drop(doc); // both arms start from the serialized bytes

        // DOM arm: materialize the tree, then the classic shredder.
        let mut dom_secs = f64::INFINITY;
        let mut dom_result = None;
        for _ in 0..reps {
            let (r, elapsed) = legodb_util::bench::time_once(|| {
                let doc = must(parse(&xml), "parse corpus");
                let db = must(shred_dom(&mapping, &doc), "DOM shred");
                (db, doc.element_count())
            });
            dom_secs = dom_secs.min(elapsed.as_secs_f64());
            dom_result = Some(r);
        }
        // lint: allow(no-unwrap-in-lib) — reps >= 1, so the loop body ran
        let (dom_db, dom_nodes) = dom_result.expect("at least one repetition ran");

        // Streaming arm: tokenizer events straight into the shredder.
        let mut stream_secs = f64::INFINITY;
        let mut stream_result = None;
        for _ in 0..reps {
            let (r, elapsed) = legodb_util::bench::time_once(|| {
                must(
                    shred_events_report(&mapping, events(&xml)),
                    "streaming shred",
                )
            });
            stream_secs = stream_secs.min(elapsed.as_secs_f64());
            stream_result = Some(r);
        }
        // lint: allow(no-unwrap-in-lib) — reps >= 1, so the loop body ran
        let (stream_db, report) = stream_result.expect("at least one repetition ran");

        let rows = dom_db.total_rows() as u64;
        let rows_match = dom_db.snapshot_json() == stream_db.snapshot_json();
        let speedup = dom_secs / stream_secs.max(1e-9);
        let stream_mb_s = mb / stream_secs.max(1e-9);
        let dom_mb_s = mb / dom_secs.max(1e-9);
        let stream_rows_s = rows as f64 / stream_secs.max(1e-9);
        // Bounded-memory demonstration: under a working-set budget of a
        // tenth of the document, the DOM path cannot load this corpus but
        // the streaming path fits with room to spare.
        let budget_nodes = dom_nodes / 10;
        let within_budget = report.streamed && report.peak_resident_elements < budget_nodes;

        // Durable batched load: one insert_batch (= one WAL frame, one
        // fsync) per table.
        let sub = format!("scale_{scale}");
        let _ = root.remove_tree(&sub);
        let dir = must(root.create_subdir(&sub), "create scale dir");
        let mut durable = must(Database::open(&dir), "open durable database");
        let mut batches = 0u64;
        for table in stream_db.tables() {
            must(durable.create_table(table.def.clone()), "create table");
        }
        must(durable.commit(), "commit schema");
        let before_syncs = durable.wal().map_or(0, |w| w.sync_count());
        for table in stream_db.tables() {
            let mut batch = Vec::with_capacity(table.len());
            table.for_each(|row| batch.push(row.clone()));
            must(durable.insert_batch(&table.def.name, batch), "insert batch");
            batches += 1;
        }
        let fsyncs = durable.wal().map_or(0, |w| w.sync_count()) - before_syncs;
        let fsyncs_per_batch = fsyncs as f64 / batches.max(1) as f64;

        rows_out.push(vec![
            format!("{scale}"),
            format!("{mb:.2}"),
            rows.to_string(),
            format!("{dom_mb_s:.1}"),
            format!("{stream_mb_s:.1}"),
            format!("{speedup:.2}x"),
            dom_nodes.to_string(),
            report.peak_resident_elements.to_string(),
            format!("{fsyncs_per_batch:.2}"),
            if rows_match {
                "yes".to_string()
            } else {
                "NO — INVESTIGATE".to_string()
            },
        ]);
        records.push(
            legodb_util::json::JsonObject::new()
                .str("experiment", "ingest")
                .u64("scale", scale)
                .f64("mb", mb)
                .u64("rows", rows)
                .f64("dom_mb_s", dom_mb_s)
                .f64("stream_mb_s", stream_mb_s)
                .f64("stream_rows_s", stream_rows_s)
                .f64("streaming_speedup", speedup)
                .u64("dom_nodes", dom_nodes as u64)
                .u64("stream_peak_nodes", report.peak_resident_elements as u64)
                .u64("budget_nodes", budget_nodes as u64)
                .u64("within_budget", u64::from(within_budget))
                .u64("batches", batches)
                .u64("fsyncs", fsyncs)
                .f64("fsyncs_per_batch", fsyncs_per_batch)
                .u64("rows_match", u64::from(rows_match))
                .finish(),
        );
    }

    let path = std::env::var_os("LEGODB_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_ingest.json"));
    if let Err(e) = legodb_util::bench::append_json_lines(&path, records) {
        eprintln!("bench: cannot write {}: {e}", path.display());
    }
    let mut out = String::from(
        "## E10 — streaming ingest: DOM shred vs event-pull shred (scale unit = 1% IMDB)\n\n\
         Peak = resident XML elements; budget demo: the streaming path stays \
         under a tenth of the DOM working set. Durable arm: batched appends, \
         one WAL fsync per batch.\n\n",
    );
    out.push_str(&md_table(
        &[
            "Scale",
            "MB",
            "rows",
            "DOM MB/s",
            "stream MB/s",
            "speedup",
            "DOM nodes",
            "stream peak",
            "fsyncs/batch",
            "identical",
        ],
        &rows_out,
    ));
    out
}

// ----------------------------------------------------------------- E11

/// Scales for the layout experiment (`LEGODB_LAYOUT_SCALES`, same 1% unit
/// as the recovery bench; default `1,10`).
fn layout_scales() -> Vec<u64> {
    std::env::var("LEGODB_LAYOUT_SCALES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 10])
}

/// The point-lookup side of the layout decision: Appendix C's Q1–Q6, the
/// show lookups that fetch whole tuples through an index.
const LAYOUT_LOOKUPS: [&str; 6] = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"];

/// The analytic side: Q11–Q18 — the character scan, the acted-and-directed
/// joins, and the publish-all sweeps, all dominated by sequential reads.
const LAYOUT_AGGS: [&str; 8] = ["Q11", "Q12", "Q13", "Q14", "Q15", "Q16", "Q17", "Q18"];

fn layout_workload(names: &[&str]) -> Workload {
    let mut w = Workload::new();
    for name in names {
        w.push(name.to_string(), query(name), 1.0 / names.len() as f64);
    }
    w
}

/// Execute one query end to end under `mapping` — the layout experiment's
/// version of the pipeline test's `run_query`. Returns the sorted result
/// rows plus the executor's `columns_read` counter, the observable that
/// distinguishes a projected column scan from a full row scan.
fn layout_run(
    mapping: &legodb_pschema::Mapping,
    db: &Database,
    q: &XQuery,
) -> (Vec<legodb_relational::Row>, u64) {
    use legodb_xquery::translate;
    // lint: allow(no-unwrap-in-lib) — appendix queries translate under every mapping the harness builds
    let t = translate(mapping, q).expect("query translates");
    let mut out = Vec::new();
    let mut columns_read = 0u64;
    for statement in &t.statements {
        let opt = legodb_optimizer::optimize_statement(
            &mapping.catalog,
            statement,
            &OptimizerConfig::default(),
        )
        // lint: allow(no-unwrap-in-lib) — experiment harness: abort on an optimizer failure is the right failure mode
        .expect("statement optimizes");
        // lint: allow(no-unwrap-in-lib) — experiment harness: abort on an executor failure is the right failure mode
        let (rows, counters) = legodb_relational::run(db, &opt.plan).expect("plan executes");
        columns_read += counters.columns_read;
        out.extend(rows);
    }
    out.retain(|row| !row.iter().all(|v| v.is_null()));
    out.sort();
    (out, columns_read)
}

/// The physical-layout experiment (DESIGN.md §16): let the greedy search
/// pick per-table layouts (`SetLayout` moves only, all-filtered index
/// assumption), then verify the choice on generated data. The analytic
/// workload (Q11–Q18) must drive at least one of its tables columnar and
/// the point-lookup workload (Q1–Q6) must leave every table on the row
/// heap; the all-row and mixed-layout builds must answer Q1–Q18
/// bit-identically (`results_match`, gated in CI); and narrow-projection
/// analytic scans must run faster against the column store
/// (`columnar_agg_speedup`, gated at 10×). JSON-lines records land in
/// `BENCH_layout.json` (or `$LEGODB_BENCH_JSON`).
pub fn layout() -> String {
    use legodb_core::transform::TransformationSet;
    use legodb_optimizer::IndexAssumption;
    use legodb_xquery::parse_xquery;

    let reps: usize = std::env::var("LEGODB_LAYOUT_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    // Analytic scan set: narrow projections over the wide entity tables.
    // The row path clones whole tuples (50-byte titles, 120-byte
    // descriptions) and projects afterwards; the column store reads only
    // the referenced vectors.
    let scans: Vec<XQuery> = [
        r#"FOR $v IN document("imdbdata")/imdb/show RETURN $v/year"#,
        r#"FOR $v IN document("imdbdata")/imdb/show
           WHERE $v/year = 1999
           RETURN $v/title, $v/year"#,
        r#"FOR $v IN document("imdbdata")/imdb/actor RETURN $v/name"#,
    ]
    .iter()
    // lint: allow(no-unwrap-in-lib) — scan query literals; a parse failure is a harness bug
    .map(|src| parse_xquery(src).expect("scan query parses"))
    .collect();

    let schema = imdb_schema();
    let lookup_w = layout_workload(&LAYOUT_LOOKUPS);
    let agg_w = layout_workload(&LAYOUT_AGGS);
    // All-filtered is the honest assumption for the lookup side: Q1–Q6
    // filter on title/year, and pricing them as full scans would make the
    // column store look good for the wrong reason (every scan likes
    // narrow pages; only *random access* separates the layouts).
    let config = SearchConfig {
        start: StartPoint::MaximallyInlined,
        transformations: Some(TransformationSet::layouts_only()),
        optimizer: OptimizerConfig {
            indexes: IndexAssumption::AllFiltered,
            ..OptimizerConfig::default()
        },
        parallel: true,
        ..SearchConfig::default()
    };

    let mut rows_out = Vec::new();
    let mut records = Vec::new();
    let mut decision_lines = String::new();
    // Layout selection prices against the Appendix A statistics (the
    // production-scale numbers every other experiment tunes for), not the
    // sample corpus: on a 1%-scale sample every table fits in a handful of
    // pages and a narrow columnar scan undercuts even an index probe, so
    // pricing at sample scale would flip the lookup tables columnar for a
    // reason that evaporates at production size.
    let design_stats = scaled_statistics(STATS_SCALE);

    for scale in layout_scales() {
        let mut rng = StdRng::seed_from_u64(0x001A_707E ^ scale);
        let doc = generate_imdb(&mut rng, &ScaleConfig::at_scale(0.01 * scale as f64));
        let stats = Statistics::collect(&doc);

        // Layout selection: the same logical schema, two workloads.
        let agg_search = greedy_search(&schema, &design_stats, &agg_w, &config)
            // lint: allow(no-unwrap-in-lib) — experiment harness: abort on a failed search is the right failure mode
            .expect("search succeeds");
        let lookup_search = greedy_search(&schema, &design_stats, &lookup_w, &config)
            // lint: allow(no-unwrap-in-lib) — experiment harness: abort on a failed search is the right failure mode
            .expect("search succeeds");
        let agg_columnar: Vec<String> = agg_search
            .pschema
            .layouts()
            .keys()
            .map(|n| n.to_string())
            .collect();
        let lookup_columnar: Vec<String> = lookup_search
            .pschema
            .layouts()
            .keys()
            .map(|n| n.to_string())
            .collect();
        let lookup_columnar_tables = lookup_columnar.len() as u64;

        // Two builds of the chosen logical schema: all-row vs mixed.
        let chosen = agg_search.pschema.clone();
        let row_ps = PSchema::try_new(chosen.schema().clone())
            // lint: allow(no-unwrap-in-lib) — the searched schema already stratifies; dropping layouts cannot break it
            .expect("stripping layouts preserves stratification");
        let mapping_col = rel(&chosen, &stats);
        let mapping_row = rel(&row_ps, &stats);
        let db_col = must(shred(&mapping_col, &doc), "shred (columnar)");
        let db_row = must(shred(&mapping_row, &doc), "shred (row)");

        // The hard invariant: layout never changes answers. Q1–Q18 plus
        // the scan set, bit-compared between the two builds.
        let mut results_match = true;
        for i in 1..=18u32 {
            let q = query(&format!("Q{i}"));
            if layout_run(&mapping_row, &db_row, &q).0 != layout_run(&mapping_col, &db_col, &q).0 {
                results_match = false;
            }
        }
        let mut scan_columns_row = 0u64;
        let mut scan_columns_col = 0u64;
        for q in &scans {
            let (a, ca) = layout_run(&mapping_row, &db_row, q);
            let (b, cb) = layout_run(&mapping_col, &db_col, q);
            scan_columns_row += ca;
            scan_columns_col += cb;
            if a != b {
                results_match = false;
            }
        }

        // Analytic scan wall clock: eight passes per sample, minimum over
        // repetitions (same discipline as the scheduler bench).
        let inner = 8usize;
        let mut row_secs = f64::INFINITY;
        let mut col_secs = f64::INFINITY;
        for _ in 0..reps {
            let (_, elapsed) = legodb_util::bench::time_once(|| {
                let mut n = 0usize;
                for _ in 0..inner {
                    for q in &scans {
                        n += layout_run(&mapping_row, &db_row, q).0.len();
                    }
                }
                n
            });
            row_secs = row_secs.min(elapsed.as_secs_f64());
            let (_, elapsed) = legodb_util::bench::time_once(|| {
                let mut n = 0usize;
                for _ in 0..inner {
                    for q in &scans {
                        n += layout_run(&mapping_col, &db_col, q).0.len();
                    }
                }
                n
            });
            col_secs = col_secs.min(elapsed.as_secs_f64());
        }
        let speedup = row_secs / col_secs.max(1e-9);

        let _ = writeln!(
            decision_lines,
            "- {scale}×: analytic workload drives {} table(s) columnar ({}); \
             lookup workload leaves {lookup_columnar_tables} columnar [{}]; \
             projected scans read {scan_columns_col} columns instead of \
             {scan_columns_row}.",
            agg_columnar.len(),
            if agg_columnar.is_empty() {
                "none".to_string()
            } else {
                agg_columnar.join(", ")
            },
            lookup_columnar.join(", "),
        );
        rows_out.push(vec![
            format!("{scale}"),
            agg_columnar.len().to_string(),
            lookup_columnar_tables.to_string(),
            format!("{:.2}", row_secs * 1e3),
            format!("{:.2}", col_secs * 1e3),
            format!("{speedup:.2}x"),
            format!("{scan_columns_row}/{scan_columns_col}"),
            if results_match {
                "yes".to_string()
            } else {
                "NO — INVESTIGATE".to_string()
            },
        ]);
        records.push(
            legodb_util::json::JsonObject::new()
                .str("experiment", "layout")
                .u64("scale", scale)
                .u64("agg_columnar_tables", agg_columnar.len() as u64)
                .u64("agg_chose_columnar", u64::from(!agg_columnar.is_empty()))
                .u64("lookup_columnar_tables", lookup_columnar_tables)
                .u64("results_match", u64::from(results_match))
                .f64("row_scan_ms", row_secs * 1e3)
                .f64("columnar_scan_ms", col_secs * 1e3)
                .f64("columnar_agg_speedup", speedup)
                .u64("scan_columns_row", scan_columns_row)
                .u64("scan_columns_col", scan_columns_col)
                .f64(
                    "agg_cost_start",
                    agg_search
                        .trajectory
                        .first()
                        .map(|r| r.cost)
                        .unwrap_or(agg_search.cost),
                )
                .f64("agg_cost_final", agg_search.cost)
                .finish(),
        );
    }

    let path = std::env::var_os("LEGODB_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_layout.json"));
    if let Err(e) = legodb_util::bench::append_json_lines(&path, records) {
        eprintln!("bench: cannot write {}: {e}", path.display());
    }
    let mut out = String::from(
        "## E11 — layout-aware search: row heap vs column store (scale unit = 1% IMDB)\n\n\
         Per-table layouts chosen by greedy `set-layout` moves under the \
         all-filtered index assumption; scan times are the narrow-projection \
         analytic set on the same data under both layouts.\n\n",
    );
    out.push_str(&decision_lines);
    out.push('\n');
    out.push_str(&md_table(
        &[
            "Scale",
            "agg columnar",
            "lookup columnar",
            "row scan ms",
            "columnar scan ms",
            "speedup",
            "cols read row/col",
            "identical",
        ],
        &rows_out,
    ));
    out
}

/// Run one experiment section on the `legodb_util::bench` monotonic
/// clock. The rendered markdown is returned unchanged; when
/// `LEGODB_BENCH_JSON` is set, a `{"experiment": ..., "wall_ms": ...}`
/// record is appended to that file so CI archives experiment wall times
/// alongside the micro-bench samples.
pub fn timed_experiment(name: &str, f: impl FnOnce() -> String) -> String {
    let (report, elapsed) = legodb_util::bench::time_once(f);
    eprintln!(
        "{name}: {}",
        legodb_util::bench::fmt_ns(elapsed.as_nanos() as f64)
    );
    if let Some(path) = std::env::var_os("LEGODB_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        let line = legodb_util::json::JsonObject::new()
            .str("experiment", name)
            .f64("wall_ms", elapsed.as_secs_f64() * 1e3)
            .finish();
        if let Err(e) = legodb_util::bench::append_json_lines(&path, [line]) {
            eprintln!("bench: cannot write {}: {e}", path.display());
        }
    }
    report
}
