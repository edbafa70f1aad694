//! Property-based tests over randomly generated schemas and documents:
//! the invariants that hold for *any* input, not just the IMDB fixtures.
//!
//! Runs on `legodb_util`'s `prop_check!` harness: each argument is drawn
//! from its range for N cases, and a failure is shrunk (halving, then
//! decrement) toward the range start before being reported with the seed
//! needed to replay it.

use legodb_core::transform::{apply, enumerate_candidates, TransformationSet};
use legodb_pschema::{derive_pschema, publish_all, rel, shred, InlineStyle};
use legodb_schema::gen::{generate, GenConfig};
use legodb_schema::validate::validate;
use legodb_schema::{parse_schema, Schema};
use legodb_util::{prop_assert, prop_assert_eq, prop_assume, prop_check, Rng, StdRng};
use legodb_xml::stats::Statistics;

/// A small pool of schema shapes exercising every construct: scalars,
/// attributes, nesting, optionality, bounded/unbounded repetition,
/// unions, and wildcards.
fn schema_pool() -> Vec<&'static str> {
    vec![
        "type R = r[ a[ String ], b[ Integer ] ]",
        "type R = r[ @id[ Integer ], a[ String ]?, Item{0,*} ]
         type Item = item[ name[ String ] ]",
        "type R = r[ x[ y[ String ], z[ Integer ] ], W{1,4} ]
         type W = w[ String ]",
        "type R = r[ (A | B){0,*} ]
         type A = a[ String ]
         type B = b[ Integer ]",
        "type R = r[ head[ String ], (Movie | TV) ]
         type Movie = bo[ Integer ], vs[ Integer ]
         type TV = seasons[ Integer ], Ep{0,*}
         type Ep = ep[ name[ String ] ]",
        "type R = r[ Review{0,*} ]
         type Review = review[ ~[ String ] ]",
        "type R = r[ note[ String ]?, deep[ deeper[ deepest[ Integer ] ] ] ]",
    ]
}

fn pool_schema(index: usize) -> Schema {
    parse_schema(schema_pool()[index]).expect("pool parses")
}

prop_check! {
    cases = 24,
    // Both p-schema derivations accept every document of the source
    // schema (language preservation).
    fn derivations_preserve_the_document_language(pool in 0..schema_pool().len(), seed in 0u64..1000) {
        let schema = pool_schema(pool);
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = generate(&schema, &mut rng, &GenConfig::default());
        prop_assert!(validate(&schema, &doc).is_ok());
        for style in [InlineStyle::Inlined, InlineStyle::Outlined] {
            let p = derive_pschema(&schema, style);
            prop_assert!(
                validate(p.schema(), &doc).is_ok(),
                "doc rejected after {:?} derivation:\n{}\n{}",
                style, p.schema(), doc.to_xml_pretty()
            );
        }
    }
}

prop_check! {
    cases = 24,
    // Every enumerated transformation yields a schema that still accepts
    // the source schema's documents.
    fn transformations_preserve_the_document_language(pool in 0..schema_pool().len(), seed in 0u64..500) {
        let schema = pool_schema(pool);
        let p = derive_pschema(&schema, InlineStyle::Inlined);
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = generate(&schema, &mut rng, &GenConfig::default());
        for t in enumerate_candidates(&p, &TransformationSet::all(vec!["nyt".into()])) {
            if let Ok((transformed, _)) = apply(&p, &t) {
                prop_assert!(
                    validate(transformed.schema(), &doc).is_ok(),
                    "{t} broke validation:\nbefore:\n{}\nafter:\n{}\ndoc:\n{}",
                    p.schema(), transformed.schema(), doc.to_xml_pretty()
                );
            }
        }
    }
}

prop_check! {
    cases = 24,
    // Shred → publish → shred is a fixpoint: the relational image is
    // stable (semantic round-trip).
    fn shred_publish_shred_is_a_fixpoint(pool in 0..schema_pool().len(), seed in 0u64..500) {
        let schema = pool_schema(pool);
        let p = derive_pschema(&schema, InlineStyle::Inlined);
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = generate(&schema, &mut rng, &GenConfig::default());
        let mapping = rel(&p, &Statistics::collect(&doc));
        let db = shred(&mapping, &doc).expect("generated docs shred");
        let rebuilt = publish_all(&mapping, &db).expect("databases publish");
        prop_assert!(validate(p.schema(), &rebuilt).is_ok(), "published doc invalid");
        let db2 = shred(&mapping, &rebuilt).expect("published docs shred");
        for table in db.tables() {
            let mut a = table.scan();
            let mut b = db2.table(&table.def.name).unwrap().scan();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "table {} unstable", &table.def.name);
        }
    }
}

prop_check! {
    cases = 24,
    // The schema text round-trips: print ∘ parse = identity.
    fn schema_printer_round_trips(pool in 0..schema_pool().len()) {
        let schema = pool_schema(pool);
        let printed = schema.to_string();
        let reparsed = parse_schema(&printed).expect("printed schema parses");
        prop_assert_eq!(schema, reparsed);
    }
}

prop_check! {
    cases = 24,
    // Harvested statistics agree with the document: the row counts of the
    // mapped tables equal the shredded row counts.
    fn translated_statistics_match_shredded_cardinalities(pool in 0..schema_pool().len(), seed in 0u64..500) {
        let schema = pool_schema(pool);
        let p = derive_pschema(&schema, InlineStyle::Inlined);
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = generate(&schema, &mut rng, &GenConfig::default());
        let stats = Statistics::collect(&doc);
        let mapping = rel(&p, &stats);
        let db = shred(&mapping, &doc).expect("generated docs shred");
        for table in db.tables() {
            let estimated = mapping.catalog.table(&table.def.name).unwrap().stats.rows;
            let actual = table.len() as f64;
            // Element-anchored counts are exact; group-shaped types are
            // estimated via member minima — allow slack there.
            prop_assert!(
                (estimated - actual).abs() <= (0.5 * actual).max(2.0),
                "table {}: estimated {estimated} vs actual {actual}",
                &table.def.name
            );
        }
    }
}

prop_check! {
    cases = 8,
    // Incremental candidate costing is bit-identical to the from-scratch
    // oracle along random transformation chains over the IMDB schema.
    // This also runs under the CI fault pass (`LEGODB_FAULT_SEED=1`),
    // where the `core.cost.reuse` failpoint forces recompute paths: an
    // injected `Err` must leave the total untouched, and an injected
    // panic only skips that step's comparison.
    fn incremental_costing_matches_the_oracle(seed in 0u64..200, steps in 1usize..5) {
        use legodb_core::{pschema_cost, CostEvaluator, Workload};
        use legodb_optimizer::OptimizerConfig;
        let stats = legodb_imdb::scaled_statistics(0.05);
        let workload: Workload = legodb_imdb::workload_w1();
        let cfg = OptimizerConfig::default();
        let evaluator = CostEvaluator::new(cfg);
        let mut current = derive_pschema(&legodb_imdb::imdb_schema(), InlineStyle::Inlined);
        let mut parent = evaluator
            .evaluate_full(&current, &stats, &workload)
            .expect("initial configuration prices");
        let oracle0 = pschema_cost(&current, &stats, &workload, &cfg).expect("oracle prices");
        prop_assert_eq!(parent.total.to_bits(), oracle0.total.to_bits());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..steps {
            let candidates = enumerate_candidates(&current, &TransformationSet::all(vec!["nyt".into()]));
            if candidates.is_empty() {
                break;
            }
            let t = candidates[rng.gen_range(0..candidates.len())].clone();
            let Ok((child, delta)) = apply(&current, &t) else { continue };
            // Candidates the oracle itself cannot price (translation or
            // optimizer rejection) are dropped by the search; skip them.
            let Ok(oracle) = pschema_cost(&child, &stats, &workload, &cfg) else { continue };
            let incr = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                evaluator.evaluate_incremental(&child, &stats, &workload, &parent, &delta)
            }));
            match incr {
                Ok(Ok(incr)) => {
                    prop_assert_eq!(
                        incr.total.to_bits(),
                        oracle.total.to_bits(),
                        "chain step {}: incremental {} vs oracle {}",
                        t, incr.total, oracle.total
                    );
                    parent = incr;
                }
                Ok(Err(e)) => prop_assert!(
                    false,
                    "incremental pricing failed where the oracle succeeded at {}: {}",
                    t, e
                ),
                // An injected panic from the reuse failpoint under the CI
                // fault pass: skip this step's comparison, keep walking.
                Err(_) => parent = oracle,
            }
            current = child;
        }
    }
}

prop_check! {
    cases = 6,
    // Physical layout is invisible to query answers: shred a generated
    // IMDB corpus into an all-row build and a build with a random subset
    // of relations flipped columnar, then answer every Appendix C query
    // Q1–Q18 on both. The sorted result rows must be bit-identical —
    // the column store changes page math and clone traffic, never
    // semantics. Runs unchanged under the CI fault and hardened passes.
    fn layout_never_changes_query_results(seed in 0u64..100, layout_seed in 0u64..100) {
        use legodb_imdb::{generate_imdb, imdb_schema, query, ScaleConfig};
        use legodb_optimizer::{optimize_statement, OptimizerConfig};
        use legodb_relational::{run, Layout};

        let mut rng = StdRng::seed_from_u64(seed);
        let doc = generate_imdb(&mut rng, &ScaleConfig::at_scale(0.002));
        let stats = Statistics::collect(&doc);
        let row_ps = derive_pschema(&imdb_schema(), InlineStyle::Inlined);
        // Flip a random, non-empty subset of the relations columnar.
        let mut col_ps = row_ps.clone();
        let names: Vec<_> = col_ps.schema().iter().map(|(n, _)| n.clone()).collect();
        let mut layout_rng = StdRng::seed_from_u64(layout_seed);
        for name in &names {
            if layout_rng.gen_range(0u32..2) == 1 {
                col_ps.set_layout(name, Layout::Columnar);
            }
        }
        if col_ps.layouts().is_empty() {
            for name in &names {
                col_ps.set_layout(name, Layout::Columnar);
            }
        }
        let mapping_row = rel(&row_ps, &stats);
        let mapping_col = rel(&col_ps, &stats);
        let db_row = shred(&mapping_row, &doc).expect("row build shreds");
        let db_col = shred(&mapping_col, &doc).expect("columnar build shreds");
        for i in 1..=18u32 {
            let name = format!("Q{i}");
            let q = query(&name);
            let mut results = Vec::new();
            for (mapping, db) in [(&mapping_row, &db_row), (&mapping_col, &db_col)] {
                let t = legodb_xquery::translate(mapping, &q).expect("query translates");
                let mut rows = Vec::new();
                for statement in &t.statements {
                    let opt = optimize_statement(
                        &mapping.catalog,
                        statement,
                        &OptimizerConfig::default(),
                    )
                    .expect("statement optimizes");
                    let (r, _) = run(db, &opt.plan).expect("plan executes");
                    rows.extend(r);
                }
                rows.retain(|row| !row.iter().all(|v| v.is_null()));
                rows.sort();
                results.push(rows);
            }
            prop_assert_eq!(
                &results[0],
                &results[1],
                "query {} answers differently on the columnar build",
                name
            );
        }
    }
}

/// Random printable-ASCII text of `len` characters, drawn from `rng`.
fn printable_text(rng: &mut StdRng, len: usize) -> String {
    (0..len)
        .map(|_| rng.gen_range(0x20u32..=0x7E) as u8 as char)
        .collect()
}

// XML escaping round-trips under harness-generated text.

prop_check! {
    cases = 64,
    fn xml_text_round_trips(len in 1usize..=60, seed in 0u64..10_000) {
        let text = printable_text(&mut StdRng::seed_from_u64(seed), len);
        // Whitespace-only text is dropped by the parser (element-content
        // whitespace); test non-empty trimmed content.
        prop_assume!(!text.trim().is_empty());
        let doc = legodb_xml::Document::new(
            legodb_xml::Element::text_leaf("t", text.trim().to_string()),
        );
        let reparsed = legodb_xml::parse(&doc.to_xml()).expect("serialized XML parses");
        prop_assert_eq!(doc, reparsed);
    }
}

prop_check! {
    cases = 64,
    fn attribute_values_round_trip(len in 0usize..=40, seed in 0u64..10_000) {
        let value = printable_text(&mut StdRng::seed_from_u64(seed), len);
        let doc = legodb_xml::Document::new(
            legodb_xml::Element::new("t").with_attr("a", value.clone()),
        );
        let reparsed = legodb_xml::parse(&doc.to_xml()).expect("serialized XML parses");
        prop_assert_eq!(reparsed.root.attribute("a"), Some(value.as_str()));
    }
}

prop_check! {
    cases = 6,
    // Candidate-evaluation scheduling never changes search results: the
    // greedy search over a generated mega-schema lands on the same final
    // cost (bit-for-bit) and the same applied moves whether candidates
    // are priced on one worker or on the work-stealing deques —
    // scheduling is pure overhead-shaping, never semantics.
    // Under the CI fault pass (`LEGODB_FAULT_SEED=1`) injected failures
    // and panics are pure in (seed, site, key), so the equality holds
    // with faults firing too.
    fn scheduler_choice_never_changes_search_results(types in 4usize..16, seed in 0u64..50) {
        use legodb_core::search::{greedy_search, SearchConfig, StartPoint};
        use legodb_schema::{mega_schema, MegaConfig};
        let mega = mega_schema(&MegaConfig {
            types,
            seed,
            ..MegaConfig::default()
        });
        let workload = legodb_bench::harness::mega_workload(&mega);
        let mut outcomes = Vec::new();
        for parallel in [false, true] {
            let config = SearchConfig {
                start: StartPoint::MaximallyInlined,
                parallel,
                max_iterations: 2,
                ..Default::default()
            };
            let r = greedy_search(&mega.schema, &mega.stats, &workload, &config)
                .expect("search succeeds");
            let moves: Vec<Option<String>> =
                r.trajectory.iter().map(|it| it.applied.clone()).collect();
            outcomes.push((r.cost.to_bits(), moves));
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1], "sequential vs work-stealing");
    }
}
