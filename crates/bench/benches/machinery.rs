//! Micro-benchmarks of the LegoDB machinery itself — the moving parts
//! whose speed bounds the search (the paper reports ~3 s per greedy
//! iteration on 2001 hardware; these benches track our per-component
//! budgets). Runs on the `legodb_util::bench` harness: warmup + batched
//! samples on a monotonic clock, median/p95 reporting, and JSON-lines
//! output to `--out FILE` (`cargo bench -p legodb-bench --bench machinery --
//! --samples 10 --out FILE`).

use legodb_core::cost::pschema_cost;
use legodb_core::transform::{apply, enumerate_candidates, Transformation, TransformationSet};
use legodb_core::workload::Workload;
use legodb_imdb::{
    generate_imdb, imdb_schema, lookup_workload, query, scaled_statistics, ScaleConfig,
};
use legodb_optimizer::{optimize_statement, OptimizerConfig};
use legodb_pschema::{derive_pschema, rel, shred, InlineStyle};
use legodb_schema::{parse_schema, TypeName};
use legodb_util::bench::{black_box, Bench};
use legodb_util::StdRng;
use legodb_xml::stats::Statistics;
use legodb_xquery::translate;

fn bench_xml_parse(c: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(1);
    let doc = generate_imdb(&mut rng, &ScaleConfig::at_scale(0.002));
    let text = doc.to_xml();
    c.bench_function("xml_parse_imdb_0.002", |b| {
        b.iter(|| legodb_xml::parse(black_box(&text)).unwrap())
    });
}

fn bench_stats_collect(c: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(1);
    let doc = generate_imdb(&mut rng, &ScaleConfig::at_scale(0.002));
    c.bench_function("stats_collect_imdb_0.002", |b| {
        b.iter(|| Statistics::collect(black_box(&doc)))
    });
}

fn bench_schema_parse(c: &mut Bench) {
    c.bench_function("schema_parse_imdb", |b| {
        b.iter(|| parse_schema(black_box(legodb_imdb::schema::IMDB_SCHEMA_SRC)).unwrap())
    });
}

fn bench_derive_and_rel(c: &mut Bench) {
    let schema = imdb_schema();
    let stats = scaled_statistics(1.0);
    c.bench_function("derive_pschema_inlined", |b| {
        b.iter(|| derive_pschema(black_box(&schema), InlineStyle::Inlined))
    });
    let pschema = derive_pschema(&schema, InlineStyle::Inlined);
    c.bench_function("rel_mapping_imdb", |b| {
        b.iter(|| rel(black_box(&pschema), &stats))
    });
}

fn bench_shred(c: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(1);
    let doc = generate_imdb(&mut rng, &ScaleConfig::at_scale(0.002));
    let stats = Statistics::collect(&doc);
    let mapping = rel(
        &derive_pschema(&imdb_schema(), InlineStyle::Inlined),
        &stats,
    );
    c.bench_function("shred_imdb_0.002", |b| {
        b.iter(|| shred(&mapping, black_box(&doc)).unwrap())
    });
}

fn bench_translate_and_optimize(c: &mut Bench) {
    let stats = scaled_statistics(1.0);
    let mapping = rel(
        &derive_pschema(&imdb_schema(), InlineStyle::Inlined),
        &stats,
    );
    let q13 = query("Q13");
    c.bench_function("translate_q13", |b| {
        b.iter(|| translate(&mapping, black_box(&q13)).unwrap())
    });
    let t = translate(&mapping, &q13).unwrap();
    let cfg = OptimizerConfig::default();
    c.bench_function("optimize_q13_statements", |b| {
        b.iter(|| {
            for s in &t.statements {
                black_box(optimize_statement(&mapping.catalog, s, &cfg).unwrap());
            }
        })
    });
}

fn bench_get_pschema_cost(c: &mut Bench) {
    let schema = imdb_schema();
    let stats = scaled_statistics(1.0);
    let pschema = derive_pschema(&schema, InlineStyle::Inlined);
    let workload = lookup_workload();
    let cfg = OptimizerConfig::default();
    c.bench_function("get_pschema_cost_lookup", |b| {
        b.iter(|| pschema_cost(black_box(&pschema), &stats, &workload, &cfg).unwrap())
    });
}

fn bench_transformations(c: &mut Bench) {
    let pschema = derive_pschema(&imdb_schema(), InlineStyle::Inlined);
    c.bench_function("enumerate_candidates", |b| {
        b.iter(|| {
            enumerate_candidates(
                black_box(&pschema),
                &TransformationSet::all(vec!["nyt".into()]),
            )
        })
    });
    c.bench_function("apply_union_distribute", |b| {
        b.iter(|| {
            apply(
                black_box(&pschema),
                &Transformation::UnionDistribute {
                    in_type: TypeName::new("Show"),
                },
            )
            .unwrap()
        })
    });
}

fn bench_greedy_iteration(c: &mut Bench) {
    // One full greedy iteration: enumerate + evaluate every candidate.
    let schema = imdb_schema();
    let stats = scaled_statistics(1.0);
    let pschema = derive_pschema(&schema, InlineStyle::Inlined);
    let workload = {
        let mut w = Workload::new();
        w.push("Q1", query("Q1"), 0.5);
        w.push("Q16", query("Q16"), 0.5);
        w
    };
    let cfg = OptimizerConfig::default();
    c.bench_function("greedy_iteration_2_queries", |b| {
        b.iter(|| {
            let candidates = enumerate_candidates(&pschema, &TransformationSet::outline_only());
            for t in &candidates {
                if let Ok((p, _)) = apply(&pschema, t) {
                    let _ = black_box(pschema_cost(&p, &stats, &workload, &cfg));
                }
            }
        })
    });
}

fn main() {
    let mut bench = Bench::from_args();
    bench_xml_parse(&mut bench);
    bench_stats_collect(&mut bench);
    bench_schema_parse(&mut bench);
    bench_derive_and_rel(&mut bench);
    bench_shred(&mut bench);
    bench_translate_and_optimize(&mut bench);
    bench_get_pschema_cost(&mut bench);
    bench_transformations(&mut bench);
    bench_greedy_iteration(&mut bench);
    bench.finish();
}
