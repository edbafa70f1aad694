//! End-to-end pipeline benchmark for LegoDB-rs.
//!
//! ```text
//! cargo run --release -q --manifest-path pipebench/Cargo.toml -- \
//!     --workload lookup|publish|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets up its seeded input several times (in child processes),
//! then repeats whole rounds of design search → durable load → reopen →
//! lookups → query mix → publish until `--seconds` have passed, checks
//! every output against the reference answers, and prints one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans kept in memory and written to `.pipebench/`) with `--trace 1`.
//! See README.md.

mod input;
mod pipeline;
mod reference;
mod trace;
mod workload;

use pipeline::{Pipeline, Tally};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::{self_times, span_json, total_s, Span, Tracer};

/// Working files (inputs, the durable database, traces), relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".pipebench";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    "usage: pipebench --workload lookup|publish|ingest --seed N --seconds S --trace 0|1".to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(usage);
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|_| usage());
    if map.len() != 4 {
        return Err(usage());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err(usage()),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--setup") => setup_child(&argv[1..]),
        _ => parse_args(&argv).and_then(|a| run(&a)),
    };
    if let Err(e) = result {
        eprintln!("pipebench: {e}");
        std::process::exit(1);
    }
}

/// `--setup <workload> <seed> <dir>`: generate the input and its
/// reference answers into `dir`, print their digest.
fn setup_child(argv: &[String]) -> Result<(), String> {
    let [name, seed, dir] = argv else {
        return Err("usage: pipebench --setup WORKLOAD SEED DIR".to_string());
    };
    let spec = workload::spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed".to_string())?;
    let digest = input::prepare(spec, seed, Path::new(dir)).map_err(|e| e.to_string())?;
    println!("{digest:016x}");
    Ok(())
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile; 0 for an empty sample.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<(), String> {
    let spec = workload::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {}\n{}", args.workload, usage()))?;
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = measure(args, spec, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, correct, tally) = outcome?;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        line.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

type Metrics = Vec<(String, f64, &'static str)>;

fn measure(
    args: &Args,
    spec: &'static workload::Spec,
    work: &Path,
) -> Result<(Metrics, bool, Tally), String> {
    // Set-up, in child processes: the generator's DOM never touches this
    // process's peak memory, and every set-up must write the same bytes.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let out = Command::new(&exe)
            .arg("--setup")
            .arg(spec.name)
            .arg(args.seed.to_string())
            .arg(work)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if !out.status.success() {
            return Err(format!("set-up failed: {}", out.status));
        }
        digests.push(String::from_utf8_lossy(&out.stdout).trim().to_string());
    }
    let reproducible = digests.windows(2).all(|w| w[0] == w[1]);
    if !reproducible {
        eprintln!("pipebench: set-ups of one seed wrote different inputs: {digests:?}");
    }
    let input = input::load(work).map_err(|e| format!("reading the input: {e}"))?;

    let tracer = Tracer::new(args.trace);
    let db_dir = work.join("db");
    let mut pipeline = Pipeline {
        spec,
        input: &input,
        tracer: &tracer,
        db_dir: &db_dir,
        tally: Tally::default(),
    };
    let start = Instant::now();
    loop {
        pipeline.round();
        if pipeline.tally.cut_short || start.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    let tally = pipeline.tally;
    eprintln!(
        "pipebench: {} rounds, {} operations, {} failed {:?}; warm-up pass {:.3}s (median)",
        tally.rounds,
        tally.attempted,
        tally.failed,
        tally.failures,
        median(&tally.warmup_s)
    );
    let correct = reproducible && !tally.cut_short;
    let e2e = end_to_end(&tally, median(&setup_s), peak_rss);
    let e2e_file = PathBuf::from(WORK_DIR).join(format!("e2e_{}.tsv", spec.name));
    let metrics = if args.trace {
        let spans = tracer.spans();
        let per_layer = per_layer(&tally, &spans);
        write_trace(args, &spans, &per_layer, &e2e, &e2e_file)?;
        per_layer
    } else {
        let text: String = e2e.iter().map(|(n, v, _)| format!("{n}\t{v}\n")).collect();
        let _ = std::fs::write(&e2e_file, text);
        e2e
    };
    Ok((metrics, correct, tally))
}

fn end_to_end(t: &Tally, setup_s: f64, peak_rss: f64) -> Metrics {
    let mb = t.xml_bytes as f64 / 1e6;
    let load_mb_s: Vec<f64> = t.load_s.iter().map(|s| mb / s.max(1e-9)).collect();
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("search_s".into(), median(&t.search_s), "s"),
        ("load_mb_s".into(), median(&load_mb_s), "MB/s"),
        ("reopen_s".into(), median(&t.reopen_s), "s"),
        ("lookup_p50_ms".into(), percentile(&t.lookup_ms, 0.5), "ms"),
        ("lookup_p99_ms".into(), percentile(&t.lookup_ms, 0.99), "ms"),
        ("query_mix_s".into(), median(&t.mix_s), "s"),
        ("publish_mb_s".into(), median(&t.publish_mb_s), "MB/s"),
        (
            "stored_bytes_per_xml_byte".into(),
            median(&t.stored_ratio),
            "B/B",
        ),
        ("peak_rss_mb".into(), peak_rss, "MB"),
    ]
}

/// Durations (ms) of spans named `name` inside operations named `op`,
/// summed per operation when `per_op`, else one value per span.
fn durations_in(spans: &[Span], op: &str, name: &str, per_op: bool) -> Vec<f64> {
    let op_of: HashMap<u64, &str> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.op, s.name))
        .collect();
    let mut out: BTreeMap<(u64, usize), f64> = BTreeMap::new();
    for s in spans {
        if s.name == name && op_of.get(&s.op) == Some(&op) {
            let key = (s.op, if per_op { 0 } else { s.id });
            *out.entry(key).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
    }
    out.into_values().collect()
}

fn per_layer(t: &Tally, spans: &[Span]) -> Metrics {
    let rounds = t.rounds.max(1) as f64;
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count().max(1) as f64;
    let loads = count("op.load");
    let per = |x: f64, n: f64| x / n.max(1e-12);
    let mb = t.xml_bytes as f64 / 1e6;
    let mix_passes = t.mix_s.len().max(1) as f64;
    let mix_exec_ms: f64 = durations_in(spans, "op.mix", "relational.exec", true)
        .iter()
        .sum();
    let selfs = self_times(spans);
    let mut m: Metrics = vec![
        (
            "xml.tokenize_mb_s".into(),
            per(mb * count("xml.tokenize"), total_s(spans, "xml.tokenize")),
            "MB/s",
        ),
        (
            "xml.serialize_mb_s".into(),
            per(
                t.published_bytes as f64 / 1e6 * count("xml.serialize"),
                total_s(spans, "xml.serialize"),
            ),
            "MB/s",
        ),
        (
            "pschema.shred_s".into(),
            total_s(spans, "pschema.shred") / loads,
            "s",
        ),
        (
            "pschema.peak_resident_elements".into(),
            t.peak_resident_elements as f64,
            "count",
        ),
        (
            "pschema.publish_s".into(),
            total_s(spans, "pschema.publish_all") / count("pschema.publish_all"),
            "s",
        ),
        (
            "relational.insert_batch_s".into(),
            total_s(spans, "relational.insert_batch") / loads,
            "s",
        ),
        (
            "relational.commit_s".into(),
            total_s(spans, "relational.commit") / loads,
            "s",
        ),
        ("relational.fsyncs".into(), t.fsyncs as f64, "count"),
        ("relational.wal_bytes".into(), t.wal_bytes as f64, "B"),
        (
            "relational.checkpoint_s".into(),
            total_s(spans, "relational.checkpoint") / loads,
            "s",
        ),
        (
            "relational.checkpoint_bytes".into(),
            t.checkpoint_bytes as f64,
            "B",
        ),
        (
            "relational.exec_ms_p50".into(),
            median(&durations_in(spans, "op.lookup", "relational.exec", true)),
            "ms",
        ),
        (
            "relational.exec_s".into(),
            mix_exec_ms / 1e3 / mix_passes,
            "s",
        ),
        (
            "relational.tuples_read_per_row".into(),
            per(
                t.lookup_counters.tuples_read as f64,
                t.lookup_rows.max(1) as f64,
            ),
            "count",
        ),
        (
            "relational.index_probes".into(),
            t.lookup_counters.index_probes as f64 / rounds,
            "count",
        ),
        (
            "relational.columns_read".into(),
            t.mix_counters.columns_read as f64 / rounds,
            "count",
        ),
        (
            "optimizer.optimize_ms_p50".into(),
            median(&durations_in(
                spans,
                "op.lookup",
                "optimizer.optimize_statement",
                false,
            )),
            "ms",
        ),
        ("optimizer.q_error_p50".into(), median(&t.q_errors), "ratio"),
        (
            "xquery.translate_ms_p50".into(),
            median(&durations_in(spans, "op.lookup", "xquery.translate", false)),
            "ms",
        ),
        (
            "xquery.statements_per_query".into(),
            per(t.mix_statements as f64, t.mix_queries.max(1) as f64),
            "count",
        ),
        (
            "core.search_iterations".into(),
            t.search_iterations as f64,
            "count",
        ),
        ("core.pricings_recosted".into(), t.recosted as f64, "count"),
        ("core.pricings_reused".into(), t.reused as f64, "count"),
        ("core.memo_hits".into(), t.memo_hits as f64, "count"),
        ("core.steals".into(), t.steals as f64, "count"),
        ("core.dropped_candidates".into(), t.dropped as f64, "count"),
        ("core.est_cost".into(), t.est_cost, "cost"),
    ];
    for layer in [
        "xml",
        "pschema",
        "relational",
        "optimizer",
        "xquery",
        "core",
    ] {
        let s = selfs.get(layer).copied().unwrap_or(0.0) / rounds;
        m.push((format!("{layer}.self_s"), s, "s"));
    }
    m
}

/// Write the spans, each layer's self time, the per-layer metrics and the
/// tracing overhead against the last untraced run of this workload.
fn write_trace(
    args: &Args,
    spans: &[Span],
    per_layer: &Metrics,
    traced: &Metrics,
    e2e_file: &Path,
) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        out.push_str(&span_json(s));
        out.push('\n');
    }
    for (layer, secs) in self_times(spans) {
        out.push_str(&format!(
            "{{\"kind\":\"self_time\",\"layer\":\"{layer}\",\"seconds\":{secs}}}\n"
        ));
    }
    for (name, value, unit) in per_layer {
        out.push_str(&format!(
            "{{\"kind\":\"per_layer\",\"name\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\"}}\n"
        ));
    }
    let untraced: HashMap<String, f64> = std::fs::read_to_string(e2e_file)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (n, v) = l.split_once('\t')?;
            Some((n.to_string(), v.parse().ok()?))
        })
        .collect();
    for (name, value, _) in traced {
        match untraced.get(name) {
            Some(base) => {
                let share = (value - base) / base.abs().max(1e-12);
                out.push_str(&format!(
                    "{{\"kind\":\"overhead\",\"metric\":\"{name}\",\"traced\":{value},\"untraced\":{base},\"change\":{share}}}\n"
                ));
                eprintln!(
                    "pipebench: tracing overhead {name}: {value:.4} traced vs {base:.4} untraced ({:+.1}%)",
                    share * 100.0
                );
            }
            None => out.push_str(&format!(
                "{{\"kind\":\"overhead\",\"metric\":\"{name}\",\"traced\":{value},\"untraced\":null}}\n"
            )),
        }
    }
    let path =
        PathBuf::from(WORK_DIR).join(format!("trace_{}_seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("pipebench: trace written to {}", path.display());
    Ok(())
}
