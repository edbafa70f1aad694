//! One round of the pipeline: design search → durable load → reopen →
//! warm-up → timed lookups → query-mix passes → publish. Every step is
//! timed here, around calls to the crates' public functions, and every
//! output is checked against the reference answers the set-up computed.

use crate::input::{Expected, Input};
use crate::reference::{document_digest, Fingerprint};
use crate::trace::Tracer;
use crate::workload::{query_text, Spec, LOOKUP_SHAPES};
use legodb_core::search::{greedy_search, SearchResult};
use legodb_core::LegoDb;
use legodb_imdb::imdb_schema;
use legodb_optimizer::{optimize_statement, OptimizerConfig, Statement};
use legodb_pschema::mapping::Anchor;
use legodb_pschema::{publish_all, shred_events_report, Mapping};
use legodb_relational::exec::run;
use legodb_relational::{Database, ExecCounters, Row, Value};
use legodb_util::fs::DirHandle;
use legodb_xml::stats::Statistics;
use legodb_xml::{events, Document};
use legodb_xquery::{parse_xquery, translate};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Reopens and publishes per slice: enough samples of the short steps for
/// a steady median.
const REPEATS: usize = 2;

/// Everything measured over a run's rounds.
#[derive(Default)]
pub struct Tally {
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks by operation, for the diagnostic summary.
    pub failures: BTreeMap<String, u64>,
    /// Set once a step could not run at all and the round was cut short.
    pub cut_short: bool,
    pub xml_bytes: u64,
    pub search_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub reopen_s: Vec<f64>,
    pub lookup_ms: Vec<f64>,
    pub mix_s: Vec<f64>,
    pub publish_mb_s: Vec<f64>,
    pub stored_ratio: Vec<f64>,
    pub warmup_s: Vec<f64>,
    // Counters the layers' APIs return, reported by the traced run.
    pub published_bytes: u64,
    pub peak_resident_elements: u64,
    pub fsyncs: u64,
    pub wal_bytes: u64,
    pub checkpoint_bytes: u64,
    pub lookup_counters: ExecCounters,
    pub lookup_rows: u64,
    pub mix_counters: ExecCounters,
    pub mix_statements: u64,
    pub mix_queries: u64,
    pub q_errors: Vec<f64>,
    pub search_iterations: u64,
    pub recosted: u64,
    pub reused: u64,
    pub memo_hits: u64,
    pub steals: u64,
    pub dropped: u64,
    pub est_cost: f64,
}

impl Tally {
    fn check(&mut self, op: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let n = self.failures.entry(op.to_string()).or_default();
            if *n == 0 {
                eprintln!("pipebench: {op} failed: {}", detail());
            }
            *n += 1;
        }
    }

    /// An operation that returned an error: counted as failed, and the
    /// rest of the round cannot run.
    fn broken(&mut self, op: &str, error: impl std::fmt::Display) {
        self.check(op, false, || error.to_string());
        self.cut_short = true;
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lookup,
    MixFirstPass,
    Mix,
}

/// One query's output, reduced for the checks and the counters.
struct QueryOutput {
    answer: Fingerprint,
    counters: ExecCounters,
    statements: usize,
    /// (estimated, actual) rows per statement.
    cardinalities: Vec<(f64, usize)>,
}

fn render(v: &Value) -> Option<String> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(i.to_string()),
        Value::Str(s) => Some(s.clone()),
    }
}

/// Reduce a statement's rows to answer items. Key, foreign-key and
/// wildcard-tag columns are structure: a statement that returns any of
/// them publishes a subtree, and each of its values is one item;
/// otherwise each row is one item. NULLs are absent values.
fn add_rows(mapping: &Mapping, statement: &Statement, rows: &[Row], fp: &mut Fingerprint) {
    let Some(block) = statement.blocks().first() else {
        return;
    };
    let structural: Vec<bool> = block
        .projection
        .iter()
        .map(|c| {
            let table = &block.tables[c.table].table;
            c.column == "tilde"
                || mapping.catalog.table(table).is_some_and(|def| {
                    def.key.as_deref() == Some(c.column.as_str())
                        || def.foreign_keys.iter().any(|fk| fk.column == c.column)
                })
        })
        .collect();
    let publishes = structural.iter().any(|&s| s);
    for row in rows {
        let values: Vec<String> = row
            .iter()
            .enumerate()
            .filter(|(i, _)| !structural.get(*i).copied().unwrap_or(false))
            .filter_map(|(_, v)| render(v))
            .collect();
        if publishes {
            for v in values {
                fp.add(&[v]);
            }
        } else if !values.is_empty() {
            fp.add(&values);
        }
    }
}

/// Parse → translate → optimize → execute, with a span around each call.
fn run_query(
    tr: &Tracer,
    mapping: &Mapping,
    db: &Database,
    text: &str,
) -> Result<QueryOutput, String> {
    let q = {
        let _s = tr.span("xquery.parse");
        parse_xquery(text).map_err(|e| format!("parse: {e}"))?
    };
    let t = {
        let _s = tr.span("xquery.translate");
        translate(mapping, &q).map_err(|e| format!("translate: {e}"))?
    };
    let mut out = QueryOutput {
        answer: Fingerprint::default(),
        counters: ExecCounters::default(),
        statements: t.statements.len(),
        cardinalities: Vec::new(),
    };
    let config = OptimizerConfig::default();
    for statement in &t.statements {
        let plan = {
            let _s = tr.span("optimizer.optimize_statement");
            optimize_statement(&mapping.catalog, statement, &config)
                .map_err(|e| format!("optimize: {e}"))?
        };
        let (rows, counters) = {
            let _s = tr.span("relational.exec");
            run(db, &plan.plan).map_err(|e| format!("execute: {e}"))?
        };
        out.counters.absorb(counters);
        out.cardinalities.push((plan.rows, rows.len()));
        add_rows(mapping, statement, &rows, &mut out.answer);
    }
    Ok(out)
}

/// An order-sensitive digest of a database's logical state: table
/// definitions, layouts and rows (not indexes, which the durable load
/// does not carry over). Streams rows, so it holds no copy of the data.
fn state_fingerprint(db: &Database) -> Fingerprint {
    let mut fp = Fingerprint::default();
    for table in db.tables() {
        let def = &table.def;
        let columns: Vec<&str> = def.columns.iter().map(|c| c.name.as_str()).collect();
        fp.add(&[
            def.name.as_str(),
            &columns.join(","),
            &format!("{:?}", def.layout),
            &table.len().to_string(),
        ]);
        let mut position = 0u64;
        table.for_each(|row| {
            position += 1;
            fp.add_with(|feed| {
                feed(&position.to_le_bytes());
                for v in row {
                    match v {
                        Value::Null => feed(b"\0null"),
                        Value::Int(i) => {
                            feed(b"\0int");
                            feed(&i.to_le_bytes());
                        }
                        Value::Str(s) => feed(s.as_bytes()),
                    }
                }
            });
        });
    }
    fp
}

/// Per-table row counts against element counts from the document. Tables
/// and the label paths they occur at form groups (a type split over two
/// tables, a table shared by two paths); each group's rows must equal its
/// elements. Types anchored in their parent's element (sequence-shaped
/// types such as `Movie`) have no element of their own and are skipped.
fn row_counts_match(
    mapping: &Mapping,
    db: &Database,
    counts: &HashMap<String, u64>,
) -> Result<(), String> {
    let mut group_of: HashMap<String, usize> = HashMap::new();
    let mut parent: Vec<usize> = Vec::new();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut node = |key: String, parent: &mut Vec<usize>| -> usize {
        *group_of.entry(key).or_insert_with(|| {
            parent.push(parent.len());
            parent.len() - 1
        })
    };
    let mut skipped = Vec::new();
    for tm in mapping.tables.values() {
        if tm
            .occurrences
            .iter()
            .any(|o| o.anchor != Anchor::OwnElement)
        {
            skipped.push(format!("table:{}", tm.table));
        }
        let t = node(format!("table:{}", tm.table), &mut parent);
        for o in &tm.occurrences {
            let p = node(format!("path:{}", o.path), &mut parent);
            let (a, b) = (find(&mut parent, t), find(&mut parent, p));
            parent[a] = b;
        }
    }
    let mut rows: HashMap<usize, (u64, u64, Vec<String>)> = HashMap::new();
    let keys: Vec<(String, usize)> = group_of.iter().map(|(k, &v)| (k.clone(), v)).collect();
    for (key, i) in keys {
        let root = find(&mut parent, i);
        let entry = rows.entry(root).or_default();
        entry.2.push(key.clone());
        if let Some(table) = key.strip_prefix("table:") {
            entry.0 += db.table(table).map_err(|e| e.to_string())?.len() as u64;
        } else if let Some(path) = key.strip_prefix("path:") {
            entry.1 += counts.get(path).copied().unwrap_or(0);
        }
    }
    for (stored, elements, members) in rows.values() {
        if members.iter().any(|m| skipped.contains(m)) {
            continue;
        }
        if stored != elements {
            let mut members = members.clone();
            members.sort();
            return Err(format!(
                "{stored} rows but {elements} elements in {}",
                members.join(" ")
            ));
        }
    }
    Ok(())
}

fn stored_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

pub struct Pipeline<'a> {
    pub spec: &'static Spec,
    pub input: &'a Input,
    pub tracer: &'a Tracer,
    /// Directory of the durable database (recreated every round).
    pub db_dir: &'a Path,
    pub tally: Tally,
}

impl Pipeline<'_> {
    /// Run one whole round; a step that errors ends the round early.
    pub fn round(&mut self) {
        self.tally.rounds += 1;
        self.tally.xml_bytes = self.input.xml.len() as u64;
        let mut mapping = None;
        // Every repeated step is sampled in every slice, so its samples
        // spread over the whole round rather than one burst: on a shared
        // machine the speed drifts over seconds, and medians over samples
        // spread in time drift less.
        let slices = self.spec.slices;
        let chunk = self.input.lookups.len() / slices;
        for slice in 0..slices {
            if slice < self.spec.searches {
                let Some(result) = self.search() else { return };
                mapping = Some(result.report.mapping);
            }
            let Some(mapping) = mapping.as_ref() else {
                return;
            };
            if slice == 0 && self.tracer.is_on() {
                self.tokenize();
            }
            let Some(loaded) = self.load(mapping) else {
                return;
            };
            let (mut db, loaded_fp) = loaded;
            for _ in 0..REPEATS {
                drop(db);
                let Some(reopened) = self.reopen(mapping, &loaded_fp) else {
                    return;
                };
                db = reopened;
            }
            self.warm_up(mapping, &db);
            let end = if slice + 1 == slices {
                self.input.lookups.len()
            } else {
                (slice + 1) * chunk
            };
            self.lookups(mapping, &db, slice * chunk..end);
            for pass in 0..self.spec.mix_passes {
                self.query_mix(mapping, &db, slice == 0 && pass == 0);
            }
            for _ in 0..REPEATS {
                self.publish(mapping, &db);
            }
        }
    }

    fn search(&mut self) -> Option<SearchResult> {
        let tr = self.tracer;
        let workload = self.spec.search_workload();
        let config = self.spec.search_config();
        let op = tr.op("op.search");
        let t = Instant::now();
        let stats = {
            let _s = tr.span("xml.collect_stats");
            Statistics::collect_stream(events(&self.input.xml))
        };
        let stats = match stats {
            Ok(s) => s,
            Err(e) => {
                drop(op);
                self.tally.broken("search", e);
                return None;
            }
        };
        let result = {
            let _s = tr.span("core.greedy_search");
            greedy_search(&imdb_schema(), &stats, &workload, &config)
        };
        let secs = t.elapsed().as_secs_f64();
        drop(op);
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.tally.broken("search", e);
                return None;
            }
        };
        self.tally.search_s.push(secs);
        // Properties: the trajectory never rises, no candidate was
        // dropped, and the reported cost is what pricing the chosen
        // p-schema from scratch gives.
        let costs: Vec<f64> = result.trajectory.iter().map(|r| r.cost).collect();
        let monotone = costs.windows(2).all(|w| w[1] <= w[0]);
        let recomputed = LegoDb::new(imdb_schema(), stats, workload)
            .with_search_config(config)
            .cost_of(&result.pschema)
            .map(|r| r.total);
        let ok = monotone && result.dropped_candidates == 0 && recomputed == Ok(result.cost);
        self.tally.check("search", ok, || {
            format!(
                "trajectory {costs:?}, dropped {}, cost {} vs recomputed {recomputed:?}",
                result.dropped_candidates, result.cost
            )
        });
        let t = &mut self.tally;
        t.search_iterations = result.trajectory.len() as u64;
        t.recosted = result.eval.recosted;
        t.reused = result.eval.reused;
        t.memo_hits = result.eval.memo_hits;
        t.steals = result.sched.as_ref().map_or(0, |s| s.steals);
        t.dropped = result.dropped_candidates;
        t.est_cost = result.cost;
        Some(result)
    }

    /// Traced runs only: drain the tokenizer over the input alone.
    fn tokenize(&mut self) {
        let _op = self.tracer.op("op.tokenize");
        let _s = self.tracer.span("xml.tokenize");
        let mut n = 0usize;
        for ev in events(&self.input.xml) {
            if ev.is_err() {
                break;
            }
            n += 1;
        }
        std::hint::black_box(n);
    }

    /// Stream the XML into a fresh durable database, batch by batch.
    fn load(&mut self, mapping: &Mapping) -> Option<(Database, Fingerprint)> {
        let _ = std::fs::remove_dir_all(self.db_dir);
        let dir = match DirHandle::create(self.db_dir) {
            Ok(d) => d,
            Err(e) => {
                self.tally.broken("load", e);
                return None;
            }
        };
        let tr = self.tracer;
        let op = tr.op("op.load");
        let t = Instant::now();
        let loaded = load_durable(tr, self.spec, mapping, &self.input.xml, &dir);
        let secs = t.elapsed().as_secs_f64();
        drop(op);
        let (db, mem, stats) = match loaded {
            Ok(x) => x,
            Err(e) => {
                self.tally.broken("load", e);
                return None;
            }
        };
        self.tally.load_s.push(secs);
        let stored = stored_bytes(self.db_dir).unwrap_or(0);
        self.tally
            .stored_ratio
            .push(stored as f64 / self.input.xml.len() as f64);
        self.tally.peak_resident_elements = stats.peak_resident_elements;
        self.tally.fsyncs = stats.fsyncs;
        self.tally.wal_bytes = stats.wal_bytes;
        self.tally.checkpoint_bytes = stats.checkpoint_bytes;
        // The durable tables hold exactly what the shredder produced.
        let fp = state_fingerprint(&db);
        let shredded = state_fingerprint(&mem);
        drop(mem);
        self.tally.check("load", fp == shredded, || {
            "durable state differs from the shredded state".to_string()
        });
        Some((db, fp))
    }

    /// `Database::open` on the directory the load left (the caller has
    /// dropped every open handle on it).
    fn reopen(&mut self, mapping: &Mapping, loaded_fp: &Fingerprint) -> Option<Database> {
        let opened = DirHandle::open(self.db_dir).map_err(|e| e.to_string());
        let op = self.tracer.op("op.reopen");
        let t = Instant::now();
        let opened = opened.and_then(|dir| {
            let _s = self.tracer.span("relational.open");
            Database::open(&dir).map_err(|e| e.to_string())
        });
        let secs = t.elapsed().as_secs_f64();
        drop(op);
        let db = match opened {
            Ok(db) => db,
            Err(e) => {
                self.tally.broken("reopen", e);
                return None;
            }
        };
        self.tally.reopen_s.push(secs);
        let same = state_fingerprint(&db) == *loaded_fp;
        let counts = row_counts_match(mapping, &db, &self.input.counts);
        self.tally.check("reopen", same && counts.is_ok(), || {
            format!("state equal to the loaded one: {same}; row counts: {counts:?}")
        });
        Some(db)
    }

    /// One untimed pass over every lookup shape and mix query, and one
    /// publish: indexes the optimizer assumes but the reopened database
    /// lacks are built inside the first query that probes them
    /// (`exec::probe_index`), and `publish_all` builds the foreign-key
    /// indexes it walks, so this pass pays those builds and every timed
    /// sample after it sees the same database.
    fn warm_up(&mut self, mapping: &Mapping, db: &Database) {
        let t = Instant::now();
        let firsts = LOOKUP_SHAPES
            .iter()
            .filter_map(|shape| self.input.lookups.iter().find(|e| e.query == *shape));
        for e in firsts.chain(&self.input.mix) {
            let _op = self.tracer.op("op.warm_up");
            let _ = run_query(self.tracer, mapping, db, &query_text(&e.query, &e.constant));
        }
        {
            let _op = self.tracer.op("op.warm_up");
            let _ = publish_all(mapping, db);
        }
        self.tally.warmup_s.push(t.elapsed().as_secs_f64());
    }

    fn lookups(&mut self, mapping: &Mapping, db: &Database, range: std::ops::Range<usize>) {
        for e in &self.input.lookups[range] {
            let text = query_text(&e.query, &e.constant);
            let op = self.tracer.op("op.lookup");
            let t = Instant::now();
            let out = run_query(self.tracer, mapping, db, &text);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(op);
            self.tally.lookup_ms.push(ms);
            self.record(e, out, Kind::Lookup);
        }
    }

    /// One pass over the query mix; its time is the sum of the queries'
    /// times, checks excluded.
    fn query_mix(&mut self, mapping: &Mapping, db: &Database, first_pass: bool) {
        let mut secs = 0.0;
        for e in &self.input.mix {
            let text = query_text(&e.query, &e.constant);
            let op = self.tracer.op("op.mix");
            let t = Instant::now();
            let out = run_query(self.tracer, mapping, db, &text);
            secs += t.elapsed().as_secs_f64();
            drop(op);
            let kind = if first_pass {
                Kind::MixFirstPass
            } else {
                Kind::Mix
            };
            self.record(e, out, kind);
        }
        self.tally.mix_s.push(secs);
    }

    /// Check one query's answer and keep the counters the traced run
    /// reports: over every lookup, and over each round's first mix pass.
    fn record(&mut self, e: &Expected, out: Result<QueryOutput, String>, kind: Kind) {
        let t = &mut self.tally;
        match out {
            Ok(out) => {
                if kind == Kind::MixFirstPass {
                    t.mix_counters.absorb(out.counters);
                    t.mix_statements += out.statements as u64;
                    t.mix_queries += 1;
                    for (est, actual) in &out.cardinalities {
                        let (est, actual) = (est.max(1.0), (*actual as f64).max(1.0));
                        t.q_errors.push((est / actual).max(actual / est));
                    }
                } else if kind == Kind::Lookup {
                    t.lookup_counters.absorb(out.counters);
                    t.lookup_rows += out.counters.tuples_output;
                }
                let ok = out.answer == e.answer;
                t.check(&e.query, ok, || {
                    format!(
                        "constant {:?}: got {} items, expected {}",
                        e.constant, out.answer.count, e.answer.count
                    )
                });
            }
            Err(err) => t.check(&e.query, false, || err),
        }
    }

    fn publish(&mut self, mapping: &Mapping, db: &Database) {
        let tr = self.tracer;
        let op = tr.op("op.publish");
        let t = Instant::now();
        let published = {
            let _s = tr.span("pschema.publish_all");
            publish_all(mapping, db)
        };
        let doc = match published {
            Ok(doc) => doc,
            Err(e) => {
                drop(op);
                self.tally.broken("publish", e);
                return;
            }
        };
        let xml = {
            let _s = tr.span("xml.serialize");
            doc.to_xml()
        };
        let secs = t.elapsed().as_secs_f64();
        drop(op);
        self.tally.published_bytes = xml.len() as u64;
        self.tally
            .publish_mb_s
            .push(xml.len() as f64 / 1e6 / secs.max(1e-9));
        let ok = document_digest(&doc.root) == self.input.digest;
        let input = self.input;
        self.tally
            .check("publish", ok, || publish_diff(&doc, input));
    }
}

/// The label paths whose element counts differ between the published
/// document and the input, for the failure message.
fn publish_diff(doc: &Document, input: &Input) -> String {
    let got: HashMap<String, u64> = crate::reference::path_counts(&doc.root)
        .into_iter()
        .collect();
    let mut diffs: Vec<String> = Vec::new();
    let mut paths: Vec<&String> = got.keys().chain(input.counts.keys()).collect();
    paths.sort();
    paths.dedup();
    for p in paths {
        let (a, b) = (
            input.counts.get(p).copied().unwrap_or(0),
            got.get(p).copied().unwrap_or(0),
        );
        if a != b {
            diffs.push(format!("{p}: {a} in the input, {b} published"));
        }
    }
    if diffs.is_empty() {
        "same element counts, different content or order".to_string()
    } else {
        diffs.join("; ")
    }
}

struct LoadStats {
    peak_resident_elements: u64,
    fsyncs: u64,
    wal_bytes: u64,
    checkpoint_bytes: u64,
}

/// `events` → `shred_events_report` → `create_table` → `insert_batch`
/// (one WAL frame and one fsync per batch) → `commit`, with a checkpoint
/// once half the rows are in when the workload asks for one. Indexes are
/// not carried over: the executor and the publisher build the ones they
/// probe on first use.
fn load_durable(
    tr: &Tracer,
    spec: &Spec,
    mapping: &Mapping,
    xml: &str,
    dir: &DirHandle,
) -> Result<(Database, Database, LoadStats), String> {
    let (mem, report) = {
        let _s = tr.span("pschema.shred");
        shred_events_report(mapping, events(xml)).map_err(|e| format!("shred: {e}"))?
    };
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let mut db = {
        let _s = tr.span("relational.open");
        Database::open(dir).map_err(|e| err("open", &e))?
    };
    for table in mem.tables() {
        let _s = tr.span("relational.create_table");
        db.create_table(table.def.clone())
            .map_err(|e| err("create table", &e))?;
    }
    {
        let _s = tr.span("relational.commit");
        db.commit().map_err(|e| err("commit", &e))?;
    }
    let syncs = |db: &Database| db.wal().map_or(0, |w| w.sync_count());
    let wal_len = |db: &Database| db.wal().map_or(Ok(0), |w| w.len_bytes());
    let syncs_before = syncs(&db);
    let half = report.rows / 2;
    let mut inserted = 0u64;
    let mut wal_bytes = None;
    let mut failure: Option<String> = None;
    for table in mem.tables() {
        let name = table.def.name.as_str();
        let mut batch: Vec<Row> = Vec::with_capacity(spec.batch_rows);
        let mut flush = |batch: &mut Vec<Row>, failure: &mut Option<String>| {
            if failure.is_some() || batch.is_empty() {
                batch.clear();
                return;
            }
            inserted += batch.len() as u64;
            let rows = std::mem::replace(batch, Vec::with_capacity(spec.batch_rows));
            let r = {
                let _s = tr.span("relational.insert_batch");
                db.insert_batch(name, rows)
            };
            if let Err(e) = r {
                *failure = Some(err("insert batch", &e));
                return;
            }
            if spec.checkpoint_halfway && wal_bytes.is_none() && inserted >= half {
                wal_bytes = Some(wal_len(&db).map_err(|e| err("WAL size", &e)));
                let _s = tr.span("relational.checkpoint");
                if let Err(e) = db.checkpoint(dir) {
                    *failure = Some(err("checkpoint", &e));
                }
            }
        };
        table.for_each(|row| {
            batch.push(row.clone());
            if batch.len() == spec.batch_rows {
                flush(&mut batch, &mut failure);
            }
        });
        flush(&mut batch, &mut failure);
        if let Some(f) = failure {
            return Err(f);
        }
    }
    {
        let _s = tr.span("relational.commit");
        db.commit().map_err(|e| err("commit", &e))?;
    }
    let wal_bytes = match wal_bytes {
        Some(w) => w?,
        None => wal_len(&db).map_err(|e| err("WAL size", &e))?,
    };
    let checkpoint_bytes = dir
        .file_len(legodb_relational::storage::CHECKPOINT_FILE)
        .unwrap_or(0);
    let stats = LoadStats {
        peak_resident_elements: report.peak_resident_elements as u64,
        fsyncs: syncs(&db) - syncs_before,
        wal_bytes,
        checkpoint_bytes,
    };
    Ok((db, mem, stats))
}
