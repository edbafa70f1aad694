//! Robustness suite: adversarial inputs against the three parsers and
//! fault-injected / budget-bounded greedy searches.
//!
//! The parser tests prove the hard input limits bind *before* the stack
//! does: the over-limit cases run inside a deliberately small
//! `std::thread::Builder` stack, where an unguarded recursive descent
//! would overflow instead of returning the structured error.
//!
//! The search properties prove the fault-isolation layer: with injected
//! candidate panics and failures (deterministic per seed, order- and
//! thread-independent), the search still returns a configuration no
//! worse than its starting point, and parallel and sequential runs agree.
//!
//! The crash-recovery properties prove the durability layer: a seeded
//! fault "crashes" a durable database mid-write (torn WAL append, failed
//! fsync, failed checkpoint), and reopening must restore exactly a prefix
//! of the operation sequence that includes every acknowledged commit —
//! never a partial row, and never divergence between two opens. The CI
//! `recovery` stage reruns these across many `LEGODB_PROP_SEED` streams;
//! test names contain `crash_recovery` so the stage can filter on them.
//!
//! The streaming-ingest properties prove the event layer: the pull
//! tokenizer and the tree parser describe identical documents, the hard
//! limits bind mid-stream (depth, input size, entity expansion), and a
//! crash during batched ingest recovers a prefix of *whole* batches —
//! each batch is one WAL frame, so a torn frame drops wholly.

use legodb_core::{greedy_search, Budget, SearchConfig, SearchOutcome, StartPoint, Workload};
use legodb_relational::{ColumnDef, Database, Layout, SqlType, TableDef, Value};
use legodb_schema::{
    parse_schema, parse_schema_with_limits, Schema, SchemaLimits, SchemaParseError,
};
use legodb_util::fault::{override_for_test, FaultConfig, FaultMode, OverrideGuard};
use legodb_util::fs::DirHandle;
use legodb_util::{prop_assert, prop_assert_eq, prop_check};
use legodb_xml::stats::Statistics;
use legodb_xml::{
    events, events_with_limits, parse, parse_with_limits, tree_events, Event, ParseErrorKind,
    ParseLimits,
};
use legodb_xquery::{parse_xquery, parse_xquery_with_limits, XQueryErrorKind, XQueryLimits};
use std::time::Duration;

/// Run `f` on a thread with a small, explicit stack: if a parser's depth
/// limit fails to bind, the overflow aborts the process and the test
/// fails loudly instead of silently relying on the 8 MiB main stack.
/// 2 MiB holds every parser at its default limit even in debug builds
/// (measured: the schema parser's 4-frames-per-level descent is the
/// hungriest); an unguarded 10k-deep parse needs well over 32 MiB.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .name("small-stack-parse".into())
        .stack_size(2 * 1024 * 1024)
        .spawn(f)
        .expect("spawn small-stack thread")
        .join()
        .expect("small-stack parse must return, not overflow")
}

// ---------------------------------------------------------------- XML --

#[test]
fn xml_depth_limit_binds_on_a_small_stack() {
    let err = on_small_stack(|| {
        let depth = 10_000;
        let src = "<a>".repeat(depth) + &"</a>".repeat(depth);
        parse(&src).unwrap_err()
    });
    assert!(matches!(err.kind, ParseErrorKind::TooDeep { limit: 256 }));
}

#[test]
fn xml_unterminated_tags_error_cleanly() {
    for src in [
        "<a><b>text",
        "<a",
        "<a href=",
        "<a><![CDATA[x",
        "<!-- never closed",
    ] {
        let err = parse(src).unwrap_err();
        assert!(
            matches!(
                err.kind,
                ParseErrorKind::UnexpectedEof(_)
                    | ParseErrorKind::MissingRoot
                    | ParseErrorKind::UnexpectedChar { .. }
            ),
            "{src:?} gave {err}"
        );
    }
}

#[test]
fn xml_entity_flood_is_bounded() {
    let limits = ParseLimits {
        max_entity_expansions: 1_000,
        ..Default::default()
    };
    let src = format!("<a>{}</a>", "&#65;".repeat(1_001));
    let err = parse_with_limits(&src, &limits).unwrap_err();
    assert!(matches!(
        err.kind,
        ParseErrorKind::TooManyEntities { limit: 1_000 }
    ));
}

#[test]
fn xml_oversized_input_is_rejected_before_parsing() {
    let limits = ParseLimits {
        max_input_bytes: 1 << 10,
        ..Default::default()
    };
    let src = format!("<a>{}</a>", "y".repeat(1 << 11));
    let err = parse_with_limits(&src, &limits).unwrap_err();
    assert!(matches!(err.kind, ParseErrorKind::InputTooLarge { .. }));
}

// ------------------------------------------------------------- schema --

#[test]
fn schema_depth_limit_binds_on_a_small_stack() {
    let err = on_small_stack(|| {
        let depth = 10_000;
        let src = format!("type A = {}(){}", "a[ ".repeat(depth), " ]".repeat(depth));
        parse_schema(&src).unwrap_err()
    });
    assert!(matches!(err, SchemaParseError::TooDeep { limit: 128, .. }));
}

#[test]
fn schema_truncated_inputs_error_cleanly() {
    for src in ["type A = a[", "type A = a[ String", "type A = (", "type"] {
        assert!(
            matches!(parse_schema(src), Err(SchemaParseError::Syntax { .. })),
            "{src:?}"
        );
    }
}

#[test]
fn schema_oversized_input_is_rejected_before_parsing() {
    let limits = SchemaLimits {
        max_input_bytes: 128,
        ..Default::default()
    };
    let src = format!("type A = a[ String ] // {}", "pad ".repeat(100));
    assert!(matches!(
        parse_schema_with_limits(&src, &limits),
        Err(SchemaParseError::InputTooLarge { limit: 128, .. })
    ));
}

// ------------------------------------------------------------- xquery --

#[test]
fn xquery_depth_limit_binds_on_a_small_stack() {
    let err = on_small_stack(|| {
        let depth = 10_000;
        let src = format!("{}$v", "FOR $v IN document(\"x\")/a RETURN ".repeat(depth));
        parse_xquery(&src).unwrap_err()
    });
    assert!(matches!(err.kind, XQueryErrorKind::TooDeep { limit: 64 }));
}

#[test]
fn xquery_truncated_inputs_error_cleanly() {
    for src in [
        "FOR",
        "FOR $v IN",
        "FOR $v IN document(\"x",
        "FOR $v IN document(\"x\")/a WHERE",
        "FOR $v IN document(\"x\")/a RETURN <r> $v",
    ] {
        let err = parse_xquery(src).unwrap_err();
        assert_eq!(err.kind, XQueryErrorKind::Syntax, "{src:?}");
    }
}

#[test]
fn xquery_oversized_input_is_rejected_before_parsing() {
    let limits = XQueryLimits {
        max_input_bytes: 64,
        ..Default::default()
    };
    let src = format!(
        "FOR $v IN document(\"x\")/a WHERE $v/t = \"{}\" RETURN $v",
        "z".repeat(256)
    );
    let err = parse_xquery_with_limits(&src, &limits).unwrap_err();
    assert!(matches!(err.kind, XQueryErrorKind::InputTooLarge { .. }));
}

// ------------------------------------------------- search under faults --

fn search_fixture() -> (Schema, Statistics, Workload) {
    let schema = parse_schema(
        "type IMDB = imdb[ Show{0,*} ]
         type Show = show [ title[ String ], year[ Integer ],
                            description[ String ], Aka{0,*}, ( Movie | TV ) ]
         type Movie = box_office[ Integer ]
         type TV = seasons[ Integer ]
         type Aka = aka[ String ]",
    )
    .unwrap();
    let mut stats = Statistics::new();
    stats
        .set_count(&["imdb"], 1)
        .set_count(&["imdb", "show"], 20000)
        .set_size(&["imdb", "show", "title"], 50.0)
        .set_distinct(&["imdb", "show", "title"], 20000)
        .set_count(&["imdb", "show", "year"], 20000)
        .set_base(&["imdb", "show", "year"], 1900, 2000, 100)
        .set_count(&["imdb", "show", "description"], 20000)
        .set_size(&["imdb", "show", "description"], 2000.0)
        .set_count(&["imdb", "show", "aka"], 60000)
        .set_size(&["imdb", "show", "aka"], 40.0)
        .set_count(&["imdb", "show", "box_office"], 14000)
        .set_count(&["imdb", "show", "seasons"], 6000);
    let workload = Workload::from_sources([(
        "lookup",
        r#"FOR $v IN document("x")/imdb/show WHERE $v/title = c1 RETURN $v/year"#,
        1.0,
    )])
    .unwrap();
    (schema, stats, workload)
}

prop_check! {
    cases = 12,
    // Fault isolation: under injected candidate panics and failures the
    // greedy search still returns Ok, never does worse than its starting
    // configuration, and parallel/sequential runs agree (fault decisions
    // are pure functions of (seed, site, key), not of scheduling).
    fn faulty_search_returns_best_so_far_and_parallel_agrees(seed in 0u64..1_000_000) {
        let (schema, stats, workload) = search_fixture();
        let _guard = override_for_test(FaultConfig {
            seed,
            rate: 0.4,
            mode: FaultMode::Mixed,
        });
        let mut costs = Vec::new();
        for parallel in [false, true] {
            let result = greedy_search(
                &schema,
                &stats,
                &workload,
                &SearchConfig {
                    start: StartPoint::MaximallyInlined,
                    parallel,
                    ..Default::default()
                },
            )
            .expect("fault-isolated search must not error");
            let initial = result.trajectory[0].cost;
            prop_assert!(
                result.cost <= initial,
                "seed {seed} parallel {parallel}: cost {} worse than start {}",
                result.cost,
                initial
            );
            prop_assert!(
                result
                    .trajectory
                    .windows(2)
                    .all(|w| w[1].cost <= w[0].cost),
                "seed {seed}: non-monotonic trajectory"
            );
            costs.push(result.cost);
        }
        prop_assert!(
            (costs[0] - costs[1]).abs() < 1e-9,
            "seed {seed}: sequential {} != parallel {}",
            costs[0],
            costs[1]
        );
    }
}

#[test]
fn all_candidates_panicking_still_returns_the_start() {
    let (schema, stats, workload) = search_fixture();
    let _guard = override_for_test(FaultConfig::always(42, FaultMode::Panic));
    let result = greedy_search(&schema, &stats, &workload, &SearchConfig::default()).unwrap();
    assert!(result.dropped_candidates > 0);
    assert_eq!(result.trajectory.len(), 1);
    assert_eq!(result.cost, result.trajectory[0].cost);
}

#[test]
fn zero_deadline_still_yields_a_usable_configuration() {
    let (schema, stats, workload) = search_fixture();
    let result = greedy_search(
        &schema,
        &stats,
        &workload,
        &SearchConfig {
            budget: Some(Budget::none().with_deadline(Duration::ZERO)),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(result.outcome, SearchOutcome::DeadlineExceeded);
    assert!(result.cost.is_finite() && result.cost > 0.0);
    assert!(!result.report.mapping.catalog.is_empty());
}

// ------------------------------------------- durability under crashes --

/// Disable env-activated fault injection (the CI fault stage) so the
/// durability tests see only the faults they inject themselves.
fn quiet_faults() -> OverrideGuard {
    override_for_test(None)
}

fn event_def() -> TableDef {
    let mut def = TableDef::new("Event");
    def.columns = vec![
        ColumnDef::new("Event_id", SqlType::Int),
        ColumnDef::new("name", SqlType::Text),
        ColumnDef::new("note", SqlType::Text).nullable(),
    ];
    def.key = Some("Event_id".into());
    def
}

/// Deterministic row contents so the recovery oracle is pure in the row
/// index — a recovered table can be checked cell-for-cell.
fn event_row(i: i64) -> Vec<Value> {
    let note = if i % 3 == 0 {
        Value::Null
    } else {
        Value::str(format!("note {i}"))
    };
    vec![Value::Int(i), Value::str(format!("event {i}")), note]
}

prop_check! {
    cases = 6,
    // Seeded crash recovery: run a durable workload (create table + index,
    // insert row-by-row with a commit after each, checkpoint midway) under
    // fault injection; the first error is the simulated crash. Reopening
    // must recover exactly `event_row(0..n)` for some n with
    // acked <= n <= attempted — every acknowledged commit survives, an
    // appended-but-unacknowledged row may survive, a torn frame never
    // does — and a second open must see the identical state.
    fn crash_recovery_restores_an_acked_consistent_prefix(
        seed in 0u64..1_000_000,
        rows in 1u64..40,
    ) {
        let root = std::env::temp_dir().join(format!(
            "legodb-crash-recovery-{}-{seed}-{rows}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).expect("create scratch dir");

        let mut acked = 0u64; // insert Ok and the following commit Ok
        let mut attempted = 0u64; // insert issued (may be torn mid-frame)
        {
            // Schema setup runs quiet so every case exercises the insert
            // path instead of crashing at CREATE TABLE.
            let _quiet = quiet_faults();
            let mut db = Database::open(&dir).expect("fresh open");
            db.create_table(event_def()).expect("create table");
            db.create_index("Event", "name").expect("create index");
            db.commit().expect("commit schema");

            let _faulty = override_for_test(FaultConfig {
                seed,
                rate: 0.2,
                mode: FaultMode::Error,
            });
            for i in 0..rows {
                if i == rows / 2 && db.checkpoint(&dir).is_err() {
                    break; // crash inside the checkpoint path
                }
                attempted = i + 1;
                if db.insert("Event", event_row(i as i64)).is_err() {
                    break; // crash during the WAL append (torn frame)
                }
                if db.commit().is_err() {
                    break; // crash during fsync: row appended, not acked
                }
                acked = i + 1;
            }
        }

        let _quiet = quiet_faults();
        let recovered = Database::open(&dir).expect("recovery open");
        let table = recovered.table("Event").expect("table survives");
        let got = table.scan();
        let n = got.len() as u64;
        prop_assert!(
            acked <= n && n <= attempted,
            "seed {seed}: recovered {n} rows, acked {acked}, attempted {attempted}"
        );
        for (i, row) in got.iter().enumerate() {
            prop_assert_eq!(
                row,
                &event_row(i as i64),
                "seed {seed}: row {i} corrupted after recovery"
            );
        }
        prop_assert!(
            table.has_index("name"),
            "seed {seed}: secondary index lost in recovery"
        );
        let again = Database::open(&dir).expect("second open");
        prop_assert_eq!(
            recovered.snapshot(),
            again.snapshot(),
            "seed {seed}: double open diverged"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&root);
    }
}

prop_check! {
    cases = 6,
    // A columnar table is exactly as durable as a row table: the WAL
    // `CreateTable` record carries the layout, so crash recovery must
    // rebuild the column store — not silently fall back to a row heap —
    // and recover an acked-consistent prefix cell-for-cell. A checkpoint
    // taken after recovery must round-trip the layout byte-identically.
    fn crash_recovery_round_trips_a_columnar_table(
        seed in 0u64..1_000_000,
        rows in 1u64..40,
    ) {
        let root = std::env::temp_dir().join(format!(
            "legodb-crash-recovery-col-{}-{seed}-{rows}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).expect("create scratch dir");

        let mut acked = 0u64;
        let mut attempted = 0u64;
        {
            let _quiet = quiet_faults();
            let mut db = Database::open(&dir).expect("fresh open");
            db.create_table(event_def().with_layout(Layout::Columnar))
                .expect("create columnar table");
            db.create_index("Event", "name").expect("create index");
            db.commit().expect("commit schema");

            let _faulty = override_for_test(FaultConfig {
                seed,
                rate: 0.2,
                mode: FaultMode::Error,
            });
            for i in 0..rows {
                if i == rows / 2 && db.checkpoint(&dir).is_err() {
                    break;
                }
                attempted = i + 1;
                if db.insert("Event", event_row(i as i64)).is_err() {
                    break;
                }
                if db.commit().is_err() {
                    break;
                }
                acked = i + 1;
            }
        }

        let _quiet = quiet_faults();
        let recovered = Database::open(&dir).expect("recovery open");
        let table = recovered.table("Event").expect("table survives");
        prop_assert_eq!(
            table.def.layout,
            Layout::Columnar,
            "seed {seed}: layout lost in WAL replay"
        );
        let got = table.scan();
        let n = got.len() as u64;
        prop_assert!(
            acked <= n && n <= attempted,
            "seed {seed}: recovered {n} rows, acked {acked}, attempted {attempted}"
        );
        for (i, row) in got.iter().enumerate() {
            prop_assert_eq!(
                row,
                &event_row(i as i64),
                "seed {seed}: columnar row {i} corrupted after recovery"
            );
        }
        prop_assert!(
            table.has_index("name"),
            "seed {seed}: secondary index lost on the columnar table"
        );
        prop_assert_eq!(
            table.storage_stats().layout,
            Layout::Columnar,
            "seed {seed}: recovered rows are not held in a column store"
        );
        let snapshot = recovered.snapshot();
        // Checkpoint round trip: compact the recovered state and reopen —
        // byte-identical snapshot, layout intact.
        recovered
            .checkpoint(&dir)
            .expect("post-recovery checkpoint");
        let again = Database::open(&dir).expect("open after checkpoint");
        prop_assert_eq!(
            snapshot,
            again.snapshot(),
            "seed {seed}: checkpoint round trip diverged"
        );
        prop_assert_eq!(
            again.table("Event").expect("table survives").def.layout,
            Layout::Columnar,
            "seed {seed}: layout lost in the checkpoint"
        );
        drop(again);
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn crash_recovery_open_of_an_empty_directory_is_a_valid_empty_database() {
    let _quiet = quiet_faults();
    let root = std::env::temp_dir().join(format!(
        "legodb-crash-recovery-empty-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let dir = DirHandle::create(&root).unwrap();
    let db = Database::open(&dir).unwrap();
    assert!(db.is_durable());
    assert_eq!(db.total_rows(), 0);
    // Opening twice more stays empty and identical — no ghost state.
    let a = Database::open(&dir).unwrap().snapshot();
    let b = Database::open(&dir).unwrap().snapshot();
    assert_eq!(a, b);
    let _ = std::fs::remove_dir_all(&root);
}

// -------------------------------------------------- streaming ingest --

/// Deterministic pseudo-random XML covering what the tokenizer handles:
/// nesting, attributes, entity references, comments, CDATA, self-closing
/// tags, and interleaved text. Pure in `seed` so failures replay.
fn gen_xml(seed: u64) -> String {
    fn next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }
    fn element(state: &mut u64, depth: usize, out: &mut String) {
        let name = ["a", "b", "item", "x1"][(next(state) % 4) as usize];
        out.push('<');
        out.push_str(name);
        for k in 0..(next(state) % 3) {
            let val = ["v", "two words", "&amp;", "&#65;"][(next(state) % 4) as usize];
            out.push_str(&format!(" at{k}=\"{val}\""));
        }
        if depth >= 4 || next(state).is_multiple_of(5) {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for _ in 0..(next(state) % 4) {
            match next(state) % 5 {
                0 => out.push_str("some text"),
                1 => out.push_str("&lt;escaped&gt; &#66;"),
                2 => out.push_str("<!-- a comment -->"),
                3 => out.push_str("<![CDATA[raw <bits> & more]]>"),
                _ => element(state, depth + 1, out),
            }
        }
        out.push_str(&format!("</{name}>"));
    }
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut out = String::new();
    element(&mut state, 0, &mut out);
    out
}

prop_check! {
    cases = 64,
    // The pull tokenizer and the tree parser must describe the same
    // document: draining `events` yields exactly the stream that
    // `tree_events` re-derives from the parsed tree.
    fn event_stream_agrees_with_tree_parse(seed in 0u64..1_000_000) {
        let src = gen_xml(seed);
        let doc = parse(&src).expect("generated XML parses");
        let streamed: Vec<Event<'_>> = events(&src)
            .collect::<Result<_, _>>()
            .expect("generated XML tokenizes");
        let folded: Vec<Event<'_>> = tree_events(&doc).collect();
        prop_assert_eq!(streamed, folded, "seed {seed}: event streams diverged");
    }
}

#[test]
fn streaming_depth_limit_binds_mid_stream_on_a_small_stack() {
    // 10k opens, no closers: the limit must fire while pulling, long
    // before EOF, and without growing the stack.
    let (ok_events, err) = on_small_stack(|| {
        let src = "<a>".repeat(10_000);
        let mut it = events(&src);
        let mut ok = 0usize;
        loop {
            match it.next() {
                Some(Ok(_)) => ok += 1,
                Some(Err(e)) => return (ok, e),
                None => panic!("stream ended without hitting the depth limit"),
            }
        }
    });
    assert!(matches!(err.kind, ParseErrorKind::TooDeep { limit: 256 }));
    assert!(
        (255..=256).contains(&ok_events),
        "events up to the limit are delivered, got {ok_events}"
    );
}

#[test]
fn streaming_oversized_input_is_rejected_before_any_event() {
    let limits = ParseLimits {
        max_input_bytes: 1 << 10,
        ..Default::default()
    };
    let src = format!("<a>{}</a>", "y".repeat(1 << 11));
    let first = events_with_limits(&src, &limits)
        .next()
        .expect("oversized input yields an error event");
    let err = first.expect_err("first pull must reject the oversized input");
    assert!(matches!(err.kind, ParseErrorKind::InputTooLarge { .. }));
}

#[test]
fn streaming_entity_bomb_is_cut_off_mid_stream() {
    let limits = ParseLimits {
        max_entity_expansions: 1_000,
        ..Default::default()
    };
    let src = format!("<a>{}</a>", "<b>&#65;</b>".repeat(1_001));
    let mut it = events_with_limits(&src, &limits);
    let mut ok = 0usize;
    let err = loop {
        match it.next() {
            Some(Ok(_)) => ok += 1,
            Some(Err(e)) => break e,
            None => panic!("stream ended without hitting the entity limit"),
        }
    };
    assert!(matches!(
        err.kind,
        ParseErrorKind::TooManyEntities { limit: 1_000 }
    ));
    assert!(ok > 1_000, "the bomb streamed until the budget ran out");
}

prop_check! {
    cases = 6,
    // Batched ingest durability: every batch goes to the WAL as one frame,
    // so a seeded crash anywhere in the workload must recover a prefix of
    // *whole* batches — `acked <= n <= attempted` batches, never a torn
    // one — and a second open must agree.
    fn crash_recovery_preserves_whole_batches(
        seed in 0u64..1_000_000,
        batches in 1u64..12,
    ) {
        const BATCH: u64 = 5;
        let root = std::env::temp_dir().join(format!(
            "legodb-crash-batch-{}-{seed}-{batches}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).expect("create scratch dir");

        let mut acked = 0u64;
        let mut attempted = 0u64;
        {
            let _quiet = quiet_faults();
            let mut db = Database::open(&dir).expect("fresh open");
            db.create_table(event_def()).expect("create table");
            db.commit().expect("commit schema");

            let _faulty = override_for_test(FaultConfig {
                seed,
                rate: 0.2,
                mode: FaultMode::Error,
            });
            for b in 0..batches {
                attempted = b + 1;
                let rows: Vec<Vec<Value>> = (b * BATCH..(b + 1) * BATCH)
                    .map(|i| event_row(i as i64))
                    .collect();
                // A torn append drops the whole frame; a failed fsync may
                // still leave the full frame on disk (appended, unacked).
                if db.insert_batch("Event", rows).is_err() {
                    break;
                }
                acked = b + 1;
            }
        }

        let _quiet = quiet_faults();
        let recovered = Database::open(&dir).expect("recovery open");
        let table = recovered.table("Event").expect("table survives");
        let got = table.scan();
        let n = got.len() as u64;
        prop_assert!(
            n.is_multiple_of(BATCH),
            "seed {seed}: recovered {n} rows — a torn batch leaked through"
        );
        prop_assert!(
            acked * BATCH <= n && n <= attempted * BATCH,
            "seed {seed}: recovered {n} rows, acked {acked} batches, attempted {attempted}"
        );
        for (i, row) in got.iter().enumerate() {
            prop_assert_eq!(
                row,
                &event_row(i as i64),
                "seed {seed}: row {i} corrupted after recovery"
            );
        }
        let again = Database::open(&dir).expect("second open");
        prop_assert_eq!(
            recovered.snapshot(),
            again.snapshot(),
            "seed {seed}: double open diverged"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn budgeted_search_is_never_better_than_unbudgeted() {
    let (schema, stats, workload) = search_fixture();
    let free = greedy_search(&schema, &stats, &workload, &SearchConfig::default()).unwrap();
    for max_evals in [1, 2, 4, 8, 64] {
        let bounded = greedy_search(
            &schema,
            &stats,
            &workload,
            &SearchConfig {
                budget: Some(Budget::none().with_max_evaluations(max_evals)),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(bounded.cost >= free.cost, "max_evals={max_evals}");
        assert!(bounded.cost <= bounded.trajectory[0].cost);
    }
}
