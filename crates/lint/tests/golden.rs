//! Golden-fixture tests for the lint rules.
//!
//! Every `lint_fixtures/*.rs` file is a deliberately-bad source whose
//! first line, `//@ path: <rel>`, gives the virtual workspace-relative
//! path it pretends to live at (which decides file kind and rule
//! scoping). The diagnostics it produces must match the sibling
//! `<name>.expected` file line for line.
//!
//! To regenerate the `.expected` files after an intentional rule or
//! message change, run the ignored `bless_fixtures` test and review the
//! diff: `cargo test -p legodb-lint --test golden -- --ignored`.

use legodb_lint::{classify, lint_source};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

fn fixture_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("lint_fixtures/ must exist")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures found in lint_fixtures/");
    paths
}

/// Lint one fixture and render its diagnostics, one per line, in the
/// same `path:line:col: [rule] message` format the CLI prints.
fn rendered_diagnostics(fixture: &Path) -> String {
    let src = fs::read_to_string(fixture).expect("fixture is readable");
    let first = src.lines().next().unwrap_or("");
    let rel = first
        .strip_prefix("//@ path: ")
        .unwrap_or_else(|| panic!("{} must start with `//@ path: <rel>`", fixture.display()))
        .trim();
    let diags = lint_source(rel, classify(rel), &src);
    diags.iter().map(|d| format!("{d}\n")).collect()
}

#[test]
#[ignore = "rewrites the .expected files; run with --ignored after a rule change"]
fn bless_fixtures() {
    for fixture in fixture_paths() {
        let got = rendered_diagnostics(&fixture);
        fs::write(fixture.with_extension("expected"), got).expect("write .expected");
    }
}

#[test]
fn fixtures_match_their_expected_diagnostics() {
    let mut failures = Vec::new();
    for fixture in fixture_paths() {
        let got = rendered_diagnostics(&fixture);
        let expected_path = fixture.with_extension("expected");
        let expected = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "{} is missing — run the ignored bless_fixtures test to create it",
                expected_path.display()
            )
        });
        for (i, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
            if g != e {
                failures.push(format!(
                    "{}: diagnostic {} differs\n  expected: {e}\n  got:      {g}",
                    fixture.display(),
                    i + 1
                ));
            }
        }
        let (ng, ne) = (got.lines().count(), expected.lines().count());
        if ng != ne {
            failures.push(format!(
                "{}: expected {ne} diagnostics, got {ng}\n--- expected ---\n{expected}\
                 --- got ---\n{got}",
                fixture.display()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn every_fixture_is_actually_bad() {
    // The acceptance bar: the gate exits non-zero on each golden
    // fixture, so each must produce at least one diagnostic.
    for fixture in fixture_paths() {
        let got = rendered_diagnostics(&fixture);
        assert!(
            !got.is_empty(),
            "{} produced no diagnostics — a golden fixture must violate at \
             least one rule",
            fixture.display()
        );
    }
}

#[test]
fn fixture_diagnostics_serialize_as_json_lines() {
    // The CLI's --json output must stay machine-readable: every record
    // carries the five fields in legodb_util::json object syntax.
    let fixture = fixtures_dir().join("hygiene.rs");
    let src = fs::read_to_string(&fixture).expect("fixture is readable");
    let diags = lint_source(
        "crates/demo/src/lib.rs",
        classify("crates/demo/src/lib.rs"),
        &src,
    );
    assert_eq!(diags.len(), 1);
    let json = diags[0].to_json();
    for field in [
        "\"path\":",
        "\"line\":",
        "\"col\":",
        "\"rule\":",
        "\"message\":",
    ] {
        assert!(json.contains(field), "{json} lacks {field}");
    }
    assert!(json.contains("crate-hygiene"), "{json}");
}
