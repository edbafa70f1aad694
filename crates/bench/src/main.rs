//! `legodb-bench <experiment>`: regenerate one table or figure of the
//! paper, `all` of `EXPERIMENTS.md`, or `gate` the records CI checks.
//!
//! An experiment prints its markdown section. A measured one also
//! appends its JSON-lines records, plus a `wall_ms` record of the whole
//! run, to its `BENCH_*.json` file inside `--out DIR` (default `.`);
//! `--scales N,N,...` overrides its default scales.

#![forbid(unsafe_code)]

use legodb_bench::gate::gate;
use legodb_bench::harness::{self, parse_scales, write_records, Report};
use legodb_util::bench::{fmt_ns, time_once};
use legodb_util::json::JsonObject;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One registry entry: name, default scales (empty: takes no
/// `--scales`), and the experiment.
type Experiment = (&'static str, &'static [u64], fn(&[u64]) -> Report);

/// The registry. `EXPERIMENTS.md` is its first [`SECTIONS`] entries.
const EXPERIMENTS: &[Experiment] = &[
    ("fig06", &[], |_| (harness::fig06(), Vec::new())),
    ("fig10", &[], |_| (harness::fig10(), Vec::new())),
    ("fig11", &[], |_| (harness::fig11(), Vec::new())),
    ("fig13", &[], |_| (harness::fig13(), Vec::new())),
    ("fig14", &[], |_| (harness::fig14(), Vec::new())),
    ("tab02", &[], |_| (harness::tab02(), Vec::new())),
    ("validate_cost_model", &[], |_| {
        (harness::validate_cost_model(), Vec::new())
    }),
    ("full_workload_costs", &[], |_| {
        (harness::full_workload_costs(), Vec::new())
    }),
    ("recovery", &[1, 10], harness::recovery),
    ("search_incremental", &[], |_| harness::search_incremental()),
    ("search_scale", &[1, 10, 100], harness::search_scale),
    ("ingest", &[1, 10], harness::ingest),
    ("layout", &[1, 10], harness::layout),
];
const SECTIONS: usize = 10;

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    format!(
        "usage: legodb-bench <experiment|all> [--scales N,N,...] [--out DIR]\n       \
         legodb-bench gate <records.json> [--where key=value]... [--require key<op>value]...\n\
         experiments: {}",
        names.join(" ")
    )
}

#[derive(Debug)]
enum Command<'a> {
    Gate(&'a [String]),
    /// One experiment, or `None` for `all`.
    Run {
        experiment: Option<&'static Experiment>,
        scales: Option<Vec<u64>>,
        out: PathBuf,
    },
}

fn parse(args: &[String]) -> Result<Command<'_>, String> {
    let (name, flags) = args.split_first().ok_or("no experiment given")?;
    if name == "gate" {
        return Ok(Command::Gate(flags));
    }
    let experiment = match name.as_str() {
        "all" => None,
        _ => Some(
            EXPERIMENTS
                .iter()
                .find(|e| e.0 == name)
                .ok_or_else(|| format!("unknown experiment '{name}'"))?,
        ),
    };
    let (mut scales, mut out) = (None, PathBuf::from("."));
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let mut value = || flags.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--scales" => scales = Some(parse_scales(value()?)?),
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if scales.is_some() && experiment.is_none_or(|e| e.1.is_empty()) {
        return Err(format!("{name} takes no --scales"));
    }
    Ok(Command::Run {
        experiment,
        scales,
        out,
    })
}

/// Run one experiment and return its section. Its records, if any, and a
/// `wall_ms` record of the whole run are appended to
/// `BENCH_<name up to the first '_'>.json` in `out` (the `search_*`
/// experiments share `BENCH_search.json`).
fn run(
    (name, defaults, f): &Experiment,
    scales: Option<&[u64]>,
    out: &Path,
) -> Result<String, String> {
    let ((section, mut records), elapsed) = time_once(|| f(scales.unwrap_or(defaults)));
    eprintln!("{name}: {}", fmt_ns(elapsed.as_nanos() as f64));
    if !records.is_empty() {
        records.push(
            JsonObject::new()
                .str("experiment", name)
                .f64("wall_ms", elapsed.as_secs_f64() * 1e3)
                .finish(),
        );
        let stem = name.split('_').next().unwrap_or(name);
        write_records(out, &format!("BENCH_{stem}.json"), records)?;
    }
    Ok(section)
}

/// Every section of `EXPERIMENTS.md`, written to the working directory.
fn all(out: &Path) -> Result<String, String> {
    let mut doc = String::from(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Regenerated by `cargo run --release -p legodb-bench -- all --out target/bench`.\n\
         Absolute numbers are not expected to match the paper (its cost \
         constants and optimizer internals are unpublished); each section \
         states the paper's qualitative shape next to our measurements.\n\n",
    );
    for experiment in &EXPERIMENTS[..SECTIONS] {
        doc.push_str(&run(experiment, None, out)?);
        doc.push('\n');
    }
    legodb_util::fs::DirHandle::open(".")
        .and_then(|dir| dir.write_atomic("EXPERIMENTS.md", doc.as_bytes()))
        .map_err(|e| format!("cannot write EXPERIMENTS.md: {e}"))?;
    eprintln!("wrote EXPERIMENTS.md");
    Ok(doc)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Err(e) => {
            eprintln!("legodb-bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
        Ok(Command::Gate(args)) => gate(args).map_err(|e| format!("gate: {e}")),
        Ok(Command::Run {
            experiment,
            scales,
            out,
        }) => match experiment {
            Some(e) => run(e, scales.as_deref(), &out),
            None => all(&out),
        }
        .map(|section| print!("{section}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("legodb-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).expect_err("bad command line must be rejected")
    }

    #[test]
    fn empty_scales_are_rejected() {
        assert!(parse_err(&["ingest", "--scales", ""]).contains("''"));
    }

    #[test]
    fn non_numeric_scale_tokens_are_rejected() {
        assert!(parse_err(&["ingest", "--scales", "1,x"]).contains("'x'"));
        assert!(parse_err(&["ingest", "--scales", "abc"]).contains("'abc'"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse_err(&["layout", "--reps", "3"]).contains("--reps"));
    }

    #[test]
    fn unknown_experiments_are_rejected() {
        assert!(parse_err(&["fig99"]).contains("fig99"));
    }

    #[test]
    fn flags_parse_and_defaults_hold() {
        let args: Vec<String> = ["recovery", "--scales", "1, 10", "--out", "d"]
            .map(String::from)
            .to_vec();
        let Ok(Command::Run {
            experiment: Some(e),
            scales,
            out,
        }) = parse(&args)
        else {
            panic!("valid command line rejected");
        };
        assert_eq!((e.0, e.1), ("recovery", &[1u64, 10][..]));
        assert_eq!((scales, out), (Some(vec![1, 10]), PathBuf::from("d")));
        assert!(parse_err(&["fig06", "--scales", "1"]).contains("takes no --scales"));
    }
}
