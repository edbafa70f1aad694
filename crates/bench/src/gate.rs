//! `legodb-bench gate`: enforce named thresholds over JSON-lines bench
//! records.
//!
//! ```text
//! legodb-bench gate target/ci/BENCH_search.json \
//!     --where experiment=search_incremental \
//!     --require hit_rate>0 --require speedup>=1.5
//! ```
//!
//! Records are read with `legodb_util::json`; the *last* record matching
//! every `--where key=value` filter is the one gated (JSON-lines files
//! are append-only, so the last match is the most recent run). Each
//! `--require key<op>value` (`>`, `>=`, `<`, `<=`, `==`, `!=`) is
//! checked against that record; on any failure the observed vs required
//! values are reported and the gate fails. A missing file, missing
//! record, or missing field is also a failure — a gate that cannot find
//! its metric must not pass silently. A key may name a nested field by
//! its `/`-separated path (`metrics/pschema.peak_resident_elements/value`).

use legodb_util::json::{parse_lines, Value};

struct Filter {
    key: String,
    value: String,
}

enum Op {
    Gt,
    Ge,
    Lt,
    Le,
    Eq,
    Ne,
}

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Eq => "==",
            Op::Ne => "!=",
        }
    }

    fn holds(&self, observed: f64, required: f64) -> bool {
        match self {
            Op::Gt => observed > required,
            Op::Ge => observed >= required,
            Op::Lt => observed < required,
            Op::Le => observed <= required,
            Op::Eq => observed == required,
            Op::Ne => observed != required,
        }
    }
}

struct Require {
    key: String,
    op: Op,
    value: f64,
    raw: String,
}

fn parse_require(expr: &str) -> Result<Require, String> {
    // Two-character operators first so ">=" does not lex as ">" + "=".
    for (symbol, op) in [
        (">=", Op::Ge),
        ("<=", Op::Le),
        ("==", Op::Eq),
        ("!=", Op::Ne),
        (">", Op::Gt),
        ("<", Op::Lt),
    ] {
        if let Some(at) = expr.find(symbol) {
            let key = expr[..at].trim();
            let rhs = expr[at + symbol.len()..].trim();
            if key.is_empty() {
                return Err(format!("requirement '{expr}' has an empty metric name"));
            }
            let value: f64 = rhs
                .parse()
                .map_err(|_| format!("requirement '{expr}': '{rhs}' is not a number"))?;
            return Ok(Require {
                key: key.to_string(),
                op,
                value,
                raw: expr.to_string(),
            });
        }
    }
    Err(format!(
        "requirement '{expr}' has no comparison operator (>, >=, <, <=, ==, !=)"
    ))
}

/// The field at a `/`-separated key path.
fn field<'a>(record: &'a Value, key: &str) -> Option<&'a Value> {
    key.split('/').try_fold(record, |v, k| v.get(k))
}

fn matches(record: &Value, filters: &[Filter]) -> bool {
    filters.iter().all(|f| match field(record, &f.key) {
        Some(Value::String(s)) => *s == f.value,
        Some(v) => match (v.as_f64(), f.value.parse::<f64>()) {
            (Some(a), Ok(b)) => a == b,
            _ => v.render() == f.value,
        },
        None => false,
    })
}

/// Gate one records file; `args` are everything after `gate`.
pub fn gate(args: &[String]) -> Result<(), String> {
    let mut args = args.iter().cloned();
    let mut file = None;
    let mut filters = Vec::new();
    let mut requires = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--where" => {
                let spec = args.next().ok_or("--where needs key=value")?;
                let (key, value) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--where '{spec}' is not key=value"))?;
                filters.push(Filter {
                    key: key.to_string(),
                    value: value.to_string(),
                });
            }
            "--require" => {
                let expr = args.next().ok_or("--require needs an expression")?;
                requires.push(parse_require(&expr)?);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: legodb-bench gate <records.json> [--where key=value]... [--require key<op>value]..."
                );
                return Ok(());
            }
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let file = file.ok_or("no records file given (usage: legodb-bench gate <records.json> ...)")?;
    if requires.is_empty() {
        return Err("no --require given; a gate with nothing to enforce is a bug".into());
    }

    // Ambient authority enters at the CLI boundary: the argv path
    // becomes a DirHandle on its parent directory.
    let body = legodb_util::fs::DirHandle::open_containing(&file)
        .and_then(|(dir, name)| dir.read_to_string(&name))
        .map_err(|e| format!("cannot read {file}: {e} (did the bench stage run?)"))?;
    let records = parse_lines(&body).map_err(|e| format!("{file}: {e}"))?;
    let scope: String = filters
        .iter()
        .map(|f| format!(" {}={}", f.key, f.value))
        .collect();
    let record = records
        .iter()
        .rev()
        .find(|r| matches(r, &filters))
        .ok_or_else(|| {
            format!(
                "{file}: no record matches{scope} ({} records scanned)",
                records.len()
            )
        })?;

    let mut failures = Vec::new();
    for req in &requires {
        let observed = field(record, &req.key).and_then(Value::as_f64);
        match observed {
            None => failures.push(format!(
                "  {}: field missing or non-numeric in matched record (required {} {})",
                req.key,
                req.op.name(),
                req.value
            )),
            Some(x) if !req.op.holds(x, req.value) => failures.push(format!(
                "  {}: observed {x}, required {} {}",
                req.key,
                req.op.name(),
                req.value
            )),
            Some(x) => eprintln!("gate: ok{scope} {} = {x} ({})", req.key, req.raw),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{file}: gate failed{scope}\n{}\nmatched record: {}",
            failures.join("\n"),
            record.render()
        ))
    }
}
