//! Write-ahead log for the durable storage path.
//!
//! ## Frame format
//!
//! The log (`wal.log` inside the database directory) is a sequence of
//! self-delimiting frames:
//!
//! ```text
//! ┌────────────┬──────────────┬──────────────────────┐
//! │ len: u32 LE│ crc: u64 LE  │ payload (len bytes)  │
//! └────────────┴──────────────┴──────────────────────┘
//! ```
//!
//! `crc` is a domain-separated FNV-1a over the payload bytes
//! ([`legodb_util::StableHasher`] with [`WAL_MAGIC`] absorbed first), so
//! the checksum is stable across platforms and runs. The payload is one
//! JSON object rendered through `legodb_util::json::Value` (BTreeMap
//! field order — byte-deterministic) that carries a monotonically
//! increasing LSN plus one logical operation:
//!
//! ```json
//! {"lsn":"7","op":"insert","table":"Show","row":["i:1","s:ER",null]}
//! ```
//!
//! `i64` row values are sigil-encoded as strings (`"i:<decimal>"`) rather
//! than JSON numbers because the reader holds numbers as `f64`, which
//! silently rounds integers past 2^53.
//!
//! ## Torn-tail truncation rule
//!
//! On open the log is scanned front to back. The first frame whose header
//! is short, whose payload runs past end-of-file, or whose checksum does
//! not match ends the scan: everything from that byte offset on is
//! presumed a torn write from a crash and is physically truncated away.
//! A frame whose checksum matches but whose payload fails to decode is
//! **not** truncated — that is post-commit corruption or a software bug,
//! and recovery surfaces it as [`RelationalError::Corrupt`] instead of
//! silently dropping acknowledged data.
//!
//! ## Failpoint sites
//!
//! Every write path threads a deterministic failpoint keyed by LSN so
//! seeded fault injection (`LEGODB_FAULT_SEED`, or
//! `fault::override_for_test`) can simulate crashes:
//!
//! | site | simulated crash |
//! |---|---|
//! | `wal.append` | torn write: only the first half of the frame reaches the log, the WAL poisons itself |
//! | `wal.fsync` | fsync failure at a commit boundary (poisons: durability unknown) |
//! | `wal.truncate` | crash after a checkpoint installs but before the log is reclaimed |

use crate::catalog::{ColumnDef, ColumnStats, ForeignKey, Layout, TableDef};
use crate::error::RelationalError;
use crate::storage::Row;
use crate::types::{SqlType, Value};
use legodb_util::fault::failpoint;
use legodb_util::fs::{DirHandle, LogFile};
use legodb_util::json::{self, Value as JValue};
use legodb_util::{RwLock, StableHasher};
use std::collections::BTreeMap;

/// File name of the log inside the database directory.
pub const WAL_FILE: &str = "wal.log";

/// Domain-separation tag absorbed before the payload when checksumming.
pub const WAL_MAGIC: u64 = 0x4C45_474F_5741_4C31; // "LEGOWAL1"

/// Frame header size: u32 length + u64 checksum.
const FRAME_HEADER: usize = 12;

/// Upper bound on a single payload; anything larger in a length field is
/// treated as a torn header rather than an allocation request.
const MAX_PAYLOAD: u32 = 1 << 30;

/// One logged logical operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table was created.
    CreateTable(TableDef),
    /// A secondary index was created.
    CreateIndex { table: String, column: String },
    /// A row was inserted.
    Insert { table: String, row: Row },
    /// A batch of rows was inserted into one table atomically. The whole
    /// batch lives in a single frame, so one checksum covers all rows: a
    /// crash mid-batch tears the frame and recovery drops the batch
    /// wholly — replay never surfaces a torn batch.
    InsertBatch { table: String, rows: Vec<Row> },
}

/// The write-ahead log: an append-only, checksummed record stream.
#[derive(Debug)]
pub struct Wal {
    dir: DirHandle,
    inner: RwLock<WalInner>,
}

#[derive(Debug)]
struct WalInner {
    log: LogFile,
    next_lsn: u64,
    /// Set after any write failure (injected or real): the physical tail
    /// of the log is unknown, so further appends are refused until the
    /// database is reopened (which re-establishes a clean tail).
    poisoned: bool,
    /// Successful fsyncs issued by [`Wal::commit`] over this handle's
    /// lifetime — instrumentation for the group-commit tests/benchmarks.
    sync_count: u64,
}

impl Wal {
    /// Open (creating if absent) the log in `dir`. Scans existing frames,
    /// truncates the torn tail per the module rule, and returns the
    /// surviving records as `(lsn, record)` pairs in log order.
    pub fn open(dir: &DirHandle) -> Result<(Wal, Vec<(u64, WalRecord)>), RelationalError> {
        let bytes = dir
            .read_opt(WAL_FILE)
            .map_err(|e| io_err("wal open", &e))?
            .unwrap_or_default();
        let (records, keep) = scan_frames(&bytes)?;
        if keep < bytes.len() as u64 {
            dir.set_len(WAL_FILE, keep)
                .map_err(|e| io_err("wal torn-tail truncation", &e))?;
        }
        let log = dir
            .append_log(WAL_FILE)
            .map_err(|e| io_err("wal open for append", &e))?;
        let next_lsn = records.last().map_or(1, |(lsn, _)| lsn + 1);
        let wal = Wal {
            dir: dir.clone(),
            inner: RwLock::new_named(
                WalInner {
                    log,
                    next_lsn,
                    poisoned: false,
                    sync_count: 0,
                },
                "wal.inner",
            ),
        };
        Ok((wal, records))
    }

    /// Append one record, returning its LSN. The record is framed,
    /// checksummed, and written to the OS, but **not** fsync'd — call
    /// [`Wal::commit`] at a commit boundary for durability.
    pub fn append(&self, record: &WalRecord) -> Result<u64, RelationalError> {
        self.append_with(|lsn| encode_record(lsn, record))
    }

    /// Append an insert without cloning the row into a [`WalRecord`]
    /// (the hot path: `Database::insert` logs by reference).
    pub fn append_insert(&self, table: &str, row: &Row) -> Result<u64, RelationalError> {
        self.append_with(|lsn| encode_insert(lsn, table, row))
    }

    /// Append a whole batch of inserts as one frame, by reference
    /// (the hot path: `Database::insert_batch` logs once per batch).
    pub fn append_insert_batch(&self, table: &str, rows: &[Row]) -> Result<u64, RelationalError> {
        self.append_with(|lsn| encode_insert_batch(lsn, table, rows))
    }

    fn append_with(&self, encode: impl FnOnce(u64) -> Vec<u8>) -> Result<u64, RelationalError> {
        let mut inner = self.inner.write();
        if inner.poisoned {
            return Err(RelationalError::WalPoisoned);
        }
        let lsn = inner.next_lsn;
        let frame = encode_frame(&encode(lsn));
        if let Err(fault) = failpoint("wal.append", &lsn.to_string()) {
            // Simulated crash mid-write: half the frame reaches the log,
            // then the "process" dies. Recovery must truncate this tail.
            let torn = &frame[..frame.len() / 2];
            // The WAL is single-writer: the inner guard IS the append
            // serialization, until group commit (ROADMAP item 5) splits
            // enqueue from flush. Same rationale for the other two
            // allows in this file.
            // lint: allow(guard-across-fsync) — single-writer WAL until group commit
            let _ = inner.log.append(torn);
            inner.poisoned = true;
            return Err(io_fault("wal append", &fault));
        }
        // lint: allow(guard-across-fsync) — same single-writer WAL seam as above
        if let Err(e) = inner.log.append(&frame) {
            inner.poisoned = true;
            return Err(io_err("wal append", &e));
        }
        inner.next_lsn = lsn + 1;
        Ok(lsn)
    }

    /// Durably flush all appended records (a commit boundary).
    pub fn commit(&self) -> Result<(), RelationalError> {
        let mut inner = self.inner.write();
        if inner.poisoned {
            return Err(RelationalError::WalPoisoned);
        }
        if let Err(fault) = failpoint("wal.fsync", &inner.next_lsn.to_string()) {
            // A failed fsync leaves durability unknown; refuse further
            // work until reopen re-establishes the real tail.
            inner.poisoned = true;
            return Err(io_fault("wal fsync", &fault));
        }
        // lint: allow(guard-across-fsync) — commit needs a stable tail; single-writer WAL until group commit
        inner.log.sync().map_err(|e| io_err("wal fsync", &e))?;
        inner.sync_count += 1;
        Ok(())
    }

    /// Successful fsyncs issued through this handle (see
    /// `WalInner::sync_count`).
    pub fn sync_count(&self) -> u64 {
        self.inner.read().sync_count
    }

    /// Reclaim the log after a checkpoint has durably captured its
    /// effects. Crashing *before* this point is safe: replay skips
    /// records at or below the checkpoint LSN.
    pub fn truncate(&self) -> Result<(), RelationalError> {
        let inner = self.inner.write();
        failpoint("wal.truncate", &inner.next_lsn.to_string())
            .map_err(|fault| io_fault("wal truncate", &fault))?;
        self.dir
            .set_len(WAL_FILE, 0)
            .map_err(|e| io_err("wal truncate", &e))
    }

    /// Next LSN this log will assign.
    pub fn next_lsn(&self) -> u64 {
        self.inner.read().next_lsn
    }

    /// Reposition the LSN counter (used by `Database::open` so LSNs keep
    /// increasing across a checkpoint that emptied the log).
    pub(crate) fn set_next_lsn(&self, next: u64) {
        self.inner.write().next_lsn = next;
    }

    /// True after a write failure; appends are refused until reopen.
    pub fn is_poisoned(&self) -> bool {
        self.inner.read().poisoned
    }

    /// Bytes currently in the log file.
    pub fn len_bytes(&self) -> Result<u64, RelationalError> {
        self.dir
            .file_len(WAL_FILE)
            .map_err(|e| io_err("wal stat", &e))
    }
}

/// Scan `bytes` as frames. Returns the decoded records and the byte
/// offset of the first torn frame (== `bytes.len()` when the log is
/// clean), i.e. the length the file should be truncated to.
fn scan_frames(bytes: &[u8]) -> Result<(Vec<(u64, WalRecord)>, u64), RelationalError> {
    let mut records = Vec::new();
    let mut off = 0usize;
    loop {
        if off + FRAME_HEADER > bytes.len() {
            return Ok((records, off as u64)); // short header = torn
        }
        let len = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
        let mut crc_bytes = [0u8; 8];
        crc_bytes.copy_from_slice(&bytes[off + 4..off + 12]);
        let crc = u64::from_le_bytes(crc_bytes);
        if len > MAX_PAYLOAD {
            return Ok((records, off as u64)); // absurd length = torn header
        }
        let start = off + FRAME_HEADER;
        let end = start + len as usize;
        if end > bytes.len() {
            return Ok((records, off as u64)); // payload ran past EOF = torn
        }
        let payload = &bytes[start..end];
        if checksum(payload) != crc {
            return Ok((records, off as u64)); // bit rot or torn payload
        }
        // Checksum-valid but undecodable is NOT a torn write: surface it.
        records.push(decode_record(payload)?);
        off = end;
    }
}

/// Domain-separated FNV-1a over a payload.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(WAL_MAGIC).write_bytes(payload);
    h.finish()
}

/// Wrap a payload in a `[len][crc][payload]` frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checksum(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Render a record (with its LSN) to payload bytes.
pub fn encode_record(lsn: u64, record: &WalRecord) -> Vec<u8> {
    match record {
        WalRecord::Insert { table, row } => encode_insert(lsn, table, row),
        WalRecord::InsertBatch { table, rows } => encode_insert_batch(lsn, table, rows),
        WalRecord::CreateTable(def) => {
            let mut fields = lsn_fields(lsn, "create_table");
            fields.insert("def".to_string(), table_def_json(def));
            JValue::Object(fields).render().into_bytes()
        }
        WalRecord::CreateIndex { table, column } => {
            let mut fields = lsn_fields(lsn, "create_index");
            fields.insert("table".to_string(), JValue::String(table.clone()));
            fields.insert("column".to_string(), JValue::String(column.clone()));
            JValue::Object(fields).render().into_bytes()
        }
    }
}

/// Render an insert record directly from borrowed parts.
pub fn encode_insert(lsn: u64, table: &str, row: &Row) -> Vec<u8> {
    let mut fields = lsn_fields(lsn, "insert");
    fields.insert("table".to_string(), JValue::String(table.to_string()));
    fields.insert("row".to_string(), row_json(row));
    JValue::Object(fields).render().into_bytes()
}

/// Render a batched-insert record directly from borrowed parts.
pub fn encode_insert_batch(lsn: u64, table: &str, rows: &[Row]) -> Vec<u8> {
    let mut fields = lsn_fields(lsn, "insert_batch");
    fields.insert("table".to_string(), JValue::String(table.to_string()));
    fields.insert(
        "rows".to_string(),
        JValue::Array(rows.iter().map(row_json).collect()),
    );
    JValue::Object(fields).render().into_bytes()
}

fn lsn_fields(lsn: u64, op: &str) -> BTreeMap<String, JValue> {
    let mut fields = BTreeMap::new();
    fields.insert("lsn".to_string(), JValue::String(lsn.to_string()));
    fields.insert("op".to_string(), JValue::String(op.into()));
    fields
}

/// Parse payload bytes back into `(lsn, record)`.
pub fn decode_record(payload: &[u8]) -> Result<(u64, WalRecord), RelationalError> {
    let text = std::str::from_utf8(payload).map_err(|_| corrupt("wal record is not UTF-8"))?;
    let value = json::parse(text).map_err(|e| corrupt(&format!("wal record JSON: {e}")))?;
    let lsn = parse_u64_field(&value, "lsn")?;
    let op = str_field(&value, "op")?;
    let record = match op {
        "create_table" => {
            let def = value
                .get("def")
                .ok_or_else(|| corrupt("create_table record missing def"))?;
            WalRecord::CreateTable(table_def_from_json(def)?)
        }
        "create_index" => WalRecord::CreateIndex {
            table: str_field(&value, "table")?.to_string(),
            column: str_field(&value, "column")?.to_string(),
        },
        "insert" => {
            let row = value
                .get("row")
                .ok_or_else(|| corrupt("insert record missing row"))?;
            WalRecord::Insert {
                table: str_field(&value, "table")?.to_string(),
                row: row_from_json(row)?,
            }
        }
        "insert_batch" => {
            let rows = match value.get("rows") {
                Some(JValue::Array(items)) => items
                    .iter()
                    .map(row_from_json)
                    .collect::<Result<Vec<Row>, _>>()?,
                _ => return Err(corrupt("insert_batch record missing rows array")),
            };
            WalRecord::InsertBatch {
                table: str_field(&value, "table")?.to_string(),
                rows,
            }
        }
        other => return Err(corrupt(&format!("unknown wal op {other:?}"))),
    };
    Ok((lsn, record))
}

// ---------------------------------------------------------------------------
// JSON codecs shared by the WAL and the checkpoint document.
// ---------------------------------------------------------------------------

/// Encode one row value. Integers are sigil-encoded strings so i64
/// precision survives the reader's f64 number representation.
pub fn row_value_json(v: &Value) -> JValue {
    match v {
        Value::Null => JValue::Null,
        Value::Int(n) => JValue::String(format!("i:{n}")),
        Value::Str(s) => JValue::String(format!("s:{s}")),
    }
}

/// Decode one row value.
pub fn row_value_from_json(j: &JValue) -> Result<Value, RelationalError> {
    match j {
        JValue::Null => Ok(Value::Null),
        JValue::String(s) => {
            if let Some(n) = s.strip_prefix("i:") {
                n.parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| corrupt(&format!("bad integer literal {n:?}")))
            } else if let Some(text) = s.strip_prefix("s:") {
                Ok(Value::Str(text.to_string()))
            } else {
                Err(corrupt(&format!("row value missing sigil: {s:?}")))
            }
        }
        _ => Err(corrupt("row value must be null or a sigiled string")),
    }
}

/// Encode a whole row.
pub fn row_json(row: &Row) -> JValue {
    JValue::Array(row.iter().map(row_value_json).collect())
}

/// Decode a whole row.
pub fn row_from_json(j: &JValue) -> Result<Row, RelationalError> {
    match j {
        JValue::Array(items) => items.iter().map(row_value_from_json).collect(),
        _ => Err(corrupt("row must be an array")),
    }
}

fn sql_type_from_str(s: &str) -> Result<SqlType, RelationalError> {
    match s {
        "INT" => Ok(SqlType::Int),
        "STRING" => Ok(SqlType::Text),
        _ => {
            let n = s
                .strip_prefix("CHAR(")
                .and_then(|rest| rest.strip_suffix(')'))
                .and_then(|n| n.parse::<u32>().ok())
                .ok_or_else(|| corrupt(&format!("unknown SQL type {s:?}")))?;
            Ok(SqlType::Char(n))
        }
    }
}

fn opt_i64_json(v: Option<i64>) -> JValue {
    match v {
        Some(n) => JValue::String(n.to_string()),
        None => JValue::Null,
    }
}

fn opt_i64_from_json(j: Option<&JValue>, what: &str) -> Result<Option<i64>, RelationalError> {
    match j {
        None | Some(JValue::Null) => Ok(None),
        Some(JValue::String(s)) => s
            .parse::<i64>()
            .map(Some)
            .map_err(|_| corrupt(&format!("bad {what}: {s:?}"))),
        Some(_) => Err(corrupt(&format!("{what} must be a decimal string"))),
    }
}

/// Encode a table definition (columns, key, FKs, statistics).
pub fn table_def_json(def: &TableDef) -> JValue {
    let columns = def
        .columns
        .iter()
        .map(|c| {
            let mut m = BTreeMap::new();
            m.insert("name".to_string(), JValue::String(c.name.clone()));
            m.insert("ty".to_string(), JValue::String(c.ty.to_string()));
            m.insert("nullable".to_string(), JValue::Bool(c.nullable));
            m.insert("avg_width".to_string(), JValue::Number(c.stats.avg_width));
            m.insert(
                "distinct".to_string(),
                c.stats.distinct.map_or(JValue::Null, JValue::Number),
            );
            m.insert("min".to_string(), opt_i64_json(c.stats.min));
            m.insert("max".to_string(), opt_i64_json(c.stats.max));
            m.insert(
                "null_fraction".to_string(),
                JValue::Number(c.stats.null_fraction),
            );
            JValue::Object(m)
        })
        .collect();
    let fks = def
        .foreign_keys
        .iter()
        .map(|fk| {
            let mut m = BTreeMap::new();
            m.insert("column".to_string(), JValue::String(fk.column.clone()));
            m.insert(
                "parent".to_string(),
                JValue::String(fk.parent_table.clone()),
            );
            JValue::Object(m)
        })
        .collect();
    let mut m = BTreeMap::new();
    m.insert("name".to_string(), JValue::String(def.name.clone()));
    m.insert(
        "key".to_string(),
        def.key
            .as_ref()
            .map_or(JValue::Null, |k| JValue::String(k.clone())),
    );
    m.insert("columns".to_string(), JValue::Array(columns));
    m.insert("fks".to_string(), JValue::Array(fks));
    m.insert("rows".to_string(), JValue::Number(def.stats.rows));
    m.insert("layout".to_string(), JValue::String(def.layout.to_string()));
    JValue::Object(m)
}

/// Decode a table definition.
pub fn table_def_from_json(j: &JValue) -> Result<TableDef, RelationalError> {
    let mut def = TableDef::new(str_field(j, "name")?);
    def.key = match j.get("key") {
        None | Some(JValue::Null) => None,
        Some(JValue::String(s)) => Some(s.clone()),
        Some(_) => return Err(corrupt("table key must be a string or null")),
    };
    let columns = match j.get("columns") {
        Some(JValue::Array(items)) => items,
        _ => return Err(corrupt("table def missing columns array")),
    };
    for c in columns {
        let ty = sql_type_from_str(str_field(c, "ty")?)?;
        let nullable = matches!(c.get("nullable"), Some(JValue::Bool(true)));
        let stats = ColumnStats {
            avg_width: num_field(c, "avg_width")?,
            distinct: match c.get("distinct") {
                None | Some(JValue::Null) => None,
                Some(JValue::Number(n)) => Some(*n),
                Some(_) => return Err(corrupt("distinct must be a number or null")),
            },
            min: opt_i64_from_json(c.get("min"), "column min")?,
            max: opt_i64_from_json(c.get("max"), "column max")?,
            null_fraction: num_field(c, "null_fraction")?,
        };
        let mut col = ColumnDef::new(str_field(c, "name")?, ty).with_stats(stats);
        col.nullable = nullable;
        def.columns.push(col);
    }
    let no_fks = Vec::new();
    let fks = match j.get("fks") {
        None => &no_fks,
        Some(JValue::Array(items)) => items,
        Some(_) => return Err(corrupt("fks must be an array")),
    };
    for fk in fks {
        def.foreign_keys.push(ForeignKey {
            column: str_field(fk, "column")?.to_string(),
            parent_table: str_field(fk, "parent")?.to_string(),
        });
    }
    def.stats.rows = num_field(j, "rows")?;
    // Logs written before layouts existed carry no field: default Row,
    // which is exactly what those tables were.
    def.layout = match j.get("layout") {
        None => Layout::Row,
        Some(JValue::String(s)) => {
            Layout::parse(s).ok_or_else(|| corrupt(&format!("unknown table layout {s:?}")))?
        }
        Some(_) => return Err(corrupt("table layout must be a string")),
    };
    Ok(def)
}

/// A required string field of a JSON object.
pub fn str_field<'a>(j: &'a JValue, name: &str) -> Result<&'a str, RelationalError> {
    j.get(name)
        .and_then(JValue::as_str)
        .ok_or_else(|| corrupt(&format!("missing string field {name:?}")))
}

/// A required numeric field of a JSON object.
pub fn num_field(j: &JValue, name: &str) -> Result<f64, RelationalError> {
    j.get(name)
        .and_then(JValue::as_f64)
        .ok_or_else(|| corrupt(&format!("missing numeric field {name:?}")))
}

/// A required decimal-string u64 field (LSNs never round through f64).
pub fn parse_u64_field(j: &JValue, name: &str) -> Result<u64, RelationalError> {
    let s = str_field(j, name)?;
    s.parse::<u64>()
        .map_err(|_| corrupt(&format!("bad u64 field {name:?}: {s:?}")))
}

/// Construct a [`RelationalError::Corrupt`].
pub fn corrupt(context: &str) -> RelationalError {
    RelationalError::Corrupt {
        context: context.to_string(),
    }
}

/// Construct a [`RelationalError::Io`] from any displayable error.
pub fn io_err(context: &str, error: &dyn std::fmt::Display) -> RelationalError {
    RelationalError::Io {
        context: context.to_string(),
        message: error.to_string(),
    }
}

pub(crate) fn io_fault(context: &str, fault: &legodb_util::FaultError) -> RelationalError {
    RelationalError::Io {
        context: context.to_string(),
        message: format!("simulated crash: {fault}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnDef;
    use legodb_util::fault::{override_for_test, FaultConfig, FaultMode};
    use std::path::PathBuf;

    /// Disable env-activated fault injection (the CI fault stage runs the
    /// whole workspace under `LEGODB_FAULT_SEED`) so these deterministic
    /// tests see only the faults they inject themselves.
    fn quiet_faults() -> legodb_util::fault::OverrideGuard {
        override_for_test(None)
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("legodb-wal-{tag}-{}", std::process::id()))
    }

    fn show_def() -> TableDef {
        let mut def = TableDef::new("Show");
        def.columns = vec![
            ColumnDef::new("Show_id", SqlType::Int),
            ColumnDef::new("title", SqlType::Char(50)),
            ColumnDef::new("year", SqlType::Int).nullable(),
        ];
        def.key = Some("Show_id".into());
        def.stats.rows = 3.0;
        def
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable(show_def()),
            WalRecord::CreateIndex {
                table: "Show".into(),
                column: "year".into(),
            },
            WalRecord::Insert {
                table: "Show".into(),
                row: vec![Value::Int(1), Value::str("The \"X\" Files"), Value::Null],
            },
            WalRecord::Insert {
                table: "Show".into(),
                row: vec![
                    Value::Int(i64::MAX),
                    Value::str("i:looks-like-int"),
                    Value::Int(-5),
                ],
            },
        ]
    }

    #[test]
    fn insert_batch_codec_roundtrips_in_one_frame() {
        let record = WalRecord::InsertBatch {
            table: "Show".into(),
            rows: vec![
                vec![Value::Int(1), Value::str("A"), Value::Null],
                vec![Value::Int(2), Value::str("B"), Value::Int(1993)],
            ],
        };
        let payload = encode_record(9, &record);
        let (lsn, got) = decode_record(&payload).unwrap();
        assert_eq!(lsn, 9);
        assert_eq!(got, record);
        // One frame: the encoded payload is a single JSON object, so one
        // checksum covers the whole batch.
        let frame = encode_frame(&payload);
        let (records, keep) = scan_frames(&frame).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(keep, frame.len() as u64);
    }

    #[test]
    fn torn_batch_frame_is_dropped_wholly() {
        let record = WalRecord::InsertBatch {
            table: "Show".into(),
            rows: (0..50)
                .map(|i| vec![Value::Int(i), Value::str(format!("t{i}")), Value::Null])
                .collect(),
        };
        let mut bytes = encode_frame(&encode_record(1, &record));
        // Tear anywhere inside the frame: every prefix recovers to zero
        // records — never a partial batch.
        for cut in [bytes.len() - 1, bytes.len() / 2, FRAME_HEADER + 3] {
            bytes.truncate(cut);
            let (records, keep) = scan_frames(&bytes).unwrap();
            assert!(records.is_empty(), "cut at {cut} surfaced a torn batch");
            assert_eq!(keep, 0);
        }
    }

    #[test]
    fn record_codec_roundtrips() {
        for (i, record) in sample_records().iter().enumerate() {
            let lsn = i as u64 + 1;
            let payload = encode_record(lsn, record);
            let (got_lsn, got) = decode_record(&payload).unwrap();
            assert_eq!(got_lsn, lsn);
            assert_eq!(&got, record);
        }
    }

    #[test]
    fn table_def_codec_preserves_stats_exactly() {
        let mut def = show_def();
        def.foreign_keys.push(ForeignKey {
            column: "parent_IMDB".into(),
            parent_table: "IMDB".into(),
        });
        def.columns[2].stats = ColumnStats {
            avg_width: 7.25,
            distinct: Some(41.0),
            min: Some(i64::MIN),
            max: Some(i64::MAX),
            null_fraction: 1.0 / 3.0,
        };
        let encoded = table_def_json(&def).render();
        let decoded = table_def_from_json(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, def, "catalog must round-trip bit-identically");
        // Byte-determinism: re-encoding the decoded def is identical.
        assert_eq!(table_def_json(&decoded).render(), encoded);
    }

    #[test]
    fn table_def_codec_round_trips_layout_and_defaults_to_row() {
        let mut def = show_def();
        def.layout = Layout::Columnar;
        let encoded = table_def_json(&def).render();
        let decoded = table_def_from_json(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, def, "columnar layout must survive the codec");
        assert_eq!(table_def_json(&decoded).render(), encoded);
        // A pre-layout log record (no field) decodes to the row heap.
        let legacy = encoded.replace("\"layout\":\"columnar\",", "");
        assert_ne!(legacy, encoded, "test must actually strip the field");
        let decoded = table_def_from_json(&json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(decoded.layout, Layout::Row);
        // An unknown layout name is corruption, not a silent default.
        let bad = encoded.replace("\"layout\":\"columnar\"", "\"layout\":\"paged\"");
        assert!(matches!(
            table_def_from_json(&json::parse(&bad).unwrap()),
            Err(RelationalError::Corrupt { .. })
        ));
    }

    #[test]
    fn append_reopen_replays_all_records() {
        let _quiet = quiet_faults();
        let root = scratch("roundtrip");
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).unwrap();
        let expected = sample_records();
        {
            let (wal, existing) = Wal::open(&dir).unwrap();
            assert!(existing.is_empty());
            for r in &expected {
                wal.append(r).unwrap();
            }
            wal.commit().unwrap();
        }
        let (_, replayed) = Wal::open(&dir).unwrap();
        let lsns: Vec<u64> = replayed.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4]);
        let records: Vec<WalRecord> = replayed.into_iter().map(|(_, r)| r).collect();
        assert_eq!(records, expected);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let _quiet = quiet_faults();
        let root = scratch("torn");
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).unwrap();
        let expected = sample_records();
        {
            let (wal, _) = Wal::open(&dir).unwrap();
            for r in &expected {
                wal.append(r).unwrap();
            }
            wal.commit().unwrap();
        }
        // Tear the last frame in half, as a crashed append would.
        let bytes = dir.read(WAL_FILE).unwrap();
        let clean_len = bytes.len();
        let last_frame = encode_frame(&encode_record(4, &expected[3]));
        let torn_len = clean_len - last_frame.len() / 2;
        dir.set_len(WAL_FILE, torn_len as u64).unwrap();
        let (wal, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.len(), 3, "torn frame must be dropped");
        // The file was physically truncated back to the clean prefix...
        assert_eq!(
            dir.file_len(WAL_FILE).unwrap(),
            (clean_len - last_frame.len()) as u64
        );
        // ...and new appends continue from the next LSN.
        assert_eq!(wal.next_lsn(), 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checksum_flip_truncates_from_that_frame() {
        let _quiet = quiet_faults();
        let root = scratch("bitrot");
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).unwrap();
        {
            let (wal, _) = Wal::open(&dir).unwrap();
            for r in &sample_records() {
                wal.append(r).unwrap();
            }
            wal.commit().unwrap();
        }
        let mut bytes = dir.read(WAL_FILE).unwrap();
        // Flip one payload bit in the SECOND frame.
        let first_len =
            FRAME_HEADER + u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        bytes[first_len + FRAME_HEADER + 2] ^= 0x40;
        dir.write_atomic(WAL_FILE, &bytes).unwrap();
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(
            replayed.len(),
            1,
            "everything from the corrupt frame on is dropped"
        );
        assert_eq!(dir.file_len(WAL_FILE).unwrap(), first_len as u64);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_append_fault_tears_the_frame_and_poisons() {
        let root = scratch("fault");
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).unwrap();
        let records = sample_records();
        let survivors;
        {
            let _quiet = quiet_faults();
            let (wal, _) = Wal::open(&dir).unwrap();
            wal.append(&records[0]).unwrap();
            wal.append(&records[1]).unwrap();
            wal.commit().unwrap();
            survivors = 2;
        }
        {
            let _always = override_for_test(FaultConfig::always(7, FaultMode::Error));
            let (wal, _) = Wal::open(&dir).unwrap();
            let err = wal.append(&records[2]).unwrap_err();
            assert!(matches!(err, RelationalError::Io { .. }));
            assert!(wal.is_poisoned());
            // Once poisoned, both appends and commits are refused.
            assert_eq!(wal.append(&records[3]), Err(RelationalError::WalPoisoned));
            assert_eq!(wal.commit(), Err(RelationalError::WalPoisoned));
        }
        // Reopen recovers exactly the pre-crash prefix.
        let _quiet = quiet_faults();
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.len(), survivors);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn valid_checksum_bad_payload_is_corruption_not_truncation() {
        let _quiet = quiet_faults();
        let root = scratch("corrupt");
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).unwrap();
        // A correctly framed record whose payload is not a wal record.
        let frame = encode_frame(b"{\"lsn\":\"1\",\"op\":\"vacuum\"}");
        dir.write_atomic(WAL_FILE, &frame).unwrap();
        let err = Wal::open(&dir).unwrap_err();
        assert!(matches!(err, RelationalError::Corrupt { .. }));
        let _ = std::fs::remove_dir_all(&root);
    }
}
