//! Write-ahead log, and the one binary format of every durable byte: log
//! frames, checkpoint files and snapshots.
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
//! the checksum is stable across platforms and runs.
//!
//! ## Record format
//!
//! A payload is one record: its LSN, an op tag, then the op's fields.
//!
//! ```text
//! record = lsn:uvar op:u8 fields
//!   op 1  CreateTable  def
//!   op 2  CreateIndex  table:str column:str
//!   op 3  Insert       table:str count × row
//!   op 4  End          frames:uvar
//! row    = count × value
//! value  = 0 (NULL) | 1 ivar (integer) | 2 str (string)
//! def    = name:str key:opt<str> columnar:u8 rows:f64
//!          count × (name:str ty:uvar nullable:u8 avg_width:f64
//!                   distinct:opt<f64> min:opt<ivar> max:opt<ivar> null_fraction:f64)
//!          count × (fk_column:str parent_table:str)
//! ty     = 0 (INT) | 1 (STRING) | n + 2 (CHAR(n))
//! ```
//!
//! `uvar` is LEB128 and `ivar` zigzag LEB128, so every `i64` round-trips
//! exactly. `str` (UTF-8) and `count` are `uvar`-length-prefixed. `f64` is
//! 8 little-endian bytes, so statistics round-trip bit-exactly. `opt` is a
//! presence byte (0 or 1), then the value. Decoding is strict: an unknown
//! tag, a varint past 64 bits, invalid UTF-8, leftover bytes, or a length
//! or count larger than the bytes left (checked before anything is
//! allocated from it) is [`RelationalError::Corrupt`]. A checkpoint file
//! and a snapshot are sequences of the same frames, closed by an `End`
//! record that counts the frames before it, so a file cut at a frame
//! boundary is as corrupt as one cut mid-frame. `End` never appears in a
//! log.
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
use legodb_util::{RwLock, StableHasher};

type Result<T, E = RelationalError> = std::result::Result<T, E>;

/// File name of the log inside the database directory.
pub const WAL_FILE: &str = "wal.log";

/// Domain-separation tag absorbed before the payload when checksumming.
pub const WAL_MAGIC: u64 = 0x4C45_474F_5741_4C31; // "LEGOWAL1"

/// Frame header size: u32 length + u64 checksum.
const FRAME_HEADER: usize = 12;

/// Upper bound on a single payload; anything larger in a length field is
/// treated as a torn header rather than an allocation request.
const MAX_PAYLOAD: u32 = 1 << 30;

const OP_CREATE_TABLE: u8 = 1;
const OP_CREATE_INDEX: u8 = 2;
const OP_INSERT: u8 = 3;
const OP_END: u8 = 4;

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_STR: u8 = 2;

/// One logged logical operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table was created.
    CreateTable(TableDef),
    /// A secondary index was created.
    CreateIndex { table: String, column: String },
    /// Rows were inserted into one table atomically. All of them live in
    /// a single frame, so one checksum covers them: a crash mid-write
    /// tears the frame and recovery drops the rows wholly — replay never
    /// surfaces part of an insert.
    Insert { table: String, rows: Vec<Row> },
    /// Closes a checkpoint or snapshot: the number of frames before it.
    End { frames: u64 },
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
    /// surviving records above `checkpoint_lsn` — those a checkpoint
    /// taken at that LSN has not captured — as `(lsn, record)` pairs in
    /// log order. New appends are numbered past both.
    pub fn open(dir: &DirHandle, checkpoint_lsn: u64) -> Result<(Wal, Vec<(u64, WalRecord)>)> {
        let bytes = dir
            .read_opt(WAL_FILE)
            .map_err(|e| io_err("wal open", &e))?
            .unwrap_or_default();
        let (mut records, keep) = scan_frames(&bytes)?;
        records.retain(|(lsn, _)| *lsn > checkpoint_lsn);
        if keep < bytes.len() as u64 {
            dir.set_len(WAL_FILE, keep)
                .map_err(|e| io_err("wal torn-tail truncation", &e))?;
        }
        let log = dir
            .append_log(WAL_FILE)
            .map_err(|e| io_err("wal open for append", &e))?;
        let next_lsn = records.last().map_or(checkpoint_lsn, |(lsn, _)| *lsn) + 1;
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
    pub fn append(&self, record: &WalRecord) -> Result<u64> {
        self.append_with(|lsn| encode_record(lsn, record))
    }

    /// Append an insert of `rows` as one frame without cloning them into
    /// a [`WalRecord`] (the hot path: `Database::insert` and
    /// `Database::insert_batch` log by reference).
    pub fn append_insert(&self, table: &str, rows: &[Row]) -> Result<u64> {
        self.append_with(|lsn| {
            let mut out = Vec::new();
            put_uvar(&mut out, lsn);
            put_insert(&mut out, table, rows);
            out
        })
    }

    fn append_with(&self, encode: impl FnOnce(u64) -> Vec<u8>) -> Result<u64> {
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
    pub fn commit(&self) -> Result<()> {
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
    pub fn truncate(&self) -> Result<()> {
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

    /// True after a write failure; appends are refused until reopen.
    pub fn is_poisoned(&self) -> bool {
        self.inner.read().poisoned
    }

    /// Bytes currently in the log file.
    pub fn len_bytes(&self) -> Result<u64> {
        self.dir
            .file_len(WAL_FILE)
            .map_err(|e| io_err("wal stat", &e))
    }
}

/// Scan `bytes` as frames. Returns the decoded records and the byte
/// offset of the first torn frame (== `bytes.len()` when every frame is
/// whole), i.e. the length a log should be truncated to.
pub(crate) fn scan_frames(bytes: &[u8]) -> Result<(Vec<(u64, WalRecord)>, u64)> {
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

/// Encode a record (with its LSN) to payload bytes.
pub fn encode_record(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvar(&mut out, lsn);
    match record {
        WalRecord::CreateTable(def) => {
            out.push(OP_CREATE_TABLE);
            put_table_def(&mut out, def);
        }
        WalRecord::CreateIndex { table, column } => {
            out.push(OP_CREATE_INDEX);
            put_str(&mut out, table);
            put_str(&mut out, column);
        }
        WalRecord::Insert { table, rows } => put_insert(&mut out, table, rows),
        WalRecord::End { frames } => {
            out.push(OP_END);
            put_uvar(&mut out, *frames);
        }
    }
    out
}

fn put_insert(out: &mut Vec<u8>, table: &str, rows: &[Row]) {
    out.push(OP_INSERT);
    put_str(out, table);
    put_uvar(out, rows.len() as u64);
    for row in rows {
        put_uvar(out, row.len() as u64);
        for value in row {
            match value {
                Value::Null => out.push(VALUE_NULL),
                Value::Int(n) => {
                    out.push(VALUE_INT);
                    put_ivar(out, *n);
                }
                Value::Str(s) => {
                    out.push(VALUE_STR);
                    put_str(out, s);
                }
            }
        }
    }
}

/// Decode payload bytes back into `(lsn, record)`.
pub fn decode_record(payload: &[u8]) -> Result<(u64, WalRecord)> {
    let mut r = Reader(payload);
    let lsn = r.uvar()?;
    let record = match r.byte()? {
        OP_CREATE_TABLE => WalRecord::CreateTable(r.table_def()?),
        OP_CREATE_INDEX => WalRecord::CreateIndex {
            table: r.str()?,
            column: r.str()?,
        },
        OP_INSERT => WalRecord::Insert {
            table: r.str()?,
            rows: r.list(|r| r.list(Reader::value))?,
        },
        OP_END => WalRecord::End { frames: r.uvar()? },
        op => return Err(unknown_tag("wal op", op)),
    };
    if !r.0.is_empty() {
        return Err(corrupt("bytes left over after a wal record"));
    }
    Ok((lsn, record))
}

fn put_uvar(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push((n as u8) | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn put_ivar(out: &mut Vec<u8>, n: i64) {
    put_uvar(out, ((n << 1) ^ (n >> 63)) as u64);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvar(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_opt<T>(out: &mut Vec<u8>, value: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    out.push(u8::from(value.is_some()));
    if let Some(v) = value {
        put(out, v);
    }
}

fn put_table_def(out: &mut Vec<u8>, def: &TableDef) {
    put_str(out, &def.name);
    put_opt(out, def.key.as_deref(), put_str);
    out.push(u8::from(def.layout == Layout::Columnar));
    put_f64(out, def.stats.rows);
    put_uvar(out, def.columns.len() as u64);
    for c in &def.columns {
        put_str(out, &c.name);
        let ty = match c.ty {
            SqlType::Int => 0,
            SqlType::Text => 1,
            SqlType::Char(n) => u64::from(n) + 2,
        };
        put_uvar(out, ty);
        out.push(u8::from(c.nullable));
        put_f64(out, c.stats.avg_width);
        put_opt(out, c.stats.distinct, put_f64);
        put_opt(out, c.stats.min, put_ivar);
        put_opt(out, c.stats.max, put_ivar);
        put_f64(out, c.stats.null_fraction);
    }
    put_uvar(out, def.foreign_keys.len() as u64);
    for fk in &def.foreign_keys {
        put_str(out, &fk.column);
        put_str(out, &fk.parent_table);
    }
}

/// A cursor over one payload; every read is bounds-checked.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(corrupt("wal record ends early"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn uvar(&mut self) -> Result<u64> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                break; // the tenth byte holds bit 63 alone
            }
            n |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(n);
            }
        }
        Err(corrupt("varint wider than 64 bits"))
    }

    fn ivar(&mut self) -> Result<i64> {
        self.uvar().map(|z| (z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// A length or element count: never more than the bytes left, since
    /// every element takes at least one byte.
    fn count(&mut self) -> Result<usize> {
        match usize::try_from(self.uvar()?) {
            Ok(n) if n <= self.0.len() => Ok(n),
            _ => Err(corrupt("length or count runs past the wal record")),
        }
    }

    fn str(&mut self) -> Result<String> {
        let n = self.count()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| corrupt("wal string is not UTF-8"))
    }

    fn f64(&mut self) -> Result<f64> {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(self.take(8)?);
        Ok(f64::from_le_bytes(bytes))
    }

    fn flag(&mut self) -> Result<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(unknown_tag("flag", t)),
        }
    }

    fn opt<T>(&mut self, read: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        if self.flag()? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    fn list<T>(&mut self, mut read: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(read(self)?);
        }
        Ok(items)
    }

    fn value(&mut self) -> Result<Value> {
        match self.byte()? {
            VALUE_NULL => Ok(Value::Null),
            VALUE_INT => self.ivar().map(Value::Int),
            VALUE_STR => self.str().map(Value::Str),
            t => Err(unknown_tag("row value", t)),
        }
    }

    fn table_def(&mut self) -> Result<TableDef> {
        let mut def = TableDef::new(self.str()?);
        def.key = self.opt(Reader::str)?;
        def.layout = if self.flag()? {
            Layout::Columnar
        } else {
            Layout::Row
        };
        def.stats.rows = self.f64()?;
        def.columns = self.list(|r| {
            let name = r.str()?;
            let ty = match r.uvar()? {
                0 => SqlType::Int,
                1 => SqlType::Text,
                n => SqlType::Char(u32::try_from(n - 2).map_err(|_| corrupt("CHAR(n) past u32"))?),
            };
            Ok(ColumnDef {
                name,
                ty,
                nullable: r.flag()?,
                stats: ColumnStats {
                    avg_width: r.f64()?,
                    distinct: r.opt(Reader::f64)?,
                    min: r.opt(Reader::ivar)?,
                    max: r.opt(Reader::ivar)?,
                    null_fraction: r.f64()?,
                },
            })
        })?;
        def.foreign_keys = self.list(|r| {
            Ok(ForeignKey {
                column: r.str()?,
                parent_table: r.str()?,
            })
        })?;
        Ok(def)
    }
}

fn unknown_tag(what: &str, tag: u8) -> RelationalError {
    corrupt(&format!("unknown {what} tag {tag}"))
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
    use legodb_util::Rng;
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
                rows: vec![vec![
                    Value::Int(1),
                    Value::str("The \"X\" Files"),
                    Value::Null,
                ]],
            },
            WalRecord::Insert {
                table: "Show".into(),
                rows: vec![vec![
                    Value::Int(i64::MAX),
                    Value::str("ünïcode, and a long one: ".repeat(9)),
                    Value::Int(i64::MIN),
                ]],
            },
        ]
    }

    #[test]
    fn insert_batch_codec_roundtrips_in_one_frame() {
        let record = WalRecord::Insert {
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
        // One frame: the encoded payload is a single record, so one
        // checksum covers the whole batch.
        let frame = encode_frame(&payload);
        let (records, keep) = scan_frames(&frame).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(keep, frame.len() as u64);
    }

    #[test]
    fn torn_batch_frame_is_dropped_wholly() {
        let record = WalRecord::Insert {
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
        let mut records = sample_records();
        records.push(WalRecord::End { frames: 300 });
        for (i, record) in records.iter().enumerate() {
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
        let record = WalRecord::CreateTable(def);
        let encoded = encode_record(3, &record);
        let (_, decoded) = decode_record(&encoded).unwrap();
        assert_eq!(decoded, record, "catalog must round-trip bit-identically");
        // Byte-determinism: re-encoding the decoded def is identical.
        assert_eq!(encode_record(3, &decoded), encoded);
    }

    #[test]
    fn table_def_codec_round_trips_layout_and_rejects_unknown_tags() {
        let record = WalRecord::CreateTable(show_def().with_layout(Layout::Columnar));
        let encoded = encode_record(1, &record);
        let (_, decoded) = decode_record(&encoded).unwrap();
        assert_eq!(decoded, record, "columnar layout must survive the codec");
        // lsn 1, op, name "Show" (len + 4 bytes), key present + "Show_id"
        // (1 + 1 + 7 bytes): the layout byte follows.
        let layout_at = 1 + 1 + 5 + 9;
        assert_eq!(encoded[layout_at], 1, "layout byte of a columnar table");
        // An unknown layout tag is corruption, not a silent default.
        let mut bad = encoded.clone();
        bad[layout_at] = 7;
        assert!(matches!(
            decode_record(&bad),
            Err(RelationalError::Corrupt { .. })
        ));
    }

    #[test]
    fn oversized_lengths_and_counts_are_corrupt_before_allocating() {
        // lsn 1, insert, table "T", then a row count near u64::MAX: a
        // decoder that reserved space from it would abort the process.
        let mut payload = vec![1, OP_INSERT];
        put_str(&mut payload, "T");
        put_uvar(&mut payload, u64::MAX - 1);
        assert!(matches!(
            decode_record(&payload),
            Err(RelationalError::Corrupt { .. })
        ));
        // A string length one past the bytes left.
        let mut payload = vec![1, OP_CREATE_INDEX];
        put_uvar(&mut payload, 4);
        payload.extend_from_slice(b"abc");
        assert!(matches!(
            decode_record(&payload),
            Err(RelationalError::Corrupt { .. })
        ));
        // A varint wider than 64 bits, and trailing bytes after a record.
        assert!(decode_record(&[0xff; 11]).is_err());
        let mut trailing = encode_record(1, &sample_records()[1]);
        trailing.push(0);
        assert!(matches!(
            decode_record(&trailing),
            Err(RelationalError::Corrupt { .. })
        ));
    }

    #[test]
    fn varints_round_trip_at_the_edges() {
        for n in [0, 1, -1, 63, -64, 64, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            put_ivar(&mut out, n);
            let mut r = Reader(&out);
            assert_eq!(r.ivar().unwrap(), n);
            assert!(r.0.is_empty());
        }
        let mut out = Vec::new();
        put_uvar(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
        assert_eq!(Reader(&out).uvar().unwrap(), u64::MAX);
        // The tenth byte may carry only the top bit.
        out[9] = 0x02;
        assert!(Reader(&out).uvar().is_err());
    }

    legodb_util::prop_check! {
        cases = 512,
        // Whatever a checksum-valid frame holds — random bytes, a valid
        // record cut short, or a valid record with one bit flipped — the
        // scanner decodes it or reports `Corrupt`. It never panics, never
        // reports a torn tail (the checksum is valid) and never allocates
        // from a length it has not checked against the bytes left.
        fn decoder_accepts_or_reports_corrupt(
            shape in 0u8..3,
            which in 0usize..5,
            at in 0usize..4096,
            bit in 0u8..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut records = sample_records();
            records.push(WalRecord::Insert {
                table: "Show".into(),
                rows: (0..20)
                    .map(|i| vec![Value::Int(i * 1_000_003), Value::str(format!("r{i}")), Value::Null])
                    .collect(),
            });
            let valid = encode_record(seed % 1_000, &records[which]);
            let payload = match shape {
                0 => {
                    let mut rng = legodb_util::StdRng::seed_from_u64(seed);
                    (0..at % 64).map(|_| rng.next_u64() as u8).collect()
                }
                1 => valid[..at % valid.len()].to_vec(),
                _ => {
                    let mut flipped = valid.clone();
                    flipped[at % valid.len()] ^= 1 << bit;
                    flipped
                }
            };
            let frame = encode_frame(&payload);
            match scan_frames(&frame) {
                Ok((decoded, keep)) => {
                    legodb_util::prop_assert_eq!(decoded.len(), 1);
                    legodb_util::prop_assert_eq!(keep, frame.len() as u64);
                }
                Err(e) => legodb_util::prop_assert!(
                    matches!(e, RelationalError::Corrupt { .. }),
                    "{e}"
                ),
            }
        }
    }

    #[test]
    fn append_reopen_replays_all_records() {
        let _quiet = quiet_faults();
        let root = scratch("roundtrip");
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).unwrap();
        let expected = sample_records();
        {
            let (wal, existing) = Wal::open(&dir, 0).unwrap();
            assert!(existing.is_empty());
            for r in &expected {
                wal.append(r).unwrap();
            }
            wal.commit().unwrap();
        }
        let (_, replayed) = Wal::open(&dir, 0).unwrap();
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
            let (wal, _) = Wal::open(&dir, 0).unwrap();
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
        let (wal, replayed) = Wal::open(&dir, 0).unwrap();
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
            let (wal, _) = Wal::open(&dir, 0).unwrap();
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
        let (_, replayed) = Wal::open(&dir, 0).unwrap();
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
            let (wal, _) = Wal::open(&dir, 0).unwrap();
            wal.append(&records[0]).unwrap();
            wal.append(&records[1]).unwrap();
            wal.commit().unwrap();
            survivors = 2;
        }
        {
            let _always = override_for_test(FaultConfig::always(7, FaultMode::Error));
            let (wal, _) = Wal::open(&dir, 0).unwrap();
            let err = wal.append(&records[2]).unwrap_err();
            assert!(matches!(err, RelationalError::Io { .. }));
            assert!(wal.is_poisoned());
            // Once poisoned, both appends and commits are refused.
            assert_eq!(wal.append(&records[3]), Err(RelationalError::WalPoisoned));
            assert_eq!(wal.commit(), Err(RelationalError::WalPoisoned));
        }
        // Reopen recovers exactly the pre-crash prefix.
        let _quiet = quiet_faults();
        let (_, replayed) = Wal::open(&dir, 0).unwrap();
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
        let frame = encode_frame(&[1, 9, 9]);
        dir.write_atomic(WAL_FILE, &frame).unwrap();
        let err = Wal::open(&dir, 0).unwrap_err();
        assert!(matches!(err, RelationalError::Corrupt { .. }));
        let _ = std::fs::remove_dir_all(&root);
    }
}
