//! Errors for catalog, storage, and execution.

use std::fmt;

/// An error from the relational substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationalError {
    /// A referenced table does not exist.
    UnknownTable(String),
    /// A referenced column does not exist in the named table.
    UnknownColumn { table: String, column: String },
    /// A row's arity does not match the table definition.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    /// A value does not inhabit the declared column type.
    TypeMismatch {
        table: String,
        column: String,
        value: String,
    },
    /// NULL inserted into a NOT NULL column.
    NullViolation { table: String, column: String },
    /// A table with this name already exists.
    DuplicateTable(String),
    /// An expression referenced a column index beyond the row width.
    ColumnOutOfRange { index: usize, width: usize },
    /// A plan was malformed (e.g. join keys of different lengths).
    BadPlan(String),
    /// An I/O failure on the durability path. Carries the operation that
    /// failed and the rendered OS error (kept as a `String` so the error
    /// type stays `Clone + PartialEq + Eq`).
    Io { context: String, message: String },
    /// Durable state that cannot be read back — a checksum-valid record
    /// that fails to decode, or a torn checkpoint frame: a software bug or
    /// out-of-band corruption, never silently dropped.
    Corrupt { context: String },
    /// A durable operation was attempted on a WAL that already observed a
    /// write failure; the log contents past that point are unknown, so
    /// further appends are refused until the database is reopened.
    WalPoisoned,
}

impl fmt::Display for RelationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationalError::UnknownTable(t) => write!(f, "unknown table {t}"),
            RelationalError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            RelationalError::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(f, "table {table} expects {expected} columns, row has {got}")
            }
            RelationalError::TypeMismatch {
                table,
                column,
                value,
            } => {
                write!(f, "value {value} does not fit column {table}.{column}")
            }
            RelationalError::NullViolation { table, column } => {
                write!(f, "NULL in NOT NULL column {table}.{column}")
            }
            RelationalError::DuplicateTable(t) => write!(f, "table {t} already exists"),
            RelationalError::ColumnOutOfRange { index, width } => {
                write!(
                    f,
                    "column index {index} out of range for row of width {width}"
                )
            }
            RelationalError::BadPlan(msg) => write!(f, "malformed plan: {msg}"),
            RelationalError::Io { context, message } => {
                write!(f, "i/o failure during {context}: {message}")
            }
            RelationalError::Corrupt { context } => {
                write!(f, "corrupt durable state: {context}")
            }
            RelationalError::WalPoisoned => {
                write!(
                    f,
                    "write-ahead log poisoned by an earlier write failure; reopen the database"
                )
            }
        }
    }
}

impl std::error::Error for RelationalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RelationalError::UnknownColumn {
            table: "Show".into(),
            column: "year".into(),
        };
        assert!(e.to_string().contains("Show.year"));
        let e = RelationalError::ArityMismatch {
            table: "T".into(),
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains('3'));
    }
}
