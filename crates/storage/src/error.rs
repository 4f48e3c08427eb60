//! Error type for the storage substrate.

use crate::schema::DataType;

/// Errors raised by catalog, schema and table operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A table with this name already exists in the catalog.
    TableExists(String),
    /// No table with this name exists in the catalog.
    UnknownTable(String),
    /// No column with this name exists in the schema.
    UnknownColumn(String),
    /// A schema declared the same column name twice.
    DuplicateColumn(String),
    /// A row had the wrong number of values for the schema.
    ArityMismatch {
        /// Number of columns declared by the schema.
        expected: usize,
        /// Number of values supplied.
        actual: usize,
    },
    /// A value's type did not match the column's declared type.
    TypeMismatch {
        /// Offending column.
        column: String,
        /// Declared type.
        expected: DataType,
        /// Supplied type.
        actual: DataType,
    },
    /// A NULL value was supplied for a non-nullable column.
    NullViolation(String),
    /// A row index was out of range.
    RowOutOfRange {
        /// Requested row.
        row: usize,
        /// Number of rows in the table.
        len: usize,
    },
    /// CSV or other external data could not be parsed.
    Parse(String),
    /// An underlying filesystem operation failed (message includes the path).
    Io(String),
    /// On-disk durability state (WAL or snapshot) is damaged beyond what
    /// crash recovery is allowed to repair silently.
    Corrupt(String),
    /// The operation does not apply to the table's physical layout (message
    /// says which and why).
    Unsupported(String),
    /// One logged operation is larger than a WAL record can frame (the
    /// record's length prefix is a `u32`). Nothing was written.
    RecordTooLarge {
        /// Size of the record payload the operation needs.
        bytes: u64,
        /// Largest payload a record can carry.
        limit: u64,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::TableExists(name) => write!(f, "table '{name}' already exists"),
            StorageError::UnknownTable(name) => write!(f, "unknown table '{name}'"),
            StorageError::UnknownColumn(name) => write!(f, "unknown column '{name}'"),
            StorageError::DuplicateColumn(name) => {
                write!(f, "column '{name}' declared more than once")
            }
            StorageError::ArityMismatch { expected, actual } => {
                write!(f, "expected {expected} values, got {actual}")
            }
            StorageError::TypeMismatch {
                column,
                expected,
                actual,
            } => {
                write!(f, "column '{column}' expects {expected}, got {actual}")
            }
            StorageError::NullViolation(column) => {
                write!(f, "column '{column}' is not nullable")
            }
            StorageError::RowOutOfRange { row, len } => {
                write!(f, "row {row} out of range for table with {len} rows")
            }
            StorageError::Parse(msg) => write!(f, "parse error: {msg}"),
            StorageError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "storage corruption: {msg}"),
            StorageError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            StorageError::RecordTooLarge { bytes, limit } => write!(
                f,
                "operation needs a WAL record of {bytes} bytes, above the format's \
                 limit of {limit}; nothing was written"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::TypeMismatch {
            column: "label".into(),
            expected: DataType::Double,
            actual: DataType::Text,
        };
        let msg = e.to_string();
        assert!(msg.contains("label"));
        assert!(msg.contains("DOUBLE"));
        assert!(msg.contains("TEXT"));
        assert!(StorageError::UnknownTable("t".into())
            .to_string()
            .contains("t"));
        assert!(StorageError::RowOutOfRange { row: 5, len: 2 }
            .to_string()
            .contains('5'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&StorageError::Parse("bad".into()));
    }
}
