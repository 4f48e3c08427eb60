//! Errors surfaced by the SQL front-end.

use bismarck_core::frontend::FrontendError;
use bismarck_core::governor::{AdmissionError, BudgetExceeded, GuardViolation};
use bismarck_storage::StorageError;

/// Any failure while lexing, parsing, planning or executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// The statement text could not be tokenized (bad character, unterminated
    /// string literal, malformed number).
    Lex {
        /// Byte offset of the offending character.
        position: usize,
        /// Human-readable description.
        message: String,
    },
    /// The token stream does not form a valid statement.
    Parse {
        /// Token index where parsing failed.
        position: usize,
        /// Human-readable description.
        message: String,
    },
    /// The statement is well-formed but refers to unknown tables, columns or
    /// functions, or mixes types in an unsupported way.
    Analysis(String),
    /// A runtime failure while evaluating an expression (division by zero,
    /// non-numeric operand, aggregate over an empty input where undefined).
    Evaluation(String),
    /// The underlying storage engine rejected an operation.
    Storage(StorageError),
    /// An analytics front-end call (`SVMTrain`, ...) failed.
    Analytics(String),
    /// The statement's [`QueryGuard`](bismarck_core::governor::QueryGuard)
    /// deadline expired before the statement finished. The session stays
    /// usable: the failed statement leaves no partial catalog state behind
    /// beyond what the WAL records (and recovery replays or drops atomically).
    Timeout,
    /// The statement was cooperatively cancelled via
    /// [`QueryGuard::cancel`](bismarck_core::governor::QueryGuard::cancel)
    /// (or a [`Governor::shutdown`](bismarck_core::governor::Governor::shutdown)
    /// sweep) before it finished.
    Cancelled,
    /// Materializing intermediate results exceeded the statement's memory
    /// budget. Carries the typed accounting record from the governor.
    MemoryBudget(BudgetExceeded),
    /// The governor refused to admit the statement (concurrency limit
    /// reached, or the process is shutting down).
    Admission(AdmissionError),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex { position, message } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            SqlError::Parse { position, message } => {
                write!(f, "parse error at token {position}: {message}")
            }
            SqlError::Analysis(msg) => write!(f, "analysis error: {msg}"),
            SqlError::Evaluation(msg) => write!(f, "evaluation error: {msg}"),
            SqlError::Storage(e) => write!(f, "storage error: {e}"),
            SqlError::Analytics(msg) => write!(f, "analytics error: {msg}"),
            SqlError::Timeout => write!(f, "statement deadline exceeded"),
            SqlError::Cancelled => write!(f, "statement cancelled"),
            SqlError::MemoryBudget(e) => write!(f, "{e}"),
            SqlError::Admission(e) => write!(f, "admission refused: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<StorageError> for SqlError {
    fn from(e: StorageError) -> Self {
        SqlError::Storage(e)
    }
}

impl From<FrontendError> for SqlError {
    fn from(e: FrontendError) -> Self {
        SqlError::Analytics(e.to_string())
    }
}

impl From<GuardViolation> for SqlError {
    fn from(v: GuardViolation) -> Self {
        match v {
            GuardViolation::DeadlineExceeded => SqlError::Timeout,
            GuardViolation::Cancelled => SqlError::Cancelled,
        }
    }
}

impl From<BudgetExceeded> for SqlError {
    fn from(e: BudgetExceeded) -> Self {
        SqlError::MemoryBudget(e)
    }
}

impl From<AdmissionError> for SqlError {
    fn from(e: AdmissionError) -> Self {
        SqlError::Admission(e)
    }
}

/// Convenience alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, SqlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_positions_and_messages() {
        let lex = SqlError::Lex {
            position: 7,
            message: "unterminated string".into(),
        };
        assert!(lex.to_string().contains("byte 7"));
        assert!(lex.to_string().contains("unterminated"));

        let parse = SqlError::Parse {
            position: 3,
            message: "expected FROM".into(),
        };
        assert!(parse.to_string().contains("token 3"));

        let storage: SqlError = StorageError::UnknownTable("t".into()).into();
        assert!(matches!(storage, SqlError::Storage(_)));
        assert!(storage.to_string().contains("storage error"));
    }

    #[test]
    fn frontend_errors_map_to_analytics() {
        let err: SqlError = FrontendError::InvalidInput("empty table".into()).into();
        assert!(matches!(err, SqlError::Analytics(_)));
        assert!(err.to_string().contains("empty table"));
    }
}
