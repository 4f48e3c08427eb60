//! # bismarck-sql — the SQL face of the Bismarck reproduction
//!
//! Section 2.1 of the paper shows the end-user experience: analytics are
//! trained and applied with ordinary SQL, e.g.
//!
//! ```sql
//! SELECT SVMTrain('myModel', 'LabeledPapers', 'vec', 'label');
//! ```
//!
//! and the learned model "is then persisted as a user table `myModel`".
//! This crate provides that interface over the in-process storage substrate
//! (`bismarck-storage`) and the unified IGD architecture (`bismarck-core`):
//! a tokenizer, a recursive-descent parser, an expression evaluator and an
//! executor, plus the registry of analytics functions (`SVMTrain`,
//! `LogisticRegressionTrain`, `LMFTrain`, `CRFTrain` and the matching
//! `*Predict` functions).
//!
//! The dialect also covers the plumbing a user needs around those calls:
//! `CREATE TABLE` / `INSERT` for loading data (with `ARRAY[..]` dense-vector
//! and `{index: value, ..}` sparse-vector literals), `SELECT` with `WHERE`,
//! `GROUP BY`, aggregates, `ORDER BY` (including the paper's
//! `ORDER BY RANDOM()` shuffle) and `LIMIT`.
//!
//! ## Example
//!
//! ```
//! use bismarck_sql::SqlSession;
//!
//! let mut session = SqlSession::with_seed(7);
//! session.execute_script(
//!     "CREATE TABLE LabeledPapers (id INT, vec DENSE_VEC, label DOUBLE);
//!      INSERT INTO LabeledPapers VALUES
//!        (1, ARRAY[1.0, -0.5], 1.0),
//!        (2, ARRAY[-1.0, 0.5], -1.0),
//!        (3, ARRAY[0.8, -0.6], 1.0),
//!        (4, ARRAY[-0.9, 0.4], -1.0);",
//! ).unwrap();
//! let summary = session
//!     .execute("SELECT SVMTrain('myModel', 'LabeledPapers', 'vec', 'label', 0.2, 10)")
//!     .unwrap();
//! assert_eq!(summary.len(), 1);
//! // The model is an ordinary table in the same catalog.
//! let coefficients = session.execute("SELECT COUNT(*) FROM myModel").unwrap();
//! assert_eq!(coefficients.single_value().unwrap().as_int(), Some(2));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Production paths must surface typed `SqlError`s, never panic: a malformed
// statement or a governance violation is ordinary control flow for a SQL
// engine. Tests are exempt (unwrap-on-known-good keeps them readable).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod analytics;
mod ast;
mod error;
mod eval;
mod exec;
mod parser;
mod result;
pub mod token;

pub use crate::ast::Statement;
pub use crate::error::SqlError;
pub use crate::exec::SqlSession;
pub use crate::parser::parse_statement;
pub use crate::result::QueryResult;
