//! Statement execution: a [`SqlSession`] owns a [`Database`] and runs parsed
//! statements against it.
//!
//! # How a table `SELECT` runs: bind → scan → fold / project
//!
//! 1. **Bind once.** Every clause is bound against the table's schema and
//!    the statement's model cache ([`BoundExpr`]) before a row is read, so a
//!    statement that names an unknown column, function or model, passes a
//!    wrong number of arguments or misplaces an aggregate fails the same way
//!    over an empty table, a table whose rows are all filtered out, and a
//!    full one.
//! 2. **Scan once.** One pass over the table's blocks through the block
//!    loop training uses too, [`bismarck_uda::scan_blocks_while`], which
//!    polls the statement's [`QueryGuard`] between blocks (a row-store block
//!    is a 256-row page, a columnar one a segment) and returns a block the
//!    table cannot read — a torn paged segment — as [`SqlError::Storage`].
//!    Each row is lent as a [`RowRef`] cursor, so a columnar table decodes
//!    only the cells the expressions name and a vector column reaches
//!    `PREDICT` / `DOT` / `DIM` / `NNZ` without being copied. Per row:
//!    filter, then either
//!    * **fold** (a `GROUP BY` or an aggregate): the statement is one
//!      [`Aggregate`], `GroupFold`, which [`run_sequential_while`] runs like
//!      any other: its state is the group list, and a transition finds the
//!      row's group (first-appearance order, a linear lookup; none without
//!      `GROUP BY`) and folds the row into the group's [`Accumulator`]s — no
//!      input row is kept, and a select item that is not an aggregate is
//!      the value on the group's first row; or
//!    * **project**: build the output row and its `ORDER BY` keys, once.
//!
//!    A `LIMIT` with neither `ORDER BY` nor grouping ends the scan from
//!    inside the block as soon as that many rows are kept; rows past that
//!    point are never read, nor evaluated. `CREATE TABLE … AS`, `SHUFFLE`
//!    and `CLUSTER` read their rows as this `SELECT` does.
//! 3. Groups become output rows, `ORDER BY` sorts (stably) or — `ORDER BY
//!    RANDOM()` — shuffles the finished rows, `LIMIT` truncates.
//!
//! **What is charged to the statement's memory budget** is what it keeps,
//! before it is kept: each output row with its order keys, each group's key
//! and the values its accumulators hold (a first-row value, the current
//! `MIN` / `MAX`, whose predecessor is given back). Rows the scan lends and
//! the filter rejects, or an aggregate folds, cost nothing.
//!
//! **`RANDOM()` draws** come from one session stream in evaluation order:
//! per row the filter, then the group key and the aggregates' arguments or
//! the select items and order keys. A statement that calls `RANDOM()` in
//! one clause draws what it always drew; one that calls it in several now
//! interleaves them row by row (it used to run clause by clause over the
//! whole table), and an aggregate's argument is evaluated in row order
//! across all groups, not group by group.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bismarck_core::frontend::{load_model, persist_model};
use bismarck_core::governor::{Governor, QueryGuard, ShutdownReport};
use bismarck_core::serving::{ModelHandle, ModelSnapshot, ServingTask};
use bismarck_core::TrainerConfig;
use bismarck_storage::{
    Column, ColumnarTable, DataType, Database, RecoveryReport, RowBlock, RowRef, Schema,
    StorageError, StoredTable, Table, Value,
};
use bismarck_uda::{run_sequential_while, scan_blocks_while, Aggregate, PassError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::analytics::{execute_analytics, is_analytics_function};
use crate::ast::{
    CopyDirection, Expr, OrderKey, SelectItem, SelectStatement, Statement, TableStorage,
};
use crate::error::{Result, SqlError};
use crate::eval::{
    approx_value_bytes, compare_values, is_truthy, Accumulator, BoundAggregate, BoundExpr,
    EvalContext,
};
use crate::parser::{parse_script, parse_statement};
use crate::result::QueryResult;

/// Default RNG seed so `ORDER BY RANDOM()` and `RANDOM()` are reproducible
/// unless the caller overrides the seed.
const DEFAULT_SEED: u64 = 0xB15_AA5C;

/// Loops over rows a statement already holds (parsed `COPY` / `INSERT`
/// rows, finished groups) poll its [`QueryGuard`] every this many rows, as
/// a scan polls it between blocks (a row-store page holds as many), so a
/// deadline or cancellation stops them within a bounded amount of work.
const GUARD_CHECK_ROWS: usize = 256;

/// An interactive SQL session: a catalog of tables plus the trainer
/// configuration used by analytics calls, the RNG behind `RANDOM()`, and the
/// serving registry behind `PREDICT()`.
pub struct SqlSession {
    db: Database,
    trainer_config: TrainerConfig,
    ctx: EvalContext,
    /// Live serving handles addressable by `PREDICT('name', ...)`; resolved
    /// ahead of persisted model tables of the same name.
    serving: HashMap<String, ModelHandle>,
    /// What [`SqlSession::open`] recovered from disk; `None` for in-memory
    /// sessions.
    recovery: Option<RecoveryReport>,
    /// Guard for the statement currently executing; an unlimited guard
    /// between statements (and for plain [`SqlSession::execute`] calls).
    guard: QueryGuard,
}

impl Default for SqlSession {
    fn default() -> Self {
        SqlSession::new()
    }
}

impl SqlSession {
    /// A session over an empty database with the default trainer settings.
    pub fn new() -> Self {
        SqlSession::with_seed(DEFAULT_SEED)
    }

    /// A session whose `RANDOM()` / `ORDER BY RANDOM()` stream is seeded with
    /// `seed`, for reproducible scripts and tests.
    pub fn with_seed(seed: u64) -> Self {
        SqlSession {
            db: Database::new(),
            trainer_config: TrainerConfig::default(),
            ctx: EvalContext::with_seed(seed),
            serving: HashMap::new(),
            recovery: None,
            guard: QueryGuard::unlimited(),
        }
    }

    /// Open a **durable** session bound to directory `dir`: every catalog
    /// mutation (CREATE/DROP TABLE, INSERT, COPY FROM, trained-model
    /// persistence) on a table of either layout is write-ahead logged there,
    /// and reopening the same directory reconstructs the catalog — so a
    /// `train → exit → reopen → PREDICT` sequence works across process
    /// restarts.
    ///
    /// The recovery diagnostics are logged to stderr and kept available via
    /// [`SqlSession::recovery_report`].
    pub fn open(dir: impl AsRef<Path>) -> Result<SqlSession> {
        let (db, report) = Database::open(dir)?;
        eprintln!("[bismarck recovery] {report}");
        let mut session = SqlSession::new();
        session.db = db;
        session.recovery = Some(report);
        Ok(session)
    }

    /// What [`SqlSession::open`] reconstructed from disk (tables restored,
    /// WAL records replayed, torn-tail bytes discarded); `None` for
    /// in-memory sessions.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Override the trainer configuration used by analytics functions
    /// (`SVMTrain`, `LRTrain`, ...). Per-call step-size / epoch arguments are
    /// applied on top of this.
    pub fn with_trainer_config(mut self, config: TrainerConfig) -> Self {
        self.trainer_config = config;
        self
    }

    /// The underlying database (for inspection from Rust code).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Register an already-built table (e.g. from `bismarck-datagen`),
    /// replacing any table of the same name. On a durable session (see
    /// [`SqlSession::open`]) the table contents are write-ahead logged.
    pub fn register_table(&mut self, table: Table) -> Result<()> {
        Ok(self.db.register_table(table)?)
    }

    /// [`SqlSession::register_table`] for an already-built columnar table
    /// (in-memory, or paged — which a durable session logs by reference).
    pub fn register_columnar_table(&mut self, table: ColumnarTable) -> Result<()> {
        Ok(self.db.register_table(table)?)
    }

    /// The table stored under `name`, if its layout is columnar.
    pub fn columnar_table(&self, name: &str) -> Option<&ColumnarTable> {
        self.db.stored(name).ok()?.as_columnar()
    }

    /// Register a live serving handle under `name`, making
    /// `PREDICT('name', ...)` score against the handle's **latest**
    /// snapshot — including while a trainer configured with the same handle
    /// (via [`TrainerConfig::with_serving`]) publishes epochs from another
    /// thread. Replaces any handle previously registered under the name and
    /// shadows a persisted model table of the same name.
    pub fn register_model_handle(&mut self, name: impl Into<String>, handle: ModelHandle) {
        self.serving.insert(name.into(), handle);
    }

    /// Execute a single statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let statement = parse_statement(sql)?;
        self.run_statement(statement)
    }

    /// Execute a single statement under a [`QueryGuard`]: the statement's row
    /// loops poll the guard's deadline and cancel flag (surfacing
    /// [`SqlError::Timeout`] / [`SqlError::Cancelled`]), materialized
    /// intermediate results are charged against the guard's memory budget
    /// (surfacing [`SqlError::MemoryBudget`]), and analytics calls carry the
    /// guard into the trainers, which stop at the next epoch boundary.
    ///
    /// A governance failure leaves the session usable: the next statement
    /// runs normally under its own guard.
    ///
    /// ```
    /// use std::time::Duration;
    /// use bismarck_core::governor::{QueryGuard, QueryLimits};
    /// use bismarck_sql::{SqlSession, SqlError};
    ///
    /// let mut session = SqlSession::new();
    /// session.execute("CREATE TABLE t (x INT)").unwrap();
    /// let guard = QueryGuard::new(QueryLimits::none().with_timeout(Duration::from_secs(30)));
    /// session.execute_with("INSERT INTO t VALUES (1)", &guard).unwrap();
    ///
    /// let cancelled = QueryGuard::unlimited();
    /// cancelled.cancel();
    /// assert_eq!(
    ///     session.execute_with("SELECT * FROM t", &cancelled),
    ///     Err(SqlError::Cancelled),
    /// );
    /// ```
    pub fn execute_with(&mut self, sql: &str, guard: &QueryGuard) -> Result<QueryResult> {
        let statement = parse_statement(sql)?;
        self.guard = guard.clone();
        let result = self.run_statement(statement);
        self.guard = QueryGuard::unlimited();
        result
    }

    /// Execute a `;`-separated script, returning one result per statement.
    /// Execution stops at the first error.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        let statements = parse_script(sql)?;
        self.run_statements(statements)
    }

    fn run_statements(&mut self, statements: Vec<Statement>) -> Result<Vec<QueryResult>> {
        let mut results = Vec::with_capacity(statements.len());
        for statement in statements {
            results.push(self.run_statement(statement)?);
        }
        Ok(results)
    }

    /// Gracefully shut the session down under a deadline:
    ///
    /// 1. [`Governor::shutdown`] refuses new statements, cancels every
    ///    outstanding [`QueryGuard`] the governor admitted (stopping row
    ///    loops and trainers at their next check point) and waits — up to
    ///    `deadline` — for in-flight statements to drain;
    /// 2. every registered serving handle's **last published** snapshot is
    ///    persisted into the catalog under its registered name, so a reopened
    ///    session serves identical predictions via `PREDICT()`;
    /// 3. on a durable session the catalog is compacted (snapshot written
    ///    atomically, WAL truncated) and flushed.
    ///
    /// Returns the governor's [`ShutdownReport`]. Safe on an in-memory
    /// session (steps 2–3 still run; compaction is a no-op).
    pub fn shutdown(&mut self, governor: &Governor, deadline: Instant) -> Result<ShutdownReport> {
        let report = governor.shutdown(deadline);
        let names: Vec<String> = self.serving.keys().cloned().collect();
        for name in names {
            let snapshot = match self.serving.get(&name) {
                Some(handle) => handle.snapshot(),
                None => continue,
            };
            // Version 0 is the handle's pre-publish placeholder — there is
            // no trained model to persist yet.
            if snapshot.version() == 0 {
                continue;
            }
            persist_model(&mut self.db, &name, snapshot.weights())
                .map_err(|e| SqlError::Analytics(e.to_string()))?;
        }
        self.db.compact()?;
        Ok(report)
    }

    fn run_statement(&mut self, statement: Statement) -> Result<QueryResult> {
        self.guard.check()?;
        // Intermediate-result reservations are statement-scoped: whatever
        // this statement charged is returned to the budget when it finishes
        // (or fails), so a script sharing one guard meters its *peak* usage
        // per statement and a budget error never poisons the session.
        let reserved_before = self.guard.budget().reserved();
        let result = self.dispatch(statement);
        let reserved_now = self.guard.budget().reserved();
        self.guard
            .budget()
            .release(reserved_now.saturating_sub(reserved_before));
        result
    }

    fn dispatch(&mut self, statement: Statement) -> Result<QueryResult> {
        self.prime_predict_models(&statement)?;
        match statement {
            Statement::CreateTable {
                name,
                columns,
                storage,
            } => self.run_create_table(name, columns, storage),
            Statement::DropTable { name } => {
                self.db.drop_table(&name)?;
                Ok(QueryResult::status_only("DROP TABLE"))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.run_insert(table, columns, rows),
            Statement::Select(select) => self.run_select(select),
            Statement::Copy {
                table,
                direction,
                path,
            } => self.run_copy(table, direction, path),
            Statement::Shuffle { table, seed } => self.run_reorder(table, Reorder::Shuffle(seed)),
            Statement::Cluster {
                table,
                column,
                ascending,
            } => self.run_reorder(table, Reorder::Cluster { column, ascending }),
            Statement::CreateTableAs {
                name,
                query,
                storage,
            } => self.run_create_table_as(name, query, storage),
            Statement::ShowTables => Ok(self.run_show_tables()),
            Statement::Describe { name } => self.run_describe(&name),
        }
    }

    /// `CREATE TABLE ... AS SELECT ...`: materialize a query result. Column
    /// types are inferred from the result values (integer columns containing
    /// any double are widened to DOUBLE; all-NULL columns default to DOUBLE).
    fn run_create_table_as(
        &mut self,
        name: String,
        query: SelectStatement,
        storage: TableStorage,
    ) -> Result<QueryResult> {
        if self.db.contains(&name) {
            return Err(StorageError::TableExists(name).into());
        }
        let result = self.run_select(query)?;
        let arity = result.columns.len();

        // Infer one type per output column.
        let mut types: Vec<Option<DataType>> = vec![None; arity];
        for row in &result.rows {
            for (i, value) in row.iter().enumerate() {
                let Some(dtype) = value.data_type() else {
                    continue;
                };
                types[i] = Some(match (types[i], dtype) {
                    (None, t) => t,
                    (Some(DataType::Int), DataType::Double)
                    | (Some(DataType::Double), DataType::Int) => DataType::Double,
                    (Some(existing), t) if existing == t => existing,
                    (Some(existing), t) => {
                        return Err(SqlError::Analysis(format!(
                            "column '{}' mixes {existing} and {t} values; cannot materialize",
                            result.columns[i]
                        )))
                    }
                });
            }
        }

        let columns: Vec<Column> = result
            .columns
            .iter()
            .zip(&types)
            .map(|(name, dtype)| Column::nullable(name.clone(), dtype.unwrap_or(DataType::Double)))
            .collect();
        let schema = Schema::new(columns)?;
        let count = result.rows.len();
        let coerced_rows = result.rows.into_iter().map(|row| {
            row.into_iter()
                .zip(&types)
                .map(|(value, dtype)| match (value, dtype) {
                    // Widen integers stored in a DOUBLE column.
                    (Value::Int(v), Some(DataType::Double)) => Value::Double(v as f64),
                    (value, _) => value,
                })
                .collect::<Vec<Value>>()
        });
        let mut table = empty_table(name, schema, storage);
        table.insert_all(coerced_rows)?;
        self.db.create_stored(table)?;
        Ok(QueryResult::status_only(format!(
            "CREATE TABLE AS ({count} rows)"
        )))
    }

    /// `SHOW TABLES`: table names and row counts, sorted by name.
    fn run_show_tables(&self) -> QueryResult {
        let rows = self
            .db
            .tables()
            .map(|t| vec![Value::Text(t.name().into()), Value::Int(t.len() as i64)])
            .collect();
        QueryResult::with_rows(vec!["table".into(), "rows".into()], rows)
    }

    /// `DESCRIBE <table>`: column names, types and nullability.
    fn run_describe(&self, name: &str) -> Result<QueryResult> {
        let rows = self
            .db
            .stored(name)?
            .schema()
            .columns()
            .iter()
            .map(|column| {
                vec![
                    Value::Text(column.name.clone()),
                    Value::Text(column.dtype.to_string()),
                    Value::Int(i64::from(column.nullable)),
                ]
            })
            .collect();
        Ok(QueryResult::with_rows(
            vec!["column".into(), "type".into(), "nullable".into()],
            rows,
        ))
    }

    fn run_copy(
        &mut self,
        table_name: String,
        direction: CopyDirection,
        path: String,
    ) -> Result<QueryResult> {
        match direction {
            CopyDirection::FromFile => {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| SqlError::Evaluation(format!("cannot read '{path}': {e}")))?;
                // Parse the whole file first so a malformed line never
                // leaves a half-loaded target behind.
                let schema = self.db.stored(&table_name)?.schema();
                let parsed = bismarck_storage::csv::rows_from_str(schema, &text)?;
                for (i, row) in parsed.iter().enumerate() {
                    if i.is_multiple_of(GUARD_CHECK_ROWS) {
                        self.guard.check()?;
                    }
                    self.guard.reserve(approx_row_bytes(row))?;
                }
                let count = self.db.insert_rows(&table_name, parsed)?;
                Ok(QueryResult::status_only(format!("COPY {count}")))
            }
            CopyDirection::ToFile => {
                let table = self.db.stored(&table_name)?;
                std::fs::write(&path, bismarck_storage::csv::tuples_to_string(table)?)
                    .map_err(|e| SqlError::Evaluation(format!("cannot write '{path}': {e}")))?;
                Ok(QueryResult::status_only(format!("COPY {}", table.len())))
            }
        }
    }

    /// Physically rewrite a stored table in a new order (`SHUFFLE TABLE` /
    /// `CLUSTER TABLE ... BY`). This is the storage-side knob Section 3.2
    /// studies: the scan order of later training runs follows this layout.
    /// The rows are read as `SELECT *` reads them.
    fn run_reorder(&mut self, table_name: String, reorder: Reorder) -> Result<QueryResult> {
        // The rewrite target keeps the layout; asking for it first refuses a
        // paged table before any row is read.
        let mut rebuilt = self.db.stored(&table_name)?.empty_like()?;
        let mut rows = self
            .run_table_select(SelectStatement {
                items: vec![SelectItem::Wildcard],
                from: Some(table_name),
                filter: None,
                group_by: Vec::new(),
                order_by: Vec::new(),
                limit: None,
            })?
            .rows;
        let status = match reorder {
            Reorder::Shuffle(seed) => {
                match seed {
                    Some(seed) => rows.shuffle(&mut StdRng::seed_from_u64(seed)),
                    None => rows.shuffle(&mut self.ctx.rng),
                }
                format!("SHUFFLE {}", rows.len())
            }
            Reorder::Cluster { column, ascending } => {
                let idx = rebuilt.schema().index_of(&column)?;
                rows.sort_by(|a, b| {
                    let ordering = compare_values(&a[idx], &b[idx]);
                    if ascending {
                        ordering
                    } else {
                        ordering.reverse()
                    }
                });
                format!("CLUSTER {}", rows.len())
            }
        };
        rebuilt.insert_all(rows)?;
        self.db.register_table(rebuilt)?;
        Ok(QueryResult::status_only(status))
    }

    fn run_create_table(
        &mut self,
        name: String,
        columns: Vec<crate::ast::ColumnDef>,
        storage: TableStorage,
    ) -> Result<QueryResult> {
        // Columns are nullable so `INSERT` with an explicit column list can
        // omit the rest; the storage layer still enforces declared types.
        let schema = Schema::new(
            columns
                .into_iter()
                .map(|c| Column::nullable(c.name, c.data_type))
                .collect(),
        )?;
        self.db.create_stored(empty_table(name, schema, storage))?;
        Ok(QueryResult::status_only("CREATE TABLE"))
    }

    fn run_insert(
        &mut self,
        table_name: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    ) -> Result<QueryResult> {
        // Evaluate all rows before touching the table so a mid-statement
        // error does not leave a partial insert behind.
        let schema = self.db.stored(&table_name)?.schema().clone();
        let arity = schema.arity();
        let column_indices: Option<Vec<usize>> = match &columns {
            Some(names) => {
                let mut indices = Vec::with_capacity(names.len());
                for name in names {
                    indices.push(schema.index_of(name)?);
                }
                Some(indices)
            }
            None => None,
        };

        let mut materialized: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        for (i, row) in rows.into_iter().enumerate() {
            if i.is_multiple_of(GUARD_CHECK_ROWS) {
                self.guard.check()?;
            }
            let mut values = Vec::with_capacity(row.len());
            for expr in row {
                values.push(match expr {
                    // A constant the parser read: the value moves into the
                    // row; only what needs computing is evaluated.
                    Expr::Literal(value) => value,
                    expr => BoundExpr::eval_constant(&expr, &mut self.ctx)?,
                });
            }
            let full_row = match &column_indices {
                Some(indices) => {
                    if values.len() != indices.len() {
                        return Err(SqlError::Analysis(format!(
                            "INSERT row has {} values for {} named columns",
                            values.len(),
                            indices.len()
                        )));
                    }
                    let mut full = vec![Value::Null; arity];
                    for (idx, value) in indices.iter().zip(values) {
                        full[*idx] = value;
                    }
                    full
                }
                None => values,
            };
            self.guard.reserve(approx_row_bytes(&full_row))?;
            materialized.push(full_row);
        }

        let count = self.db.insert_rows(&table_name, materialized)?;
        Ok(QueryResult::status_only(format!("INSERT {count}")))
    }

    fn run_select(&mut self, select: SelectStatement) -> Result<QueryResult> {
        match &select.from {
            None => self.run_tableless_select(select),
            Some(_) => self.run_table_select(select),
        }
    }

    /// `SELECT` without `FROM`: either a single analytics call
    /// (`SELECT SVMTrain(...)`) or a row of scalar expressions.
    fn run_tableless_select(&mut self, select: SelectStatement) -> Result<QueryResult> {
        // Analytics calls take over the whole statement: they produce their
        // own result shape (a training summary or a prediction row set).
        let analytics_items = select
            .items
            .iter()
            .filter(|item| {
                matches!(item, SelectItem::Expr { expr: Expr::Function { name, .. }, .. }
                    if is_analytics_function(name))
            })
            .count();
        if analytics_items > 0 {
            if select.items.len() != 1 {
                return Err(SqlError::Analysis(
                    "an analytics function must be the only item in its SELECT".into(),
                ));
            }
            let SelectItem::Expr {
                expr: Expr::Function { name, args },
                ..
            } = &select.items[0]
            else {
                unreachable!("filtered on function items above");
            };
            let mut arg_values = Vec::with_capacity(args.len());
            for arg in args {
                arg_values.push(BoundExpr::eval_constant(arg, &mut self.ctx)?);
            }
            // The guard rides into the trainers through the config: deadline
            // or cancellation ends the run at the next epoch boundary.
            let config = self.trainer_config.clone().with_guard(self.guard.clone());
            let result = execute_analytics(&mut self.db, config, name, &arg_values);
            // A run the guard interrupted surfaces as the governance error,
            // not a generic analytics failure.
            return result.map_err(|e| match self.guard.check() {
                Err(violation) => violation.into(),
                Ok(()) => e,
            });
        }

        let mut columns = Vec::with_capacity(select.items.len());
        let mut row = Vec::with_capacity(select.items.len());
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(SqlError::Analysis(
                        "SELECT * requires a FROM clause".to_string(),
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| expr.default_name()));
                    row.push(BoundExpr::eval_constant(expr, &mut self.ctx)?);
                }
            }
        }
        Ok(QueryResult::with_rows(columns, vec![row]))
    }

    /// `SELECT ... FROM table`: bind every clause against the table's schema,
    /// then one pass over its blocks — see the module docs.
    fn run_table_select(&mut self, select: SelectStatement) -> Result<QueryResult> {
        let Some(table_name) = select.from.as_deref() else {
            return Err(SqlError::Analysis(
                "SELECT over a table requires a FROM clause".into(),
            ));
        };
        // Split borrows: the table is read-only while the RNG in `ctx` is
        // mutated by RANDOM().
        let SqlSession { db, ctx, guard, .. } = self;
        let guard = &*guard;
        let source = db.stored(table_name)?;
        let plan = BoundSelect::bind(&select, source.schema(), ctx)?;

        let mut output = Output {
            guard,
            rows: Vec::new(),
            keys: Vec::new(),
        };
        let keep_going = &mut || guard.check().is_ok();
        match &plan.grouping {
            Some(grouping) => {
                let fold = GroupFold {
                    filter: plan.filter.as_ref(),
                    grouping,
                    guard,
                    scratch: RefCell::new((&mut *ctx, Vec::new())),
                };
                let groups = run_sequential_while(&fold, source, None, keep_going)
                    .map_err(|end| scan_error(guard, end))?;
                // One output row per group.
                for (i, (_, accumulators)) in groups.into_iter().enumerate() {
                    if i.is_multiple_of(GUARD_CHECK_ROWS) {
                        guard.check()?;
                    }
                    let finished = accumulators
                        .into_iter()
                        .zip(&grouping.aggregates)
                        .map(|(accumulator, aggregate)| accumulator.finish(aggregate))
                        .collect::<Result<Vec<Value>>>()?;
                    output.push(&plan, RowRef::Values(&[]), &finished, ctx)?;
                }
            }
            None if plan.stop_after == Some(0) => {}
            None => scan_blocks_while(source, 0, usize::MAX, keep_going, &mut |block| {
                for row in block.rows() {
                    if let Some(filter) = &plan.filter {
                        if !is_truthy(filter.eval(row, &[], ctx)?.as_ref()) {
                            continue;
                        }
                    }
                    output.push(&plan, row, &[], ctx)?;
                    if plan.stop_after == Some(output.rows.len()) {
                        return Ok(false);
                    }
                }
                Ok(true)
            })
            .map_err(|end| scan_error(guard, end))?,
        }

        let Output { mut rows, keys, .. } = output;
        match &plan.order {
            Order::Stored => {}
            Order::Shuffled => rows.shuffle(&mut ctx.rng),
            Order::Sorted(sort_keys) => {
                let mut order: Vec<usize> = (0..rows.len()).collect();
                order.sort_by(|&a, &b| {
                    for ((_, ascending), (x, y)) in
                        sort_keys.iter().zip(keys[a].iter().zip(&keys[b]))
                    {
                        let ordering = compare_values(x, y);
                        if ordering != std::cmp::Ordering::Equal {
                            return if *ascending {
                                ordering
                            } else {
                                ordering.reverse()
                            };
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                rows = order
                    .into_iter()
                    .map(|i| std::mem::take(&mut rows[i]))
                    .collect();
            }
        }
        if let Some(limit) = select.limit {
            rows.truncate(limit);
        }
        Ok(QueryResult::with_rows(plan.columns, rows))
    }

    /// Resolve every model named by a `PREDICT()` call in the statement into
    /// the evaluation context's snapshot cache, **once per statement**: a
    /// registered serving handle yields its latest snapshot (scored through
    /// the handle task's link function), a persisted model table is loaded
    /// as a raw-score (identity link) model. Acquiring the snapshot up front
    /// both amortizes its cost across the statement's rows and guarantees
    /// all rows are scored against the same model version. Unknown names are
    /// left unresolved and error when the `PREDICT()` call is bound.
    fn prime_predict_models(&mut self, statement: &Statement) -> Result<()> {
        self.ctx.models.clear();
        let mut names = Vec::new();
        collect_statement_predict_models(statement, &mut names);
        for name in names {
            if let Some(handle) = self.serving.get(&name) {
                self.ctx.models.insert(name, handle.snapshot());
            } else if self.db.contains(&name) {
                let weights = load_model(&self.db, &name).map_err(|e| {
                    SqlError::Evaluation(format!("cannot load model '{name}': {e}"))
                })?;
                self.ctx.models.insert(
                    name,
                    Arc::new(ModelSnapshot::detached(ServingTask::LeastSquares, weights)),
                );
            }
        }
        Ok(())
    }
}

/// An empty table of the layout a `CREATE TABLE [... STORAGE = ...]` asked
/// for — the one place the executor looks at a layout.
fn empty_table(name: String, schema: Schema, storage: TableStorage) -> StoredTable {
    match storage {
        TableStorage::Row => Table::new(name, schema).into(),
        TableStorage::Columnar => ColumnarTable::new(name, schema).into(),
    }
}

/// A table `SELECT` with every clause bound against the table's schema.
struct BoundSelect {
    /// Output column names.
    columns: Vec<String>,
    filter: Option<BoundExpr>,
    /// The select list. Under `grouping` the expressions refer to its
    /// aggregates and there is no `*`.
    items: Vec<BoundItem>,
    /// `Some` when the select groups or aggregates: one output row per
    /// group instead of one per kept row.
    grouping: Option<Grouping>,
    order: Order,
    /// A `LIMIT` that ends the scan once this many rows are kept: one with
    /// neither an `ORDER BY` nor a grouping that needs the rest of the table.
    stop_after: Option<usize>,
}

enum BoundItem {
    /// `*`: every source column.
    Wildcard,
    Expr(BoundExpr),
}

struct Grouping {
    /// The `GROUP BY` expressions; empty for one all-rows group.
    by: Vec<BoundExpr>,
    /// Every reduction the select list and order keys refer to.
    aggregates: Vec<BoundAggregate>,
}

impl Grouping {
    /// Fresh state for one group.
    fn accumulators(&self) -> Vec<Accumulator> {
        vec![Accumulator::default(); self.aggregates.len()]
    }
}

enum Order {
    /// No `ORDER BY`: rows stay in the order the scan kept them.
    Stored,
    /// `ORDER BY RANDOM()`: the finished rows are shuffled.
    Shuffled,
    /// Sort by these keys, each with its direction (`true`: ascending).
    Sorted(Vec<(SortKey, bool)>),
}

enum SortKey {
    Expr(BoundExpr),
    /// A select-list alias: the output row's value at this position.
    Output(usize),
}

impl BoundSelect {
    fn bind(select: &SelectStatement, schema: &Schema, ctx: &EvalContext) -> Result<BoundSelect> {
        let filter = match &select.filter {
            Some(predicate) => Some(BoundExpr::bind(predicate, Some(schema), ctx)?),
            None => None,
        };
        let grouped = !select.group_by.is_empty()
            || select.items.iter().any(
                |item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
            );
        let by = select
            .group_by
            .iter()
            .map(|expr| BoundExpr::bind(expr, Some(schema), ctx))
            .collect::<Result<Vec<_>>>()?;
        let mut aggregates = Vec::new();
        let mut bind_output = |expr: &Expr| match grouped {
            true => BoundExpr::bind_grouped(expr, schema, ctx, &mut aggregates),
            false => BoundExpr::bind(expr, Some(schema), ctx),
        };

        let mut columns = Vec::new();
        let mut items = Vec::with_capacity(select.items.len());
        // (alias, position in the output row), for ORDER BY.
        let mut aliases = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Wildcard if grouped => {
                    return Err(SqlError::Analysis(
                        "SELECT * cannot be combined with GROUP BY or aggregates".into(),
                    ))
                }
                SelectItem::Wildcard => {
                    columns.extend(schema.columns().iter().map(|c| c.name.clone()));
                    items.push(BoundItem::Wildcard);
                }
                SelectItem::Expr { expr, alias } => {
                    if let Some(alias) = alias {
                        aliases.push((alias.as_str(), columns.len()));
                    }
                    columns.push(alias.clone().unwrap_or_else(|| expr.default_name()));
                    items.push(BoundItem::Expr(bind_output(expr)?));
                }
            }
        }

        let order = if select.order_by.is_empty() {
            Order::Stored
        } else if order_by_is_random(&select.order_by) {
            // A grouped select has always evaluated the key once per group
            // before shuffling; binding it keeps those draws in the stream.
            if grouped {
                bind_output(&select.order_by[0].expr)?;
            }
            Order::Shuffled
        } else {
            let mut keys = Vec::with_capacity(select.order_by.len());
            for key in &select.order_by {
                // A name that is not a source column may be a select-list
                // alias.
                let alias = match &key.expr {
                    Expr::Column(name) if schema.index_of(name).is_err() => {
                        aliases.iter().find(|(alias, _)| alias == name)
                    }
                    _ => None,
                };
                let sort_key = match alias {
                    Some(&(_, position)) => SortKey::Output(position),
                    None => SortKey::Expr(bind_output(&key.expr)?),
                };
                keys.push((sort_key, key.ascending));
            }
            Order::Sorted(keys)
        };

        Ok(BoundSelect {
            columns,
            filter,
            items,
            grouping: grouped.then_some(Grouping { by, aggregates }),
            stop_after: select
                .limit
                .filter(|_| !grouped && matches!(order, Order::Stored)),
            order,
        })
    }
}

/// The rows a `SELECT` returns, as they are built: each is charged to the
/// statement's budget, with its order keys, before it is kept.
struct Output<'g> {
    guard: &'g QueryGuard,
    rows: Vec<Vec<Value>>,
    /// One entry per row under [`Order::Sorted`], none otherwise.
    keys: Vec<Vec<Value>>,
}

impl Output<'_> {
    /// Project one output row of `plan` — from a source row, or from a
    /// group's finished aggregates — and keep it.
    fn push(
        &mut self,
        plan: &BoundSelect,
        row: RowRef<'_>,
        aggregates: &[Value],
        ctx: &mut EvalContext,
    ) -> Result<()> {
        let mut out = Vec::with_capacity(plan.columns.len());
        for item in &plan.items {
            match item {
                BoundItem::Wildcard => out.extend(owned_cells(row)),
                BoundItem::Expr(expr) => out.push(expr.eval(row, aggregates, ctx)?.into_owned()),
            }
        }
        let keys = match &plan.order {
            Order::Sorted(sort_keys) => {
                let mut keys = Vec::with_capacity(sort_keys.len());
                for (key, _) in sort_keys {
                    keys.push(match key {
                        SortKey::Expr(expr) => expr.eval(row, aggregates, ctx)?.into_owned(),
                        SortKey::Output(position) => out[*position].clone(),
                    });
                }
                Some(keys)
            }
            Order::Stored | Order::Shuffled => None,
        };
        self.guard
            .reserve(approx_row_bytes(&out) + keys.as_deref().map_or(0, approx_row_bytes))?;
        self.rows.push(out);
        self.keys.extend(keys);
        Ok(())
    }
}

/// Every cell of `row`, owned.
fn owned_cells(row: RowRef<'_>) -> impl Iterator<Item = Value> + '_ {
    (0..row.arity()).map(move |col| row.value(col).into_owned())
}

/// A grouped or aggregating `SELECT` as the aggregate the UDA drivers run,
/// the bound statement itself: its state is the group list — each group's
/// key and one [`Accumulator`] per reduction, in first-appearance order — and
/// a transition filters a row, finds its group and folds the row into it.
/// No input row is kept.
struct GroupFold<'s> {
    filter: Option<&'s BoundExpr>,
    grouping: &'s Grouping,
    guard: &'s QueryGuard,
    /// The session's evaluation context and the key of the row being
    /// folded, borrowed once per block.
    scratch: RefCell<(&'s mut EvalContext, Vec<Value>)>,
}

/// The groups of a [`GroupFold`].
type Groups = Vec<(Vec<Value>, Vec<Accumulator>)>;

impl GroupFold<'_> {
    fn fold(
        &self,
        groups: &mut Groups,
        row: RowRef<'_>,
        (ctx, key): &mut (&mut EvalContext, Vec<Value>),
    ) -> Result<()> {
        if let Some(filter) = self.filter {
            if !is_truthy(filter.eval(row, &[], ctx)?.as_ref()) {
                return Ok(());
            }
        }
        // Without GROUP BY every row is in the one group; with it the
        // lookup is linear in the number of groups.
        let group = if self.grouping.by.is_empty() {
            0
        } else {
            key.clear();
            for expr in &self.grouping.by {
                key.push(expr.eval(row, &[], ctx)?.into_owned());
            }
            match groups.iter().position(|(existing, _)| existing == key) {
                Some(group) => group,
                None => {
                    self.guard.reserve(approx_row_bytes(key))?;
                    groups.push((std::mem::take(key), self.grouping.accumulators()));
                    groups.len() - 1
                }
            }
        };
        let accumulators = groups[group].1.iter_mut();
        for (accumulator, aggregate) in accumulators.zip(&self.grouping.aggregates) {
            accumulator.fold(aggregate, row, ctx, self.guard)?;
        }
        Ok(())
    }
}

impl Aggregate for GroupFold<'_> {
    type State = Groups;
    type Output = Groups;
    type Error = SqlError;

    /// Without GROUP BY all rows are one group, which exists even when
    /// there is no row (COUNT(*) over an empty table is 0).
    fn initialize(&self) -> Groups {
        match self.grouping.by.is_empty() {
            true => vec![(Vec::new(), self.grouping.accumulators())],
            false => Vec::new(),
        }
    }

    fn transition(&self, groups: &mut Groups, row: RowRef<'_>) -> Result<()> {
        self.fold(groups, row, &mut self.scratch.borrow_mut())
    }

    fn transition_block(&self, groups: &mut Groups, block: RowBlock<'_>) -> Result<()> {
        let scratch = &mut *self.scratch.borrow_mut();
        block
            .rows()
            .try_for_each(|row| self.fold(groups, row, scratch))
    }

    fn terminate(&self, groups: Groups) -> Groups {
        groups
    }
}

/// The error a statement's scan ended with: a stop is the violation of the
/// guard that said stop. (The scan runs on the calling thread, outside any
/// runner, so no part of it can have panicked.)
fn scan_error(guard: &QueryGuard, end: PassError<SqlError>) -> SqlError {
    match end {
        PassError::Stopped => guard.check().err().map_or(SqlError::Cancelled, Into::into),
        PassError::Storage(e) => e.into(),
        PassError::Failed(e) => e,
        PassError::Panicked { message, .. } => SqlError::Evaluation(message),
    }
}

/// How `run_reorder` rewrites a table.
enum Reorder {
    /// Random permutation, optionally with an explicit seed.
    Shuffle(Option<u64>),
    /// Sort by a column.
    Cluster {
        /// Column to sort by.
        column: String,
        /// Sort direction.
        ascending: bool,
    },
}

/// Append the model names referenced by `PREDICT()` calls anywhere in the
/// statement to `out` (deduplicated). Only text *literals* are collected —
/// the model must be known before row-by-row evaluation starts, so a
/// computed model name cannot be resolved and errors at evaluation time.
fn collect_statement_predict_models(statement: &Statement, out: &mut Vec<String>) {
    match statement {
        Statement::Select(select) => collect_select_predict_models(select, out),
        Statement::CreateTableAs { query, .. } => collect_select_predict_models(query, out),
        Statement::Insert { rows, .. } => {
            for row in rows {
                for expr in row {
                    collect_expr_predict_models(expr, out);
                }
            }
        }
        _ => {}
    }
}

fn collect_select_predict_models(select: &SelectStatement, out: &mut Vec<String>) {
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_expr_predict_models(expr, out);
        }
    }
    if let Some(filter) = &select.filter {
        collect_expr_predict_models(filter, out);
    }
    for expr in &select.group_by {
        collect_expr_predict_models(expr, out);
    }
    for key in &select.order_by {
        collect_expr_predict_models(&key.expr, out);
    }
}

fn collect_expr_predict_models(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Function { name, args } => {
            if name.eq_ignore_ascii_case("predict") {
                if let Some(Expr::Literal(Value::Text(model))) = args.first() {
                    if !out.contains(model) {
                        out.push(model.clone());
                    }
                }
            }
            for arg in args {
                collect_expr_predict_models(arg, out);
            }
        }
        Expr::Unary { expr, .. } => collect_expr_predict_models(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_expr_predict_models(left, out);
            collect_expr_predict_models(right, out);
        }
        Expr::IsNull { expr, .. } => collect_expr_predict_models(expr, out),
        Expr::ArrayLiteral(items) => {
            for item in items {
                collect_expr_predict_models(item, out);
            }
        }
        Expr::SparseLiteral(pairs) => {
            for (index, value) in pairs {
                collect_expr_predict_models(index, out);
                collect_expr_predict_models(value, out);
            }
        }
        Expr::Literal(_) | Expr::Column(_) | Expr::Wildcard => {}
    }
}

/// [`approx_value_bytes`] over a row a statement keeps.
fn approx_row_bytes(values: &[Value]) -> usize {
    values.iter().map(approx_value_bytes).sum()
}

/// True when the `ORDER BY` clause is the paper's `ORDER BY RANDOM()` shuffle.
fn order_by_is_random(order_by: &[OrderKey]) -> bool {
    order_by.len() == 1
        && matches!(
            &order_by[0].expr,
            Expr::Function { name, args } if name.eq_ignore_ascii_case("random") && args.is_empty()
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a statement that the test expects to succeed, panicking with the
    /// offending SQL text (not just the error) when it does not.
    fn exec(session: &mut SqlSession, sql: &str) -> QueryResult {
        session
            .execute(sql)
            .unwrap_or_else(|e| panic!("SQL `{sql}` failed: {e}"))
    }

    /// `execute_script` counterpart of [`exec`].
    fn exec_script(session: &mut SqlSession, sql: &str) -> Vec<QueryResult> {
        session
            .execute_script(sql)
            .unwrap_or_else(|e| panic!("SQL script `{sql}` failed: {e}"))
    }

    fn session_with_points() -> SqlSession {
        let mut session = SqlSession::with_seed(11);
        exec_script(
            &mut session,
            "CREATE TABLE points (id INT, x DOUBLE, label DOUBLE, name TEXT);
                 INSERT INTO points VALUES
                   (1, 0.5, 1.0, 'a'),
                   (2, -0.5, -1.0, 'b'),
                   (3, 1.5, 1.0, 'c'),
                   (4, -1.5, -1.0, 'd'),
                   (5, 2.5, 1.0, 'e');",
        );
        session
    }

    /// `DOT` sizes nothing by a sparse argument's indices: scattering
    /// `{4294967295: 1.0}` into a dense scratch would ask for 32 GiB, an
    /// abort no `catch_unwind` stops.
    #[test]
    fn dot_with_a_huge_sparse_index_allocates_nothing_by_it() {
        let mut session = SqlSession::with_seed(3);
        exec_script(
            &mut session,
            "CREATE TABLE s (vec SPARSE_VEC, label DOUBLE);
             INSERT INTO s VALUES ({0: 1.0, 3: 2.0}, 1.0), ({1: -1.0}, -1.0);",
        );
        let result = exec(&mut session, "SELECT DOT(vec, {4294967295: 1.0}) FROM s");
        assert_eq!(
            result.rows,
            vec![vec![Value::Double(0.0)], vec![Value::Double(0.0)]]
        );
        let result = exec(
            &mut session,
            "SELECT DOT(vec, {3: 0.5, 4294967295: 1.0}), \
                    DOT({4294967295: 2.0}, vec), \
                    DOT(ARRAY[1.0, -1.0], {1: 3.0, 4294967295: 1.0}) FROM s",
        );
        let double = Value::Double;
        assert_eq!(
            result.rows,
            vec![
                vec![double(1.0), double(0.0), double(-3.0)],
                vec![double(0.0), double(0.0), double(-3.0)],
            ]
        );
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut session = session_with_points();
        let result = exec(&mut session, "SELECT * FROM points");
        assert_eq!(result.columns, vec!["id", "x", "label", "name"]);
        assert_eq!(result.len(), 5);

        let filtered = exec(
            &mut session,
            "SELECT id, name FROM points WHERE label > 0 ORDER BY id DESC",
        );
        assert_eq!(filtered.len(), 3);
        assert_eq!(filtered.rows[0][0], Value::Int(5));
        assert_eq!(filtered.rows[2][0], Value::Int(1));
    }

    #[test]
    fn insert_with_column_list_fills_missing_with_null() {
        let mut session = session_with_points();
        exec(
            &mut session,
            "INSERT INTO points (id, label) VALUES (6, 1.0)",
        );
        let row = exec(&mut session, "SELECT x FROM points WHERE id = 6");
        assert_eq!(row.rows[0][0], Value::Null);
    }

    #[test]
    fn insert_arity_mismatch_is_rejected_before_writing() {
        let mut session = session_with_points();
        let err = session
            .execute("INSERT INTO points (id, label) VALUES (7, 1.0, 2.0)")
            .unwrap_err();
        assert!(err.to_string().contains("2 named columns"));
        let count = exec(&mut session, "SELECT COUNT(*) FROM points");
        assert_eq!(count.single_value(), Some(&Value::Int(5)));
    }

    #[test]
    fn aggregates_with_and_without_group_by() {
        let mut session = session_with_points();
        let total = exec(&mut session, "SELECT COUNT(*), AVG(x) FROM points");
        assert_eq!(total.rows[0][0], Value::Int(5));
        assert_eq!(total.rows[0][1], Value::Double(0.5));

        let grouped = exec(
            &mut session,
            "SELECT label, COUNT(*) AS n, MAX(x) AS biggest FROM points \
                 GROUP BY label ORDER BY label",
        );
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped.columns, vec!["label", "n", "biggest"]);
        assert_eq!(grouped.rows[0][0], Value::Double(-1.0));
        assert_eq!(grouped.rows[0][1], Value::Int(2));
        assert_eq!(grouped.rows[1][2], Value::Double(2.5));
    }

    #[test]
    fn count_star_over_empty_table_is_zero() {
        let mut session = SqlSession::new();
        exec(&mut session, "CREATE TABLE empty (x INT)");
        let result = exec(&mut session, "SELECT COUNT(*) FROM empty");
        assert_eq!(result.single_value(), Some(&Value::Int(0)));
    }

    #[test]
    fn order_by_random_is_a_permutation_and_seed_dependent() {
        let run = |seed: u64| {
            let mut session = SqlSession::with_seed(seed);
            exec_script(
                &mut session,
                "CREATE TABLE t (id INT);
                     INSERT INTO t VALUES (1),(2),(3),(4),(5),(6),(7),(8),(9),(10);",
            );
            exec(&mut session, "SELECT id FROM t ORDER BY RANDOM()")
                .rows
                .iter()
                .map(|r| r[0].as_int().unwrap())
                .collect::<Vec<_>>()
        };
        let a = run(1);
        let b = run(2);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=10).collect::<Vec<_>>());
        assert_ne!(a, b, "different seeds should give different shuffles");
        assert_eq!(run(1), a, "same seed must reproduce the shuffle");
    }

    #[test]
    fn limit_caps_rows() {
        let mut session = session_with_points();
        let result = exec(&mut session, "SELECT id FROM points ORDER BY id LIMIT 2");
        assert_eq!(result.len(), 2);
        assert_eq!(result.rows[1][0], Value::Int(2));
    }

    #[test]
    fn limit_without_order_by_keeps_the_first_rows_and_zero_keeps_none() {
        let mut session = session_with_points();
        let first = exec(&mut session, "SELECT id FROM points WHERE id > 1 LIMIT 2");
        assert_eq!(first.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
        let none = exec(&mut session, "SELECT id, name FROM points LIMIT 0");
        assert_eq!(none.columns, vec!["id", "name"]);
        assert!(none.rows.is_empty());
        // With an ORDER BY the limit applies to the sorted rows.
        let top = exec(
            &mut session,
            "SELECT id FROM points ORDER BY id DESC LIMIT 1",
        );
        assert_eq!(top.rows, vec![vec![Value::Int(5)]]);
        // A row the scan never reaches is not evaluated.
        let early = exec(&mut session, "SELECT 1 / (id - 3) FROM points LIMIT 2");
        assert_eq!(early.len(), 2);
        assert!(session
            .execute("SELECT 1 / (id - 3) FROM points LIMIT 3")
            .is_err());
    }

    #[test]
    fn order_by_accepts_a_select_list_alias() {
        let mut session = session_with_points();
        let result = exec(
            &mut session,
            "SELECT name, x * -1 AS flipped FROM points WHERE id > 1 ORDER BY flipped",
        );
        let names: Vec<&Value> = result.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(
            names,
            ["e", "c", "b", "d"]
                .map(|n| Value::Text(n.into()))
                .iter()
                .collect::<Vec<_>>()
        );
        // A source column of that name wins over the alias.
        let result = exec(
            &mut session,
            "SELECT x * -1 AS id FROM points ORDER BY id LIMIT 1",
        );
        assert_eq!(result.rows, vec![vec![Value::Double(-0.5)]]);
        // Grouped selects resolve aliases the same way.
        let grouped = exec(
            &mut session,
            "SELECT label, COUNT(*) AS n FROM points GROUP BY label ORDER BY n",
        );
        assert_eq!(grouped.rows[0], vec![Value::Double(-1.0), Value::Int(2)]);
    }

    /// Every name in a statement is resolved before the scan, so what is
    /// wrong with the statement is reported whatever the table holds.
    #[test]
    fn analysis_errors_do_not_depend_on_the_rows() {
        let mut session = SqlSession::with_seed(5);
        exec_script(
            &mut session,
            "CREATE TABLE e_row (id INT, vec DENSE_VEC);
             CREATE TABLE e_col (id INT, vec DENSE_VEC) STORAGE = COLUMNAR;
             CREATE TABLE full (id INT, vec DENSE_VEC);
             INSERT INTO full VALUES (1, ARRAY[1.0]), (7, ARRAY[2.0]), (9, NULL)",
        );
        let unknown_column = || SqlError::Analysis("unknown column 'nope'".into());
        // (select list, WHERE, ORDER BY, the error a non-empty table gives).
        let cases = [
            ("nope", None, None, unknown_column()),
            (
                "NOSUCHFN(id)",
                None,
                None,
                SqlError::Analysis("unknown function NOSUCHFN()".into()),
            ),
            (
                "ABS(id, id)",
                None,
                None,
                SqlError::Analysis("ABS() expects 1 argument(s), got 2".into()),
            ),
            (
                "PREDICT('ghost', vec)",
                None,
                None,
                SqlError::Evaluation(
                    "unknown model 'ghost': PREDICT() needs a registered serving handle \
                     or a persisted model table of that name"
                        .into(),
                ),
            ),
            ("id", Some("nope > 1"), None, unknown_column()),
            ("id", Some("id > 5 AND nope > 1"), None, unknown_column()),
            ("id", None, Some("nope"), unknown_column()),
            ("COUNT(nope)", None, None, unknown_column()),
            (
                "id",
                Some("COUNT(*) > 1"),
                None,
                SqlError::Analysis("aggregate COUNT() is not allowed in this context".into()),
            ),
        ];
        // (table, a predicate that rejects every row of it).
        let sources = [
            ("full", None),
            ("full", Some("id < 0")),
            ("e_row", None),
            ("e_col", None),
        ];
        for (items, filter, order, expected) in &cases {
            for (table, reject) in sources {
                let mut sql = format!("SELECT {items} FROM {table}");
                match (reject, *filter) {
                    (Some(a), Some(b)) => sql += &format!(" WHERE {a} AND {b}"),
                    (Some(a), None) | (None, Some(a)) => sql += &format!(" WHERE {a}"),
                    (None, None) => {}
                }
                if let Some(order) = order {
                    sql += &format!(" ORDER BY {order}");
                }
                assert_eq!(session.execute(&sql).as_ref(), Err(expected), "{sql}");
                let ctas = format!("CREATE TABLE made AS {sql}");
                assert_eq!(session.execute(&ctas).as_ref(), Err(expected), "{ctas}");
                assert!(!session.database().contains("made"), "{ctas}");
            }
        }
    }

    #[test]
    fn tableless_select_evaluates_scalars() {
        let mut session = SqlSession::new();
        let result = exec(&mut session, "SELECT 1 + 2 AS three, 'x'");
        assert_eq!(result.columns, vec!["three", "?column?"]);
        assert_eq!(result.rows[0][0], Value::Int(3));
    }

    #[test]
    fn select_star_without_from_is_rejected() {
        let mut session = SqlSession::new();
        assert!(session.execute("SELECT *").is_err());
    }

    #[test]
    fn wildcard_with_group_by_is_rejected() {
        let mut session = session_with_points();
        let err = session
            .execute("SELECT * FROM points GROUP BY label")
            .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn drop_table_removes_it_from_the_catalog() {
        let mut session = session_with_points();
        exec(&mut session, "DROP TABLE points");
        assert!(session.execute("SELECT * FROM points").is_err());
        assert!(!session.database().contains("points"));
    }

    #[test]
    fn unknown_table_and_column_errors_surface() {
        let mut session = session_with_points();
        assert!(matches!(
            session.execute("SELECT * FROM missing").unwrap_err(),
            SqlError::Storage(_)
        ));
        assert!(session.execute("SELECT nope FROM points").is_err());
    }

    #[test]
    fn script_stops_at_first_error() {
        let mut session = SqlSession::new();
        let err = session
            .execute_script("CREATE TABLE t (x INT); INSERT INTO missing VALUES (1); SELECT 1")
            .unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)));
        // The CREATE before the failure still took effect (no transactions).
        assert!(session.database().contains("t"));
    }

    #[test]
    fn type_mismatch_on_insert_is_a_storage_error() {
        let mut session = SqlSession::new();
        exec(&mut session, "CREATE TABLE typed (x INT)");
        let err = session
            .execute("INSERT INTO typed VALUES ('text')")
            .unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)));
    }

    #[test]
    fn end_to_end_svm_training_via_sql() {
        let mut session = SqlSession::with_seed(3);
        exec(
            &mut session,
            "CREATE TABLE LabeledPapers (id INT, vec DENSE_VEC, label DOUBLE)",
        );
        // 40 linearly separable examples.
        for i in 0..40 {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            exec(
                &mut session,
                &format!(
                    "INSERT INTO LabeledPapers VALUES ({i}, ARRAY[{}, {}], {y})",
                    y * 2.0,
                    -y
                ),
            );
        }
        let summary = exec(
            &mut session,
            "SELECT SVMTrain('myModel', 'LabeledPapers', 'vec', 'label', 0.2, 8)",
        );
        assert_eq!(summary.len(), 1);
        assert!(session.database().contains("myModel"));

        let predictions = exec(
            &mut session,
            "SELECT SVMPredict('myModel', 'LabeledPapers', 'vec')",
        );
        assert_eq!(predictions.len(), 40);

        // The persisted model is an ordinary table we can query.
        let coefs = exec(&mut session, "SELECT COUNT(*) FROM myModel");
        assert_eq!(coefs.single_value(), Some(&Value::Int(2)));
    }

    #[test]
    fn predict_over_a_persisted_model_table_gives_raw_scores() {
        let mut session = SqlSession::with_seed(3);
        exec(
            &mut session,
            "CREATE TABLE d (id INT, vec DENSE_VEC, label DOUBLE)",
        );
        for i in 0..40 {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            exec(
                &mut session,
                &format!(
                    "INSERT INTO d VALUES ({i}, ARRAY[{}, {}], {y})",
                    y * 2.0,
                    -y
                ),
            );
        }
        exec(
            &mut session,
            "SELECT SVMTrain('m', 'd', 'vec', 'label', 0.2, 8)",
        );

        // Join predictions against the training table: a persisted model
        // serves the raw linear score, whose sign matches the label.
        let scored = exec(
            &mut session,
            "SELECT label, PREDICT('m', vec) AS score FROM d",
        );
        assert_eq!(scored.len(), 40);
        for row in &scored.rows {
            let label = row[0].as_double().unwrap();
            let score = row[1].as_double().unwrap();
            assert!(score.is_finite());
            assert!(label * score > 0.0, "label {label} vs score {score}");
        }

        // PREDICT also works in predicates and tableless form.
        let positives = exec(
            &mut session,
            "SELECT COUNT(*) FROM d WHERE PREDICT('m', vec) > 0",
        );
        assert_eq!(positives.single_value(), Some(&Value::Int(20)));
        let one = exec(&mut session, "SELECT PREDICT('m', 2.0, -1.0)");
        assert!(one.rows[0][0].as_double().unwrap() > 0.0);
    }

    #[test]
    fn predict_against_a_registered_handle_applies_the_task_link() {
        let mut session = session_with_points();
        let handle = ModelHandle::new(ServingTask::Logistic, 2);
        handle.publish(&[1.0, 0.0]).unwrap();
        session.register_model_handle("live", handle.clone());

        // The logistic handle serves probabilities in (0, 1).
        let probs = exec(
            &mut session,
            "SELECT PREDICT('live', x, 0.0) AS p FROM points ORDER BY id",
        );
        assert_eq!(probs.len(), 5);
        for row in &probs.rows {
            let p = row[0].as_double().unwrap();
            assert!((0.0..=1.0).contains(&p), "not a probability: {p}");
        }

        // A publish between statements is visible to the next statement.
        handle.publish(&[-1.0, 0.0]).unwrap();
        let flipped = exec(&mut session, "SELECT PREDICT('live', 10.0, 0.0)");
        assert!(flipped.rows[0][0].as_double().unwrap() < 0.5);

        // Unknown model names surface a helpful evaluation error.
        let err = session
            .execute("SELECT PREDICT('nope', 1.0, 2.0)")
            .unwrap_err();
        assert!(err.to_string().contains("unknown model"), "{err}");
    }

    #[test]
    fn analytics_over_a_bad_column_is_an_error_not_a_panic() {
        let mut session = session_with_points();
        // `name` holds TEXT, not feature vectors; `nope` does not exist.
        let err = session
            .execute("SELECT SVMTrain('m', 'points', 'name', 'label')")
            .unwrap_err();
        assert!(matches!(err, SqlError::Analytics(_)), "got: {err}");
        let err = session
            .execute("SELECT SVMTrain('m', 'points', 'nope', 'label')")
            .unwrap_err();
        assert!(matches!(err, SqlError::Analytics(_)), "got: {err}");
        // Nothing was persisted by the failed calls.
        assert!(!session.database().contains("m"));
    }

    #[test]
    fn scalar_function_arity_mismatch_is_an_analysis_error() {
        let mut session = SqlSession::new();
        let err = session.execute("SELECT ABS(1, 2)").unwrap_err();
        assert!(matches!(err, SqlError::Analysis(_)), "got: {err}");
        assert!(err.to_string().contains("argument"));
    }

    #[test]
    fn arithmetic_over_a_non_numeric_cell_is_an_evaluation_error() {
        let mut session = session_with_points();
        let err = session.execute("SELECT name + 1 FROM points").unwrap_err();
        assert!(matches!(err, SqlError::Evaluation(_)), "got: {err}");
        assert!(err.to_string().contains("not numeric"));
    }

    #[test]
    fn analytics_call_must_be_the_only_select_item() {
        let mut session = session_with_points();
        let err = session
            .execute("SELECT SVMTrain('m', 'points', 'x', 'label'), 1")
            .unwrap_err();
        assert!(err.to_string().contains("only item"));
    }

    #[test]
    fn create_table_as_select_materializes_the_papers_shuffle_once() {
        let mut session = session_with_points();
        exec(
            &mut session,
            "CREATE TABLE shuffled AS SELECT * FROM points ORDER BY RANDOM()",
        );
        // Same rows, same schema shape, independent of the source table.
        let n = exec(&mut session, "SELECT COUNT(*) FROM shuffled");
        assert_eq!(n.single_value(), Some(&Value::Int(5)));
        let described = exec(&mut session, "DESCRIBE shuffled");
        assert_eq!(described.len(), 4);
        let ids: Vec<i64> = exec(&mut session, "SELECT id FROM shuffled ORDER BY id")
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);

        // A projection / aggregate result can be materialized too, with
        // integers widened to DOUBLE where the column mixes both.
        exec(
            &mut session,
            "CREATE TABLE class_sizes AS \
                 SELECT label, COUNT(*) AS n, AVG(x) AS mean_x FROM points GROUP BY label",
        );
        let rows = exec(&mut session, "SELECT COUNT(*) FROM class_sizes");
        assert_eq!(rows.single_value(), Some(&Value::Int(2)));

        // Creating over an existing name is rejected.
        assert!(session
            .execute("CREATE TABLE shuffled AS SELECT * FROM points")
            .is_err());
    }

    #[test]
    fn show_tables_lists_names_and_row_counts() {
        let mut session = session_with_points();
        exec(&mut session, "CREATE TABLE empty (x INT)");
        let tables = exec(&mut session, "SHOW TABLES");
        assert_eq!(tables.len(), 2);
        assert_eq!(tables.rows[0][0], Value::Text("empty".into()));
        assert_eq!(tables.rows[0][1], Value::Int(0));
        assert_eq!(tables.rows[1][0], Value::Text("points".into()));
        assert_eq!(tables.rows[1][1], Value::Int(5));
    }

    #[test]
    fn describe_reports_columns_types_and_nullability() {
        let mut session = session_with_points();
        let described = exec(&mut session, "DESCRIBE points");
        assert_eq!(described.columns, vec!["column", "type", "nullable"]);
        assert_eq!(described.rows[0][0], Value::Text("id".into()));
        assert_eq!(described.rows[0][1], Value::Text("INT".into()));
        assert_eq!(described.rows[1][1], Value::Text("DOUBLE".into()));
        assert!(session.execute("DESCRIBE missing").is_err());
    }

    #[test]
    fn shuffle_table_permutes_storage_order_deterministically_with_seed() {
        let mut session = session_with_points();
        let before: Vec<i64> = exec(&mut session, "SELECT id FROM points")
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        exec(&mut session, "SHUFFLE TABLE points SEED 9");
        let after: Vec<i64> = exec(&mut session, "SELECT id FROM points")
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        let mut sorted = after.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
        assert_ne!(before, after, "seeded shuffle should move at least one row");

        // Re-running with the same seed from a fresh copy gives the same order.
        let mut session2 = session_with_points();
        exec(&mut session2, "SHUFFLE TABLE points SEED 9");
        let after2: Vec<i64> = exec(&mut session2, "SELECT id FROM points")
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(after, after2);
    }

    #[test]
    fn cluster_table_sorts_storage_order() {
        let mut session = session_with_points();
        exec(&mut session, "CLUSTER TABLE points BY x DESC");
        let xs: Vec<f64> = exec(&mut session, "SELECT x FROM points")
            .rows
            .iter()
            .map(|r| r[0].as_double().unwrap())
            .collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(xs, sorted);

        // Clustering by a missing column is rejected and leaves the table intact.
        assert!(session.execute("CLUSTER TABLE points BY missing").is_err());
        assert_eq!(
            exec(&mut session, "SELECT COUNT(*) FROM points").single_value(),
            Some(&Value::Int(5))
        );
    }

    #[test]
    fn copy_to_and_from_roundtrips_through_a_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bismarck_sql_copy_test_{}.csv", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();

        let mut session = session_with_points();
        let exported = exec(&mut session, &format!("COPY points TO '{path_str}'"));
        assert_eq!(exported.status, "COPY 5");

        // Append the exported rows into a second table with the same schema.
        exec(
            &mut session,
            "CREATE TABLE points2 (id INT, x DOUBLE, label DOUBLE, name TEXT)",
        );
        let imported = exec(&mut session, &format!("COPY points2 FROM '{path_str}'"));
        assert_eq!(imported.status, "COPY 5");
        let n = exec(&mut session, "SELECT COUNT(*) FROM points2");
        assert_eq!(n.single_value(), Some(&Value::Int(5)));
        let avg_match = exec(&mut session, "SELECT AVG(x) FROM points2")
            .single_value()
            .unwrap()
            .as_double()
            .unwrap();
        assert!((avg_match - 0.5).abs() < 1e-9);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn copy_from_missing_file_is_an_error_and_loads_nothing() {
        let mut session = session_with_points();
        let err = session
            .execute("COPY points FROM '/definitely/not/here.csv'")
            .unwrap_err();
        assert!(matches!(err, SqlError::Evaluation(_)));
        let n = exec(&mut session, "SELECT COUNT(*) FROM points");
        assert_eq!(n.single_value(), Some(&Value::Int(5)));
    }

    #[test]
    fn svm_loss_via_sql_after_training() {
        let mut session = SqlSession::with_seed(13);
        exec(
            &mut session,
            "CREATE TABLE d (id INT, vec DENSE_VEC, label DOUBLE)",
        );
        for i in 0..30 {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            exec(
                &mut session,
                &format!(
                    "INSERT INTO d VALUES ({i}, ARRAY[{}, {}], {y})",
                    y,
                    -y * 0.5
                ),
            );
        }
        exec(
            &mut session,
            "SELECT SVMTrain('m', 'd', 'vec', 'label', 0.2, 10)",
        );
        let loss = exec(&mut session, "SELECT SVMLoss('m', 'd', 'vec', 'label')");
        let value = loss.single_value().unwrap().as_double().unwrap();
        assert!(value.is_finite() && value >= 0.0);
        // A well-separated toy problem should reach a small hinge loss.
        assert!(value < 30.0);
    }

    #[test]
    fn columnar_table_supports_the_full_statement_surface() {
        let mut session = SqlSession::with_seed(7);
        exec(
            &mut session,
            "CREATE TABLE points (id INT, x DOUBLE, label DOUBLE, name TEXT) STORAGE = COLUMNAR",
        );
        exec_script(
            &mut session,
            "INSERT INTO points VALUES
               (1, 0.5, 1.0, 'a'), (2, -0.5, -1.0, 'b'), (3, 1.5, 1.0, 'c')",
        );
        // One catalog: the columnar table is in the database, under its
        // layout; the typed row accessor refuses it rather than hiding it.
        assert!(session.columnar_table("points").is_some());
        assert!(session.database().contains("points"));
        assert!(matches!(
            session.database().table("points"),
            Err(StorageError::Unsupported(_))
        ));

        let all = exec(&mut session, "SELECT * FROM points ORDER BY id");
        assert_eq!(all.len(), 3);
        assert_eq!(all.columns, vec!["id", "x", "label", "name"]);
        let filtered = exec(&mut session, "SELECT id FROM points WHERE label > 0");
        assert_eq!(filtered.len(), 2);
        let agg = exec(&mut session, "SELECT COUNT(*), AVG(x) FROM points");
        assert_eq!(agg.rows[0][0], Value::Int(3));

        let described = exec(&mut session, "DESCRIBE points");
        assert_eq!(described.len(), 4);
        let tables = exec(&mut session, "SHOW TABLES");
        assert_eq!(tables.rows[0][0], Value::Text("points".into()));
        assert_eq!(tables.rows[0][1], Value::Int(3));

        exec(&mut session, "SHUFFLE TABLE points SEED 5");
        exec(&mut session, "CLUSTER TABLE points BY x ASC");
        let xs: Vec<f64> = exec(&mut session, "SELECT x FROM points")
            .rows
            .iter()
            .map(|r| r[0].as_double().unwrap())
            .collect();
        assert_eq!(xs, vec![-0.5, 0.5, 1.5]);

        // The rewrites kept the layout.
        assert!(session.columnar_table("points").is_some());

        exec(&mut session, "DROP TABLE points");
        assert!(session.columnar_table("points").is_none());
        assert!(!session.database().contains("points"));
        assert!(session.execute("SELECT * FROM points").is_err());
    }

    #[test]
    fn registering_over_a_columnar_name_replaces_it() {
        let mut session = SqlSession::new();
        exec_script(
            &mut session,
            "CREATE TABLE t (x INT) STORAGE = COLUMNAR; INSERT INTO t VALUES (1), (2)",
        );
        let schema = Schema::new(vec![Column::nullable("x", DataType::Int)]).unwrap();
        session.register_table(Table::new("t", schema)).unwrap();
        // CREATE OR REPLACE: one table named `t`, the row table just registered.
        assert!(session.columnar_table("t").is_none());
        assert_eq!(session.database().len(), 1);
        let n = exec(&mut session, "SELECT COUNT(*) FROM t");
        assert_eq!(n.single_value(), Some(&Value::Int(0)));
        exec(&mut session, "DROP TABLE t");
        assert!(session.execute("SELECT * FROM t").is_err());
    }

    #[test]
    fn a_model_named_like_its_columnar_training_table_does_not_replace_it() {
        let mut session = SqlSession::with_seed(3);
        exec(
            &mut session,
            "CREATE TABLE c (vec DENSE_VEC, label DOUBLE) STORAGE = COLUMNAR",
        );
        exec(
            &mut session,
            "INSERT INTO c VALUES (ARRAY[2.0, -1.0], 1.0), (ARRAY[-2.0, 1.0], -1.0)",
        );
        let data = exec(&mut session, "SELECT * FROM c");
        let err = session
            .execute("SELECT LRTrain('c', 'c', 'vec', 'label', 0.2, 3)")
            .unwrap_err();
        assert!(err.to_string().contains("not a model table"), "{err}");
        // The data kept the name; nothing shadows it and one DROP removes it.
        assert_eq!(session.database().len(), 1);
        assert_eq!(exec(&mut session, "SELECT * FROM c"), data);
        exec(&mut session, "DROP TABLE c");
        assert!(session.database().is_empty());
    }

    #[test]
    fn columnar_name_collisions_are_rejected_both_ways() {
        let mut session = SqlSession::new();
        exec(&mut session, "CREATE TABLE t (x INT)");
        assert!(session
            .execute("CREATE TABLE t (x INT) STORAGE = COLUMNAR")
            .is_err());
        exec(&mut session, "CREATE TABLE c (x INT) STORAGE = COLUMNAR");
        assert!(session.execute("CREATE TABLE c (x INT)").is_err());
        assert!(session
            .execute("CREATE TABLE c STORAGE = COLUMNAR AS SELECT * FROM t")
            .is_err());
    }

    #[test]
    fn create_columnar_as_select_materializes_query_results() {
        let mut session = session_with_points();
        exec(
            &mut session,
            "CREATE TABLE cpoints STORAGE = COLUMNAR AS SELECT * FROM points",
        );
        let table = session.columnar_table("cpoints").expect("columnar table");
        assert_eq!(table.len(), 5);
        let n = exec(&mut session, "SELECT COUNT(*) FROM cpoints");
        assert_eq!(n.single_value(), Some(&Value::Int(5)));
    }

    #[test]
    fn copy_roundtrips_through_a_columnar_table() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "bismarck_sql_columnar_copy_{}.csv",
            std::process::id()
        ));
        let path_str = path.to_str().unwrap().to_string();

        let mut session = session_with_points();
        exec(
            &mut session,
            "CREATE TABLE cpoints (id INT, x DOUBLE, label DOUBLE, name TEXT) STORAGE = COLUMNAR",
        );
        exec(&mut session, &format!("COPY points TO '{path_str}'"));
        let imported = exec(&mut session, &format!("COPY cpoints FROM '{path_str}'"));
        assert_eq!(imported.status, "COPY 5");

        // Export the columnar table and re-import into a fresh row table:
        // tuple-for-tuple identical content.
        exec(&mut session, &format!("COPY cpoints TO '{path_str}'"));
        exec(
            &mut session,
            "CREATE TABLE back (id INT, x DOUBLE, label DOUBLE, name TEXT)",
        );
        exec(&mut session, &format!("COPY back FROM '{path_str}'"));
        let row = exec(&mut session, "SELECT * FROM back ORDER BY id");
        let col = exec(&mut session, "SELECT * FROM cpoints ORDER BY id");
        assert_eq!(row.rows, col.rows);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn training_over_columnar_matches_row_store_bit_for_bit() {
        let build = |columnar: bool| {
            let mut session = SqlSession::with_seed(3);
            let storage = if columnar { " STORAGE = COLUMNAR" } else { "" };
            exec(
                &mut session,
                &format!("CREATE TABLE d (id INT, vec DENSE_VEC, label DOUBLE){storage}"),
            );
            for i in 0..40 {
                let y = if i % 2 == 0 { 1.0 } else { -1.0 };
                exec(
                    &mut session,
                    &format!(
                        "INSERT INTO d VALUES ({i}, ARRAY[{}, {}], {y})",
                        y * 2.0,
                        -y
                    ),
                );
            }
            exec(
                &mut session,
                "SELECT SVMTrain('m', 'd', 'vec', 'label', 0.2, 8)",
            );
            let weights = exec(&mut session, "SELECT * FROM m ORDER BY idx");
            let loss = exec(&mut session, "SELECT SVMLoss('m', 'd', 'vec', 'label')");
            let preds = exec(&mut session, "SELECT SVMPredict('m', 'd', 'vec')");
            (weights.rows, loss.rows, preds.rows)
        };
        let (row_w, row_l, row_p) = build(false);
        let (col_w, col_l, col_p) = build(true);
        assert_eq!(row_w, col_w, "model weights must be bit-identical");
        assert_eq!(row_l, col_l);
        assert_eq!(row_p, col_p);
    }

    #[test]
    fn sequence_and_factorization_analytics_match_across_layouts_bit_for_bit() {
        use bismarck_linalg::SparseVector;
        let run = |storage: &str| {
            let mut session = SqlSession::with_seed(5);
            let schema = Schema::new(vec![Column::new("s", DataType::Sequence)]).unwrap();
            let mut seqs = Table::new("seqs", schema);
            for i in 0..12usize {
                let sequence = (0..5)
                    .map(|p| {
                        let label = (i + p) % 2;
                        let features = vec![(label, 1.0), (2 + (i + p) % 3, 0.5)];
                        (SparseVector::from_pairs(features), label as u32)
                    })
                    .collect();
                seqs.insert(vec![Value::Sequence(sequence)]).unwrap();
            }
            session.register_table(seqs).unwrap();
            let ratings: Vec<String> = (0..30)
                .map(|i| {
                    format!(
                        "({}, {}, {})",
                        i / 5,
                        i % 5,
                        (i / 5) as f64 * 0.5 + i as f64
                    )
                })
                .collect();
            exec_script(
                &mut session,
                &format!(
                    "CREATE TABLE ratings (r INT, c INT, v DOUBLE);
                     INSERT INTO ratings VALUES {};
                     CREATE TABLE s2 STORAGE = {storage} AS SELECT * FROM seqs;
                     CREATE TABLE r2 STORAGE = {storage} AS SELECT * FROM ratings;
                     SELECT CRFTrain('crf', 's2', 's', 0.3, 4);
                     SELECT LMFTrain('lmf', 'r2', 'r', 'c', 'v', 6, 5, 2, 0.001, 4)",
                    ratings.join(", ")
                ),
            );
            assert_eq!(
                session.columnar_table("s2").is_some(),
                storage == "COLUMNAR"
            );
            let crf = exec(&mut session, "SELECT * FROM crf ORDER BY idx").rows;
            let lmf = exec(&mut session, "SELECT * FROM lmf ORDER BY idx").rows;
            let labels = exec(&mut session, "SELECT CRFPredict('crf', 's2', 's')").rows;
            assert!(crf.len() > 1 && lmf.len() > 1 && labels.len() == 12);
            (crf, lmf, labels)
        };
        assert_eq!(run("ROW"), run("COLUMNAR"));
    }

    #[test]
    fn random_scalar_function_varies_per_row() {
        let mut session = session_with_points();
        let result = exec(&mut session, "SELECT RANDOM() AS r FROM points");
        let values: Vec<f64> = result
            .rows
            .iter()
            .map(|r| r[0].as_double().unwrap())
            .collect();
        assert_eq!(values.len(), 5);
        let distinct = values
            .iter()
            .map(|v| format!("{v:.12}"))
            .collect::<std::collections::HashSet<_>>();
        assert!(
            distinct.len() > 1,
            "RANDOM() should not repeat the same value every row"
        );
    }
}
