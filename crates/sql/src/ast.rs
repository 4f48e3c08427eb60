//! Abstract syntax tree for the supported SQL dialect.
//!
//! The dialect covers what the paper's user-facing examples exercise
//! (Section 2.1): creating and populating training tables, training and
//! applying models via function calls (`SELECT SVMTrain(...)`), and the
//! ordinary relational queries an analyst would run around them (projections,
//! filters, aggregates, `ORDER BY RANDOM()` reshuffles, `LIMIT` samples).

use bismarck_storage::{DataType, Value};

/// One parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE, ...) [STORAGE = ROW | COLUMNAR]`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions in declaration order.
        columns: Vec<ColumnDef>,
        /// Physical layout for the new table.
        storage: TableStorage,
    },
    /// `CREATE TABLE name [STORAGE = ROW | COLUMNAR] AS SELECT ...` —
    /// materialize a query result as a new table. This is how the paper
    /// realizes shuffle-once inside PostgreSQL:
    /// `CREATE TABLE shuffled AS SELECT * FROM data ORDER BY RANDOM()`.
    CreateTableAs {
        /// New table name.
        name: String,
        /// The query whose result becomes the table.
        query: SelectStatement,
        /// Physical layout for the new table.
        storage: TableStorage,
    },
    /// `SHOW TABLES` — list the catalog's tables and their row counts.
    ShowTables,
    /// `DESCRIBE name` — list a table's columns and types.
    Describe {
        /// Table name.
        name: String,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO name [(col, ...)] VALUES (expr, ...), (expr, ...), ...`
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list; `None` means schema order.
        columns: Option<Vec<String>>,
        /// One entry per `(...)` row. A position whose text was a constant
        /// arrives as an `Expr::Literal` already holding its storage value
        /// (vectors included), which the executor moves into the row.
        rows: Vec<Vec<Expr>>,
    },
    /// `SELECT ... [FROM ...] [WHERE ...] [GROUP BY ...] [ORDER BY ...] [LIMIT n]`
    Select(SelectStatement),
    /// `COPY name FROM 'path'` (append rows parsed from a delimited text
    /// file) or `COPY name TO 'path'` (export the table).
    Copy {
        /// Table name.
        table: String,
        /// Transfer direction.
        direction: CopyDirection,
        /// Filesystem path of the delimited text file.
        path: String,
    },
    /// `SHUFFLE TABLE name [SEED n]` — physically rewrite the table in a
    /// random order (the paper's shuffle-once materialized as DDL).
    Shuffle {
        /// Table name.
        table: String,
        /// Optional explicit seed; the session RNG is used otherwise.
        seed: Option<u64>,
    },
    /// `CLUSTER TABLE name BY column [ASC|DESC]` — physically rewrite the
    /// table sorted by a column, reproducing the "clustered for reasons
    /// unrelated to the analysis" layouts of Section 3.2.
    Cluster {
        /// Table name.
        table: String,
        /// Column to cluster by.
        column: String,
        /// Sort direction.
        ascending: bool,
    },
}

/// Physical layout requested by a `CREATE TABLE` statement's optional
/// `STORAGE = ...` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableStorage {
    /// Row-store (the default): tuples stored contiguously.
    #[default]
    Row,
    /// Columnar chunked storage: per-column chunks with validity bitmaps,
    /// scanned through the same `TupleScan` surface as the row-store.
    Columnar,
}

/// Direction of a `COPY` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDirection {
    /// `COPY ... FROM 'path'`: append rows read from the file.
    FromFile,
    /// `COPY ... TO 'path'`: write the table out to the file.
    ToFile,
}

/// A column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
}

/// The body of a `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// Projected items.
    pub items: Vec<SelectItem>,
    /// Source table; `None` for table-less selects such as
    /// `SELECT SVMTrain(...)` or `SELECT 1 + 1`.
    pub from: Option<String>,
    /// Optional filter predicate.
    pub filter: Option<Expr>,
    /// Optional grouping columns.
    pub group_by: Vec<Expr>,
    /// Optional ordering keys.
    pub order_by: Vec<OrderKey>,
    /// Optional row-count cap.
    pub limit: Option<usize>,
}

/// One projected item of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — all columns of the source table.
    Wildcard,
    /// An expression with an optional `AS alias`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Output column name override.
        alias: Option<String>,
    },
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The sort expression; `RANDOM()` requests a shuffle.
    pub expr: Expr,
    /// Sort direction (ignored for `RANDOM()`).
    pub ascending: bool,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant, as the storage value it denotes: a scalar literal
    /// anywhere (`TRUE` / `FALSE` are `Int(1)` / `Int(0)`, the encoding
    /// predicates use), and in a `VALUES` position also a constant
    /// `ARRAY[...]` or `{index: value, ...}`.
    Literal(Value),
    /// A reference to a column of the source table.
    Column(String),
    /// `*` as a function argument (only meaningful inside `COUNT(*)`).
    Wildcard,
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// A function call: scalar (`ABS(x)`), aggregate (`AVG(x)`), or an
    /// analytics front-end (`SVMTrain('m', 't', 'vec', 'label')`).
    Function {
        /// Function name as written (resolution is case-insensitive).
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `ARRAY[e1, e2, ...]` — a dense feature-vector literal.
    ArrayLiteral(Vec<Expr>),
    /// `{index: value, ...}` — a sparse feature-vector literal.
    SparseLiteral(Vec<(Expr, Expr)>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Boolean NOT.
    Not,
}

/// Binary operators in increasing precedence groups: OR < AND < comparison <
/// additive < multiplicative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl Expr {
    /// True if this expression contains an aggregate function call
    /// (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`) anywhere in its tree.
    pub(crate) fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, args } => {
                is_aggregate_function(name) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::ArrayLiteral(items) => items.iter().any(Expr::contains_aggregate),
            Expr::SparseLiteral(pairs) => pairs
                .iter()
                .any(|(i, v)| i.contains_aggregate() || v.contains_aggregate()),
            _ => false,
        }
    }

    /// A printable name for an unaliased projection of this expression.
    pub(crate) fn default_name(&self) -> String {
        match self {
            Expr::Column(name) => name.clone(),
            Expr::Function { name, .. } => name.clone(),
            Expr::Literal(_) => "?column?".to_string(),
            _ => "?column?".to_string(),
        }
    }
}

/// One of the built-in SQL aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggregateFn {
    /// `COUNT(expr)` / `COUNT(*)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggregateFn {
    const ALL: [AggregateFn; 5] = [
        AggregateFn::Count,
        AggregateFn::Sum,
        AggregateFn::Avg,
        AggregateFn::Min,
        AggregateFn::Max,
    ];

    /// The aggregate a function name refers to (case-insensitively), if any.
    pub(crate) fn from_name(name: &str) -> Option<AggregateFn> {
        AggregateFn::ALL
            .into_iter()
            .find(|func| name.eq_ignore_ascii_case(func.name()))
    }

    /// The aggregate's upper-case name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AggregateFn::Count => "COUNT",
            AggregateFn::Sum => "SUM",
            AggregateFn::Avg => "AVG",
            AggregateFn::Min => "MIN",
            AggregateFn::Max => "MAX",
        }
    }
}

/// Whether a function name refers to one of the built-in SQL aggregates.
pub(crate) fn is_aggregate_function(name: &str) -> bool {
    AggregateFn::from_name(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection_descends_into_subexpressions() {
        let agg = Expr::Binary {
            left: Box::new(Expr::Function {
                name: "avg".into(),
                args: vec![Expr::Column("x".into())],
            }),
            op: BinaryOp::Add,
            right: Box::new(Expr::Literal(Value::Int(1))),
        };
        assert!(agg.contains_aggregate());

        let scalar = Expr::Function {
            name: "ABS".into(),
            args: vec![Expr::Column("x".into())],
        };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn aggregate_names_are_case_insensitive() {
        assert!(is_aggregate_function("count"));
        assert!(is_aggregate_function("Sum"));
        assert!(!is_aggregate_function("SVMTrain"));
    }

    #[test]
    fn default_names_prefer_column_and_function_names() {
        assert_eq!(Expr::Column("label".into()).default_name(), "label");
        assert_eq!(
            Expr::Function {
                name: "SVMTrain".into(),
                args: vec![]
            }
            .default_name(),
            "SVMTrain"
        );
        assert_eq!(Expr::Literal(Value::Int(3)).default_name(), "?column?");
    }
}
