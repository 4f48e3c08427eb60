//! Property-based tests for the SQL front-end: the lexer and parser are
//! total (no panics), evaluation agrees with a Rust reference computation on
//! arbitrary arithmetic, the data-movement statements preserve the
//! multiset of stored rows, and a `SELECT` answers the same — value bits,
//! row order, errors — whatever layout its table is stored in.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bismarck_core::serving::{ModelHandle, ServingTask};
use bismarck_linalg::SparseVector;
use bismarck_sql::{parse_statement, QueryResult, SqlError, SqlSession};
use bismarck_storage::{Column, ColumnarTable, DataType, Schema, Table, Value};
use proptest::prelude::*;

/// A small arithmetic expression AST used as the generation source; it is
/// rendered to SQL and also evaluated directly in Rust.
#[derive(Debug, Clone)]
enum Arith {
    Lit(i32),
    Add(Box<Arith>, Box<Arith>),
    Sub(Box<Arith>, Box<Arith>),
    Mul(Box<Arith>, Box<Arith>),
}

impl Arith {
    fn to_sql(&self) -> String {
        match self {
            // Negative literals are parenthesized so `1 - -2` stays parseable.
            Arith::Lit(v) if *v < 0 => format!("({v})"),
            Arith::Lit(v) => v.to_string(),
            Arith::Add(a, b) => format!("({} + {})", a.to_sql(), b.to_sql()),
            Arith::Sub(a, b) => format!("({} - {})", a.to_sql(), b.to_sql()),
            Arith::Mul(a, b) => format!("({} * {})", a.to_sql(), b.to_sql()),
        }
    }

    fn eval(&self) -> i64 {
        match self {
            Arith::Lit(v) => *v as i64,
            Arith::Add(a, b) => a.eval() + b.eval(),
            Arith::Sub(a, b) => a.eval() - b.eval(),
            Arith::Mul(a, b) => a.eval() * b.eval(),
        }
    }
}

fn arith_strategy() -> impl Strategy<Value = Arith> {
    let leaf = (-50i32..50).prop_map(Arith::Lit);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Arith::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Arith::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Arith::Mul(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    /// The lexer + parser never panic, whatever bytes they are fed.
    #[test]
    fn parser_is_total_on_arbitrary_input(input in ".{0,120}") {
        let _ = parse_statement(&input);
    }

    /// Statements assembled from plausible SQL-ish fragments also never panic.
    #[test]
    fn parser_is_total_on_sqlish_input(
        head in prop::sample::select(vec![
            "SELECT", "SELECT *", "INSERT INTO t VALUES", "CREATE TABLE t", "COPY t FROM",
            "SHUFFLE TABLE", "CLUSTER TABLE t BY",
        ]),
        tail in "[ a-zA-Z0-9_'(),*;=<>.+-]{0,60}",
    ) {
        let _ = parse_statement(&format!("{head} {tail}"));
    }

    /// SELECT of a generated arithmetic expression equals the reference value.
    #[test]
    fn integer_arithmetic_matches_reference(expr in arith_strategy()) {
        let mut session = SqlSession::new();
        let result = session.execute(&format!("SELECT {}", expr.to_sql())).unwrap();
        prop_assert_eq!(result.single_value(), Some(&Value::Int(expr.eval())));
    }

    /// COUNT(*) equals the number of inserted rows and SUM equals the Rust sum.
    #[test]
    fn count_and_sum_match_inserted_rows(values in prop::collection::vec(-1000i64..1000, 1..40)) {
        let mut session = SqlSession::new();
        session.execute("CREATE TABLE t (x INT)").unwrap();
        for v in &values {
            session.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let count = session.execute("SELECT COUNT(*) FROM t").unwrap();
        prop_assert_eq!(count.single_value(), Some(&Value::Int(values.len() as i64)));
        let sum = session.execute("SELECT SUM(x) FROM t").unwrap();
        let expected: f64 = values.iter().map(|&v| v as f64).sum();
        let got = sum.single_value().unwrap().as_double().unwrap();
        prop_assert!((got - expected).abs() < 1e-9);
    }

    /// ORDER BY RANDOM() and SHUFFLE TABLE both return a permutation of the
    /// stored rows, never dropping or duplicating values.
    #[test]
    fn shuffles_preserve_the_multiset_of_rows(
        values in prop::collection::vec(0i64..500, 1..60),
        seed in 0u64..1_000,
    ) {
        let mut session = SqlSession::with_seed(seed);
        session.execute("CREATE TABLE t (x INT)").unwrap();
        for v in &values {
            session.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let mut expected: Vec<i64> = values.clone();
        expected.sort_unstable();

        let mut via_order_by: Vec<i64> = session
            .execute("SELECT x FROM t ORDER BY RANDOM()")
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        via_order_by.sort_unstable();
        prop_assert_eq!(&via_order_by, &expected);

        session.execute(&format!("SHUFFLE TABLE t SEED {seed}")).unwrap();
        let mut after_shuffle: Vec<i64> = session
            .execute("SELECT x FROM t")
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        after_shuffle.sort_unstable();
        prop_assert_eq!(&after_shuffle, &expected);
    }

    /// CLUSTER TABLE ... BY sorts the stored rows and keeps the multiset.
    #[test]
    fn cluster_sorts_and_preserves_rows(values in prop::collection::vec(-100i64..100, 1..50)) {
        let mut session = SqlSession::new();
        session.execute("CREATE TABLE t (x INT)").unwrap();
        for v in &values {
            session.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        session.execute("CLUSTER TABLE t BY x").unwrap();
        let stored: Vec<i64> = session
            .execute("SELECT x FROM t")
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(stored, expected);
    }

    /// WHERE filters exactly the rows whose predicate holds.
    #[test]
    fn where_clause_matches_rust_filter(
        values in prop::collection::vec(-100i64..100, 0..50),
        threshold in -100i64..100,
    ) {
        let mut session = SqlSession::new();
        session.execute("CREATE TABLE t (x INT)").unwrap();
        for v in &values {
            session.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let result = session
            .execute(&format!("SELECT COUNT(*) FROM t WHERE x > ({threshold})"))
            .unwrap();
        let expected = values.iter().filter(|&&v| v > threshold).count() as i64;
        prop_assert_eq!(result.single_value(), Some(&Value::Int(expected)));
    }
}

// ---------------------------------------------------------------------------
// SELECT is layout-invariant.
// ---------------------------------------------------------------------------

/// Rows per columnar segment of [`Layouts`]: small, so a table of a few dozen
/// rows spans several blocks.
const SEGMENT_ROWS: usize = 7;

/// One set of rows stored three ways in one session — `r` (ROW), `c`
/// (`STORAGE = COLUMNAR`, several segments) and `p` (paged, with a cache of
/// one segment) — and a live model `m` over two features.
struct Layouts {
    session: SqlSession,
    dir: PathBuf,
}

impl Layouts {
    /// Columns `(id INT, x DOUBLE, name TEXT, vec DENSE_VEC, sv SPARSE_VEC)`,
    /// all nullable; the paged table caches one segment.
    fn new(rows: &[Vec<Value>]) -> Layouts {
        Layouts::with_cache(rows, 1)
    }

    fn with_cache(rows: &[Vec<Value>], cache_segments: usize) -> Layouts {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bismarck-sql-layouts-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::new(vec![
            Column::nullable("id", DataType::Int),
            Column::nullable("x", DataType::Double),
            Column::nullable("name", DataType::Text),
            Column::nullable("vec", DataType::DenseVec),
            Column::nullable("sv", DataType::SparseVec),
        ])
        .unwrap();
        let mut row = Table::new("r", schema.clone());
        let mut columnar = ColumnarTable::with_chunk_capacity("c", schema.clone(), SEGMENT_ROWS);
        let mut paged =
            ColumnarTable::create_paged("p", schema, &dir, SEGMENT_ROWS, cache_segments).unwrap();
        for values in rows {
            row.insert(values.clone()).unwrap();
            columnar.insert(values.clone()).unwrap();
            paged.insert(values.clone()).unwrap();
        }
        paged.flush().unwrap();
        let mut session = SqlSession::with_seed(1);
        session.register_table(row).unwrap();
        session.register_columnar_table(columnar).unwrap();
        // Reopened, so every sealed segment is read back through the pager.
        session
            .register_columnar_table(ColumnarTable::open_paged(&dir, cache_segments).unwrap())
            .unwrap();
        let model = ModelHandle::new(ServingTask::LeastSquares, 2);
        model.publish(&[0.5, -2.0]).unwrap();
        session.register_model_handle("m", model);
        Layouts { session, dir }
    }

    /// Run `sql` with `{t}` replaced by each table in turn; the three
    /// results, errors included, must be the same to the bit.
    fn select(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        let mut run = |table: &str| self.session.execute(&sql.replace("{t}", table));
        let row = run("r");
        // `{:?}` of an `f64` round-trips, and tells -0.0 from 0.0 and NaN
        // from NaN, which `==` does not.
        for other in ["c", "p"] {
            assert_eq!(
                format!("{:?}", run(other)),
                format!("{row:?}"),
                "`{sql}` over `{other}` differs from the row store"
            );
        }
        row
    }
}

impl Drop for Layouts {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `strategy`'s value, or `None` one time in five.
fn nullable<S: Strategy>(strategy: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u8..5, strategy).prop_map(|(k, v)| (k > 0).then_some(v))
}

/// One row of [`Layouts`]: small domains, so values tie and groups collide;
/// NULLs in every column; `x` sometimes an `INT` in its `DOUBLE` column.
fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    // (The tuple strategies stop at four elements.)
    let scalars = (
        nullable(-3i64..4),
        (0u8..6, -3i64..4),
        nullable(prop::sample::select(vec!["a", "b", "c"])),
    );
    let vectors = (
        nullable((-3i64..4, -3i64..4)),
        nullable(prop::collection::vec((0usize..4, -3i64..4), 0..4)),
    );
    (scalars, vectors).prop_map(|((id, (x_kind, x), name), (vec, sv))| {
        vec![
            id.map_or(Value::Null, Value::Int),
            match x_kind {
                0 => Value::Null,
                1 => Value::Int(x),
                _ => Value::Double(x as f64 * 0.5),
            },
            name.map_or(Value::Null, Value::from),
            vec.map_or(Value::Null, |(a, b)| {
                Value::DenseVec(vec![a as f64 * 0.5, b as f64 * 0.25])
            }),
            sv.map_or(Value::Null, |pairs| {
                let pairs = pairs.into_iter().map(|(i, v)| (i, v as f64 * 0.5));
                Value::SparseVec(SparseVector::from_pairs(pairs.collect()))
            }),
        ]
    })
}

/// A `SELECT` over `{t}` from a small grammar: a plain projection or a
/// grouped one, with optional `WHERE`, `ORDER BY` and `LIMIT`.
fn select_strategy() -> impl Strategy<Value = String> {
    let scalar = prop::sample::select(vec![
        "*",
        "id",
        "x",
        "name",
        "vec",
        "sv",
        "id + 1",
        "x * 2",
        "x / 2",
        "id - x AS diff",
        "-x",
        "ABS(x)",
        "name IS NULL",
        "DIM(vec)",
        "DIM(sv)",
        "NNZ(sv)",
        "DOT(vec, vec)",
        "DOT(sv, vec)",
        "DOT(vec, sv)",
        "PREDICT('m', vec)",
        "PREDICT('m', sv) AS score",
        "PREDICT('m', x, id)",
    ]);
    let filter = || {
        prop::sample::select(vec![
            "",
            "",
            " WHERE id > 0",
            " WHERE x <= 1",
            " WHERE name IS NULL",
            " WHERE name IS NOT NULL AND id < 2",
            " WHERE id < 0 OR name = 'a'",
            " WHERE vec IS NOT NULL",
            " WHERE vec IS NOT NULL AND PREDICT('m', vec) > 0",
            " WHERE NOT (x > 0)",
        ])
    };
    let order = prop::sample::select(vec![
        "",
        "",
        " ORDER BY id",
        " ORDER BY x DESC",
        " ORDER BY name, id DESC",
    ]);
    let limit = || prop::sample::select(vec!["", "", " LIMIT 0", " LIMIT 1", " LIMIT 5"]);
    let plain = (
        prop::collection::vec(scalar, 1..4),
        filter(),
        order,
        limit(),
    )
        .prop_map(|(items, filter, order, limit)| {
            format!(
                "SELECT {} FROM {{t}}{filter}{order}{limit}",
                items.join(", ")
            )
        });

    let key = prop::sample::select(vec!["id", "x", "name", "id + 1"]);
    let aggregate = prop::sample::select(vec![
        "COUNT(*)",
        "COUNT(x)",
        "COUNT(name)",
        "SUM(x)",
        "SUM(id)",
        "AVG(x)",
        "AVG(id * 0.5)",
        "MIN(x)",
        "MAX(x)",
        "MIN(name)",
        "MAX(id)",
        "MAX(x) - MIN(x)",
        "MAX(PREDICT('m', x, id))",
        "SUM(name)",
        "name",
    ]);
    let group_order = prop::sample::select(vec!["", "key", "key DESC", "COUNT(*), key"]);
    let grouped = (
        nullable(key),
        prop::collection::vec(aggregate, 1..4),
        filter(),
        (group_order, limit()),
    )
        .prop_map(|(key, aggregates, filter, (order, limit))| {
            let aggregates = aggregates.join(", ");
            match key {
                Some(key) => {
                    let order = match order {
                        "" => String::new(),
                        order => format!(" ORDER BY {}", order.replace("key", key)),
                    };
                    format!(
                        "SELECT {key}, {aggregates} FROM {{t}}{filter} GROUP BY {key}{order}{limit}"
                    )
                }
                None => format!("SELECT {aggregates} FROM {{t}}{filter}{limit}"),
            }
        });
    prop_oneof![plain, grouped]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever a `SELECT` returns over the ROW table — columns, status,
    /// every value's bits, or an error — it returns over the columnar copy
    /// (cells read in place, block by block) and the paged copy (a cache
    /// smaller than the table).
    #[test]
    fn select_is_layout_invariant(
        rows in prop::collection::vec(row_strategy(), 0..40),
        statements in prop::collection::vec(select_strategy(), 1..8),
    ) {
        let mut layouts = Layouts::new(&rows);
        for sql in &statements {
            // `Layouts::select` asserts; its answer is not needed here.
            let _ = layouts.select(sql);
        }
    }
}

/// The aggregates' edge semantics, against literal values (the property above
/// only compares the layouts with each other).
#[test]
fn aggregates_fold_to_the_documented_values_over_every_layout() {
    let row = |id: i64, x: Value, name: Option<&str>| {
        vec![
            Value::Int(id),
            x,
            name.map_or(Value::Null, Value::from),
            Value::Null,
            Value::Null,
        ]
    };
    // More rows than one segment holds, so groups span block boundaries.
    let mut rows = vec![
        row(1, Value::Int(2), Some("first")),
        row(2, Value::Null, Some("only nulls")),
        row(1, Value::Double(2.0), Some("second")),
        row(3, Value::Int(1), None),
        row(1, Value::Double(5.0), None),
        row(2, Value::Null, None),
        row(1, Value::Int(5), Some("last")),
        row(3, Value::Double(2.5), Some("z")),
    ];
    rows.extend((0..SEGMENT_ROWS as i64).map(|i| row(4, Value::Double(i as f64), Some("pad"))));
    let mut layouts = Layouts::new(&rows);
    let null = Value::Null;

    // Ties: INT 2 = DOUBLE 2.0 and DOUBLE 5.0 = INT 5 under the comparison;
    // MIN keeps the first of equal minima and MAX the last of equal maxima
    // (`Iterator::min_by` / `max_by`). Groups come in first-appearance
    // order, and a bare column is its group's first row's.
    let grouped = layouts
        .select(
            "SELECT id, name, COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) \
             FROM {t} WHERE id < 4 GROUP BY id",
        )
        .unwrap();
    let text = |s: &str| Value::Text(s.into());
    assert_eq!(
        grouped.rows,
        vec![
            vec![
                Value::Int(1),
                text("first"),
                Value::Int(4),
                Value::Int(4),
                Value::Double(14.0),
                Value::Double(3.5),
                Value::Int(2),
                Value::Int(5),
            ],
            // A group whose every `x` is NULL: counted, but nothing to sum.
            vec![
                Value::Int(2),
                text("only nulls"),
                Value::Int(2),
                Value::Int(0),
                null.clone(),
                null.clone(),
                null.clone(),
                null.clone(),
            ],
            // AVG over an INT and a DOUBLE.
            vec![
                Value::Int(3),
                null.clone(),
                Value::Int(2),
                Value::Int(2),
                Value::Double(3.5),
                Value::Double(1.75),
                Value::Int(1),
                Value::Double(2.5),
            ],
        ]
    );

    // No row at all: one all-rows group without GROUP BY, none with it.
    let empty = layouts
        .select(
            "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(name) FROM {t} WHERE id > 9",
        )
        .unwrap();
    assert_eq!(
        empty.rows,
        vec![vec![
            Value::Int(0),
            Value::Int(0),
            null.clone(),
            null.clone(),
            null.clone(),
            null.clone(),
        ]]
    );
    let no_groups = layouts
        .select("SELECT id, COUNT(*) FROM {t} WHERE id > 9 GROUP BY id")
        .unwrap();
    assert_eq!(no_groups.columns, vec!["id", "COUNT"]);
    assert!(no_groups.rows.is_empty());
    // ...and nothing for a non-aggregate item to take its value from.
    assert_eq!(
        layouts.select("SELECT id, COUNT(*) FROM {t} WHERE id > 9"),
        Err(SqlError::Evaluation("aggregate over an empty group".into()))
    );
    // SUM starts from what `Iterator::sum` starts from.
    let zeros = layouts
        .select("SELECT SUM(x * 0 - 0.0), SUM(id - id) FROM {t} WHERE id = 3")
        .unwrap();
    let expected: f64 = [0.0f64 - 0.0, 0.0 - 0.0].iter().sum();
    assert_eq!(
        format!("{:?}", zeros.rows[0][0]),
        format!("{:?}", Value::Double(expected))
    );
    assert_eq!(zeros.rows[0][1], Value::Double(0.0));
    // A value-dependent error is still per row.
    assert_eq!(
        layouts.select("SELECT SUM(name) FROM {t}"),
        Err(SqlError::Evaluation(
            "SUM() argument must be numeric".into()
        ))
    );
}

/// `LIMIT n` without `ORDER BY` ends the scan after `n` kept rows: over a
/// paged table, the segments past those rows are never loaded.
#[test]
fn limit_without_order_by_stops_reading_the_table() {
    let segments = 16;
    let rows: Vec<Vec<Value>> = (0..(segments * SEGMENT_ROWS) as i64)
        .map(|id| {
            let mut row = vec![Value::Null; 5];
            row[0] = Value::Int(id);
            row
        })
        .collect();
    // Two cached segments: room for a read-ahead, were there one.
    let cache = 2;
    let mut layouts = Layouts::with_cache(&rows, cache);
    let stats = |layouts: &Layouts| {
        layouts
            .session
            .columnar_table("p")
            .and_then(ColumnarTable::pager_stats)
            .expect("p is paged")
    };
    // Segment files read so far: one per miss.
    let loads = |layouts: &Layouts| stats(layouts).misses;
    assert_eq!(loads(&layouts), 0);

    let first = layouts.session.execute("SELECT id FROM p LIMIT 1").unwrap();
    assert_eq!(first.rows, vec![vec![Value::Int(0)]]);
    assert_eq!(loads(&layouts), 1, "one segment holds the first row");
    let segment_file = std::fs::metadata(layouts.dir.join("seg-000000.col")).unwrap();
    assert_eq!(
        stats(&layouts).bytes_read,
        segment_file.len(),
        "nothing past that segment is read"
    );

    let before = loads(&layouts);
    let none = layouts.session.execute("SELECT id FROM p LIMIT 0").unwrap();
    assert_eq!(none.columns, vec!["id"]);
    assert!(none.rows.is_empty());
    assert_eq!(loads(&layouts), before, "LIMIT 0 reads nothing");

    // A filter keeps the scan going until enough rows pass it.
    let later = layouts
        .select(&format!(
            "SELECT id FROM {{t}} WHERE id >= {} LIMIT 2",
            3 * SEGMENT_ROWS
        ))
        .unwrap();
    assert_eq!(later.len(), 2);

    let before = loads(&layouts);
    let all = layouts.session.execute("SELECT id FROM p").unwrap();
    assert_eq!(all.len(), rows.len());
    assert!(
        loads(&layouts) - before >= (segments - cache) as u64,
        "a full scan loads every segment it does not find cached"
    );

    // With an ORDER BY the limit cannot end the scan: the true maximum.
    let top = layouts
        .select("SELECT id FROM {t} ORDER BY id DESC LIMIT 1")
        .unwrap();
    assert_eq!(top.rows, vec![vec![Value::Int(rows.len() as i64 - 1)]]);
}
