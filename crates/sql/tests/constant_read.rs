//! The constant read of a `VALUES` position is an optimisation, not a second
//! grammar: whatever mix of constants and computed expressions an `INSERT`
//! carries, the table must hold — bit for bit — the rows the text denotes,
//! and a statement that cannot be executed must fail the way it always did.
//!
//! Everything here goes through the public surface (`SqlSession`,
//! `tokenize`), so the file also runs unchanged against a commit that has no
//! constant read: its expectations describe the dialect, not the mechanism.

use bismarck_linalg::SparseVector;
use bismarck_sql::token::tokenize;
use bismarck_sql::{SqlError, SqlSession};
use bismarck_storage::Value;
use proptest::prelude::*;

/// One `VALUES` position: its text and the value the row must hold.
type Position = (String, Value);

fn fixed(options: &[(&str, Value)]) -> impl Strategy<Value = Position> {
    prop::sample::select(
        options
            .iter()
            .map(|(sql, value)| (sql.to_string(), value.clone()))
            .collect::<Vec<_>>(),
    )
}

/// `[-]magnitude` as the lexer sees it: a non-negative literal and an
/// optional minus sign, denoting the negation of the parsed magnitude.
fn signed(magnitude: impl Strategy<Value = Position>) -> impl Strategy<Value = Position> {
    (magnitude, prop::sample::select(vec!["", "-", "- "])).prop_map(|((text, magnitude), sign)| {
        let value = match (sign, magnitude) {
            ("", magnitude) => magnitude,
            (_, Value::Int(v)) => Value::Int(-v),
            (_, Value::Double(v)) => Value::Double(-v),
            _ => unreachable!("magnitudes are numbers"),
        };
        (format!("{sign}{text}"), value)
    })
}

fn signed_int() -> impl Strategy<Value = Position> {
    signed(
        prop_oneof![
            prop::sample::select(vec![0, 1, 42, i64::MAX]),
            0i64..1_000_000,
        ]
        .prop_map(|v| (v.to_string(), Value::Int(v))),
    )
}

/// Floats printed with `{:?}`, as the benchmark's generator prints them
/// (shortest round-trip digits, exponent form below 1e-5 and from 1e16), and
/// a few exponent spellings `{:?}` never produces.
fn signed_float() -> impl Strategy<Value = Position> {
    let printed = prop_oneof![
        prop::sample::select(vec![
            0.0,
            1.0,
            0.1,
            5e-324,
            2.2250738585072014e-308,
            1e-7,
            1e16,
            1e308,
            f64::MAX,
            123456789.01234567,
        ]),
        0.0..1e6f64,
        0.0..1e-300f64,
    ]
    .prop_map(|v| (format!("{v:?}"), Value::Double(v)));
    let spelled = prop::sample::select(vec!["7.25e2", "1E5", "1e+3", "2e-3", "0e0"])
        .prop_map(|text| (text.to_string(), Value::Double(text.parse().unwrap())));
    signed(prop_oneof![printed, spelled])
}

/// Integer-valued positions, constants and computed neighbours alike.
fn int_position() -> impl Strategy<Value = Position> {
    prop_oneof![
        signed_int(),
        fixed(&[
            ("1+2", Value::Int(3)),
            ("ABS(-3)", Value::Int(3)),
            ("(4)", Value::Int(4)),
            ("- - 5", Value::Int(5)),
            ("2 * -3", Value::Int(-6)),
            ("TRUE", Value::Int(1)),
            ("false", Value::Int(0)),
            ("NULL", Value::Null),
            ("null", Value::Null),
        ]),
    ]
}

/// Positions for a `DOUBLE` column (which also stores integers as written).
fn double_position() -> impl Strategy<Value = Position> {
    prop_oneof![
        signed_float(),
        signed_int(),
        fixed(&[
            ("1.5 + 1", Value::Double(2.5)),
            ("7 / 2", Value::Double(3.5)),
            ("SQRT(9.0)", Value::Double(3.0)),
            ("(0.5)", Value::Double(0.5)),
            ("- - 0.25", Value::Double(0.25)),
            ("-(0.0)", Value::Double(-0.0)),
            ("NULL", Value::Null),
        ]),
    ]
}

/// String literals with the `''` escape, non-ASCII text and characters that
/// would end a position if they were not quoted.
fn text_position() -> impl Strategy<Value = Position> {
    let ch = prop::sample::select(vec![
        'a', 'Z', ' ', '\'', 'é', '日', '😀', '-', ',', ')', '\n',
    ]);
    prop_oneof![
        prop::collection::vec(ch, 0..8).prop_map(|chars| {
            let text: String = chars.into_iter().collect();
            (format!("'{}'", text.replace('\'', "''")), Value::Text(text))
        }),
        fixed(&[("NULL", Value::Null)]),
    ]
}

/// A vector element: `[-]number`, or a neighbour that needs evaluating.
fn element() -> impl Strategy<Value = (String, f64)> {
    prop_oneof![
        // An integer element is negated as an integer, then converted.
        signed_float().prop_map(|(sql, value)| (sql, value.as_double().unwrap())),
        signed_float().prop_map(|(sql, value)| (sql, value.as_double().unwrap())),
        signed_int().prop_map(|(sql, value)| (sql, value.as_double().unwrap())),
        prop::sample::select(vec![
            ("1+2", 3.0),
            ("ABS(-3)", 3.0),
            ("(4)", 4.0),
            ("- - 5", 5.0),
            ("-(0)", 0.0),
        ])
        .prop_map(|(sql, v)| (sql.to_string(), v)),
    ]
}

fn dense_position() -> impl Strategy<Value = Position> {
    (
        prop::collection::vec(element(), 0..7),
        prop::sample::select(vec!["ARRAY[", "array [", "Array[ "]),
    )
        .prop_map(|(elements, open)| {
            let (texts, values): (Vec<String>, Vec<f64>) = elements.into_iter().unzip();
            (
                format!("{open}{}]", texts.join(", ")),
                Value::DenseVec(values),
            )
        })
}

/// Sparse literals: unsorted and duplicate indices (sorted and summed by
/// `SparseVector::from_pairs`), and index forms the constant read must leave
/// to the general production.
fn sparse_position() -> impl Strategy<Value = Position> {
    let index = prop_oneof![
        (0usize..12).prop_map(|i| (i.to_string(), i)),
        (0usize..12).prop_map(|i| (i.to_string(), i)),
        prop::sample::select(vec![
            ("41000", 41000),
            ("4294967295", u32::MAX as usize),
            ("4294967294 + 1", u32::MAX as usize),
            ("(3)", 3),
            ("1+1", 2),
            ("2.5", 2),
            ("- - 4", 4)
        ])
        .prop_map(|(sql, i)| (sql.to_string(), i)),
    ];
    prop::collection::vec((index, element()), 0..6).prop_map(|pairs| {
        let texts: Vec<String> = pairs
            .iter()
            .map(|((i, _), (v, _))| format!("{i}: {v}"))
            .collect();
        let entries = pairs.into_iter().map(|((_, i), (_, v))| (i, v)).collect();
        (
            format!("{{{}}}", texts.join(", ")),
            Value::SparseVec(SparseVector::from_pairs(entries)),
        )
    })
}

type Row = (Position, Position, Position, (Position, Position));

fn row() -> impl Strategy<Value = Row> {
    (
        int_position(),
        double_position(),
        text_position(),
        (dense_position(), sparse_position()),
    )
}

fn row_sql(((i, _), (d, _), (s, _), ((v, _), (sv, _))): &Row) -> String {
    format!("({i}, {d}, {s}, {v}, {sv})")
}

fn row_values(((_, i), (_, d), (_, s), ((_, v), (_, sv))): &Row) -> Vec<Value> {
    [i, d, s, v, sv].into_iter().cloned().collect()
}

/// A value with every float spelled as its bits: `-0.0` is not `0.0` here.
fn bits(value: &Value) -> String {
    let hex = |values: &[f64]| -> Vec<String> {
        values
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect()
    };
    match value {
        Value::Double(v) => format!("Double({:016x})", v.to_bits()),
        Value::DenseVec(v) => format!("Dense({:?})", hex(v.as_slice())),
        Value::SparseVec(v) => format!("Sparse({:?}, {:?})", v.indices(), hex(v.values())),
        other => format!("{other:?}"),
    }
}

fn session() -> SqlSession {
    let mut session = SqlSession::new();
    session
        .execute("CREATE TABLE t (i INT, d DOUBLE, s TEXT, v DENSE_VEC, sv SPARSE_VEC)")
        .unwrap();
    session
}

fn stored_rows(session: &SqlSession) -> Vec<Vec<String>> {
    let table = session.database().table("t").unwrap();
    table
        .scan()
        .map(|tuple| tuple.values().iter().map(bits).collect())
        .collect()
}

/// Positions that cannot be executed, with the error's variant and a
/// fragment of its message. Each is a valid *prefix* of a constant, or a
/// constant of the wrong kind, so a constant read that accepted too much — or
/// reported its own failure instead of rewinding — would show here.
const FAILING: &[(&str, &str, &str)] = &[
    ("ARRAY['a']", "Evaluation", "ARRAY elements must be numeric"),
    (
        "ARRAY[1.0, NULL]",
        "Evaluation",
        "ARRAY elements must be numeric",
    ),
    (
        "{-1: 2.0}",
        "Evaluation",
        "indices must be non-negative integers",
    ),
    (
        "{'a': 2.0}",
        "Evaluation",
        "indices must be non-negative integers",
    ),
    // `SparseVector` stores `u32` indices: one more must not wrap to 0 (and
    // collide with a neighbour) or to 1.
    (
        "{1: 1.0, 4294967296: 2.0}",
        "Evaluation",
        "index 4294967296 does not fit",
    ),
    (
        "{4294967295 + 1: 2.0}",
        "Evaluation",
        "index 4294967296 does not fit",
    ),
    (
        "{0: 'x'}",
        "Evaluation",
        "sparse-vector values must be numeric",
    ),
    ("-'x'", "Evaluation", "cannot negate"),
    ("1/0", "Evaluation", "division by zero"),
    ("-9223372036854775807 - 2", "Evaluation", "integer overflow"),
    ("9223372036854775808", "Lex", "bad integer"),
    ("-9223372036854775808", "Lex", "bad integer"),
    ("1.x", "Lex", "unexpected character '.'"),
    ("'open", "Lex", "unterminated string literal"),
    ("ARRAY[1.0,]", "Parse", "unexpected ']' in expression"),
    ("ARRAY[1.0 2.0]", "Parse", "expected ']'"),
    ("ARRAY 1.0", "Parse", "expected '['"),
    ("{1 2.0}", "Parse", "expected ':'"),
    ("1 2", "Parse", "expected ')'"),
    ("- -", "Parse", "in expression"),
    ("NOSUCH(1)", "Analysis", "unknown function"),
    ("some_column", "Analysis", "without a FROM clause"),
];

fn variant(error: &SqlError) -> &'static str {
    match error {
        SqlError::Lex { .. } => "Lex",
        SqlError::Parse { .. } => "Parse",
        SqlError::Analysis(_) => "Analysis",
        SqlError::Evaluation(_) => "Evaluation",
        SqlError::Storage(_) => "Storage",
        _ => "other",
    }
}

/// The two statements that used to panic the session (`4294967296` wrapped
/// to index 0 beside another entry) or store a wrapped index (`4294967297`
/// landed on 1), and the largest index there is.
#[test]
fn a_sparse_index_past_u32_is_an_error_and_the_boundary_round_trips() {
    let mut session = session();
    for literal in ["{1: 1.0, 4294967296: 2.0}", "{4294967297: 2.0}"] {
        let sql = format!("INSERT INTO t VALUES (1, 1.0, 'a', ARRAY[1.0], {literal})");
        let error = session.execute(&sql).expect_err(&sql);
        assert!(matches!(error, SqlError::Evaluation(_)), "{error:?}");
        assert!(error.to_string().contains("does not fit"), "{error}");
        assert!(stored_rows(&session).is_empty());
    }
    session
        .execute("INSERT INTO t VALUES (1, 1.0, 'a', ARRAY[1.0], {4294967295: 1.0, 0: 2.0})")
        .unwrap();
    let table = session.database().table("t").unwrap();
    let stored = table.scan().next().unwrap().values()[4].clone();
    let expected = SparseVector::from_pairs(vec![(0, 2.0), (u32::MAX as usize, 1.0)]);
    assert_eq!(stored, Value::SparseVec(expected));
}

proptest! {
    /// Constants, computed neighbours in the same row and in the same vector:
    /// the table holds exactly the rows built in Rust from the generator's
    /// values, every float compared by its bits.
    #[test]
    fn inserted_rows_are_the_values_the_text_denotes(
        rows in prop::collection::vec(row(), 1..6),
    ) {
        let mut session = session();
        let sql = format!(
            "INSERT INTO t VALUES {}",
            rows.iter().map(row_sql).collect::<Vec<_>>().join(", ")
        );
        if let Err(e) = session.execute(&sql) {
            return Err(format!("{e}\n  statement: {sql}"));
        }
        let expected: Vec<Vec<String>> = rows
            .iter()
            .map(|row| row_values(row).iter().map(bits).collect())
            .collect();
        prop_assert_eq!(stored_rows(&session), expected);
    }

    /// One position that cannot be executed, anywhere among good ones: the
    /// statement fails with the error the general production reports, and —
    /// the batch being all-or-nothing — inserts nothing.
    #[test]
    fn a_failing_position_fails_the_statement_as_it_always_did(
        rows in prop::collection::vec(row(), 1..4),
        failing in prop::sample::select(FAILING.to_vec()),
        at in (0usize..4, 0usize..5),
    ) {
        let (text, expected_variant, fragment) = failing;
        let mut texts: Vec<Vec<String>> = rows
            .iter()
            .map(|((i, _), (d, _), (s, _), ((v, _), (sv, _)))| {
                [i, d, s, v, sv].into_iter().cloned().collect()
            })
            .collect();
        let row = at.0 % texts.len();
        texts[row][at.1] = text.to_string();
        // An unterminated string runs to the next quote, wherever that is:
        // the text positions after it must not hold one.
        if text == "'open" {
            for (r, positions) in texts.iter_mut().enumerate().skip(row) {
                if r > row || at.1 < 2 {
                    positions[2] = "NULL".to_string();
                }
            }
        }
        let sql = format!(
            "INSERT INTO t VALUES {}",
            texts
                .iter()
                .map(|row| format!("({})", row.join(", ")))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let mut session = session();
        let error = match session.execute(&sql) {
            Err(error) => error,
            Ok(_) => return Err(format!("executed: {sql}")),
        };
        prop_assert!(
            variant(&error) == expected_variant && error.to_string().contains(fragment),
            "expected {expected_variant} \"{fragment}\", got {error:?}\n  statement: {sql}"
        );
        prop_assert!(stored_rows(&session).is_empty());
    }

    /// Token offsets are byte offsets: they equal the positions a naive
    /// `char_indices` walk assigns, with multi-byte characters in strings,
    /// in comments and as Unicode whitespace between tokens.
    #[test]
    fn token_offsets_are_the_byte_positions_of_a_char_walk(
        pieces in prop::collection::vec(
            prop::sample::select(vec![
                "SELECT", "x", "'日本'", "'it''s é'", "-- ünï ☃ comment\n", "\u{a0}", "\u{3000}",
                " ", "\t", "1.5e3", "42", "<=", "<>", "(", ")", ",", "- 7", "'😀'", "ARRAY[", "]",
                "{", ":", "}", "1--2\n", "_id9", ";",
            ]),
            0..24,
        ),
    ) {
        // Separate the pieces so that a word or number never runs into the
        // next one; the separator is itself part of what is being tested.
        let sql = pieces.join(" ");
        let offsets: Vec<usize> = tokenize(&sql).unwrap().iter().map(|t| t.offset).collect();

        let mut expected = Vec::new();
        let mut chars = sql.char_indices().peekable();
        while let Some((at, c)) = chars.next() {
            if c.is_whitespace() {
                continue;
            }
            let second = chars.peek().map(|&(_, c)| c);
            let take_while = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
                                  keep: &dyn Fn(char) -> bool| {
                while chars.peek().is_some_and(|&(_, c)| keep(c)) {
                    chars.next();
                }
            };
            if c == '-' && second == Some('-') {
                take_while(&mut chars, &|c| c != '\n');
                continue;
            }
            expected.push(at);
            if c == '\'' {
                // To the closing quote; `''` stays inside.
                while let Some((_, c)) = chars.next() {
                    if c == '\'' {
                        if chars.peek().is_some_and(|&(_, c)| c == '\'') {
                            chars.next();
                        } else {
                            break;
                        }
                    }
                }
            } else if c.is_ascii_alphabetic() || c == '_' {
                take_while(&mut chars, &|c| c.is_ascii_alphanumeric() || c == '_');
            } else if c.is_ascii_digit() {
                // The generator's numbers: digits, '.', and an exponent.
                take_while(&mut chars, &|c| c.is_ascii_alphanumeric() || c == '.');
            } else if matches!((c, second), ('<', Some('=' | '>')) | ('>' | '!', Some('='))) {
                chars.next();
            }
        }
        prop_assert_eq!(offsets, expected);
    }
}
