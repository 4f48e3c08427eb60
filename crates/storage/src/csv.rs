//! Plain-text import/export for tables.
//!
//! The paper loads public datasets (Forest, DBLife, MovieLens, CoNLL) into
//! database tables before training. We support a simple delimited text
//! format so the examples can load data from disk and so generated datasets
//! can be inspected:
//!
//! * `INT` and `DOUBLE` columns hold their literal value;
//! * `TEXT` columns are rendered **quoted** (`"alice"`) with `\"`, `\\`,
//!   `\n` and `\r` escapes, so text containing the `,` field delimiter, the
//!   `;` vector separator, quotes, or newlines round-trips exactly.
//!   Unquoted text is still accepted on import for hand-written files;
//! * `DENSE_VEC` columns hold semicolon-separated floats (`1.0;0.5;2.0`);
//! * `SPARSE_VEC` columns hold semicolon-separated `index:value` pairs.
//!
//! NULL is rendered as an *unquoted* empty field, and an unquoted `null`
//! (any case) also parses as NULL. The quoted literals `""` and `"null"`
//! are ordinary text values — quoting is what disambiguates them from the
//! NULL sentinel, so export → import is the identity.
//!
//! A line whose first non-blank character is an **unquoted** `#` is a
//! comment. Rendered text always starts with its opening quote, so a text
//! value beginning with `#` in the first column can never be mistaken for
//! a comment on re-import.
//!
//! Fields are separated by commas; `SEQUENCE` columns are not supported in
//! the text format (CRF data is generated programmatically).

use bismarck_linalg::SparseVector;

use crate::error::StorageError;
use crate::scan::TupleScan;
use crate::schema::{DataType, Schema};
use crate::table::Table;
use crate::value::Value;

/// One field split out of a line, with quoting preserved so NULL detection
/// can distinguish the unquoted sentinel from quoted literals.
struct RawField {
    text: String,
    quoted: bool,
}

/// Split a line into fields on unquoted commas, unescaping quoted fields.
fn split_line(line: &str, line_no: usize) -> Result<Vec<RawField>, StorageError> {
    let err = |msg: String| StorageError::Parse(format!("line {line_no}: {msg}"));
    let mut fields = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        if chars.peek() == Some(&'"') {
            chars.next();
            let mut text = String::new();
            loop {
                match chars.next() {
                    None => return Err(err("unterminated quoted field".to_string())),
                    Some('"') => break,
                    Some('\\') => match chars.next() {
                        Some('\\') => text.push('\\'),
                        Some('"') => text.push('"'),
                        Some('n') => text.push('\n'),
                        Some('r') => text.push('\r'),
                        Some(c) => return Err(err(format!("unknown escape '\\{c}'"))),
                        None => return Err(err("dangling escape at end of line".to_string())),
                    },
                    Some(c) => text.push(c),
                }
            }
            while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
                chars.next();
            }
            fields.push(RawField { text, quoted: true });
            match chars.next() {
                None => break,
                Some(',') => continue,
                Some(c) => {
                    return Err(err(format!("unexpected '{c}' after closing quote")));
                }
            }
        } else {
            let mut text = String::new();
            let mut at_end = false;
            loop {
                match chars.next() {
                    None => {
                        at_end = true;
                        break;
                    }
                    Some(',') => break,
                    Some(c) => text.push(c),
                }
            }
            fields.push(RawField {
                text: text.trim().to_string(),
                quoted: false,
            });
            if at_end {
                break;
            }
        }
    }
    Ok(fields)
}

/// Parse one field according to its declared type.
fn parse_field(field: &RawField, dtype: DataType) -> Result<Value, StorageError> {
    // Only the *unquoted* sentinels mean NULL; `""` and `"null"` are text.
    if !field.quoted && (field.text.is_empty() || field.text.eq_ignore_ascii_case("null")) {
        return Ok(Value::Null);
    }
    let text = field.text.as_str();
    match dtype {
        DataType::Int => text
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| StorageError::Parse(format!("bad int '{text}': {e}"))),
        DataType::Double => text
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|e| StorageError::Parse(format!("bad double '{text}': {e}"))),
        DataType::Text => Ok(Value::Text(text.to_string())),
        DataType::DenseVec => {
            let mut values = Vec::new();
            for part in text.split(';').filter(|p| !p.trim().is_empty()) {
                let v: f64 = part
                    .trim()
                    .parse()
                    .map_err(|e| StorageError::Parse(format!("bad dense entry '{part}': {e}")))?;
                values.push(v);
            }
            Ok(Value::DenseVec(values))
        }
        DataType::SparseVec => {
            let mut indices: Vec<u32> = Vec::new();
            let mut values: Vec<f64> = Vec::new();
            for part in text.split(';').filter(|p| !p.trim().is_empty()) {
                let (idx, val) = part.split_once(':').ok_or_else(|| {
                    StorageError::Parse(format!("sparse entry '{part}' is not index:value"))
                })?;
                let idx: u32 = idx
                    .trim()
                    .parse()
                    .map_err(|e| StorageError::Parse(format!("bad sparse index '{idx}': {e}")))?;
                let val: f64 = val
                    .trim()
                    .parse()
                    .map_err(|e| StorageError::Parse(format!("bad sparse value '{val}': {e}")))?;
                indices.push(idx);
                values.push(val);
            }
            // The checked constructor rejects unsorted or duplicate indices
            // outright — dot products and binary-search lookups assume a
            // strictly increasing layout, and a malformed input row must not
            // silently corrupt them.
            SparseVector::try_from_sorted(indices, values)
                .map(Value::SparseVec)
                .map_err(|e| StorageError::Parse(format!("bad sparse field '{text}': {e}")))
        }
        DataType::Sequence => Err(StorageError::Parse(
            "SEQUENCE columns are not supported by the text format".to_string(),
        )),
    }
}

/// Quote and escape a text value so it survives a round-trip unchanged.
fn render_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            // The parser is line-based, so literal newlines must travel
            // as escapes.
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render one value in the text format.
fn render_field(value: &Value) -> String {
    match value {
        Value::Null => String::new(),
        Value::Int(v) => v.to_string(),
        Value::Double(v) => format!("{v}"),
        Value::Text(s) => render_text(s),
        Value::DenseVec(v) => v
            .as_slice()
            .iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(";"),
        Value::SparseVec(v) => v
            .iter()
            .map(|(i, x)| format!("{i}:{x}"))
            .collect::<Vec<_>>()
            .join(";"),
        Value::Sequence(_) => "<sequence>".to_string(),
    }
}

/// Parse delimited text into rows matching `schema`. A line whose first
/// non-blank character is an unquoted `#` is skipped as a comment.
pub fn rows_from_str(schema: &Schema, text: &str) -> Result<Vec<Vec<Value>>, StorageError> {
    let mut rows = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        // An unquoted leading `#` marks a comment; rendered text always
        // starts with `"`, so exported rows can never be skipped here.
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields = split_line(line, line_no + 1)?;
        if fields.len() != schema.arity() {
            return Err(StorageError::Parse(format!(
                "line {}: expected {} fields, got {}",
                line_no + 1,
                schema.arity(),
                fields.len()
            )));
        }
        let mut row = Vec::with_capacity(fields.len());
        for (field, col) in fields.iter().zip(schema.columns().iter()) {
            row.push(parse_field(field, col.dtype)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Parse delimited text into a new table with the given name and schema.
pub fn table_from_str(name: &str, schema: Schema, text: &str) -> Result<Table, StorageError> {
    let rows = rows_from_str(&schema, text)?;
    let mut table = Table::new(name, schema);
    table.insert_all(rows)?;
    Ok(table)
}

/// Render any tuple source (row-store or columnar) to the delimited text
/// format (no header).
pub fn tuples_to_string<S: TupleScan + ?Sized>(source: &S) -> String {
    let mut out = String::new();
    source.scan_tuples(&mut |tuple| {
        let line: Vec<String> = tuple.values().iter().map(render_field).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("vec", DataType::DenseVec),
            Column::new("svec", DataType::SparseVec),
            Column::nullable("label", DataType::Double),
            Column::new("name", DataType::Text),
        ])
        .unwrap()
    }

    fn text_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("note", DataType::Text),
        ])
        .unwrap()
    }

    fn roundtrip(t: &Table) -> Table {
        table_from_str("back", t.schema().clone(), &tuples_to_string(t)).unwrap()
    }

    #[test]
    fn parse_roundtrip() {
        let text = "1,1.0;2.0,0:1.5;3:2.0,-1,alice\n2,0.5;0.5,1:1.0,,bob\n";
        let t = table_from_str("t", schema(), text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0).unwrap().get_int(0), Some(1));
        assert_eq!(t.get(0).unwrap().feature_view(1).unwrap().dimension(), 2);
        assert_eq!(t.get(0).unwrap().feature_view(2).unwrap().nnz(), 2);
        assert!(t.get(1).unwrap().get(3).unwrap().is_null());
        assert_eq!(
            t.get(1).unwrap().get(4).and_then(Value::as_text),
            Some("bob")
        );

        let rendered = tuples_to_string(&t);
        let t2 = table_from_str("t2", schema(), &rendered).unwrap();
        assert_eq!(t2.len(), 2);
        assert_eq!(
            t2.get(0)
                .unwrap()
                .feature_view(2)
                .unwrap()
                .dot(&[1.0, 0.0, 0.0, 1.0]),
            1.5 + 2.0
        );
    }

    #[test]
    fn adversarial_text_roundtrips() {
        // Regression: rendering used to emit text raw, so a `,` shifted
        // every later field on re-import and a `;` corrupted vector parsing.
        let mut t = Table::new("t", schema());
        let adversarial = [
            "a,b;c",
            "comma, inside",
            "semi;colons;galore",
            "quote\"and\\backslash",
            "line\nbreak\r\nboth",
            "  padded  ",
            "#looks-like-comment",
            "trailing,",
        ];
        for (i, s) in adversarial.iter().enumerate() {
            t.insert(vec![
                Value::Int(i as i64),
                Value::from(vec![1.0, -2.5]),
                Value::SparseVec(SparseVector::from_pairs(vec![(1, 0.5)])),
                Value::Double(0.25),
                Value::Text(s.to_string()),
            ])
            .unwrap();
        }
        let back = roundtrip(&t);
        assert_eq!(back.len(), t.len());
        for (i, s) in adversarial.iter().enumerate() {
            assert_eq!(
                back.get(i).unwrap().get(4).and_then(Value::as_text),
                Some(*s),
                "row {i}"
            );
            assert_eq!(back.get(i).unwrap().get_int(0), Some(i as i64));
            assert_eq!(
                back.get(i).unwrap().feature_view(1).unwrap().dimension(),
                2,
                "row {i} dense vector survived"
            );
        }
    }

    #[test]
    fn empty_and_null_text_survive_roundtrip() {
        // Regression: `""` and `"null"` used to decode as Value::Null
        // because the null check ran before type dispatch.
        let mut t = Table::new("t", text_schema());
        t.insert(vec![Value::Int(0), Value::Text("null".into())])
            .unwrap();
        t.insert(vec![Value::Int(1), Value::Text(String::new())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        t.insert(vec![Value::Int(3), Value::Text("NULL".into())])
            .unwrap();
        let back = roundtrip(&t);
        assert_eq!(
            back.get(0).unwrap().get(1).and_then(Value::as_text),
            Some("null")
        );
        assert_eq!(
            back.get(1).unwrap().get(1).and_then(Value::as_text),
            Some("")
        );
        assert!(back.get(2).unwrap().get(1).unwrap().is_null());
        assert_eq!(
            back.get(3).unwrap().get(1).and_then(Value::as_text),
            Some("NULL")
        );
    }

    #[test]
    fn leading_hash_text_is_not_a_comment() {
        // Regression: a first-column text value starting with `#` used to be
        // dropped as a comment by table_from_str.
        let schema = Schema::new(vec![
            Column::new("tag", DataType::Text),
            Column::new("id", DataType::Int),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Text("#hashtag".into()), Value::Int(1)])
            .unwrap();
        let rendered = tuples_to_string(&t);
        let back = table_from_str("back", t.schema().clone(), &rendered).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(
            back.get(0).unwrap().get(0).and_then(Value::as_text),
            Some("#hashtag")
        );
        // Unquoted `#` still starts a comment.
        let mixed = format!("# a real comment\n{rendered}");
        let back2 = table_from_str("b2", t.schema().clone(), &mixed).unwrap();
        assert_eq!(back2.len(), 1);
    }

    #[test]
    fn quoted_fields_parse_for_all_scalar_types() {
        let text = "\"alice\",7\n";
        let schema = Schema::new(vec![
            Column::new("name", DataType::Text),
            Column::new("id", DataType::Int),
        ])
        .unwrap();
        let t = table_from_str("t", schema, text).unwrap();
        assert_eq!(
            t.get(0).unwrap().get(0).and_then(Value::as_text),
            Some("alice")
        );
        assert_eq!(t.get(0).unwrap().get_int(1), Some(7));
    }

    #[test]
    fn malformed_quoting_is_rejected() {
        let s = text_schema();
        for bad in [
            "1,\"unterminated\n",
            "1,\"bad escape \\q\"\n",
            "1,\"trailing\" junk\n",
            "1,\"dangling\\",
        ] {
            let err = table_from_str("t", s.clone(), bad).unwrap_err();
            assert!(
                matches!(err, StorageError::Parse(_)),
                "input {bad:?} should fail to parse"
            );
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n1,1.0,0:1.0,0.0,x\n";
        let t = table_from_str("t", schema(), text).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_mismatch_reports_line() {
        let err = table_from_str("t", schema(), "1,2.0\n").unwrap_err();
        assert!(matches!(err, StorageError::Parse(msg) if msg.contains("line 1")));
    }

    #[test]
    fn bad_numbers_rejected() {
        let text = "x,1.0,0:1.0,0.0,n\n";
        assert!(table_from_str("t", schema(), text).is_err());
        let text2 = "1,abc,0:1.0,0.0,n\n";
        assert!(table_from_str("t", schema(), text2).is_err());
        let text3 = "1,1.0,zz,0.0,n\n";
        assert!(table_from_str("t", schema(), text3).is_err());
    }

    #[test]
    fn unsorted_or_duplicate_sparse_entries_rejected() {
        // Out-of-order indices would corrupt binary-search lookups; the
        // checked constructor turns them into a parse error.
        let unsorted = "1,1.0,3:1.0;0:2.0,0.0,n\n";
        let err = table_from_str("t", schema(), unsorted).unwrap_err();
        assert!(matches!(err, StorageError::Parse(msg) if msg.contains("strictly increasing")));
        let duplicated = "1,1.0,2:1.0;2:2.0,0.0,n\n";
        assert!(table_from_str("t", schema(), duplicated).is_err());
    }

    #[test]
    fn columnar_renders_identically_to_row_store() {
        let mut t = Table::new("t", schema());
        for i in 0..10 {
            t.insert(vec![
                Value::Int(i),
                Value::from(vec![i as f64]),
                Value::SparseVec(SparseVector::from_pairs(vec![(0, 1.0)])),
                if i % 2 == 0 {
                    Value::Null
                } else {
                    Value::Double(i as f64)
                },
                Value::Text(format!("row {i}; \"quoted\"")),
            ])
            .unwrap();
        }
        let ct = crate::columnar::ColumnarTable::from_table(&t).unwrap();
        assert_eq!(tuples_to_string(&ct), tuples_to_string(&t));
    }
}
