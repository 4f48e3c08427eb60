//! Query results: a small column-named row set with a table-style `Display`.

use bismarck_storage::Value;

/// The outcome of executing one SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows, each with one value per column.
    pub rows: Vec<Vec<Value>>,
    /// A short human-readable status tag (`SELECT`, `INSERT 3`, `CREATE TABLE`, ...).
    pub status: String,
}

impl QueryResult {
    /// An empty result carrying only a status line (DDL/DML statements).
    pub fn status_only(status: impl Into<String>) -> Self {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            status: status.into(),
        }
    }

    /// A result with rows.
    pub fn with_rows(columns: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        let status = format!("SELECT {}", rows.len());
        QueryResult {
            columns,
            rows,
            status,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a one-row, one-column result, if that is the shape.
    pub fn single_value(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => self.rows[0].first(),
            _ => None,
        }
    }

    /// The index of a named output column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// All values of a named output column, in row order.
    pub fn column_values(&self, name: &str) -> Option<Vec<&Value>> {
        let idx = self.column_index(name)?;
        Some(self.rows.iter().map(|row| &row[idx]).collect())
    }
}

fn render_value(value: &Value) -> String {
    match value {
        Value::Null => "NULL".to_string(),
        Value::Int(v) => v.to_string(),
        Value::Double(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v:.6}")
            }
        }
        Value::Text(s) => s.clone(),
        Value::DenseVec(v) => {
            let entries: Vec<String> = v
                .as_slice()
                .iter()
                .take(4)
                .map(|x| format!("{x:.3}"))
                .collect();
            if v.len() > 4 {
                format!("[{}, ... ({} dims)]", entries.join(", "), v.len())
            } else {
                format!("[{}]", entries.join(", "))
            }
        }
        Value::SparseVec(v) => format!("{{sparse, {} nnz, dim {}}}", v.nnz(), v.dimension()),
        Value::Sequence(s) => format!("<sequence of {} positions>", s.len()),
    }
}

impl std::fmt::Display for QueryResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.columns.is_empty() {
            return writeln!(f, "{}", self.status);
        }
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = render_value(v);
                        if s.len() > widths[i] {
                            widths[i] = s.len();
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        writeln!(f, "{}", header.join(" | "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "{}", rule.join("-+-"))?;
        for row in rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, s)| format!("{:width$}", s, width = widths[i]))
                .collect();
            writeln!(f, "{}", line.join(" | "))?;
        }
        writeln!(f, "({} rows)", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value_only_for_one_by_one_results() {
        let r = QueryResult::with_rows(vec!["n".into()], vec![vec![Value::Int(5)]]);
        assert_eq!(r.single_value(), Some(&Value::Int(5)));
        let r2 = QueryResult::with_rows(
            vec!["a".into(), "b".into()],
            vec![vec![Value::Int(1), Value::Int(2)]],
        );
        assert_eq!(r2.single_value(), None);
        assert_eq!(
            QueryResult::status_only("CREATE TABLE").single_value(),
            None
        );
    }

    #[test]
    fn column_lookup_by_name() {
        let r = QueryResult::with_rows(
            vec!["id".into(), "score".into()],
            vec![
                vec![Value::Int(1), Value::Double(0.5)],
                vec![Value::Int(2), Value::Double(0.75)],
            ],
        );
        assert_eq!(r.column_index("score"), Some(1));
        assert_eq!(r.column_values("score").unwrap().len(), 2);
        assert!(r.column_values("missing").is_none());
    }

    #[test]
    fn display_renders_aligned_table_and_row_count() {
        let r = QueryResult::with_rows(
            vec!["name".into(), "n".into()],
            vec![
                vec![Value::Text("forest".into()), Value::Int(581000)],
                vec![Value::Text("dblife".into()), Value::Int(16000)],
            ],
        );
        let text = r.to_string();
        assert!(text.contains("name"));
        assert!(text.contains("(2 rows)"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn display_handles_vectors_and_nulls() {
        let long = Value::DenseVec(vec![1.0; 10]);
        let r = QueryResult::with_rows(vec!["v".into(), "x".into()], vec![vec![long, Value::Null]]);
        let text = r.to_string();
        assert!(text.contains("(10 dims)"));
        assert!(text.contains("NULL"));
    }

    #[test]
    fn status_only_display_is_the_status_line() {
        let r = QueryResult::status_only("INSERT 3");
        assert_eq!(r.to_string().trim(), "INSERT 3");
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
