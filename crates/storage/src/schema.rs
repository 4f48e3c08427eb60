//! Table schemas: named, typed columns.

use crate::error::StorageError;
use crate::value::Value;

/// The column types supported by the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Double,
    /// UTF-8 text.
    Text,
    /// Dense array of doubles.
    DenseVec,
    /// Sparse array of doubles.
    SparseVec,
    /// Sequence of (sparse features, label) pairs for structured prediction.
    Sequence,
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::DenseVec => "DENSE_VEC",
            DataType::SparseVec => "SPARSE_VEC",
            DataType::Sequence => "SEQUENCE",
        };
        f.write_str(s)
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name; matched case-sensitively.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// Whether NULL values are accepted.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }
}

/// An ordered list of columns describing a table's tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from columns. Duplicate column names are rejected.
    pub fn new(columns: Vec<Column>) -> Result<Self, StorageError> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|other| other.name == c.name) {
                return Err(StorageError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at ordinal position `i`.
    pub(crate) fn column(&self, i: usize) -> Option<&Column> {
        self.columns.get(i)
    }

    /// Ordinal position of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize, StorageError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_string()))
    }

    /// Validate a row of values against this schema: arity, nullability and
    /// per-column type (integers are accepted where doubles are declared).
    pub(crate) fn validate(&self, values: &[Value]) -> Result<(), StorageError> {
        if values.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.columns.len(),
                actual: values.len(),
            });
        }
        for (col, value) in self.columns.iter().zip(values.iter()) {
            match value.data_type() {
                None => {
                    if !col.nullable {
                        return Err(StorageError::NullViolation(col.name.clone()));
                    }
                }
                Some(dt) => {
                    let compatible =
                        dt == col.dtype || (col.dtype == DataType::Double && dt == DataType::Int);
                    if !compatible {
                        return Err(StorageError::TypeMismatch {
                            column: col.name.clone(),
                            expected: col.dtype,
                            actual: dt,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("vec", DataType::DenseVec),
            Column::nullable("label", DataType::Double),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("a", DataType::Double),
        ])
        .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateColumn(_)));
    }

    #[test]
    fn index_of_finds_columns() {
        let s = example_schema();
        assert_eq!(s.index_of("vec").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(0).unwrap().name, "id");
        assert!(s.column(9).is_none());
    }

    #[test]
    fn validate_accepts_good_rows() {
        let s = example_schema();
        let row = vec![Value::Int(1), Value::from(vec![1.0]), Value::Double(1.0)];
        assert!(s.validate(&row).is_ok());
        // integer where double declared is accepted
        let row2 = vec![Value::Int(1), Value::from(vec![1.0]), Value::Int(1)];
        assert!(s.validate(&row2).is_ok());
        // nullable column accepts NULL
        let row3 = vec![Value::Int(1), Value::from(vec![1.0]), Value::Null];
        assert!(s.validate(&row3).is_ok());
    }

    #[test]
    fn validate_rejects_bad_rows() {
        let s = example_schema();
        assert!(matches!(
            s.validate(&[Value::Int(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        let bad_type = vec![Value::from("x"), Value::from(vec![1.0]), Value::Null];
        assert!(matches!(
            s.validate(&bad_type),
            Err(StorageError::TypeMismatch { .. })
        ));
        let null_violation = vec![Value::Null, Value::from(vec![1.0]), Value::Null];
        assert!(matches!(
            s.validate(&null_violation),
            Err(StorageError::NullViolation(_))
        ));
    }

    #[test]
    fn data_type_display() {
        assert_eq!(DataType::DenseVec.to_string(), "DENSE_VEC");
        assert_eq!(DataType::Sequence.to_string(), "SEQUENCE");
    }
}
