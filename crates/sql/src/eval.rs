//! Scalar and aggregate expression evaluation over storage [`Value`]s.
//!
//! Booleans are represented as `Value::Int(1)` / `Value::Int(0)`; any
//! non-zero numeric value is truthy and NULL is falsy, which matches how the
//! executor uses predicates (a `WHERE` clause keeps a row only when its
//! predicate is truthy, so NULL comparisons drop the row, as in SQL's
//! three-valued logic collapsed to two values).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use bismarck_core::serving::ModelSnapshot;
use bismarck_linalg::{DenseVector, SparseVector};
use bismarck_storage::{Schema, Value};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::ast::{is_aggregate_function, BinaryOp, Expr, UnaryOp};
use crate::error::{Result, SqlError};

/// Mutable evaluation context shared across a statement: the deterministic
/// RNG backing `RANDOM()` and the per-statement model cache backing
/// `PREDICT()`.
pub struct EvalContext {
    /// Session RNG; seeded so scripts are reproducible.
    pub rng: StdRng,
    /// Model snapshots resolved for `PREDICT()` calls, keyed by model name.
    /// The executor acquires each referenced model **once per statement**
    /// before evaluation starts, so every row of a `SELECT` is scored
    /// against the same snapshot even while training publishes new versions
    /// concurrently.
    pub models: HashMap<String, Arc<ModelSnapshot>>,
}

impl EvalContext {
    /// A context whose RNG stream is seeded with `seed` and whose model
    /// cache starts empty.
    pub fn with_seed(seed: u64) -> Self {
        EvalContext {
            rng: StdRng::seed_from_u64(seed),
            models: HashMap::new(),
        }
    }
}

/// A row visible to column references during evaluation.
#[derive(Clone, Copy)]
pub struct RowContext<'a> {
    /// The source table's schema (resolves column names to indices).
    pub schema: &'a Schema,
    /// The current row's values.
    pub values: &'a [Value],
}

impl<'a> RowContext<'a> {
    fn column(&self, name: &str) -> Result<Value> {
        let idx = self
            .schema
            .index_of(name)
            .map_err(|_| SqlError::Analysis(format!("unknown column '{name}'")))?;
        Ok(self.values[idx].clone())
    }
}

/// Evaluate a scalar expression. Aggregate calls are rejected here; the
/// executor routes grouped queries through [`evaluate_grouped`].
pub fn evaluate(expr: &Expr, row: Option<RowContext<'_>>, ctx: &mut EvalContext) -> Result<Value> {
    match expr {
        Expr::Literal(value) => Ok(value.clone()),
        Expr::Column(name) => match row {
            Some(row) => row.column(name),
            None => Err(SqlError::Analysis(format!(
                "column '{name}' referenced in a query without a FROM clause"
            ))),
        },
        Expr::Wildcard => Err(SqlError::Analysis(
            "'*' is only valid inside COUNT(*)".to_string(),
        )),
        Expr::Unary { op, expr } => {
            let v = evaluate(expr, row, ctx)?;
            apply_unary(*op, v)
        }
        Expr::Binary { left, op, right } => {
            let l = evaluate(left, row, ctx)?;
            let r = evaluate(right, row, ctx)?;
            apply_binary(*op, l, r)
        }
        Expr::IsNull { expr, negated } => {
            let v = evaluate(expr, row, ctx)?;
            let is_null = v.is_null();
            Ok(bool_value(if *negated { !is_null } else { is_null }))
        }
        Expr::Function { name, args } => {
            if is_aggregate_function(name) {
                return Err(SqlError::Analysis(format!(
                    "aggregate {name}() is not allowed in this context"
                )));
            }
            let mut values = Vec::with_capacity(args.len());
            for arg in args {
                values.push(evaluate(arg, row, ctx)?);
            }
            apply_scalar_function(name, &values, ctx)
        }
        Expr::ArrayLiteral(items) => {
            let mut data = Vec::with_capacity(items.len());
            for item in items {
                let v = evaluate(item, row, ctx)?;
                data.push(v.as_double().ok_or_else(|| {
                    SqlError::Evaluation("ARRAY elements must be numeric".to_string())
                })?);
            }
            Ok(Value::DenseVec(DenseVector::from(data)))
        }
        Expr::SparseLiteral(pairs) => {
            let mut entries = Vec::with_capacity(pairs.len());
            for (index_expr, value_expr) in pairs {
                let idx = evaluate(index_expr, row, ctx)?
                    .as_int()
                    .filter(|&i| i >= 0)
                    .ok_or_else(|| {
                        SqlError::Evaluation(
                            "sparse-vector indices must be non-negative integers".to_string(),
                        )
                    })?;
                // `SparseVector` stores `u32` indices; a larger one would wrap.
                let idx = u32::try_from(idx).map_err(|_| {
                    SqlError::Evaluation(format!(
                        "sparse-vector index {idx} does not fit in 32 bits"
                    ))
                })?;
                let value = evaluate(value_expr, row, ctx)?.as_double().ok_or_else(|| {
                    SqlError::Evaluation("sparse-vector values must be numeric".to_string())
                })?;
                entries.push((idx as usize, value));
            }
            Ok(Value::SparseVec(SparseVector::from_pairs(entries)))
        }
    }
}

/// Evaluate a select-item expression over a group of rows: aggregate calls
/// reduce over the whole group, everything else is evaluated against the
/// group's first row (the usual "grouped columns only" contract).
pub fn evaluate_grouped(
    expr: &Expr,
    schema: &Schema,
    rows: &[Vec<Value>],
    ctx: &mut EvalContext,
) -> Result<Value> {
    match expr {
        Expr::Function { name, args } if is_aggregate_function(name) => {
            apply_aggregate(name, args, schema, rows, ctx)
        }
        Expr::Unary { op, expr } => {
            let v = evaluate_grouped(expr, schema, rows, ctx)?;
            apply_unary(*op, v)
        }
        Expr::Binary { left, op, right } => {
            let l = evaluate_grouped(left, schema, rows, ctx)?;
            let r = evaluate_grouped(right, schema, rows, ctx)?;
            apply_binary(*op, l, r)
        }
        Expr::IsNull { expr, negated } => {
            let v = evaluate_grouped(expr, schema, rows, ctx)?;
            let is_null = v.is_null();
            Ok(bool_value(if *negated { !is_null } else { is_null }))
        }
        other => {
            let row = rows
                .first()
                .map(|values| RowContext { schema, values })
                .ok_or_else(|| SqlError::Evaluation("aggregate over an empty group".into()))?;
            evaluate(other, Some(row), ctx)
        }
    }
}

fn apply_aggregate(
    name: &str,
    args: &[Expr],
    schema: &Schema,
    rows: &[Vec<Value>],
    ctx: &mut EvalContext,
) -> Result<Value> {
    let upper = name.to_ascii_uppercase();
    if upper == "COUNT" && matches!(args.first(), Some(Expr::Wildcard)) {
        return Ok(Value::Int(rows.len() as i64));
    }
    let arg = args.first().ok_or_else(|| {
        SqlError::Analysis(format!("{upper}() requires an argument (or * for COUNT)"))
    })?;
    // Evaluate the argument for every row, skipping NULLs like SQL does.
    let mut values = Vec::with_capacity(rows.len());
    for row in rows {
        let v = evaluate(
            arg,
            Some(RowContext {
                schema,
                values: row,
            }),
            ctx,
        )?;
        if !v.is_null() {
            values.push(v);
        }
    }
    match upper.as_str() {
        "COUNT" => Ok(Value::Int(values.len() as i64)),
        "SUM" => {
            let sum: f64 = numeric_values(&values, "SUM")?.into_iter().sum();
            if values.is_empty() {
                Ok(Value::Null)
            } else {
                Ok(Value::Double(sum))
            }
        }
        "AVG" => {
            let nums = numeric_values(&values, "AVG")?;
            if nums.is_empty() {
                Ok(Value::Null)
            } else {
                Ok(Value::Double(nums.iter().sum::<f64>() / nums.len() as f64))
            }
        }
        "MIN" => Ok(values
            .into_iter()
            .min_by(compare_values)
            .unwrap_or(Value::Null)),
        "MAX" => Ok(values
            .into_iter()
            .max_by(compare_values)
            .unwrap_or(Value::Null)),
        other => Err(SqlError::Analysis(format!("unknown aggregate {other}()"))),
    }
}

fn numeric_values(values: &[Value], agg: &str) -> Result<Vec<f64>> {
    values
        .iter()
        .map(|v| {
            v.as_double()
                .ok_or_else(|| SqlError::Evaluation(format!("{agg}() argument must be numeric")))
        })
        .collect()
}

/// The boolean encoding used by predicates.
pub fn bool_value(b: bool) -> Value {
    Value::Int(if b { 1 } else { 0 })
}

/// Truthiness of a value: non-zero numerics are true, NULL and everything
/// else is false.
pub fn is_truthy(value: &Value) -> bool {
    match value {
        Value::Int(v) => *v != 0,
        Value::Double(v) => *v != 0.0,
        _ => false,
    }
}

fn apply_unary(op: UnaryOp, value: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match value {
            Value::Int(v) => v
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| SqlError::Evaluation("integer overflow in negation".into())),
            Value::Double(v) => Ok(Value::Double(-v)),
            Value::Null => Ok(Value::Null),
            other => Err(SqlError::Evaluation(format!("cannot negate {other:?}"))),
        },
        UnaryOp::Not => {
            if value.is_null() {
                Ok(Value::Null)
            } else {
                Ok(bool_value(!is_truthy(&value)))
            }
        }
    }
}

fn apply_binary(op: BinaryOp, left: Value, right: Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        And => Ok(bool_value(is_truthy(&left) && is_truthy(&right))),
        Or => Ok(bool_value(is_truthy(&left) || is_truthy(&right))),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if left.is_null() || right.is_null() {
                // Comparisons against NULL are never true.
                return Ok(bool_value(false));
            }
            let ordering = compare_values(&left, &right);
            let result = match op {
                Eq => ordering == Ordering::Equal,
                NotEq => ordering != Ordering::Equal,
                Lt => ordering == Ordering::Less,
                LtEq => ordering != Ordering::Greater,
                Gt => ordering == Ordering::Greater,
                GtEq => ordering != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(bool_value(result))
        }
        Add | Sub | Mul | Div => {
            if left.is_null() || right.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic stays integral except for division, and is
            // checked: overflow is a reportable evaluation error, not a
            // panic (or a silent wrap in release builds).
            if let (Value::Int(a), Value::Int(b)) = (&left, &right) {
                let overflow =
                    || SqlError::Evaluation(format!("integer overflow in {a} {op:?} {b}"));
                return match op {
                    Add => a.checked_add(*b).map(Value::Int).ok_or_else(overflow),
                    Sub => a.checked_sub(*b).map(Value::Int).ok_or_else(overflow),
                    Mul => a.checked_mul(*b).map(Value::Int).ok_or_else(overflow),
                    Div => {
                        if *b == 0 {
                            Err(SqlError::Evaluation("division by zero".into()))
                        } else {
                            Ok(Value::Double(*a as f64 / *b as f64))
                        }
                    }
                    _ => unreachable!(),
                };
            }
            let a = left.as_double().ok_or_else(|| {
                SqlError::Evaluation(format!("left operand of {op:?} is not numeric"))
            })?;
            let b = right.as_double().ok_or_else(|| {
                SqlError::Evaluation(format!("right operand of {op:?} is not numeric"))
            })?;
            match op {
                Add => Ok(Value::Double(a + b)),
                Sub => Ok(Value::Double(a - b)),
                Mul => Ok(Value::Double(a * b)),
                Div => {
                    if b == 0.0 {
                        Err(SqlError::Evaluation("division by zero".into()))
                    } else {
                        Ok(Value::Double(a / b))
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Total order over values used by comparisons, `ORDER BY`, `MIN` and `MAX`:
/// NULL sorts first, numerics compare numerically (integers and doubles mix),
/// text compares lexicographically, and other types compare by their debug
/// representation so ordering is at least deterministic.
pub fn compare_values(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        (Value::Text(x), Value::Text(y)) => x.cmp(y),
        _ => match (a.as_double(), b.as_double()) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
            _ => format!("{a:?}").cmp(&format!("{b:?}")),
        },
    }
}

fn apply_scalar_function(name: &str, args: &[Value], ctx: &mut EvalContext) -> Result<Value> {
    let upper = name.to_ascii_uppercase();
    let arity_error = |expected: usize| {
        SqlError::Analysis(format!(
            "{upper}() expects {expected} argument(s), got {}",
            args.len()
        ))
    };
    let numeric = |i: usize| -> Result<f64> {
        args.get(i)
            .and_then(Value::as_double)
            .ok_or_else(|| SqlError::Evaluation(format!("{upper}() argument must be numeric")))
    };
    match upper.as_str() {
        "RANDOM" => {
            if !args.is_empty() {
                return Err(arity_error(0));
            }
            Ok(Value::Double(ctx.rng.gen_range(0.0..1.0)))
        }
        "ABS" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            match &args[0] {
                Value::Int(v) => v
                    .checked_abs()
                    .map(Value::Int)
                    .ok_or_else(|| SqlError::Evaluation("integer overflow in ABS()".into())),
                _ => Ok(Value::Double(numeric(0)?.abs())),
            }
        }
        "SQRT" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            Ok(Value::Double(numeric(0)?.sqrt()))
        }
        "EXP" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            Ok(Value::Double(numeric(0)?.exp()))
        }
        "LN" | "LOG" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            Ok(Value::Double(numeric(0)?.ln()))
        }
        "FLOOR" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            Ok(Value::Double(numeric(0)?.floor()))
        }
        "CEIL" | "CEILING" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            Ok(Value::Double(numeric(0)?.ceil()))
        }
        "POWER" | "POW" => {
            if args.len() != 2 {
                return Err(arity_error(2));
            }
            Ok(Value::Double(numeric(0)?.powf(numeric(1)?)))
        }
        "SIGMOID" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            Ok(Value::Double(bismarck_linalg::sigmoid(numeric(0)?)))
        }
        "LENGTH" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            match &args[0] {
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(SqlError::Evaluation(format!(
                    "LENGTH() expects text, got {other:?}"
                ))),
            }
        }
        "DIM" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            args[0]
                .feature_view()
                .map(|fv| Value::Int(fv.dimension() as i64))
                .ok_or_else(|| SqlError::Evaluation("DIM() expects a vector".into()))
        }
        "NNZ" => {
            if args.len() != 1 {
                return Err(arity_error(1));
            }
            args[0]
                .feature_view()
                .map(|fv| Value::Int(fv.nnz() as i64))
                .ok_or_else(|| SqlError::Evaluation("NNZ() expects a vector".into()))
        }
        "DOT" => {
            if args.len() != 2 {
                return Err(arity_error(2));
            }
            let a = args[0]
                .feature_view()
                .ok_or_else(|| SqlError::Evaluation("DOT() expects vectors".into()))?;
            let b = args[1]
                .feature_view()
                .ok_or_else(|| SqlError::Evaluation("DOT() expects vectors".into()))?;
            let dim = a.dimension().max(b.dimension());
            let dense_b = b.to_dense(dim);
            Ok(Value::Double(a.dot(dense_b.as_slice())))
        }
        // PREDICT('model', features) | PREDICT('model', x1, x2, ...):
        // score features against a model resolved once per statement (a live
        // serving handle's latest snapshot, or a persisted model table).
        "PREDICT" => {
            if args.len() < 2 {
                return Err(SqlError::Analysis(format!(
                    "PREDICT() expects a model name and features, got {} argument(s)",
                    args.len()
                )));
            }
            let Value::Text(model_name) = &args[0] else {
                return Err(SqlError::Analysis(
                    "the first argument of PREDICT() must be a model name literal".into(),
                ));
            };
            let snapshot = ctx.models.get(model_name).cloned().ok_or_else(|| {
                SqlError::Evaluation(format!(
                    "unknown model '{model_name}': PREDICT() needs a registered \
                     serving handle or a persisted model table of that name"
                ))
            })?;
            let score = if args.len() == 2 {
                let x = args[1].feature_view().ok_or_else(|| {
                    SqlError::Evaluation(
                        "the second argument of PREDICT() must be a feature vector \
                         (or pass the features as individual numbers)"
                            .into(),
                    )
                })?;
                snapshot.predict(x)
            } else {
                let mut dense = Vec::with_capacity(args.len() - 1);
                for (i, value) in args[1..].iter().enumerate() {
                    dense.push(value.as_double().ok_or_else(|| {
                        SqlError::Evaluation(format!("PREDICT() feature {} is not numeric", i + 1))
                    })?);
                }
                snapshot.predict(bismarck_linalg::FeatureVectorRef::Dense(&dense))
            };
            Ok(Value::Double(score))
        }
        other => Err(SqlError::Analysis(format!("unknown function {other}()"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SelectItem, Statement};
    use crate::parser::parse_statement;
    use bismarck_storage::{Column, DataType};

    fn ctx() -> EvalContext {
        EvalContext::with_seed(7)
    }

    /// Parse `SELECT <expr>` and return the expression.
    fn expr(text: &str) -> Expr {
        let stmt = parse_statement(&format!("SELECT {text}")).unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = select.items.into_iter().next().unwrap() else {
            panic!()
        };
        expr
    }

    fn eval_text(text: &str) -> Value {
        evaluate(&expr(text), None, &mut ctx()).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_text("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval_text("(1 + 2) * 3"), Value::Int(9));
        assert_eq!(eval_text("7 / 2"), Value::Double(3.5));
        assert_eq!(eval_text("1.5 + 1"), Value::Double(2.5));
        assert_eq!(eval_text("-3 + 1"), Value::Int(-2));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let err = evaluate(&expr("1 / 0"), None, &mut ctx()).unwrap_err();
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn integer_overflow_is_an_error_not_a_panic() {
        // `0 - MAX - 1` builds i64::MIN without needing a MIN literal (the
        // lexer reads `-9223372036854775808` as unary minus of an
        // out-of-range magnitude).
        let max = i64::MAX;
        for text in [
            format!("{max} + 1"),
            format!("0 - {max} - 2"),
            format!("{max} * 2"),
            format!("ABS(0 - {max} - 1)"),
        ] {
            let err = evaluate(&expr(&text), None, &mut ctx()).unwrap_err();
            assert!(
                matches!(&err, SqlError::Evaluation(msg) if msg.contains("overflow")),
                "`{text}` should report overflow, got: {err}"
            );
        }
        // The boundary cases themselves still evaluate.
        assert_eq!(eval_text(&format!("{max} + 0")), Value::Int(i64::MAX));
        assert_eq!(eval_text(&format!("ABS(0 - {max})")), Value::Int(i64::MAX));
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        assert_eq!(eval_text("1 < 2"), Value::Int(1));
        assert_eq!(eval_text("2 <= 1"), Value::Int(0));
        assert_eq!(eval_text("'abc' = 'abc'"), Value::Int(1));
        assert_eq!(eval_text("'abc' < 'abd'"), Value::Int(1));
        assert_eq!(eval_text("1 < 2 AND 3 > 4"), Value::Int(0));
        assert_eq!(eval_text("1 < 2 OR 3 > 4"), Value::Int(1));
        assert_eq!(eval_text("NOT (1 = 1)"), Value::Int(0));
    }

    #[test]
    fn null_semantics() {
        assert_eq!(eval_text("NULL + 1"), Value::Null);
        assert_eq!(eval_text("NULL = NULL"), Value::Int(0));
        assert_eq!(eval_text("NULL IS NULL"), Value::Int(1));
        assert_eq!(eval_text("1 IS NOT NULL"), Value::Int(1));
        assert!(!is_truthy(&Value::Null));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval_text("ABS(-4)"), Value::Int(4));
        assert_eq!(eval_text("SQRT(9.0)"), Value::Double(3.0));
        assert_eq!(eval_text("POWER(2, 10)"), Value::Double(1024.0));
        assert_eq!(eval_text("LENGTH('hello')"), Value::Int(5));
        let Value::Double(p) = eval_text("SIGMOID(0)") else {
            panic!()
        };
        assert!((p - 0.5).abs() < 1e-12);
        let Value::Double(r) = eval_text("RANDOM()") else {
            panic!()
        };
        assert!((0.0..1.0).contains(&r));
    }

    #[test]
    fn predict_scores_through_the_cached_snapshot() {
        use bismarck_core::serving::ServingTask;
        let mut ctx = ctx();
        ctx.models.insert(
            "m".into(),
            Arc::new(ModelSnapshot::detached(
                ServingTask::LeastSquares,
                vec![2.0, -1.0],
            )),
        );
        assert_eq!(
            evaluate(&expr("PREDICT('m', ARRAY[3.0, 4.0])"), None, &mut ctx).unwrap(),
            Value::Double(2.0)
        );
        // Variadic dense form and sparse features both work.
        assert_eq!(
            evaluate(&expr("PREDICT('m', 3.0, 4.0)"), None, &mut ctx).unwrap(),
            Value::Double(2.0)
        );
        assert_eq!(
            evaluate(&expr("PREDICT('m', {0: 1.0})"), None, &mut ctx).unwrap(),
            Value::Double(2.0)
        );
        let err = evaluate(&expr("PREDICT('missing', 1.0)"), None, &mut ctx).unwrap_err();
        assert!(err.to_string().contains("unknown model"), "{err}");
        let err = evaluate(&expr("PREDICT('m')"), None, &mut ctx).unwrap_err();
        assert!(err.to_string().contains("model name and features"), "{err}");
        let err = evaluate(&expr("PREDICT(1, 2.0)"), None, &mut ctx).unwrap_err();
        assert!(err.to_string().contains("model name literal"), "{err}");
    }

    #[test]
    fn unknown_function_is_an_analysis_error() {
        let err = evaluate(&expr("FROBNICATE(1)"), None, &mut ctx()).unwrap_err();
        assert!(matches!(err, SqlError::Analysis(_)));
    }

    #[test]
    fn vector_literals_and_vector_functions() {
        assert_eq!(
            eval_text("ARRAY[1.0, 2.0, 3.0]"),
            Value::DenseVec(DenseVector::from(vec![1.0, 2.0, 3.0]))
        );
        assert_eq!(eval_text("DIM(ARRAY[1.0, 2.0, 3.0])"), Value::Int(3));
        assert_eq!(eval_text("NNZ({1: 2.0, 40: 1.0})"), Value::Int(2));
        assert_eq!(eval_text("DIM({40: 1.0})"), Value::Int(41));
        assert_eq!(
            eval_text("DOT(ARRAY[1.0, 2.0], ARRAY[3.0, 4.0])"),
            Value::Double(11.0)
        );
        assert_eq!(
            eval_text("DOT({1: 2.0}, ARRAY[5.0, 7.0])"),
            Value::Double(14.0)
        );
    }

    #[test]
    fn column_references_resolve_through_the_schema() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let values = vec![Value::Int(3), Value::Double(-1.0)];
        let row = RowContext {
            schema: &schema,
            values: &values,
        };
        assert_eq!(
            evaluate(&expr("label * 2"), Some(row), &mut ctx()).unwrap(),
            Value::Double(-2.0)
        );
        let err = evaluate(&expr("missing"), Some(row), &mut ctx()).unwrap_err();
        assert!(err.to_string().contains("unknown column"));
    }

    #[test]
    fn column_reference_without_from_is_rejected() {
        let err = evaluate(&expr("label"), None, &mut ctx()).unwrap_err();
        assert!(err.to_string().contains("without a FROM"));
    }

    #[test]
    fn aggregates_reduce_over_groups() {
        let schema = Schema::new(vec![
            Column::new("label", DataType::Double),
            Column::nullable("score", DataType::Double),
        ])
        .unwrap();
        let rows = vec![
            vec![Value::Double(1.0), Value::Double(2.0)],
            vec![Value::Double(1.0), Value::Double(4.0)],
            vec![Value::Double(1.0), Value::Null],
        ];
        let mut ctx = ctx();
        assert_eq!(
            evaluate_grouped(&expr("COUNT(*)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            evaluate_grouped(&expr("COUNT(score)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            evaluate_grouped(&expr("SUM(score)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Double(6.0)
        );
        assert_eq!(
            evaluate_grouped(&expr("AVG(score)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(
            evaluate_grouped(&expr("MIN(score)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Double(2.0)
        );
        assert_eq!(
            evaluate_grouped(&expr("MAX(score) - MIN(score)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Double(2.0)
        );
        // Non-aggregate parts bind to the group's first row.
        assert_eq!(
            evaluate_grouped(&expr("label"), &schema, &rows, &mut ctx).unwrap(),
            Value::Double(1.0)
        );
    }

    #[test]
    fn aggregate_in_scalar_context_is_rejected() {
        let err = evaluate(&expr("AVG(x)"), None, &mut ctx()).unwrap_err();
        assert!(err.to_string().contains("not allowed"));
    }

    #[test]
    fn value_ordering_is_total_and_null_first() {
        assert_eq!(compare_values(&Value::Null, &Value::Int(0)), Ordering::Less);
        assert_eq!(
            compare_values(&Value::Int(2), &Value::Double(2.0)),
            Ordering::Equal
        );
        assert_eq!(
            compare_values(&Value::Double(3.5), &Value::Int(3)),
            Ordering::Greater
        );
        assert_eq!(
            compare_values(&Value::Text("a".into()), &Value::Text("b".into())),
            Ordering::Less
        );
    }
}
