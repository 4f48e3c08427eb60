//! Expression binding and evaluation over storage [`Value`]s.
//!
//! An [`Expr`] is evaluated in two steps. [`BoundExpr::bind`] runs **once per
//! statement**, before any row is read: it turns a column name into its
//! position in the source schema, a function name into a [`ScalarFn`] (or,
//! under [`BoundExpr::bind_grouped`], an aggregate into a slot of the group's
//! [`Accumulator`]s) with its arity checked, and `PREDICT`'s model literal
//! into the `Arc<ModelSnapshot>` the executor acquired for the statement.
//! Unknown columns, functions and models, wrong arities and misplaced
//! aggregates are therefore reported whether or not the table has a row.
//! [`BoundExpr::eval`] then runs **once per row** and is the only function
//! that computes a value from an expression node: it looks up no name,
//! hashes nothing and allocates only for a value it has to create.
//!
//! What is lent and what is owned: `eval` returns a `Cow` — a literal, a
//! cell of a row that holds values ([`RowRef::Values`]) and a finished
//! aggregate are lent; an operator's or function's result, and a cell
//! decoded from a column chunk, are owned. `PREDICT`, `DOT`, `DIM` and `NNZ`
//! read a vector *column* through [`RowRef::feature_view`], which copies it
//! in neither layout.
//!
//! Aggregates do not collect their inputs: a grouped select's reductions are
//! [`BoundAggregate`]s, each folded row by row into an [`Accumulator`] that
//! charges the statement's budget for the one value it may hold.
//!
//! Booleans are represented as `Value::Int(1)` / `Value::Int(0)`; any
//! non-zero numeric value is truthy and NULL is falsy, which matches how the
//! executor uses predicates (a `WHERE` clause keeps a row only when its
//! predicate is truthy, so NULL comparisons drop the row, as in SQL's
//! three-valued logic collapsed to two values).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use bismarck_core::governor::QueryGuard;
use bismarck_core::serving::ModelSnapshot;
use bismarck_linalg::{FeatureVectorRef, SparseVector};
use bismarck_storage::{RowRef, Schema, Value};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::ast::{AggregateFn, BinaryOp, Expr, UnaryOp};
use crate::error::{Result, SqlError};

/// Mutable evaluation context shared across a statement: the deterministic
/// RNG backing `RANDOM()` and the per-statement model cache backing
/// `PREDICT()`.
pub(crate) struct EvalContext {
    /// Session RNG; seeded so scripts are reproducible.
    pub rng: StdRng,
    /// Model snapshots resolved for `PREDICT()` calls, keyed by model name.
    /// The executor acquires each referenced model **once per statement**
    /// before binding, and binding moves the snapshot into the `PREDICT`
    /// node, so every row of a `SELECT` is scored against the same snapshot
    /// even while training publishes new versions concurrently.
    pub models: HashMap<String, Arc<ModelSnapshot>>,
    /// Dense scratch for `PREDICT('m', x1, x2, ...)` and `DOT`, so neither
    /// allocates per row.
    scratch: Vec<f64>,
}

impl EvalContext {
    /// A context whose RNG stream is seeded with `seed` and whose model
    /// cache starts empty.
    pub(crate) fn with_seed(seed: u64) -> Self {
        EvalContext {
            rng: StdRng::seed_from_u64(seed),
            models: HashMap::new(),
            scratch: Vec::new(),
        }
    }
}

/// A scalar function, resolved from its name at bind time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ScalarFn {
    /// `RANDOM()`: uniform in `[0, 1)` from the session RNG.
    Random,
    /// `ABS(x)`: integers stay integers.
    Abs,
    /// A function of one number: `SQRT`, `EXP`, `LN` / `LOG`, `FLOOR`,
    /// `CEIL` / `CEILING`, `SIGMOID`.
    Numeric(fn(f64) -> f64),
    /// `POWER(x, y)` / `POW(x, y)`.
    Power,
    /// `LENGTH(text)`.
    Length,
    /// `DIM(vector)`.
    Dim,
    /// `NNZ(vector)`.
    Nnz,
    /// `DOT(vector, vector)`.
    Dot,
}

/// Every scalar function name: the spelling error messages use, what it
/// resolves to, and how many arguments it takes.
const SCALAR_FUNCTIONS: &[(&str, ScalarFn, usize)] = &[
    ("RANDOM", ScalarFn::Random, 0),
    ("ABS", ScalarFn::Abs, 1),
    ("SQRT", ScalarFn::Numeric(f64::sqrt), 1),
    ("EXP", ScalarFn::Numeric(f64::exp), 1),
    ("LN", ScalarFn::Numeric(f64::ln), 1),
    ("LOG", ScalarFn::Numeric(f64::ln), 1),
    ("FLOOR", ScalarFn::Numeric(f64::floor), 1),
    ("CEIL", ScalarFn::Numeric(f64::ceil), 1),
    ("CEILING", ScalarFn::Numeric(f64::ceil), 1),
    ("POWER", ScalarFn::Power, 2),
    ("POW", ScalarFn::Power, 2),
    ("SIGMOID", ScalarFn::Numeric(bismarck_linalg::sigmoid), 1),
    ("LENGTH", ScalarFn::Length, 1),
    ("DIM", ScalarFn::Dim, 1),
    ("NNZ", ScalarFn::Nnz, 1),
    ("DOT", ScalarFn::Dot, 2),
];

/// An [`Expr`] with every name resolved against one schema and one
/// statement's model cache; see the module docs.
#[derive(Debug, Clone)]
pub(crate) enum BoundExpr {
    /// A constant.
    Literal(Value),
    /// The source column at this position.
    Column(usize),
    /// The finished value of the group's aggregate in this slot (only under
    /// [`BoundExpr::bind_grouped`]).
    Aggregate(usize),
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<BoundExpr>,
    },
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<BoundExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// A scalar function call with `args.len()` already checked.
    Scalar {
        /// The function.
        func: ScalarFn,
        /// Its name as error messages spell it.
        name: &'static str,
        /// Argument expressions.
        args: Vec<BoundExpr>,
    },
    /// `PREDICT('model', features)` (one feature expression: a vector) or
    /// `PREDICT('model', x1, x2, ...)` (several: the dense coordinates).
    Predict {
        /// The snapshot the statement acquired for the model name.
        model: Arc<ModelSnapshot>,
        /// The feature expression(s); never empty.
        features: Vec<BoundExpr>,
    },
    /// `ARRAY[e1, e2, ...]`.
    Array(Vec<BoundExpr>),
    /// `{index: value, ...}`.
    Sparse(Vec<(BoundExpr, BoundExpr)>),
}

/// One reduction a grouped `SELECT` runs per group; its state is an
/// [`Accumulator`].
#[derive(Debug, Clone)]
pub(crate) enum BoundAggregate {
    /// `COUNT(*)`: the number of rows.
    CountStar,
    /// A non-aggregate expression in a grouped select: its value on the
    /// group's first row.
    First(BoundExpr),
    /// `COUNT` / `SUM` / `AVG` / `MIN` / `MAX` over the expression's
    /// non-NULL values.
    Call(AggregateFn, BoundExpr),
}

/// What a [`BoundExpr`] may refer to while it is being bound.
struct Binder<'b> {
    /// The source table's schema; `None` for a query without `FROM`.
    schema: Option<&'b Schema>,
    models: &'b HashMap<String, Arc<ModelSnapshot>>,
}

impl BoundExpr {
    /// Bind a scalar expression against `schema` (`None`: there is no source
    /// row, and a column reference is an error) and the models `ctx` holds.
    /// An aggregate call is rejected; grouped select items and order keys go
    /// through [`BoundExpr::bind_grouped`].
    pub(crate) fn bind(
        expr: &Expr,
        schema: Option<&Schema>,
        ctx: &EvalContext,
    ) -> Result<BoundExpr> {
        Binder {
            schema,
            models: &ctx.models,
        }
        .scalar(expr)
    }

    /// Bind a select item or order key of a grouped `SELECT`: each aggregate
    /// call — and each maximal sub-expression that is neither an aggregate
    /// nor an operator over them, which the group's first row answers — is
    /// appended to `aggregates` and replaced by a reference to its slot.
    pub(crate) fn bind_grouped(
        expr: &Expr,
        schema: &Schema,
        ctx: &EvalContext,
        aggregates: &mut Vec<BoundAggregate>,
    ) -> Result<BoundExpr> {
        Binder {
            schema: Some(schema),
            models: &ctx.models,
        }
        .grouped(expr, aggregates)
    }

    /// Bind `expr` against no schema and evaluate it once: the tableless
    /// `SELECT`, a computed `VALUES` position, an analytics-call argument.
    pub(crate) fn eval_constant(expr: &Expr, ctx: &mut EvalContext) -> Result<Value> {
        let bound = BoundExpr::bind(expr, None, ctx)?;
        Ok(bound.eval(RowRef::Values(&[]), &[], ctx)?.into_owned())
    }

    /// Evaluate against one source row and, under
    /// [`BoundExpr::bind_grouped`], the finished aggregates of one group.
    pub(crate) fn eval<'a>(
        &'a self,
        row: RowRef<'a>,
        aggregates: &'a [Value],
        ctx: &mut EvalContext,
    ) -> Result<Cow<'a, Value>> {
        Ok(Cow::Owned(match self {
            BoundExpr::Literal(value) => return Ok(Cow::Borrowed(value)),
            BoundExpr::Column(idx) => return Ok(row.value(*idx)),
            BoundExpr::Aggregate(slot) => return Ok(Cow::Borrowed(&aggregates[*slot])),
            BoundExpr::Unary { op, expr } => apply_unary(*op, &*expr.eval(row, aggregates, ctx)?)?,
            BoundExpr::Binary { left, op, right } => {
                let l = left.eval(row, aggregates, ctx)?;
                let r = right.eval(row, aggregates, ctx)?;
                apply_binary(*op, &l, &r)?
            }
            BoundExpr::IsNull { expr, negated } => {
                bool_value(expr.eval(row, aggregates, ctx)?.is_null() != *negated)
            }
            BoundExpr::Scalar { func, name, args } => {
                apply_scalar(*func, name, args, row, aggregates, ctx)?
            }
            BoundExpr::Predict { model, features } => {
                Value::Double(predict(model, features, row, aggregates, ctx)?)
            }
            BoundExpr::Array(items) => {
                let mut data = Vec::with_capacity(items.len());
                for item in items {
                    let v = item.eval(row, aggregates, ctx)?;
                    data.push(v.as_double().ok_or_else(|| {
                        SqlError::Evaluation("ARRAY elements must be numeric".to_string())
                    })?);
                }
                Value::DenseVec(data)
            }
            BoundExpr::Sparse(pairs) => {
                let mut entries = Vec::with_capacity(pairs.len());
                for (index_expr, value_expr) in pairs {
                    let idx = index_expr
                        .eval(row, aggregates, ctx)?
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
                    let value = value_expr
                        .eval(row, aggregates, ctx)?
                        .as_double()
                        .ok_or_else(|| {
                            SqlError::Evaluation("sparse-vector values must be numeric".to_string())
                        })?;
                    entries.push((idx as usize, value));
                }
                Value::SparseVec(SparseVector::from_pairs(entries))
            }
        }))
    }

    /// Evaluate for a caller that wants a feature vector: a vector *column*
    /// is lent as a view of where it is stored, anything else is evaluated.
    fn lend<'a>(
        &'a self,
        row: RowRef<'a>,
        aggregates: &'a [Value],
        ctx: &mut EvalContext,
    ) -> Result<Lent<'a>> {
        if let BoundExpr::Column(idx) = self {
            if let Some(view) = row.feature_view(*idx) {
                return Ok(Lent::Features(view));
            }
        }
        Ok(Lent::Value(self.eval(row, aggregates, ctx)?))
    }
}

/// What [`BoundExpr::lend`] hands to a vector function.
enum Lent<'a> {
    Features(FeatureVectorRef<'a>),
    Value(Cow<'a, Value>),
}

impl Lent<'_> {
    /// The feature vector, `None` when the value is not one.
    fn features(&self) -> Option<FeatureVectorRef<'_>> {
        match self {
            Lent::Features(view) => Some(*view),
            Lent::Value(value) => value.feature_view(),
        }
    }
}

impl Binder<'_> {
    fn scalar(&self, expr: &Expr) -> Result<BoundExpr> {
        Ok(match expr {
            Expr::Literal(value) => BoundExpr::Literal(value.clone()),
            Expr::Column(name) => {
                let Some(schema) = self.schema else {
                    return Err(SqlError::Analysis(format!(
                        "column '{name}' referenced in a query without a FROM clause"
                    )));
                };
                BoundExpr::Column(
                    schema
                        .index_of(name)
                        .map_err(|_| SqlError::Analysis(format!("unknown column '{name}'")))?,
                )
            }
            Expr::Wildcard => {
                return Err(SqlError::Analysis(
                    "'*' is only valid inside COUNT(*)".to_string(),
                ))
            }
            Expr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.scalar(expr)?),
            },
            Expr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(self.scalar(left)?),
                op: *op,
                right: Box::new(self.scalar(right)?),
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.scalar(expr)?),
                negated: *negated,
            },
            Expr::Function { name, args } => {
                if AggregateFn::from_name(name).is_some() {
                    return Err(SqlError::Analysis(format!(
                        "aggregate {name}() is not allowed in this context"
                    )));
                }
                // Arguments first, so a bad argument is reported ahead of a
                // bad call, as when both were found while evaluating.
                let args = self.scalars(args)?;
                if name.eq_ignore_ascii_case("PREDICT") {
                    return self.predict(args);
                }
                let Some(&(name, func, arity)) = SCALAR_FUNCTIONS
                    .iter()
                    .find(|(known, ..)| name.eq_ignore_ascii_case(known))
                else {
                    return Err(SqlError::Analysis(format!(
                        "unknown function {}()",
                        name.to_ascii_uppercase()
                    )));
                };
                if args.len() != arity {
                    return Err(arity_error(name, arity, args.len()));
                }
                BoundExpr::Scalar { func, name, args }
            }
            Expr::ArrayLiteral(items) => BoundExpr::Array(self.scalars(items)?),
            Expr::SparseLiteral(pairs) => BoundExpr::Sparse(
                pairs
                    .iter()
                    .map(|(index, value)| Ok((self.scalar(index)?, self.scalar(value)?)))
                    .collect::<Result<_>>()?,
            ),
        })
    }

    fn scalars(&self, exprs: &[Expr]) -> Result<Vec<BoundExpr>> {
        exprs.iter().map(|expr| self.scalar(expr)).collect()
    }

    /// `PREDICT('model', features) | PREDICT('model', x1, x2, ...)` over its
    /// bound arguments: the model is the one resolved once per statement (a
    /// live serving handle's latest snapshot, or a persisted model table).
    fn predict(&self, mut args: Vec<BoundExpr>) -> Result<BoundExpr> {
        if args.len() < 2 {
            return Err(SqlError::Analysis(format!(
                "PREDICT() expects a model name and features, got {} argument(s)",
                args.len()
            )));
        }
        let BoundExpr::Literal(Value::Text(model_name)) = &args[0] else {
            return Err(SqlError::Analysis(
                "the first argument of PREDICT() must be a model name literal".into(),
            ));
        };
        let model = self.models.get(model_name).cloned().ok_or_else(|| {
            SqlError::Evaluation(format!(
                "unknown model '{model_name}': PREDICT() needs a registered \
                 serving handle or a persisted model table of that name"
            ))
        })?;
        args.remove(0);
        Ok(BoundExpr::Predict {
            model,
            features: args,
        })
    }

    fn grouped(&self, expr: &Expr, aggregates: &mut Vec<BoundAggregate>) -> Result<BoundExpr> {
        let aggregate = match expr {
            Expr::Unary { op, expr } => {
                return Ok(BoundExpr::Unary {
                    op: *op,
                    expr: Box::new(self.grouped(expr, aggregates)?),
                })
            }
            Expr::Binary { left, op, right } => {
                return Ok(BoundExpr::Binary {
                    left: Box::new(self.grouped(left, aggregates)?),
                    op: *op,
                    right: Box::new(self.grouped(right, aggregates)?),
                })
            }
            Expr::IsNull { expr, negated } => {
                return Ok(BoundExpr::IsNull {
                    expr: Box::new(self.grouped(expr, aggregates)?),
                    negated: *negated,
                })
            }
            Expr::Function { name, args } => match AggregateFn::from_name(name) {
                Some(func) => match args.as_slice() {
                    [Expr::Wildcard] if func == AggregateFn::Count => BoundAggregate::CountStar,
                    [arg] => BoundAggregate::Call(func, self.scalar(arg)?),
                    [] => {
                        return Err(SqlError::Analysis(format!(
                            "{}() requires an argument (or * for COUNT)",
                            func.name()
                        )))
                    }
                    _ => return Err(arity_error(func.name(), 1, args.len())),
                },
                None => BoundAggregate::First(self.scalar(expr)?),
            },
            other => BoundAggregate::First(self.scalar(other)?),
        };
        aggregates.push(aggregate);
        Ok(BoundExpr::Aggregate(aggregates.len() - 1))
    }
}

fn arity_error(name: &str, expected: usize, got: usize) -> SqlError {
    SqlError::Analysis(format!(
        "{name}() expects {expected} argument(s), got {got}"
    ))
}

/// The running state of one [`BoundAggregate`] over one group. Values are
/// folded in row order as the scan lends them; only `MIN`, `MAX` and a
/// first-row expression keep one, and what they keep is charged to the
/// statement's budget before it is kept.
#[derive(Debug, Clone)]
pub(crate) struct Accumulator {
    /// Rows (`COUNT(*)`) or non-NULL values seen.
    count: usize,
    sum: f64,
    held: Option<Value>,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator {
            count: 0,
            // Whatever `Iterator::sum` starts from, so `SUM` / `AVG` are the
            // bits that summing the collected values gives.
            sum: std::iter::empty::<f64>().sum(),
            held: None,
        }
    }
}

impl Accumulator {
    /// Fold one row of the group into the state.
    pub(crate) fn fold(
        &mut self,
        aggregate: &BoundAggregate,
        row: RowRef<'_>,
        ctx: &mut EvalContext,
        guard: &QueryGuard,
    ) -> Result<()> {
        let (func, arg) = match aggregate {
            BoundAggregate::CountStar => {
                self.count += 1;
                return Ok(());
            }
            BoundAggregate::First(arg) => {
                if self.count == 0 {
                    self.count = 1;
                    self.hold(arg.eval(row, &[], ctx)?, guard)?;
                }
                return Ok(());
            }
            BoundAggregate::Call(func, arg) => (*func, arg),
        };
        // NULLs are skipped, like SQL does.
        let value = arg.eval(row, &[], ctx)?;
        if value.is_null() {
            return Ok(());
        }
        self.count += 1;
        match func {
            AggregateFn::Count => {}
            AggregateFn::Sum | AggregateFn::Avg => {
                self.sum += value.as_double().ok_or_else(|| {
                    SqlError::Evaluation(format!("{}() argument must be numeric", func.name()))
                })?;
            }
            // `Iterator::min_by` keeps the first of equal minima and
            // `max_by` the last of equal maxima; so does this.
            AggregateFn::Min | AggregateFn::Max => {
                let replace = match &self.held {
                    None => true,
                    Some(held) => {
                        (compare_values(held, &value) == Ordering::Greater)
                            == (func == AggregateFn::Min)
                    }
                };
                if replace {
                    self.hold(value, guard)?;
                }
            }
        }
        Ok(())
    }

    /// Keep `value`, charged before it is kept; what it replaces is
    /// returned to the budget.
    fn hold(&mut self, value: Cow<'_, Value>, guard: &QueryGuard) -> Result<()> {
        guard.reserve(approx_value_bytes(&value))?;
        if let Some(old) = self.held.replace(value.into_owned()) {
            guard.budget().release(approx_value_bytes(&old));
        }
        Ok(())
    }

    /// The aggregate's value over the rows folded so far.
    pub(crate) fn finish(self, aggregate: &BoundAggregate) -> Result<Value> {
        Ok(match aggregate {
            BoundAggregate::CountStar | BoundAggregate::Call(AggregateFn::Count, _) => {
                Value::Int(self.count as i64)
            }
            BoundAggregate::First(_) => self
                .held
                .ok_or_else(|| SqlError::Evaluation("aggregate over an empty group".into()))?,
            BoundAggregate::Call(func, _) => match func {
                AggregateFn::Sum | AggregateFn::Avg if self.count == 0 => Value::Null,
                AggregateFn::Sum => Value::Double(self.sum),
                AggregateFn::Avg => Value::Double(self.sum / self.count as f64),
                _ => self.held.unwrap_or(Value::Null),
            },
        })
    }
}

/// Approximate heap footprint of a value a statement keeps, for charging its
/// [`MemoryBudget`](bismarck_core::governor::MemoryBudget). The estimate is
/// deliberately simple — inline enum size plus the dominant heap payload of
/// each variant — because the budget is a governance backstop, not an
/// allocator.
pub(crate) fn approx_value_bytes(value: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match value {
            Value::Null | Value::Int(_) | Value::Double(_) => 0,
            Value::Text(s) => s.len(),
            Value::DenseVec(v) => v.len() * std::mem::size_of::<f64>(),
            // index + value per stored entry.
            Value::SparseVec(v) => v.nnz() * 16,
            Value::Sequence(seq) => seq
                .iter()
                .map(|(features, _)| features.nnz() * 16 + 4)
                .sum(),
        }
}

/// The boolean encoding used by predicates.
pub(crate) fn bool_value(b: bool) -> Value {
    Value::Int(if b { 1 } else { 0 })
}

/// Truthiness of a value: non-zero numerics are true, NULL and everything
/// else is false.
pub(crate) fn is_truthy(value: &Value) -> bool {
    match value {
        Value::Int(v) => *v != 0,
        Value::Double(v) => *v != 0.0,
        _ => false,
    }
}

fn apply_unary(op: UnaryOp, value: &Value) -> Result<Value> {
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
                Ok(bool_value(!is_truthy(value)))
            }
        }
    }
}

fn apply_binary(op: BinaryOp, left: &Value, right: &Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        And => Ok(bool_value(is_truthy(left) && is_truthy(right))),
        Or => Ok(bool_value(is_truthy(left) || is_truthy(right))),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if left.is_null() || right.is_null() {
                // Comparisons against NULL are never true.
                return Ok(bool_value(false));
            }
            let ordering = compare_values(left, right);
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
            if let (Value::Int(a), Value::Int(b)) = (left, right) {
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
pub(crate) fn compare_values(a: &Value, b: &Value) -> Ordering {
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

/// Apply a scalar function to its (arity-checked) arguments, evaluated in
/// order before any of them is inspected.
fn apply_scalar(
    func: ScalarFn,
    name: &str,
    args: &[BoundExpr],
    row: RowRef<'_>,
    aggregates: &[Value],
    ctx: &mut EvalContext,
) -> Result<Value> {
    let numeric = |value: &Value| -> Result<f64> {
        value
            .as_double()
            .ok_or_else(|| SqlError::Evaluation(format!("{name}() argument must be numeric")))
    };
    let not_a_vector = |plural: &str| SqlError::Evaluation(format!("{name}() expects {plural}"));
    Ok(match func {
        ScalarFn::Random => Value::Double(ctx.rng.gen_range(0.0..1.0)),
        ScalarFn::Power => {
            let base = args[0].eval(row, aggregates, ctx)?;
            let exponent = args[1].eval(row, aggregates, ctx)?;
            Value::Double(numeric(&base)?.powf(numeric(&exponent)?))
        }
        ScalarFn::Dim | ScalarFn::Nnz => {
            let arg = args[0].lend(row, aggregates, ctx)?;
            let view = arg.features().ok_or_else(|| not_a_vector("a vector"))?;
            Value::Int(match func {
                ScalarFn::Dim => view.dimension(),
                _ => view.nnz(),
            } as i64)
        }
        ScalarFn::Abs => match &*args[0].eval(row, aggregates, ctx)? {
            Value::Int(v) => v
                .checked_abs()
                .map(Value::Int)
                .ok_or_else(|| SqlError::Evaluation("integer overflow in ABS()".into()))?,
            other => Value::Double(numeric(other)?.abs()),
        },
        ScalarFn::Numeric(f) => Value::Double(f(numeric(&*args[0].eval(row, aggregates, ctx)?)?)),
        ScalarFn::Length => match &*args[0].eval(row, aggregates, ctx)? {
            Value::Text(s) => Value::Int(s.chars().count() as i64),
            other => {
                return Err(SqlError::Evaluation(format!(
                    "LENGTH() expects text, got {other:?}"
                )))
            }
        },
        ScalarFn::Dot => {
            let a = args[0].lend(row, aggregates, ctx)?;
            let b = args[1].lend(row, aggregates, ctx)?;
            let a = a.features().ok_or_else(|| not_a_vector("vectors"))?;
            let b = b.features().ok_or_else(|| not_a_vector("vectors"))?;
            // Only `a`'s stored coordinates can contribute, so nothing is
            // sized by `b`'s indices: a sparse index is not an allocation.
            Value::Double(match (a, b) {
                (FeatureVectorRef::Dense(x), FeatureVectorRef::Dense(w)) if w.len() >= x.len() => {
                    a.dot(w)
                }
                // `b` cut or zero-padded to `a`'s coordinates.
                (FeatureVectorRef::Dense(x), _) => {
                    let dense = &mut ctx.scratch;
                    dense.clear();
                    dense.resize(x.len(), 0.0);
                    for (i, v) in b.iter_entries().take_while(|&(i, _)| i < x.len()) {
                        dense[i] = v;
                    }
                    a.dot(dense)
                }
                (FeatureVectorRef::Sparse { .. }, _) => {
                    let mut acc = 0.0;
                    for (i, v) in a.iter_entries() {
                        acc += b.get(i) * v;
                    }
                    acc
                }
            })
        }
    })
}

/// Score one row's features against `model`.
fn predict(
    model: &ModelSnapshot,
    features: &[BoundExpr],
    row: RowRef<'_>,
    aggregates: &[Value],
    ctx: &mut EvalContext,
) -> Result<f64> {
    if let [vector] = features {
        let vector = vector.lend(row, aggregates, ctx)?;
        let view = vector.features().ok_or_else(|| {
            SqlError::Evaluation(
                "the second argument of PREDICT() must be a feature vector \
                 (or pass the features as individual numbers)"
                    .into(),
            )
        })?;
        return Ok(model.predict(view));
    }
    // A nested variadic PREDICT finds the scratch taken and uses its own.
    let mut dense = std::mem::take(&mut ctx.scratch);
    dense.clear();
    // Every feature is evaluated before the first non-numeric one is
    // reported.
    let mut not_numeric = None;
    for (i, feature) in features.iter().enumerate() {
        match feature.eval(row, aggregates, ctx)?.as_double() {
            Some(x) => dense.push(x),
            None => not_numeric = not_numeric.or(Some(i + 1)),
        }
    }
    if let Some(i) = not_numeric {
        return Err(SqlError::Evaluation(format!(
            "PREDICT() feature {i} is not numeric"
        )));
    }
    let score = model.predict(FeatureVectorRef::Dense(&dense));
    ctx.scratch = dense;
    Ok(score)
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

    /// Bind `expr` against `row`'s schema (none: a query without `FROM`)
    /// and evaluate it over that row: the one way these tests reach the
    /// evaluator.
    fn evaluate(
        expr: &Expr,
        row: Option<(&Schema, &[Value])>,
        ctx: &mut EvalContext,
    ) -> Result<Value> {
        let bound = BoundExpr::bind(expr, row.map(|(schema, _)| schema), ctx)?;
        let values = row.map_or(&[][..], |(_, values)| values);
        Ok(bound.eval(RowRef::Values(values), &[], ctx)?.into_owned())
    }

    /// [`evaluate`] for a select item over one group of rows: bind it
    /// grouped, fold every row into its accumulators, evaluate it over what
    /// they finish with.
    fn evaluate_over_group(
        expr: &Expr,
        schema: &Schema,
        rows: &[Vec<Value>],
        ctx: &mut EvalContext,
    ) -> Result<Value> {
        let mut aggregates = Vec::new();
        let bound = BoundExpr::bind_grouped(expr, schema, ctx, &mut aggregates)?;
        let guard = QueryGuard::unlimited();
        let mut finished = Vec::new();
        for aggregate in &aggregates {
            let mut accumulator = Accumulator::default();
            for row in rows {
                accumulator.fold(aggregate, RowRef::Values(row), ctx, &guard)?;
            }
            finished.push(accumulator.finish(aggregate)?);
        }
        Ok(bound
            .eval(RowRef::Values(&[]), &finished, ctx)?
            .into_owned())
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
            Value::DenseVec(vec![1.0, 2.0, 3.0])
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

    /// `DOT` over every pair of layouts gives, bit for bit, what densifying
    /// `b` to the wider dimension and taking `a`'s kernel against it gives.
    #[test]
    fn dot_matches_the_densified_reference_bit_for_bit() {
        let dense = |v: &[f64]| Value::DenseVec(v.to_vec());
        let sparse =
            |pairs: &[(usize, f64)]| Value::SparseVec(SparseVector::from_pairs(pairs.to_vec()));
        let (third, tenth) = (1.0 / 3.0, 0.1);
        let long: Vec<f64> = (0..11).map(|i| (i as f64 + 0.7) * tenth).collect();
        let cases = [
            // dense · dense, equal and unequal lengths
            (
                dense(&[third, tenth, 0.7, -1.9]),
                dense(&[0.3, -2.1, third, 5.5]),
            ),
            (dense(&long), dense(&long[..6])),
            (dense(&long[..5]), dense(&long)),
            (dense(&[]), dense(&[1.0])),
            // dense · sparse
            (dense(&long), sparse(&[(1, third), (4, -tenth), (9, 0.3)])),
            (dense(&long[..3]), sparse(&[(2, third), (40, 7.0)])),
            // sparse · dense
            (sparse(&[(0, third), (5, tenth), (10, -0.3)]), dense(&long)),
            (sparse(&[(1, third), (30, 2.0)]), dense(&long[..4])),
            // sparse · sparse
            (
                sparse(&[(0, third), (3, tenth), (8, 1.7)]),
                sparse(&[(3, 0.3), (8, third), (12, 1.0)]),
            ),
            (sparse(&[(2, tenth)]), sparse(&[])),
        ];
        for (a, b) in &cases {
            let (va, vb) = (a.feature_view().unwrap(), b.feature_view().unwrap());
            let dim = va.dimension().max(vb.dimension());
            let reference = va.dot(&vb.to_dense(dim));
            let schema = Schema::new(vec![
                Column::new("a", a.data_type().unwrap()),
                Column::new("b", b.data_type().unwrap()),
            ])
            .unwrap();
            let values = [a.clone(), b.clone()];
            let Value::Double(got) =
                evaluate(&expr("DOT(a, b)"), Some((&schema, &values)), &mut ctx()).unwrap()
            else {
                panic!("DOT returned a non-double")
            };
            assert_eq!(got.to_bits(), reference.to_bits(), "DOT({a:?}, {b:?})");
        }
    }

    #[test]
    fn column_references_resolve_through_the_schema() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let values = [Value::Int(3), Value::Double(-1.0)];
        let row = (&schema, &values[..]);
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
            evaluate_over_group(&expr("COUNT(*)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            evaluate_over_group(&expr("COUNT(score)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            evaluate_over_group(&expr("SUM(score)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Double(6.0)
        );
        assert_eq!(
            evaluate_over_group(&expr("AVG(score)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(
            evaluate_over_group(&expr("MIN(score)"), &schema, &rows, &mut ctx).unwrap(),
            Value::Double(2.0)
        );
        assert_eq!(
            evaluate_over_group(&expr("MAX(score) - MIN(score)"), &schema, &rows, &mut ctx)
                .unwrap(),
            Value::Double(2.0)
        );
        // Non-aggregate parts bind to the group's first row.
        assert_eq!(
            evaluate_over_group(&expr("label"), &schema, &rows, &mut ctx).unwrap(),
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
