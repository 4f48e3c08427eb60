//! Inputs generated from the workload seed, and the harness's own reference
//! arithmetic that outputs are validated against.

use bismarck_datagen::classification::{
    dense_classification, sparse_classification, DenseClassificationConfig,
    SparseClassificationConfig,
};
use bismarck_storage::{Table, TupleScan};

use crate::spec::DENSE_DIM;

/// Column positions of the generated `(id, vec, label)` schema.
pub const FEATURES_COL: usize = 1;
pub const LABEL_COL: usize = 2;

/// How many rows of each PREDICT result are compared with the reference.
pub const PREDICT_SAMPLE: usize = 1_000;

/// Largest difference accepted between an engine score and the reference.
pub const SCORE_TOLERANCE: f64 = 1e-12;

/// Forest-like dense table (d = 54), classes interleaved in storage order.
pub fn dense_table(name: &str, rows: usize, seed: u64) -> Table {
    dense_classification(
        name,
        DenseClassificationConfig {
            examples: rows,
            dimension: DENSE_DIM,
            clustered_by_label: false,
            seed,
            ..DenseClassificationConfig::default()
        },
    )
}

/// DBLife-like sparse table (vocabulary 20 000, about 40 non-zeros a row),
/// classes interleaved in storage order.
pub fn sparse_table(name: &str, rows: usize, seed: u64) -> Table {
    sparse_classification(
        name,
        SparseClassificationConfig {
            examples: rows,
            clustered_by_label: false,
            seed,
            ..SparseClassificationConfig::default()
        },
    )
}

/// Owned copies of the dense feature vectors of a tuple source, in storage
/// order (a columnar scan lends each tuple only for the callback).
pub fn dense_features<S: TupleScan + ?Sized>(source: &S) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(source.tuple_count());
    source.scan_tuples(&mut |tuple| {
        let view = tuple
            .feature_view(FEATURES_COL)
            .expect("generated rows carry a feature vector");
        rows.push(view.to_dense(DENSE_DIM).as_slice().to_vec());
    });
    rows
}

/// The harness's own `w·x`: a plain left-to-right sum, deliberately not the
/// engine's unrolled kernel.
pub fn reference_dot(weights: &[f64], x: &[f64]) -> f64 {
    weights.iter().zip(x).map(|(w, v)| w * v).sum()
}

/// Check up to [`PREDICT_SAMPLE`] evenly spaced `scores` against the
/// reference `link(w·x)` over `features`.
pub fn check_scores(
    scores: &[f64],
    features: &[Vec<f64>],
    weights: &[f64],
    link: impl Fn(f64) -> f64,
) -> Result<(), String> {
    if scores.len() != features.len() {
        return Err(format!(
            "PREDICT returned {} rows for {} input rows",
            scores.len(),
            features.len()
        ));
    }
    let stride = (scores.len() / PREDICT_SAMPLE).max(1);
    for i in (0..scores.len()).step_by(stride) {
        let expected = link(reference_dot(weights, &features[i]));
        if !(scores[i] - expected).abs().le(&SCORE_TOLERANCE) {
            return Err(format!(
                "row {i}: PREDICT gave {}, reference gives {expected}",
                scores[i]
            ));
        }
    }
    Ok(())
}

/// `CREATE TABLE` for the generated dense schema.
pub fn create_dense_table_sql(name: &str) -> String {
    format!("CREATE TABLE {name} (id INT, vec DENSE_VEC, label DOUBLE)")
}

/// The rows of `table` as `INSERT ... VALUES` statements of `batch_rows` rows
/// each, every number written with the digits that read back to the same
/// bits.
pub fn insert_statements(table: &Table, name: &str, batch_rows: usize) -> Vec<String> {
    let mut statements = Vec::new();
    let mut current = String::new();
    let mut in_batch = 0;
    for tuple in table.scan() {
        if in_batch == 0 {
            current = format!("INSERT INTO {name} VALUES ");
        } else {
            current.push_str(", ");
        }
        let id = tuple.get_int(0).expect("generated id");
        let label = tuple.get_double(LABEL_COL).expect("generated label");
        let view = tuple
            .feature_view(FEATURES_COL)
            .expect("generated feature vector");
        current.push_str(&format!("({id}, ARRAY["));
        for (k, (_, v)) in view.iter_entries().enumerate() {
            if k > 0 {
                current.push_str(", ");
            }
            current.push_str(&format!("{v:?}"));
        }
        current.push_str(&format!("], {label:?})"));
        in_batch += 1;
        if in_batch == batch_rows {
            statements.push(std::mem::take(&mut current));
            in_batch = 0;
        }
    }
    if in_batch > 0 {
        statements.push(current);
    }
    statements
}

/// Bytes of user data in `rows` dense rows: the features, an id and a label.
pub fn dense_user_bytes(rows: usize) -> f64 {
    (rows * (8 * DENSE_DIM + 16)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bismarck_sql::SqlSession;

    #[test]
    fn same_seed_gives_same_inputs_and_another_seed_differs() {
        let a = dense_features(&dense_table("t", 50, 9));
        let b = dense_features(&dense_table("t", 50, 9));
        let c = dense_features(&dense_table("t", 50, 10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn insert_statements_round_trip_every_bit() {
        let table = dense_table("src", 23, 3);
        let statements = insert_statements(&table, "d", 10);
        assert_eq!(statements.len(), 3);
        let mut session = SqlSession::new();
        session.execute(&create_dense_table_sql("d")).unwrap();
        for statement in &statements {
            session.execute(statement).unwrap();
        }
        let loaded = session.database().table("d").unwrap();
        assert_eq!(loaded.len(), 23);
        for (a, b) in table.scan().zip(loaded.scan()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn score_check_accepts_the_reference_and_rejects_a_drifted_score() {
        let features = vec![vec![1.0, 2.0], vec![-0.5, 4.0]];
        let weights = [0.25, -1.0];
        let mut scores: Vec<f64> = features
            .iter()
            .map(|x| reference_dot(&weights, x))
            .collect();
        assert!(check_scores(&scores, &features, &weights, |s| s).is_ok());
        scores[1] += 1e-9;
        assert!(check_scores(&scores, &features, &weights, |s| s).is_err());
        assert!(check_scores(&scores[..1], &features, &weights, |s| s).is_err());
        scores[1] = f64::NAN;
        assert!(check_scores(&scores, &features, &weights, |s| s).is_err());
    }
}
