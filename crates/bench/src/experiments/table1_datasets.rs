//! Table 1 — dataset statistics for the generated stand-ins.

use bismarck_datagen::{dataset_stats, DatasetStats};

use super::datasets;
use super::render_table;
use super::scale::Scale;

/// Result of the Table 1 experiment: one stats row per dataset.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Per-dataset statistics in the paper's row order.
    pub rows: Vec<DatasetStats>,
}

/// Generate every dataset stand-in and collect its statistics.
pub fn run(scale: Scale) -> Table1Result {
    let forest = datasets::forest(scale);
    let dblife = datasets::dblife(scale);
    let movielens = datasets::movielens(scale);
    let conll = datasets::conll(scale);
    let classify = datasets::classify_large(scale);
    let matrix = datasets::matrix_large(scale);
    let dblp = datasets::dblp(scale);

    let (ml_rows, ml_cols, _, _) = datasets::movielens_shape(scale);
    let (mx_rows, mx_cols, _, _) = datasets::matrix_large_shape(scale);
    let (conll_features, _) = datasets::conll_shape(scale);

    let rows = vec![
        dataset_stats(&forest, datasets::feature_dimension(&forest).to_string()),
        dataset_stats(&dblife, datasets::feature_dimension(&dblife).to_string()),
        dataset_stats(&movielens, format!("{ml_rows} x {ml_cols}")),
        dataset_stats(&conll, conll_features.to_string()),
        dataset_stats(
            &classify,
            datasets::feature_dimension(&classify).to_string(),
        ),
        dataset_stats(&matrix, format!("{mx_rows} x {mx_cols}")),
        dataset_stats(&dblp, conll_features.to_string()),
    ];
    Table1Result { rows }
}

impl std::fmt::Display for Table1Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 1 — dataset statistics (synthetic stand-ins)")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.dimension.clone(),
                    r.examples.to_string(),
                    r.size_label(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["Dataset", "Dimension", "# Examples", "Size"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One run shared by every test of this module.
    fn small() -> &'static Table1Result {
        static RESULT: OnceLock<Table1Result> = OnceLock::new();
        RESULT.get_or_init(|| run(Scale::Small))
    }

    #[test]
    fn produces_a_row_per_dataset() {
        let result = small();
        assert_eq!(result.rows.len(), 7);
        let names: Vec<&str> = result.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "forest",
                "dblife",
                "movielens",
                "conll",
                "classify_large",
                "matrix_large",
                "dblp"
            ]
        );
        assert!(result.rows.iter().all(|r| r.examples > 0 && r.bytes > 0));
    }

    #[test]
    fn display_renders_all_rows() {
        let result = small();
        let text = result.to_string();
        for row in &result.rows {
            assert!(text.contains(&row.name));
        }
    }
}
