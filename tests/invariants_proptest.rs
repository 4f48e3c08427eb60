//! Property-based integration tests on cross-crate invariants.

use bismarck_core::igd::IgdAggregate;
use bismarck_core::task::IgdTask;
use bismarck_core::tasks::{LeastSquaresTask, LogisticRegressionTask, PortfolioTask, SvmTask};
use bismarck_core::{StepSizeSchedule, Trainer, TrainerConfig};
use bismarck_storage::{Column, DataType, ScanOrder, Schema, Table, Value};
use bismarck_uda::{run_segmented, run_sequential, ConvergenceTest};
use proptest::prelude::*;

/// Build a small dense classification table from generated rows.
fn table_from_rows(rows: &[(Vec<f64>, f64)]) -> Table {
    let schema = Schema::new(vec![
        Column::new("vec", DataType::DenseVec),
        Column::new("label", DataType::Double),
    ])
    .unwrap();
    let mut t = Table::new("prop", schema);
    for (x, y) in rows {
        t.insert(vec![Value::from(x.clone()), Value::Double(*y)])
            .unwrap();
    }
    t
}

fn rows_strategy(dim: usize, max_rows: usize) -> impl Strategy<Value = Vec<(Vec<f64>, f64)>> {
    prop::collection::vec(
        (
            prop::collection::vec(-3.0f64..3.0, dim..=dim),
            prop::sample::select(vec![-1.0f64, 1.0]),
        ),
        1..max_rows,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One IGD epoch never produces NaN/inf for LR or SVM with a sane step.
    #[test]
    fn igd_epoch_keeps_model_finite(rows in rows_strategy(4, 40), alpha in 0.001f64..0.5) {
        let table = table_from_rows(&rows);
        let lr = LogisticRegressionTask::new(0, 1, 4);
        let svm = SvmTask::new(0, 1, 4);
        for model in [
            run_sequential(&IgdAggregate::new(&lr, alpha, lr.initial_model()), &table, None).model.into_vec(),
            run_sequential(&IgdAggregate::new(&svm, alpha, svm.initial_model()), &table, None).model.into_vec(),
        ] {
            prop_assert!(model.iter().all(|v| v.is_finite()));
        }
    }

    /// The objective after one epoch of least squares with a small step never
    /// increases relative to the starting model (descent on average).
    #[test]
    fn small_step_least_squares_does_not_blow_up(rows in rows_strategy(3, 30)) {
        let table = table_from_rows(&rows);
        let task = LeastSquaresTask::new(0, 1, 3);
        let before: f64 = table.scan().map(|t| task.example_loss(&[0.0; 3], t.into())).sum();
        let out = run_sequential(&IgdAggregate::new(&task, 0.01, vec![0.0; 3]), &table, None);
        let model = out.model.into_vec();
        let after: f64 = table.scan().map(|t| task.example_loss(&model, t.into())).sum();
        prop_assert!(after <= before * 1.01 + 1e-9, "after {} before {}", after, before);
    }

    /// Segmented (shared-nothing) execution counts every tuple exactly once
    /// no matter how many segments are used.
    #[test]
    fn segmented_execution_visits_every_tuple(rows in rows_strategy(3, 60), segments in 1usize..12) {
        let table = table_from_rows(&rows);
        let task = LeastSquaresTask::new(0, 1, 3);
        let agg = IgdAggregate::new(&task, 0.01, vec![0.0; 3]);
        let out = run_segmented(&agg, &table, segments);
        prop_assert_eq!(out.steps as usize, table.len());
    }

    /// Whatever the returns data looks like, the portfolio allocation stays
    /// on the probability simplex after every epoch.
    #[test]
    fn portfolio_allocation_stays_feasible(
        days in prop::collection::vec(prop::collection::vec(-0.2f64..0.2, 3..=3), 1..40),
        gamma in 0.0f64..20.0,
    ) {
        let schema = Schema::new(vec![Column::new("returns", DataType::DenseVec)]).unwrap();
        let mut table = Table::new("returns", schema);
        for r in &days {
            table.insert(vec![Value::from(r.clone())]).unwrap();
        }
        let expected = vec![0.05, 0.02, 0.03];
        let task = PortfolioTask::new(0, expected.clone(), expected, gamma, days.len());
        let out = run_sequential(&IgdAggregate::new(&task, 0.1, task.initial_model()), &table, None);
        let w = out.model.into_vec();
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(w.iter().all(|&v| v >= -1e-9));
    }

    /// Scan-order permutations are always valid permutations of the row ids.
    #[test]
    fn scan_orders_produce_valid_permutations(len in 0usize..200, seed in 0u64..1000, epoch in 0usize..5) {
        for order in [ScanOrder::ShuffleOnce { seed }, ScanOrder::ShuffleAlways { seed }] {
            let perm = order.permutation(len, epoch).unwrap();
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
        }
        prop_assert!(ScanOrder::Clustered.permutation(len, epoch).is_none());
    }

    /// Training is invariant to how rows are split across segments when the
    /// model averaging weights are proportional to segment sizes: the merged
    /// step count equals the table size and the merged model stays finite.
    #[test]
    fn merge_is_well_behaved_for_any_segmentation(rows in rows_strategy(4, 50), segments in 1usize..10) {
        let table = table_from_rows(&rows);
        let task = LogisticRegressionTask::new(0, 1, 4);
        let agg = IgdAggregate::new(&task, 0.1, task.initial_model());
        let out = run_segmented(&agg, &table, segments);
        prop_assert_eq!(out.steps as usize, table.len());
        prop_assert!(out.model.as_slice().iter().all(|v| v.is_finite()));
    }

    /// Checkpoint/resume is bit-compatible: for any split point, checkpoint
    /// cadence, scan order and step-size schedule, a run stopped after
    /// `split` epochs and resumed from its checkpoint produces exactly the
    /// model (and loss trajectory) of an uninterrupted run.
    #[test]
    fn checkpoint_resume_is_bit_compatible(
        rows in rows_strategy(3, 40),
        seed in 0u64..500,
        split in 1usize..6,
        every in 1usize..4,
        order_kind in 0usize..3,
        schedule_kind in 0usize..3,
    ) {
        let table = table_from_rows(&rows);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let total = 7usize;
        let split = split.min(total - 1);
        // Only cadences that actually produce a checkpoint at `split` allow
        // an exact cut there.
        let every = if split % every == 0 { every } else { 1 };
        let order = match order_kind {
            0 => ScanOrder::Clustered,
            1 => ScanOrder::ShuffleOnce { seed },
            _ => ScanOrder::ShuffleAlways { seed },
        };
        let schedule = match schedule_kind {
            0 => StepSizeSchedule::Constant(0.05),
            1 => StepSizeSchedule::Diminishing { initial: 0.1 },
            _ => StepSizeSchedule::Geometric { initial: 0.1, decay: 0.8 },
        };
        let base = TrainerConfig::default()
            .with_step_size(schedule)
            .with_scan_order(order);

        let full = Trainer::new(&task, base.clone().with_convergence(ConvergenceTest::FixedEpochs(total)))
            .train(&table);

        let path = std::env::temp_dir().join(format!(
            "bismarck_prop_{}_{seed}_{split}_{every}_{order_kind}_{schedule_kind}.ckpt",
            std::process::id()
        ));
        Trainer::new(
            &task,
            base.clone()
                .with_convergence(ConvergenceTest::FixedEpochs(split))
                .with_checkpoints(&path, every),
        )
        .train(&table);
        let resumed = Trainer::new(
            &task,
            base.with_convergence(ConvergenceTest::FixedEpochs(total)),
        )
        .resume_from(&table, &path);
        let _ = std::fs::remove_file(&path);
        let resumed = resumed.expect("resume from checkpoint");
        prop_assert_eq!(resumed.model, full.model);
        prop_assert_eq!(resumed.history.losses(), full.history.losses());
    }
}
