//! Text chunking with a linear-chain CRF — the paper's "next generation"
//! in-RDBMS task (CoNLL workload, Figure 7(B)). Trains the CRF with the
//! shared-memory NoLock parallel IGD and evaluates token-level accuracy with
//! Viterbi decoding.
//!
//! Run with `cargo run --release --example text_chunking_crf`.

use bismarck_core::metrics::sequence_accuracy;
use bismarck_core::tasks::CrfTask;
use bismarck_core::{
    ParallelStrategy, ParallelTrainer, StepSizeSchedule, TrainerConfig, UpdateDiscipline,
};
use bismarck_datagen::{labeled_sequences, SequenceConfig};
use bismarck_storage::ScanOrder;
use bismarck_uda::ConvergenceTest;

fn main() {
    let (num_features, num_labels) = (1_500, 5);
    let sentences = labeled_sequences(
        "chunking",
        SequenceConfig {
            sentences: 400,
            num_features,
            num_labels,
            feature_fidelity: 0.8,
            label_stickiness: 0.7,
            seed: 8,
            ..Default::default()
        },
    );
    println!(
        "{} sentences, {num_features} observation features, {num_labels} chunk labels",
        sentences.len()
    );

    let task = CrfTask::new(0, num_features, num_labels).with_l2(1e-4);
    let config = TrainerConfig::default()
        .with_scan_order(ScanOrder::ShuffleOnce { seed: 4 })
        .with_step_size(StepSizeSchedule::Constant(0.1))
        .with_convergence(ConvergenceTest::paper_default(12));
    let trainer = ParallelTrainer::new(
        &task,
        config,
        ParallelStrategy::SharedMemory {
            workers: 2,
            discipline: UpdateDiscipline::NoLock,
        },
    );
    let (trained, _) = trainer.train(&sentences);
    println!(
        "trained in {} epochs, final -log-likelihood {:.1}",
        trained.epochs(),
        trained.final_loss().unwrap_or(f64::NAN)
    );

    // Token-level accuracy via Viterbi decoding on the training sentences.
    let mut predicted = Vec::new();
    let mut gold = Vec::new();
    for row in sentences.scan() {
        let seq = row.get_sequence(0).expect("sequence column");
        predicted.push(task.viterbi(&trained.model, seq));
        gold.push(seq.iter().map(|&(_, y)| y as usize).collect());
    }
    println!(
        "token-level accuracy: {:.1}%",
        sequence_accuracy(&predicted, &gold) * 100.0
    );

    // Decode one sentence for illustration.
    if let Ok(row) = sentences.get(0) {
        let seq = row.get_sequence(0).unwrap();
        let decoded = task.viterbi(&trained.model, seq);
        let gold: Vec<usize> = seq.iter().map(|&(_, y)| y as usize).collect();
        println!("\nfirst sentence  gold: {gold:?}");
        println!("             decoded: {decoded:?}");
    }
}
