//! Linear-chain conditional random fields (CRF) for sequence labeling.
//!
//! Objective (Figure 1(B)): maximize
//! `Σ_k [ Σ_j w_j F_j(y_k, x_k) − log Z(x_k) ]`,
//! i.e. the conditional log-likelihood of the gold label sequence of every
//! sentence; we minimize its negation. Each tuple is one sentence: a sequence
//! of (sparse observation features, gold label) pairs stored in a
//! [`bismarck_storage::Value::Sequence`] column — this mirrors how the CoNLL
//! chunking data is one row per sentence.
//!
//! The model has one weight per (observation feature, label) pair followed by
//! a dense `labels × labels` transition block. The per-example gradient is
//! computed with the standard forward–backward recursion in log space:
//! `∇ = E_model[F] − F(observed)`, so one IGD transition performs
//! forward–backward on one sentence and nudges the weights towards the
//! empirical feature counts.

use bismarck_linalg::ops::log_sum_exp;
use bismarck_linalg::SparseVector;
use bismarck_storage::RowRef;

use crate::model::ModelStore;
use crate::task::{IgdTask, ProximalPolicy};

/// Linear-chain CRF over a sequence column.
#[derive(Debug, Clone)]
pub struct CrfTask {
    sequence_col: usize,
    num_features: usize,
    num_labels: usize,
    l2: f64,
}

impl CrfTask {
    /// Create a CRF task.
    ///
    /// * `sequence_col` — tuple position of the sequence column;
    /// * `num_features` — number of distinct observation features;
    /// * `num_labels` — number of labels.
    pub fn new(sequence_col: usize, num_features: usize, num_labels: usize) -> Self {
        assert!(num_labels > 0, "need at least one label");
        CrfTask {
            sequence_col,
            num_features,
            num_labels,
            l2: 0.0,
        }
    }

    /// Add a Gaussian prior `(λ/2)‖w‖²` applied via per-epoch shrinkage.
    pub fn with_l2(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "L2 penalty must be non-negative");
        self.l2 = lambda;
        self
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of observation features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Flat index of the (feature, label) state weight.
    #[inline]
    fn state_index(&self, feature: usize, label: usize) -> usize {
        feature * self.num_labels + label
    }

    /// Flat index of the (prev, next) transition weight.
    #[inline]
    fn trans_index(&self, prev: usize, next: usize) -> usize {
        self.num_features * self.num_labels + prev * self.num_labels + next
    }

    /// Per-position unary scores `node[t][y] = Σ_f x_t[f] · w[f,y]` read
    /// from a dense model slice.
    fn node_scores(&self, model: &[f64], seq: &[(SparseVector, u32)]) -> Vec<Vec<f64>> {
        seq.iter()
            .map(|(features, _)| {
                let mut scores = vec![0.0; self.num_labels];
                for (f, v) in features.iter() {
                    if f >= self.num_features {
                        continue;
                    }
                    for (y, score) in scores.iter_mut().enumerate() {
                        *score += v * model[self.state_index(f, y)];
                    }
                }
                scores
            })
            .collect()
    }

    /// Transition matrix read from a dense model slice.
    fn transitions(&self, model: &[f64]) -> Vec<Vec<f64>> {
        (0..self.num_labels)
            .map(|a| {
                (0..self.num_labels)
                    .map(|b| model[self.trans_index(a, b)])
                    .collect()
            })
            .collect()
    }

    /// Forward (alpha) recursion in log space. Returns (alphas, log Z).
    fn forward(&self, node: &[Vec<f64>], trans: &[Vec<f64>]) -> (Vec<Vec<f64>>, f64) {
        let t_len = node.len();
        let l = self.num_labels;
        let mut alpha = vec![vec![f64::NEG_INFINITY; l]; t_len];
        alpha[0].clone_from_slice(&node[0]);
        let mut scratch = vec![0.0; l];
        for t in 1..t_len {
            for y in 0..l {
                for (a, slot) in scratch.iter_mut().enumerate() {
                    *slot = alpha[t - 1][a] + trans[a][y];
                }
                alpha[t][y] = log_sum_exp(&scratch) + node[t][y];
            }
        }
        let log_z = log_sum_exp(&alpha[t_len - 1]);
        (alpha, log_z)
    }

    /// Backward (beta) recursion in log space.
    fn backward(&self, node: &[Vec<f64>], trans: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let t_len = node.len();
        let l = self.num_labels;
        let mut beta = vec![vec![0.0; l]; t_len];
        let mut scratch = vec![0.0; l];
        for t in (0..t_len - 1).rev() {
            for y in 0..l {
                for (b, slot) in scratch.iter_mut().enumerate() {
                    *slot = trans[y][b] + node[t + 1][b] + beta[t + 1][b];
                }
                beta[t][y] = log_sum_exp(&scratch);
            }
        }
        beta
    }

    /// Log-likelihood of the gold labels of one sequence under `model`.
    pub fn sequence_log_likelihood(&self, model: &[f64], seq: &[(SparseVector, u32)]) -> f64 {
        if seq.is_empty() {
            return 0.0;
        }
        let node = self.node_scores(model, seq);
        let trans = self.transitions(model);
        let (_, log_z) = self.forward(&node, &trans);
        let mut score = 0.0;
        for (t, (_, label)) in seq.iter().enumerate() {
            let y = *label as usize % self.num_labels;
            score += node[t][y];
            if t > 0 {
                let prev = seq[t - 1].1 as usize % self.num_labels;
                score += trans[prev][y];
            }
        }
        score - log_z
    }

    /// Most likely label sequence (Viterbi decoding) for a sequence as
    /// [`RowRef::get_sequence`] lends it; its labels are not read.
    pub fn viterbi(&self, model: &[f64], seq: &[(SparseVector, u32)]) -> Vec<usize> {
        if seq.is_empty() {
            return Vec::new();
        }
        let node = self.node_scores(model, seq);
        let trans = self.transitions(model);
        let t_len = node.len();
        let l = self.num_labels;
        let mut delta = vec![vec![f64::NEG_INFINITY; l]; t_len];
        let mut back = vec![vec![0usize; l]; t_len];
        delta[0].clone_from_slice(&node[0]);
        for t in 1..t_len {
            for y in 0..l {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0;
                for a in 0..l {
                    let cand = delta[t - 1][a] + trans[a][y];
                    if cand > best {
                        best = cand;
                        arg = a;
                    }
                }
                delta[t][y] = best + node[t][y];
                back[t][y] = arg;
            }
        }
        let mut best_last = 0;
        for y in 1..l {
            if delta[t_len - 1][y] > delta[t_len - 1][best_last] {
                best_last = y;
            }
        }
        let mut path = vec![0usize; t_len];
        path[t_len - 1] = best_last;
        for t in (1..t_len).rev() {
            path[t - 1] = back[t][path[t]];
        }
        path
    }
}

impl IgdTask for CrfTask {
    fn name(&self) -> &'static str {
        "CRF"
    }

    fn dimension(&self) -> usize {
        self.num_features * self.num_labels + self.num_labels * self.num_labels
    }

    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        let Some(seq) = row.get_sequence(self.sequence_col) else {
            return;
        };
        if seq.is_empty() {
            return;
        }
        // Forward–backward needs a coherent view of the weights, so snapshot
        // once per sentence; updates below go through the store (and are
        // therefore visible to concurrent workers under shared memory).
        let snapshot = model.snapshot();
        let node = self.node_scores(&snapshot, seq);
        let trans = self.transitions(&snapshot);
        let (alpha_msgs, log_z) = self.forward(&node, &trans);
        let beta_msgs = self.backward(&node, &trans);
        let l = self.num_labels;

        // State-feature updates: (empirical − expected) per position.
        for (t, (features, gold)) in seq.iter().enumerate() {
            let gold = *gold as usize % l;
            for y in 0..l {
                let marginal = (alpha_msgs[t][y] + beta_msgs[t][y] - log_z).exp();
                let coeff = (if y == gold { 1.0 } else { 0.0 }) - marginal;
                if coeff == 0.0 {
                    continue;
                }
                for (f, v) in features.iter() {
                    if f < self.num_features {
                        model.update(self.state_index(f, y), alpha * coeff * v);
                    }
                }
            }
        }

        // Transition updates: (empirical − expected) per adjacent pair.
        for t in 1..seq.len() {
            let gold_prev = seq[t - 1].1 as usize % l;
            let gold_next = seq[t].1 as usize % l;
            for a in 0..l {
                for b in 0..l {
                    let log_edge =
                        alpha_msgs[t - 1][a] + trans[a][b] + node[t][b] + beta_msgs[t][b] - log_z;
                    let marginal = log_edge.exp();
                    let empirical = if a == gold_prev && b == gold_next {
                        1.0
                    } else {
                        0.0
                    };
                    let coeff = empirical - marginal;
                    if coeff != 0.0 {
                        model.update(self.trans_index(a, b), alpha * coeff);
                    }
                }
            }
        }
    }

    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        match row.get_sequence(self.sequence_col) {
            Some(seq) if !seq.is_empty() => -self.sequence_log_likelihood(model, seq),
            _ => 0.0,
        }
    }

    fn regularizer(&self, model: &[f64]) -> f64 {
        0.5 * self.l2 * model.iter().map(|v| v * v).sum::<f64>()
    }

    fn proximal_step(&self, model: &mut [f64], alpha: f64) {
        if self.l2 > 0.0 {
            let shrink = 1.0 / (1.0 + alpha * self.l2);
            for v in model.iter_mut() {
                *v *= shrink;
            }
        }
    }

    fn proximal_policy(&self) -> ProximalPolicy {
        if self.l2 > 0.0 {
            ProximalPolicy::PerEpoch
        } else {
            ProximalPolicy::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DenseModelStore;
    use bismarck_storage::{Column, DataType, Schema, Table, Value};

    /// Two labels, two features; feature 0 indicates label 0, feature 1
    /// indicates label 1. Sentences alternate labels.
    fn sentence(labels: &[u32]) -> Vec<(SparseVector, u32)> {
        labels
            .iter()
            .map(|&y| (SparseVector::from_pairs(vec![(y as usize, 1.0)]), y))
            .collect()
    }

    fn crf_table(sentences: &[Vec<(SparseVector, u32)>]) -> Table {
        let schema = Schema::new(vec![Column::new("sentence", DataType::Sequence)]).unwrap();
        let mut t = Table::new("crf", schema);
        for s in sentences {
            t.insert(vec![Value::Sequence(s.clone())]).unwrap();
        }
        t
    }

    fn task() -> CrfTask {
        CrfTask::new(0, 2, 2)
    }

    #[test]
    fn dimension_includes_transitions() {
        let t = task();
        assert_eq!(t.dimension(), 2 * 2 + 2 * 2);
        assert_eq!(t.num_labels(), 2);
        assert_eq!(t.num_features(), 2);
    }

    #[test]
    fn zero_model_gives_uniform_likelihood() {
        let t = task();
        let seq = sentence(&[0, 1, 0]);
        let ll = t.sequence_log_likelihood(&vec![0.0; t.dimension()], &seq);
        // Uniform distribution over 2^3 label sequences.
        assert!((ll - (1.0f64 / 8.0).ln()).abs() < 1e-9);
    }

    #[test]
    fn training_increases_likelihood_and_decodes_correctly() {
        let t = task();
        let data = crf_table(&[
            sentence(&[0, 1, 0, 1]),
            sentence(&[1, 0, 1, 0]),
            sentence(&[0, 0, 1, 1]),
            sentence(&[1, 1, 0, 0]),
        ]);
        let mut store = DenseModelStore::zeros(t.dimension());
        let initial: f64 = data
            .scan()
            .map(|tup| t.example_loss(store.as_slice(), tup.into()))
            .sum();
        for _ in 0..60 {
            for tuple in data.scan() {
                t.gradient_step(&mut store, tuple.into(), 0.2);
            }
        }
        let model = store.into_vec();
        let trained: f64 = data
            .scan()
            .map(|tup| t.example_loss(&model, tup.into()))
            .sum();
        assert!(
            trained < initial * 0.5,
            "trained {trained} vs initial {initial}"
        );

        // Viterbi recovers labels on data where features identify labels,
        // whatever labels the sequence carries.
        let feats: Vec<(SparseVector, u32)> = sentence(&[0, 1, 1, 0])
            .into_iter()
            .map(|(f, _)| (f, 1))
            .collect();
        assert_eq!(t.viterbi(&model, &feats), vec![0, 1, 1, 0]);
    }

    #[test]
    fn gradient_at_perfect_model_is_small() {
        // With hugely confident weights the expected counts match the
        // empirical ones, so a step barely changes the model.
        let t = task();
        let mut model = vec![0.0; t.dimension()];
        model[t.state_index(0, 0)] = 20.0;
        model[t.state_index(1, 1)] = 20.0;
        let data = crf_table(&[sentence(&[0, 1])]);
        let mut store = DenseModelStore::new(model.clone());
        t.gradient_step(&mut store, data.get(0).unwrap().into(), 1.0);
        let after = store.into_vec();
        let delta: f64 = after
            .iter()
            .zip(model.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(delta < 1e-6, "delta {delta}");
    }

    #[test]
    fn empty_and_missing_sequences_are_ignored() {
        let t = task();
        let data = crf_table(&[Vec::new()]);
        let mut store = DenseModelStore::zeros(t.dimension());
        t.gradient_step(&mut store, data.get(0).unwrap().into(), 0.5);
        assert!(store.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(
            t.example_loss(store.as_slice(), data.get(0).unwrap().into()),
            0.0
        );
    }

    #[test]
    fn viterbi_of_empty_is_empty() {
        let t = task();
        assert!(t.viterbi(&vec![0.0; t.dimension()], &[]).is_empty());
    }

    #[test]
    fn l2_regularization_shrinks() {
        let t = CrfTask::new(0, 2, 2).with_l2(1.0);
        assert_eq!(t.proximal_policy(), ProximalPolicy::PerEpoch);
        let mut w = vec![1.0; t.dimension()];
        t.proximal_step(&mut w, 1.0);
        assert!(w.iter().all(|&v| (v - 0.5).abs() < 1e-12));
        assert!(t.regularizer(&[1.0; 8]) > 0.0);
    }

    #[test]
    fn log_likelihood_is_never_positive() {
        let t = task();
        let seq = sentence(&[0, 1, 1]);
        for scale in [0.0, 0.5, 3.0] {
            let model = vec![scale; t.dimension()];
            assert!(t.sequence_log_likelihood(&model, &seq) <= 1e-12);
        }
    }
}
