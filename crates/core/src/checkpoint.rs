//! Trainer-level checkpoint payload.
//!
//! The container is storage's whole-file frame
//! ([`bismarck_storage::durable::write_framed`], written atomically); this
//! module defines what goes *inside*:
//! everything needed to continue a training run bit-compatibly with an
//! uninterrupted one — the model vector, the epoch counter, the loss history
//! seen so far (the convergence test consults it), the step-size backoff
//! state, and the scan-order/step-size configuration the run was started
//! with. Scan orders derive every epoch's permutation deterministically from
//! `(seed, epoch)`, so persisting the seed is enough to replay the exact
//! tuple order after a resume; there is no other RNG state in the sequential
//! path.
//!
//! All integers are little-endian; `f64`s are stored as their IEEE-754 bit
//! patterns so `NaN` losses survive a round trip unchanged.

use std::path::Path;

use bismarck_storage::durable::{self, FileKind};
use bismarck_storage::{Reader, ScanOrder, StorageError};

use crate::stepsize::StepSizeSchedule;

/// Resumable state of a training run, as persisted every N epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// `IgdTask::name()` of the task that produced the checkpoint.
    pub task_name: String,
    /// The next epoch to run (equivalently: number of epochs completed).
    pub next_epoch: usize,
    /// Model vector after `next_epoch` epochs.
    pub model: Vec<f64>,
    /// Multiplier the divergence backoff has applied to the step size.
    pub alpha_scale: f64,
    /// Divergence recoveries consumed so far (counts against the budget).
    pub retries_used: u32,
    /// Loss after each completed epoch (`losses.len() == next_epoch`).
    pub losses: Vec<f64>,
    /// Scan order of the original run; a resume must use the same one to be
    /// bit-compatible.
    pub scan_order: ScanOrder,
    /// Step-size schedule of the original run.
    pub step_size: StepSizeSchedule,
}

fn corrupt(msg: String) -> StorageError {
    StorageError::Corrupt(format!("checkpoint: {msg}"))
}

fn read_f64_vec(r: &mut Reader<'_>) -> Result<Vec<f64>, StorageError> {
    (0..r.len_prefix(8)?).map(|_| r.f64()).collect()
}

fn push_f64_vec(out: &mut Vec<u8>, values: &[f64]) {
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for &v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn encode_scan_order(out: &mut Vec<u8>, order: ScanOrder) {
    let (tag, seed) = match order {
        ScanOrder::Clustered => (0u8, 0u64),
        ScanOrder::ShuffleOnce { seed } => (1, seed),
        ScanOrder::ShuffleAlways { seed } => (2, seed),
    };
    out.push(tag);
    out.extend_from_slice(&seed.to_le_bytes());
}

fn decode_scan_order(r: &mut Reader<'_>) -> Result<ScanOrder, StorageError> {
    let tag = r.u8()?;
    let seed = r.u64()?;
    match tag {
        0 => Ok(ScanOrder::Clustered),
        1 => Ok(ScanOrder::ShuffleOnce { seed }),
        2 => Ok(ScanOrder::ShuffleAlways { seed }),
        other => Err(corrupt(format!("unknown scan-order tag {other}"))),
    }
}

fn encode_step_size(out: &mut Vec<u8>, schedule: StepSizeSchedule) {
    let (tag, a, b) = match schedule {
        StepSizeSchedule::Constant(alpha) => (0u8, alpha, 0.0),
        StepSizeSchedule::Diminishing { initial } => (1, initial, 0.0),
        StepSizeSchedule::Geometric { initial, decay } => (2, initial, decay),
    };
    out.push(tag);
    out.extend_from_slice(&a.to_bits().to_le_bytes());
    out.extend_from_slice(&b.to_bits().to_le_bytes());
}

fn decode_step_size(r: &mut Reader<'_>) -> Result<StepSizeSchedule, StorageError> {
    let tag = r.u8()?;
    let a = r.f64()?;
    let b = r.f64()?;
    match tag {
        0 => Ok(StepSizeSchedule::Constant(a)),
        1 => Ok(StepSizeSchedule::Diminishing { initial: a }),
        2 => Ok(StepSizeSchedule::Geometric {
            initial: a,
            decay: b,
        }),
        other => Err(corrupt(format!("unknown step-size tag {other}"))),
    }
}

impl TrainingCheckpoint {
    /// Serialize to the checkpoint payload format.
    pub(crate) fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 8 * (self.model.len() + self.losses.len()));
        out.extend_from_slice(&(self.task_name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.task_name.as_bytes());
        out.extend_from_slice(&(self.next_epoch as u64).to_le_bytes());
        out.extend_from_slice(&self.alpha_scale.to_bits().to_le_bytes());
        out.extend_from_slice(&self.retries_used.to_le_bytes());
        encode_scan_order(&mut out, self.scan_order);
        encode_step_size(&mut out, self.step_size);
        push_f64_vec(&mut out, &self.model);
        push_f64_vec(&mut out, &self.losses);
        out
    }

    /// Decode a checkpoint payload (the inverse of [`Self::to_payload`]).
    pub(crate) fn from_payload(bytes: &[u8]) -> Result<Self, StorageError> {
        let mut r = Reader::new(bytes);
        let name_len = r.u32()? as usize;
        let task_name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| corrupt("task name is not UTF-8".into()))?
            .to_string();
        let next_epoch = r.u64()? as usize;
        let alpha_scale = r.f64()?;
        let retries_used = r.u32()?;
        let scan_order = decode_scan_order(&mut r)?;
        let step_size = decode_step_size(&mut r)?;
        let model = read_f64_vec(&mut r)?;
        let losses = read_f64_vec(&mut r)?;
        r.finish()?;
        let checkpoint = TrainingCheckpoint {
            task_name,
            next_epoch,
            model,
            alpha_scale,
            retries_used,
            losses,
            scan_order,
            step_size,
        };
        if checkpoint.losses.len() != checkpoint.next_epoch {
            return Err(corrupt(format!(
                "{} losses recorded for {} completed epochs",
                checkpoint.losses.len(),
                checkpoint.next_epoch
            )));
        }
        Ok(checkpoint)
    }

    /// Write this checkpoint atomically and durably to `path`.
    pub(crate) fn write(&self, path: &Path) -> Result<(), StorageError> {
        durable::write_framed(path, FileKind::Checkpoint, &self.to_payload()).map(|_| ())
    }

    /// Read and validate a checkpoint from `path`: a missing or unreadable
    /// file is [`StorageError::Io`], anything wrong with its bytes
    /// [`StorageError::Corrupt`].
    pub fn read(path: &Path) -> Result<Self, StorageError> {
        let bytes = durable::read_file(path)
            .map_err(|e| StorageError::Io(format!("read {}: {e}", path.display())))?;
        Self::from_payload(durable::unframe(FileKind::Checkpoint, &bytes)?.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainingCheckpoint {
        TrainingCheckpoint {
            task_name: "SVM".into(),
            next_epoch: 3,
            model: vec![0.5, -1.25, f64::MIN_POSITIVE],
            alpha_scale: 0.25,
            retries_used: 2,
            losses: vec![10.0, f64::NAN, 4.0],
            scan_order: ScanOrder::ShuffleAlways { seed: 99 },
            step_size: StepSizeSchedule::Geometric {
                initial: 0.1,
                decay: 0.9,
            },
        }
    }

    #[test]
    fn payload_round_trips_including_nan_bits() {
        let cp = sample();
        let decoded = TrainingCheckpoint::from_payload(&cp.to_payload()).unwrap();
        assert_eq!(decoded.task_name, cp.task_name);
        assert_eq!(decoded.next_epoch, cp.next_epoch);
        assert_eq!(decoded.model, cp.model);
        assert_eq!(decoded.alpha_scale, cp.alpha_scale);
        assert_eq!(decoded.retries_used, cp.retries_used);
        assert_eq!(decoded.scan_order, cp.scan_order);
        assert_eq!(decoded.step_size, cp.step_size);
        // NaN != NaN, so compare the bit patterns.
        let bits: Vec<u64> = decoded.losses.iter().map(|l| l.to_bits()).collect();
        let expected: Vec<u64> = cp.losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(bits, expected);
    }

    #[test]
    fn file_round_trips_and_rejects_an_extended_or_missing_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("bismarck-core-ckpt-{}.ckpt", std::process::id()));
        let cp = sample();
        cp.write(&path).unwrap();
        let back = TrainingCheckpoint::read(&path).unwrap();
        assert_eq!(back.model, cp.model);
        assert_eq!(back.next_epoch, 3);

        // The frame is exact: version 1's reader accepted anything after
        // the checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            TrainingCheckpoint::read(&path),
            Err(StorageError::Corrupt(_))
        ));

        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            TrainingCheckpoint::read(&path),
            Err(StorageError::Io(_))
        ));
    }

    #[test]
    fn rejects_truncated_payload() {
        let payload = sample().to_payload();
        for cut in [0, 3, 10, payload.len() - 1] {
            assert!(
                TrainingCheckpoint::from_payload(&payload[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tags() {
        let mut payload = sample().to_payload();
        payload.push(0xFF);
        assert!(matches!(
            TrainingCheckpoint::from_payload(&payload),
            Err(StorageError::Corrupt(_))
        ));

        let mut cp = sample();
        cp.losses.pop();
        cp.next_epoch = 3; // now inconsistent with 2 losses
        assert!(matches!(
            TrainingCheckpoint::from_payload(&cp.to_payload()),
            Err(StorageError::Corrupt(_))
        ));
    }
}
