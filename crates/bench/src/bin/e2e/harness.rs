//! What every workload shares: the run configuration, operation accounting,
//! the timed cycle loop, scratch directories and process facts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::spec::Sizes;
use crate::stats;
use crate::trace::Tracer;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Time budget of the measured loop, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where scratch directories are created (inside the build directory, so
    /// inside the checkout and ignored by git).
    pub scratch_root: PathBuf,
}

impl RunConfig {
    /// This run's own scratch directory, unique per process, workload and
    /// trace mode.
    pub fn scratch_dir(&self) -> Result<ScratchDir, String> {
        let tag = format!("{}-t{}", self.workload, u8::from(self.trace));
        ScratchDir::create(&self.scratch_root, &tag)
            .map_err(|e| format!("create scratch directory: {e}"))
    }
}

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload hands back.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the human-readable report.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// `name: summary` lines (medians with their sample counts).
    pub notes: Vec<String>,
}

/// Accounting and timing context threaded through a workload.
pub struct Ctx {
    pub tracer: Tracer,
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    next_stmt: u64,
}

/// An operation being timed; see [`Ctx::begin`].
pub struct OpTimer {
    name: &'static str,
    token: Option<usize>,
    start: Instant,
}

/// End-to-end timings are the 10th percentile of a run's samples (the 90th of
/// its rates), not the median. On the shared 2-core sandbox neighbours slow a
/// tenth to a half of a run's statements by up to 1.5x, in bursts that last
/// seconds: across ten runs the median statement time spread 4-27 % and the
/// fast decile 1-9 % (measured, same runs). The fast decile still rests on
/// several samples, so it is the system's own cost and not one lucky call;
/// reports print the median and the supported tail beside it.
pub const FAST_DECILE: f64 = 10.0;

/// How many failure messages are kept verbatim.
const MAX_FAILURE_MESSAGES: usize = 8;

impl Ctx {
    pub fn new(trace: bool) -> Self {
        Ctx {
            tracer: Tracer::new(trace),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            next_stmt: 0,
        }
    }

    /// Start timing one operation issued to the system: counts it as
    /// attempted and, when tracing, opens a span. Pair with [`Ctx::end`].
    pub fn begin(&mut self, name: &'static str) -> OpTimer {
        self.attempted += 1;
        self.next_stmt += 1;
        OpTimer {
            name,
            token: self.tracer.enter(name, self.next_stmt),
            start: Instant::now(),
        }
    }

    /// Stop timing: records the wall time under the operation's name and
    /// returns it in seconds. Follow with [`Ctx::settle`] once the result has
    /// been validated.
    pub fn end(&mut self, timer: OpTimer) -> f64 {
        let secs = timer.start.elapsed().as_secs_f64();
        self.tracer.exit(timer.token);
        self.samples.entry(timer.name).or_default().push(secs);
        secs
    }

    /// [`Ctx::begin`] and [`Ctx::end`] around `f`; returns its result and its
    /// wall time in seconds.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let timer = self.begin(name);
        let result = f();
        let secs = self.end(timer);
        (result, secs)
    }

    /// Record the verdict on the last operation: an error or a failed
    /// validation counts it as failed.
    pub fn settle(&mut self, verdict: Result<(), String>) {
        if let Err(message) = verdict {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(message);
            }
        }
    }

    /// A check that is not tied to one timed operation (a cross-layout
    /// comparison, a monotonicity invariant): attempted once, failed on `Err`.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        self.settle(verdict);
    }

    /// Add an untimed sample (a value derived from an operation, such as a
    /// throughput) under `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        stats::median(self.samples(name))
    }

    /// The fast decile of the wall times under `name`; see [`FAST_DECILE`].
    pub fn fast_time(&self, name: &str) -> f64 {
        stats::percentile(self.samples(name), FAST_DECILE)
    }

    /// The fast decile of the rates (work per second) under `name`.
    pub fn fast_rate(&self, name: &str) -> f64 {
        stats::percentile(self.samples(name), 100.0 - FAST_DECILE)
    }

    /// Run `build` at least `sizes.setup_repeats` times and until
    /// `sizes.setup_budget_s` is spent, dropping each result before the next
    /// build; files every build's wall under `setup_s` (the metric is their
    /// median) and returns the last result.
    pub fn timed_setup<S>(&mut self, sizes: &Sizes, mut build: impl FnMut() -> S) -> S {
        let (mut repeats, mut spent) = (0, 0.0);
        let mut last = None;
        while repeats < sizes.setup_repeats.max(1)
            || (repeats < MAX_SETUP_REPEATS && spent < sizes.setup_budget_s)
        {
            drop(last.take());
            let start = Instant::now();
            last = Some(build());
            let secs = start.elapsed().as_secs_f64();
            self.sample("setup_s", secs);
            spent += secs;
            repeats += 1;
        }
        last.expect("at least one set-up ran")
    }

    /// The end-to-end metrics, which every workload derives the same way from
    /// the samples it filed under these names (all but `peak_rss_mb`, which
    /// [`Ctx::finish`] reads last).
    pub fn end_to_end(&self) -> Metrics {
        let epochs = self.samples("epochs_to_target");
        Metrics::from([
            ("setup_s", self.median("setup_s")),
            ("cycle_ms", self.fast_time("bench.cycle") * 1e3),
            ("train_tuples_per_s", self.fast_rate("train_tuples_per_s")),
            ("predict_rows_per_s", self.fast_rate("predict_rows_per_s")),
            ("time_to_target_s", self.fast_time("time_to_target_s")),
            // A mean, so a racy workload that sits between two epoch counts
            // reads as such; exact where training is deterministic.
            (
                "epochs_to_target",
                epochs.iter().sum::<f64>() / epochs.len().max(1) as f64,
            ),
        ])
    }

    /// Close the books: read the peak RSS last, and hand back the counts,
    /// the metrics and one summary line per sample set after `note`.
    pub fn finish(self, mut metrics: Metrics, note: String) -> (Outcome, Tracer) {
        metrics.insert("peak_rss_mb", peak_rss_mb());
        let mut notes = vec![note];
        for (name, samples) in &self.samples {
            notes.push(format!("{name}: {}", stats::summarize(samples)));
        }
        let outcome = Outcome {
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            metrics,
            notes,
        };
        (outcome, self.tracer)
    }
}

/// Run `cycle(index)` back to back until `seconds` have passed and at least
/// `min_cycles` have completed, filing every cycle's wall under `bench.cycle`.
/// In a traced run every other cycle records spans, so traced and untraced
/// cycle times come from the same process; returns the tracing overhead, the
/// fast traced cycle over the fast untraced one minus 1 (0 when untraced).
pub fn run_cycles(ctx: &mut Ctx, cfg: &RunConfig, mut cycle: impl FnMut(&mut Ctx, usize)) -> f64 {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut index = 0;
    while index < cfg.sizes.min_cycles || start.elapsed().as_secs_f64() < cfg.seconds {
        let record = cfg.trace && index % 2 == 0;
        ctx.tracer.set_enabled(record);
        let token = ctx.tracer.enter("bench.cycle", index as u64);
        let cycle_start = Instant::now();
        cycle(ctx, index);
        let secs = cycle_start.elapsed().as_secs_f64();
        ctx.tracer.exit(token);
        ctx.sample("bench.cycle", secs);
        if record {
            traced.push(secs);
        } else {
            untraced.push(secs);
        }
        index += 1;
    }
    ctx.tracer.set_enabled(cfg.trace);
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    stats::percentile(&traced, FAST_DECILE) / stats::percentile(&untraced, FAST_DECILE) - 1.0
}

/// However cheap, set-up is not repeated more often than this.
const MAX_SETUP_REPEATS: usize = 1000;

/// Median wall time in seconds of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// A scratch directory removed when dropped, on success and on failure.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `<root>/<pid>-<tag>`, unique per process and workload.
    pub fn create(root: &Path, tag: &str) -> std::io::Result<Self> {
        let path = root.join(format!("{}-{tag}", std::process::id()));
        // A crashed earlier process with a recycled pid may have left one.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc/self/status` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The default scratch root: beside the running executable, which is inside
/// the build directory.
pub fn default_scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("e2e-scratch")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_on_drop_and_sized_while_alive() {
        let root = default_scratch_root();
        let path = {
            let dir = ScratchDir::create(&root, "harness-test").unwrap();
            std::fs::create_dir_all(dir.path().join("sub")).unwrap();
            std::fs::write(dir.path().join("a"), [0u8; 10]).unwrap();
            std::fs::write(dir.path().join("sub/b"), [0u8; 5]).unwrap();
            assert_eq!(dir_bytes(dir.path()), 15);
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn failed_operations_are_counted_against_attempts() {
        let mut ctx = Ctx::new(false);
        let (value, secs) = ctx.op("x", || 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        ctx.settle(Ok(()));
        ctx.op("x", || ());
        ctx.settle(Err("boom".into()));
        ctx.check(Err("invariant".into()));
        assert_eq!(ctx.samples("x").len(), 2);
        let (outcome, _) = ctx.finish(Metrics::new(), String::new());
        assert_eq!((outcome.attempted, outcome.failed), (3, 2));
        assert_eq!(outcome.failures, ["boom", "invariant"]);
    }
}
