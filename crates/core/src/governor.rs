//! Process-level resource governance: deadlines, cooperative cancellation,
//! memory budgets and admission control.
//!
//! A real RDBMS never lets one statement run away with the process. The
//! durability layer (WAL + snapshots) makes Bismarck survive crashes and the
//! fault-tolerant trainer makes it survive panicking workers, but a long
//! `SVMTrain`, a pathological join or an unbounded `COPY` still needs a way
//! to be *stopped*: a deadline, a cancel button, and a ceiling on how much
//! intermediate state it may materialize. This module provides that layer.
//!
//! The design is cooperative, and the guard is the trainers' only stop
//! signal: a [`QueryGuard`] is a cheap, clonable bundle of (deadline, cancel flag, [`MemoryBudget`])
//! that execution loops poll at natural boundaries — row batches in the SQL
//! executor, epoch boundaries in the trainers, batch boundaries in serving.
//! Nothing is preempted mid-tuple, so a guarded operation always stops at a
//! consistent point: the WAL-backed catalog stays recoverable and training
//! returns the last-good model.
//!
//! The [`Governor`] is the process-wide authority: it hands out guards under
//! an admission policy (at most `max_concurrent` live statements; excess
//! requests are *shed* with a typed error rather than queued unboundedly) and
//! owns graceful shutdown ([`Governor::shutdown`]): refuse new work, cancel
//! every outstanding guard, and wait for the in-flight statements to drain.
//!
//! ```
//! use std::time::Duration;
//! use bismarck_core::governor::{Governor, QueryLimits};
//!
//! let governor = Governor::new(2);
//! let guard = governor
//!     .admit(QueryLimits::none().with_timeout(Duration::from_millis(50)))
//!     .expect("under the concurrency cap");
//! assert!(guard.check().is_ok());
//! guard.cancel();
//! assert!(guard.check().is_err());
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Why a guarded operation must stop ([`QueryGuard::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardViolation {
    /// The guard's deadline passed.
    DeadlineExceeded,
    /// The guard was cancelled (directly or by a [`Governor::shutdown`]).
    Cancelled,
}

impl std::fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardViolation::DeadlineExceeded => write!(f, "statement deadline exceeded"),
            GuardViolation::Cancelled => write!(f, "statement cancelled"),
        }
    }
}

impl std::error::Error for GuardViolation {}

/// Typed failure from [`MemoryBudget::reserve`]: granting the reservation
/// would push the guard past its byte limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Bytes the failed reservation asked for.
    pub requested: usize,
    /// Bytes already reserved when the request arrived.
    pub reserved: usize,
    /// The budget's limit.
    pub limit: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded: requested {} bytes with {} of {} already reserved",
            self.requested, self.reserved, self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Byte-accounted memory budget shared by all clones of a [`QueryGuard`].
///
/// Reservations are a single atomic compare-and-swap on the shared counter —
/// cheap enough to charge per row batch — and fail with a typed
/// [`BudgetExceeded`] instead of letting the allocation happen. A limit of
/// `usize::MAX` (the default) disables enforcement while still counting, so
/// an unlimited guard can report how much a statement materialized.
#[derive(Debug)]
pub struct MemoryBudget {
    limit: usize,
    reserved: AtomicUsize,
}

impl MemoryBudget {
    /// A budget capped at `limit` bytes.
    pub fn new(limit: usize) -> Self {
        MemoryBudget {
            limit,
            reserved: AtomicUsize::new(0),
        }
    }

    /// A counting-only budget that never rejects a reservation.
    pub fn unlimited() -> Self {
        MemoryBudget::new(usize::MAX)
    }

    /// Reserve `bytes` against the budget, failing if the limit would be
    /// exceeded. A failed reservation changes nothing: the statement can
    /// surface the error and the session stays usable.
    pub fn reserve(&self, bytes: usize) -> Result<(), BudgetExceeded> {
        let mut current = self.reserved.load(Ordering::Relaxed);
        loop {
            let new = current.saturating_add(bytes);
            if new > self.limit {
                return Err(BudgetExceeded {
                    requested: bytes,
                    reserved: current,
                    limit: self.limit,
                });
            }
            match self.reserved.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Return `bytes` to the budget (e.g. when an intermediate result is
    /// dropped mid-statement). Releasing more than was reserved saturates at
    /// zero rather than underflowing.
    pub fn release(&self, bytes: usize) {
        let mut current = self.reserved.load(Ordering::Relaxed);
        loop {
            let new = current.saturating_sub(bytes);
            match self.reserved.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Bytes currently reserved.
    pub fn reserved(&self) -> usize {
        self.reserved.load(Ordering::Relaxed)
    }

    /// The byte limit, or `None` when the budget is counting-only.
    pub fn limit(&self) -> Option<usize> {
        (self.limit != usize::MAX).then_some(self.limit)
    }
}

/// Limits a guard is created with: an optional deadline and an optional
/// memory ceiling. Built with the `with_*` methods from [`QueryLimits::none`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryLimits {
    /// Absolute point in time after which the statement must stop.
    pub deadline: Option<Instant>,
    /// Ceiling on intermediate-result bytes the statement may materialize.
    pub memory_bytes: Option<usize>,
}

impl QueryLimits {
    /// No limits: the guard only supports cancellation (and byte counting).
    pub fn none() -> Self {
        QueryLimits::default()
    }

    /// Stop the statement once `timeout` has elapsed from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Stop the statement at the absolute instant `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap the statement's materialized intermediate results at `bytes`.
    pub fn with_memory_limit(mut self, bytes: usize) -> Self {
        self.memory_bytes = Some(bytes);
        self
    }
}

#[derive(Debug)]
struct GuardState {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    budget: MemoryBudget,
    /// Admission slot held for the guard's whole lifetime; `None` for guards
    /// created without a governor.
    /// Held only for its `Drop` impl — never read.
    #[allow(dead_code)]
    lease: Option<Lease>,
}

/// Decrements the governor's active-statement count when the last clone of
/// the guard drops, freeing the admission slot.
#[derive(Debug)]
struct Lease {
    active: Arc<AtomicUsize>,
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A cheap, clonable handle a statement carries through every execution
/// layer: deadline, cooperative cancel flag and byte-accounted memory
/// budget. All clones share the same state, so cancelling any clone stops
/// work everywhere the guard was threaded — the SQL row loops, the trainers'
/// epoch boundaries and the serving batch loop all poll the same flag.
#[derive(Debug, Clone)]
pub struct QueryGuard {
    state: Arc<GuardState>,
}

impl QueryGuard {
    /// A guard with the given limits, not tied to any [`Governor`]. Useful
    /// for standalone deadlines/budgets and in tests.
    pub fn new(limits: QueryLimits) -> Self {
        QueryGuard::with_lease(limits, None)
    }

    /// A guard with no deadline and no memory ceiling; only cancellation.
    pub fn unlimited() -> Self {
        QueryGuard::new(QueryLimits::none())
    }

    fn with_lease(limits: QueryLimits, lease: Option<Lease>) -> Self {
        QueryGuard {
            state: Arc::new(GuardState {
                deadline: limits.deadline,
                cancelled: AtomicBool::new(false),
                budget: limits
                    .memory_bytes
                    .map_or_else(MemoryBudget::unlimited, MemoryBudget::new),
                lease,
            }),
        }
    }

    /// Request cancellation: every loop polling this guard (or any clone of
    /// it) stops at its next check point.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::Acquire)
    }

    /// The guard's absolute deadline, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.state.deadline
    }

    /// Time remaining before the deadline (`None` if the guard has no
    /// deadline; `Some(ZERO)` once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.state
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the guard should stop work: cancelled or past its deadline.
    /// The cheap boolean twin of [`QueryGuard::check`] for call sites that
    /// do not need to distinguish the two (e.g. the trainers, which surface
    /// both as `TrainError::Interrupted`).
    pub fn should_stop(&self) -> bool {
        self.check().is_err()
    }

    /// Poll the guard: `Err(Cancelled)` once cancelled, `Err(DeadlineExceeded)`
    /// once the deadline has passed, `Ok(())` otherwise. Cancellation wins
    /// over an expired deadline so an operator-initiated cancel (including
    /// shutdown) is reported as such.
    pub fn check(&self) -> Result<(), GuardViolation> {
        if self.is_cancelled() {
            return Err(GuardViolation::Cancelled);
        }
        if let Some(deadline) = self.state.deadline {
            if Instant::now() >= deadline {
                return Err(GuardViolation::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// The guard's memory budget.
    pub fn budget(&self) -> &MemoryBudget {
        &self.state.budget
    }

    /// Charge `bytes` of intermediate-result memory to the guard's budget.
    /// Convenience for `self.budget().reserve(bytes)`.
    pub fn reserve(&self, bytes: usize) -> Result<(), BudgetExceeded> {
        self.state.budget.reserve(bytes)
    }
}

impl Default for QueryGuard {
    fn default() -> Self {
        QueryGuard::unlimited()
    }
}

/// Why the [`Governor`] refused to admit a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The concurrency cap is full. The request is shed immediately — the
    /// governor never queues work unboundedly.
    Shed {
        /// Statements currently running.
        active: usize,
        /// The configured cap.
        max_concurrent: usize,
    },
    /// The governor is shutting down and admits no new work.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Shed {
                active,
                max_concurrent,
            } => write!(
                f,
                "admission shed: {active} of {max_concurrent} statement slots in use"
            ),
            AdmissionError::ShuttingDown => write!(f, "governor is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What [`Governor::shutdown`] accomplished before its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Statements in flight when shutdown began.
    pub in_flight: usize,
    /// Outstanding guards that were cancelled.
    pub guards_cancelled: usize,
    /// Whether every in-flight statement finished before the deadline.
    pub drained: bool,
}

#[derive(Debug)]
struct GovernorState {
    max_concurrent: usize,
    active: Arc<AtomicUsize>,
    shutting_down: AtomicBool,
    /// Weak handles to every admitted guard so shutdown can cancel them.
    /// Pruned of dead entries on each admission.
    guards: Mutex<Vec<Weak<GuardState>>>,
}

/// The process-level admission authority: hands out [`QueryGuard`]s up to a
/// concurrency cap and owns graceful shutdown. Clonable; all clones share
/// the same state.
///
/// ```
/// use bismarck_core::governor::{AdmissionError, Governor, QueryLimits};
///
/// let governor = Governor::new(1);
/// let first = governor.admit(QueryLimits::none()).unwrap();
/// // The cap is 1, so a second concurrent statement is shed, not queued.
/// assert!(matches!(
///     governor.admit(QueryLimits::none()),
///     Err(AdmissionError::Shed { .. })
/// ));
/// drop(first); // statement finishes → slot frees
/// assert!(governor.admit(QueryLimits::none()).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Governor {
    state: Arc<GovernorState>,
}

impl Governor {
    /// A governor admitting at most `max_concurrent` simultaneous statements
    /// (a cap of zero is promoted to one — a governor that can run nothing
    /// is never what the caller meant).
    pub fn new(max_concurrent: usize) -> Self {
        Governor {
            state: Arc::new(GovernorState {
                max_concurrent: max_concurrent.max(1),
                active: Arc::new(AtomicUsize::new(0)),
                shutting_down: AtomicBool::new(false),
                guards: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Statements currently holding an admission slot.
    pub fn active(&self) -> usize {
        self.state.active.load(Ordering::Acquire)
    }

    /// The configured concurrency cap.
    pub fn max_concurrent(&self) -> usize {
        self.state.max_concurrent
    }

    /// Whether [`Governor::shutdown`] has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down.load(Ordering::Acquire)
    }

    /// Admit one statement under `limits`, or shed it with a typed error.
    /// The returned guard holds its admission slot until the last clone
    /// drops.
    pub fn admit(&self, limits: QueryLimits) -> Result<QueryGuard, AdmissionError> {
        if self.is_shutting_down() {
            return Err(AdmissionError::ShuttingDown);
        }
        let state = &self.state;
        // Reserve a slot with a CAS loop so concurrent admissions cannot
        // oversubscribe the cap.
        let mut active = state.active.load(Ordering::Acquire);
        loop {
            if active >= state.max_concurrent {
                return Err(AdmissionError::Shed {
                    active,
                    max_concurrent: state.max_concurrent,
                });
            }
            match state.active.compare_exchange_weak(
                active,
                active + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => active = actual,
            }
        }
        // A shutdown that raced with the reservation above may have missed
        // this guard in its cancel sweep; hand back the slot.
        if self.is_shutting_down() {
            state.active.fetch_sub(1, Ordering::AcqRel);
            return Err(AdmissionError::ShuttingDown);
        }
        let guard = QueryGuard::with_lease(
            limits,
            Some(Lease {
                active: Arc::clone(&state.active),
            }),
        );
        let mut guards = state.guards.lock().expect("governor registry poisoned");
        guards.retain(|w| w.strong_count() > 0);
        guards.push(Arc::downgrade(&guard.state));
        Ok(guard)
    }

    /// Gracefully shut the process's statement execution down: refuse new
    /// admissions, cancel every outstanding guard (stopping SQL row loops,
    /// training epochs and serving batches at their next check point), and
    /// wait until the in-flight statements drain or `deadline` passes.
    ///
    /// Cooperative stopping means every layer exits at a consistent
    /// boundary: trainers return their last-good model (publishing it to any
    /// serving handle), and statement-level writes are either fully applied
    /// or fully absent from the WAL-backed catalog. Callers holding the
    /// catalog should follow a drained shutdown with
    /// `Database::compact()` so restart recovers from a clean snapshot —
    /// the SQL layer's `SqlSession::shutdown` does exactly that.
    pub fn shutdown(&self, deadline: Instant) -> ShutdownReport {
        self.state.shutting_down.store(true, Ordering::Release);
        let in_flight = self.active();
        let guards_cancelled = {
            let mut guards = self
                .state
                .guards
                .lock()
                .expect("governor registry poisoned");
            let mut cancelled = 0usize;
            for weak in guards.drain(..) {
                if let Some(state) = weak.upgrade() {
                    state.cancelled.store(true, Ordering::Release);
                    cancelled += 1;
                }
            }
            cancelled
        };
        // Drain: in-flight statements observe their cancelled guards at the
        // next row-batch/epoch boundary and release their slots on drop.
        let mut drained = self.active() == 0;
        while !drained && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            drained = self.active() == 0;
        }
        ShutdownReport {
            in_flight,
            guards_cancelled,
            drained,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_reserves_and_rejects_past_limit() {
        let budget = MemoryBudget::new(100);
        assert!(budget.reserve(60).is_ok());
        assert!(budget.reserve(40).is_ok());
        let err = budget.reserve(1).unwrap_err();
        assert_eq!(err.requested, 1);
        assert_eq!(err.reserved, 100);
        assert_eq!(err.limit, 100);
        assert_eq!(budget.reserved(), 100, "failed reservation changes nothing");
        budget.release(50);
        assert!(budget.reserve(30).is_ok());
        assert_eq!(budget.reserved(), 80);
    }

    #[test]
    fn budget_release_saturates_at_zero() {
        let budget = MemoryBudget::new(10);
        budget.reserve(5).unwrap();
        budget.release(100);
        assert_eq!(budget.reserved(), 0);
    }

    #[test]
    fn unlimited_budget_counts_without_rejecting() {
        let budget = MemoryBudget::unlimited();
        assert!(budget.limit().is_none());
        assert!(budget.reserve(usize::MAX / 2).is_ok());
        assert!(budget.reserve(usize::MAX).is_ok(), "saturates, never fails");
    }

    #[test]
    fn guard_deadline_and_cancel_are_observed() {
        let guard = QueryGuard::new(QueryLimits::none().with_timeout(Duration::from_millis(5)));
        assert!(guard.check().is_ok());
        assert!(!guard.should_stop());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(guard.check(), Err(GuardViolation::DeadlineExceeded));
        assert!(guard.should_stop());
        assert_eq!(guard.remaining(), Some(Duration::ZERO));

        let guard = QueryGuard::unlimited();
        assert!(guard.deadline().is_none());
        assert!(guard.remaining().is_none());
        guard.cancel();
        assert_eq!(guard.check(), Err(GuardViolation::Cancelled));
    }

    #[test]
    fn cancellation_wins_over_expired_deadline() {
        let past = Instant::now() - Duration::from_secs(1);
        let guard = QueryGuard::new(QueryLimits::none().with_deadline(past));
        guard.cancel();
        assert_eq!(guard.check(), Err(GuardViolation::Cancelled));
    }

    #[test]
    fn clones_share_state() {
        let guard = QueryGuard::new(QueryLimits::none().with_memory_limit(64));
        let clone = guard.clone();
        clone.reserve(64).unwrap();
        assert!(guard.reserve(1).is_err(), "budget is shared across clones");
        guard.cancel();
        assert!(clone.is_cancelled(), "cancel flag is shared across clones");
    }

    #[test]
    fn admission_caps_concurrency_and_frees_on_drop() {
        let governor = Governor::new(2);
        let a = governor.admit(QueryLimits::none()).unwrap();
        let b = governor.admit(QueryLimits::none()).unwrap();
        assert_eq!(governor.active(), 2);
        match governor.admit(QueryLimits::none()) {
            Err(AdmissionError::Shed {
                active,
                max_concurrent,
            }) => {
                assert_eq!(active, 2);
                assert_eq!(max_concurrent, 2);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        // A clone keeps the slot alive; only the last drop frees it.
        let b2 = b.clone();
        drop(b);
        assert_eq!(governor.active(), 2);
        drop(b2);
        assert_eq!(governor.active(), 1);
        assert!(governor.admit(QueryLimits::none()).is_ok());
        drop(a);
    }

    #[test]
    fn zero_cap_is_promoted_to_one() {
        let governor = Governor::new(0);
        assert_eq!(governor.max_concurrent(), 1);
        assert!(governor.admit(QueryLimits::none()).is_ok());
    }

    #[test]
    fn shutdown_cancels_outstanding_guards_and_refuses_new_work() {
        let governor = Governor::new(4);
        let guard = governor.admit(QueryLimits::none()).unwrap();
        let worker = {
            let guard = guard.clone();
            std::thread::spawn(move || {
                // Simulate a statement polling its guard at loop boundaries.
                while !guard.should_stop() {
                    std::thread::yield_now();
                }
            })
        };
        // Drop our handle so only the worker's clone keeps the slot.
        drop(guard);
        let report = governor.shutdown(Instant::now() + Duration::from_secs(5));
        worker.join().unwrap();
        assert_eq!(report.in_flight, 1);
        assert_eq!(report.guards_cancelled, 1);
        assert!(report.drained);
        assert_eq!(governor.active(), 0);
        assert!(matches!(
            governor.admit(QueryLimits::none()),
            Err(AdmissionError::ShuttingDown)
        ));
    }

    #[test]
    fn shutdown_reports_undrained_statements_at_deadline() {
        let governor = Governor::new(1);
        // A "stuck" statement that never polls its guard.
        let stuck = governor.admit(QueryLimits::none()).unwrap();
        let report = governor.shutdown(Instant::now() + Duration::from_millis(20));
        assert!(!report.drained);
        assert_eq!(report.in_flight, 1);
        drop(stuck);
        assert_eq!(governor.active(), 0);
    }
}
