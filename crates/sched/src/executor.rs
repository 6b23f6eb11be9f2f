//! The Task Scheduler's priority pool (Section 4 of the technical report).
//!
//! The paper's prototype runs feature extraction, training, and evaluation on
//! a limited pool of compute resources ("only a subset of submitted tasks can
//! execute at once"). This executor reproduces that constraint with a fixed
//! number of worker threads pulling jobs from one priority pool: critical
//! work (`T_i`) always runs before normal work (`T_m`, `T_e`), which runs
//! before background work (eager `T_f⁻`).
//!
//! Every job enters through [`Executor::submit`], which takes a [`TaskSpec`]
//! (priority, timing-plane label, [`RetryPolicy`]) and a fallible closure of
//! the attempt index, and returns a [`TaskHandle`]. One worker-side wrapper
//! runs the attempts, catches panics, and fills the handle; a job that needs
//! no retries uses [`RetryPolicy::none`]. The executor is the engine behind
//! the async session path in `ve-core`: `Explore` submits inference,
//! training, evaluation, and eager-extraction jobs here and measures visible
//! latency from their actual completion times.
//!
//! # Counter semantics
//!
//! All counters live under the same mutex as the job queues, so observers
//! never see a torn state:
//!
//! * `submitted` is incremented **before** the job is pushed (in the same
//!   critical section), so `submitted >= completed` always holds and a job is
//!   never runnable without having been counted.
//! * `completed` counts every job that finished running, **including jobs
//!   that panicked**; `failed` counts the panicked subset. A panicking job
//!   therefore never wedges [`Executor::wait_idle`].
//! * `retried` counts every re-run attempt and `gave_up` every job that
//!   exhausted a multi-attempt budget. All attempts of a job run inside one
//!   executor job, so the job is submitted, completed and timed once.
//! * Workers mark themselves in-flight while holding the lock as they pop,
//!   so "queues empty" and "nothing running" are checked atomically.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ve_obs::timing::{QueueClass, TaskLabel, TaskTiming, TimingPlane};

/// Scheduling priority. Lower ordinal = runs first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Blocks an API response (`T_i` for the current call).
    Critical,
    /// Asynchronous but time-sensitive (`T_m`, `T_e`).
    Normal,
    /// Opportunistic background work (`T_f⁻`); always yields to other tasks.
    Background,
}

impl Priority {
    /// This priority rendered into `ve-obs`'s scheduler-agnostic queue
    /// classes (`ve-obs` sits below `ve-sched` in the dependency graph).
    fn queue_class(self) -> QueueClass {
        match self {
            Priority::Critical => QueueClass::Critical,
            Priority::Normal => QueueClass::Normal,
            Priority::Background => QueueClass::Background,
        }
    }
}

/// How a submitted job is scheduled: its priority class, the timing-plane
/// label attributing it to a session phase and iteration, and its retry
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Queue the job waits in.
    pub priority: Priority,
    /// Timing-plane attribution; the whole retry sequence is one span.
    pub label: TaskLabel,
    /// Attempts and backoff for failed (`Err`) attempts.
    pub retry: RetryPolicy,
}

impl TaskSpec {
    /// An unlabeled, single-attempt job at `priority`.
    pub fn new(priority: Priority) -> Self {
        Self {
            priority,
            label: TaskLabel::unlabeled(),
            retry: RetryPolicy::none(),
        }
    }
}

/// A queued job (it reports whether it panicked) plus the metadata the
/// timing plane needs to attribute it: the deterministic span id (submission
/// counter), the submitter's label, and when it entered the queue.
struct QueuedJob {
    job: Box<dyn FnOnce(&Inner) -> bool + Send + 'static>,
    span: u64,
    label: TaskLabel,
    class: QueueClass,
    submit_us: u64,
}

#[derive(Default)]
struct State {
    critical: VecDeque<QueuedJob>,
    normal: VecDeque<QueuedJob>,
    background: VecDeque<QueuedJob>,
    shutdown: bool,
    submitted: u64,
    completed: u64,
    failed: u64,
    retried: u64,
    gave_up: u64,
    in_flight: usize,
    /// Cumulative wall microseconds jobs spent queued before a worker picked
    /// them up (timing plane; never consulted by logic).
    queue_wait_us: u64,
    /// Per-priority queue-depth high-water marks (critical/normal/background).
    depth_hwm: [u64; 3],
}

impl State {
    fn push(&mut self, priority: Priority, job: QueuedJob) {
        let queue = match priority {
            Priority::Critical => &mut self.critical,
            Priority::Normal => &mut self.normal,
            Priority::Background => &mut self.background,
        };
        queue.push_back(job);
        let depth = queue.len() as u64;
        let slot = &mut self.depth_hwm[priority.queue_class().index()];
        if *slot < depth {
            *slot = depth;
        }
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        self.critical
            .pop_front()
            .or_else(|| self.normal.pop_front())
            .or_else(|| self.background.pop_front())
    }

    fn queued(&self) -> usize {
        self.critical.len() + self.normal.len() + self.background.len()
    }

    /// Nothing queued and nothing running: every submitted job has completed.
    fn is_drained(&self) -> bool {
        self.queued() == 0 && self.in_flight == 0
    }
}

struct Inner {
    state: Mutex<State>,
    /// Workers wait here for new jobs (or shutdown).
    available: Condvar,
    /// `wait_idle`/`wait_for` callers wait here; notified whenever a worker
    /// finishes the last outstanding job.
    drained: Condvar,
    /// Wall-clock timing plane: per-task submit/start/end records joined to
    /// the deterministic event plane by span id.
    plane: TimingPlane,
}

/// Counters describing executor activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Jobs submitted since creation.
    pub submitted: u64,
    /// Jobs that have finished running (including panicked jobs).
    pub completed: u64,
    /// Jobs that panicked while running (a subset of `completed`).
    pub failed: u64,
    /// Failed attempts that were retried under a job's [`RetryPolicy`]; one
    /// increment per re-run attempt.
    pub retried: u64,
    /// Jobs that exhausted a multi-attempt [`RetryPolicy`] budget.
    pub gave_up: u64,
    /// Cumulative wall microseconds jobs spent queued before starting.
    /// Timing-plane data: varies run to run and must never feed logic or
    /// determinism assertions.
    pub queue_wait_us: u64,
    /// Queue-depth high-water marks per priority
    /// (critical/normal/background). Deterministic only under a single
    /// worker; treat as timing-plane data.
    pub depth_hwm: [u64; 3],
}

impl ExecutorStats {
    /// Jobs submitted but not yet finished.
    pub fn pending(&self) -> u64 {
        self.submitted - self.completed
    }

    /// Jobs that finished without panicking.
    pub fn succeeded(&self) -> u64 {
        self.completed - self.failed
    }

    /// The counters as `(name, value)` pairs in stable name order — the
    /// export hook diagnostic bundles and bench artifacts serialize from,
    /// so every consumer names the counters identically.
    pub fn export_kv(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("completed", self.completed),
            ("depth_hwm_background", self.depth_hwm[2]),
            ("depth_hwm_critical", self.depth_hwm[0]),
            ("depth_hwm_normal", self.depth_hwm[1]),
            ("failed", self.failed),
            ("gave_up", self.gave_up),
            ("queue_wait_us", self.queue_wait_us),
            ("retried", self.retried),
            ("submitted", self.submitted),
        ]
    }

    /// One-line JSON object over [`ExecutorStats::export_kv`] (hand-rolled;
    /// no serde in this environment).
    pub fn render_json(&self) -> String {
        let body: Vec<String> = self
            .export_kv()
            .into_iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct HandleShared<T, E> {
    result: Mutex<Option<Result<T, TaskFailure<E>>>>,
    done: Condvar,
}

/// Handle to a submitted job; resolves to the job's value or the
/// [`TaskFailure`] that ended it.
pub struct TaskHandle<T, E> {
    shared: Arc<HandleShared<T, E>>,
}

impl<T, E> TaskHandle<T, E> {
    /// Blocks until the job has run and returns its result. A panicking job
    /// yields `Err(TaskFailure::Panicked)` instead of wedging the caller.
    pub fn join(self) -> Result<T, TaskFailure<E>> {
        let mut slot = self.shared.result.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.shared.done.wait(&mut slot);
        }
    }
}

/// Retry behavior for a fallible job: how many attempts it gets and how long
/// (in *virtual* seconds, converted to wall time via `time_scale`) the worker
/// backs off between them. The backoff schedule is a pure function of the
/// attempt index, so retries replay deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts a job gets (minimum 1).
    pub max_attempts: u32,
    /// Virtual seconds to wait before the first retry.
    pub backoff_base_secs: f64,
    /// Multiplier applied to the backoff for each further retry.
    pub backoff_factor: f64,
    /// Wall seconds per virtual second of backoff; `0.0` disables sleeping
    /// (decisions are unaffected — backoff only shapes measured latency).
    pub time_scale: f64,
}

impl RetryPolicy {
    /// A single attempt, no retries, no backoff.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            backoff_base_secs: 0.0,
            backoff_factor: 1.0,
            time_scale: 0.0,
        }
    }

    /// `max_attempts` attempts with exponential virtual-time backoff.
    pub fn new(max_attempts: u32, backoff_base_secs: f64, backoff_factor: f64) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff_base_secs,
            backoff_factor,
            time_scale: 0.0,
        }
    }

    /// Sets the virtual→wall conversion used when a worker actually sleeps.
    pub fn with_time_scale(mut self, time_scale: f64) -> Self {
        self.time_scale = time_scale;
        self
    }

    /// Virtual seconds of backoff before retry number `retry` (1-based).
    pub fn backoff_secs(&self, retry: u32) -> f64 {
        if retry == 0 {
            return 0.0;
        }
        self.backoff_base_secs * self.backoff_factor.powi(retry as i32 - 1)
    }

    fn backoff_wall(&self, retry: u32) -> Duration {
        let secs = self.backoff_secs(retry) * self.time_scale;
        if secs > 0.0 {
            Duration::from_secs_f64(secs)
        } else {
            Duration::ZERO
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Why a job did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure<E> {
    /// The job panicked; panics are bugs, not transient faults, so they are
    /// never retried.
    Panicked {
        /// The panic payload rendered as a string (when it was a
        /// `&str`/`String`).
        message: String,
    },
    /// The job failed on its only allowed attempt (`max_attempts == 1`).
    Failed(E),
    /// The job failed on every attempt and exhausted its retry budget.
    GaveUp {
        /// Attempts consumed (equals the policy's `max_attempts`).
        attempts: u32,
        /// The error from the final attempt.
        error: E,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for TaskFailure<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFailure::Panicked { message } => write!(f, "executor job panicked: {message}"),
            TaskFailure::Failed(e) => write!(f, "task failed: {e}"),
            TaskFailure::GaveUp { attempts, error } => {
                write!(f, "task gave up after {attempts} attempts: {error}")
            }
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for TaskFailure<E> {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `job`'s attempts under `retry` on the worker thread: the closure
/// receives the 0-based attempt index, failed attempts back off for a
/// deterministic virtual-time delay (scaled by the policy's `time_scale`),
/// and the first success or the reason the job stopped is returned. A
/// panicking attempt is caught and never retried.
fn run_attempts<T, E>(
    inner: &Inner,
    retry: RetryPolicy,
    job: &mut impl FnMut(u32) -> Result<T, E>,
) -> Result<T, TaskFailure<E>> {
    let max = retry.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        let error = match catch_unwind(AssertUnwindSafe(|| job(attempt))) {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(error)) => error,
            Err(payload) => {
                return Err(TaskFailure::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        };
        attempt += 1;
        if attempt >= max {
            if max == 1 {
                return Err(TaskFailure::Failed(error));
            }
            inner.state.lock().gave_up += 1;
            return Err(TaskFailure::GaveUp {
                attempts: attempt,
                error,
            });
        }
        inner.state.lock().retried += 1;
        let backoff = retry.backoff_wall(attempt);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
    }
}

/// Priority-aware thread-pool executor.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Starts an executor with `workers` threads.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            available: Condvar::new(),
            drained: Condvar::new(),
            plane: TimingPlane::new(),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ve-sched-worker-{i}"))
                    .spawn(move || worker_loop(inner, i))
                    .expect("spawn worker"),
            );
        }
        Self {
            inner,
            workers: handles,
        }
    }

    /// The executor's wall-clock timing plane. Session runners drain task
    /// timings from here and benchmarks join them to the event plane by
    /// span id.
    pub fn timing(&self) -> &TimingPlane {
        &self.inner.plane
    }

    /// Enables or disables timing-plane capture (counters in
    /// [`ExecutorStats`] are always maintained; they are a handful of adds
    /// under a lock already held).
    pub fn set_timing_enabled(&self, on: bool) {
        self.inner.plane.set_enabled(on);
    }

    /// Queues `job` under `spec` and returns a [`TaskHandle`] that resolves
    /// to its first `Ok` value or a [`TaskFailure`].
    ///
    /// The closure receives the 0-based attempt index; an `Err` attempt is
    /// re-run under `spec.retry` (see [`RetryPolicy`]). All attempts run
    /// inside **one** executor job, so `submitted`/`completed` and the
    /// timing plane count the operation once and [`Executor::wait_idle`]
    /// converges exactly as for a single attempt. A panicking attempt is
    /// never retried — panics are bugs, not transient faults — and surfaces
    /// both in the handle and in [`ExecutorStats::failed`].
    pub fn submit<T, E, F>(&self, spec: TaskSpec, mut job: F) -> TaskHandle<T, E>
    where
        T: Send + 'static,
        E: Send + 'static,
        F: FnMut(u32) -> Result<T, E> + Send + 'static,
    {
        let shared = Arc::new(HandleShared {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        let slot = Arc::clone(&shared);
        let retry = spec.retry;
        let job = Box::new(move |inner: &Inner| {
            let result = run_attempts(inner, retry, &mut job);
            let panicked = matches!(result, Err(TaskFailure::Panicked { .. }));
            *slot.result.lock() = Some(result);
            slot.done.notify_all();
            panicked
        });
        let submit_us = self.inner.plane.now_us();
        {
            let mut state = self.inner.state.lock();
            // `submitted` is bumped before the push, inside the same critical
            // section — see the module docs on counter semantics.
            state.submitted += 1;
            let span = state.submitted;
            state.push(
                spec.priority,
                QueuedJob {
                    job,
                    span,
                    label: spec.label,
                    class: spec.priority.queue_class(),
                    submit_us,
                },
            );
        }
        self.inner.available.notify_one();
        TaskHandle { shared }
    }

    /// Blocks until every submitted job has completed (including jobs that
    /// panic — see [`ExecutorStats::failed`]).
    pub fn wait_idle(&self) {
        let mut state = self.inner.state.lock();
        while !state.is_drained() {
            self.inner.drained.wait(&mut state);
        }
    }

    /// Like [`Executor::wait_idle`], but gives up after `timeout`. Returns
    /// `true` when the executor drained, `false` on timeout.
    pub fn wait_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        while !state.is_drained() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner.drained.wait_for(&mut state, deadline - now);
        }
        true
    }

    /// Current counters (read atomically under the queue lock).
    pub fn stats(&self) -> ExecutorStats {
        let state = self.inner.state.lock();
        ExecutorStats {
            submitted: state.submitted,
            completed: state.completed,
            failed: state.failed,
            retried: state.retried,
            gave_up: state.gave_up,
            queue_wait_us: state.queue_wait_us,
            depth_hwm: state.depth_hwm,
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: Arc<Inner>, worker: usize) {
    loop {
        let queued = {
            let mut state = inner.state.lock();
            loop {
                if let Some(queued) = state.pop() {
                    // Marked in-flight under the same lock as the pop, so
                    // `is_drained` can never miss a running job.
                    state.in_flight += 1;
                    break Some(queued);
                }
                if state.shutdown {
                    break None;
                }
                inner.available.wait(&mut state);
            }
        };
        let Some(queued) = queued else { return };
        let start_us = inner.plane.now_us();
        // The job wraps its attempts in `catch_unwind` (see `run_attempts`),
        // so a panic never unwinds into — or kills — this worker.
        let panicked = (queued.job)(&inner);
        let end_us = inner.plane.now_us();
        // Recorded before the job counts as completed, so a span is never
        // missing once `wait_idle` returns; outside the queue lock, because
        // the timing plane has its own lock and the two must never nest.
        inner.plane.record_task(TaskTiming {
            span: queued.span,
            label: queued.label,
            class: queued.class,
            worker,
            submit_us: queued.submit_us,
            start_us,
            end_us,
        });
        let mut state = inner.state.lock();
        state.in_flight -= 1;
        state.completed += 1;
        state.queue_wait_us += start_us.saturating_sub(queued.submit_us);
        if panicked {
            state.failed += 1;
        }
        if state.is_drained() {
            inner.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    /// Submits an unlabeled, single-attempt job that cannot fail.
    fn spawn(ex: &Executor, priority: Priority, mut f: impl FnMut() + Send + 'static) {
        ex.submit(TaskSpec::new(priority), move |_| {
            f();
            Ok::<_, Infallible>(())
        });
    }

    #[test]
    fn runs_all_submitted_jobs() {
        let ex = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            spawn(&ex, Priority::Normal, move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        ex.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        let stats = ex.stats();
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.pending(), 0);
        assert_eq!(stats.succeeded(), 100);
    }

    #[test]
    fn critical_jobs_run_before_background_jobs() {
        // Single worker so execution order equals queue order.
        let ex = Executor::new(1);
        let order = Arc::new(StdMutex::new(Vec::new()));
        // Block the worker briefly so all submissions are queued before any
        // execution starts.
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            spawn(&ex, Priority::Critical, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        for i in 0..3 {
            let order = Arc::clone(&order);
            spawn(&ex, Priority::Background, move || {
                order.lock().unwrap().push(format!("bg-{i}"));
            });
        }
        for i in 0..3 {
            let order = Arc::clone(&order);
            spawn(&ex, Priority::Critical, move || {
                order.lock().unwrap().push(format!("crit-{i}"));
            });
        }
        gate.store(true, Ordering::SeqCst);
        ex.wait_idle();
        let order = order.lock().unwrap().clone();
        assert_eq!(
            order,
            vec!["crit-0", "crit-1", "crit-2", "bg-0", "bg-1", "bg-2"],
            "critical work must preempt queued background work"
        );
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let ex = Executor::new(2);
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                spawn(&ex, Priority::Normal, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            ex.wait_idle();
        } // drop here
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        Executor::new(0);
    }

    #[test]
    fn panicking_job_does_not_deadlock_wait_idle() {
        // Regression: the seed executor's worker died with its job, never
        // bumping `completed`, so `wait_idle` spun forever.
        let ex = Executor::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        spawn(&ex, Priority::Normal, || panic!("job exploded"));
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            spawn(&ex, Priority::Normal, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        ex.wait_idle(); // must return, not hang
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        let stats = ex.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6, "panicked jobs still count as completed");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.succeeded(), 5);
    }

    #[test]
    fn worker_survives_a_panic_and_keeps_serving() {
        // Single worker: if the panic killed the thread, the follow-up job
        // could never run.
        let ex = Executor::new(1);
        let ran = Arc::new(AtomicBool::new(false));
        spawn(&ex, Priority::Normal, || panic!("first job dies"));
        {
            let ran = Arc::clone(&ran);
            spawn(&ex, Priority::Normal, move || {
                ran.store(true, Ordering::SeqCst)
            });
        }
        ex.wait_idle();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(ex.stats().failed, 1);
    }

    #[test]
    fn submitted_is_visible_before_the_job_runs() {
        // `submit` bumps `submitted` before pushing, under the queue lock.
        let ex = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            spawn(&ex, Priority::Normal, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        spawn(&ex, Priority::Normal, || {});
        let stats = ex.stats();
        assert_eq!(stats.submitted, 2);
        assert!(stats.completed <= 1);
        assert_eq!(stats.pending(), stats.submitted - stats.completed);
        gate.store(true, Ordering::SeqCst);
        ex.wait_idle();
        assert_eq!(ex.stats().pending(), 0);
    }

    #[test]
    fn wait_for_times_out_then_succeeds() {
        let ex = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            spawn(&ex, Priority::Normal, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        assert!(
            !ex.wait_for(Duration::from_millis(20)),
            "gated job cannot drain within the timeout"
        );
        gate.store(true, Ordering::SeqCst);
        assert!(ex.wait_for(Duration::from_secs(10)));
        assert_eq!(ex.stats().completed, 1);
    }

    #[test]
    fn wait_idle_with_no_work_returns_immediately() {
        let ex = Executor::new(2);
        ex.wait_idle();
        assert!(ex.wait_for(Duration::from_millis(1)));
        assert_eq!(
            ex.stats(),
            ExecutorStats {
                submitted: 0,
                completed: 0,
                failed: 0,
                retried: 0,
                gave_up: 0,
                queue_wait_us: 0,
                depth_hwm: [0, 0, 0],
            }
        );
    }

    #[test]
    fn depth_high_water_marks_track_per_priority_queues() {
        // Single worker blocked on a gate: everything queued after the gate
        // job piles up and the high-water marks see the full depth.
        let ex = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            spawn(&ex, Priority::Critical, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        for _ in 0..3 {
            spawn(&ex, Priority::Normal, || {});
        }
        for _ in 0..2 {
            spawn(&ex, Priority::Background, || {});
        }
        gate.store(true, Ordering::SeqCst);
        ex.wait_idle();
        let stats = ex.stats();
        // The gate job may or may not have been popped before the others
        // were pushed, so critical saw depth 0 or 1; the blocked queues saw
        // their full depth.
        assert!(stats.depth_hwm[0] <= 1);
        assert_eq!(stats.depth_hwm[1], 3, "{:?}", stats.depth_hwm);
        assert_eq!(stats.depth_hwm[2], 2, "{:?}", stats.depth_hwm);
    }

    #[test]
    fn timing_plane_records_labeled_spans_with_queue_wait() {
        let ex = Executor::new(2);
        let h1 = ex.submit(
            TaskSpec {
                label: TaskLabel::new("train", 3),
                ..TaskSpec::new(Priority::Normal)
            },
            |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                Ok::<_, Infallible>(())
            },
        );
        let h2 = ex.submit(
            TaskSpec {
                label: TaskLabel::new("infer", 3),
                ..TaskSpec::new(Priority::Critical)
            },
            |_| Ok::<_, Infallible>(()),
        );
        h1.join().unwrap();
        h2.join().unwrap();
        ex.wait_idle();
        let tasks = ex.timing().tasks();
        assert_eq!(tasks.len(), 2);
        let train = tasks.iter().find(|t| t.label.kind == "train").unwrap();
        assert_eq!(train.label.iteration, 3);
        assert_eq!(train.class, QueueClass::Normal);
        assert!(train.end_us >= train.start_us + 1_000, "{train:?}");
        assert!(train.start_us >= train.submit_us);
        // Span ids are the submission counter: unique and deterministic.
        let mut spans: Vec<u64> = tasks.iter().map(|t| t.span).collect();
        spans.sort_unstable();
        assert_eq!(spans, vec![1, 2]);
        // Cumulative queue wait is the sum over recorded tasks.
        let sum: u64 = tasks.iter().map(|t| t.queue_wait_us()).sum();
        assert_eq!(ex.stats().queue_wait_us, sum);
    }

    #[test]
    fn a_retried_job_is_one_submission_and_one_labeled_span() {
        let ex = Executor::new(1);
        let spec = TaskSpec {
            priority: Priority::Normal,
            label: TaskLabel::new("train", 7),
            retry: RetryPolicy::new(3, 0.0, 1.0),
        };
        let handle = ex.submit(spec, |attempt| {
            if attempt < 2 {
                Err("transient")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(handle.join().unwrap(), 2);
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.retried, 2);
        assert_eq!(stats.gave_up, 0);
        let tasks = ex.timing().tasks();
        assert_eq!(tasks.len(), 1, "the whole retry sequence is one span");
        assert_eq!(tasks[0].label, spec.label);
        assert_eq!(tasks[0].class, QueueClass::Normal);
    }

    #[test]
    fn disabled_timing_plane_keeps_counters_but_drops_spans() {
        let ex = Executor::new(1);
        ex.set_timing_enabled(false);
        spawn(&ex, Priority::Normal, || {});
        ex.wait_idle();
        assert!(ex.timing().tasks().is_empty());
        assert_eq!(ex.stats().completed, 1);
        assert_eq!(ex.stats().depth_hwm[1], 1);
    }

    #[test]
    fn handle_returns_the_job_result() {
        let ex = Executor::new(2);
        let handle = ex.submit(TaskSpec::new(Priority::Critical), |_| {
            Ok::<_, Infallible>(6 * 7)
        });
        assert_eq!(handle.join().unwrap(), 42);
        ex.wait_idle();
        assert_eq!(ex.stats().failed, 0);
    }

    #[test]
    fn handle_surfaces_a_panic_as_error_and_counts_it_failed() {
        let ex = Executor::new(2);
        let handle = ex.submit(
            TaskSpec::new(Priority::Normal),
            |_| -> Result<usize, Infallible> {
                panic!("typed job exploded");
            },
        );
        let err = handle.join().unwrap_err();
        assert!(
            matches!(&err, TaskFailure::Panicked { message } if message.contains("typed job exploded")),
            "{err:?}"
        );
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!(stats.failed, 1, "panicked jobs are counted by the worker");
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn retryable_job_succeeds_after_transient_failures() {
        let ex = Executor::new(2);
        let spec = TaskSpec {
            retry: RetryPolicy::new(4, 0.0, 1.0),
            ..TaskSpec::new(Priority::Normal)
        };
        let handle = ex.submit(spec, |attempt| {
            if attempt < 2 {
                Err("flaky")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(handle.join().unwrap(), 2);
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!(stats.submitted, 1, "all attempts run inside one job");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retried, 2);
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn retryable_job_gives_up_when_budget_is_exhausted() {
        let ex = Executor::new(1);
        let spec = TaskSpec {
            retry: RetryPolicy::new(3, 0.0, 1.0),
            ..TaskSpec::new(Priority::Normal)
        };
        let handle = ex.submit(spec, |_attempt| -> Result<(), &'static str> {
            Err("always broken")
        });
        match handle.join() {
            Err(TaskFailure::GaveUp { attempts, error }) => {
                assert_eq!(attempts, 3);
                assert_eq!(error, "always broken");
            }
            other => panic!("expected GaveUp, got {other:?}"),
        }
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!(stats.retried, 2, "two re-run attempts before giving up");
        assert_eq!(stats.gave_up, 1);
        assert_eq!(stats.failed, 0, "typed failure is not a panic");
    }

    #[test]
    fn single_attempt_policy_reports_failed_not_gave_up() {
        let ex = Executor::new(1);
        let handle = ex.submit(
            TaskSpec::new(Priority::Normal),
            |_| -> Result<(), &'static str> { Err("no retries allowed") },
        );
        assert!(matches!(
            handle.join(),
            Err(TaskFailure::Failed("no retries allowed"))
        ));
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!(stats.retried, 0);
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn retryable_job_panic_is_not_retried_and_counts_failed() {
        let ex = Executor::new(2);
        let attempts = Arc::new(AtomicUsize::new(0));
        let handle = {
            let attempts = Arc::clone(&attempts);
            let spec = TaskSpec {
                retry: RetryPolicy::new(5, 0.0, 1.0),
                ..TaskSpec::new(Priority::Normal)
            };
            ex.submit(spec, move |_| -> Result<(), &'static str> {
                attempts.fetch_add(1, Ordering::SeqCst);
                panic!("attempt exploded");
            })
        };
        match handle.join() {
            Err(TaskFailure::Panicked { message }) => {
                assert!(message.contains("attempt exploded"))
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        ex.wait_idle();
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "panics are not retried");
        let stats = ex.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.retried, 0);
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn backoff_schedule_is_a_pure_function_of_the_attempt() {
        let policy = RetryPolicy::new(4, 0.5, 2.0);
        assert_eq!(policy.backoff_secs(0), 0.0);
        assert_eq!(policy.backoff_secs(1), 0.5);
        assert_eq!(policy.backoff_secs(2), 1.0);
        assert_eq!(policy.backoff_secs(3), 2.0);
        assert_eq!(RetryPolicy::none().backoff_secs(1), 0.0);
    }

    #[test]
    fn stats_export_is_name_sorted_and_renders_json() {
        let stats = ExecutorStats {
            submitted: 9,
            completed: 8,
            failed: 1,
            retried: 2,
            gave_up: 1,
            queue_wait_us: 1234,
            depth_hwm: [3, 2, 1],
        };
        let kv = stats.export_kv();
        let names: Vec<&str> = kv.iter().map(|(k, _)| *k).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "export order must be stable name order");
        let json = stats.render_json();
        assert!(json.contains("\"submitted\": 9"), "{json}");
        assert!(json.contains("\"depth_hwm_critical\": 3"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
