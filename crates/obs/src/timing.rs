//! The timing plane: wall-clock enrichment of the event plane.
//!
//! **This is the only file in `ve-obs` allowed to read the clock** — it is
//! listed in `ve-lint`'s `WALL_CLOCK_EXEMPT_FILES`, alongside the crate-wide
//! exemption `ve-sched` already has. Everything here is *measurement*:
//! nothing downstream may branch on these numbers, and the deterministic
//! event plane never stores them. The two planes join on `span` — the
//! executor's submission counter — so a Perfetto track can show the wall
//! time of an event whose content is still a pure function of inputs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Deterministic description of a task, attached at submission. `kind` is a
/// static phase name (`"infer"`, `"train"`, `"eager"`, `"eval"`, …) and
/// `iteration` the session iteration the task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskLabel {
    pub kind: &'static str,
    pub iteration: u32,
}

impl TaskLabel {
    pub const fn new(kind: &'static str, iteration: u32) -> Self {
        Self { kind, iteration }
    }

    /// Label for jobs submitted without a phase tag.
    pub const fn unlabeled() -> Self {
        Self::new("task", 0)
    }
}

/// Mirror of the executor's priority classes. `ve-obs` sits below `ve-sched`
/// in the dependency graph, so it declares its own copy; the scheduler maps
/// its `Priority` into this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueueClass {
    Critical,
    Normal,
    Background,
}

impl QueueClass {
    pub const ALL: [QueueClass; 3] = [
        QueueClass::Critical,
        QueueClass::Normal,
        QueueClass::Background,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn label(self) -> &'static str {
        match self {
            QueueClass::Critical => "critical",
            QueueClass::Normal => "normal",
            QueueClass::Background => "background",
        }
    }
}

/// Wall-clock record of one executed task, joined to the event plane by
/// `span`. All times are microseconds since the plane's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTiming {
    pub span: u64,
    pub label: TaskLabel,
    pub class: QueueClass,
    pub worker: usize,
    pub submit_us: u64,
    pub start_us: u64,
    pub end_us: u64,
}

impl TaskTiming {
    /// Time spent queued before a worker picked the task up.
    pub fn queue_wait_us(&self) -> u64 {
        self.start_us.saturating_sub(self.submit_us)
    }

    /// Time spent actually running.
    pub fn run_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Wall-clock record of one session-thread phase (e.g. the selection step),
/// measured by the caller with an already-running timer and handed in as a
/// duration — the session logic itself never reads the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTiming {
    pub phase: &'static str,
    pub iteration: u32,
    pub start_us: u64,
    pub dur_us: u64,
}

struct TimingState {
    tasks: Vec<TaskTiming>,
    phases: Vec<PhaseTiming>,
}

/// The timing plane: an origin instant plus the recorded task and phase
/// timings. Cheap to consult when disabled (one relaxed atomic load).
pub struct TimingPlane {
    t0: Instant,
    enabled: AtomicBool,
    timings: Mutex<TimingState>,
}

impl TimingPlane {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            enabled: AtomicBool::new(true),
            timings: Mutex::new(TimingState {
                tasks: Vec::new(),
                phases: Vec::new(),
            }),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since the plane's origin.
    pub fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    pub fn record_task(&self, timing: TaskTiming) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.timings.lock().expect("obs.timings poisoned");
        state.tasks.push(timing);
    }

    /// Records a session-thread phase whose duration the caller measured
    /// with its own (pre-existing) timer.
    pub fn record_phase(&self, phase: &'static str, iteration: u32, dur_us: u64) {
        if !self.is_enabled() {
            return;
        }
        let start_us = self.now_us().saturating_sub(dur_us);
        let mut state = self.timings.lock().expect("obs.timings poisoned");
        state.phases.push(PhaseTiming {
            phase,
            iteration,
            start_us,
            dur_us,
        });
    }

    pub fn tasks(&self) -> Vec<TaskTiming> {
        self.timings
            .lock()
            .expect("obs.timings poisoned")
            .tasks
            .clone()
    }

    pub fn phases(&self) -> Vec<PhaseTiming> {
        self.timings
            .lock()
            .expect("obs.timings poisoned")
            .phases
            .clone()
    }
}

impl Default for TimingPlane {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_timing_derives_wait_and_run() {
        let t = TaskTiming {
            span: 1,
            label: TaskLabel::new("train", 3),
            class: QueueClass::Normal,
            worker: 0,
            submit_us: 10,
            start_us: 25,
            end_us: 125,
        };
        assert_eq!(t.queue_wait_us(), 15);
        assert_eq!(t.run_us(), 100);
    }

    #[test]
    fn disabled_plane_records_nothing() {
        let plane = TimingPlane::new();
        plane.set_enabled(false);
        plane.record_task(TaskTiming {
            span: 0,
            label: TaskLabel::unlabeled(),
            class: QueueClass::Critical,
            worker: 0,
            submit_us: 0,
            start_us: 0,
            end_us: 1,
        });
        plane.record_phase("select", 0, 5);
        assert!(plane.tasks().is_empty());
        assert!(plane.phases().is_empty());
    }

    #[test]
    fn now_is_monotonic_from_origin() {
        let plane = TimingPlane::new();
        let a = plane.now_us();
        let b = plane.now_us();
        assert!(b >= a);
    }
}
