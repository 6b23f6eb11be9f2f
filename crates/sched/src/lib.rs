//! `ve-sched` — the Task Scheduler (Section 4).
//!
//! VOCALExplore decomposes each `Explore` call into tasks of five types —
//! feature extraction (`T_f`), model training (`T_m`), model inference
//! (`T_i`), feature evaluation (`T_e`), and sample selection (`T_s`) — plus
//! the low-priority eager feature-extraction tasks (`T_f⁻`) introduced by the
//! `VE-full` strategy. The scheduler's job is to minimize the *user-visible*
//! latency of each iteration, `T_visible = T_total − B·T_user`, without
//! letting the model the user sees become stale.
//!
//! The crate provides:
//!
//! * [`executor`] — one priority pool (`T_i` critical, `T_m`/`T_e` normal,
//!   `T_f⁻` background) with a single [`Executor::submit`] entry point taking
//!   a [`TaskSpec`]; it is the engine behind `ve-core`'s async session path,
//! * [`strategy`] — the Serial, `VE-partial`, and `VE-full` scheduling
//!   strategies and their per-iteration visible-latency accounting (the
//!   analytic oracle the measured sessions are checked against),
//! * [`fault`] — seeded, replayable fault injection, and
//! * [`parallel`] — thread-count-independent data-parallel helpers for the
//!   compute hot paths.
//!
//! The eager-extraction plan itself lives with the system state it reads
//! (`VocalExplore::eager_plan` in `ve-core`).

pub mod executor;
pub mod fault;
pub mod parallel;
pub mod strategy;

pub use executor::{
    Executor, ExecutorStats, Priority, RetryPolicy, TaskFailure, TaskHandle, TaskSpec,
};
pub use fault::{FaultInjector, FaultPlan, FaultRule, FaultSite, InjectedFault};
pub use strategy::{iteration_latency, IterationCosts, IterationLatency, SchedulerStrategy};
