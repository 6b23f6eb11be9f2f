//! One benchmark run: set-up timing, repeated seeded sessions for the run
//! length, correctness checks, and the reduction to reported metrics.

use crate::metrics::PER_LAYER;
use crate::session::{run_session, SessionRun};
use crate::spans::SPAN_NAMES;
use crate::stats::IterTimes;
use crate::stats::{mean, median, peak_rss_mb, per_iteration_min, quantile, reference_kernel_ms};
use crate::workload::{Workload, BATCH};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};
use ve_sched::{ExecutorStats, FaultPlan};
use ve_vidsim::Dataset;
use vocalexplore::{VocalExplore, VocalExploreConfig};

/// The tail quantile: two corpora of 100 iterations pool 200 per-iteration
/// minima, which leaves ten samples beyond the p95 (four leave twenty).
const TAIL: f64 = 0.95;

/// Fresh constructions per set-up round; one costs only milliseconds.
const SETUP_PER_ROUND: usize = 8;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Rounds run even when the run length is already used up.
    pub min_rounds: usize,
    pub fault_plan: Option<FaultPlan>,
}

pub struct Report {
    pub workload: &'static str,
    /// Name and detail of the first correctness check that failed.
    pub failed_check: Option<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context printed before the metrics.
    pub notes: Vec<String>,
}

/// One generated corpus of a run and the sessions repeated over it.
struct Corpus {
    dataset: Dataset,
    cfg: VocalExploreConfig,
    plain: Vec<SessionRun>,
    traced: Vec<SessionRun>,
}

impl Corpus {
    /// Corpus `j` of a run with seed `s` is generated from seed
    /// `s * corpora + j`, so distinct run seeds never share a corpus.
    fn new(w: &Workload, seed: u64, j: usize, fault_plan: Option<&FaultPlan>) -> Self {
        let seed = seed.wrapping_mul(w.corpora as u64).wrapping_add(j as u64);
        let dataset = w.dataset(seed);
        let mut cfg = w.system_config(&dataset, seed);
        if let Some(plan) = fault_plan {
            cfg = cfg.with_fault_plan(plan.clone());
        }
        Self {
            dataset,
            cfg,
            plain: Vec::new(),
            traced: Vec::new(),
        }
    }
}

/// Per-iteration minima of each corpus's sessions, pooled over the corpora.
fn pooled_minima<'a>(sessions: impl Iterator<Item = &'a Vec<SessionRun>>) -> Vec<IterTimes> {
    sessions
        .flat_map(|runs| {
            per_iteration_min(&runs.iter().map(|r| r.iters.clone()).collect::<Vec<_>>())
        })
        .collect()
}

pub fn run(w: &Workload, opts: &Options) -> Report {
    let ref_start = reference_kernel_ms();
    let mut corpora: Vec<Corpus> = (0..w.corpora)
        .map(|j| Corpus::new(w, opts.seed, j, opts.fault_plan.as_ref()))
        .collect();

    // A round runs one set-up round and one untraced session per corpus;
    // a traced run adds a traced session right after each untraced one, so
    // both see the same host. A round starts only while it is expected to
    // end by the deadline, so a run lasts about `seconds`.
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut setup = SetupTimes::default();
    let (mut rounds, mut longest_round, mut peak_rss) = (0, Duration::ZERO, 0.0);
    while rounds < opts.min_rounds || Instant::now() + longest_round < deadline {
        let start = Instant::now();
        for c in &mut corpora {
            setup.round(&c.dataset, &c.cfg);
            c.plain.push(run_session(w, &c.dataset, &c.cfg, false));
            if opts.traced {
                c.traced.push(run_session(w, &c.dataset, &c.cfg, true));
            }
        }
        rounds += 1;
        longest_round = longest_round.max(start.elapsed());
        // Later rounds only add allocator churn, so the user-visible peak is
        // taken after the first.
        if rounds == 1 {
            peak_rss = peak_rss_mb();
        }
    }
    let ref_end = reference_kernel_ms();

    let all = || corpora.iter().flat_map(|c| c.plain.iter().chain(&c.traced));
    let attempted = all().map(|r| r.attempted).sum();
    let failed = all().map(|r| r.failed).sum();
    let mut failed_check = corpora
        .iter()
        .find_map(|c| check(w, &c.plain.iter().chain(&c.traced).collect::<Vec<_>>()).err());

    let plain_min = pooled_minima(corpora.iter().map(|c| &c.plain));
    let e2e = EndToEnd::of(&plain_min);
    let f1: Vec<f64> = corpora.iter().map(|c| c.plain[0].final_f1).collect();
    let mut notes = vec![
        format!(
            "workload {} seed {}: {rounds} rounds over {} corpora, {} sessions per corpus and \
             round; timings are per-iteration minima over a corpus's sessions, quantiles over \
             n={} iterations ({} per corpus)",
            w.name,
            opts.seed,
            w.corpora,
            1 + usize::from(opts.traced),
            plain_min.len(),
            w.iterations
        ),
        format!(
            "setup_s: median over {} rounds of the best of {SETUP_PER_ROUND} fresh constructions",
            setup.rounds.len()
        ),
        format!("failed_ratio = {failed}/{attempted}"),
        format!(
            "final_macro_f1 per corpus {f1:.6?} (quality guard: checked, reported with --trace 1)"
        ),
        format!(
            "host.ref_ms start {ref_start:.3} end {ref_end:.3} (drift diagnostic, never gated)"
        ),
    ];

    let metrics = if !opts.traced {
        vec![
            ("visible_ms.p50", e2e.visible_p50),
            (
                "visible_ms.mean",
                mean(plain_min.iter().map(|i| i.visible_ms)),
            ),
            ("background_ms.p50", e2e.background_p50),
            (
                "background_ms.mean",
                mean(plain_min.iter().map(|i| i.background_ms)),
            ),
            ("iterations_per_s", e2e.iterations_per_s),
            ("setup_s", median(setup.rounds.iter().copied())),
            ("peak_rss_mb", peak_rss),
        ]
    } else {
        let min = pooled_minima(corpora.iter().map(|c| &c.traced));
        let first = &corpora[0].traced[0];
        let trace = first
            .trace
            .as_ref()
            .expect("traced sessions keep their trace");
        let required: &[&str] = if w.is_async() {
            &[
                "session", "select", "visible", "think", "spill", "infer", "train", "eager",
            ]
        } else {
            &SPAN_NAMES
        };
        let spans = match trace.validate(required) {
            Ok(stats) => stats.spans as f64,
            Err(e) => {
                failed_check.get_or_insert(("trace_valid", e));
                0.0
            }
        };
        let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{out_dir}/{}.trace.json", w.name);
        match std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(&path, trace.render_json()))
        {
            Ok(()) => notes.push(format!("trace of corpus 0 written to {path}")),
            Err(e) => notes.push(format!("trace not written: {e}")),
        }

        let traced_e2e = EndToEnd::of(&min);
        let exec = first.executor.unwrap_or(ExecutorStats {
            submitted: 0,
            completed: 0,
            failed: 0,
            retried: 0,
            gave_up: 0,
            queue_wait_us: 0,
            depth_hwm: [0; 3],
        });
        let mut m = vec![
            (
                "visible_ms.p95",
                quantile(min.iter().map(|i| i.visible_ms), TAIL),
            ),
            (
                "background_ms.p95",
                quantile(min.iter().map(|i| i.background_ms), TAIL),
            ),
            ("system.new_ms", setup.new_ms),
            ("system.add_video_ms", setup.add_video_ms),
            ("alm.select_ms.p50", median(min.iter().map(|i| i.select_ms))),
            (
                "alm.select_ms.p95",
                quantile(min.iter().map(|i| i.select_ms), TAIL),
            ),
            ("mm.infer_ms.p50", median(min.iter().map(|i| i.infer_ms))),
            (
                "mm.train_eval_ms.p50",
                median(min.iter().map(|i| i.train_eval_ms)),
            ),
            (
                "mm.train_eval_ms.p95",
                quantile(min.iter().map(|i| i.train_eval_ms), TAIL),
            ),
            ("fm.eager_ms.p50", median(min.iter().map(|i| i.eager_ms))),
            (
                "fm.eager_ms.p95",
                quantile(min.iter().map(|i| i.eager_ms), TAIL),
            ),
            ("labels.add_ms.p50", median(min.iter().map(|i| i.label_ms))),
            ("exec.submitted", exec.submitted as f64),
            ("exec.completed", exec.completed as f64),
            ("exec.failed", exec.failed as f64),
            ("exec.retried", exec.retried as f64),
            ("exec.gave_up", exec.gave_up as f64),
            ("exec.queue_wait_ms", exec.queue_wait_us as f64 / 1e3),
            ("exec.depth_hwm.critical", exec.depth_hwm[0] as f64),
            ("exec.depth_hwm.normal", exec.depth_hwm[1] as f64),
            ("exec.depth_hwm.background", exec.depth_hwm[2] as f64),
            (
                "session.spill_ms.p50",
                median(min.iter().map(|i| i.spill_ms)),
            ),
            ("trace.spans", spans),
            (
                "trace.overhead.visible_ms.p50",
                traced_e2e.visible_p50 - e2e.visible_p50,
            ),
            (
                "trace.overhead.background_ms.p50",
                traced_e2e.background_p50 - e2e.background_p50,
            ),
            (
                "trace.overhead.iterations_per_s",
                traced_e2e.iterations_per_s - e2e.iterations_per_s,
            ),
            ("host.ref_ms", (ref_start + ref_end) / 2.0),
            ("final_macro_f1", f1.iter().sum::<f64>() / f1.len() as f64),
        ];
        let counter = |name: &str| {
            first
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let (hits, misses) = (
            counter("prob_cache.hit_rows"),
            counter("prob_cache.miss_rows"),
        );
        m.push((
            "prob_cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ));
        // The rest of the catalogue: span self times and program counters
        // (0 where a workload's path does not expose one; see `README.md`).
        for &(metric, _) in PER_LAYER {
            if m.iter().any(|(n, _)| *n == metric) {
                continue;
            }
            let value = match metric
                .strip_prefix("span.")
                .and_then(|n| n.strip_suffix(".self_ms"))
            {
                Some(span) => self_ms_per_iteration(&corpora, span, min.len()),
                None => counter(metric),
            };
            m.push((metric, value));
        }
        m
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            failed_check.get_or_insert(("finite_metrics", format!("{name} = {value}")));
        }
    }
    Report {
        workload: w.name,
        failed_check,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// A span's self time per iteration: per corpus the minimum over its traced
/// sessions, averaged over all pooled iterations.
fn self_ms_per_iteration(corpora: &[Corpus], span: &str, iterations: usize) -> f64 {
    let total: f64 = corpora
        .iter()
        .map(|c| {
            c.traced
                .iter()
                .map(|r| {
                    r.self_ms
                        .iter()
                        .find(|(n, _)| *n == span)
                        .map_or(0.0, |(_, ms)| *ms)
                })
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / iterations as f64
}

/// Set-up time: `VocalExplore::new` plus `add_video` over the training
/// corpus. One round runs before each session, so the rounds sample the host
/// across the whole run; each round keeps its best construction.
struct SetupTimes {
    /// Best set-up seconds of each round.
    rounds: Vec<f64>,
    new_ms: f64,
    add_video_ms: f64,
}

impl Default for SetupTimes {
    fn default() -> Self {
        Self {
            rounds: Vec::new(),
            new_ms: f64::INFINITY,
            add_video_ms: f64::INFINITY,
        }
    }
}

impl SetupTimes {
    fn round(&mut self, dataset: &Dataset, cfg: &VocalExploreConfig) {
        let mut best = f64::INFINITY;
        for _ in 0..SETUP_PER_ROUND {
            let start = Instant::now();
            let mut system = VocalExplore::new(cfg.clone());
            let built = Instant::now();
            for clip in dataset.train.videos() {
                system.add_video(clip.clone());
            }
            let end = Instant::now();
            drop(black_box(system));
            self.new_ms = self
                .new_ms
                .min(built.duration_since(start).as_secs_f64() * 1e3);
            self.add_video_ms = self
                .add_video_ms
                .min(end.duration_since(built).as_secs_f64() * 1e3);
            best = best.min(end.duration_since(start).as_secs_f64());
        }
        self.rounds.push(best);
    }
}

/// The end-to-end figures the traced-minus-untraced overhead compares.
struct EndToEnd {
    visible_p50: f64,
    background_p50: f64,
    iterations_per_s: f64,
}

impl EndToEnd {
    fn of(min: &[IterTimes]) -> Self {
        let wall_s: f64 = min.iter().map(|i| i.wall_ms).sum::<f64>() / 1e3;
        Self {
            visible_p50: median(min.iter().map(|i| i.visible_ms)),
            background_p50: median(min.iter().map(|i| i.background_ms)),
            iterations_per_s: min.len() as f64 / wall_s,
        }
    }
}

/// The correctness checks, in order; the first failure is reported by name.
fn check(w: &Workload, runs: &[&SessionRun]) -> Result<(), (&'static str, String)> {
    for run in runs {
        check_batches(w, run).map_err(|e| ("explore_batches", e))?;
    }
    let first = runs[0];
    if let Some(i) = runs.iter().position(|r| r.labels != first.labels) {
        return Err((
            "labels_identical",
            format!("session {i} labeled a different sequence than session 0"),
        ));
    }
    let (failed, attempted): (u64, u64) = runs
        .iter()
        .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
    if failed > 0 {
        return Err((
            "failed_ratio",
            format!("{failed} of {attempted} operations failed or degraded"),
        ));
    }
    for exec in runs.iter().filter_map(|r| r.executor) {
        if exec.completed != exec.submitted {
            return Err((
                "executor_drained",
                format!(
                    "completed {} != submitted {}",
                    exec.completed, exec.submitted
                ),
            ));
        }
    }
    if first.final_f1 <= 0.0 {
        return Err((
            "final_macro_f1",
            "final model has zero macro F1".to_string(),
        ));
    }
    if let Some(r) = runs
        .iter()
        .find(|r| r.final_f1.to_bits() != first.final_f1.to_bits())
    {
        return Err((
            "final_macro_f1",
            format!(
                "F1 {} differs from session 0's {}",
                r.final_f1, first.final_f1
            ),
        ));
    }
    Ok(())
}

/// Every `Explore` returned `B` distinct windows that were never labeled.
/// In the closed loop the labels are exactly the returned windows, tagged
/// with the iteration that returned them.
fn check_batches(w: &Workload, run: &SessionRun) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for iteration in 1..=w.iterations as u32 {
        let batch: Vec<_> = run
            .labels
            .iter()
            .filter(|l| l.iteration == iteration)
            .collect();
        if batch.len() != BATCH {
            return Err(format!(
                "iteration {iteration} returned {} windows, expected {BATCH}",
                batch.len()
            ));
        }
        for l in batch {
            if !seen.insert((l.vid.0, l.range.start.to_bits(), l.range.end.to_bits())) {
                return Err(format!(
                    "iteration {iteration} returned {:?} {:?} twice or after it was labeled",
                    l.vid, l.range
                ));
            }
        }
    }
    if run.labels.len() != BATCH * w.iterations {
        return Err(format!(
            "{} labels, expected {}",
            run.labels.len(),
            BATCH * w.iterations
        ));
    }
    Ok(())
}
