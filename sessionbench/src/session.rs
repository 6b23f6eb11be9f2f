//! One seeded exploration session, in the closed loop of one simulated user:
//! the oracle labels each batch before the next `Explore` call and never
//! makes the system wait.
//!
//! The three facade workloads drive `VocalExplore` call by call, so the
//! benchmark times (and, when traced, spans) each public call itself. The
//! async workload runs `AsyncSessionRunner::run`, whose per-iteration
//! measurements and timing plane are the only view into its window.

use crate::spans::Tracer;
use crate::stats::IterTimes;
use crate::workload::{Workload, BATCH, CLIP_LEN, EAGER_VIDEOS};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use ve_features::ExtractorId;
use ve_ml::Classifier;
use ve_obs::ChromeTrace;
use ve_sched::ExecutorStats;
use ve_storage::LabelRecord;
use ve_vidsim::{Dataset, GroundTruthOracle, Oracle, TaskKind, TimeRange};
use vocalexplore::{
    AsyncSessionRunner, SessionConfig, SessionEvent, VocalExplore, VocalExploreConfig,
};

/// What one session produced.
pub struct SessionRun {
    pub iters: Vec<IterTimes>,
    pub labels: Vec<LabelRecord>,
    pub final_f1: f64,
    /// Operations attempted and failed or degraded (see `README.md`).
    pub attempted: u64,
    pub failed: u64,
    /// Executor counters (async workload only).
    pub executor: Option<ExecutorStats>,
    /// Program-exposed layer counters at the end of the session.
    pub counters: Vec<(&'static str, f64)>,
    /// Self time per span name, summed over the session (traced runs only).
    pub self_ms: Vec<(&'static str, f64)>,
    pub trace: Option<ChromeTrace>,
}

/// A fresh system with the training corpus registered — the set-up a user
/// pays before the first `Explore`.
pub fn build_system(dataset: &Dataset, cfg: &VocalExploreConfig) -> VocalExplore {
    let mut system = VocalExplore::new(cfg.clone());
    for clip in dataset.train.videos() {
        system.add_video(clip.clone());
    }
    system
}

pub fn run_session(
    w: &Workload,
    dataset: &Dataset,
    cfg: &VocalExploreConfig,
    traced: bool,
) -> SessionRun {
    if w.is_async() {
        run_async(w, dataset, cfg, traced)
    } else {
        run_facade(w, dataset, cfg, traced)
    }
}

fn run_facade(
    w: &Workload,
    dataset: &Dataset,
    cfg: &VocalExploreConfig,
    traced: bool,
) -> SessionRun {
    let mut system = build_system(dataset, cfg);
    let oracle = GroundTruthOracle::new(cfg.task);
    let mut tracer = Tracer::new(traced);
    let mut iters = Vec::with_capacity(w.iterations);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut lazy_videos, mut candidates_lost, mut evaluations) = (0usize, 0usize, 0usize);
    let mut selected_at = 0usize;

    let session = tracer.open("session");
    for iteration in 1..=w.iterations {
        tracer.set_iteration(iteration as u32);
        let iter_span = tracer.open("iteration");

        let visible = tracer.open("visible");
        let select = tracer.open("select");
        let (picks, stats) = system.sample_segments(BATCH, CLIP_LEN, None);
        let select_ms = tracer.close(select);
        let infer = tracer.open("infer");
        if system.predictions_ready() {
            let served = system.model_manager().predict_batch(
                system.current_extractor(),
                system.corpus(),
                system.feature_manager(),
                &picks,
            );
            // The facade serves a batch without predictions when inference
            // fails; count it like the facade's `PredictionDropped`.
            failed += u64::from(served.is_err());
            black_box(served.ok());
        }
        let infer_ms = tracer.close(infer);
        let visible_ms = tracer.close(visible);

        let label = tracer.open("label");
        for &(vid, range) in &picks {
            let classes = oracle.label(&dataset.train, vid, &range);
            system.add_label(vid, range, classes);
        }
        let label_ms = tracer.close(label);

        let background = tracer.open("background");
        let pending = tracer.open("pending");
        evaluations += system.process_pending_work();
        let train_eval_ms = tracer.close(pending);
        let eager = tracer.open("eager");
        if w.eager() {
            black_box(system.eager_extract(EAGER_VIDEOS));
        }
        let eager_ms = tracer.close(eager);
        let background_ms = tracer.close(background);
        let wall_ms = tracer.close(iter_span);

        // Explore, B AddLabels, the deferred work and the eager round.
        attempted += 2 + picks.len() as u64 + u64::from(w.eager());
        failed += system.drain_degradations().len() as u64;
        lazy_videos += stats.videos_extracted_for_call;
        candidates_lost += stats.candidates_lost;
        if selected_at == 0 && system.alm().selected_extractor().is_some() {
            selected_at = iteration;
        }
        iters.push(IterTimes {
            visible_ms,
            background_ms,
            wall_ms,
            select_ms,
            infer_ms,
            label_ms,
            train_eval_ms,
            eager_ms,
            spill_ms: 0.0,
        });
    }
    tracer.close(session);

    let extractor = system.current_extractor();
    let final_f1 = macro_f1(&system, dataset, extractor);
    let index = system.alm().index_stats();
    let cache = system.alm().prob_cache_stats();
    let mm = system.model_manager();
    let training = mm.training_stats();
    let fm = system.feature_manager();
    let dropped: u64 = system.obs().dropped_events().iter().map(|(_, n)| n).sum();
    let counters = vec![
        ("alm.index_rows", index.map_or(0, |s| s.rows) as f64),
        ("alm.index_videos", index.map_or(0, |s| s.videos) as f64),
        (
            "alm.sketch_built",
            f64::from(index.is_some_and(|s| s.sketch_built)),
        ),
        ("alm.lazy_videos", lazy_videos as f64),
        ("alm.candidates_lost", candidates_lost as f64),
        ("prob_cache.hit_rows", cache.hit_rows as f64),
        ("prob_cache.miss_rows", cache.miss_rows as f64),
        ("prob_cache.invalidations", cache.invalidations as f64),
        ("mm.models_trained", mm.models_trained() as f64),
        ("mm.cold_trains", training.cold_trains as f64),
        ("mm.warm_trains", training.warm_trains as f64),
        ("mm.last_examples", training.last_examples as f64),
        ("bandit.evaluations", evaluations as f64),
        ("bandit.selected_at", selected_at as f64),
        (
            "bandit.active_extractors",
            system.alm().active_extractors().len() as f64,
        ),
        (
            "fm.videos_covered",
            fm.videos_with_features(extractor).len() as f64,
        ),
        ("fm.gpu_seconds", fm.gpu_seconds_spent()),
        ("labels.count", system.label_count() as f64),
        ("obs.events", system.obs().events().len() as f64),
        ("obs.dropped", dropped as f64),
    ];
    SessionRun {
        iters,
        labels: system.label_records(),
        final_f1,
        attempted,
        failed,
        executor: None,
        counters,
        self_ms: if traced { tracer.self_ms() } else { Vec::new() },
        trace: traced.then(|| tracer.to_chrome()),
    }
}

fn run_async(
    w: &Workload,
    dataset: &Dataset,
    cfg: &VocalExploreConfig,
    traced: bool,
) -> SessionRun {
    let session_cfg = SessionConfig::new(w.dataset, w.scale, cfg.seed)
        .with_iterations(w.iterations)
        .with_system(cfg.clone());
    let runner = AsyncSessionRunner::with_dataset(session_cfg, dataset.clone());
    let start = Instant::now();
    let out = runner.run();
    let session_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut iters: Vec<IterTimes> = out
        .iterations
        .iter()
        .map(|m| {
            let visible_ms = m.measured_visible_wall_secs * 1e3;
            let background_ms = (m.think_wall_secs + m.spill_wall_secs) * 1e3;
            IterTimes {
                visible_ms,
                background_ms,
                wall_ms: visible_ms + background_ms,
                spill_ms: m.spill_wall_secs * 1e3,
                ..IterTimes::default()
            }
        })
        .collect();
    for p in out.phases.iter().filter(|p| p.phase == "select") {
        if let Some(it) = iters.get_mut((p.iteration as usize).wrapping_sub(1)) {
            it.select_ms = p.dur_us as f64 / 1e3;
            // Everything after selection in the visible window is the
            // critical inference fan-out and its join.
            it.infer_ms = (it.visible_ms - it.select_ms).max(0.0);
        }
    }
    for t in &out.timings {
        let Some(it) = iters.get_mut((t.label.iteration as usize).wrapping_sub(1)) else {
            continue;
        };
        let run_ms = t.run_us() as f64 / 1e3;
        match t.label.kind {
            "train" | "eval" => it.train_eval_ms += run_ms,
            "eager" => it.eager_ms += run_ms,
            _ => {}
        }
    }

    // The runner keeps its system to itself: derive the layer counters it
    // does not return from the deterministic event ledger.
    let (mut index_rows, mut lazy_videos, mut candidates_lost) = (0u64, 0u64, 0u64);
    let (mut evaluations, mut models_trained) = (0u64, 0u64);
    let mut covered = BTreeSet::new();
    for (_, event) in &out.events {
        match event {
            SessionEvent::IndexIngest { rows_added, .. } => index_rows += rows_added,
            SessionEvent::SelectionCompleted {
                videos_extracted_for_call,
                candidates_lost: lost,
                ..
            } => {
                lazy_videos += u64::from(*videos_extracted_for_call);
                candidates_lost += u64::from(*lost);
            }
            SessionEvent::EvaluationCompleted { .. } => evaluations += 1,
            SessionEvent::TrainCompleted { .. } => models_trained += 1,
            SessionEvent::Extracted { extractor, vid } if *extractor == out.final_extractor => {
                covered.insert(*vid);
            }
            _ => {}
        }
    }
    let dropped: u64 = out.dropped_events.iter().map(|(_, n)| n).sum();
    let counters = vec![
        ("alm.index_rows", index_rows as f64),
        ("alm.lazy_videos", lazy_videos as f64),
        ("alm.candidates_lost", candidates_lost as f64),
        ("prob_cache.hit_rows", out.prob_cache.hit_rows as f64),
        ("prob_cache.miss_rows", out.prob_cache.miss_rows as f64),
        (
            "prob_cache.invalidations",
            out.prob_cache.invalidations as f64,
        ),
        ("mm.models_trained", models_trained as f64),
        ("bandit.evaluations", evaluations as f64),
        ("fm.videos_covered", covered.len() as f64),
        ("labels.count", out.labels.len() as f64),
        ("obs.events", out.events.len() as f64),
        ("obs.dropped", dropped as f64),
    ];

    let (self_ms, trace) = if traced {
        let walls: f64 = iters.iter().map(|i| i.wall_ms).sum();
        let sum = |f: fn(&IterTimes) -> f64| iters.iter().map(f).sum::<f64>();
        let self_ms = vec![
            ("session", (session_ms - walls).max(0.0)),
            ("select", sum(|i| i.select_ms)),
            ("infer", sum(|i| i.infer_ms)),
            ("background", sum(|i| i.background_ms)),
            ("pending", sum(|i| i.train_eval_ms)),
            ("eager", sum(|i| i.eager_ms)),
        ];
        let mut trace = ChromeTrace::new();
        trace.name_track(0, 0, "session thread");
        for worker in 0..cfg.executor_workers {
            trace.name_track(0, 1 + worker as u64, &format!("executor worker {worker}"));
        }
        let end_us = out
            .phases
            .iter()
            .map(|p| p.start_us + p.dur_us)
            .chain(out.timings.iter().map(|t| t.end_us))
            .max()
            .unwrap_or(0);
        trace.add_span("session", "session", 0, 0, 0, end_us, Vec::new());
        out.phases.iter().for_each(|p| trace.add_phase(p));
        out.timings.iter().for_each(|t| trace.add_task(t));
        (self_ms, Some(trace))
    } else {
        (Vec::new(), None)
    };

    // The runner does not hand back its final model; the quality guard
    // retrains one cold on the session's labels with its final extractor.
    let system = build_system(dataset, cfg);
    let retrained = system.model_manager().train(
        out.final_extractor,
        system.corpus(),
        system.feature_manager(),
        &out.labels,
        w.iterations as u32 + 1,
        None,
    );
    let final_f1 = match retrained {
        Ok(_) => macro_f1(&system, dataset, out.final_extractor),
        Err(_) => 0.0,
    };

    SessionRun {
        iters,
        labels: out.labels,
        final_f1,
        attempted: out.executor.submitted,
        failed: out.executor.failed + out.executor.gave_up,
        executor: Some(out.executor),
        counters,
        self_ms,
        trace,
    }
}

/// Held-out macro F1 of the latest model for `extractor`, scored on the
/// middle window of every evaluation video (as `SessionRunner` does).
fn macro_f1(system: &VocalExplore, dataset: &Dataset, extractor: ExtractorId) -> f64 {
    let Some(fitted) = system.model_manager().latest(extractor) else {
        return 0.0;
    };
    let sim = system.feature_manager().simulator();
    let num_classes = system.config().num_classes;
    let windows = dataset.eval.videos().iter().map(|clip| {
        let mid = (clip.duration / 2.0).floor();
        let range = TimeRange::new(mid, (mid + CLIP_LEN).min(clip.duration));
        let features = fitted
            .scaler
            .transform(&sim.extract(extractor, clip, &range).data);
        (clip, range, features)
    });
    match system.config().task {
        TaskKind::SingleLabel => {
            let (truth, pred): (Vec<usize>, Vec<usize>) = windows
                .filter_map(|(clip, range, x)| {
                    let truth = clip.segment_at(range.midpoint())?.primary_class()?;
                    Some((truth, fitted.model.predict(&x)))
                })
                .unzip();
            if truth.is_empty() {
                0.0
            } else {
                ve_ml::macro_f1(&truth, &pred, num_classes)
            }
        }
        TaskKind::MultiLabel => {
            let (truth, pred): (Vec<Vec<usize>>, Vec<Vec<usize>>) = windows
                .map(|(clip, range, x)| {
                    let probs = fitted.model.predict_proba(&x);
                    let pred = (0..probs.len()).filter(|&c| probs[c] >= 0.5).collect();
                    (clip.classes_in(&range), pred)
                })
                .unzip();
            if truth.is_empty() {
                0.0
            } else {
                ve_ml::macro_f1_multilabel(&truth, &pred, num_classes)
            }
        }
    }
}
