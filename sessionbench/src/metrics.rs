//! The metric catalogue: every name the benchmark emits, with its unit. The
//! smoke self-test holds both the emitted report and `BENCHMARK.json` to it.

/// Emitted with `--trace 0`, measured with benchmark-side tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("visible_ms.p50", "ms"),
    ("visible_ms.mean", "ms"),
    ("background_ms.p50", "ms"),
    ("background_ms.mean", "ms"),
    ("iterations_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Emitted with `--trace 1`: timings from the traced sessions, counters read
/// from program-exposed stats. The p95 tails are reported here, not gated:
/// see `README.md`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("visible_ms.p95", "ms"),
    ("background_ms.p95", "ms"),
    ("system.new_ms", "ms"),
    ("system.add_video_ms", "ms"),
    ("alm.select_ms.p50", "ms"),
    ("alm.select_ms.p95", "ms"),
    ("alm.index_rows", "count"),
    ("alm.index_videos", "count"),
    ("alm.sketch_built", "bool"),
    ("alm.lazy_videos", "count"),
    ("alm.candidates_lost", "count"),
    ("prob_cache.hit_rows", "count"),
    ("prob_cache.miss_rows", "count"),
    ("prob_cache.invalidations", "count"),
    ("prob_cache.hit_ratio", "ratio"),
    ("mm.infer_ms.p50", "ms"),
    ("mm.train_eval_ms.p50", "ms"),
    ("mm.train_eval_ms.p95", "ms"),
    ("mm.models_trained", "count"),
    ("mm.cold_trains", "count"),
    ("mm.warm_trains", "count"),
    ("mm.last_examples", "count"),
    ("bandit.evaluations", "count"),
    ("bandit.selected_at", "iteration"),
    ("bandit.active_extractors", "count"),
    ("fm.eager_ms.p50", "ms"),
    ("fm.eager_ms.p95", "ms"),
    ("fm.videos_covered", "count"),
    ("fm.gpu_seconds", "s"),
    ("labels.add_ms.p50", "ms"),
    ("labels.count", "count"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("exec.submitted", "count"),
    ("exec.completed", "count"),
    ("exec.failed", "count"),
    ("exec.retried", "count"),
    ("exec.gave_up", "count"),
    ("exec.queue_wait_ms", "ms"),
    ("exec.depth_hwm.critical", "count"),
    ("exec.depth_hwm.normal", "count"),
    ("exec.depth_hwm.background", "count"),
    ("session.spill_ms.p50", "ms"),
    ("span.session.self_ms", "ms"),
    ("span.iteration.self_ms", "ms"),
    ("span.visible.self_ms", "ms"),
    ("span.select.self_ms", "ms"),
    ("span.infer.self_ms", "ms"),
    ("span.label.self_ms", "ms"),
    ("span.background.self_ms", "ms"),
    ("span.pending.self_ms", "ms"),
    ("span.eager.self_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead.visible_ms.p50", "ms"),
    ("trace.overhead.background_ms.p50", "ms"),
    ("trace.overhead.iterations_per_s", "1/s"),
    ("host.ref_ms", "ms"),
    ("final_macro_f1", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}
