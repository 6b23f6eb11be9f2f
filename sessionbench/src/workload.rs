//! The four exploration-session workloads and the system configuration each
//! one drives. See `README.md` in this directory for why each one exists.

use ve_al::AcquisitionKind;
use ve_features::ExtractorId;
use ve_sched::SchedulerStrategy;
use ve_vidsim::{Dataset, DatasetName};
use vocalexplore::{FeatureSelectionPolicy, SamplingPolicy, VocalExploreConfig, WarmStartConfig};

/// Segments per `Explore` call (the paper's `B`).
pub const BATCH: usize = 5;
/// Segment length in seconds (the paper's `t`).
pub const CLIP_LEN: f64 = 1.0;
/// Videos per eager-extraction round under VE-full semantics.
pub const EAGER_VIDEOS: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ExploreCm20k,
    BanditLazyDeer,
    TrainMultilabel,
    AsyncVefullDeer,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub dataset: DatasetName,
    pub scale: f64,
    /// Timed `Explore` iterations per session (at least 100).
    pub iterations: usize,
    /// Distinct corpora generated per run. Pooling their iterations keeps a
    /// run's figures from hinging on one corpus's quirks; two corpora of 100
    /// iterations already leave ten samples beyond the reported p95. The
    /// gated workloads pool four, because the share of heavy early
    /// iterations differs from corpus to corpus and moves their means.
    pub corpora: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::ExploreCm20k,
        name: "explore-cm-20k",
        dataset: DatasetName::K20,
        scale: 0.15,
        iterations: 100,
        corpora: 4,
    },
    Workload {
        kind: Kind::BanditLazyDeer,
        name: "bandit-lazy-deer",
        dataset: DatasetName::Deer,
        scale: 0.3,
        iterations: 100,
        corpora: 2,
    },
    Workload {
        kind: Kind::TrainMultilabel,
        name: "train-multilabel",
        dataset: DatasetName::Charades,
        scale: 0.1,
        iterations: 100,
        corpora: 2,
    },
    Workload {
        kind: Kind::AsyncVefullDeer,
        name: "async-vefull-deer",
        dataset: DatasetName::Deer,
        scale: 0.5,
        iterations: 100,
        corpora: 4,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload shrunk for the smoke self-test.
    pub fn tiny(self) -> Workload {
        Workload {
            scale: 0.05,
            iterations: 12,
            ..self
        }
    }

    /// Whether the session runs through `AsyncSessionRunner` (otherwise it
    /// drives the `VocalExplore` facade directly).
    pub fn is_async(&self) -> bool {
        self.kind == Kind::AsyncVefullDeer
    }

    /// Whether each labeling window runs an eager-extraction round
    /// (VE-full semantics) after the deferred work.
    pub fn eager(&self) -> bool {
        matches!(self.kind, Kind::ExploreCm20k | Kind::TrainMultilabel)
    }

    pub fn dataset(&self, seed: u64) -> Dataset {
        Dataset::scaled(self.dataset, self.scale, seed)
    }

    /// The system configuration of the workload. Every workload is
    /// compute-only: `time_scale` is 0, so no simulated GPU or user second
    /// is slept, and the facade workloads never set a feature-manager
    /// latency scale.
    pub fn system_config(&self, dataset: &Dataset, seed: u64) -> VocalExploreConfig {
        let base = VocalExploreConfig::for_dataset(dataset, seed);
        let mut cfg = match self.kind {
            Kind::ExploreCm20k => base
                .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::Mvit))
                .with_sampling(SamplingPolicy::Fixed(AcquisitionKind::ClusterMargin))
                .with_strategy(SchedulerStrategy::VeFull)
                .with_warm_start(WarmStartConfig {
                    enabled: true,
                    ..WarmStartConfig::default()
                })
                .with_compute_threads(2),
            Kind::BanditLazyDeer => base
                .with_strategy(SchedulerStrategy::VePartial)
                .with_extra_candidates(50)
                .with_compute_threads(1),
            Kind::TrainMultilabel => base
                .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::Mvit))
                .with_strategy(SchedulerStrategy::VeFull)
                .with_compute_threads(1),
            Kind::AsyncVefullDeer => base
                .with_strategy(SchedulerStrategy::VeFull)
                .with_executor_workers(2)
                .with_compute_threads(1),
        };
        // `with_time_scale` rejects 0; compute-only runs set the field.
        cfg.time_scale = 0.0;
        cfg
    }
}
