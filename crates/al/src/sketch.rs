//! The cluster-sketch candidate reducer.
//!
//! When eager extraction has covered tens of thousands of candidate windows,
//! running the margin/uncertainty stages over every window at every `Explore`
//! call stops being interactive. The ALM used to bound that work by shuffling
//! the candidate list and truncating it to 2,000 windows — cheap, but blind:
//! a random truncation can drop entire regions of feature space, and it
//! consumed RNG state, coupling selections to call history.
//!
//! [`ClusterSketch`] replaces that cap with a structure-aware reduction that
//! is a *pure function of the candidate index contents*:
//!
//! 1. **Fit**: deterministic k-means ([`crate::cluster_margin::kmeans_fit`])
//!    over a fixed prefix of the index rows produces `k` centroids.
//! 2. **Assign**: every candidate row maps to its nearest centroid
//!    (first-index-wins ties). New rows are assigned on arrival — O(Δ · k ·
//!    d) per call, not O(n · k · d) — whether ingest appends them at the
//!    tail ([`ClusterSketch::extend`]) or splices them in past a saturated
//!    fit prefix ([`ClusterSketch::assign`] +
//!    [`ClusterSketch::splice_assignments`]). Only a change to the fit
//!    prefix itself (rows inserted inside it, or growth of a prefix still
//!    shorter than `prefix_rows`) forces a refit, because only then would a
//!    fresh fit see different rows.
//! 3. **Reduce**: when the unmasked candidate count exceeds the cap, pick
//!    representatives round-robin across clusters in ascending-size order
//!    (smallest clusters first, members in ascending row order), so every
//!    region keeps proportional-but-bounded representation instead of
//!    surviving by lottery.
//!
//! # Determinism
//!
//! Every stage builds on the thread-count-independent kernels of
//! [`ve_ml::FeatureBlock`] and breaks ties toward the first index, so the
//! reduction is bit-identical at any parallelism setting, and identical
//! whether the sketch was grown incrementally or rebuilt from scratch over
//! the same rows.

use crate::cluster_margin::kmeans_fit;
use ve_ml::FeatureBlock;

/// Parameters of the sketch (fixed defaults documented in the ROADMAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSketchConfig {
    /// Rows the k-means fit runs over: the first `min(prefix_rows, n)` rows
    /// of the candidate index in canonical order.
    pub prefix_rows: usize,
    /// Number of centroids.
    pub clusters: usize,
    /// k-means iterations of the fit.
    pub kmeans_iters: usize,
}

impl Default for ClusterSketchConfig {
    fn default() -> Self {
        Self {
            prefix_rows: 1024,
            clusters: 64,
            kmeans_iters: 4,
        }
    }
}

/// A persistent clustering of a growing candidate block (see module docs).
#[derive(Debug, Clone)]
pub struct ClusterSketch {
    config: ClusterSketchConfig,
    centroids: FeatureBlock,
    /// Cluster id of every assigned row (`assignments.len()` rows assigned).
    assignments: Vec<usize>,
    /// Rows the centroids were fitted over (`min(prefix_rows, n at fit)`).
    prefix_len: usize,
}

impl ClusterSketch {
    /// Fits centroids over the block's prefix and assigns every row.
    ///
    /// # Panics
    /// Panics if the block is empty.
    pub fn build(block: &FeatureBlock, config: ClusterSketchConfig) -> Self {
        assert!(!block.is_empty(), "cannot sketch an empty candidate block");
        let prefix_len = config.prefix_rows.max(1).min(block.rows());
        let prefix: Vec<usize> = (0..prefix_len).collect();
        let (centroids, _) = kmeans_fit(
            &block.gather(&prefix),
            config.clusters.max(1),
            config.kmeans_iters.max(1),
        );
        let mut sketch = Self {
            config,
            centroids,
            assignments: Vec::with_capacity(block.rows()),
            prefix_len,
        };
        sketch.extend(block);
        sketch
    }

    /// The sketch parameters.
    pub fn config(&self) -> &ClusterSketchConfig {
        &self.config
    }

    /// Rows assigned so far.
    pub fn assigned_rows(&self) -> usize {
        self.assignments.len()
    }

    /// Rows the centroids were fitted over.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Whether the fit prefix holds its full `prefix_rows`: growth of the
    /// block anywhere past the prefix then leaves a fresh fit's input — and
    /// so its centroids — unchanged.
    pub fn prefix_saturated(&self) -> bool {
        self.prefix_len == self.config.prefix_rows.max(1)
    }

    /// Number of fitted centroids.
    pub fn clusters(&self) -> usize {
        self.centroids.rows().max(1)
    }

    /// Cluster id of every assigned row, in row order.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Nearest-centroid ids of `rows` against the current centroids
    /// (first-index-wins ties). Per-row results are pure functions of (row,
    /// centroids), so they equal what [`Self::extend`] or [`Self::build`]
    /// would assign the same rows at any position of the block.
    pub fn assign(&self, rows: &FeatureBlock) -> Vec<usize> {
        if rows.is_empty() {
            return Vec::new();
        }
        if self.centroids.is_empty() || rows.dim() == 0 {
            // Degenerate zero-dimensional features: every distance ties at 0,
            // first centroid wins.
            return vec![0; rows.rows()];
        }
        rows.nearest_rows(&self.centroids)
    }

    /// Replaces the assignments of rows `at..` with `tail`: the caller
    /// spliced rows into the sketched block at or past row `at`, moving the
    /// old rows' ids along with them and assigning the inserted rows with
    /// [`Self::assign`]. Valid only while the splice leaves the fit prefix
    /// untouched and saturated, which is what makes the result identical to
    /// a fresh [`Self::build`] over the spliced block.
    ///
    /// # Panics
    /// Panics if the prefix is unsaturated, or if `at` lies inside the fit
    /// prefix or past the assigned rows.
    pub fn splice_assignments(&mut self, at: usize, tail: Vec<usize>) {
        assert!(
            self.prefix_saturated(),
            "splice into an unsaturated fit prefix needs a refit"
        );
        assert!(
            (self.prefix_len..=self.assignments.len()).contains(&at),
            "splice point {at} outside [{}, {}]",
            self.prefix_len,
            self.assignments.len()
        );
        self.assignments.truncate(at);
        self.assignments.extend(tail);
    }

    /// Assigns the rows appended to `block` since the last `build`/`extend`.
    /// Per-row assignments are pure functions of (row, centroids), so
    /// extending incrementally or rebuilding over the same rows yields
    /// identical assignments.
    ///
    /// # Panics
    /// Panics if `block` has fewer rows than are already assigned (the index
    /// only ever grows between refits).
    pub fn extend(&mut self, block: &FeatureBlock) {
        let assigned = self.assignments.len();
        assert!(
            block.rows() >= assigned,
            "candidate block shrank under the sketch"
        );
        if block.rows() == assigned {
            return;
        }
        let fresh: Vec<usize> = (assigned..block.rows()).collect();
        let ids = self.assign(&block.gather(&fresh));
        self.assignments.extend(ids);
    }

    /// Reduces the unmasked rows to at most `cap` representatives, returned
    /// in ascending row order: clusters are visited round-robin in
    /// ascending-(size, id) order and each contributes its unmasked members
    /// in ascending row order, so small/rare regions are fully kept while
    /// dense regions are subsampled.
    ///
    /// # Panics
    /// Panics if `masked.len()` differs from the assigned row count.
    pub fn reduce(&self, masked: &[bool], cap: usize) -> Vec<usize> {
        assert_eq!(
            masked.len(),
            self.assignments.len(),
            "mask length must match assigned rows"
        );
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); self.clusters()];
        for (row, &cluster) in self.assignments.iter().enumerate() {
            if !masked[row] {
                clusters[cluster].push(row);
            }
        }
        clusters.retain(|c| !c.is_empty());
        // Stable sort: equal sizes keep ascending cluster-id order.
        clusters.sort_by_key(|c| c.len());

        let total: usize = clusters.iter().map(|c| c.len()).sum::<usize>();
        let take = cap.min(total);
        let mut selected = Vec::with_capacity(take);
        let mut cursor = vec![0usize; clusters.len()];
        while selected.len() < take {
            let mut progressed = false;
            for (ci, cluster) in clusters.iter().enumerate() {
                if selected.len() >= take {
                    break;
                }
                if cursor[ci] < cluster.len() {
                    selected.push(cluster[cursor[ci]]);
                    cursor[ci] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        selected.sort_unstable();
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(per_blob: usize) -> FeatureBlock {
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (20.0, 0.0), (0.0, 20.0)] {
            for i in 0..per_blob {
                rows.push(vec![cx + (i % 7) as f32 * 0.05, cy - (i % 5) as f32 * 0.05]);
            }
        }
        FeatureBlock::from_nested(&rows)
    }

    fn cfg(prefix: usize, k: usize) -> ClusterSketchConfig {
        ClusterSketchConfig {
            prefix_rows: prefix,
            clusters: k,
            kmeans_iters: 4,
        }
    }

    #[test]
    fn incremental_extend_matches_fresh_build() {
        let full = blobs(40); // 120 rows
                              // Grow a copy of the block row by row in two stages.
        let mut growing = FeatureBlock::empty(2);
        for r in 0..80 {
            growing.push_row(full.row(r));
        }
        let mut sketch = ClusterSketch::build(&growing, cfg(48, 6));
        for r in 80..full.rows() {
            growing.push_row(full.row(r));
        }
        sketch.extend(&growing);
        let fresh = ClusterSketch::build(&full, cfg(48, 6));
        assert_eq!(sketch.assignments, fresh.assignments);
        assert_eq!(sketch.prefix_len, fresh.prefix_len);
        let masked = vec![false; full.rows()];
        assert_eq!(sketch.reduce(&masked, 30), fresh.reduce(&masked, 30));
    }

    #[test]
    fn splice_past_saturated_prefix_matches_fresh_build() {
        let full = blobs(40); // 120 rows
        let base = full.gather(&(0..90).collect::<Vec<_>>());
        let mut sketch = ClusterSketch::build(&base, cfg(48, 6));
        assert!(sketch.prefix_saturated());
        // Splice rows 90..120 in between rows 59 and 60.
        let inserted = full.gather(&(90..120).collect::<Vec<_>>());
        let order: Vec<usize> = (0..60).chain(90..120).chain(60..90).collect();
        let spliced = full.gather(&order);
        let mut tail = sketch.assignments()[60..].to_vec();
        let fresh_ids = sketch.assign(&inserted);
        tail.splice(0..0, fresh_ids);
        sketch.splice_assignments(60, tail);
        let fresh = ClusterSketch::build(&spliced, cfg(48, 6));
        assert_eq!(sketch.assignments, fresh.assignments);
        let masked = vec![false; spliced.rows()];
        assert_eq!(sketch.reduce(&masked, 30), fresh.reduce(&masked, 30));
    }

    #[test]
    #[should_panic(expected = "splice point")]
    fn splice_inside_the_fit_prefix_is_rejected() {
        let block = blobs(40);
        let mut sketch = ClusterSketch::build(&block, cfg(48, 6));
        sketch.splice_assignments(10, Vec::new());
    }

    #[test]
    #[should_panic(expected = "unsaturated fit prefix")]
    fn splice_into_an_unsaturated_prefix_is_rejected() {
        let block = blobs(10);
        let mut sketch = ClusterSketch::build(&block, cfg(48, 6));
        sketch.splice_assignments(30, Vec::new());
    }

    #[test]
    fn reduce_spans_all_blobs_and_respects_cap() {
        let block = blobs(50);
        // Prefix spans all three blobs so every region owns a centroid.
        let sketch = ClusterSketch::build(&block, cfg(150, 6));
        let masked = vec![false; block.rows()];
        let reduced = sketch.reduce(&masked, 12);
        assert_eq!(reduced.len(), 12);
        assert!(reduced.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        let blobs_hit: std::collections::HashSet<usize> = reduced.iter().map(|&r| r / 50).collect();
        assert_eq!(blobs_hit.len(), 3, "every blob keeps representation");
    }

    #[test]
    fn reduce_skips_masked_rows_and_handles_small_pools() {
        let block = blobs(4);
        let sketch = ClusterSketch::build(&block, cfg(8, 3));
        let mut masked = vec![false; block.rows()];
        for m in masked.iter_mut().take(4) {
            *m = true; // whole first blob labeled
        }
        let reduced = sketch.reduce(&masked, 100);
        assert_eq!(reduced.len(), 8, "cap above pool returns all unmasked");
        assert!(reduced.iter().all(|&r| r >= 4));
        assert!(sketch.reduce(&vec![true; block.rows()], 5).is_empty());
    }

    #[test]
    fn rare_clusters_survive_reduction() {
        // One singleton far away plus a dense blob: ascending-size
        // round-robin must keep the singleton in any non-trivial cap.
        let mut rows = vec![vec![100.0f32, 100.0]];
        for i in 0..200 {
            rows.push(vec![(i % 14) as f32 * 0.01, 0.0]);
        }
        let block = FeatureBlock::from_nested(&rows);
        let sketch = ClusterSketch::build(&block, cfg(128, 4));
        let reduced = sketch.reduce(&vec![false; block.rows()], 10);
        assert!(
            reduced.contains(&0),
            "the outlier cluster must survive: {reduced:?}"
        );
    }

    #[test]
    fn identical_across_thread_counts() {
        let block = blobs(400); // 1200 rows, large enough to fan out
        let masked: Vec<bool> = (0..block.rows()).map(|r| r % 11 == 0).collect();
        let _guard = ve_sched::parallel::test_parallelism_guard();
        ve_sched::parallel::set_parallelism(1);
        let single = ClusterSketch::build(&block, cfg(256, 16));
        let single_reduced = single.reduce(&masked, 64);
        ve_sched::parallel::set_parallelism(8);
        let multi = ClusterSketch::build(&block, cfg(256, 16));
        let multi_reduced = multi.reduce(&masked, 64);
        ve_sched::parallel::set_parallelism(0);
        assert_eq!(single.assignments, multi.assignments);
        assert_eq!(single_reduced, multi_reduced);
    }

    #[test]
    #[should_panic(expected = "empty candidate block")]
    fn rejects_empty_block() {
        ClusterSketch::build(&FeatureBlock::empty(2), ClusterSketchConfig::default());
    }
}
