//! Per-iteration timings, their reduction across repetitions, and the host
//! probes (reference kernel, peak RSS).

use std::hint::black_box;
use std::time::Instant;

/// Wall-clock milliseconds of one session iteration, split by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterTimes {
    /// `Explore` call to a batch with predictions.
    pub visible_ms: f64,
    /// Deferred work of the labeling window.
    pub background_ms: f64,
    /// The whole iteration (visible + labeling + background).
    pub wall_ms: f64,
    pub select_ms: f64,
    pub infer_ms: f64,
    pub label_ms: f64,
    pub train_eval_ms: f64,
    pub eager_ms: f64,
    pub spill_ms: f64,
}

impl IterTimes {
    fn min(self, o: IterTimes) -> IterTimes {
        IterTimes {
            visible_ms: self.visible_ms.min(o.visible_ms),
            background_ms: self.background_ms.min(o.background_ms),
            wall_ms: self.wall_ms.min(o.wall_ms),
            select_ms: self.select_ms.min(o.select_ms),
            infer_ms: self.infer_ms.min(o.infer_ms),
            label_ms: self.label_ms.min(o.label_ms),
            train_eval_ms: self.train_eval_ms.min(o.train_eval_ms),
            eager_ms: self.eager_ms.min(o.eager_ms),
            spill_ms: self.spill_ms.min(o.spill_ms),
        }
    }
}

/// Per-iteration minimum across repetitions of the same seeded session.
/// Interference from the host only ever slows an iteration down, so the
/// minimum is the steadiest estimate of the iteration's own cost.
pub fn per_iteration_min(reps: &[Vec<IterTimes>]) -> Vec<IterTimes> {
    let mut out = reps.first().cloned().unwrap_or_default();
    for rep in &reps[1.min(reps.len())..] {
        for (acc, t) in out.iter_mut().zip(rep) {
            *acc = acc.min(*t);
        }
    }
    out
}

/// Nearest-rank quantile (`q` in (0, 1]): with 200 samples the p95 is the
/// 190th smallest, leaving ten samples beyond it.
pub fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Wall milliseconds of a fixed integer-and-float kernel (best of five).
/// Timed at the start and end of every run so host drift can be told apart
/// from a regression; never gated.
pub fn reference_kernel_ms() -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            let mut acc = black_box(0.0f64);
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.mul_add(0.999_999, (x >> 40) as f64);
            }
            black_box((x, acc));
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_of_two_hundred_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(v.iter().copied(), 0.95), 190.0);
        assert_eq!(median(v), 100.0);
    }

    #[test]
    fn minimum_is_taken_per_iteration() {
        let t = |v: f64| IterTimes {
            visible_ms: v,
            ..IterTimes::default()
        };
        let reps = vec![vec![t(3.0), t(1.0)], vec![t(2.0), t(5.0)]];
        let min: Vec<f64> = per_iteration_min(&reps)
            .iter()
            .map(|i| i.visible_ms)
            .collect();
        assert_eq!(min, vec![2.0, 1.0]);
    }
}
