//! Benchmark-side spans around each public call, kept in memory and written
//! out as a Chrome trace when the run ends.
//!
//! Spans nest as session > iteration > visible{select, infer} / label /
//! background{pending, eager}. Every span carries the iteration it belongs
//! to, which is the id the spans of one iteration share.

use std::time::Instant;
use ve_obs::ChromeTrace;

/// Span names in nesting order; self times are reported under these names.
pub const SPAN_NAMES: [&str; 9] = [
    "session",
    "iteration",
    "visible",
    "select",
    "infer",
    "label",
    "background",
    "pending",
    "eager",
];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    iteration: u32,
    parent: Option<usize>,
    start_us: u64,
    end_us: u64,
}

/// An open span: the start instant, plus its slot when recording.
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// Span recorder. When disabled it only times, so the untraced and traced
/// runs share one code path and differ by the recording alone.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    iteration: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            iteration: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Tags spans opened from now on with `iteration`.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let slot = self.spans.len();
            self.spans.push(Span {
                name,
                iteration: self.iteration,
                parent: self.stack.last().copied(),
                start_us: self.micros(start),
                end_us: 0,
            });
            self.stack.push(slot);
            slot
        });
        Open { start, slot }
    }

    /// Closes a span and returns its duration in milliseconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(slot), "spans close in nesting order");
            self.spans[slot].end_us = self.micros(end);
        }
        end.duration_since(open.start).as_secs_f64() * 1e3
    }

    fn micros(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_micros() as u64
    }

    /// Total self time per span name, in milliseconds: each span's duration
    /// minus the part its child spans cover.
    pub fn self_ms(&self) -> Vec<(&'static str, f64)> {
        let mut child_us = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.end_us - span.start_us;
            }
        }
        SPAN_NAMES
            .iter()
            .map(|&name| {
                let us: u64 = self
                    .spans
                    .iter()
                    .zip(&child_us)
                    .filter(|(s, _)| s.name == name)
                    .map(|(s, c)| (s.end_us - s.start_us).saturating_sub(*c))
                    .sum();
                (name, us as f64 / 1e3)
            })
            .collect()
    }

    /// The recorded spans as a Chrome trace on one session track.
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.name_track(0, 0, "session thread");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            trace.add_span(
                span.name,
                span.name,
                0,
                0,
                span.start_us,
                span.end_us,
                vec![
                    ("iteration".to_string(), span.iteration.to_string()),
                    ("span".to_string(), id.to_string()),
                    ("parent".to_string(), parent),
                ],
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_trace_validates() {
        let mut t = Tracer::new(true);
        let session = t.open("session");
        t.set_iteration(1);
        let iteration = t.open("iteration");
        let visible = t.open("visible");
        std::hint::black_box((0..10_000u64).sum::<u64>());
        t.close(visible);
        t.close(iteration);
        t.close(session);
        let self_ms = t.self_ms();
        let total: f64 = self_ms.iter().map(|(_, ms)| ms).sum();
        let session_ms = (t.spans[0].end_us - t.spans[0].start_us) as f64 / 1e3;
        assert!(
            (total - session_ms).abs() < 1e-9,
            "self times partition the root span"
        );
        let stats = t
            .to_chrome()
            .validate(&["session", "iteration", "visible"])
            .expect("valid trace");
        assert_eq!(stats.spans, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.open("session");
        assert!(t.close(open) >= 0.0);
        assert!(t.spans.is_empty());
    }
}
