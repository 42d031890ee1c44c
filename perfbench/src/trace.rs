//! The benchmark's own span recorder.
//!
//! Spans are recorded only in benchmark code, around calls into a layer's
//! public functions: name, start and end. They stay in memory and are
//! summarised when the run ends. A disabled tracer runs the closure and
//! records nothing, so untraced runs pay one branch per call.

use std::time::Instant;

/// One recorded span, times in seconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `route.route_stats_memo`.
    pub name: String,
    /// Start, seconds.
    pub start_s: f64,
    /// End, seconds.
    pub end_s: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Records a span measured elsewhere (e.g. on another thread), on this
    /// tracer's clock.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
            self.spans.push(Span {
                name: name.to_string(),
                start_s: at(start),
                end_s: at(end),
            });
        }
    }

    /// Every recorded span, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Durations of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }
}
