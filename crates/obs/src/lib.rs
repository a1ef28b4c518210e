//! Unified observability for the SDV stack: metrics, cycle attribution and
//! event tracing.
//!
//! This crate is the one substrate the pipeline, engine and store all
//! report into:
//!
//! * [`MetricsRegistry`] — typed counters, gauges and fixed-bucket histograms
//!   with stable string names, snapshot/diff/merge, and a hand-rolled
//!   versioned JSON encoding (`sdv-obs-metrics/1`).
//! * [`CycleLedger`] — cycle attribution for the pipeline: every simulated
//!   cycle lands in exactly one [`CycleBucket`], and a property test proves
//!   the bucket-sum equals the `RunStats` cycle total on random programs
//!   (`tests/obs_properties.rs`).
//! * [`EventTracer`] — a bounded ring buffer of trace events emitting Chrome
//!   trace-event JSON, loadable in Perfetto or `chrome://tracing`.
//!
//! Everything hangs off an [`Obs`] handle gated by a runtime [`ObsLevel`].
//! At [`ObsLevel::Off`] every recording call is a single enum compare and an
//! early return — cheap enough to leave in release hot paths.
//!
//! The crate is deliberately dependency-free (`std` only) so every other
//! workspace crate can instrument itself without widening its dependency
//! cone.  See `docs/OBSERVABILITY.md` for the naming scheme, the bucket
//! taxonomy and the trace schema.

mod json;
mod ledger;
mod registry;
mod trace;

pub use json::{parse_json, Json};
pub use ledger::{CycleBucket, CycleLedger};
pub use registry::{Histogram, MetricsRegistry, METRICS_SCHEMA};
pub use trace::{EventTracer, TraceEvent, TracePhase, DEFAULT_TRACE_CAPACITY};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How much the stack records at runtime.
///
/// The levels are ordered: `Trace` implies `Metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ObsLevel {
    /// Record nothing.  Every recording call reduces to one enum compare.
    #[default]
    Off,
    /// Record counters, gauges, histograms and the cycle ledger.
    Metrics,
    /// Additionally record ring-buffered trace events.
    Trace,
}

impl ObsLevel {
    /// Whether metrics (and the cycle ledger) are recorded at this level.
    #[must_use]
    pub fn metrics_enabled(self) -> bool {
        self >= ObsLevel::Metrics
    }

    /// Whether trace events are recorded at this level.
    #[must_use]
    pub fn trace_enabled(self) -> bool {
        self == ObsLevel::Trace
    }
}

/// A stable small integer identifying the calling thread in trace output.
///
/// Chrome trace events carry an integer `tid`; OS thread ids are neither
/// small nor stable across runs, so threads are numbered in first-use order.
#[must_use]
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// The shared observability handle: one per engine session.
///
/// Thread-safe; recording methods take `&self` and are no-ops below the
/// required [`ObsLevel`].  Share it across threads with `Arc<Obs>`.
#[derive(Debug)]
pub struct Obs {
    level: ObsLevel,
    epoch: Instant,
    registry: Mutex<MetricsRegistry>,
    tracer: Mutex<EventTracer>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new(ObsLevel::Off)
    }
}

impl Obs {
    /// Creates a handle at `level` whose tracer keeps at most
    /// [`DEFAULT_TRACE_CAPACITY`] events (oldest dropped first).
    #[must_use]
    pub fn new(level: ObsLevel) -> Self {
        Self {
            level,
            epoch: Instant::now(),
            registry: Mutex::new(MetricsRegistry::new()),
            tracer: Mutex::new(EventTracer::new(DEFAULT_TRACE_CAPACITY)),
        }
    }

    /// The configured level.
    #[must_use]
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Whether metrics are recorded.
    #[must_use]
    pub fn metrics_enabled(&self) -> bool {
        self.level.metrics_enabled()
    }

    /// Whether trace events are recorded.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.level.trace_enabled()
    }

    /// Microseconds since this handle was created (the trace time base).
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Adds `n` to the counter `name`.  No-op below `Metrics`.
    pub fn counter(&self, name: &str, n: u64) {
        if self.metrics_enabled() {
            self.registry.lock().unwrap().add_counter(name, n);
        }
    }

    /// Sets the gauge `name` to `value`.  No-op below `Metrics`.
    pub fn gauge(&self, name: &str, value: f64) {
        if self.metrics_enabled() {
            self.registry.lock().unwrap().set_gauge(name, value);
        }
    }

    /// Records `value` into the histogram `name` with `bounds` (registered on
    /// first use).  No-op below `Metrics`.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        if self.metrics_enabled() {
            self.registry.lock().unwrap().observe(name, bounds, value);
        }
    }

    /// Runs `f` against the registry.  No-op below `Metrics`; use this to
    /// batch many updates under one lock acquisition.
    pub fn with_registry(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if self.metrics_enabled() {
            f(&mut self.registry.lock().unwrap());
        }
    }

    /// Records a completed span (`ph: "X"`).  No-op below `Trace`.
    pub fn span(&self, name: &str, cat: &str, start_micros: u64, args: &[(&str, String)]) {
        if self.trace_enabled() {
            let end = self.now_micros();
            self.tracer.lock().unwrap().record(TraceEvent::complete(
                name,
                cat,
                start_micros,
                end.saturating_sub(start_micros),
                current_tid(),
                args,
            ));
        }
    }

    /// Records an instant event (`ph: "i"`).  No-op below `Trace`.
    pub fn instant(&self, name: &str, cat: &str, args: &[(&str, String)]) {
        if self.trace_enabled() {
            let ts = self.now_micros();
            self.tracer.lock().unwrap().record(TraceEvent::instant(
                name,
                cat,
                ts,
                current_tid(),
                args,
            ));
        }
    }

    /// A point-in-time copy of the registry.
    #[must_use]
    pub fn snapshot(&self) -> MetricsRegistry {
        self.registry.lock().unwrap().clone()
    }

    /// Number of trace events discarded because the ring buffer was full.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.tracer.lock().unwrap().dropped()
    }

    /// The Chrome trace-event JSON document for everything recorded so far.
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.tracer.lock().unwrap().to_chrome_json()
    }
}

/// Escapes `s` for embedding in a JSON string literal: the one escaper
/// behind every JSON document the workspace writes (metrics, traces and
/// `sdv-analyze` diagnostics).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(!ObsLevel::Off.metrics_enabled());
        assert!(!ObsLevel::Off.trace_enabled());
        assert!(ObsLevel::Metrics.metrics_enabled());
        assert!(!ObsLevel::Metrics.trace_enabled());
        assert!(ObsLevel::Trace.metrics_enabled());
        assert!(ObsLevel::Trace.trace_enabled());
    }

    #[test]
    fn off_records_nothing() {
        let obs = Obs::new(ObsLevel::Off);
        obs.counter("a", 1);
        obs.gauge("b", 2.0);
        obs.observe("c", &[1.0], 0.5);
        obs.instant("e", "test", &[]);
        let snap = obs.snapshot();
        assert!(snap.is_empty());
        assert_eq!(obs.dropped_events(), 0);
        assert_eq!(obs.trace_json(), EventTracer::new(4).to_chrome_json());
    }

    #[test]
    fn metrics_level_records_metrics_not_traces() {
        let obs = Obs::new(ObsLevel::Metrics);
        obs.counter("hits", 3);
        obs.counter("hits", 2);
        obs.instant("should-not-appear", "test", &[]);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hits"), Some(5));
        assert!(!obs.trace_json().contains("should-not-appear"));
    }

    #[test]
    fn trace_level_records_spans() {
        let obs = Obs::new(ObsLevel::Trace);
        let t0 = obs.now_micros();
        obs.span("cell", "engine", t0, &[("workload", "compress".into())]);
        obs.instant("retry", "store", &[]);
        let json = obs.trace_json();
        assert!(json.contains("\"name\": \"cell\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"workload\": \"compress\""));
    }

    #[test]
    fn tids_are_small_and_stable() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
