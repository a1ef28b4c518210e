//! Spans recorded by the benchmark around each call into a layer.
//!
//! Every timed call goes through [`Spans::open`]/[`Spans::close`] in both
//! modes, so the traced and untraced runs time exactly the same code; only
//! the traced run keeps the spans (in memory, as Chrome trace events with a
//! span id, parent span id and per-cell trace id) and writes them out at the
//! end.

use sdv_obs::{EventTracer, TraceEvent};
use std::time::Instant;

/// Enough for the longest traced run (a few thousand spans per workload).
const CAPACITY: usize = 1 << 20;

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    trace: u64,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The span recorder; a no-op store when tracing is off.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    tracer: Option<EventTracer>,
    next_id: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            tracer: enabled.then(|| EventTracer::new(CAPACITY)),
            next_id: 1,
        }
    }

    /// Starts span `name` of trace `trace` under `parent` (a root span when
    /// `None`).
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<&Open>) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            name,
            id,
            parent: parent.map_or(0, Open::id),
            trace,
            start: Instant::now(),
        }
    }

    /// Ends `span`, returning its duration in seconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let end = Instant::now();
        self.emit(&span, end);
        (end - span.start).as_secs_f64()
    }

    /// Records a span timed elsewhere (another thread's call, say), under
    /// the span with id `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let span = Open {
            name,
            id,
            parent,
            trace,
            start,
        };
        self.emit(&span, end);
    }

    fn emit(&mut self, span: &Open, end: Instant) {
        if let Some(tracer) = self.tracer.as_mut() {
            let micros =
                |t: Instant| u64::try_from((t - self.epoch).as_micros()).unwrap_or(u64::MAX);
            let layer = span.name.split('.').next().unwrap_or(span.name);
            tracer.record(TraceEvent::complete(
                span.name,
                layer,
                micros(span.start),
                micros(end).saturating_sub(micros(span.start)),
                1,
                &[
                    ("span_id", span.id.to_string()),
                    ("parent_id", span.parent.to_string()),
                    ("trace_id", span.trace.to_string()),
                ],
            ));
        }
    }

    /// The recorded spans as Chrome trace JSON (`None` when tracing is off).
    pub fn chrome_json(&self) -> Option<String> {
        self.tracer.as_ref().map(EventTracer::to_chrome_json)
    }

    /// Spans dropped to the ring bound (0 when tracing is off).
    pub fn dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, EventTracer::dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_carry_parent_and_trace_ids() {
        let mut spans = Spans::new(true);
        let cell = spans.open("cell", 7, None);
        let child = spans.open("uarch.run", 7, Some(&cell));
        assert!(spans.close(child) >= 0.0);
        let now = Instant::now();
        spans.record("store.read", 7, cell.id(), now, now);
        spans.close(cell);
        let json = spans.chrome_json().expect("tracing on");
        let doc = sdv_obs::parse_json(&json).expect("valid JSON");
        let top = doc.as_object().expect("trace is an object");
        assert!(top.iter().any(|(k, _)| k == "traceEvents"));
        assert!(json.contains("\"name\": \"uarch.run\", \"cat\": \"uarch\""));
        assert!(json.contains("\"parent_id\": \"1\", \"trace_id\": \"7\""));
        assert!(json.contains("\"span_id\": \"1\", \"parent_id\": \"0\""));
        assert!(json.contains("\"span_id\": \"3\", \"parent_id\": \"1\", \"trace_id\": \"7\""));
    }

    #[test]
    fn untraced_spans_still_time() {
        let mut spans = Spans::new(false);
        let span = spans.open("cell", 0, None);
        assert!(spans.close(span) >= 0.0);
        assert!(spans.chrome_json().is_none());
    }
}
