//! The metrics registry: typed counters, gauges and fixed-bucket histograms
//! with stable string names.
//!
//! Names follow a `layer.noun.metric` dotted scheme (`pipeline.cycles.committing`,
//! `store.io.read.calls`, `engine.store.hit_rate`); see `docs/OBSERVABILITY.md`
//! for the full naming table.  Registries serialise to a hand-rolled,
//! versioned JSON document ([`METRICS_SCHEMA`]) in the same house style as
//! `Envelope::to_json` in `sdv-analyze`, and parse back for the
//! `sdv-obs` CLI's `summarize`/`diff` commands.

use crate::json::{parse_json, Json};
use crate::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of the metrics JSON document.
pub const METRICS_SCHEMA: &str = "sdv-obs-metrics/1";

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`, and a final overflow bucket catches everything larger, so
/// `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// An empty histogram over `bounds` (must be non-empty and ascending).
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(!bounds.is_empty(), "histogram needs at least one bound");
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// The bucket upper edges.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (one more entry than [`Self::bounds`]: the overflow
    /// bucket is last).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum / self.total as f64
            }
        }
    }
}

/// The registry: three `BTreeMap`s (so iteration order — and therefore JSON
/// output — is deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `n` to the counter `name` (created at zero on first use).
    pub fn add_counter(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets the gauge `name` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records `value` into histogram `name`, registering it with `bounds`
    /// on first use (later calls keep the original bounds).
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// The counter `name`, if recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The gauge `name`, if recorded.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into `self`: counters add, gauges take `other`'s value,
    /// histograms add bucket-wise when the bounds match (and are replaced by
    /// `other`'s otherwise).
    pub fn merge(&mut self, other: &Self) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            self.gauges.insert(name.clone(), v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) if mine.bounds == h.bounds => {
                    for (c, o) in mine.counts.iter_mut().zip(&h.counts) {
                        *c += o;
                    }
                    mine.total += h.total;
                    mine.sum += h.sum;
                }
                _ => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// The change from `base` to `self`: counters subtract (saturating, over
    /// the union of names), gauges subtract, histograms subtract bucket-wise
    /// when bounds match (and are kept as-is otherwise).
    #[must_use]
    pub fn diff(&self, base: &Self) -> Self {
        let mut out = Self::new();
        let names: std::collections::BTreeSet<&String> =
            self.counters.keys().chain(base.counters.keys()).collect();
        for name in names {
            let cur = self.counters.get(name).copied().unwrap_or(0);
            let old = base.counters.get(name).copied().unwrap_or(0);
            out.counters.insert(name.clone(), cur.saturating_sub(old));
        }
        for (name, &cur) in &self.gauges {
            let old = base.gauges.get(name).copied().unwrap_or(0.0);
            out.gauges.insert(name.clone(), cur - old);
        }
        for (name, h) in &self.histograms {
            let d = match base.histograms.get(name) {
                Some(b) if b.bounds == h.bounds => {
                    let mut d = h.clone();
                    for (c, o) in d.counts.iter_mut().zip(&b.counts) {
                        *c = c.saturating_sub(*o);
                    }
                    d.total = d.total.saturating_sub(b.total);
                    d.sum -= b.sum;
                    d
                }
                _ => h.clone(),
            };
            out.histograms.insert(name.clone(), d);
        }
        out
    }

    /// Serialises the registry as a versioned JSON document
    /// (`sdv-obs-metrics/1`), hand-rolled in the repo's house style.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
        out.push_str("  \"counters\": {");
        push_map(&mut out, self.counters.iter(), |v| v.to_string());
        out.push_str("},\n  \"gauges\": {");
        push_map(&mut out, self.gauges.iter(), |v| fmt_f64(*v));
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ =
                write!(
                out,
                "\n    \"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"total\": {}, \"sum\": {}}}",
                json_escape(name),
                h.bounds.iter().map(|&b| fmt_f64(b)).collect::<Vec<_>>().join(", "),
                h.counts.iter().map(u64::to_string).collect::<Vec<_>>().join(", "),
                h.total,
                fmt_f64(h.sum)
            );
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a document produced by [`Self::to_json`].
    ///
    /// Returns a message containing the word `schema` when the document is
    /// valid JSON but carries the wrong schema tag (the CLI maps both
    /// malformed input and schema mismatch to exit code 2, with distinct
    /// messages).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse_json(text)?;
        let obj = doc.as_object().ok_or("top level is not an object")?;
        let schema = obj
            .iter()
            .find(|(k, _)| k == "schema")
            .and_then(|(_, v)| v.as_str())
            .ok_or("missing schema field")?;
        if schema != METRICS_SCHEMA {
            return Err(format!(
                "schema mismatch: expected {METRICS_SCHEMA}, found {schema}"
            ));
        }
        let mut out = Self::new();
        for (key, value) in obj {
            match key.as_str() {
                "counters" => {
                    for (name, v) in value.as_object().ok_or("counters is not an object")? {
                        let n = v.as_f64().ok_or("counter value is not a number")?;
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        out.counters.insert(name.clone(), n as u64);
                    }
                }
                "gauges" => {
                    for (name, v) in value.as_object().ok_or("gauges is not an object")? {
                        let n = v.as_f64().ok_or("gauge value is not a number")?;
                        out.gauges.insert(name.clone(), n);
                    }
                }
                "histograms" => {
                    for (name, v) in value.as_object().ok_or("histograms is not an object")? {
                        out.histograms.insert(name.clone(), parse_histogram(v)?);
                    }
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

fn parse_histogram(v: &Json) -> Result<Histogram, String> {
    let obj = v.as_object().ok_or("histogram is not an object")?;
    let field = |name: &str| obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let bounds: Vec<f64> = field("bounds")
        .and_then(Json::as_array)
        .ok_or("histogram missing bounds")?
        .iter()
        .map(|b| b.as_f64().ok_or("histogram bound is not a number"))
        .collect::<Result<_, _>>()?;
    let counts: Vec<u64> = field("counts")
        .and_then(Json::as_array)
        .ok_or("histogram missing counts")?
        .iter()
        .map(|c| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            c.as_f64()
                .map(|n| n as u64)
                .ok_or("histogram count is not a number")
        })
        .collect::<Result<_, _>>()?;
    if counts.len() != bounds.len() + 1 {
        return Err("histogram counts/bounds length mismatch".to_string());
    }
    let total = field("total")
        .and_then(Json::as_f64)
        .ok_or("histogram missing total")?;
    let sum = field("sum")
        .and_then(Json::as_f64)
        .ok_or("histogram missing sum")?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(Histogram {
        bounds,
        counts,
        total: total as u64,
        sum,
    })
}

/// Writes a `"name": value` map body with 4-space-indented rows.
fn push_map<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    fmt: impl Fn(&V) -> String,
) {
    let mut first = true;
    for (name, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", json_escape(name), fmt(value));
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// Formats an `f64` as a valid JSON number (non-finite values clamp to 0).
#[must_use]
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a fraction; keep them valid and
        // unambiguous as floats.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.add_counter("pipeline.cycles.committing", 10);
        r.add_counter("pipeline.cycles.fetch_blocked", 4);
        r.set_gauge("engine.store.hit_rate", 0.75);
        r.observe("store.io.lock_wait_micros", &[100.0, 1000.0], 50.0);
        r.observe("store.io.lock_wait_micros", &[100.0, 1000.0], 5000.0);
        r
    }

    #[test]
    fn counters_accumulate_and_histograms_bucket() {
        let r = sample();
        assert_eq!(r.counter("pipeline.cycles.committing"), Some(10));
        let h = r.histogram("store.io.lock_wait_micros").unwrap();
        assert_eq!(h.counts(), &[1, 0, 1]);
        assert_eq!(h.total(), 2);
        assert!((h.mean() - 2525.0).abs() < 1e-9);
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"sdv-obs-metrics/1\","));
        let back = MetricsRegistry::from_json(&json).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_rejects_wrong_schema_with_schema_message() {
        let err =
            MetricsRegistry::from_json("{\"schema\": \"sdv-engine-timing/1\", \"counters\": {}}")
                .unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(MetricsRegistry::from_json("not json").is_err());
        assert!(MetricsRegistry::from_json("{\"counters\": {}}").is_err());
    }

    #[test]
    fn diff_subtracts_over_union_and_merge_adds() {
        let base = sample();
        let mut cur = sample();
        cur.add_counter("pipeline.cycles.committing", 5);
        cur.add_counter("new.counter", 7);
        let d = cur.diff(&base);
        assert_eq!(d.counter("pipeline.cycles.committing"), Some(5));
        assert_eq!(d.counter("new.counter"), Some(7));
        assert_eq!(d.counter("pipeline.cycles.fetch_blocked"), Some(0));

        let mut merged = sample();
        merged.merge(&sample());
        assert_eq!(merged.counter("pipeline.cycles.committing"), Some(20));
        assert_eq!(
            merged
                .histogram("store.io.lock_wait_micros")
                .unwrap()
                .total(),
            4
        );
    }

    #[test]
    fn empty_registry_serialises_cleanly() {
        let r = MetricsRegistry::new();
        assert!(r.is_empty());
        let back = MetricsRegistry::from_json(&r.to_json()).expect("parses");
        assert!(back.is_empty());
    }

    #[test]
    fn fmt_f64_is_valid_json() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(f64::NAN), "0.0");
    }
}
