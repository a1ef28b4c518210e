//! The result document, and the per-layer metrics derived from simulator
//! counters (`RunStats` and the `sdv-obs` registry a processor exports).

use sdv_obs::{CycleBucket, MetricsRegistry};
use sdv_uarch::RunStats;
use std::fmt::Write as _;

/// The end-to-end metrics and their units (`BENCHMARK.json` lists the same).
pub const END_TO_END: [(&str, &str); 4] = [
    ("insts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("warm_replay_s", "s"),
];

/// The per-layer metrics of the traced run and their units.  A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("workloads.build_s", "s"),
    ("analyze.preflight_s", "s"),
    ("uarch.new_s", "s"),
    ("uarch.new_allocs", "count"),
    ("emu.replay_s", "s"),
    ("emu.insts_per_s", "1/s"),
    ("emu.share_of_run", "share"),
    ("uarch.run_s", "s"),
    ("uarch.ns_per_inst", "ns"),
    ("uarch.ns_per_cycle", "ns"),
    ("uarch.allocs_per_kinst", "1/kinst"),
    ("uarch.cycles", "count"),
    ("uarch.committed", "count"),
    ("uarch.cycles.committing", "share"),
    ("uarch.cycles.vector_datapath_busy", "share"),
    ("uarch.cycles.unknown_store_masked", "share"),
    ("uarch.cycles.macro_step_jumped", "share"),
    ("uarch.cycles.fetch_blocked", "share"),
    ("uarch.cycles.in_flight_wait", "share"),
    ("uarch.cycles.issue_structural_hazard", "share"),
    ("uarch.cycles.drained", "share"),
    ("uarch.macro_step.jumps", "count"),
    ("uarch.macro_step.skipped_share", "share"),
    ("core.dv_host_ns_per_inst", "ns"),
    ("core.dv_allocs_per_kinst", "1/kinst"),
    ("core.vector_instances", "count"),
    ("core.elements_launched", "count"),
    ("core.validations", "count"),
    ("core.validation_failures", "count"),
    ("core.store_conflicts", "count"),
    ("core.no_free_vreg", "count"),
    ("core.validation_success_share", "share"),
    ("core.element_used_share", "share"),
    ("mem.replay_ns_per_access", "ns"),
    ("mem.l1d.accesses", "count"),
    ("mem.l1d.miss_rate", "share"),
    ("mem.way_predict.hit_rate", "share"),
    ("mem.wide_bus.useful_word_share", "share"),
    ("mem.port_occupancy", "share"),
    ("predictor.lookups", "count"),
    ("predictor.mispredict_rate", "share"),
    ("sim.session_s", "s"),
    ("sim.cell_wall_s", "s"),
    ("sim.engine_overhead_s", "s"),
    ("sim.cells_requested", "count"),
    ("sim.cells_simulated", "count"),
    ("sim.dedup_share", "share"),
    ("sim.fig1_s", "s"),
    ("sim.parallel_speedup", "x"),
    ("sim.threads", "count"),
    ("store.read_s", "s"),
    ("store.write_s", "s"),
    ("store.rename_s", "s"),
    ("store.lock_s", "s"),
    ("store.reads", "count"),
    ("store.writes", "count"),
    ("store.read_bytes", "B"),
    ("store.write_bytes", "B"),
    ("store.hit_rate", "share"),
    ("store.persist_s", "s"),
    ("host.runqueue_wait_s", "s"),
    ("trace.untraced_insts_per_s", "1/s"),
    ("trace.traced_insts_per_s", "1/s"),
    ("trace.overhead_share", "share"),
    ("warm_replay.median_s", "s"),
    ("warm_replay.tail_s", "s"),
    ("warm_replay.tail_percentile", "count"),
    ("warm_replay.samples", "count"),
];

/// The unit of a declared metric ("" for an undeclared one).
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Named metric values in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name`; a non-finite value (an empty denominator) reads 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            self.set(&name, value);
        }
    }

    /// One `perfbench: name = value unit` line per metric (human-readable).
    pub fn lines(&self) -> String {
        self.0
            .iter()
            .map(|(n, v)| format!("perfbench: {n} = {v} {}\n", unit(n)))
            .collect()
    }

    /// The final result line, `{"correct", "attempted", "failed",
    /// "metrics"}`, carrying exactly the `declared` metrics (0 for one this
    /// workload did not measure).
    pub fn result_json(
        &self,
        declared: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in declared.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.get(name).unwrap_or(0.0);
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `warm_replay_s` (the workload's estimate) with the median of the
/// `replays`, their tail (the highest percentile that has at least ten
/// replays beyond it) and their count.
pub fn warm_metrics(estimate: f64, warm: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    m.set("warm_replay_s", estimate);
    m.set("warm_replay.median_s", crate::stats::median(warm));
    m.set("warm_replay.samples", warm.len() as f64);
    if let Some((p, value)) = crate::stats::tail_percentile(warm) {
        m.set("warm_replay.tail_s", value);
        m.set("warm_replay.tail_percentile", f64::from(p));
    }
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Memory, predictor and DV-core counters summed over `cells`.
pub fn counter_metrics(cells: &[&RunStats]) -> Metrics {
    let sum = |f: &dyn Fn(&RunStats) -> u64| cells.iter().map(|s| f(s)).sum::<u64>() as f64;
    let dv = |f: &dyn Fn(&sdv_core::DvStats) -> u64| sum(&|s| s.dv.as_ref().map_or(0, f));
    let usage = |f: &dyn Fn(&sdv_core::ElementUsage) -> u64| {
        sum(&|s| s.element_usage.as_ref().map_or(0, f))
    };
    let wide = |f: &dyn Fn(&sdv_mem::WideBusStats) -> f64| {
        cells
            .iter()
            .filter_map(|s| s.wide_bus.as_ref())
            .map(f)
            .sum::<f64>()
    };
    let mut m = Metrics::default();
    let validations = dv(&sdv_core::DvStats::validations);
    let failures = dv(&|d| d.validation_failures);
    m.set(
        "core.vector_instances",
        dv(&sdv_core::DvStats::vector_instances),
    );
    m.set("core.elements_launched", dv(&|d| d.elements_launched));
    m.set("core.validations", validations);
    m.set("core.validation_failures", failures);
    m.set("core.store_conflicts", dv(&|d| d.store_conflicts));
    m.set("core.no_free_vreg", dv(&|d| d.no_free_vreg));
    m.set(
        "core.validation_success_share",
        ratio(validations, validations + failures),
    );
    let used = usage(&|u| u.computed_used);
    let elements = used + usage(&|u| u.computed_not_used) + usage(&|u| u.not_computed);
    m.set("core.element_used_share", ratio(used, elements));
    let accesses = sum(&|s| s.l1d.accesses);
    m.set("mem.l1d.accesses", accesses);
    m.set("mem.l1d.miss_rate", ratio(sum(&|s| s.l1d.misses), accesses));
    let useful_words = wide(&|w| w.mean_useful_words() * w.total() as f64);
    let line_words = wide(&|w| (w.words_per_line() as u64 * w.total()) as f64);
    m.set(
        "mem.wide_bus.useful_word_share",
        ratio(useful_words, line_words),
    );
    let occupancy: f64 = cells.iter().map(|s| s.port_occupancy()).sum();
    m.set("mem.port_occupancy", ratio(occupancy, cells.len() as f64));
    let lookups = sum(&|s| s.branch_lookups);
    m.set("predictor.lookups", lookups);
    m.set(
        "predictor.mispredict_rate",
        ratio(sum(&|s| s.mispredictions), lookups),
    );
    m
}

/// Cycle-ledger shares, clock-jump and way-predictor figures from the
/// registry processors export into (`Processor::obs_metrics`).
pub fn ledger_metrics(registry: &MetricsRegistry) -> Metrics {
    let counter = |name: &str| registry.counter(name).unwrap_or(0) as f64;
    let buckets = [
        CycleBucket::Committing,
        CycleBucket::VectorDatapathBusy,
        CycleBucket::UnknownStoreMasked,
        CycleBucket::MacroStepJumped,
        CycleBucket::FetchBlocked,
        CycleBucket::InFlightWait,
        CycleBucket::IssueStructuralHazard,
        CycleBucket::Drained,
    ];
    let total: f64 = buckets
        .iter()
        .map(|b| counter(&format!("pipeline.cycles.{}", b.name())))
        .sum();
    let mut m = Metrics::default();
    for b in buckets {
        let cycles = counter(&format!("pipeline.cycles.{}", b.name()));
        m.set(&format!("uarch.cycles.{}", b.name()), ratio(cycles, total));
    }
    m.set(
        "uarch.macro_step.jumps",
        counter("pipeline.macro_step.jumps"),
    );
    m.set(
        "uarch.macro_step.skipped_share",
        ratio(counter("pipeline.macro_step.skipped_cycles"), total),
    );
    let predicted = counter("cache.l1d.way_predict.predicted_hits");
    let scanned = counter("cache.l1d.way_predict.scan_hits");
    m.set(
        "mem.way_predict.hit_rate",
        ratio(predicted, predicted + scanned),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_parses_and_keeps_full_digits() {
        let mut m = Metrics::default();
        m.set("insts_per_s", 1_234_567.891_234_5);
        m.set("setup_s", 0.012_345_678_9);
        m.set("setup_s", 0.5);
        m.set("peak_rss_mb", f64::NAN);
        m.set("undeclared", 3.0);
        let json = m.result_json(&END_TO_END, true, 10, 0);
        let doc = sdv_obs::parse_json(&json).expect("valid JSON");
        let top = doc.as_object().unwrap();
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(json.contains("\"insts_per_s\": {\"value\": 1234567.8912345, \"unit\": \"1/s\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(json.contains("\"peak_rss_mb\": {\"value\": 0.0"));
        assert!(
            json.contains("\"warm_replay_s\": {\"value\": 0.0"),
            "declared but unmeasured"
        );
        assert!(!json.contains("undeclared"));
    }

    /// The declared metrics are exactly those `BENCHMARK.json` lists.
    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = sdv_obs::parse_json(&text).expect("valid JSON");
        let field = |key: &str| -> Vec<(String, String)> {
            let obj = doc.as_object().unwrap();
            let (_, list) = obj.iter().find(|(k, _)| k == key).unwrap();
            list.as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_object().unwrap();
                    let get = |k: &str| {
                        m.iter()
                            .find(|(n, _)| n == k)
                            .unwrap()
                            .1
                            .as_str()
                            .unwrap()
                            .to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(field("end_to_end"), owned(&END_TO_END));
        assert_eq!(field("per_layer"), owned(&PER_LAYER));
    }
}
