//! Cycle-attribution ledger: every simulated pipeline cycle lands in exactly
//! one bucket.
//!
//! The pipeline classifies each cycle of `Processor::run` as it retires (see
//! `Processor::attribute_cycle` in `sdv-uarch`), and macro-step jumps charge
//! the cycles they skip to [`CycleBucket::MacroStepJumped`] in bulk — this
//! folds the former `macro_step_telemetry` side channel into the same
//! substrate as every other stall count.  The taxonomy is *total* by
//! construction: classification runs first-match over the list below, and
//! [`CycleBucket::InFlightWait`] is the documented residual (in-flight
//! instructions are making forward progress — pipeline fill, cache-miss and
//! dependency latency — but nothing committed this cycle and no hazard
//! fired).  `tests/obs_properties.rs` proves exhaustiveness with a property
//! test asserting bucket-sum ≡ `RunStats::cycles` on random programs under
//! both pipeline models.
//!
//! The ledger is deliberately *not* part of `RunStats`: results that persist
//! to the store and the bit-identity equivalence suites stay byte-stable
//! whether or not attribution is enabled.

/// Where a simulated cycle went.  Classification is first-match in the order
/// the variants are declared (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleBucket {
    /// At least one instruction committed this cycle.
    Committing,
    /// No commit, but the vector datapath had active instances in flight.
    VectorDatapathBusy,
    /// Issue masked the load queue because a load aliased an unresolved
    /// store (the paper's unknown-store stall).
    UnknownStoreMasked,
    /// Issue masked a queue on a structural hazard (all matching FUs busy,
    /// or loads parked waiting for a free memory port).
    IssueStructuralHazard,
    /// The emulator has drained: no fetch will ever arrive again and the
    /// pipeline is emptying.
    Drained,
    /// Fetch was stalled (I-cache miss latency or an unresolved
    /// control-flow redirect).
    FetchBlocked,
    /// Cycles skipped in bulk by a macro-step clock jump (the former
    /// `macro_step_telemetry` skipped-cycle count).
    MacroStepJumped,
    /// Residual: instructions in flight made forward progress (pipeline
    /// fill, data-cache miss or dependency latency) without commit or a
    /// recorded hazard.
    InFlightWait,
}

impl CycleBucket {
    /// Every bucket, in classification order.
    pub const ALL: [CycleBucket; 8] = [
        CycleBucket::Committing,
        CycleBucket::VectorDatapathBusy,
        CycleBucket::UnknownStoreMasked,
        CycleBucket::IssueStructuralHazard,
        CycleBucket::Drained,
        CycleBucket::FetchBlocked,
        CycleBucket::MacroStepJumped,
        CycleBucket::InFlightWait,
    ];

    /// The stable snake_case name used in metric keys
    /// (`pipeline.cycles.<name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CycleBucket::Committing => "committing",
            CycleBucket::VectorDatapathBusy => "vector_datapath_busy",
            CycleBucket::UnknownStoreMasked => "unknown_store_masked",
            CycleBucket::IssueStructuralHazard => "issue_structural_hazard",
            CycleBucket::Drained => "drained",
            CycleBucket::FetchBlocked => "fetch_blocked",
            CycleBucket::MacroStepJumped => "macro_step_jumped",
            CycleBucket::InFlightWait => "in_flight_wait",
        }
    }

    fn index(self) -> usize {
        match self {
            CycleBucket::Committing => 0,
            CycleBucket::VectorDatapathBusy => 1,
            CycleBucket::UnknownStoreMasked => 2,
            CycleBucket::IssueStructuralHazard => 3,
            CycleBucket::Drained => 4,
            CycleBucket::FetchBlocked => 5,
            CycleBucket::MacroStepJumped => 6,
            CycleBucket::InFlightWait => 7,
        }
    }
}

/// Per-bucket cycle counts for one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleLedger {
    buckets: [u64; 8],
}

impl CycleLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one cycle to `bucket`.
    pub fn record(&mut self, bucket: CycleBucket) {
        self.buckets[bucket.index()] += 1;
    }

    /// Charges `n` cycles to `bucket` (macro-step jumps charge in bulk).
    pub fn record_many(&mut self, bucket: CycleBucket, n: u64) {
        self.buckets[bucket.index()] += n;
    }

    /// Cycles charged to `bucket`.
    #[must_use]
    pub fn get(&self, bucket: CycleBucket) -> u64 {
        self.buckets[bucket.index()]
    }

    /// Total cycles across all buckets.  The exhaustiveness invariant is
    /// `total() == RunStats::cycles` for any completed bounded run.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether nothing has been charged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// `(bucket, cycles)` pairs in classification order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleBucket, u64)> + '_ {
        CycleBucket::ALL.iter().map(|&b| (b, self.get(b)))
    }

    /// Adds another ledger's counts (merging cells of an engine run).
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Exports the ledger into `registry` as `<prefix>.<bucket>` counters.
    pub fn export_to(&self, registry: &mut crate::MetricsRegistry, prefix: &str) {
        for (bucket, cycles) in self.iter() {
            registry.add_counter(&format!("{prefix}.{}", bucket.name()), cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bucket_has_a_distinct_name_and_slot() {
        let mut names: Vec<&str> = CycleBucket::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CycleBucket::ALL.len());
        let mut slots: Vec<usize> = CycleBucket::ALL.iter().map(|b| b.index()).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..CycleBucket::ALL.len()).collect::<Vec<_>>());
    }

    #[test]
    fn totals_merge_and_export() {
        let mut a = CycleLedger::new();
        a.record(CycleBucket::Committing);
        a.record_many(CycleBucket::MacroStepJumped, 41);
        let mut b = CycleLedger::new();
        b.record(CycleBucket::FetchBlocked);
        a.merge(&b);
        assert_eq!(a.total(), 43);
        assert_eq!(a.get(CycleBucket::MacroStepJumped), 41);

        let mut reg = crate::MetricsRegistry::new();
        a.export_to(&mut reg, "pipeline.cycles");
        assert_eq!(reg.counter("pipeline.cycles.macro_step_jumped"), Some(41));
        assert_eq!(reg.counter("pipeline.cycles.in_flight_wait"), Some(0));
    }
}
