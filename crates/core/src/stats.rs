//! Counters collected by the vectorization engine.

/// Event counters for the dynamic-vectorization mechanism.
///
/// These are the raw counts behind Figures 3, 9, 14 and 15 and the §3.6
/// store-conflict statistic; percentages over total committed instructions are
/// computed by the simulation layer, which knows the denominator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DvStats {
    /// Dynamic loads observed by the Table of Loads.
    pub loads_observed: u64,
    /// New vector instances created for loads.
    pub load_instances: u64,
    /// New vector instances created for arithmetic instructions.
    pub arith_instances: u64,
    /// Scalar load instances turned into validations.
    pub load_validations: u64,
    /// Scalar arithmetic instances turned into validations.
    pub arith_validations: u64,
    /// Validations that failed (vectorization mis-speculations).
    pub validation_failures: u64,
    /// Instructions that could not be vectorized because no vector register was free.
    pub no_free_vreg: u64,
    /// New vector instances whose source operands had a non-zero starting offset (Figure 9).
    pub instances_with_nonzero_offset: u64,
    /// Stores checked against vector-register address ranges (§3.6).
    pub stores_checked: u64,
    /// Stores whose address fell inside the range of some vector register (§3.6).
    pub store_conflicts: u64,
    /// Vector elements scheduled for computation on the vector data path.
    pub elements_launched: u64,
}

impl DvStats {
    /// Total validations (loads + arithmetic).
    #[must_use]
    pub fn validations(&self) -> u64 {
        self.load_validations + self.arith_validations
    }

    /// Total vector instances created.
    #[must_use]
    pub fn vector_instances(&self) -> u64 {
        self.load_instances + self.arith_instances
    }

    /// Fraction of stores that conflicted with a vector register
    /// (the paper reports 4.5 % for SpecInt and 2.5 % for SpecFP).
    #[must_use]
    pub fn store_conflict_rate(&self) -> f64 {
        if self.stores_checked == 0 {
            0.0
        } else {
            self.store_conflicts as f64 / self.stores_checked as f64
        }
    }

    /// Fraction of new vector instances whose source offsets were not all zero
    /// (Figure 9).
    #[must_use]
    pub fn nonzero_offset_rate(&self) -> f64 {
        let n = self.vector_instances();
        if n == 0 {
            0.0
        } else {
            self.instances_with_nonzero_offset as f64 / n as f64
        }
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &DvStats) {
        self.loads_observed += other.loads_observed;
        self.load_instances += other.load_instances;
        self.arith_instances += other.arith_instances;
        self.load_validations += other.load_validations;
        self.arith_validations += other.arith_validations;
        self.validation_failures += other.validation_failures;
        self.no_free_vreg += other.no_free_vreg;
        self.instances_with_nonzero_offset += other.instances_with_nonzero_offset;
        self.stores_checked += other.stores_checked;
        self.store_conflicts += other.store_conflicts;
        self.elements_launched += other.elements_launched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let s = DvStats {
            load_validations: 10,
            arith_validations: 20,
            load_instances: 4,
            arith_instances: 6,
            instances_with_nonzero_offset: 1,
            stores_checked: 200,
            store_conflicts: 9,
            ..DvStats::default()
        };
        assert_eq!(s.validations(), 30);
        assert_eq!(s.vector_instances(), 10);
        assert!((s.store_conflict_rate() - 0.045).abs() < 1e-12);
        assert!((s.nonzero_offset_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators() {
        let s = DvStats::default();
        assert_eq!(s.store_conflict_rate(), 0.0);
        assert_eq!(s.nonzero_offset_rate(), 0.0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = DvStats {
            loads_observed: 1,
            elements_launched: 4,
            ..DvStats::default()
        };
        let b = DvStats {
            loads_observed: 2,
            validation_failures: 3,
            ..DvStats::default()
        };
        a.merge(&b);
        assert_eq!(a.loads_observed, 3);
        assert_eq!(a.validation_failures, 3);
        assert_eq!(a.elements_launched, 4);
    }
}
