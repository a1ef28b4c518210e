//! L1 data-cache ports.
//!
//! The paper compares three memory front-ends (§3.7, §4.3):
//!
//! * `xpnoIM`: `x` scalar ports, each serving one word per access,
//! * `xpIM`:   `x` *wide* ports, each bringing a whole cache line so that all
//!   pending loads to that line can be served by a single access,
//! * `xpV`:    wide ports plus dynamic vectorization.
//!
//! [`PortSet`] models the structural hazard (how many accesses can start per
//! cycle) and collects the occupancy statistics of Figure 12.

use std::fmt;

/// The kind of L1 data-cache port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// One word per access.
    Scalar,
    /// One full cache line per access (a "wide bus").
    Wide,
}

impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortKind::Scalar => write!(f, "scalar"),
            PortKind::Wide => write!(f, "wide"),
        }
    }
}

/// Occupancy counters for a port set (Figure 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Number of port-grants issued (accesses started).
    pub grants: u64,
    /// Number of cycles during which the port set was observed.
    pub cycles: u64,
    /// Number of accesses that could not start because every port was busy.
    pub conflicts: u64,
}

impl PortStats {
    /// Average fraction of ports busy per cycle (the paper's "port occupancy").
    #[must_use]
    pub fn occupancy(&self, ports: usize) -> f64 {
        if self.cycles == 0 || ports == 0 {
            0.0
        } else {
            self.grants as f64 / (self.cycles as f64 * ports as f64)
        }
    }
}

/// A set of identical L1 data-cache ports.
///
/// Each port can start at most one access per cycle; the caller advances the
/// model with [`PortSet::begin_cycle`] once per simulated cycle and then
/// requests grants with [`PortSet::try_acquire`].
///
/// ```
/// use sdv_mem::{PortKind, PortSet};
///
/// let mut ports = PortSet::new(PortKind::Wide, 2);
/// ports.begin_cycle();
/// assert!(ports.try_acquire());
/// assert!(ports.try_acquire());
/// assert!(!ports.try_acquire(), "only two ports");
/// ports.begin_cycle();
/// assert!(ports.try_acquire());
/// ```
#[derive(Debug, Clone)]
pub struct PortSet {
    kind: PortKind,
    count: usize,
    used_this_cycle: usize,
    stats: PortStats,
}

impl PortSet {
    /// Creates a set of `count` ports of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn new(kind: PortKind, count: usize) -> Self {
        assert!(count > 0, "a processor needs at least one data-cache port");
        PortSet {
            kind,
            count,
            used_this_cycle: 0,
            stats: PortStats::default(),
        }
    }

    /// The port kind.
    #[must_use]
    pub fn kind(&self) -> PortKind {
        self.kind
    }

    /// Number of ports.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Starts a new cycle: all ports become available again.
    pub fn begin_cycle(&mut self) {
        self.used_this_cycle = 0;
        self.stats.cycles += 1;
    }

    /// Bulk-charges `n` idle cycles to the occupancy statistics, exactly as
    /// if [`PortSet::begin_cycle`] had been called `n` times with no grant in
    /// between.  Used by the macro-stepping main loop to skip over stall
    /// windows while keeping Figure 12's occupancy denominator bit-identical
    /// to the per-cycle path.
    pub fn add_idle_cycles(&mut self, n: u64) {
        self.stats.cycles += n;
    }

    /// Tries to start an access this cycle.  Returns `false` (and records a
    /// conflict) if every port has already been used.
    pub fn try_acquire(&mut self) -> bool {
        if self.used_this_cycle < self.count {
            self.used_this_cycle += 1;
            self.stats.grants += 1;
            true
        } else {
            self.stats.conflicts += 1;
            false
        }
    }

    /// Number of ports still free this cycle.
    #[must_use]
    pub fn free_this_cycle(&self) -> usize {
        self.count - self.used_this_cycle
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> PortStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_limited_per_cycle() {
        let mut p = PortSet::new(PortKind::Scalar, 1);
        p.begin_cycle();
        assert!(p.try_acquire());
        assert!(!p.try_acquire());
        assert_eq!(p.free_this_cycle(), 0);
        p.begin_cycle();
        assert_eq!(p.free_this_cycle(), 1);
        assert!(p.try_acquire());
        assert_eq!(p.stats().grants, 2);
        assert_eq!(p.stats().conflicts, 1);
        assert_eq!(p.stats().cycles, 2);
    }

    #[test]
    fn occupancy_accounts_ports_and_cycles() {
        let mut p = PortSet::new(PortKind::Wide, 2);
        for used in [2usize, 1, 0, 1] {
            p.begin_cycle();
            for _ in 0..used {
                assert!(p.try_acquire());
            }
        }
        // 4 grants over 4 cycles * 2 ports = 0.5 occupancy.
        assert!((p.stats().occupancy(2) - 0.5).abs() < 1e-12);
        assert_eq!(PortStats::default().occupancy(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one data-cache port")]
    fn zero_ports_panics() {
        let _ = PortSet::new(PortKind::Scalar, 0);
    }
}
