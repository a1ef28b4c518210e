//! The Table of Loads (Figure 4): per-static-load stride detection.

/// The result of observing one dynamic load instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlObservation {
    /// The stride recorded for the load after this observation (bytes).
    pub stride: i64,
    /// The confidence counter after this observation.
    pub confidence: u8,
    /// Whether the load has reached the confidence threshold and should be
    /// vectorized (if it is not already).
    pub vectorize: bool,
}

#[derive(Debug, Clone, Copy)]
struct TlEntry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    last_used: u64,
}

/// The Table of Loads: a set-associative table indexed by load PC that stores
/// the last address, the current stride and a confidence counter (§3.2).
///
/// ```
/// use sdv_core::TableOfLoads;
///
/// let mut tl = TableOfLoads::new(512, 4, 2, false);
/// assert!(!tl.observe(0x1000, 0x8000).vectorize); // first instance
/// assert!(!tl.observe(0x1000, 0x8008).vectorize); // stride established
/// assert!(!tl.observe(0x1000, 0x8010).vectorize); // stride repeated once: confidence 1
/// assert!(tl.observe(0x1000, 0x8018).vectorize);  // stride repeated twice: confidence 2
/// ```
#[derive(Debug, Clone)]
pub struct TableOfLoads {
    sets: Vec<Vec<TlEntry>>,
    ways: usize,
    threshold: u8,
    unbounded: bool,
    stamp: u64,
}

impl TableOfLoads {
    /// Creates a table with `sets` sets of `ways` entries; `threshold` is the
    /// confidence needed to trigger vectorization.  With `unbounded` the
    /// associativity limit is ignored (Figure 3's unlimited-resource study).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero (or not a power of two) or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize, threshold: u8, unbounded: bool) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "TL sets must be a non-zero power of two"
        );
        assert!(ways > 0, "TL must have at least one way");
        TableOfLoads {
            sets: vec![Vec::new(); sets],
            ways,
            threshold,
            unbounded,
            stamp: 0,
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets.len() - 1)
    }

    /// Observes one dynamic instance of the load at `pc` accessing `addr`.
    ///
    /// Implements the update rule of §3.2: a table miss installs the entry
    /// with stride 0 and confidence 0; a hit computes the new stride, bumps
    /// the confidence when it matches the recorded stride and resets it to
    /// zero otherwise.  The last-address field is always updated.
    pub fn observe(&mut self, pc: u64, addr: u64) -> TlObservation {
        self.stamp += 1;
        let stamp = self.stamp;
        let threshold = self.threshold;
        let ways = if self.unbounded {
            usize::MAX
        } else {
            self.ways
        };
        let set_idx = self.set_of(pc);
        let set = &mut self.sets[set_idx];

        if let Some(e) = set.iter_mut().find(|e| e.pc == pc) {
            let new_stride = addr.wrapping_sub(e.last_addr) as i64;
            if new_stride == e.stride {
                e.confidence = e.confidence.saturating_add(1);
            } else {
                e.confidence = 0;
                e.stride = new_stride;
            }
            e.last_addr = addr;
            e.last_used = stamp;
            return TlObservation {
                stride: e.stride,
                confidence: e.confidence,
                vectorize: e.confidence >= threshold,
            };
        }

        // Miss: install a fresh entry, evicting the LRU way if needed.
        let entry = TlEntry {
            pc,
            last_addr: addr,
            stride: 0,
            confidence: 0,
            last_used: stamp,
        };
        if set.len() < ways {
            set.push(entry);
        } else {
            let victim = set
                .iter_mut()
                .min_by_key(|e| e.last_used)
                .expect("ways > 0");
            *victim = entry;
        }
        TlObservation {
            stride: 0,
            confidence: 0,
            vectorize: false,
        }
    }

    /// Looks up the current stride prediction for `pc` without updating anything.
    #[must_use]
    pub fn peek(&self, pc: u64) -> Option<TlObservation> {
        let set = &self.sets[self.set_of(pc)];
        set.iter().find(|e| e.pc == pc).map(|e| TlObservation {
            stride: e.stride,
            confidence: e.confidence,
            vectorize: e.confidence >= self.threshold,
        })
    }

    /// Number of entries currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> TableOfLoads {
        TableOfLoads::new(512, 4, 2, false)
    }

    #[test]
    fn three_instances_needed_for_vectorization() {
        let mut t = tl();
        let o1 = t.observe(0x1000, 0x8000);
        assert_eq!((o1.confidence, o1.vectorize), (0, false));
        let o2 = t.observe(0x1000, 0x8010);
        assert_eq!((o2.confidence, o2.vectorize), (0, false));
        assert_eq!(o2.stride, 0x10);
        let o3 = t.observe(0x1000, 0x8020);
        assert_eq!((o3.confidence, o3.vectorize), (1, false));
        let o4 = t.observe(0x1000, 0x8030);
        assert_eq!((o4.confidence, o4.vectorize), (2, true));
    }

    #[test]
    fn stride_zero_is_vectorizable_after_two_repeats() {
        // The paper's §2 observes that stride 0 (same address) is the most
        // common case; a stride-0 load reaches confidence 2 on its third
        // instance because the entry is installed with stride 0.
        let mut t = tl();
        assert!(!t.observe(0x2000, 0x9000).vectorize);
        assert!(!t.observe(0x2000, 0x9000).vectorize);
        assert!(t.observe(0x2000, 0x9000).vectorize);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut t = tl();
        for i in 0..4u64 {
            t.observe(0x1000, 0x8000 + i * 8);
        }
        assert!(t.peek(0x1000).unwrap().vectorize);
        // Break the pattern.
        let o = t.observe(0x1000, 0xf000);
        assert_eq!(o.confidence, 0);
        assert!(!o.vectorize);
        // Re-establish a new stride.
        let o = t.observe(0x1000, 0xf004);
        assert_eq!(o.confidence, 0);
        let o = t.observe(0x1000, 0xf008);
        assert_eq!(o.confidence, 1);
        let o = t.observe(0x1000, 0xf00c);
        assert!(o.vectorize);
        assert_eq!(o.stride, 4);
    }

    #[test]
    fn negative_strides_are_tracked() {
        let mut t = tl();
        t.observe(0x1000, 0x9000);
        t.observe(0x1000, 0x8ff8);
        t.observe(0x1000, 0x8ff0);
        let o = t.observe(0x1000, 0x8fe8);
        assert_eq!(o.stride, -8);
        assert!(o.vectorize);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut t = TableOfLoads::new(1, 2, 2, false);
        t.observe(0x1000, 1);
        t.observe(0x2000, 1);
        t.observe(0x1000, 2); // touch 0x1000 so 0x2000 is LRU
        t.observe(0x3000, 1); // evicts 0x2000
        assert!(t.peek(0x1000).is_some());
        assert!(t.peek(0x2000).is_none());
        assert!(t.peek(0x3000).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unbounded_mode_never_evicts() {
        let mut t = TableOfLoads::new(1, 1, 2, true);
        for pc in 0..100u64 {
            t.observe(pc * 4, pc);
        }
        assert_eq!(t.len(), 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = TableOfLoads::new(3, 4, 2, false);
    }
}
