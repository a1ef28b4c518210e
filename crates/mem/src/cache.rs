//! Set-associative cache state (tags only — the simulator is timing-directed,
//! data values live in the functional emulator).
//!
//! Lookup scans the set's ways and LRU replacement compares global access
//! stamps.  The paper's caches are 2- and 4-way, so a hit costs at most four
//! tag compares and needs no way predictor.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// 64 KB, 2-way, 32-byte lines: the paper's L1 data cache.
    #[must_use]
    pub fn l1d_table1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 32,
            ways: 2,
        }
    }

    /// 64 KB, 2-way, 64-byte lines: the paper's L1 instruction cache.
    #[must_use]
    pub fn l1i_table1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 2,
        }
    }

    /// 256 KB, 4-way, 32-byte lines: the paper's unified L2.
    #[must_use]
    pub fn l2_table1() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            line_bytes: 32,
            ways: 4,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sized, or not divisible into sets).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.size_bytes > 0 && self.line_bytes > 0 && self.ways > 0);
        let sets = self.size_bytes / (self.line_bytes * self.ways);
        assert!(
            sets > 0,
            "cache too small for its line size and associativity"
        );
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        sets
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate over all accesses (0 if the cache was never accessed).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Address of a dirty line that had to be written back, if any.
    pub writeback: Option<u64>,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// ```
/// use sdv_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 32, ways: 2 });
/// assert!(!c.access(0x1000, false).hit);
/// assert!(c.access(0x1000, false).hit);
/// assert!(c.access(0x1008, false).hit, "same line");
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    // Per-line state, indexed `set * ways + way`.  Every lane starts zeroed,
    // so a new cache is one untouched zeroed allocation per lane: building
    // a processor writes none of its cache memory, and a run touches only
    // the sets it uses.
    /// Tag of each line.
    tags: Vec<u64>,
    /// Global LRU stamp of each line's last access; 0 marks an invalid
    /// line (every access bumps `stamp` before using it, so a filled line's
    /// stamp is at least 1).
    stamps: Vec<u64>,
    /// Dirty bit of each line.
    dirty: Vec<bool>,
    sets: usize,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let lines = sets * cfg.ways;
        Cache {
            cfg,
            tags: vec![0; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            sets,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry of this cache.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The line-aligned address containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes as u64) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / (self.cfg.line_bytes as u64 * self.sets as u64)
    }

    /// The line indices of the set `addr` maps to.
    fn ways_of(&self, addr: u64) -> std::ops::Range<usize> {
        let base = self.set_of(addr) * self.cfg.ways;
        base..base + self.cfg.ways
    }

    /// The line holding `addr`, if it is present.
    fn find(&self, addr: u64) -> Option<usize> {
        let tag = self.tag_of(addr);
        self.ways_of(addr)
            .find(|&i| self.stamps[i] != 0 && self.tags[i] == tag)
    }

    /// Checks for a hit without changing any state (no LRU update, no fill).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Performs one access: on a miss the line is allocated (write-allocate),
    /// possibly evicting a victim whose writeback address is reported.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        if self.try_hit(addr, is_write) {
            AccessOutcome {
                hit: true,
                writeback: None,
            }
        } else {
            self.allocate_miss(addr, is_write)
        }
    }

    /// The hit half of an access: on a hit, counts it, updates the replacement
    /// state and the dirty bit, and returns `true`; on a miss nothing is
    /// counted and no state changes — the caller decides whether to follow up
    /// with [`Self::allocate_miss`] (the hierarchy skips it when no MSHR is
    /// free).
    pub fn try_hit(&mut self, addr: u64, is_write: bool) -> bool {
        // The stamp advances once per logical access; a follow-up
        // `allocate_miss` fills at this already-bumped value.
        self.stamp += 1;
        let Some(line) = self.find(addr) else {
            return false;
        };
        self.stamps[line] = self.stamp;
        self.dirty[line] |= is_write;
        self.stats.accesses += 1;
        self.stats.hits += 1;
        true
    }

    /// The miss half of an access: counts the miss, selects a victim (first
    /// invalid way, else LRU) and fills the line.  Must only be called after
    /// [`Self::try_hit`] returned `false` for the same address.
    pub fn allocate_miss(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        debug_assert!(self.stamp > 0, "allocate_miss follows try_hit");
        self.stats.accesses += 1;
        self.stats.misses += 1;
        // Invalid lines hold stamp 0 and valid stamps are distinct, so the
        // first least-stamped way is the first invalid way, else the LRU way.
        let victim = self
            .ways_of(addr)
            .min_by_key(|&i| self.stamps[i])
            .expect("ways > 0");
        let mut writeback = None;
        if self.stamps[victim] != 0 && self.dirty[victim] {
            self.stats.writebacks += 1;
            // Reconstruct the victim's line address from its tag and set.
            let set = (victim / self.cfg.ways) as u64;
            let line_bytes = self.cfg.line_bytes as u64;
            writeback = Some((self.tags[victim] * self.sets as u64 + set) * line_bytes);
        }
        self.tags[victim] = self.tag_of(addr);
        self.stamps[victim] = self.stamp;
        self.dirty[victim] = is_write;
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Counts one access as a hit without touching the tag array.
    ///
    /// Used by the instruction path's last-line buffer: when the previous
    /// access resolved the same line, that line is present and already the
    /// most recent of its set, so re-walking the set is pure overhead — only
    /// the counters need to advance to stay bit-identical with a full lookup.
    pub fn count_repeat_hit(&mut self) {
        self.stats.accesses += 1;
        self.stats.hits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            ways: 2,
        })
    }

    #[test]
    fn table1_geometries_are_valid() {
        assert_eq!(CacheConfig::l1d_table1().sets(), 1024);
        assert_eq!(CacheConfig::l1i_table1().sets(), 512);
        assert_eq!(CacheConfig::l2_table1().sets(), 2048);
    }

    #[test]
    fn cold_miss_then_hit_within_line() {
        let mut c = small();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x11f, false).hit, "same 32-byte line");
        assert!(!c.access(0x120, false).hit, "next line misses");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_replacement_within_set() {
        let mut c = small(); // 4 sets, 2 ways

        // Three distinct lines mapping to the same set (stride = sets*line = 128).
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch so 0x080 becomes LRU
        c.access(0x100, false); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        c.access(0x000, true); // dirty
        c.access(0x080, false);
        let out = c.access(0x100, false); // evicts one of them (0x000 is LRU)
        assert_eq!(out.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x080, false);
        let out = c.access(0x100, false);
        assert!(!out.hit);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x000, true); // hit, now dirty
        c.access(0x080, false);
        let out = c.access(0x100, false);
        assert_eq!(out.writeback, Some(0x000));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x080, false);
        // Probing 0x000 must not make it MRU.
        assert!(c.probe(0x000));
        c.access(0x100, false); // should evict 0x000 (the true LRU)
        assert!(!c.probe(0x000));
        assert!(c.probe(0x080));
    }

    #[test]
    fn line_addr_masks_low_bits() {
        let c = small();
        assert_eq!(c.line_addr(0x10f), 0x100);
        assert_eq!(c.line_addr(0x100), 0x100);
    }

    #[test]
    fn miss_rate() {
        let mut c = small();
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn count_repeat_hit_matches_a_real_repeat_access() {
        let mut real = small();
        let mut short = small();
        real.access(0x40, false);
        short.access(0x40, false);
        let out = real.access(0x48, false);
        assert!(out.hit);
        short.count_repeat_hit();
        assert_eq!(real.stats(), short.stats());
        // Replacement state also agrees: both evict the same victim next.
        real.access(0x0c0, false);
        real.access(0x140, false);
        short.access(0x0c0, false);
        short.access(0x140, false);
        assert_eq!(real.probe(0x40), short.probe(0x40));
        assert_eq!(real.probe(0x0c0), short.probe(0x0c0));
    }
}
