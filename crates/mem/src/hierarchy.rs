//! The L1 → L2 → memory timing path for data and instruction accesses.
//!
//! There is one L2, as in Table 1: [`DataMemory`] owns it, and
//! [`InstMemory::fetch_latency`] borrows it ([`DataMemory::l2_mut`]), so code
//! and data lines compete for the same sets and evict each other.
//!
//! Both paths are built for a cheap common case:
//!
//! * [`DataMemory::access`] resolves an L1 hit with a **single** tag lookup
//!   ([`Cache::try_hit`]) instead of the old `probe`-then-`access` double
//!   scan; only real misses pay for victim selection.
//! * The MSHR file is a deque ordered by completion cycle, so retiring
//!   completed misses pops from the front instead of a retain-scan over the
//!   whole file on every access.
//! * [`InstMemory::fetch_latency`] keeps a one-entry last-line buffer:
//!   sequential fetch re-touches the same I-line `line_bytes / 4` times, and
//!   each re-touch is counted without re-walking the set.

use crate::cache::{Cache, CacheConfig, CacheStats};
use std::collections::VecDeque;

/// Latency and capacity parameters of the whole hierarchy (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemHierarchyConfig {
    /// Geometry of the L1 data cache.
    pub l1d: CacheConfig,
    /// Geometry of the L1 instruction cache.
    pub l1i: CacheConfig,
    /// Geometry of the unified L2 cache.
    pub l2: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u64,
    /// Total latency of an access served by the L2 (the paper's "6 cycle miss
    /// time" for L1 / "6 cycles hit time" for L2).
    pub l2_hit_cycles: u64,
    /// Total latency of an access served by main memory (L2 hit time plus the
    /// paper's "18 cycle miss time").
    pub memory_cycles: u64,
    /// Maximum number of outstanding L1 data misses (MSHRs).
    pub max_outstanding_misses: usize,
}

impl MemHierarchyConfig {
    /// The memory system of Table 1.
    #[must_use]
    pub fn table1() -> Self {
        MemHierarchyConfig {
            l1d: CacheConfig::l1d_table1(),
            l1i: CacheConfig::l1i_table1(),
            l2: CacheConfig::l2_table1(),
            l1_hit_cycles: 1,
            l2_hit_cycles: 6,
            memory_cycles: 24,
            max_outstanding_misses: 16,
        }
    }
}

impl Default for MemHierarchyConfig {
    fn default() -> Self {
        MemHierarchyConfig::table1()
    }
}

/// An in-flight L1 miss.
#[derive(Debug, Clone, Copy)]
struct Miss {
    line_addr: u64,
    done_cycle: u64,
}

/// The data side of the memory hierarchy: L1-D backed by L2 backed by memory,
/// with a bounded number of outstanding misses.
///
/// The component is *timing-directed*: it tracks tags and latencies, while the
/// actual data values live in the functional emulator.  [`DataMemory::access`]
/// returns the cycle at which the access completes, or `None` when all MSHRs
/// are busy and the access must be retried later.
#[derive(Debug, Clone)]
pub struct DataMemory {
    cfg: MemHierarchyConfig,
    l1: Cache,
    l2: Cache,
    /// In-flight misses, ordered by `done_cycle` (ascending): retirement pops
    /// from the front instead of scanning the whole file.
    outstanding: VecDeque<Miss>,
    mshr_full_events: u64,
    accesses: u64,
    line_accesses: u64,
}

impl DataMemory {
    /// Creates an empty hierarchy.
    #[must_use]
    pub fn new(cfg: &MemHierarchyConfig) -> Self {
        DataMemory {
            cfg: *cfg,
            l1: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            outstanding: VecDeque::new(),
            mshr_full_events: 0,
            accesses: 0,
            line_accesses: 0,
        }
    }

    /// The L1 data-cache line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.cfg.l1d.line_bytes as u64
    }

    /// The line-aligned address containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        self.l1.line_addr(addr)
    }

    /// Removes completed misses from the MSHR file.  The file is ordered by
    /// completion cycle, so this is a lazy front-pop, not a retain-scan: the
    /// common no-op case costs one comparison.
    pub fn retire_misses(&mut self, now: u64) {
        while self
            .outstanding
            .front()
            .is_some_and(|m| m.done_cycle <= now)
        {
            self.outstanding.pop_front();
        }
    }

    /// Completion cycle of the next outstanding miss to retire, if any.
    ///
    /// The MSHR file is kept sorted by completion cycle, so this is a front
    /// peek.  The macro-stepping main loop uses it as a wakeup candidate when
    /// the pipeline is frozen on an outstanding miss; entries whose
    /// `done_cycle` has already passed (but have not yet been lazily retired)
    /// are still reported, which only makes the candidate conservative.
    #[must_use]
    pub fn next_miss_done_cycle(&self) -> Option<u64> {
        self.outstanding.front().map(|m| m.done_cycle)
    }

    /// Performs one data access starting at cycle `now`.
    ///
    /// Returns the cycle at which the data is available (for loads) or the
    /// write is accepted (for stores), or `None` if no MSHR is free.
    pub fn access(&mut self, addr: u64, is_write: bool, now: u64) -> Option<u64> {
        self.retire_misses(now);
        self.accesses += 1;
        self.line_accesses += 1;
        let line = self.l1.line_addr(addr);

        // A miss to a line that is already being fetched merges with it.
        // (A line has at most one in-flight miss: later accesses merge here
        // instead of allocating, so the scan never has a second match.)
        if let Some(m) = self.outstanding.iter().find(|m| m.line_addr == line) {
            let done = m.done_cycle.max(now + self.cfg.l1_hit_cycles);
            // The line will be present once the outstanding fill completes.
            return Some(done);
        }

        // The common case: one combined lookup resolves the hit, updates LRU
        // and the dirty bit, and we are done.
        if self.l1.try_hit(addr, is_write) {
            return Some(now + self.cfg.l1_hit_cycles);
        }

        // L1 miss: need an MSHR before the line may be allocated.
        if self.outstanding.len() >= self.cfg.max_outstanding_misses {
            self.mshr_full_events += 1;
            return None;
        }
        let l1_out = self.l1.allocate_miss(addr, is_write);

        // Dirty victim is written back into L2 (no extra latency modelled for
        // the writeback itself, it proceeds in the background).
        if let Some(victim) = l1_out.writeback {
            let _ = self.l2.access(victim, true);
        }

        let l2_out = self.l2.access(addr, is_write);
        let done = if l2_out.hit {
            now + self.cfg.l2_hit_cycles
        } else {
            now + self.cfg.memory_cycles
        };
        // Insert in completion order (an L2 hit can finish before an older
        // memory-bound miss); the file is tiny, so the shift is cheap.
        let pos = self.outstanding.partition_point(|m| m.done_cycle <= done);
        self.outstanding.insert(
            pos,
            Miss {
                line_addr: line,
                done_cycle: done,
            },
        );
        Some(done)
    }

    /// L1 data-cache statistics.
    #[must_use]
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// Statistics of the unified L2 (data accesses, writebacks and
    /// instruction-fetch misses alike).
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// The unified L2, for [`InstMemory::fetch_latency`].
    pub fn l2_mut(&mut self) -> &mut Cache {
        &mut self.l2
    }

    /// Number of accesses rejected because every MSHR was busy.
    #[must_use]
    pub fn mshr_full_events(&self) -> u64 {
        self.mshr_full_events
    }

    /// Total number of accesses presented to the hierarchy.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of outstanding misses at `now`.
    pub fn outstanding_misses(&mut self, now: u64) -> usize {
        self.retire_misses(now);
        self.outstanding.len()
    }
}

/// The instruction-fetch side: L1-I backed by the unified L2 (owned by
/// [`DataMemory`] and passed in per fetch) backed by memory.
///
/// Fetch is modelled at line granularity: the front end asks for the latency
/// of fetching the line containing the fetch PC.  An L1-I miss looks up the
/// L2 line holding that PC only: Table 1's L1-I line is 64 bytes and its L2
/// line 32, so a miss reads (and on an L2 miss fills) the one 32-byte L2
/// line of the fetch PC, and the other half of the L1-I line is neither
/// looked up nor brought into the L2.  The latency is that one lookup's.
#[derive(Debug, Clone)]
pub struct InstMemory {
    cfg: MemHierarchyConfig,
    l1: Cache,
    /// The I-line the previous fetch resolved: a one-entry line buffer in
    /// front of the L1.
    last_line: Option<u64>,
}

impl InstMemory {
    /// Creates an empty instruction-memory path.
    #[must_use]
    pub fn new(cfg: &MemHierarchyConfig) -> Self {
        InstMemory {
            cfg: *cfg,
            l1: Cache::new(cfg.l1i),
            last_line: None,
        }
    }

    /// The latency, in cycles, of fetching the line containing `pc`, with
    /// `l2` the hierarchy's unified L2 ([`DataMemory::l2_mut`]).
    ///
    /// Sequential fetch (and a front end re-polling the same group while a
    /// miss is in flight) asks for the same line over and over; the last-line
    /// buffer short-circuits that case.  The line is necessarily still
    /// resident and already MRU — only an access to a *different* line could
    /// evict it, and that access would have replaced the buffer — so the
    /// short-circuit counts the hit and returns without re-walking the set,
    /// leaving every `CacheStats` counter identical to a full lookup.  (Even
    /// after a miss the follow-up is an L1 hit: the miss allocated the line.)
    pub fn fetch_latency(&mut self, pc: u64, l2: &mut Cache) -> u64 {
        let line = self.l1.line_addr(pc);
        if self.last_line == Some(line) {
            self.l1.count_repeat_hit();
            return self.cfg.l1_hit_cycles;
        }
        self.last_line = Some(line);
        if self.l1.access(pc, false).hit {
            self.cfg.l1_hit_cycles
        } else if l2.access(pc, false).hit {
            self.cfg.l2_hit_cycles
        } else {
            self.cfg.memory_cycles
        }
    }

    /// The L1-I line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.cfg.l1i.line_bytes as u64
    }

    /// L1 instruction-cache statistics.
    #[must_use]
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_follow_the_hierarchy() {
        let cfg = MemHierarchyConfig::table1();
        let mut d = DataMemory::new(&cfg);
        // Cold: memory latency.
        assert_eq!(d.access(0x1000, false, 0), Some(cfg.memory_cycles));
        // Hot in L1.
        assert_eq!(d.access(0x1000, false, 100), Some(100 + cfg.l1_hit_cycles));
        // Same line, different word: still an L1 hit.
        assert_eq!(d.access(0x1008, false, 101), Some(101 + cfg.l1_hit_cycles));
    }

    #[test]
    fn l2_hits_are_faster_than_memory() {
        let cfg = MemHierarchyConfig {
            l1d: CacheConfig {
                size_bytes: 64,
                line_bytes: 32,
                ways: 1,
            },
            ..MemHierarchyConfig::table1()
        };
        let mut d = DataMemory::new(&cfg);
        d.access(0x0, false, 0); // line A -> L1 and L2
        d.access(0x20, false, 0); // line B
        d.access(0x40, false, 0); // line C evicts A from tiny L1 (set 0), still in L2
        let lat = d.access(0x0, false, 1000).unwrap() - 1000;
        assert_eq!(lat, cfg.l2_hit_cycles);
    }

    #[test]
    fn mshr_limit_rejects_accesses() {
        let cfg = MemHierarchyConfig {
            max_outstanding_misses: 2,
            ..MemHierarchyConfig::table1()
        };
        let mut d = DataMemory::new(&cfg);
        assert!(d.access(0x0000, false, 0).is_some());
        assert!(d.access(0x1000, false, 0).is_some());
        assert!(d.access(0x2000, false, 0).is_none(), "third miss rejected");
        assert_eq!(d.mshr_full_events(), 1);
        // After the misses complete, new ones are accepted again.
        let later = cfg.memory_cycles + 1;
        assert!(d.access(0x2000, false, later).is_some());
        assert_eq!(d.outstanding_misses(later), 1);
    }

    #[test]
    fn misses_to_same_line_merge() {
        let cfg = MemHierarchyConfig {
            max_outstanding_misses: 1,
            ..MemHierarchyConfig::table1()
        };
        let mut d = DataMemory::new(&cfg);
        let done = d.access(0x1000, false, 0).unwrap();
        // Second access to the same line merges with the outstanding miss
        // instead of needing a second MSHR.
        let done2 = d.access(0x1008, false, 2).unwrap();
        assert_eq!(done2, done);
        assert_eq!(d.mshr_full_events(), 0);
    }

    #[test]
    fn stores_allocate_and_dirty_lines() {
        let cfg = MemHierarchyConfig::table1();
        let mut d = DataMemory::new(&cfg);
        let done = d.access(0x1000, true, 0).expect("an MSHR is free");
        assert_eq!(d.l1_stats().misses, 1);
        assert_eq!(d.accesses(), 1);
        // The store allocated the line: a later load hits it.
        assert_eq!(
            d.access(0x1000, false, done),
            Some(done + cfg.l1_hit_cycles)
        );
        assert_eq!(d.l1_stats().hits, 1);
    }

    #[test]
    fn mshrs_retire_out_of_allocation_order() {
        // An L2-served miss allocated *after* a memory-bound miss completes
        // first; the done-cycle-ordered file must free it on time.
        let cfg = MemHierarchyConfig {
            max_outstanding_misses: 2,
            ..MemHierarchyConfig::table1()
        };
        let mut d = DataMemory::new(&cfg);
        // Warm line A into L2, then evict it from L1 via B (both set-map
        // differently in L2, so A stays there).
        d.access(0x0000, false, 0);
        let warm = cfg.memory_cycles + 1;
        // A memory-bound miss (line C) followed by an L2 hit (line A after L1
        // eviction) — to force A out of L1 use a tiny L1.
        let cfg2 = MemHierarchyConfig {
            l1d: CacheConfig {
                size_bytes: 64,
                line_bytes: 32,
                ways: 1,
            },
            max_outstanding_misses: 2,
            ..MemHierarchyConfig::table1()
        };
        let mut d = DataMemory::new(&cfg2);
        d.access(0x00, false, 0); // A -> L1 set 0, L2
        d.access(0x40, false, 0); // B -> L1 set 0 evicts A
        let now = warm + 100;
        let slow = d.access(0x2000, false, now).unwrap(); // memory-bound
        let fast = d.access(0x00, false, now).unwrap(); // L2 hit, evicts B
        assert!(fast < slow, "the younger miss completes first");
        // At `fast` the fast miss has retired: both MSHRs cannot be busy.
        assert_eq!(d.outstanding_misses(fast), 1);
        assert_eq!(d.outstanding_misses(slow), 0);
    }

    #[test]
    fn inst_memory_latency() {
        let cfg = MemHierarchyConfig::table1();
        let mut i = InstMemory::new(&cfg);
        let l2 = &mut Cache::new(cfg.l2);
        assert_eq!(i.fetch_latency(0x1000, l2), cfg.memory_cycles);
        assert_eq!(i.fetch_latency(0x1000, l2), cfg.l1_hit_cycles);
        assert_eq!(
            i.fetch_latency(0x1004, l2),
            cfg.l1_hit_cycles,
            "same 64-byte line"
        );
        assert_eq!(i.line_bytes(), 64);
        assert_eq!(i.l1_stats().accesses, 3);
    }

    #[test]
    fn inst_line_buffer_is_invisible_in_the_counters() {
        let cfg = MemHierarchyConfig::table1();
        let mut i = InstMemory::new(&cfg);
        let l2 = &mut Cache::new(cfg.l2);
        // Sequential fetch through one 64-byte line: 1 miss + 15 buffered hits.
        for word in 0..16u64 {
            let lat = i.fetch_latency(0x1000 + word * 4, l2);
            if word == 0 {
                assert_eq!(lat, cfg.memory_cycles);
            } else {
                assert_eq!(lat, cfg.l1_hit_cycles);
            }
        }
        assert_eq!(i.l1_stats().accesses, 16);
        assert_eq!(i.l1_stats().hits, 15);
        assert_eq!(i.l1_stats().misses, 1);
        // Alternating lines defeat the buffer but still hit the L1.
        i.fetch_latency(0x1040, l2);
        assert_eq!(i.fetch_latency(0x1000, l2), cfg.l1_hit_cycles);
        assert_eq!(i.l1_stats().misses, 2);
        assert_eq!(i.l1_stats().hits, 16);
    }

    #[test]
    fn code_and_data_share_one_l2() {
        // A 128-byte direct-mapped L1-I (two 64-byte sets), so a fetch 128
        // bytes away evicts a code line; Table 1's L2 otherwise.
        let cfg = MemHierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 128,
                line_bytes: 64,
                ways: 1,
            },
            ..MemHierarchyConfig::table1()
        };
        let l2_set_stride = (cfg.l2.sets() * cfg.l2.line_bytes) as u64;
        let code = 0x1000;
        let evict_from_l1i = |i: &mut InstMemory, d: &mut DataMemory| {
            assert_eq!(i.fetch_latency(code + 128, d.l2_mut()), cfg.memory_cycles);
        };

        // Evicted from the L1-I only: the fetch miss left the line in the L2.
        let (mut i, mut d) = (InstMemory::new(&cfg), DataMemory::new(&cfg));
        assert_eq!(i.fetch_latency(code, d.l2_mut()), cfg.memory_cycles);
        evict_from_l1i(&mut i, &mut d);
        assert_eq!(i.fetch_latency(code, d.l2_mut()), cfg.l2_hit_cycles);

        // Data lines filling the code line's L2 set evict it there too, so
        // the next fetch goes to memory.
        let (mut i, mut d) = (InstMemory::new(&cfg), DataMemory::new(&cfg));
        assert_eq!(i.fetch_latency(code, d.l2_mut()), cfg.memory_cycles);
        evict_from_l1i(&mut i, &mut d);
        for k in 1..=cfg.l2.ways as u64 {
            let now = k * 100;
            let data = code + k * l2_set_stride;
            assert_eq!(d.access(data, false, now), Some(now + cfg.memory_cycles));
        }
        assert_eq!(i.fetch_latency(code, d.l2_mut()), cfg.memory_cycles);
        // The three fetch misses count in the one L2 beside the data misses.
        assert_eq!(d.l2_stats().accesses, 3 + cfg.l2.ways as u64);
    }
}
