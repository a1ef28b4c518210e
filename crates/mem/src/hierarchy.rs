//! Table 1's memory hierarchy as one object: [`DataMemory`] owns the L1-I,
//! the L1-D, the one unified L2 and the L1-D's MSHR file.
//!
//! * **Data** ([`DataMemory::access_through`]): an access needs a free L1-D
//!   port ([`PortSet`]) and then, on an L1-D miss, a free MSHR.  A miss
//!   fills the L1-D and looks up the L2; a dirty L1-D victim is written back
//!   into the L2 in the background.  A later access to a line whose miss is
//!   still in flight merges with that miss and completes with it.
//! * **Fetch** ([`DataMemory::fetch_latency`]): an L1-I miss takes no MSHR.
//!   Table 1's L1-I line is 64 bytes and its L2 line 32, so a miss looks up
//!   (and on an L2 miss fills) only the 32-byte L2 line holding the fetch
//!   PC; the other half of the L1-I line is neither looked up nor brought
//!   into the L2, and the latency is that one lookup's.
//! * **One L2**: code and data lines compete for the same L2 sets and evict
//!   each other, and the L2's counters cover both.
//!
//! The component is *timing-directed*: it tracks tags and latencies, while
//! the data values live in the functional emulator.  It is built for a cheap
//! common case:
//!
//! * an L1-D hit is resolved with a single tag lookup ([`Cache::try_hit`]);
//!   only real misses pay for victim selection;
//! * the MSHR file is a deque ordered by completion cycle, so retiring
//!   completed misses pops from the front, and the macro-stepper reads the
//!   next completion ([`DataMemory::next_miss_done_cycle`]) without a scan;
//! * fetch keeps a one-entry last-line buffer: sequential fetch re-touches
//!   the same I-line once per instruction, and each re-touch is counted
//!   without re-walking the set.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::port::PortSet;
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

/// An in-flight L1-D miss.
#[derive(Debug, Clone, Copy)]
struct Miss {
    line_addr: u64,
    done_cycle: u64,
}

/// The whole memory hierarchy of one processor: L1-I and L1-D over one
/// unified L2 over main memory, with a bounded number of outstanding L1-D
/// misses (see the module docs).
#[derive(Debug, Clone)]
pub struct DataMemory {
    cfg: MemHierarchyConfig,
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    /// The I-line the previous fetch resolved: a one-entry line buffer in
    /// front of the L1-I.
    last_fetch_line: Option<u64>,
    /// In-flight L1-D misses, ordered by `done_cycle` (ascending): retirement
    /// pops from the front instead of scanning the whole file.
    outstanding: VecDeque<Miss>,
    mshr_full_events: u64,
}

impl DataMemory {
    /// Creates an empty hierarchy.
    #[must_use]
    pub fn new(cfg: &MemHierarchyConfig) -> Self {
        DataMemory {
            cfg: *cfg,
            l1d: Cache::new(cfg.l1d),
            l1i: Cache::new(cfg.l1i),
            l2: Cache::new(cfg.l2),
            last_fetch_line: None,
            outstanding: VecDeque::new(),
            mshr_full_events: 0,
        }
    }

    /// The L1-D line-aligned address containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        self.l1d.line_addr(addr)
    }

    /// Removes completed misses from the MSHR file.  The file is ordered by
    /// completion cycle, so this is a lazy front-pop, not a retain-scan: the
    /// common no-op case costs one comparison.
    fn retire_misses(&mut self, now: u64) {
        while self
            .outstanding
            .front()
            .is_some_and(|m| m.done_cycle <= now)
        {
            self.outstanding.pop_front();
        }
    }

    /// Completion cycle of the next outstanding miss still in flight at
    /// `now`, if any.  Misses completed by `now` are retired first, so a
    /// long-completed miss never pins a wakeup bound to the past.
    pub fn next_miss_done_cycle(&mut self, now: u64) -> Option<u64> {
        self.retire_misses(now);
        self.outstanding.front().map(|m| m.done_cycle)
    }

    /// Performs one L1-D access through one of `ports`: the path every
    /// load, store and vector-load line access of the pipeline takes.
    ///
    /// An access needs a free port first.  With none left this cycle it
    /// returns `None` and changes nothing, not even [`PortStats`]'s
    /// `conflicts` (so that counter stays 0 on this path).  A granted port
    /// is used up for the cycle even when the access then finds every MSHR
    /// busy and returns `None` ([`Self::access`]): the grant is wasted and
    /// the caller retries on a later cycle.
    ///
    /// [`PortStats`]: crate::port::PortStats
    pub fn access_through(
        &mut self,
        ports: &mut PortSet,
        addr: u64,
        is_write: bool,
        now: u64,
    ) -> Option<u64> {
        if ports.free_this_cycle() == 0 || !ports.try_acquire() {
            return None;
        }
        self.access(addr, is_write, now)
    }

    /// Performs one L1-D access starting at cycle `now`, with no port.
    ///
    /// Returns the cycle at which the data is available (for loads) or the
    /// write is accepted (for stores), or `None` if the access misses and no
    /// MSHR is free.
    ///
    /// An access that merges into an in-flight miss to its line returns
    /// without touching the L1-D: it is not counted in [`Self::l1d_stats`],
    /// and a store merging there does not mark the line dirty, so the line
    /// may later be evicted without a writeback.
    pub fn access(&mut self, addr: u64, is_write: bool, now: u64) -> Option<u64> {
        self.retire_misses(now);
        let line = self.l1d.line_addr(addr);

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
        if self.l1d.try_hit(addr, is_write) {
            return Some(now + self.cfg.l1_hit_cycles);
        }

        // L1 miss: need an MSHR before the line may be allocated.
        if self.outstanding.len() >= self.cfg.max_outstanding_misses {
            self.mshr_full_events += 1;
            return None;
        }
        let l1_out = self.l1d.allocate_miss(addr, is_write);

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

    /// The latency, in cycles, of fetching the L1-I line containing `pc`.
    ///
    /// Sequential fetch (and a front end re-polling the same group while a
    /// miss is in flight) asks for the same line over and over; the last-line
    /// buffer short-circuits that case.  The line is necessarily still
    /// resident and already MRU — only a fetch from a *different* line could
    /// evict it, and that fetch would have replaced the buffer — so the
    /// short-circuit counts the hit and returns without re-walking the set,
    /// leaving every `CacheStats` counter identical to a full lookup.  (Even
    /// after a miss the follow-up is an L1 hit: the miss allocated the line.)
    pub fn fetch_latency(&mut self, pc: u64) -> u64 {
        let line = self.l1i.line_addr(pc);
        if self.last_fetch_line == Some(line) {
            self.l1i.count_repeat_hit();
            return self.cfg.l1_hit_cycles;
        }
        self.last_fetch_line = Some(line);
        if self.l1i.access(pc, false).hit {
            self.cfg.l1_hit_cycles
        } else if self.l2.access(pc, false).hit {
            self.cfg.l2_hit_cycles
        } else {
            self.cfg.memory_cycles
        }
    }

    /// L1 data-cache statistics.
    #[must_use]
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L1 instruction-cache statistics.
    #[must_use]
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// Statistics of the unified L2 (data accesses, writebacks and
    /// instruction-fetch misses alike).
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Number of accesses rejected because every MSHR was busy.
    #[must_use]
    pub fn mshr_full_events(&self) -> u64 {
        self.mshr_full_events
    }

    /// Number of outstanding misses at `now`.
    pub fn outstanding_misses(&mut self, now: u64) -> usize {
        self.retire_misses(now);
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::PortKind;

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
        assert_eq!(d.l1d_stats().misses, 1);
        assert_eq!(d.l1d_stats().accesses, 1);
        // The store allocated the line: a later load hits it.
        assert_eq!(
            d.access(0x1000, false, done),
            Some(done + cfg.l1_hit_cycles)
        );
        assert_eq!(d.l1d_stats().hits, 1);
    }

    #[test]
    fn mshrs_retire_out_of_allocation_order() {
        // An L2-served miss allocated *after* a memory-bound miss completes
        // first; the done-cycle-ordered file must free it on time.  A tiny
        // direct-mapped L1 forces line A out of the L1 while it stays in
        // the L2.
        let cfg = MemHierarchyConfig {
            l1d: CacheConfig {
                size_bytes: 64,
                line_bytes: 32,
                ways: 1,
            },
            max_outstanding_misses: 2,
            ..MemHierarchyConfig::table1()
        };
        let mut d = DataMemory::new(&cfg);
        d.access(0x00, false, 0); // A -> L1 set 0, L2
        d.access(0x40, false, 0); // B -> L1 set 0 evicts A
        let now = cfg.memory_cycles + 101;
        let slow = d.access(0x2000, false, now).unwrap(); // memory-bound
        let fast = d.access(0x00, false, now).unwrap(); // L2 hit, evicts B
        assert!(fast < slow, "the younger miss completes first");
        // At `fast` the fast miss has retired: both MSHRs cannot be busy.
        assert_eq!(d.next_miss_done_cycle(fast), Some(slow));
        assert_eq!(d.outstanding_misses(fast), 1);
        assert_eq!(d.next_miss_done_cycle(slow), None);
        assert_eq!(d.outstanding_misses(slow), 0);
    }

    #[test]
    fn a_port_granted_to_a_full_mshr_file_is_wasted() {
        let cfg = MemHierarchyConfig {
            max_outstanding_misses: 1,
            ..MemHierarchyConfig::table1()
        };
        let mut d = DataMemory::new(&cfg);
        let mut ports = PortSet::new(PortKind::Scalar, 2);
        ports.begin_cycle();
        assert_eq!(
            d.access_through(&mut ports, 0x0000, false, 0),
            Some(cfg.memory_cycles)
        );
        assert_eq!(d.access_through(&mut ports, 0x1000, false, 0), None);
        assert_eq!(ports.free_this_cycle(), 0, "the second grant is used up");
        assert_eq!(ports.stats().grants, 2);
        assert_eq!(ports.stats().conflicts, 0);
        assert_eq!(d.mshr_full_events(), 1);
    }

    #[test]
    fn no_free_port_means_no_access() {
        let cfg = MemHierarchyConfig::table1();
        let mut d = DataMemory::new(&cfg);
        let mut ports = PortSet::new(PortKind::Wide, 1);
        ports.begin_cycle();
        assert!(d.access_through(&mut ports, 0x0000, false, 0).is_some());
        let (l1d, l2) = (d.l1d_stats(), d.l2_stats());
        for addr in [0x0000, 0x1000] {
            assert_eq!(d.access_through(&mut ports, addr, true, 0), None);
        }
        assert_eq!(d.l1d_stats(), l1d);
        assert_eq!(d.l2_stats(), l2);
        assert_eq!(d.outstanding_misses(0), 1);
        assert_eq!(d.mshr_full_events(), 0);
        assert_eq!(ports.stats().grants, 1);
        assert_eq!(ports.stats().conflicts, 0);
        // The next cycle has a port again.
        ports.begin_cycle();
        assert!(d.access_through(&mut ports, 0x1000, false, 1).is_some());
        assert_eq!(d.outstanding_misses(1), 2);
    }

    #[test]
    fn fetch_misses_take_no_mshr() {
        let cfg = MemHierarchyConfig::table1();
        let mut d = DataMemory::new(&cfg);
        for k in 0..cfg.max_outstanding_misses as u64 {
            assert!(d.access(0x10_0000 + k * 0x1000, false, 0).is_some());
        }
        assert_eq!(d.outstanding_misses(0), cfg.max_outstanding_misses);
        assert_eq!(d.fetch_latency(0x4000_0000), cfg.memory_cycles);
        assert_eq!(d.outstanding_misses(0), cfg.max_outstanding_misses);
        assert_eq!(d.mshr_full_events(), 0);
    }

    #[test]
    fn inst_memory_latency() {
        let cfg = MemHierarchyConfig::table1();
        let mut d = DataMemory::new(&cfg);
        assert_eq!(d.fetch_latency(0x1000), cfg.memory_cycles);
        assert_eq!(d.fetch_latency(0x1000), cfg.l1_hit_cycles);
        assert_eq!(
            d.fetch_latency(0x103c),
            cfg.l1_hit_cycles,
            "same 64-byte line"
        );
        assert_eq!(d.fetch_latency(0x1040), cfg.memory_cycles, "next line");
        assert_eq!(d.l1i_stats().accesses, 4);
        assert_eq!(d.l1d_stats().accesses, 0, "fetch leaves the L1-D alone");
    }

    #[test]
    fn inst_line_buffer_is_invisible_in_the_counters() {
        let cfg = MemHierarchyConfig::table1();
        let mut d = DataMemory::new(&cfg);
        // Sequential fetch through one 64-byte line: 1 miss + 15 buffered hits.
        for word in 0..16u64 {
            let lat = d.fetch_latency(0x1000 + word * 4);
            if word == 0 {
                assert_eq!(lat, cfg.memory_cycles);
            } else {
                assert_eq!(lat, cfg.l1_hit_cycles);
            }
        }
        assert_eq!(d.l1i_stats().accesses, 16);
        assert_eq!(d.l1i_stats().hits, 15);
        assert_eq!(d.l1i_stats().misses, 1);
        // Alternating lines defeat the buffer but still hit the L1.
        d.fetch_latency(0x1040);
        assert_eq!(d.fetch_latency(0x1000), cfg.l1_hit_cycles);
        assert_eq!(d.l1i_stats().misses, 2);
        assert_eq!(d.l1i_stats().hits, 16);
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
        let evict_from_l1i = |m: &mut DataMemory| {
            assert_eq!(m.fetch_latency(code + 128), cfg.memory_cycles);
        };

        // Evicted from the L1-I only: the fetch miss left the line in the L2.
        let mut m = DataMemory::new(&cfg);
        assert_eq!(m.fetch_latency(code), cfg.memory_cycles);
        evict_from_l1i(&mut m);
        assert_eq!(m.fetch_latency(code), cfg.l2_hit_cycles);

        // Data lines filling the code line's L2 set evict it there too, so
        // the next fetch goes to memory.
        let mut m = DataMemory::new(&cfg);
        assert_eq!(m.fetch_latency(code), cfg.memory_cycles);
        evict_from_l1i(&mut m);
        for k in 1..=cfg.l2.ways as u64 {
            let now = k * 100;
            let data = code + k * l2_set_stride;
            assert_eq!(m.access(data, false, now), Some(now + cfg.memory_cycles));
        }
        assert_eq!(m.fetch_latency(code), cfg.memory_cycles);
        // The three fetch misses count in the one L2 beside the data misses.
        assert_eq!(m.l2_stats().accesses, 3 + cfg.l2.ways as u64);
    }
}
