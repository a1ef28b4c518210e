//! Hierarchy timing: for random address streams, [`DataMemory`] must produce
//! exactly the completion cycles, MSHR rejections and L1/L2 [`CacheStats`]
//! of a hand-driven pair of [`Cache`]s plus an oracle MSHR file, on a small
//! 2-way L1 where sets and ways collide constantly.
//!
//! [`CacheStats`]: sdv::mem::CacheStats

use proptest::prelude::*;
use sdv::mem::{Cache, CacheConfig, DataMemory, MemHierarchyConfig};

/// A compact recipe for one access of a generated stream: the address is
/// assembled from a small region base, a line index and a byte offset so that
/// streams mix set collisions, same-line re-touches and far misses.
#[derive(Debug, Clone, Copy)]
struct Access {
    region: u8,
    line: u16,
    offset: u8,
    is_write: bool,
}

fn access_strategy() -> impl Strategy<Value = Access> {
    (any::<u8>(), 0u16..64, any::<u8>(), any::<bool>()).prop_map(
        |(region, line, offset, is_write)| Access {
            region,
            line,
            offset,
            is_write,
        },
    )
}

fn addr_of(a: Access, line_bytes: u64) -> u64 {
    // Regions are 64 lines apart, so different regions alias onto the same
    // sets of a small cache with different tags.
    u64::from(a.region) * 64 * line_bytes
        + u64::from(a.line) * line_bytes
        + u64::from(a.offset % 32)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Identical completion cycles, rejections and L1/L2 counters between
    /// the hierarchy and a `Cache` pair driven by hand.
    #[test]
    fn hierarchy_timing_is_reproduced_by_naive_caches(
        stream in proptest::collection::vec(access_strategy(), 1..128),
    ) {
        let cfg = MemHierarchyConfig {
            l1d: CacheConfig { size_bytes: 256, line_bytes: 32, ways: 2 },
            ..MemHierarchyConfig::table1()
        };
        let mut dmem = DataMemory::new(&cfg);
        let mut l1 = Cache::new(cfg.l1d);
        let mut l2 = Cache::new(cfg.l2);
        // Oracle MSHR file: (line, done_cycle) pairs, retained while pending.
        let mut outstanding: Vec<(u64, u64)> = Vec::new();
        for (i, &a) in stream.iter().enumerate() {
            let addr = addr_of(a, cfg.l1d.line_bytes as u64);
            let now = (i as u64) * 3; // gives misses a chance to overlap
            let got = dmem.access(addr, a.is_write, now);

            // Reference semantics over the hand-driven caches.
            outstanding.retain(|&(_, done)| done > now);
            let line = l1.line_addr(addr);
            let expected = if let Some(&(_, done)) =
                outstanding.iter().find(|&&(l, _)| l == line)
            {
                Some(done.max(now + cfg.l1_hit_cycles))
            } else if l1.try_hit(addr, a.is_write) {
                Some(now + cfg.l1_hit_cycles)
            } else if outstanding.len() >= cfg.max_outstanding_misses {
                None
            } else {
                let out = l1.allocate_miss(addr, a.is_write);
                if let Some(victim) = out.writeback {
                    let _ = l2.access(victim, true);
                }
                let done = if l2.access(addr, a.is_write).hit {
                    now + cfg.l2_hit_cycles
                } else {
                    now + cfg.memory_cycles
                };
                outstanding.push((line, done));
                Some(done)
            };
            prop_assert_eq!(got, expected, "completion diverged at access {}", i);
        }
        prop_assert_eq!(dmem.l1d_stats(), l1.stats());
        prop_assert_eq!(dmem.l2_stats(), l2.stats());
    }
}
