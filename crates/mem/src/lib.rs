//! Memory-hierarchy timing models for the SDV simulator.
//!
//! This crate provides the structures behind Table 1's memory system:
//!
//! * [`Cache`]: a set-associative, write-back, write-allocate cache with LRU
//!   replacement (used for the L1 instruction cache, L1 data cache and the
//!   unified L2),
//! * [`DataMemory`]: the whole hierarchy — L1-I and L1-D over one unified L2
//!   over main memory, with a bounded number of outstanding L1-D misses
//!   (MSHRs); its module docs state the access rules,
//! * [`PortSet`]: the L1 data-cache ports, either *scalar* (one word per
//!   access) or *wide* (one full cache line per access, §3.7 of the paper),
//!   with the occupancy accounting behind Figure 12,
//! * [`WideBusStats`]: the useful-words-per-line accounting behind Figure 13.
//!
//! ```
//! use sdv_mem::{DataMemory, MemHierarchyConfig};
//!
//! let mut dmem = DataMemory::new(&MemHierarchyConfig::table1());
//! let first = dmem.access(0x8000, false, 0).expect("mshr available");
//! assert!(first > 1, "cold miss goes to memory");
//! let again = dmem.access(0x8000, false, first).expect("mshr available");
//! assert_eq!(again, first + 1, "second access hits in L1");
//! ```

pub mod cache;
pub mod hierarchy;
pub mod port;
pub mod stats;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{DataMemory, MemHierarchyConfig};
pub use port::{PortKind, PortSet, PortStats};
pub use stats::WideBusStats;
