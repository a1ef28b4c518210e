//! Cycle-level out-of-order superscalar pipeline with speculative dynamic
//! vectorization.
//!
//! This crate is the timing model of the reproduction: a SimpleScalar-style,
//! execution-driven out-of-order core (fetch → decode/rename → issue →
//! execute/memory → commit) parameterised by [`UarchConfig`] (Table 1 of the
//! paper) and optionally extended with the dynamic-vectorization mechanism of
//! `sdv-core` plus a vector data path.
//!
//! The main entry points are [`Processor`] (stateful, lets you inspect the
//! architectural state afterwards) and the [`simulate`] convenience function.
//!
//! One knob, [`Model`], selects between the fast loop and its reference,
//! bit-identical by construction and pinned by property tests and the golden
//! counter sets.  The two share fetch, dispatch and commit and differ only in
//! issue scheduling and clock stepping: [`Model::Fast`] (the default) runs the
//! event-driven wakeup scheduler and jumps the clock over proven stall
//! windows; [`Model::Reference`] scans the whole window and ticks every
//! cycle.  See the `pipeline` module docs for the proof obligations behind
//! each part of the fast loop.
//!
//! ```
//! use sdv_isa::{ArchReg, Asm};
//! use sdv_mem::PortKind;
//! use sdv_uarch::{simulate, UarchConfig};
//!
//! // A tiny strided loop.
//! let mut a = Asm::new();
//! let xs = a.data_u64(&(0..128).collect::<Vec<u64>>());
//! let (p, s, v, n) = (ArchReg::int(1), ArchReg::int(2), ArchReg::int(3), ArchReg::int(4));
//! a.li(p, xs as i64);
//! a.li(s, 0);
//! a.li(n, 128);
//! a.label("l");
//! a.ld(v, p, 0);
//! a.add(s, s, v);
//! a.addi(p, p, 8);
//! a.addi(n, n, -1);
//! a.bne(n, ArchReg::ZERO, "l");
//! a.halt();
//! let program = a.finish();
//!
//! let baseline = simulate(&UarchConfig::four_way(1, PortKind::Wide), &program, 100_000);
//! let dv = simulate(
//!     &UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true),
//!     &program,
//!     100_000,
//! );
//! assert!(dv.committed_validations > 0, "the strided load was vectorized");
//! assert!(dv.memory_accesses <= baseline.memory_accesses);
//! ```

pub mod config;
pub mod fu;
pub mod pipeline;
pub mod rob;
pub mod seqset;
pub mod stats;
pub mod vector_dp;

pub use config::{ConfigBuilder, FuClassConfig, FuConfig, UarchConfig, DEFAULT_BUS_WORDS};
pub use fu::FuPool;
pub use pipeline::{simulate, Model, Processor};
// Re-exported so pipeline consumers can read the cycle-attribution ledger
// without a direct sdv-obs dependency.
pub use sdv_obs::{CycleBucket, CycleLedger};
pub use stats::RunStats;
pub use vector_dp::VectorDatapath;
