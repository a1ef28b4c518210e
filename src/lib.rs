//! Umbrella crate for the *Speculative Dynamic Vectorization* reproduction
//! (Pajuelo, González, Valero — ISCA 2002).
//!
//! This crate simply re-exports the individual workspace crates so examples,
//! integration tests and downstream users can reach the whole stack through a
//! single dependency:
//!
//! * [`isa`] — the SDV instruction set and the embedded assembler.
//! * [`analyze`] — static analysis: CFG, dataflow, resource envelopes.
//! * [`emu`] — the functional emulator that produces dynamic instruction streams.
//! * [`mem`] — cache/memory-hierarchy timing models (scalar and wide buses).
//! * [`obs`] — observability: metrics registry, cycle-attribution ledger,
//!   Chrome-trace event tracer (see `docs/OBSERVABILITY.md`).
//! * [`predictor`] — branch prediction (gshare + BTB + RAS).
//! * [`core`] — the paper's contribution: the speculative dynamic
//!   vectorization engine (Table of Loads, VRMT, vector register file).
//! * [`uarch`] — the cycle-level out-of-order superscalar pipeline.
//! * [`workloads`] — synthetic SPEC95-analogue kernels.
//! * [`store`] — the concurrency-safe result cache (one CRC-framed data file
//!   per store directory; damage is a miss, the next write heals it).
//! * [`sim`] — experiment configurations, the run engine and figure generators.
//!
//! # Quickstart
//!
//! ```
//! use sdv::sim::{PortKind, UarchConfig};
//! use sdv::workloads::Workload;
//!
//! let program = Workload::Compress.build(1);
//! let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
//! let stats = sdv::uarch::simulate(&cfg, &program, 50_000);
//! assert!(stats.ipc() > 0.0);
//! assert!(stats.committed_validations > 0);
//! ```

pub use sdv_analyze as analyze;
pub use sdv_core as core;
pub use sdv_emu as emu;
pub use sdv_isa as isa;
pub use sdv_mem as mem;
pub use sdv_obs as obs;
pub use sdv_predictor as predictor;
pub use sdv_sim as sim;
pub use sdv_store as store;
pub use sdv_uarch as uarch;
pub use sdv_workloads as workloads;
