//! Speculative dynamic vectorization — the paper's contribution.
//!
//! This crate implements the hardware structures and decision logic that the
//! paper adds to an out-of-order superscalar processor (Figure 2, black and
//! grey boxes):
//!
//! * [`TableOfLoads`] (TL, Figure 4): per-static-load stride detection with a
//!   confidence counter; a load whose stride has repeated twice triggers
//!   vectorization.
//! * [`Vrmt`] (Vector Register Map Table, Figure 5): maps the PC of a
//!   vectorized instruction to its vector register, the next element to be
//!   validated, and the source operands it was vectorized with.
//! * [`VectorRegisterFile`] (Figure 8): 128 registers of 4 × 64-bit elements,
//!   each element carrying V/R/U/F flags, plus the per-register MRBB tag and
//!   address range used for store coherence (§3.6).
//! * [`VectorizationEngine`]: the decode-time decision logic (§3.2), the
//!   commit-time flag updates and register-freeing rules (§3.3), and the
//!   store coherence checks.
//!
//! The engine is deliberately independent of the pipeline model: `sdv-uarch`
//! drives it with decode/commit/store events and receives back what each
//! scalar instruction turned into (scalar execution, a validation, or a new
//! vector instance to launch on the vector data path).
//!
//! ```
//! use sdv_core::{DecodeContext, DecodeOutcome, DvConfig, VectorizationEngine};
//! use sdv_isa::{ArchReg, OpClass};
//!
//! let mut engine = VectorizationEngine::new(&DvConfig::default());
//! let dst = ArchReg::int(1);
//! // A load at PC 0x1000 walking an array with stride 8: once the stride has
//! // repeated twice (confidence 2) a vector instance is created.
//! let mut outcome = DecodeOutcome::Scalar;
//! for i in 0..4u64 {
//!     outcome = engine.decode(&DecodeContext::load(0x1000, dst, 0x8000 + i * 8, 8));
//! }
//! assert!(matches!(outcome, DecodeOutcome::NewVector { .. }));
//! // The next instance simply validates element 1 of the vector register.
//! let outcome = engine.decode(&DecodeContext::load(0x1000, dst, 0x8000 + 4 * 8, 8));
//! assert!(matches!(outcome, DecodeOutcome::Validation { offset: 1, .. }));
//! // A dependent add is vectorized transitively.
//! let add = DecodeContext::arith(0x1004, OpClass::IntAlu, ArchReg::int(2), [Some((dst, 0)), None]);
//! assert!(matches!(engine.decode(&add), DecodeOutcome::NewVector { .. }));
//! ```

pub mod config;
pub mod engine;
pub mod slotset;
pub mod stats;
pub mod tl;
pub mod vreg;
pub mod vrmt;

pub use config::DvConfig;
pub use engine::{
    DecodeContext, DecodeOutcome, NewVectorInstance, StoreCheck, VectorOpKind, VectorizationEngine,
};
pub use stats::DvStats;
pub use tl::{TableOfLoads, TlObservation};
pub use vreg::{
    assert_vector_length, ElementState, ElementUsage, VectorRegister, VectorRegisterFile, VregId,
    MAX_VECTOR_LENGTH,
};
pub use vrmt::{LoadPattern, Operand, Vrmt, VrmtEntry};
