//! Branch prediction for the SDV timing model.
//!
//! The paper's processor configurations (Table 1) use a **gshare** predictor
//! with 64 K entries.  This crate provides that predictor, a branch target
//! buffer for predicting targets of taken branches, and a small return-address
//! stack for call/return pairs.  All three are composed by
//! [`BranchPredictor`], the front-end component used by `sdv-uarch`.
//!
//! ```
//! use sdv_predictor::{BranchPredictor, PredictorConfig};
//!
//! let mut bp = BranchPredictor::new(&PredictorConfig::default());
//! // A loop branch at PC 0x1040 that is always taken towards 0x1000.  Once
//! // the 16-bit global history saturates with "taken" outcomes the gshare
//! // index becomes stable and the branch is predicted correctly.
//! for _ in 0..40 {
//!     let p = bp.predict_branch(0x1040);
//!     bp.update_branch(0x1040, true, 0x1000);
//!     let _ = p;
//! }
//! assert!(bp.predict_branch(0x1040).taken);
//! assert_eq!(bp.predict_branch(0x1040).target, Some(0x1000));
//! ```

pub mod btb;
pub mod gshare;
pub mod ras;

pub use btb::Btb;
pub use gshare::Gshare;
pub use ras::ReturnAddressStack;

/// Configuration of the composite branch predictor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PredictorConfig {
    /// Number of 2-bit counters in the gshare table (must be a power of two).
    pub gshare_entries: usize,
    /// Number of global-history bits used to index gshare.
    pub history_bits: u32,
    /// Number of sets in the BTB.
    pub btb_sets: usize,
    /// Associativity of the BTB.
    pub btb_ways: usize,
    /// Depth of the return-address stack.
    pub ras_depth: usize,
}

impl Default for PredictorConfig {
    /// The configuration used throughout the paper: gshare with 64 K entries.
    fn default() -> Self {
        PredictorConfig {
            gshare_entries: 64 * 1024,
            history_bits: 16,
            btb_sets: 512,
            btb_ways: 4,
            ras_depth: 16,
        }
    }
}

/// A prediction for one conditional branch or jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional transfers).
    pub taken: bool,
    /// Predicted target, if the BTB (or RAS) knows one.
    pub target: Option<u64>,
}

/// The composite front-end predictor: gshare direction + BTB target + RAS.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    gshare: Gshare,
    btb: Btb,
    ras: ReturnAddressStack,
}

impl BranchPredictor {
    /// Creates a predictor from a configuration.
    #[must_use]
    pub fn new(cfg: &PredictorConfig) -> Self {
        BranchPredictor {
            gshare: Gshare::new(cfg.gshare_entries, cfg.history_bits),
            btb: Btb::new(cfg.btb_sets, cfg.btb_ways),
            ras: ReturnAddressStack::new(cfg.ras_depth),
        }
    }

    /// Predicts a conditional branch at `pc`.
    pub fn predict_branch(&mut self, pc: u64) -> Prediction {
        let taken = self.gshare.predict(pc);
        let target = if taken { self.btb.lookup(pc) } else { None };
        Prediction { taken, target }
    }

    /// Predicts an unconditional direct or indirect jump at `pc`.
    pub fn predict_jump(&mut self, pc: u64) -> Prediction {
        Prediction {
            taken: true,
            target: self.btb.lookup(pc),
        }
    }

    /// Predicts the target of a return instruction.
    pub fn predict_return(&mut self, pc: u64) -> Prediction {
        let target = self.ras.pop().or_else(|| self.btb.lookup(pc));
        Prediction {
            taken: true,
            target,
        }
    }

    /// Records a call so the matching return can be predicted.
    pub fn push_return_address(&mut self, return_pc: u64) {
        self.ras.push(return_pc);
    }

    /// Updates the direction predictor and the BTB with the actual outcome of
    /// a conditional branch.
    pub fn update_branch(&mut self, pc: u64, taken: bool, target: u64) {
        self.gshare.update(pc, taken);
        if taken {
            self.btb.insert(pc, target);
        }
    }

    /// Updates the BTB with the actual target of a jump.
    pub fn update_jump(&mut self, pc: u64, target: u64) {
        self.btb.insert(pc, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_predictor_learns_a_loop() {
        let mut bp = BranchPredictor::new(&PredictorConfig::default());
        // The global history must saturate (16 taken outcomes) before the
        // gshare index for this branch becomes stable and trains up.
        for _ in 0..40 {
            bp.update_branch(0x1100, true, 0x1000);
        }
        let p = bp.predict_branch(0x1100);
        assert!(p.taken);
        assert_eq!(p.target, Some(0x1000));
    }

    #[test]
    fn not_taken_prediction_has_no_target() {
        let mut bp = BranchPredictor::new(&PredictorConfig::default());
        for _ in 0..10 {
            bp.update_branch(0x2000, false, 0x3000);
        }
        let p = bp.predict_branch(0x2000);
        assert!(!p.taken);
        assert_eq!(p.target, None);
    }

    #[test]
    fn returns_use_the_ras() {
        let mut bp = BranchPredictor::new(&PredictorConfig::default());
        bp.push_return_address(0x1234);
        bp.push_return_address(0x5678);
        assert_eq!(bp.predict_return(0x9000).target, Some(0x5678));
        assert_eq!(bp.predict_return(0x9000).target, Some(0x1234));
        // Empty RAS falls back to the BTB (which knows nothing here).
        assert_eq!(bp.predict_return(0x9000).target, None);
    }

    #[test]
    fn jumps_learn_targets() {
        let mut bp = BranchPredictor::new(&PredictorConfig::default());
        assert_eq!(bp.predict_jump(0x4000).target, None);
        bp.update_jump(0x4000, 0x8888);
        assert_eq!(bp.predict_jump(0x4000).target, Some(0x8888));
        assert!(bp.predict_jump(0x4000).taken);
    }
}
