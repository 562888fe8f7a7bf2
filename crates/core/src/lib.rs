//! # idld-core — the IDLD checker and its baselines
//!
//! This crate implements the primary contribution of *IDLD: Instantaneous
//! Detection of Leakage and Duplication of Identifiers used for Register
//! Renaming* (MICRO 2022), plus the baseline schemes the paper compares
//! against:
//!
//! * [`idld::IdldChecker`] — the proposed scheme (paper §V). Three XOR
//!   registers (FLxor, RATxor, ROBxor) accumulate the extended encodings of
//!   every PdstID flowing through the FL/RAT/ROB ports; each non-recovery
//!   cycle the checker verifies `FLxor ^ RATxor ^ ROBxor` equals the
//!   constant XOR of all extended PdstIDs (the paper folds the constant and
//!   says "zero"). RATxor/ROBxor are checkpointed with each RAT checkpoint
//!   and restored on flush recovery (§V.C). The same checker watches the
//!   two contexts of the SMT renamer ([`IdldChecker::new_smt`]).
//! * [`bv::BitVectorChecker`] — the bit-vector alternative of §V.E
//!   (one free/allocated bit per physical register; detects duplication on
//!   double-free and leakage only at pipeline-empty count checks).
//! * [`counter::CounterChecker`] — the free-register counter alternative of
//!   §V.E (cannot see a combined duplication+leakage: `x + 1 - 1 == x`).
//!
//! All checkers are *pure observers* of the [`idld_rrs::RrsEvent`] port
//! stream — they get no privileged knowledge of injected bugs, exactly like
//! the hardware in the paper's Figure 6.
//!
//! ```
//! use idld_core::{Checker, IdldChecker};
//! use idld_rrs::{NoFaults, RenameRequest, Rrs, RrsConfig};
//!
//! let cfg = RrsConfig::default();
//! let mut rrs = Rrs::new(cfg);
//! let mut idld = IdldChecker::new(&cfg);
//!
//! // Rename one instruction writing r3; the invariance holds.
//! let req = RenameRequest { ldst: Some(3), srcs: [None, None], ..Default::default() };
//! rrs.rename_group(&[req], &mut NoFaults, &mut idld).unwrap();
//! idld.end_cycle(0);
//! assert!(idld.detection().is_none());
//! ```

pub mod bv;
pub mod checker;
pub mod counter;
pub mod idld;
pub mod parity;
#[cfg(test)]
pub(crate) mod testutil;

pub use bv::BitVectorChecker;
pub use checker::{AnyChecker, Checker, CheckerSet, Detection, DetectionKind};
pub use counter::CounterChecker;
pub use idld::IdldChecker;
pub use parity::ParityChecker;
