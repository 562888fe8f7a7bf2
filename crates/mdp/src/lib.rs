//! # idld-mdp — the Store-Sets use case for IDLD (paper §V.F)
//!
//! The IDLD approach generalizes to any closed-loop resource manager. The
//! paper's second worked example is the Store-Sets memory dependence
//! predictor (Chrysos & Emer, ISCA 1998): every store *inserted* into the
//! Last Fetched Store Table (LFST) must eventually be *removed* — when its
//! address resolves, or when a same-set store instance overwrites the
//! entry. A dropped removal leaves a stale entry; a later load can then
//! "depend" on a store that has left the pipeline and **hang the machine**.
//!
//! This crate provides:
//!
//! * [`predictor::StoreSets`] — SSIT + LFST with violation training;
//! * [`checker::MdpIdld`] — the IDLD instance: insertion/removal XOR
//!   registers checked under three policies from the paper (counter
//!   reaches zero, store queue empty, or checkpointed for more frequent
//!   checks);
//! * [`driver::MdpPipeline`] — a small store/load pipeline driver with a
//!   removal-drop fault injector, used to demonstrate that IDLD flags the
//!   stale entry at the first check point while the architectural symptom
//!   (a hung load) may take unboundedly long or never appear;
//! * [`link::CreditLink`] — the broader-applicability demo: a credit-based
//!   NoC link whose flit loop is protected by an IDLD XOR pair and whose
//!   credit loop needs a conservation counter — complementary checkers for
//!   two different closed loops;
//! * [`usecase::UseCaseTable`] — the §V.F policy comparison: 40
//!   removal-drop injections checked under each policy.

pub mod checker;
pub mod driver;
pub mod link;
pub mod predictor;
pub mod usecase;

pub use checker::{CheckPolicy, MdpDetection, MdpIdld};
pub use driver::{DriverConfig, DriverOutcome, MdpPipeline};
pub use link::{CreditLink, LinkDetection};
pub use predictor::{StoreSets, StoreTag};
pub use usecase::UseCaseTable;
