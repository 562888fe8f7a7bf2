//! # idld-sim — cycle-accurate out-of-order core simulator
//!
//! An out-of-order superscalar core model in the spirit of the gem5 O3
//! configuration used by the IDLD paper's bug-modeling study (§IV), built on
//! the `idld-rrs` register renaming substrate:
//!
//! * front end: fetch at rename width with a bimodal direction predictor and
//!   a small BTB for indirect-jump targets; wrong-path instructions are
//!   genuinely fetched, renamed and executed until the mispredict resolves;
//! * rename: the full RRS of the paper — merged register file, FL, RAT,
//!   ROB, RHT, checkpoints — with every Table-I control signal passing
//!   through the fault hook;
//! * backend: unified reservation-station window with oldest-first
//!   wakeup/select, conservative memory disambiguation with exact-match
//!   store-to-load forwarding, configurable functional-unit latencies;
//! * recovery: multi-cycle checkpoint-restore plus positive/negative RHT
//!   walks (driven inside the RRS), with fetch redirect on completion;
//! * retirement: in-order commit performing all architectural effects
//!   (memory writes, output appends, fault delivery), recording the commit
//!   trace that the campaign layer compares against a golden run.
//!
//! Checkers from `idld-core` attach as pure observers of the RRS event
//! stream plus per-cycle / pipeline-empty callbacks.
//!
//! ```
//! use idld_isa::{Asm, reg::r};
//! use idld_sim::{SimConfig, Simulator, SimStop};
//! use idld_core::CheckerSet;
//! use idld_rrs::NoFaults;
//!
//! let mut a = Asm::new();
//! a.li(r(1), 6).li(r(2), 7).mul(r(3), r(1), r(2)).out(r(3)).halt();
//! let program = a.finish();
//!
//! let mut sim = Simulator::new(&program, SimConfig::default());
//! let result = sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 10_000);
//! assert_eq!(result.stop, SimStop::Halted);
//! assert_eq!(result.output, vec![42]);
//! ```

pub mod config;
pub mod predictor;
pub mod result;
pub mod sim;
pub mod smt;
pub mod stats;
pub mod trace;

pub use config::SimConfig;
pub use result::{CrashCause, RunResult, SimStop};
pub use sim::{FfDivergence, SegmentedRun, SimSnapshot, Simulator};
pub use smt::{SmtRunResult, SmtSimulator};

pub use stats::SimStats;
pub use trace::{CommitTrace, Divergence, TraceMonitor};
