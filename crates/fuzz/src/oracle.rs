//! The lockstep differential oracle.
//!
//! One generated program is executed on the architectural emulator (the
//! golden model) and on the out-of-order simulator at every requested
//! configuration, with the full checker complement armed and **no** fault
//! injected. Any observable disagreement is a finding:
//!
//! * stop-reason disagreement (halt vs crash vs hang, or crashes with
//!   different causes);
//! * output-stream, architectural-register or memory-state disagreement;
//! * commit-count disagreement (the OoO core must commit exactly the
//!   architectural instruction sequence);
//! * commit-trace (pc sequence) disagreement **between** simulator
//!   configurations — widths must not change architectural order;
//! * a checker detection on a clean run (checker false positive — the
//!   soundness half of the paper's "no false alarms" claim).

use crate::gen::MAX_DYNAMIC_STEPS;
use idld_campaign::injection_checkers;
use idld_isa::emu::{EmuFault, EmuResult, Emulator, StopReason};
use idld_isa::reg::NUM_ARCH_REGS;
use idld_isa::Program;
use idld_rrs::NoFaults;
use idld_sim::{CrashCause, SimConfig, SimStop};
use std::fmt;

/// Architectural step budget granted to the emulator. The generator's
/// dynamic-cost ledger guarantees termination well below this, so hitting
/// it is itself a finding (a generator invariant violation).
pub const EMU_STEP_BUDGET: u64 = 2 * MAX_DYNAMIC_STEPS;

/// One observable disagreement between the golden model and the OoO
/// simulator (or between simulator configurations).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DiffDivergence {
    /// The emulator did not terminate within [`EMU_STEP_BUDGET`]: the
    /// generator's termination guarantee was violated.
    EmuStepLimit,
    /// The simulator exhausted its cycle budget on a program the emulator
    /// finished.
    Hang {
        /// Pipeline width of the hanging configuration.
        width: usize,
        /// Cycle budget that was exhausted.
        budget: u64,
    },
    /// Emulator and simulator stopped for different reasons (includes
    /// crash-cause mismatches and RRS asserts on clean runs).
    StopMismatch {
        /// Pipeline width of the disagreeing configuration.
        width: usize,
        /// How the emulator stopped.
        emu: StopReason,
        /// How the simulator stopped.
        sim: SimStop,
    },
    /// The `Out` streams differ.
    OutputMismatch {
        /// Pipeline width of the disagreeing configuration.
        width: usize,
        /// Index of the first differing element (or the shorter length).
        index: usize,
    },
    /// The simulator committed a different number of instructions than the
    /// emulator architecturally executed.
    CommitCountMismatch {
        /// Pipeline width of the disagreeing configuration.
        width: usize,
        /// Architectural steps the emulator executed.
        emu_steps: u64,
        /// Instructions the simulator committed.
        committed: u64,
    },
    /// An architectural register differs after the run.
    RegMismatch {
        /// Pipeline width of the disagreeing configuration.
        width: usize,
        /// The logical register index.
        arch: usize,
        /// Emulator's final value.
        emu: u64,
        /// Simulator's final (retirement-RAT) value.
        sim: u64,
    },
    /// Data memory differs after the run.
    MemMismatch {
        /// Pipeline width of the disagreeing configuration.
        width: usize,
        /// Address of the first differing byte.
        addr: u64,
    },
    /// Two simulator configurations committed different pc sequences.
    TraceMismatch {
        /// Widths of the two disagreeing configurations.
        widths: (usize, usize),
        /// Index of the first differing commit (or the shorter length).
        index: usize,
    },
    /// A checker fired on a clean (fault-free) run.
    CheckerFalsePositive {
        /// Pipeline width of the configuration.
        width: usize,
        /// Which checker fired.
        checker: &'static str,
        /// Cycle of the (spurious) detection.
        cycle: u64,
    },
}

impl DiffDivergence {
    /// A stable short label for corpus metadata and finding triage.
    pub fn kind(&self) -> &'static str {
        match self {
            DiffDivergence::EmuStepLimit => "emu-step-limit",
            DiffDivergence::Hang { .. } => "hang",
            DiffDivergence::StopMismatch { .. } => "stop-mismatch",
            DiffDivergence::OutputMismatch { .. } => "output-mismatch",
            DiffDivergence::CommitCountMismatch { .. } => "commit-count-mismatch",
            DiffDivergence::RegMismatch { .. } => "reg-mismatch",
            DiffDivergence::MemMismatch { .. } => "mem-mismatch",
            DiffDivergence::TraceMismatch { .. } => "trace-mismatch",
            DiffDivergence::CheckerFalsePositive { .. } => "checker-false-positive",
        }
    }
}

impl fmt::Display for DiffDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffDivergence::EmuStepLimit => {
                write!(f, "emulator exceeded its step budget (generator bug)")
            }
            DiffDivergence::Hang { width, budget } => {
                write!(f, "width {width}: simulator hung past {budget} cycles")
            }
            DiffDivergence::StopMismatch { width, emu, sim } => {
                write!(f, "width {width}: emulator stopped {emu:?}, simulator {sim:?}")
            }
            DiffDivergence::OutputMismatch { width, index } => {
                write!(f, "width {width}: output streams differ at index {index}")
            }
            DiffDivergence::CommitCountMismatch {
                width,
                emu_steps,
                committed,
            } => write!(
                f,
                "width {width}: emulator executed {emu_steps} steps, simulator committed {committed}"
            ),
            DiffDivergence::RegMismatch {
                width,
                arch,
                emu,
                sim,
            } => write!(
                f,
                "width {width}: r{arch} = {emu:#x} (emulator) vs {sim:#x} (simulator)"
            ),
            DiffDivergence::MemMismatch { width, addr } => {
                write!(f, "width {width}: memory differs at address {addr:#x}")
            }
            DiffDivergence::TraceMismatch { widths, index } => write!(
                f,
                "widths {} and {}: commit pc sequences differ at commit {index}",
                widths.0, widths.1
            ),
            DiffDivergence::CheckerFalsePositive {
                width,
                checker,
                cycle,
            } => write!(
                f,
                "width {width}: checker '{checker}' fired on a clean run at cycle {cycle}"
            ),
        }
    }
}

/// The outcome of one differential iteration.
#[derive(Clone, Debug, Default)]
pub struct DiffOutcome {
    /// Every divergence observed, across all configurations.
    pub divergences: Vec<DiffDivergence>,
    /// Architectural steps of the golden run.
    pub emu_steps: u64,
}

impl DiffOutcome {
    /// True when the program agreed everywhere.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// True when the simulator stop reason is the architectural image of the
/// emulator's (same halt, or same crash cause).
fn stops_agree(emu: &StopReason, sim: &SimStop) -> bool {
    match (emu, sim) {
        (StopReason::Halted, SimStop::Halted) => true,
        (
            StopReason::Fault(EmuFault::Mem(m)),
            SimStop::Crash(CrashCause::MemFault { addr, width }),
        ) => m.addr == *addr && m.width == *width,
        (StopReason::Fault(EmuFault::InvalidPc(p)), SimStop::Crash(CrashCause::InvalidPc(q))) => {
            p == q
        }
        _ => false,
    }
}

/// Runs `program` on the emulator and on the simulator at each of `cfgs`,
/// collecting every divergence. `cfgs` must be non-empty; commit traces
/// are additionally cross-checked between configurations.
pub fn differential(program: &Program, cfgs: &[SimConfig]) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    let mut emu = Emulator::new(program);
    let golden: EmuResult = emu.run(EMU_STEP_BUDGET);
    out.emu_steps = golden.steps;
    if golden.stop == StopReason::StepLimit {
        out.divergences.push(DiffDivergence::EmuStepLimit);
        return out;
    }

    // The simulator budget scales with the architectural step count: even
    // a width-1 core with serial dependencies and cold predictors stays
    // far under 40 cycles per instruction on these programs.
    let budget = golden.steps.saturating_mul(40) + 50_000;
    let mut traces: Vec<(usize, Vec<u32>)> = Vec::new();

    for cfg in cfgs {
        let width = cfg.width();
        let mut checkers = injection_checkers(cfg);

        let mut sim = idld_sim::Simulator::new(program, *cfg);
        let res = sim.run(&mut NoFaults, &mut checkers, None, budget);

        if res.stop == SimStop::CycleLimit {
            out.divergences.push(DiffDivergence::Hang { width, budget });
            continue;
        }
        if !stops_agree(&golden.stop, &res.stop) {
            out.divergences.push(DiffDivergence::StopMismatch {
                width,
                emu: golden.stop,
                sim: res.stop,
            });
            continue;
        }

        // From here both models stopped at the same architectural point;
        // all architectural state must agree.
        if golden.output != res.output {
            let index = golden
                .output
                .iter()
                .zip(&res.output)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| golden.output.len().min(res.output.len()));
            out.divergences
                .push(DiffDivergence::OutputMismatch { width, index });
        }
        // The emulator counts a faulting memory access as a step; the
        // simulator does not commit it. An invalid pc faults at fetch,
        // before the emulator counts a step.
        let expect_committed = match golden.stop {
            StopReason::Fault(EmuFault::Mem(_)) => golden.steps - 1,
            _ => golden.steps,
        };
        if res.committed != expect_committed {
            out.divergences.push(DiffDivergence::CommitCountMismatch {
                width,
                emu_steps: golden.steps,
                committed: res.committed,
            });
        }
        for arch in 0..NUM_ARCH_REGS {
            let e = emu.reg(idld_isa::reg::r(arch));
            let s = sim.arch_reg(arch);
            if e != s {
                out.divergences.push(DiffDivergence::RegMismatch {
                    width,
                    arch,
                    emu: e,
                    sim: s,
                });
            }
        }
        if emu.mem() != sim.mem() {
            let a = emu.mem().read_image(0, emu.mem().size());
            let b = sim.mem().read_image(0, sim.mem().size());
            let addr = a
                .iter()
                .zip(b)
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| a.len().min(b.len())) as u64;
            out.divergences
                .push(DiffDivergence::MemMismatch { width, addr });
        }
        // IDLD must stay silent on every clean run. The BV and counter
        // baselines are only *applicable* without move/idiom elimination
        // (§V.E: eliminated writes create legitimate duplicates that those
        // schemes cannot distinguish from bugs), so their silence is only
        // required in elimination-free configurations.
        let baselines_apply = !cfg.rrs.move_elim && !cfg.rrs.idiom_elim;
        for (name, det) in checkers.detections() {
            if let Some(d) = det {
                if name == "idld" || baselines_apply {
                    out.divergences.push(DiffDivergence::CheckerFalsePositive {
                        width,
                        checker: name,
                        cycle: d.cycle,
                    });
                }
            }
        }
        traces.push((width, res.trace.pcs().collect()));
    }

    // Cross-width commit-order check: architectural order is width-
    // invariant, so every recorded trace must be identical.
    if let Some((w0, t0)) = traces.first() {
        for (wi, ti) in traces.iter().skip(1) {
            if ti != t0 {
                let index = t0
                    .iter()
                    .zip(ti)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| t0.len().min(ti.len()));
                out.divergences.push(DiffDivergence::TraceMismatch {
                    widths: (*w0, *wi),
                    index,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn default_configs_agree_on_a_generated_program() {
        let mut rng = SmallRng::seed_from_u64(7);
        let cfg = GenConfig::sample(&mut rng);
        let p = generate(&cfg, &mut rng);
        let cfgs = [SimConfig::with_width(2), SimConfig::with_width(4)];
        let out = differential(&p, &cfgs);
        assert!(out.clean(), "unexpected divergences: {:?}", out.divergences);
    }

    #[test]
    fn a_doctored_simulator_disagreement_is_reported() {
        // Sanity-check the oracle itself: a program whose output depends
        // on memory must produce identical streams; feed the oracle a
        // *different* program under the same name cannot happen through
        // the API, so instead check that stops_agree discriminates.
        use idld_isa::mem::MemFault;
        assert!(stops_agree(&StopReason::Halted, &SimStop::Halted));
        assert!(!stops_agree(
            &StopReason::Halted,
            &SimStop::Crash(CrashCause::InvalidPc(3))
        ));
        assert!(stops_agree(
            &StopReason::Fault(EmuFault::Mem(MemFault { addr: 9, width: 8 })),
            &SimStop::Crash(CrashCause::MemFault { addr: 9, width: 8 })
        ));
        assert!(!stops_agree(
            &StopReason::Fault(EmuFault::Mem(MemFault { addr: 9, width: 8 })),
            &SimStop::Crash(CrashCause::MemFault { addr: 8, width: 8 })
        ));
    }
}
