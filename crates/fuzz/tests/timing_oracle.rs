//! Seeded lower-bound oracle for the timing model.
//!
//! The functional model has the emulator as its oracle; the timing model
//! decides Benign vs Performance outcomes and needs one too. No exact
//! reference exists, but two lower bounds hold for any correct
//! out-of-order core of this configuration, whatever its scheduling:
//!
//! * **commit bandwidth** — at most `width` instructions retire per
//!   cycle, so `cycles >= ceil(committed / width)`;
//! * **register dataflow** — an instruction cannot complete before its
//!   source registers' producers complete plus its own latency, so
//!   `cycles` is at least the longest such chain through the dynamic
//!   instruction stream. The chain is computed by stepping the
//!   single-step emulator and applying the configured `lat_*` per
//!   [`InstKind`]. `Nop` and `Halt` retire without executing and add
//!   nothing; the ISA has no hardwired zero register, so every source
//!   is a true dependence.
//!
//! Every bug-free run of a generated halting program, at widths 1, 2, 4
//! and 8, must satisfy `cycles >= max(both bounds)`. A violation means
//! the core let an instruction finish early: a timing bug.

use idld_core::CheckerSet;
use idld_fuzz::{generate, iter_rng, GenConfig};
use idld_isa::emu::StepOutcome;
use idld_isa::reg::NUM_ARCH_REGS;
use idld_isa::{Emulator, Inst, InstKind, Program};
use idld_rrs::NoFaults;
use idld_sim::{SimConfig, SimStop, Simulator};

const SEED: u64 = 0x71_3170;
const MIN_PROGRAMS: usize = 210;
const MAX_ITERS: u64 = 2_000;
const MAX_STEPS: u64 = 200_000;
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// The register-dataflow critical path of `program`'s dynamic stream
/// under `cfg`'s latencies, plus the architectural step count; `None`
/// when the program does not halt within [`MAX_STEPS`].
fn critical_path(program: &Program, cfg: &SimConfig) -> Option<(u64, u64)> {
    let latency = |inst: &Inst| match inst.kind() {
        _ if matches!(inst, Inst::Nop | Inst::Halt) => 0,
        InstKind::Alu | InstKind::Out | InstKind::Halt => cfg.lat_alu,
        InstKind::MulDiv => cfg.lat_muldiv,
        InstKind::Load => cfg.lat_load,
        InstKind::Store => cfg.lat_store,
        InstKind::Branch | InstKind::Jump | InstKind::JumpInd => cfg.lat_branch,
    };
    let mut emu = Emulator::single_step(program);
    let mut ready = [0u64; NUM_ARCH_REGS];
    let mut path = 0;
    while emu.steps() < MAX_STEPS {
        let inst = program.fetch(emu.pc())?;
        let start = inst
            .sources()
            .iter()
            .flatten()
            .map(|r| ready[r.index()])
            .max()
            .unwrap_or(0);
        let done = start + latency(&inst);
        if let Some(rd) = inst.dest() {
            ready[rd.index()] = done;
        }
        path = path.max(done);
        match emu.step() {
            StepOutcome::Continue => {}
            StepOutcome::Halted => return Some((path, emu.steps())),
            StepOutcome::Fault(_) => return None,
        }
    }
    None
}

#[test]
fn bug_free_runs_respect_the_dataflow_and_commit_bounds() {
    let (mut programs, mut cases) = (0, 0);
    let mut min_slack = f64::INFINITY;
    for iter in 0..MAX_ITERS {
        if programs >= MIN_PROGRAMS {
            break;
        }
        let mut rng = iter_rng(SEED, iter);
        let gen_cfg = GenConfig::sample(&mut rng);
        let program = generate(&gen_cfg, &mut rng);
        if critical_path(&program, &SimConfig::default()).is_none() {
            continue;
        }
        programs += 1;
        for width in WIDTHS {
            let cfg = SimConfig::with_width(width);
            let (path, steps) = critical_path(&program, &cfg).expect("halted above");
            let mut sim = Simulator::new(&program, cfg);
            let res = sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 50 * MAX_STEPS);
            assert_eq!(res.stop, SimStop::Halted, "iter {iter} width {width}");
            assert_eq!(res.committed, steps, "iter {iter} width {width}: commits");
            let bound = path.max(res.committed.div_ceil(width as u64));
            assert!(
                res.cycles >= bound,
                "iter {iter} width {width}: {} cycles, below the lower bound {bound} \
                 (dataflow {path}, {} commits)",
                res.cycles,
                res.committed
            );
            min_slack = min_slack.min(res.cycles as f64 / bound as f64);
            cases += 1;
        }
    }
    assert!(
        programs >= MIN_PROGRAMS,
        "generator produced too few halting programs ({programs}/{MIN_PROGRAMS})"
    );
    eprintln!("{cases} program x width cases, minimum slack {min_slack:.3}");
}
