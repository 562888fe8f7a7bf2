//! In-order architectural emulator — the golden reference model.
//!
//! The emulator executes programs with precise architectural semantics and no
//! microarchitectural state, one instruction per [`Emulator::step`]. It serves
//! three roles in the reproduction:
//!
//! 1. validating workloads against native Rust reference implementations,
//! 2. cross-checking that the out-of-order simulator (with its full register
//!    renaming subsystem) is architecturally equivalent when no bug is
//!    injected, and
//! 3. handing a fork its architectural image: a forked campaign run advances
//!    an emulator to the snapshot's commit count with
//!    [`Emulator::run_to_step`], and the simulator's bit-exactness gate
//!    (`Simulator::restore_from_arch`) takes its registers and memory only if
//!    they match the snapshot.

use crate::inst::Inst;
use crate::mem::{MemFault, Memory};
use crate::program::Program;
use crate::reg::{ArchReg, NUM_ARCH_REGS};
use std::fmt;

/// An architectural fault raised during emulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmuFault {
    /// A data memory access out of bounds.
    Mem(MemFault),
    /// Control transferred to an invalid instruction index.
    InvalidPc(usize),
}

impl fmt::Display for EmuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuFault::Mem(m) => write!(f, "{m}"),
            EmuFault::InvalidPc(pc) => write!(f, "invalid pc: {pc}"),
        }
    }
}

impl std::error::Error for EmuFault {}

impl From<MemFault> for EmuFault {
    fn from(m: MemFault) -> Self {
        EmuFault::Mem(m)
    }
}

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The program executed [`Inst::Halt`].
    Halted,
    /// An architectural fault occurred.
    Fault(EmuFault),
    /// The step budget given to [`Emulator::run`] was exhausted.
    StepLimit,
}

/// The architectural outcome of a run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EmuResult {
    /// Why execution stopped.
    pub stop: StopReason,
    /// Values emitted by [`Inst::Out`], in program order.
    pub output: Vec<u64>,
    /// Number of instructions executed (committed).
    pub steps: u64,
}

/// The architectural emulator: a plain per-instruction interpreter. Create
/// one per program with [`Emulator::new`]; it only runs forward, so a
/// campaign worker keeps one per golden run and advances it from fork to
/// fork.
#[derive(Clone, Debug)]
pub struct Emulator {
    regs: [u64; NUM_ARCH_REGS],
    pc: usize,
    mem: Memory,
    output: Vec<u64>,
    steps: u64,
    program: Program,
}

/// The result of a single architectural step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The instruction executed; execution continues.
    Continue,
    /// The instruction was `Halt`.
    Halted,
    /// The instruction faulted.
    Fault(EmuFault),
}

impl Emulator {
    /// Creates an emulator at power-on: pc 0, zeroed registers and fresh
    /// memory built from the program image.
    pub fn new(program: &Program) -> Self {
        Emulator {
            regs: [0; NUM_ARCH_REGS],
            pc: 0,
            mem: program.build_memory(),
            output: Vec::new(),
            steps: 0,
            program: program.clone(),
        }
    }

    /// Current program counter (instruction index).
    #[inline]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Reads an architectural register.
    #[inline]
    pub fn reg(&self, r: ArchReg) -> u64 {
        self.regs[r.index()]
    }

    /// The whole architectural register file, indexed by register number.
    /// The fast-forward hand-off gate compares this wholesale against the
    /// out-of-order model's retirement-RAT view.
    #[inline]
    pub fn regs(&self) -> &[u64; NUM_ARCH_REGS] {
        &self.regs
    }

    /// Writes an architectural register (for test setup).
    #[inline]
    pub fn set_reg(&mut self, r: ArchReg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// The data memory.
    #[inline]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// The output stream so far.
    #[inline]
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// Number of instructions executed so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Executes a single instruction.
    pub fn step(&mut self) -> StepOutcome {
        let Some(inst) = self.program.fetch(self.pc) else {
            return StepOutcome::Fault(EmuFault::InvalidPc(self.pc));
        };
        self.steps += 1;
        let mut next_pc = self.pc + 1;
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                self.regs[rd.index()] = op.apply(self.regs[rs1.index()], self.regs[rs2.index()]);
            }
            Inst::AluI { op, rd, rs1, imm } => {
                self.regs[rd.index()] = op.apply(self.regs[rs1.index()], imm as u64);
            }
            Inst::Li { rd, imm } => self.regs[rd.index()] = imm as u64,
            Inst::Ld { rd, rs1, imm } | Inst::Ldw { rd, rs1, imm } | Inst::Ldb { rd, rs1, imm } => {
                let width = inst.mem_width().expect("load has a width");
                let addr = self.regs[rs1.index()].wrapping_add(imm as u64);
                match self.mem.load(addr, width) {
                    Ok(v) => self.regs[rd.index()] = v,
                    Err(e) => return StepOutcome::Fault(e.into()),
                }
            }
            Inst::St { rs1, rs2, imm }
            | Inst::Stw { rs1, rs2, imm }
            | Inst::Stb { rs1, rs2, imm } => {
                let width = inst.mem_width().expect("store has a width");
                let addr = self.regs[rs1.index()].wrapping_add(imm as u64);
                if let Err(e) = self.mem.store(addr, width, self.regs[rs2.index()]) {
                    return StepOutcome::Fault(e.into());
                }
            }
            Inst::Br {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(self.regs[rs1.index()], self.regs[rs2.index()]) {
                    next_pc = target;
                }
            }
            Inst::Jal { rd, target } => {
                self.regs[rd.index()] = (self.pc + 1) as u64;
                next_pc = target;
            }
            Inst::Jalr { rd, rs1, imm } => {
                // Targets beyond the address space clamp to `usize::MAX`
                // (always an invalid instruction index, so the *next* fetch
                // faults), matching the out-of-order model. The previous
                // guard compared `target` against `usize::MAX` *after*
                // truncating it into `next_pc`, so it could never fire on
                // 64-bit hosts and on 32-bit hosts the truncated target
                // silently aliased a valid pc instead of faulting.
                let target = self.regs[rs1.index()].wrapping_add(imm as u64);
                self.regs[rd.index()] = (self.pc + 1) as u64;
                next_pc = target.min(usize::MAX as u64) as usize;
            }
            Inst::Out { rs1 } => self.output.push(self.regs[rs1.index()]),
            Inst::Halt => return StepOutcome::Halted,
            Inst::Nop => {}
        }
        self.pc = next_pc;
        StepOutcome::Continue
    }

    /// Advances execution until exactly `target` instructions have been
    /// executed. The architectural state afterwards (registers, memory, pc,
    /// output) is the hand-off image a cycle-accurate run fast-forwards
    /// from. `target` below the current step count, or a halt/fault before
    /// reaching it, is an error: the caller asked for a prefix this
    /// emulator cannot represent.
    ///
    /// Targets are monotone by construction in the campaign scheduler
    /// (jobs are processed in trigger order), so one emulator per workload
    /// replays the whole prefix once, incrementally.
    pub fn run_to_step(&mut self, target: u64) -> Result<(), StopReason> {
        if target < self.steps {
            return Err(StopReason::StepLimit);
        }
        while self.steps < target {
            match self.step() {
                StepOutcome::Continue => {}
                // A halt *as* the target-th instruction still reaches the
                // requested prefix; anything earlier cannot.
                StepOutcome::Halted if self.steps == target => break,
                StepOutcome::Halted => return Err(StopReason::Halted),
                StepOutcome::Fault(f) => return Err(StopReason::Fault(f)),
            }
        }
        Ok(())
    }

    /// Runs until halt, fault or `max_steps` executed instructions.
    pub fn run(&mut self, max_steps: u64) -> EmuResult {
        let stop = loop {
            if self.steps >= max_steps {
                break StopReason::StepLimit;
            }
            match self.step() {
                StepOutcome::Continue => {}
                StepOutcome::Halted => break StopReason::Halted,
                StepOutcome::Fault(f) => break StopReason::Fault(f),
            }
        };
        EmuResult {
            stop,
            output: self.output.clone(),
            steps: self.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::r;

    fn run(a: Asm, max: u64) -> EmuResult {
        Emulator::new(&a.finish()).run(max)
    }

    #[test]
    fn arithmetic_program() {
        let mut a = Asm::new();
        a.li(r(1), 10).li(r(2), 3);
        a.sub(r(3), r(1), r(2));
        a.mul(r(4), r(3), r(3));
        a.out(r(4)).halt();
        assert_eq!(run(a, 100).output, vec![49]);
    }

    #[test]
    fn loop_with_memory() {
        // Sum bytes 0..16 written then read back.
        let mut a = Asm::new();
        a.li(r(1), 0); // i
        a.li(r(2), 16);
        a.li(r(3), 64); // base
        a.label("w");
        a.add(r(4), r(3), r(1));
        a.stb(r(1), r(4), 0);
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "w");
        a.li(r(1), 0).li(r(5), 0);
        a.label("rd");
        a.add(r(4), r(3), r(1));
        a.ldb(r(6), r(4), 0);
        a.add(r(5), r(5), r(6));
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "rd");
        a.out(r(5)).halt();
        assert_eq!(run(a, 1000).output, vec![120]);
    }

    #[test]
    fn memory_fault_stops_run() {
        let mut a = Asm::new();
        a.li(r(1), 1 << 40);
        a.ld(r(2), r(1), 0);
        a.halt();
        let res = run(a, 100);
        match res.stop {
            StopReason::Fault(EmuFault::Mem(m)) => assert_eq!(m.addr, 1 << 40),
            other => panic!("expected memory fault, got {other:?}"),
        }
    }

    #[test]
    fn invalid_pc_faults() {
        let mut a = Asm::new();
        a.li(r(1), 1_000_000);
        a.jalr(r(2), r(1), 0);
        let res = run(a, 100);
        assert_eq!(res.stop, StopReason::Fault(EmuFault::InvalidPc(1_000_000)));
    }

    #[test]
    fn jalr_wrapping_target_faults_instead_of_aliasing() {
        // Minimized reproducer: results/fuzz/corpus/emu-jalr-wrap-target.asm.
        // A jalr target above the address space must clamp to `usize::MAX`
        // (so the next fetch faults at the clamped pc, as in the OoO model),
        // never truncate into a valid instruction index. The jalr itself
        // commits: its link register is architecturally written.
        let mut a = Asm::new();
        a.li(r(1), 0x1_0000_0003u64 as i64); // aliases pc 3 if truncated low
        a.jalr(r(3), r(1), 0);
        a.halt();
        a.out(r(1)); // pc 3: wrong-path alias target
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        let res = emu.run(100);
        let want = (0x1_0000_0003u64).min(usize::MAX as u64) as usize;
        assert_eq!(res.stop, StopReason::Fault(EmuFault::InvalidPc(want)));
        assert_eq!(res.output, Vec::<u64>::new(), "the alias path must not run");
        assert_eq!(res.steps, 2, "li and jalr both execute");
        assert_eq!(emu.reg(r(3)), 2, "jalr's link register is written");
    }

    #[test]
    fn run_to_step_replays_exact_prefixes() {
        let mut a = Asm::new();
        a.li(r(1), 0).li(r(2), 10);
        a.label("loop");
        a.addi(r(1), r(1), 1);
        a.out(r(1));
        a.blt(r(1), r(2), "loop");
        a.halt();
        let p = a.finish();
        let mut emu = Emulator::new(&p);
        assert_eq!(emu.run_to_step(8), Ok(()));
        assert_eq!(emu.steps(), 8);
        assert_eq!(emu.output(), [1, 2]);
        // Monotone continuation from where it stopped.
        assert_eq!(emu.run_to_step(11), Ok(()));
        assert_eq!(emu.output(), [1, 2, 3]);
        // Rewinding is an error (the emulator only runs forward).
        assert_eq!(emu.run_to_step(3), Err(StopReason::StepLimit));
        // Running past the halt is an error; *to* the halt is not.
        let total = Emulator::new(&p).run(1_000).steps;
        let mut emu = Emulator::new(&p);
        assert_eq!(emu.run_to_step(total), Ok(()));
        let mut emu = Emulator::new(&p);
        assert_eq!(emu.run_to_step(total + 1), Err(StopReason::Halted));
    }

    #[test]
    fn running_off_the_end_faults() {
        let mut a = Asm::new();
        a.nop();
        let res = run(a, 100);
        assert_eq!(res.stop, StopReason::Fault(EmuFault::InvalidPc(1)));
    }

    #[test]
    fn step_limit() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let res = run(a, 50);
        assert_eq!(res.stop, StopReason::StepLimit);
        assert_eq!(res.steps, 50);
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new();
        a.li(r(10), 5);
        a.jal(r(1), "double");
        a.out(r(10)).halt();
        a.label("double");
        a.add(r(10), r(10), r(10));
        a.jalr(r(2), r(1), 0);
        assert_eq!(run(a, 100).output, vec![10]);
    }

    #[test]
    fn run_to_step_stops_on_the_halt_and_refuses_rewinds() {
        // li,li then 10 iterations of addi,out,blt (2 + 30 steps); the halt
        // at pc 5 retires as step 33.
        let mut a = Asm::new();
        a.li(r(1), 0).li(r(2), 10);
        a.label("loop");
        a.addi(r(1), r(1), 1);
        a.out(r(1));
        a.blt(r(1), r(2), "loop");
        a.halt();
        let p = a.finish();
        let mut emu = Emulator::new(&p);
        assert_eq!(emu.run_to_step(2), Ok(()));
        assert_eq!(emu.pc(), 2, "stopped on the loop head");
        assert_eq!(emu.run_to_step(4), Ok(()));
        assert_eq!(emu.pc(), 4, "stopped inside the loop body");
        // Reaching the prefix *at* the halt is not an error...
        assert_eq!(emu.run_to_step(33), Ok(()));
        assert_eq!(emu.steps(), 33);
        assert_eq!(emu.pc(), 5, "pc rests on the halt instruction");
        // ...and a target below the current step count is.
        assert_eq!(emu.run_to_step(4), Err(StopReason::StepLimit));
        // Past the halt is unreachable, and the halt's step still counts.
        let mut emu = Emulator::new(&p);
        assert_eq!(emu.run_to_step(34), Err(StopReason::Halted));
        assert_eq!(emu.steps(), 33, "the halt still retired");
        assert_eq!(emu.pc(), 5);
    }

    #[test]
    fn faulting_load_counts_its_step_and_stops_on_itself() {
        let mut a = Asm::new();
        a.li(r(1), 1 << 40);
        a.li(r(2), 7);
        a.ld(r(3), r(1), 0); // faults
        a.out(r(2));
        a.halt();
        let p = a.finish();
        let mut emu = Emulator::new(&p);
        let res = emu.run(100);
        assert_eq!(
            res.stop,
            StopReason::Fault(EmuFault::Mem(MemFault {
                addr: 1 << 40,
                width: 8
            }))
        );
        assert_eq!(res.steps, 3, "the faulting load counts its step");
        assert_eq!(emu.pc(), 2, "pc rests on the faulting load");
        assert!(res.output.is_empty(), "no later out runs");
        assert_eq!(emu.reg(r(2)), 7);
        assert_eq!(emu.reg(r(3)), 0, "the load wrote nothing");
        // run_to_step reports the same fault at the same point.
        let mut emu = Emulator::new(&p);
        assert_eq!(emu.run_to_step(4), Err(res.stop));
        assert_eq!((emu.steps(), emu.pc()), (3, 2));
    }

    #[test]
    fn out_preserves_order() {
        let mut a = Asm::new();
        for v in [3i64, 1, 4, 1, 5] {
            a.li(r(1), v);
            a.out(r(1));
        }
        a.halt();
        assert_eq!(run(a, 100).output, vec![3, 1, 4, 1, 5]);
    }
}
