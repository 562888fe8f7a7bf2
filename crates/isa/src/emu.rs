//! In-order architectural emulator — the golden reference model.
//!
//! The emulator executes programs with precise architectural semantics and no
//! microarchitectural state. It serves two roles in the reproduction:
//!
//! 1. validating workloads against native Rust reference implementations, and
//! 2. cross-checking that the out-of-order simulator (with its full register
//!    renaming subsystem) is architecturally equivalent when no bug is
//!    injected.

use crate::block::{BlockEnd, BlockEngine, BlockStats, MicroOp, NO_BLOCK};
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

/// The architectural emulator. Create one per run with [`Emulator::new`]
/// (block-cached interpreter) or [`Emulator::single_step`] (the plain
/// per-instruction interpreter); the two are bit-identical at every
/// observable point — registers, memory, output, pc, step count and
/// fault — and differ only in throughput.
#[derive(Clone, Debug)]
pub struct Emulator {
    regs: [u64; NUM_ARCH_REGS],
    pc: usize,
    mem: Memory,
    output: Vec<u64>,
    steps: u64,
    program: Program,
    /// The pre-decoded basic-block engine (see [`crate::block`]), or
    /// `None` for the pure single-step interpreter.
    engine: Option<BlockEngine>,
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
    /// Creates an emulator with fresh memory built from the program image,
    /// pre-decoding the instruction stream into the basic-block engine.
    pub fn new(program: &Program) -> Self {
        Emulator {
            engine: Some(BlockEngine::compile(program)),
            ..Self::single_step(program)
        }
    }

    /// Creates a pure single-step emulator (no block cache): the reference
    /// interpreter the block engine is proven bit-identical against.
    pub fn single_step(program: &Program) -> Self {
        Emulator {
            regs: [0; NUM_ARCH_REGS],
            pc: 0,
            mem: program.build_memory(),
            output: Vec::new(),
            steps: 0,
            engine: None,
            program: program.clone(),
        }
    }

    /// True when this emulator dispatches through the block cache.
    #[inline]
    pub fn block_engine_enabled(&self) -> bool {
        self.engine.is_some()
    }

    /// Cumulative block-engine dispatch counters (all zero for a
    /// [`single_step`](Emulator::single_step) emulator).
    #[inline]
    pub fn block_stats(&self) -> BlockStats {
        self.engine.as_ref().map(|e| e.stats).unwrap_or_default()
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

    /// The block-cached dispatch loop: executes whole pre-decoded blocks
    /// while a full block fits within `max_steps`, chaining statically
    /// resolved successors directly, and falls back to [`Emulator::step`] for
    /// anything else — cache misses (indirect `jalr` targets, mid-block
    /// pcs, off-end pcs) and the final partial block when the budget (or
    /// an exact `run_to_step` target) stops mid-block. Stops exactly like
    /// the single-step loop: at `steps == max_steps`, at a halt, or at a
    /// fault — with identical architectural state at the stop point.
    fn run_blocks(&mut self, max_steps: u64) -> StopReason {
        let mut chain: u32 = NO_BLOCK;
        loop {
            if self.steps >= max_steps {
                return StopReason::StepLimit;
            }
            // Pick this dispatch's block — taken from the chain hint when
            // the previous block resolved its successor statically, from
            // the entry-pc cache otherwise — unless its full step count
            // would overrun the budget.
            let dispatch = {
                let engine = self.engine.as_ref().expect("block driver needs an engine");
                let (bid, chained) = if chain != NO_BLOCK {
                    (Some(chain), true)
                } else {
                    (engine.lookup(self.pc), false)
                };
                match bid {
                    Some(b) if self.steps + engine.blocks[b as usize].total_steps <= max_steps => {
                        Some((b, chained))
                    }
                    _ => None,
                }
            };
            let Some((bid, chained)) = dispatch else {
                // Single-step fallback; any chain hint is now stale.
                chain = NO_BLOCK;
                match self.step() {
                    StepOutcome::Continue => continue,
                    StepOutcome::Halted => return StopReason::Halted,
                    StepOutcome::Fault(f) => return StopReason::Fault(f),
                }
            };
            match self.exec_block(bid, chained) {
                BlockOutcome::Next(c) => chain = c,
                BlockOutcome::Halted => return StopReason::Halted,
                BlockOutcome::Fault(f) => return StopReason::Fault(f),
            }
        }
    }

    /// Executes one whole block: the branch-free micro-op body, then the
    /// terminator. pc and step count are written back once (or
    /// reconstructed exactly at a faulting micro-op from its position in
    /// the block). Returns the chained successor for statically resolved
    /// edges (fall-through, `jal`, and the taken `br` direction).
    fn exec_block(&mut self, bid: u32, chained: bool) -> BlockOutcome {
        let engine = self.engine.as_mut().expect("caller checked");
        if chained {
            engine.stats.chained_dispatches += 1;
        } else {
            engine.stats.block_hits += 1;
        }
        engine.stats.block_steps += engine.blocks[bid as usize].total_steps;
        let blk = &engine.blocks[bid as usize];
        let entry = blk.entry;
        // A micro-op at body index `i` faulted: the `i` preceding ops
        // retired (pc and steps advanced past them), the faulting
        // instruction counts its step but leaves pc at itself —
        // bit-identical to the single-step interpreter's fault state.
        // (A macro, not a method: `blk` keeps `self.engine` borrowed, so
        // only disjoint direct field accesses may touch `self` here.)
        macro_rules! body_fault {
            ($i:expr, $e:expr) => {{
                self.steps += $i as u64 + 1;
                self.pc = entry + $i;
                return BlockOutcome::Fault($e.into());
            }};
        }
        for (i, op) in blk.ops.iter().enumerate() {
            match *op {
                MicroOp::Alu { op, rd, rs1, rs2 } => {
                    self.regs[(rd & 31) as usize] = op.apply(
                        self.regs[(rs1 & 31) as usize],
                        self.regs[(rs2 & 31) as usize],
                    );
                }
                MicroOp::AluI { op, rd, rs1, imm } => {
                    self.regs[(rd & 31) as usize] =
                        op.apply(self.regs[(rs1 & 31) as usize], imm as u64);
                }
                MicroOp::Li { rd, imm } => self.regs[(rd & 31) as usize] = imm as u64,
                MicroOp::Ld8 { rd, rs1, imm } => {
                    let addr = self.regs[(rs1 & 31) as usize].wrapping_add(imm as u64);
                    match self.mem.load_w::<8>(addr) {
                        Ok(v) => self.regs[(rd & 31) as usize] = v,
                        Err(e) => body_fault!(i, e),
                    }
                }
                MicroOp::Ld4 { rd, rs1, imm } => {
                    let addr = self.regs[(rs1 & 31) as usize].wrapping_add(imm as u64);
                    match self.mem.load_w::<4>(addr) {
                        Ok(v) => self.regs[(rd & 31) as usize] = v,
                        Err(e) => body_fault!(i, e),
                    }
                }
                MicroOp::Ld1 { rd, rs1, imm } => {
                    let addr = self.regs[(rs1 & 31) as usize].wrapping_add(imm as u64);
                    match self.mem.load_w::<1>(addr) {
                        Ok(v) => self.regs[(rd & 31) as usize] = v,
                        Err(e) => body_fault!(i, e),
                    }
                }
                MicroOp::St8 { rs1, rs2, imm } => {
                    let addr = self.regs[(rs1 & 31) as usize].wrapping_add(imm as u64);
                    if let Err(e) = self.mem.store_w::<8>(addr, self.regs[(rs2 & 31) as usize]) {
                        body_fault!(i, e);
                    }
                }
                MicroOp::St4 { rs1, rs2, imm } => {
                    let addr = self.regs[(rs1 & 31) as usize].wrapping_add(imm as u64);
                    if let Err(e) = self.mem.store_w::<4>(addr, self.regs[(rs2 & 31) as usize]) {
                        body_fault!(i, e);
                    }
                }
                MicroOp::St1 { rs1, rs2, imm } => {
                    let addr = self.regs[(rs1 & 31) as usize].wrapping_add(imm as u64);
                    if let Err(e) = self.mem.store_w::<1>(addr, self.regs[(rs2 & 31) as usize]) {
                        body_fault!(i, e);
                    }
                }
                MicroOp::Out { rs1 } => self.output.push(self.regs[(rs1 & 31) as usize]),
                MicroOp::Nop => {}
            }
        }
        let body = blk.ops.len() as u64;
        match blk.end {
            BlockEnd::Br {
                cond,
                rs1,
                rs2,
                taken_pc,
                fall_pc,
                taken_blk,
                fall_blk,
            } => {
                self.steps += body + 1;
                let taken = cond.eval(
                    self.regs[(rs1 & 31) as usize],
                    self.regs[(rs2 & 31) as usize],
                );
                // Both edges are pre-resolved: whichever direction the
                // branch goes, the successor dispatches without a cache
                // lookup (a hot loop chains straight back to itself).
                let (pc, blk) = if taken {
                    (taken_pc, taken_blk)
                } else {
                    (fall_pc, fall_blk)
                };
                self.pc = pc;
                BlockOutcome::Next(blk)
            }
            BlockEnd::Jal {
                rd,
                link,
                target_pc,
                target_blk,
            } => {
                self.steps += body + 1;
                self.regs[(rd & 31) as usize] = link;
                self.pc = target_pc;
                BlockOutcome::Next(target_blk)
            }
            BlockEnd::Jalr { rd, rs1, imm, link } => {
                self.steps += body + 1;
                // Same operand order and clamp as the single-step
                // interpreter: the target reads rs1 *before* the link
                // write (rd may alias rs1).
                let target = self.regs[(rs1 & 31) as usize].wrapping_add(imm as u64);
                self.regs[(rd & 31) as usize] = link;
                self.pc = target.min(usize::MAX as u64) as usize;
                BlockOutcome::Next(NO_BLOCK)
            }
            BlockEnd::Halt => {
                // The halt retires as a step and leaves pc at itself,
                // exactly like the single-step interpreter's early return.
                self.steps += body + 1;
                self.pc = entry + blk.ops.len();
                BlockOutcome::Halted
            }
            BlockEnd::Fall { next_pc, next_blk } => {
                self.steps += body;
                self.pc = next_pc;
                BlockOutcome::Next(next_blk)
            }
        }
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
        if self.engine.is_some() {
            // The block driver stops at exactly `target` steps (it never
            // dispatches a block that would overrun it — the final partial
            // block single-steps), so StepLimit *is* the requested prefix.
            return match self.run_blocks(target) {
                StopReason::StepLimit => Ok(()),
                // A halt *as* the target-th instruction still reaches the
                // requested prefix; anything earlier cannot.
                StopReason::Halted if self.steps == target => Ok(()),
                StopReason::Halted => Err(StopReason::Halted),
                f @ StopReason::Fault(_) => Err(f),
            };
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
        let stop = if self.engine.is_some() {
            self.run_blocks(max_steps)
        } else {
            loop {
                if self.steps >= max_steps {
                    break StopReason::StepLimit;
                }
                match self.step() {
                    StepOutcome::Continue => {}
                    StepOutcome::Halted => break StopReason::Halted,
                    StepOutcome::Fault(f) => break StopReason::Fault(f),
                }
            }
        };
        EmuResult {
            stop,
            output: self.output.clone(),
            steps: self.steps,
        }
    }
}

/// The outcome of one whole-block execution.
enum BlockOutcome {
    /// Block completed; the successor block id for unconditional edges
    /// ([`NO_BLOCK`] = return to the entry-pc cache).
    Next(u32),
    /// The block's terminator was a halt.
    Halted,
    /// A micro-op faulted mid-block.
    Fault(EmuFault),
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

    /// The loop workload used by the block-boundary tests. Block structure:
    /// `[0..2)` li,li falls into leader 2; `[2..5)` addi,out,blt (3 steps,
    /// conditional terminator); `[5]` halt. 10 iterations: 2 + 30 steps,
    /// halt retires as step 33.
    fn boundary_program() -> crate::program::Program {
        let mut a = Asm::new();
        a.li(r(1), 0).li(r(2), 10);
        a.label("loop");
        a.addi(r(1), r(1), 1);
        a.out(r(1));
        a.blt(r(1), r(2), "loop");
        a.halt();
        a.finish()
    }

    /// Asserts every observable of the block-cached emulator equals the
    /// single-step emulator's at the same point.
    fn assert_state_eq(blocked: &Emulator, reference: &Emulator, what: &str) {
        assert_eq!(blocked.steps(), reference.steps(), "steps ({what})");
        assert_eq!(blocked.pc(), reference.pc(), "pc ({what})");
        assert_eq!(blocked.regs(), reference.regs(), "regs ({what})");
        assert_eq!(blocked.output(), reference.output(), "output ({what})");
        assert_eq!(blocked.mem(), reference.mem(), "memory ({what})");
    }

    #[test]
    fn run_to_step_stops_exactly_at_block_boundaries() {
        let p = boundary_program();
        // Targets land on a block leader (2), mid-block (4), and on the
        // halt instruction (33); each must reproduce the single-step
        // emulator's state bit for bit.
        for target in [2u64, 4, 33] {
            let mut blocked = Emulator::new(&p);
            let mut reference = Emulator::single_step(&p);
            assert!(blocked.block_engine_enabled());
            assert!(!reference.block_engine_enabled());
            assert_eq!(blocked.run_to_step(target), Ok(()), "target {target}");
            assert_eq!(reference.run_to_step(target), Ok(()), "target {target}");
            assert_state_eq(&blocked, &reference, &format!("target {target}"));
        }
        // Target on the leader: the whole previous block executed.
        let mut emu = Emulator::new(&p);
        assert_eq!(emu.run_to_step(2), Ok(()));
        assert_eq!(emu.pc(), 2, "stopped exactly at the loop leader");
        // Mid-block target: the final partial block single-steps.
        assert_eq!(emu.run_to_step(4), Ok(()));
        assert_eq!(emu.pc(), 4, "stopped inside the loop block");
        // On the halt: reaching the prefix *at* the halt is not an error...
        assert_eq!(emu.run_to_step(33), Ok(()));
        assert_eq!(emu.pc(), 5, "pc rests on the halt instruction");
        // ...and a target below the current step count still is.
        assert_eq!(emu.run_to_step(4), Err(StopReason::StepLimit));
        // Past the halt is unreachable.
        let mut emu = Emulator::new(&p);
        assert_eq!(emu.run_to_step(34), Err(StopReason::Halted));
        assert_eq!(emu.steps(), 33, "the halt still retired");
    }

    #[test]
    fn block_engine_matches_single_step_at_every_prefix() {
        let p = boundary_program();
        let total = Emulator::single_step(&p).run(1_000).steps;
        for target in 0..=total {
            let mut blocked = Emulator::new(&p);
            let mut reference = Emulator::single_step(&p);
            assert_eq!(
                blocked.run_to_step(target),
                reference.run_to_step(target),
                "target {target}"
            );
            assert_state_eq(&blocked, &reference, &format!("target {target}"));
        }
    }

    #[test]
    fn block_engine_matches_single_step_on_faults() {
        // A mid-block faulting load: the fault pc, step count and partial
        // register state must match the single-step interpreter exactly.
        let mut a = Asm::new();
        a.li(r(1), 1 << 40);
        a.li(r(2), 7);
        a.ld(r(3), r(1), 0); // faults mid-block
        a.out(r(2));
        a.halt();
        let p = a.finish();
        let mut blocked = Emulator::new(&p);
        let mut reference = Emulator::single_step(&p);
        let br = blocked.run(100);
        let rr = reference.run(100);
        assert_eq!(br, rr);
        assert_eq!(
            br.stop,
            StopReason::Fault(EmuFault::Mem(MemFault {
                addr: 1 << 40,
                width: 8
            }))
        );
        assert_state_eq(&blocked, &reference, "after fault");
        assert_eq!(blocked.pc(), 2, "pc rests on the faulting load");
    }

    #[test]
    fn block_stats_count_dispatches_and_chains() {
        let p = boundary_program();
        let mut emu = Emulator::new(&p);
        let res = emu.run(1_000);
        assert_eq!(res.stop, StopReason::Halted);
        let stats = emu.block_stats();
        assert_eq!(stats.blocks_compiled, 3);
        // Every edge is statically resolved, so only the very first
        // dispatch (the entry block) goes through the cache: the
        // fall-through into the loop, the 9 taken loop-backs, and the
        // not-taken exit into the halt block all chain directly.
        assert_eq!(stats.block_hits, 1, "{stats:?}");
        assert_eq!(stats.chained_dispatches, 11, "{stats:?}");
        assert_eq!(
            stats.block_steps, res.steps,
            "every step retired inside a block"
        );
        assert!(stats.steps_per_dispatch() > 1.0, "{stats:?}");
        // The single-step emulator reports all-zero stats.
        assert_eq!(
            Emulator::single_step(&p).block_stats(),
            crate::block::BlockStats::default()
        );
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
