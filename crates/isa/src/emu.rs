//! In-order architectural emulator — the golden reference model.
//!
//! [`execute`] is the in-order definition of the ISA: one instruction's
//! effect on operand values and data memory, with no register file and no
//! microarchitectural state. Two machines run on it: the [`Emulator`]
//! below, and the 2-thread SMT core (`idld_sim::SmtSimulator`), which
//! executes each instruction at rename. The out-of-order core does not:
//! its `Simulator::complete` is an independent implementation, so the
//! differential oracle that compares it with the emulator compares two
//! different codings of the ISA.
//!
//! The emulator executes programs with precise architectural semantics,
//! one instruction per [`Emulator::step`]. It serves three roles in the
//! reproduction:
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

/// The architectural effect of one instruction, as computed by [`execute`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Executed {
    /// The destination register and the value written to it, for every
    /// instruction with one ([`Inst::dest`]).
    pub dest: Option<(ArchReg, u64)>,
    /// The value appended to the output stream ([`Inst::Out`]).
    pub out: Option<u64>,
    /// The next program counter (`pc + 1` unless control transferred).
    pub next_pc: usize,
    /// The instruction was [`Inst::Halt`].
    pub halt: bool,
}

/// Executes `inst` at `pc`, reading its source registers through `reg` —
/// the in-order definition of the ISA. The one `match` decodes the
/// operands, reads exactly the sources [`Inst::sources`] names and names
/// the destination [`Inst::dest`] does, so a caller decodes nothing else.
/// A store writes `mem`; a load or store out of bounds returns its
/// [`MemFault`] and leaves `mem` unchanged. The register file is the
/// caller's: it writes [`Executed::dest`] after.
#[inline(always)]
pub fn execute(
    inst: Inst,
    pc: usize,
    reg: impl Fn(ArchReg) -> u64,
    mem: &mut Memory,
) -> Result<Executed, MemFault> {
    let mut ex = Executed {
        dest: None,
        out: None,
        next_pc: pc + 1,
        halt: false,
    };
    let addr = |base: ArchReg, imm: i64| reg(base).wrapping_add(imm as u64);
    match inst {
        Inst::Alu { op, rd, rs1, rs2 } => ex.dest = Some((rd, op.apply(reg(rs1), reg(rs2)))),
        Inst::AluI { op, rd, rs1, imm } => ex.dest = Some((rd, op.apply(reg(rs1), imm as u64))),
        Inst::Li { rd, imm } => ex.dest = Some((rd, imm as u64)),
        Inst::Ld { rd, rs1, imm } => ex.dest = Some((rd, mem.load(addr(rs1, imm), 8)?)),
        Inst::Ldw { rd, rs1, imm } => ex.dest = Some((rd, mem.load(addr(rs1, imm), 4)?)),
        Inst::Ldb { rd, rs1, imm } => ex.dest = Some((rd, mem.load(addr(rs1, imm), 1)?)),
        Inst::St { rs1, rs2, imm } => mem.store(addr(rs1, imm), 8, reg(rs2))?,
        Inst::Stw { rs1, rs2, imm } => mem.store(addr(rs1, imm), 4, reg(rs2))?,
        Inst::Stb { rs1, rs2, imm } => mem.store(addr(rs1, imm), 1, reg(rs2))?,
        Inst::Br {
            cond,
            rs1,
            rs2,
            target,
        } => {
            if cond.eval(reg(rs1), reg(rs2)) {
                ex.next_pc = target;
            }
        }
        Inst::Jal { rd, target } => {
            ex.dest = Some((rd, (pc + 1) as u64));
            ex.next_pc = target;
        }
        Inst::Jalr { rd, rs1, imm } => {
            // Targets beyond the address space clamp to `usize::MAX`
            // (always an invalid instruction index, so the *next* fetch
            // faults), matching the out-of-order model. Truncating the
            // target instead would, on 32-bit hosts, silently alias a
            // valid pc rather than fault.
            let target = addr(rs1, imm);
            ex.dest = Some((rd, (pc + 1) as u64));
            ex.next_pc = target.min(usize::MAX as u64) as usize;
        }
        Inst::Out { rs1 } => ex.out = Some(reg(rs1)),
        Inst::Halt => ex.halt = true,
        Inst::Nop => {}
    }
    Ok(ex)
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

    /// Executes a single instruction through [`execute`].
    pub fn step(&mut self) -> StepOutcome {
        let Some(inst) = self.program.fetch(self.pc) else {
            return StepOutcome::Fault(EmuFault::InvalidPc(self.pc));
        };
        self.steps += 1;
        let regs = &self.regs;
        let ex = match execute(inst, self.pc, |r| regs[r.index()], &mut self.mem) {
            Ok(ex) => ex,
            Err(e) => return StepOutcome::Fault(e.into()),
        };
        if let Some((rd, v)) = ex.dest {
            self.regs[rd.index()] = v;
        }
        if let Some(v) = ex.out {
            self.output.push(v);
        }
        if ex.halt {
            return StepOutcome::Halted;
        }
        self.pc = ex.next_pc;
        StepOutcome::Continue
    }

    /// Returns this emulator to power-on in place: pc 0, zeroed registers,
    /// no output, and memory back to the program image through
    /// [`Memory::reset_dirty`], so a rewind costs the pages written since
    /// and allocates nothing. A rewound emulator is indistinguishable
    /// from [`Emulator::new`] of the same program.
    pub fn rewind(&mut self) {
        self.regs = [0; NUM_ARCH_REGS];
        self.pc = 0;
        self.mem.reset_dirty(&self.program.image);
        self.output.clear();
        self.steps = 0;
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
    fn rewind_returns_to_power_on_in_place() {
        // Stores into the program's image and past it, plus output.
        let mut a = Asm::new();
        a.li(r(1), 0).li(r(2), 40).li(r(3), 4096);
        a.label("loop");
        a.add(r(4), r(3), r(1));
        a.st(r(1), r(4), 0);
        a.stb(r(1), r(1), 0);
        a.out(r(1));
        a.addi(r(1), r(1), 8);
        a.blt(r(1), r(2), "loop");
        a.halt();
        let mut p = a.finish();
        p.add_image(8, vec![0x5a; 32]);
        let same = |a: &Emulator, b: &Emulator| {
            (a.regs(), a.pc(), a.mem(), a.output(), a.steps())
                == (b.regs(), b.pc(), b.mem(), b.output(), b.steps())
        };
        let fresh = Emulator::new(&p);
        let mut emu = Emulator::new(&p);
        for target in [7, 30, 0, 12] {
            emu.run_to_step(target).expect("inside the program");
            let mut want = Emulator::new(&p);
            want.run_to_step(target).expect("inside the program");
            assert!(same(&emu, &want), "run to step {target}");
            emu.rewind();
            assert!(same(&emu, &fresh), "rewound after step {target}");
        }
        // A rewound emulator runs the whole program like a new one.
        assert_eq!(emu.run(1_000), Emulator::new(&p).run(1_000));
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
    fn execute_defines_each_instruction_class() {
        use crate::inst::{AluOp, BrCond};
        let (rd, rs1, rs2) = (r(1), r(2), r(3));
        let ex = |value: Option<u64>, out, next_pc, halt| Executed {
            dest: value.map(|v| (rd, v)),
            out,
            next_pc,
            halt,
        };
        // `execute` on operand values `src` in [`Inst::sources`] order,
        // checking that it reads only those sources and names exactly the
        // destination [`Inst::dest`] does.
        let run = |inst: Inst, src: [u64; 2], mem: &mut Memory| {
            let read = std::cell::RefCell::new(Vec::new());
            let got = execute(
                inst,
                4,
                |reg| {
                    read.borrow_mut().push(reg);
                    match inst.sources() {
                        [Some(a), _] if a == reg => src[0],
                        [_, Some(b)] if b == reg => src[1],
                        _ => panic!("{inst} read {reg}, not a source"),
                    }
                },
                mem,
            );
            if let Ok(ex) = got {
                assert_eq!(ex.dest.map(|d| d.0), inst.dest(), "{inst}");
            }
            got
        };
        let br = |cond| Inst::Br {
            cond,
            rs1,
            rs2,
            target: 9,
        };
        let wrap = 0x1_0000_0003u64;
        let table = [
            (
                Inst::Alu {
                    op: AluOp::Sub,
                    rd,
                    rs1,
                    rs2,
                },
                [10, 3],
                ex(Some(7), None, 5, false),
            ),
            (
                Inst::AluI {
                    op: AluOp::Add,
                    rd,
                    rs1,
                    imm: -1,
                },
                [10, 0],
                ex(Some(9), None, 5, false),
            ),
            (
                Inst::Li { rd, imm: -2 },
                [0, 0],
                ex(Some(-2i64 as u64), None, 5, false),
            ),
            (br(BrCond::Lt), [1, 2], ex(None, None, 9, false)),
            (br(BrCond::Lt), [2, 1], ex(None, None, 5, false)),
            (
                Inst::Jal { rd, target: 9 },
                [0, 0],
                ex(Some(5), None, 9, false),
            ),
            (
                Inst::Jalr { rd, rs1, imm: 2 },
                [10, 0],
                ex(Some(5), None, 12, false),
            ),
            (
                Inst::Jalr { rd, rs1, imm: 0 },
                [wrap, 0],
                ex(Some(5), None, wrap.min(usize::MAX as u64) as usize, false),
            ),
            (Inst::Out { rs1 }, [42, 0], ex(None, Some(42), 5, false)),
            (Inst::Halt, [0, 0], ex(None, None, 5, true)),
            (Inst::Nop, [0, 0], ex(None, None, 5, false)),
        ];
        let mut mem = Memory::new(64);
        for (inst, src, want) in table {
            assert_eq!(run(inst, src, &mut mem), Ok(want), "{inst}");
        }
        assert_eq!(mem, Memory::new(64), "no memory instruction ran");

        // A store writes memory; loads of each width read it back.
        let st = Inst::St { rs1, rs2, imm: 8 };
        let word = 0x1122_3344_5566_7788;
        assert_eq!(run(st, [0, word], &mut mem), Ok(ex(None, None, 5, false)));
        for (inst, want) in [
            (Inst::Ld { rd, rs1, imm: 8 }, word),
            (Inst::Ldw { rd, rs1, imm: 8 }, 0x5566_7788),
            (Inst::Ldb { rd, rs1, imm: 8 }, 0x88),
        ] {
            assert_eq!(
                run(inst, [0, 0], &mut mem),
                Ok(ex(Some(want), None, 5, false)),
                "{inst}"
            );
        }

        // Out-of-bounds accesses report their address and width and leave
        // memory unchanged.
        let before = mem.clone();
        let faults = [
            (Inst::Ld { rd, rs1, imm: 4 }, 56, 60, 8),
            (Inst::Ldb { rd, rs1, imm: 0 }, 64, 64, 1),
            (Inst::Stw { rs1, rs2, imm: 2 }, 60, 62, 4),
            (Inst::Stb { rs1, rs2, imm: 0 }, 1 << 40, 1 << 40, 1),
        ];
        for (inst, base, addr, width) in faults {
            assert_eq!(
                run(inst, [base, u64::MAX], &mut mem),
                Err(MemFault { addr, width }),
                "{inst}"
            );
            assert_eq!(mem, before, "{inst} left memory unchanged");
        }
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
