//! # idld-isa — Tiny-RISC ISA, assembler and architectural emulator
//!
//! This crate defines the instruction set executed by the out-of-order core
//! simulator (`idld-sim`) used to reproduce the IDLD paper (MICRO 2022).
//! The paper's bug-modeling study ran MiBench on gem5/x86-64; the study only
//! depends on how instructions *flow through register renaming*, not on the
//! ISA itself, so we substitute a small 64-bit load/store architecture that
//! is easy to emulate, assemble and reason about:
//!
//! * 32 general-purpose 64-bit logical registers (matching the paper's
//!   32-entry RAT),
//! * ALU register/immediate forms, 1/4/8-byte loads and stores,
//!   conditional branches, direct and indirect jumps with link,
//! * an [`Out`](inst::Inst::Out) instruction that appends a register value to
//!   the program's output stream — this makes Silent Data Corruption
//!   detection (paper §VI.C) a simple vector comparison,
//! * [`Halt`](inst::Inst::Halt) for normal termination.
//!
//! [`execute`] is the in-order definition of the ISA: what one instruction
//! does to its operand values and to data memory. The [`emu::Emulator`]
//! and the SMT core both run on it. The emulator is the *golden
//! architectural model*: a strictly in-order, one-instruction-per-step
//! interpreter with precise fault semantics. It validates workloads
//! against native Rust references, cross-checks the out-of-order
//! simulator's architectural results (the out-of-order core codes the ISA
//! a second time, independently, so the check compares two codings), and
//! hands every forked campaign run its architectural image: the run's
//! emulator advances to the snapshot's commit count, and the simulator
//! takes its registers and memory only through a bit-exactness gate.
//!
//! ```
//! use idld_isa::asm::Asm;
//! use idld_isa::emu::{Emulator, StopReason};
//! use idld_isa::reg::ArchReg;
//!
//! let mut a = Asm::new();
//! let (r1, r2) = (ArchReg::new(1), ArchReg::new(2));
//! a.li(r1, 6);
//! a.li(r2, 7);
//! a.mul(r1, r1, r2);
//! a.out(r1);
//! a.halt();
//! let program = a.finish();
//!
//! let mut emu = Emulator::new(&program);
//! let result = emu.run(1_000);
//! assert_eq!(result.stop, StopReason::Halted);
//! assert_eq!(result.output, vec![42]);
//! ```

pub mod asm;
pub mod emu;
pub mod inst;
pub mod mem;
pub mod parse;
pub mod program;
pub mod reg;

pub use asm::Asm;
pub use emu::{execute, EmuFault, EmuResult, Emulator, Executed, StopReason};
pub use inst::{AluOp, BrCond, Inst, InstKind};
pub use mem::{MemFault, Memory};
pub use parse::{disassemble, parse_asm, ParseError};
pub use program::Program;
pub use reg::ArchReg;
