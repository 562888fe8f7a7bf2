//! Pre-decoded basic-block execution engine for the architectural emulator.
//!
//! The single-step interpreter pays a fetch (bounds-checked `Vec` read), a
//! 15-arm `Inst` match, per-operand `ArchReg` index resolution and a pc/step
//! writeback for *every* instruction. Once functional fast-forward made the
//! emulator the hot path of every forked run, that dispatch overhead — not
//! the architectural work — dominates campaign wall-clock, exactly the
//! regime gem5 hits when atomic fast-forwarding confines cycle accuracy to
//! a window.
//!
//! This module removes the per-instruction overhead the way dynamic binary
//! translators do, one level down from JIT: at program load the instruction
//! stream is partitioned into **basic blocks** (leaders at pc 0, at every
//! static branch/jump target, and at the fall-through after every control
//! instruction or halt), and each block is translated once into a flat,
//! branch-free array of `MicroOp`s with
//!
//! * register numbers pre-resolved to raw indices,
//! * memory operands pre-specialized by static access width
//!   (`Ld8`/`Ld4`/`Ld1`, `St8`/`St4`/`St1`), and
//! * the block's control instruction lifted into a `BlockEnd` terminator
//!   with its link value and static successors precomputed.
//!
//! Execution dispatches whole blocks from a cache keyed on entry pc
//! (`BlockEngine::lookup`), chaining directly from block to block for
//! every statically resolved successor — fall-through, `jal`, and both
//! `br` directions (two-exit chaining) — without returning to the cache. Within a block there is no fetch, no pc update and no step
//! check; pc and step count are reconstructed exactly at the terminator (or
//! at a faulting micro-op, whose position in the block determines them).
//!
//! The engine never executes a block whose full step count would overrun
//! the caller's budget; the driver in [`crate::emu`] falls back to the
//! single-step interpreter inside that final partial block (the exact-stop
//! hand-off of `run_to_step`), for indirect `jalr` targets that miss the
//! cache (including mid-block pcs), and for off-end pcs — so architectural
//! state, fault pcs and step counts are bit-identical to the single-step
//! interpreter at every observable point.

use crate::inst::{AluOp, BrCond, Inst};
use crate::program::Program;

/// Sentinel block id: "no pre-resolved successor" (indirect target,
/// off-range target, or off-end fall-through).
pub(crate) const NO_BLOCK: u32 = u32::MAX;

/// One pre-decoded, non-control instruction: operand registers resolved to
/// raw indices and memory widths baked into the variant.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MicroOp {
    /// `regs[rd] = op(regs[rs1], regs[rs2])`.
    Alu { op: AluOp, rd: u8, rs1: u8, rs2: u8 },
    /// `regs[rd] = op(regs[rs1], imm)`.
    AluI {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    /// `regs[rd] = imm`.
    Li { rd: u8, imm: i64 },
    /// 8-byte load.
    Ld8 { rd: u8, rs1: u8, imm: i64 },
    /// 4-byte zero-extending load.
    Ld4 { rd: u8, rs1: u8, imm: i64 },
    /// 1-byte zero-extending load.
    Ld1 { rd: u8, rs1: u8, imm: i64 },
    /// 8-byte store.
    St8 { rs1: u8, rs2: u8, imm: i64 },
    /// 4-byte store.
    St4 { rs1: u8, rs2: u8, imm: i64 },
    /// 1-byte store.
    St1 { rs1: u8, rs2: u8, imm: i64 },
    /// Output-stream append.
    Out { rs1: u8 },
    /// No operation (still a step).
    Nop,
}

/// How a block ends. Terminators that are themselves instructions (all but
/// `Fall`) count one step; link values and static successor pcs are
/// precomputed at translation time, successor *block ids* in a second
/// resolution pass once every block exists.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockEnd {
    /// Conditional branch: both successor pcs are statically known, so both
    /// edges carry pre-resolved block ids — the direction is decided at run
    /// time, but whichever way it goes the next block dispatches without a
    /// cache lookup (QEMU-style two-exit chaining; hot loops become
    /// block-to-itself dispatches).
    Br {
        cond: BrCond,
        rs1: u8,
        rs2: u8,
        taken_pc: usize,
        fall_pc: usize,
        taken_blk: u32,
        fall_blk: u32,
    },
    /// Direct jump with link: unconditional, chained.
    Jal {
        rd: u8,
        link: u64,
        target_pc: usize,
        target_blk: u32,
    },
    /// Indirect jump with link: target read from `regs[rs1] + imm` at run
    /// time, clamped like the single-step interpreter; never chained.
    Jalr {
        rd: u8,
        rs1: u8,
        imm: i64,
        link: u64,
    },
    /// Normal termination; pc stays at the halt instruction.
    Halt,
    /// Fall-through into the next leader (not an instruction, no step).
    /// `next_blk` is [`NO_BLOCK`] when the block runs off the end of the
    /// program; the next dispatch then misses the cache and the single-step
    /// interpreter raises the architectural `InvalidPc` fault.
    Fall { next_pc: usize, next_blk: u32 },
}

/// One translated basic block.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Entry pc (the leader).
    pub entry: usize,
    /// Pre-decoded non-control body, in program order.
    pub ops: Box<[MicroOp]>,
    /// Terminator.
    pub end: BlockEnd,
    /// Steps a full execution of this block retires: `ops.len()` plus one
    /// for every terminator except `Fall`.
    pub total_steps: u64,
}

/// Dispatch counters, cumulative over the engine's lifetime
/// ([`Emulator::block_stats`](crate::Emulator::block_stats)); the tests
/// read them to prove the engine actually dispatched blocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BlockStats {
    /// Blocks translated at program load.
    pub blocks_compiled: u64,
    /// Dispatches served by the entry-pc cache.
    pub block_hits: u64,
    /// Dispatches served by direct block-to-block chaining: any statically
    /// resolved successor edge (fall-through, `jal`, and either `br`
    /// direction) taken without returning to the entry-pc cache.
    pub chained_dispatches: u64,
    /// Steps retired inside fully-executed blocks (excludes single-step
    /// fallback steps).
    pub block_steps: u64,
}

impl BlockStats {
    /// Total whole-block dispatches.
    #[inline]
    pub fn dispatches(&self) -> u64 {
        self.block_hits + self.chained_dispatches
    }

    /// Mean steps retired per whole-block dispatch (`0.0` before the first
    /// dispatch) — the amortization factor of the per-dispatch overhead.
    pub fn steps_per_dispatch(&self) -> f64 {
        let d = self.dispatches();
        if d == 0 {
            0.0
        } else {
            self.block_steps as f64 / d as f64
        }
    }
}

/// The block cache of one program: every translated block plus a dense
/// entry-pc → block id index.
#[derive(Clone, Debug)]
pub(crate) struct BlockEngine {
    pub blocks: Vec<Block>,
    /// `by_pc[pc]` is the id of the block *entered* at `pc`, or
    /// [`NO_BLOCK`] for mid-block pcs.
    by_pc: Vec<u32>,
    pub stats: BlockStats,
}

impl BlockEngine {
    /// Translates `program` into basic blocks.
    pub fn compile(program: &Program) -> Self {
        let n = program.insts.len();
        // Leaders: pc 0, every static control target, every fall-through
        // after a control instruction or halt.
        let mut leader = vec![false; n];
        let mark = |leader: &mut Vec<bool>, pc: usize| {
            if pc < n {
                leader[pc] = true;
            }
        };
        mark(&mut leader, 0);
        for (pc, inst) in program.insts.iter().enumerate() {
            match *inst {
                Inst::Br { target, .. } | Inst::Jal { target, .. } => {
                    mark(&mut leader, target);
                    mark(&mut leader, pc + 1);
                }
                Inst::Jalr { .. } | Inst::Halt => mark(&mut leader, pc + 1),
                _ => {}
            }
        }

        let mut blocks = Vec::new();
        let mut by_pc = vec![NO_BLOCK; n];
        for entry in 0..n {
            if !leader[entry] {
                continue;
            }
            let mut ops = Vec::new();
            let mut pc = entry;
            let end = loop {
                match program.insts[pc] {
                    Inst::Br {
                        cond,
                        rs1,
                        rs2,
                        target,
                    } => {
                        break BlockEnd::Br {
                            cond,
                            rs1: rs1.index() as u8,
                            rs2: rs2.index() as u8,
                            taken_pc: target,
                            fall_pc: pc + 1,
                            taken_blk: NO_BLOCK,
                            fall_blk: NO_BLOCK,
                        }
                    }
                    Inst::Jal { rd, target } => {
                        break BlockEnd::Jal {
                            rd: rd.index() as u8,
                            link: (pc + 1) as u64,
                            target_pc: target,
                            target_blk: NO_BLOCK,
                        }
                    }
                    Inst::Jalr { rd, rs1, imm } => {
                        break BlockEnd::Jalr {
                            rd: rd.index() as u8,
                            rs1: rs1.index() as u8,
                            imm,
                            link: (pc + 1) as u64,
                        }
                    }
                    Inst::Halt => break BlockEnd::Halt,
                    inst => ops.push(micro_op(inst)),
                }
                pc += 1;
                if pc >= n || leader[pc] {
                    break BlockEnd::Fall {
                        next_pc: pc,
                        next_blk: NO_BLOCK,
                    };
                }
            };
            let total_steps = ops.len() as u64 + u64::from(!matches!(end, BlockEnd::Fall { .. }));
            by_pc[entry] = blocks.len() as u32;
            blocks.push(Block {
                entry,
                ops: ops.into_boxed_slice(),
                end,
                total_steps,
            });
        }

        // Second pass: resolve static successors to block ids for chaining.
        // Br/Jal targets in range are leaders by construction; an off-range
        // target or off-end fall-through stays NO_BLOCK and the next
        // dispatch falls back to the single-step interpreter (which raises
        // the architectural fault).
        let resolve = |pc: usize| by_pc.get(pc).copied().unwrap_or(NO_BLOCK);
        for b in &mut blocks {
            match &mut b.end {
                BlockEnd::Jal {
                    target_pc,
                    target_blk,
                    ..
                } => *target_blk = resolve(*target_pc),
                BlockEnd::Fall { next_pc, next_blk } => *next_blk = resolve(*next_pc),
                BlockEnd::Br {
                    taken_pc,
                    fall_pc,
                    taken_blk,
                    fall_blk,
                    ..
                } => {
                    *taken_blk = resolve(*taken_pc);
                    *fall_blk = resolve(*fall_pc);
                }
                _ => {}
            }
        }

        let stats = BlockStats {
            blocks_compiled: blocks.len() as u64,
            ..BlockStats::default()
        };
        BlockEngine {
            blocks,
            by_pc,
            stats,
        }
    }

    /// The block entered at `pc`, if `pc` is a block leader.
    #[inline]
    pub fn lookup(&self, pc: usize) -> Option<u32> {
        match self.by_pc.get(pc) {
            Some(&b) if b != NO_BLOCK => Some(b),
            _ => None,
        }
    }
}

/// Pre-decodes one non-control instruction.
fn micro_op(inst: Inst) -> MicroOp {
    let r = |r: crate::reg::ArchReg| r.index() as u8;
    match inst {
        Inst::Alu { op, rd, rs1, rs2 } => MicroOp::Alu {
            op,
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        },
        Inst::AluI { op, rd, rs1, imm } => MicroOp::AluI {
            op,
            rd: r(rd),
            rs1: r(rs1),
            imm,
        },
        Inst::Li { rd, imm } => MicroOp::Li { rd: r(rd), imm },
        Inst::Ld { rd, rs1, imm } => MicroOp::Ld8 {
            rd: r(rd),
            rs1: r(rs1),
            imm,
        },
        Inst::Ldw { rd, rs1, imm } => MicroOp::Ld4 {
            rd: r(rd),
            rs1: r(rs1),
            imm,
        },
        Inst::Ldb { rd, rs1, imm } => MicroOp::Ld1 {
            rd: r(rd),
            rs1: r(rs1),
            imm,
        },
        Inst::St { rs1, rs2, imm } => MicroOp::St8 {
            rs1: r(rs1),
            rs2: r(rs2),
            imm,
        },
        Inst::Stw { rs1, rs2, imm } => MicroOp::St4 {
            rs1: r(rs1),
            rs2: r(rs2),
            imm,
        },
        Inst::Stb { rs1, rs2, imm } => MicroOp::St1 {
            rs1: r(rs1),
            rs2: r(rs2),
            imm,
        },
        Inst::Out { rs1 } => MicroOp::Out { rs1: r(rs1) },
        Inst::Nop => MicroOp::Nop,
        Inst::Br { .. } | Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Halt => {
            unreachable!("control instructions terminate blocks")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::r;

    #[test]
    fn leaders_partition_the_stream() {
        // 0: li        <- leader (pc 0)
        // 1: li
        // 2: add       <- leader (branch target "loop")
        // 3: blt -> 2
        // 4: out       <- leader (fall-through after branch)
        // 5: halt
        let mut a = Asm::new();
        a.li(r(1), 0).li(r(2), 3);
        a.label("loop");
        a.add(r(1), r(1), r(2));
        a.blt(r(1), r(2), "loop");
        a.out(r(1)).halt();
        let engine = BlockEngine::compile(&a.finish());
        let entries: Vec<usize> = engine.blocks.iter().map(|b| b.entry).collect();
        assert_eq!(entries, vec![0, 2, 4]);
        assert_eq!(engine.stats.blocks_compiled, 3);
        // Block at 2 is `add; blt`: one op plus the branch terminator.
        let b = &engine.blocks[engine.lookup(2).unwrap() as usize];
        assert_eq!(b.ops.len(), 1);
        assert_eq!(b.total_steps, 2);
        assert!(matches!(
            b.end,
            BlockEnd::Br {
                taken_pc: 2,
                fall_pc: 4,
                ..
            }
        ));
        // Mid-block pcs are not in the cache.
        assert_eq!(engine.lookup(1), None);
        assert_eq!(engine.lookup(5), None);
    }

    #[test]
    fn fall_through_chains_and_off_end_does_not() {
        // A branch target mid-stream splits a straight-line run into two
        // blocks linked by a chained fall-through edge.
        let p = Program::from_insts(vec![
            Inst::Li { rd: r(1), imm: 1 }, // 0: leader (pc 0)
            Inst::Li { rd: r(2), imm: 2 }, // 1: leader (branch target)
            Inst::Br {
                cond: crate::inst::BrCond::Eq,
                rs1: r(1),
                rs2: r(2),
                target: 1,
            }, // 2
            Inst::Nop,                     // 3: leader; runs off the end (no trailing halt)
        ]);
        let engine = BlockEngine::compile(&p);
        let first = &engine.blocks[engine.lookup(0).unwrap() as usize];
        match first.end {
            BlockEnd::Fall { next_pc, next_blk } => {
                assert_eq!(next_pc, 1);
                assert_eq!(next_blk, engine.lookup(1).unwrap());
            }
            ref other => panic!("expected fall-through, got {other:?}"),
        }
        // The last block runs off the end: fall edge stays unresolved so
        // the dispatcher falls back to single-step and faults exactly there.
        let last = engine.blocks.last().unwrap();
        match last.end {
            BlockEnd::Fall { next_pc, next_blk } => {
                assert_eq!(next_pc, p.insts.len());
                assert_eq!(next_blk, NO_BLOCK);
            }
            ref other => panic!("expected off-end fall-through, got {other:?}"),
        }
    }

    #[test]
    fn jal_terminator_precomputes_link_and_chain() {
        let mut a = Asm::new();
        a.li(r(1), 7); // 0
        a.jal(r(2), "fn"); // 1
        a.halt(); // 2 (leader: fall-through after jal)
        a.label("fn");
        a.halt(); // 3 (leader: jal target)
        let engine = BlockEngine::compile(&a.finish());
        let b = &engine.blocks[engine.lookup(0).unwrap() as usize];
        match b.end {
            BlockEnd::Jal {
                link,
                target_pc,
                target_blk,
                ..
            } => {
                assert_eq!(link, 2, "link is the jal's pc + 1");
                assert_eq!(target_pc, 3);
                assert_eq!(target_blk, engine.lookup(3).unwrap());
            }
            ref other => panic!("expected jal terminator, got {other:?}"),
        }
        assert_eq!(b.total_steps, 2, "li plus the jal itself");
    }

    #[test]
    fn empty_program_compiles_to_no_blocks() {
        let engine = BlockEngine::compile(&Program::from_insts(vec![]));
        assert!(engine.blocks.is_empty());
        assert_eq!(engine.lookup(0), None);
    }
}
