//! The 2-way SMT core simulator: two architectural contexts over one
//! shared rename backend.
//!
//! Two hardware threads — each with a private program counter, data
//! memory, output stream and architectural register mapping — share one
//! free list, one physical register file and one rename/commit backend
//! ([`idld_rrs::SmtRrs`]). The pipeline is in-order past rename (no
//! wrong-path speculation): operands are read at rename, the instruction
//! executes there through [`idld_isa::execute`] (the emulator's
//! semantics), results are written to the shared PRF immediately, and
//! instructions retire from their thread's private ROB partition after a
//! per-kind execution latency. This is the organization in which a leaked or duplicated
//! PdstID crosses the thread boundary: a corrupted shared-FL transfer or
//! a mis-steered thread-select mux makes one thread's value
//! architecturally visible to the other.
//!
//! Thread select is deterministic round-robin with stall skip: cycle `c`
//! prefers thread `c mod 2` for fetch/rename; if that thread cannot
//! advance (halted, crashed, or out of rename resources) the other
//! thread takes the slot. Commit drains both threads every cycle, thread
//! 0 first. Every scheduling decision is a pure function of simulator
//! state, so runs are bit-for-bit reproducible.

use crate::config::SimConfig;
use crate::result::{CrashCause, SimStop};
use crate::stats::SimStats;
use crate::trace::{
    finish_checks, observe_commit, record_cycle_probes, CommitTrace, Divergence, TraceMonitor,
};
use idld_core::CheckerSet;
use idld_isa::{execute, ArchReg, InstKind, Memory, Program};
use idld_obs::{NullRecorder, ObsEvent, Recorder};
use idld_rrs::{ContentSnapshot, FaultHook, PhysReg, RrsAssert, SmtRrs, NUM_THREADS};
use std::collections::VecDeque;

/// Bit position used to tag commit-trace program counters with the
/// committing hardware thread (both threads start at pc 0, so untagged
/// pcs would collide). Programs are bounded far below `2^30`
/// instructions.
const TRACE_THREAD_BIT: usize = 30;

/// One in-flight (renamed, not yet retired) instruction of one thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Pending {
    /// Static program counter, for the commit trace.
    pc: u32,
    /// Global rename sequence number.
    seq: u64,
    /// Cycle the execution latency elapses; committable from then on.
    done: u64,
    /// Value appended to the thread's output stream at commit (`Out`).
    out_val: Option<u64>,
    /// Committing this entry architecturally halts the thread.
    is_halt: bool,
}

/// The private state of one hardware thread.
#[derive(Clone, PartialEq, Debug)]
struct ThreadCtx {
    /// Next fetch pc.
    pc: usize,
    /// No further instructions enter the pipeline (halt renamed or a
    /// fault is pending delivery).
    fetch_stopped: bool,
    /// The halt retired; the context is architecturally finished.
    halted: bool,
    /// An architectural fault awaiting in-order delivery once the
    /// thread's older instructions have retired.
    crash: Option<CrashCause>,
    /// Private data memory.
    mem: Memory,
    /// Private output stream.
    output: Vec<u64>,
    /// Instructions committed by this thread.
    committed: u64,
    /// In-flight instructions, in program order.
    pending: VecDeque<Pending>,
}

impl ThreadCtx {
    fn new(program: &Program) -> Self {
        ThreadCtx {
            pc: 0,
            fetch_stopped: false,
            halted: false,
            crash: None,
            mem: program.build_memory(),
            output: Vec::new(),
            committed: 0,
            pending: VecDeque::new(),
        }
    }

    /// True while the thread still wants frontend slots.
    fn wants_fetch(&self) -> bool {
        !self.fetch_stopped
    }
}

/// The complete outcome of one SMT run.
#[derive(Clone, PartialEq, Debug)]
pub struct SmtRunResult {
    /// Why the run stopped.
    pub stop: SimStop,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions committed across both threads.
    pub committed: u64,
    /// Per-thread output streams.
    pub outputs: [Vec<u64>; NUM_THREADS],
    /// The recorded commit trace (thread-tagged pcs) — populated only
    /// when no golden trace was supplied (this *is* a golden run).
    pub trace: CommitTrace,
    /// First divergences from the golden trace, when one was supplied.
    pub divergence: Divergence,
    /// Census of PdstID locations at the end of the run.
    pub final_contents: ContentSnapshot,
    /// Microarchitectural statistics.
    pub stats: SimStats,
}

impl SmtRunResult {
    /// True if the run halted with both threads' outputs equal to their
    /// single-thread architectural references.
    pub fn outputs_match(&self, golden: [&[u64]; NUM_THREADS]) -> bool {
        self.stop == SimStop::Halted && (0..NUM_THREADS).all(|t| self.outputs[t] == golden[t])
    }
}

/// Reads physical register `idx` of the shared PRF. A value-corrupted
/// PdstID can point outside the PRF; reads of such ids return 0 rather
/// than tearing down the simulation (the checkers flag the corruption,
/// the campaign classifies the architectural damage).
#[inline]
fn prf_read(prf: &[u64], idx: usize) -> u64 {
    prf.get(idx).copied().unwrap_or(0)
}

/// The 2-way SMT simulator. See the module docs for the machine model.
pub struct SmtSimulator<'p> {
    programs: [&'p Program; NUM_THREADS],
    cfg: SimConfig,
    smt: SmtRrs,
    /// Shared physical register file (values).
    prf: Vec<u64>,
    ctx: [ThreadCtx; NUM_THREADS],
    cycle: u64,
    seq: u64,
    committed: u64,
    /// Last thread granted the frontend, for change-only
    /// [`ObsEvent::ThreadSwitch`] markers.
    last_thread: Option<u8>,
    stats: SimStats,
    /// Reused [`SmtRrs::rename_group`] output buffer.
    alloc_buf: Vec<Option<PhysReg>>,
}

impl<'p> SmtSimulator<'p> {
    /// Creates a 2-thread simulator over `programs` at configuration
    /// `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when the rename configuration cannot host two contexts
    /// (see [`SmtRrs::new`]).
    pub fn new(programs: [&'p Program; NUM_THREADS], cfg: SimConfig) -> Self {
        let smt = SmtRrs::new(cfg.rrs);
        SmtSimulator {
            programs,
            prf: vec![0; cfg.rrs.num_phys],
            ctx: [ThreadCtx::new(programs[0]), ThreadCtx::new(programs[1])],
            cycle: 0,
            seq: 0,
            committed: 0,
            last_thread: None,
            stats: SimStats::default(),
            alloc_buf: Vec::with_capacity(1),
            smt,
            cfg,
        }
    }

    /// Current cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total committed instructions.
    #[inline]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The shared rename subsystem.
    #[inline]
    pub fn smt(&self) -> &SmtRrs {
        &self.smt
    }

    /// Thread `t`'s architectural value of logical register `arch`
    /// (through its RAT into the shared PRF).
    pub fn arch_reg(&self, t: usize, arch: usize) -> u64 {
        prf_read(&self.prf, self.smt.rat_lookup(t, arch).index())
    }

    /// Thread `t`'s private data memory.
    pub fn mem(&self, t: usize) -> &Memory {
        &self.ctx[t].mem
    }

    /// Thread `t`'s output stream so far.
    pub fn output(&self, t: usize) -> &[u64] {
        &self.ctx[t].output
    }

    /// Thread `t`'s next fetch pc.
    pub fn pc(&self, t: usize) -> usize {
        self.ctx[t].pc
    }

    #[inline]
    fn prf_write(&mut self, idx: usize, v: u64) {
        if let Some(slot) = self.prf.get_mut(idx) {
            *slot = v;
        }
    }

    /// Runs to completion (halt of both threads / crash / assert) or
    /// `max_cycles`.
    pub fn run(
        &mut self,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        golden: Option<&CommitTrace>,
        max_cycles: u64,
    ) -> SmtRunResult {
        self.run_observed(hook, checkers, golden, max_cycles, &mut NullRecorder)
    }

    /// [`SmtSimulator::run`] with an event recorder attached.
    pub fn run_observed(
        &mut self,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        golden: Option<&CommitTrace>,
        max_cycles: u64,
        recorder: &mut impl Recorder,
    ) -> SmtRunResult {
        let mut trace = CommitTrace::new();
        let mut monitor = golden.map(TraceMonitor::new);
        let record = golden.is_none();
        let mut stop = SimStop::CycleLimit;
        while self.cycle < max_cycles {
            hook.begin_cycle(self.cycle);
            let ended = match self.frontend(hook, checkers, recorder) {
                Err(a) => Some(SimStop::Assert(a)),
                Ok(()) => self.commit(hook, checkers, &mut trace, &mut monitor, record, recorder),
            };
            self.end_cycle(hook, checkers, recorder);
            if let Some(ended) = ended {
                stop = ended;
                break;
            }
        }
        let divergence = finish_checks(stop, self.cycle, monitor, checkers);
        self.stats.cycles = self.cycle;
        SmtRunResult {
            stop,
            cycles: self.cycle,
            committed: self.committed,
            outputs: [
                std::mem::take(&mut self.ctx[0].output),
                std::mem::take(&mut self.ctx[1].output),
            ],
            trace,
            divergence,
            final_contents: self.smt.contents(),
            stats: self.stats,
        }
    }

    /// Fetch/rename/execute for the thread winning this cycle's slot.
    fn frontend(
        &mut self,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        recorder: &mut impl Recorder,
    ) -> Result<(), RrsAssert> {
        let preferred = (self.cycle % NUM_THREADS as u64) as usize;
        let mut renamed_any = false;
        for cand in [preferred, 1 - preferred] {
            if !self.ctx[cand].wants_fetch() {
                continue;
            }
            let n = self.rename_thread(cand, hook, checkers, recorder)?;
            if n > 0 {
                renamed_any = true;
                if self.last_thread != Some(cand as u8) {
                    self.last_thread = Some(cand as u8);
                    recorder.record(self.cycle, ObsEvent::ThreadSwitch { t: cand as u8 });
                }
                break; // One thread owns the frontend per cycle.
            }
        }
        if !renamed_any && self.ctx.iter().any(|c| c.wants_fetch()) {
            self.stats.frontend_stalls += 1;
        }
        Ok(())
    }

    /// Renames up to `width` instructions of thread `t` this cycle;
    /// returns how many entered the pipeline.
    fn rename_thread(
        &mut self,
        t: usize,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        recorder: &mut impl Recorder,
    ) -> Result<usize, RrsAssert> {
        let mut renamed = 0;
        for _ in 0..self.cfg.width() {
            if self.ctx[t].fetch_stopped {
                break;
            }
            let pc = self.ctx[t].pc;
            let Some(inst) = self.programs[t].fetch(pc) else {
                self.ctx[t].fetch_stopped = true;
                self.ctx[t].crash = Some(CrashCause::InvalidPc(pc));
                break;
            };
            let dest = inst.dest();
            if !self.smt.can_rename(t, usize::from(dest.is_some()), 1) {
                break;
            }
            recorder.record(self.cycle, ObsEvent::Fetch { pc: pc as u32 });
            // Operand read through the RAT *before* this instruction's
            // rename updates it (register read-after-write semantics).
            let (smt, prf) = (&self.smt, &self.prf[..]);
            let reg = |r: ArchReg| prf_read(prf, smt.rat_lookup(t, r.index()).index());
            // Architectural execution at rename, in program order.
            let ex = match execute(inst, pc, reg, &mut self.ctx[t].mem) {
                Ok(ex) => ex,
                Err(e) => {
                    self.ctx[t].fetch_stopped = true;
                    self.ctx[t].crash = Some(CrashCause::MemFault {
                        addr: e.addr,
                        width: e.width,
                    });
                    break;
                }
            };
            match inst.kind() {
                InstKind::Load => self.stats.loads += 1,
                InstKind::Store => self.stats.stores += 1,
                InstKind::Branch => self.stats.branches += 1,
                _ => {}
            }
            if ex.halt {
                self.ctx[t].fetch_stopped = true;
            }
            // Rename: one-instruction group, so the thread-select mux is
            // consulted (and corruptible) per renamed instruction.
            self.smt.rename_group(
                t,
                &[dest.map(|r| r.index())],
                &mut self.alloc_buf,
                hook,
                checkers,
            )?;
            let pdst = self.alloc_buf[0];
            if let (Some((_, v)), Some(p)) = (ex.dest, pdst) {
                self.prf_write(p.index(), v);
            }
            let seq = self.seq;
            self.seq += 1;
            self.stats.renamed += 1;
            self.stats.issued += 1;
            recorder.record(
                self.cycle,
                ObsEvent::Rename {
                    pc: pc as u32,
                    seq,
                    pdst: pdst.map(|p| p.0),
                    eliminated: false,
                },
            );
            self.ctx[t].pending.push_back(Pending {
                pc: pc as u32,
                seq,
                done: self.cycle + self.cfg.latency(inst.kind()),
                out_val: ex.out,
                is_halt: ex.halt,
            });
            self.ctx[t].pc = ex.next_pc;
            renamed += 1;
            // The frontend cannot fetch past a control redirect (or the
            // halt) in the same cycle.
            if inst.is_control() || ex.halt {
                break;
            }
        }
        Ok(renamed)
    }

    /// Per-thread in-order commit of latency-elapsed entries, thread 0
    /// first; returns the run's stop, if this cycle ended it.
    fn commit(
        &mut self,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        trace: &mut CommitTrace,
        monitor: &mut Option<TraceMonitor<'_>>,
        record: bool,
        recorder: &mut impl Recorder,
    ) -> Option<SimStop> {
        for t in 0..NUM_THREADS {
            for _ in 0..self.cfg.width() {
                let Some(front) = self.ctx[t].pending.front() else {
                    break;
                };
                if front.done > self.cycle {
                    break;
                }
                let entry = self.ctx[t].pending.pop_front().expect("front exists");
                if let Err(a) = self.smt.commit_head(t, hook, checkers) {
                    return Some(SimStop::Assert(a));
                }
                if let Some(v) = entry.out_val {
                    self.ctx[t].output.push(v);
                }
                if entry.is_halt {
                    self.ctx[t].halted = true;
                }
                self.ctx[t].committed += 1;
                self.committed += 1;
                self.stats.committed += 1;
                let tagged = entry.pc as usize | (t << TRACE_THREAD_BIT);
                observe_commit(
                    self.cycle, tagged, entry.seq, trace, monitor, record, recorder,
                );
            }
        }
        // In-order delivery of pending architectural faults: once the
        // faulting thread's older instructions have all retired, the crash
        // stops the run (thread 0 checked first — deterministic).
        for c in &self.ctx {
            if let Some(cause) = c.crash.filter(|_| c.pending.is_empty()) {
                return Some(SimStop::Crash(cause));
            }
        }
        let done = self.ctx.iter().all(|c| c.halted && c.pending.is_empty());
        done.then_some(SimStop::Halted)
    }

    fn end_cycle(
        &mut self,
        hook: &impl FaultHook,
        checkers: &mut CheckerSet,
        recorder: &mut impl Recorder,
    ) {
        let window: usize = self.ctx.iter().map(|c| c.pending.len()).sum();
        self.stats.occupancy_sum += window as u64;
        checkers.end_cycle(self.cycle);
        if window == 0 {
            checkers.on_pipeline_empty(self.cycle);
        }
        record_cycle_probes(self.cycle, hook, checkers, recorder, || {
            ObsEvent::Occupancy {
                window: window as u16,
                fl_free: self.smt.free_regs() as u16,
                rob: ((0..NUM_THREADS).map(|t| self.smt.rob_len(t)).sum::<usize>()) as u16,
                rht: 0,
            }
        });
        self.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idld_core::{BitVectorChecker, CounterChecker, IdldChecker};
    use idld_isa::reg::r;
    use idld_isa::{Asm, Emulator};
    use idld_rrs::NoFaults;

    const BUDGET: u64 = 2_000_000;

    fn fib_program(n: u64) -> Program {
        let mut a = Asm::new();
        // r1=a r2=b r3=i r4=n
        a.li(r(1), 0).li(r(2), 1).li(r(3), 0).li(r(4), n as i64);
        a.label("loop");
        a.out(r(1));
        a.add(r(5), r(1), r(2));
        a.mv(r(1), r(2));
        a.mv(r(2), r(5));
        a.addi(r(3), r(3), 1);
        a.blt(r(3), r(4), "loop");
        a.halt();
        a.finish()
    }

    fn store_program() -> Program {
        let mut a = Asm::new();
        a.li(r(1), 7).li(r(2), 64);
        a.st(r(1), r(2), 0);
        a.ld(r(3), r(2), 0);
        a.out(r(3));
        a.halt();
        a.finish()
    }

    fn checkers(cfg: &SimConfig) -> CheckerSet {
        let mut c = CheckerSet::new();
        c.push(Box::new(IdldChecker::new_smt(&cfg.rrs)));
        c.push(Box::new(BitVectorChecker::new_smt(&cfg.rrs)));
        c.push(Box::new(CounterChecker::new_smt(&cfg.rrs)));
        c
    }

    fn emu_output(p: &Program) -> Vec<u64> {
        Emulator::new(p).run(1_000_000).output
    }

    #[test]
    fn two_threads_match_their_single_thread_references() {
        let (pa, pb) = (fib_program(10), store_program());
        let cfg = SimConfig::default();
        let mut cset = checkers(&cfg);
        let mut sim = SmtSimulator::new([&pa, &pb], cfg);
        let res = sim.run(&mut NoFaults, &mut cset, None, BUDGET);
        assert_eq!(res.stop, SimStop::Halted);
        assert_eq!(res.outputs[0], emu_output(&pa));
        assert_eq!(res.outputs[1], emu_output(&pb));
        assert!(res.outputs_match([&emu_output(&pa), &emu_output(&pb)]));
        assert!(res.final_contents.is_exact_partition());
        assert!(
            cset.detections().iter().all(|(_, d)| d.is_none()),
            "clean SMT run must not trip any checker"
        );
        assert_eq!(res.committed, res.stats.committed);
    }

    #[test]
    fn same_program_on_both_threads_is_isolated() {
        let p = fib_program(12);
        let cfg = SimConfig::default();
        let mut cset = checkers(&cfg);
        let mut sim = SmtSimulator::new([&p, &p], cfg);
        let res = sim.run(&mut NoFaults, &mut cset, None, BUDGET);
        assert_eq!(res.stop, SimStop::Halted);
        let golden = emu_output(&p);
        assert_eq!(res.outputs[0], golden);
        assert_eq!(res.outputs[1], golden);
    }

    #[test]
    fn memories_are_private_per_thread() {
        let p = store_program();
        let q = fib_program(3);
        let cfg = SimConfig::default();
        let mut cset = checkers(&cfg);
        let mut sim = SmtSimulator::new([&p, &q], cfg);
        let res = sim.run(&mut NoFaults, &mut cset, None, BUDGET);
        assert_eq!(res.stop, SimStop::Halted);
        assert_eq!(sim.mem(0).load(64, 8).unwrap(), 7);
        assert_eq!(sim.mem(1).load(64, 8).unwrap(), 0, "t1's memory untouched");
    }

    #[test]
    fn invalid_pc_crashes_in_order() {
        let mut a = Asm::new();
        a.li(r(1), 3);
        a.out(r(1));
        let runaway = a.finish(); // runs off the end: InvalidPc(2)
        let other = fib_program(4);
        let cfg = SimConfig::default();
        let mut cset = checkers(&cfg);
        let mut sim = SmtSimulator::new([&runaway, &other], cfg);
        let res = sim.run(&mut NoFaults, &mut cset, None, BUDGET);
        assert_eq!(res.stop, SimStop::Crash(CrashCause::InvalidPc(2)));
        // The older instructions retired before delivery.
        assert_eq!(res.outputs[0], vec![3]);
    }

    #[test]
    fn faulting_load_crashes_with_the_emulators_fault() {
        let mut a = Asm::new();
        a.li(r(1), 1 << 40).li(r(2), 7);
        a.out(r(2));
        a.ld(r(3), r(1), 0); // pc 3 faults
        a.out(r(3));
        a.halt();
        let faulty = a.finish();
        let emu = Emulator::new(&faulty).run(100);
        let idld_isa::StopReason::Fault(idld_isa::EmuFault::Mem(m)) = emu.stop else {
            panic!("the emulator must fault on the load: {:?}", emu.stop);
        };
        let other = fib_program(50);
        let cfg = SimConfig::default();
        let mut cset = checkers(&cfg);
        let mut sim = SmtSimulator::new([&faulty, &other], cfg);
        let res = sim.run(&mut NoFaults, &mut cset, None, BUDGET);
        assert_eq!(
            res.stop,
            SimStop::Crash(CrashCause::MemFault {
                addr: m.addr,
                width: m.width
            })
        );
        assert_eq!(res.outputs[0], emu.output, "earlier outs are kept");
        let t0: Vec<u32> = res
            .trace
            .pcs()
            .filter(|pc| pc >> TRACE_THREAD_BIT == 0)
            .collect();
        assert_eq!(t0, [0, 1, 2], "the load and younger never commit");
        assert_eq!(sim.ctx[0].committed, emu.steps - 1);
    }

    #[test]
    fn cycle_budget_stops_with_limit() {
        let p = fib_program(1_000_000);
        let cfg = SimConfig::default();
        let mut cset = checkers(&cfg);
        let mut sim = SmtSimulator::new([&p, &p], cfg);
        let res = sim.run(&mut NoFaults, &mut cset, None, 200);
        assert_eq!(res.stop, SimStop::CycleLimit);
        assert_eq!(res.cycles, 200);
    }

    #[test]
    fn runs_are_deterministic() {
        let (pa, pb) = (fib_program(9), store_program());
        let cfg = SimConfig::default();
        let run = || {
            let mut cset = checkers(&cfg);
            let mut sim = SmtSimulator::new([&pa, &pb], cfg);
            sim.run(&mut NoFaults, &mut cset, None, BUDGET)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn golden_trace_divergence_is_clean_on_identical_rerun() {
        let (pa, pb) = (fib_program(8), store_program());
        let cfg = SimConfig::default();
        let mut cset = checkers(&cfg);
        let mut sim = SmtSimulator::new([&pa, &pb], cfg);
        let golden = sim.run(&mut NoFaults, &mut cset, None, BUDGET);
        let mut cset2 = checkers(&cfg);
        let mut sim2 = SmtSimulator::new([&pa, &pb], cfg);
        let res = sim2.run(&mut NoFaults, &mut cset2, Some(&golden.trace), BUDGET);
        assert!(!res.divergence.any());
    }
}
