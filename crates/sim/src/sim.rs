//! The out-of-order core simulator.

use crate::config::SimConfig;
use crate::predictor::Predictor;
use crate::result::{CrashCause, RunResult, SimStop};
use crate::stats::SimStats;
use crate::trace::{CommitTrace, Divergence, TraceMonitor};
use idld_core::CheckerSet;
use idld_isa::reg::NUM_ARCH_REGS;
use idld_isa::{Emulator, Inst, Memory, Program};
use idld_mdp::{StoreSets, StoreTag};
use idld_obs::{Consume, NullRecorder, ObsEvent, Recorder};
use idld_rrs::{FaultHook, Idiom, PhysReg, RenameRequest, Rrs};
use std::collections::VecDeque;

/// True for the canonical register-move encoding (`addi rd, rs, 0`),
/// eligible for move elimination when the RRS enables it.
fn is_register_move(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::AluI {
            op: idld_isa::AluOp::Add,
            imm: 0,
            ..
        }
    )
}

/// Recognizes the 0/1 idioms eliminated when the RRS enables idiom
/// elimination: constant loads of 0/1 and the classic zeroing idioms
/// `xor rd, rs, rs` / `sub rd, rs, rs`.
fn idiom_of(inst: &Inst) -> Option<Idiom> {
    use idld_isa::AluOp;
    match *inst {
        Inst::Li { imm: 0, .. } => Some(Idiom::Zero),
        Inst::Li { imm: 1, .. } => Some(Idiom::One),
        Inst::Alu {
            op: AluOp::Xor | AluOp::Sub,
            rs1,
            rs2,
            ..
        } if rs1 == rs2 => Some(Idiom::Zero),
        _ => None,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Dispatched, waiting in the reservation station.
    Waiting,
    /// Issued; completes at the stored cycle.
    Executing { done: u64 },
    /// Executed; eligible for in-order commit.
    Done,
}

/// What a completing load gets back from the memory system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LoadOutcome {
    /// The loaded value, plus the forwarding store's seq if one supplied it.
    Value(u64, Option<u64>),
    /// A resolved older store partially overlaps: the load must re-issue
    /// after that store commits.
    Replay,
    /// The access faults.
    Fault(CrashCause),
}

#[derive(Clone, PartialEq, Eq, Debug)]
struct Entry {
    seq: u64,
    pc: usize,
    inst: Inst,
    srcs: [Option<PhysReg>; 2],
    new_pdst: Option<PhysReg>,
    pred_next: usize,
    /// Global branch history checkpointed at fetch (before this
    /// instruction's own prediction shifted it).
    bp_hist: u32,
    /// Destination value, output value, or store data.
    result: u64,
    /// Memory address once computed (loads and stores).
    addr: Option<u64>,
    fault: Option<CrashCause>,
    mispredict_to: Option<usize>,
    /// Loads under memory-dependence speculation: the store (by seq) the
    /// predictor says to wait behind.
    wait_for_store: Option<u64>,
    /// Loads: the store (by seq) whose data was forwarded, for violation
    /// shadowing checks.
    forwarded_from: Option<u64>,
}

/// Control-flow class of an instruction, pre-classified at decode so
/// next-pc prediction switches on a small discriminant instead of
/// re-matching the full [`Inst`] on every fetch.
#[derive(Clone, Copy, Debug)]
enum FetchCtrl {
    /// Conditional branch with its taken-path target.
    Br { target: usize },
    /// Direct jump: the next pc is always `target`.
    Jal { target: usize },
    /// Indirect jump: the next pc comes from the BTB.
    Jalr,
    /// Halt: fetch stops behind it.
    Halt,
    /// Everything else falls through to `pc + 1`.
    Fall,
}

/// One pre-decoded instruction: everything the frontend used to derive
/// from an [`Inst`] per fetch — control class, rename request, kind —
/// computed once per program in [`Simulator::new`]. Derived state:
/// immutable for the simulator's lifetime, never part of snapshots.
#[derive(Clone, Copy, Debug)]
struct FetchDecode {
    inst: Inst,
    ctrl: FetchCtrl,
    req: RenameRequest,
    kind: idld_isa::InstKind,
    /// `Halt`/`Nop`: retires without ever executing.
    no_exec: bool,
}

impl FetchDecode {
    fn new(inst: Inst) -> Self {
        FetchDecode {
            inst,
            ctrl: match inst {
                Inst::Br { target, .. } => FetchCtrl::Br { target },
                Inst::Jal { target, .. } => FetchCtrl::Jal { target },
                Inst::Jalr { .. } => FetchCtrl::Jalr,
                Inst::Halt => FetchCtrl::Halt,
                _ => FetchCtrl::Fall,
            },
            req: RenameRequest {
                ldst: inst.dest().map(|r| r.index()),
                srcs: [
                    inst.sources()[0].map(|r| r.index()),
                    inst.sources()[1].map(|r| r.index()),
                ],
                is_move: is_register_move(&inst),
                idiom: idiom_of(&inst),
            },
            kind: inst.kind(),
            no_exec: matches!(inst, Inst::Halt | Inst::Nop),
        }
    }
}

/// A cycle-accurate out-of-order core bound to one program.
///
/// Drive it with [`Simulator::run`]. A run leaves the machine in its end
/// state, so one simulator serves many runs of its program, each started
/// from a defined state: [`Simulator::reset`] for power-on, or
/// [`Simulator::restore_from_arch`] to fork from a snapshot. Every run
/// hands its output stream to the [`RunResult`]. See the crate docs for
/// the pipeline model.
#[derive(Debug)]
pub struct Simulator<'p> {
    prog: &'p Program,
    /// Per-pc pre-decode of `prog` (see [`FetchDecode`]): the fetch/rename
    /// path indexes this table instead of re-deriving operands, idioms and
    /// branch targets from the raw instruction every fetch.
    decode: Vec<FetchDecode>,
    cfg: SimConfig,
    rrs: Rrs,
    mem: Memory,
    prf: Vec<u64>,
    ready: Vec<bool>,
    window: VecDeque<Entry>,
    /// Per-entry pipeline status, kept in lockstep with `window` (same
    /// indices, same push/pop discipline). Split out of [`Entry`] so the
    /// per-cycle writeback/issue scans walk a compact lane (16 B/entry)
    /// instead of dragging the full ~150 B entries through the cache.
    stat: VecDeque<Status>,
    /// Sequence numbers of the entries currently [`Status::Waiting`], in
    /// ascending (= window) order, so the issue stage visits exactly the
    /// wakeup candidates instead of scanning the whole window. Derived
    /// state: rebuilt from `stat` on restore, not part of snapshots.
    waiting_seqs: Vec<u64>,
    /// Per-entry copy of the renamed source operands, kept in lockstep
    /// with `window`. The issue stage's readiness test reads 8 B per
    /// candidate from this lane instead of dragging each ~150 B
    /// [`Entry`] through the cache.
    src_lane: VecDeque<[Option<PhysReg>; 2]>,
    /// `(done_cycle, seq)` of every entry currently [`Status::Executing`]
    /// (unordered), so the per-cycle writeback scan touches only in-flight
    /// instructions instead of the whole window. Derived state: rebuilt
    /// from `stat` on restore, not part of snapshots.
    exec_done: Vec<(u64, u64)>,
    /// Per-cycle scratch: seqs completing this cycle, sorted into window
    /// order before the completions run (completion order is observable).
    due_buf: Vec<u64>,
    /// Sequence numbers of the stores currently in the window, in program
    /// order. Memory disambiguation ([`Simulator::load_may_issue`]) and
    /// store-to-load forwarding walk older stores youngest-first on every
    /// load issue attempt; this index lets them touch only the stores
    /// instead of scanning the whole window.
    store_seqs: VecDeque<u64>,
    predictor: Predictor,
    fetch_pc: usize,
    fetch_enabled: bool,
    fetch_fault: Option<usize>,
    halt_in_flight: bool,
    pending_flush: Option<(u64, usize)>,
    redirect_after_recovery: Option<usize>,
    cycle: u64,
    output: Vec<u64>,
    committed: u64,
    stats: SimStats,
    /// The store-sets memory-dependence predictor, present exactly when
    /// [`SimConfig::mem_dep_speculation`] is on; its presence is the
    /// simulator's speculation switch.
    store_sets: Option<StoreSets>,
    /// Per-cycle scratch: the fetch group `(pc, decode, pred_next, bp_hist)`.
    /// Reused across cycles to keep the fetch/rename path allocation-free;
    /// always empty between cycles, so snapshots need not carry it.
    fetch_buf: Vec<(usize, FetchDecode, usize, u32)>,
    /// Per-cycle scratch: rename requests derived from the fetch group.
    req_buf: Vec<RenameRequest>,
    /// Per-cycle scratch: rename outputs.
    out_buf: Vec<idld_rrs::RenameOut>,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator at power-on state for `program`: allocates
    /// every structure, then [`Simulator::reset`]s it.
    pub fn new(program: &'p Program, cfg: SimConfig) -> Self {
        // Run state below is a placeholder with the right capacity;
        // `reset` writes the power-on values.
        let mut sim = Simulator {
            prog: program,
            decode: program
                .insts
                .iter()
                .copied()
                .map(FetchDecode::new)
                .collect(),
            mem: program.build_memory(),
            rrs: Rrs::new(cfg.rrs),
            prf: Vec::with_capacity(cfg.rrs.num_phys),
            ready: Vec::with_capacity(cfg.rrs.num_phys),
            window: VecDeque::with_capacity(cfg.rrs.rob_entries),
            stat: VecDeque::with_capacity(cfg.rrs.rob_entries),
            waiting_seqs: Vec::new(),
            src_lane: VecDeque::with_capacity(cfg.rrs.rob_entries),
            exec_done: Vec::new(),
            due_buf: Vec::new(),
            store_seqs: VecDeque::new(),
            predictor: Predictor::new(cfg.bp_log2, cfg.btb_log2),
            fetch_pc: 0,
            fetch_enabled: true,
            fetch_fault: None,
            halt_in_flight: false,
            pending_flush: None,
            redirect_after_recovery: None,
            cycle: 0,
            output: Vec::new(),
            committed: 0,
            stats: SimStats::default(),
            store_sets: None,
            fetch_buf: Vec::with_capacity(cfg.rrs.width),
            req_buf: Vec::with_capacity(cfg.rrs.width),
            out_buf: Vec::with_capacity(cfg.rrs.width),
            cfg,
        };
        sim.reset();
        sim
    }

    /// Returns this simulator to power-on state in place, keeping its
    /// allocations: the one definition of power-on state, which
    /// [`Simulator::new`] also goes through.
    ///
    /// Memory goes back to the program's initial image by restoring only
    /// the pages written since the last reset ([`Memory::reset_dirty`]),
    /// so a reset costs a few pages, not a fresh memory image. Every
    /// other field is overwritten, except the per-cycle scratch buffers,
    /// which are empty between cycles. A reset simulator is indistinguishable
    /// from a new one: same snapshot, and the same [`RunResult`] for the
    /// same run.
    pub fn reset(&mut self) {
        let cfg = self.cfg;
        self.mem.reset_dirty(&self.prog.image);
        self.rrs = Rrs::new(cfg.rrs);
        // Architectural registers start at zero; the initial RAT maps
        // logical i to physical i, so the whole PRF starts zeroed and ready.
        self.prf.clear();
        self.prf.resize(cfg.rrs.num_phys, 0);
        self.ready.clear();
        self.ready.resize(cfg.rrs.num_phys, true);
        if let Some((zero, one)) = cfg.rrs.pinned() {
            self.prf[zero.index()] = 0;
            self.prf[one.index()] = 1;
        }
        self.window.clear();
        self.stat.clear();
        self.waiting_seqs.clear();
        self.src_lane.clear();
        self.exec_done.clear();
        self.store_seqs.clear();
        self.predictor = Predictor::new(cfg.bp_log2, cfg.btb_log2);
        self.fetch_pc = 0;
        self.fetch_enabled = true;
        self.fetch_fault = None;
        self.halt_in_flight = false;
        self.pending_flush = None;
        self.redirect_after_recovery = None;
        self.cycle = 0;
        self.output.clear();
        self.committed = 0;
        self.stats = SimStats::default();
        self.store_sets = cfg.mem_dep_speculation.then(|| StoreSets::new(512, 64));
    }

    /// Window index of the in-flight instruction with sequence `seq`.
    #[inline]
    fn window_index(&self, seq: u64) -> Option<usize> {
        let front = self.window.front()?.seq;
        if seq < front {
            return None;
        }
        let idx = (seq - front) as usize;
        (idx < self.window.len()).then_some(idx)
    }

    /// Microarchitectural statistics collected so far.
    #[inline]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The register renaming subsystem (for inspection in tests/tools).
    #[inline]
    pub fn rrs(&self) -> &Rrs {
        &self.rrs
    }

    /// The program this simulator executes. The frontend fetches from the
    /// pre-decoded per-pc table derived from it at construction, so the
    /// program must not change for the simulator's lifetime (the `&'p`
    /// borrow guarantees it).
    #[inline]
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// The committed (architectural) value of logical register `arch`,
    /// read through the retirement RAT. Meaningful once the pipeline has
    /// drained (after [`Simulator::run`] returns); differential oracles
    /// compare this against the golden emulator's register file.
    #[inline]
    pub fn arch_reg(&self, arch: usize) -> u64 {
        self.prf[self.rrs.rrat_lookup(arch).index()]
    }

    /// The data memory (stores are applied at commit, so after a run this
    /// is the architectural memory state).
    #[inline]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Runs the program to completion (halt/crash/assert) or `max_cycles`.
    ///
    /// `hook` is consulted for every RRS control signal (use
    /// [`idld_rrs::NoFaults`] for a bug-free run); `checkers` observe the
    /// RRS event stream. When `golden` is `None` the full commit trace is
    /// recorded in the result (this *is* a golden run); when `Some`, commits
    /// are compared on the fly and only the first divergences are recorded.
    pub fn run(
        &mut self,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        golden: Option<&CommitTrace>,
        max_cycles: u64,
    ) -> RunResult {
        let mut seg = self.begin_run(golden, max_cycles);
        let stop = seg.run_to_end(self, hook, checkers, None);
        seg.finish(self, stop, checkers)
    }

    /// [`Simulator::run`] with an event recorder attached: every pipeline
    /// event of the run is delivered to `recorder`. With
    /// [`idld_obs::NullRecorder`] this is exactly [`Simulator::run`] (the
    /// probes compile to nothing); with [`idld_obs::RingRecorder`] the run
    /// produces a full structured trace.
    pub fn run_observed(
        &mut self,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        golden: Option<&CommitTrace>,
        max_cycles: u64,
        recorder: &mut impl Recorder,
    ) -> RunResult {
        let mut seg = self.begin_run(golden, max_cycles);
        let stop = seg.run_to_end_observed(self, hook, checkers, recorder);
        seg.finish(self, stop, checkers)
    }

    /// Starts a [`SegmentedRun`]: the same run the one-shot entry points
    /// perform, but resumable in slices so the driver can pause at chosen
    /// cycles (to take [`SimSnapshot`]s) and continue.
    ///
    /// When this simulator was restored from a snapshot mid-trace, the
    /// divergence monitor joins the golden comparison at the restored
    /// commit position — the prefix was produced by the golden run itself.
    pub fn begin_run<'g>(
        &self,
        golden: Option<&'g CommitTrace>,
        max_cycles: u64,
    ) -> SegmentedRun<'g> {
        SegmentedRun {
            trace: CommitTrace::new(),
            monitor: golden.map(|g| TraceMonitor::new_at(g, self.committed as usize)),
            record: golden.is_none(),
            max_cycles,
        }
    }

    /// Packages the final [`RunResult`] once a segment returned a stop.
    fn finish_run(
        &mut self,
        stop: SimStop,
        trace: CommitTrace,
        monitor: Option<TraceMonitor<'_>>,
        checkers: &mut CheckerSet,
    ) -> RunResult {
        if stop == SimStop::Halted {
            // The pipeline is architecturally drained: give the empty-point
            // checkers (BV, counter) their final check.
            checkers.end_cycle(self.cycle);
            checkers.on_pipeline_empty(self.cycle);
        }
        // For abnormal terminations a short trace is still a divergence:
        // the golden run committed more (it halted), so `finish` marks an
        // order divergence at the stop cycle.
        let divergence = match monitor {
            Some(mut m) => m.finish(self.cycle),
            None => Divergence::default(),
        };
        self.stats.cycles = self.cycle;
        self.stats.committed = self.committed;
        RunResult {
            stop,
            cycles: self.cycle,
            committed: self.committed,
            // The output stream moves into the result instead of cloning;
            // the next run starts from a reset or restore, which rewrites
            // it (see the struct docs).
            output: std::mem::take(&mut self.output),
            trace,
            divergence,
            final_contents: self.rrs.contents(),
            stats: self.stats,
        }
    }

    /// Captures the mutable state of this simulator, except data memory,
    /// plus the attached `checkers`. [`Simulator::restore_from_arch`]
    /// rebuilds memory from the in-order emulator and continues
    /// bit-for-bit identically to never having stopped.
    ///
    /// Must be taken at a cycle boundary (between [`SegmentedRun::step_until`]
    /// segments, or before a run starts) — mid-cycle there is transient
    /// state outside the captured set. A recorded run forks its recorder
    /// by cloning it alongside the snapshot.
    pub fn snapshot(&self, checkers: &CheckerSet) -> SimSnapshot {
        SimSnapshot {
            rrs: self.rrs.clone(),
            prf: self.prf.clone(),
            ready: self.ready.clone(),
            window: self.window.clone(),
            stat: self.stat.clone(),
            predictor: self.predictor.clone(),
            fetch_pc: self.fetch_pc,
            fetch_enabled: self.fetch_enabled,
            fetch_fault: self.fetch_fault,
            halt_in_flight: self.halt_in_flight,
            pending_flush: self.pending_flush,
            redirect_after_recovery: self.redirect_after_recovery,
            cycle: self.cycle,
            output: self.output.clone(),
            committed: self.committed,
            stats: self.stats,
            store_sets: self.store_sets.clone(),
            checkers: checkers.clone(),
        }
    }

    /// [`Simulator::restore_from_arch`] with an emulator this call runs
    /// from power-on to the snapshot's committed instruction count.
    ///
    /// This shim stays only for the repository benchmark's per-layer
    /// replay; it goes when that replay is deleted (ROADMAP item 1(e)).
    ///
    /// # Panics
    ///
    /// If the bit-exactness gate refuses the snapshot — for instance one
    /// taken on another program.
    pub fn restore(&mut self, snap: &SimSnapshot, checkers: &mut CheckerSet) {
        let mut emu = Emulator::new(self.prog);
        // An emulator that stops short fails the gate's step check.
        let _ = emu.run_to_step(snap.committed());
        if let Err(d) = self.restore_from_arch(snap, &emu, checkers) {
            panic!("fast-forward bit-exactness gate: {d}");
        }
    }

    /// Restores a snapshot taken by [`Simulator::snapshot`], replacing
    /// `checkers` with the captured checker state and reconstructing data
    /// memory from an in-order emulator advanced to exactly the
    /// snapshot's committed instruction count — the fast-forward engine
    /// hand-off. The simulator must have been created for the same
    /// program and configuration the snapshot was taken under.
    ///
    /// Stores are applied to memory at commit, so the emulator's memory
    /// after `snap.committed()` architectural steps *is* the simulator's
    /// memory at the snapshot cycle. Before seeding anything, the
    /// bit-exactness gate ([`SimSnapshot::verify_arch`]) cross-checks the
    /// emulator's registers, output and pc against the snapshot's committed
    /// view; any disagreement means the two engines diverged
    /// architecturally and the restore is refused.
    pub fn restore_from_arch(
        &mut self,
        snap: &SimSnapshot,
        emu: &Emulator,
        checkers: &mut CheckerSet,
    ) -> Result<(), FfDivergence> {
        snap.verify_arch(emu)?;
        self.mem.restore_from(emu.mem());
        self.rrs = snap.rrs.clone();
        self.prf.clone_from(&snap.prf);
        self.ready.clone_from(&snap.ready);
        self.window.clone_from(&snap.window);
        self.stat.clone_from(&snap.stat);
        self.waiting_seqs.clear();
        self.waiting_seqs.extend(
            snap.stat
                .iter()
                .zip(&snap.window)
                .filter(|(s, _)| matches!(s, Status::Waiting))
                .map(|(_, e)| e.seq),
        );
        self.src_lane.clear();
        self.src_lane.extend(snap.window.iter().map(|e| e.srcs));
        self.exec_done.clear();
        self.exec_done.extend(
            snap.stat
                .iter()
                .zip(&snap.window)
                .filter_map(|(s, e)| match s {
                    Status::Executing { done } => Some((*done, e.seq)),
                    _ => None,
                }),
        );
        self.store_seqs.clear();
        self.store_seqs.extend(
            snap.window
                .iter()
                .filter(|e| matches!(e.inst.kind(), idld_isa::InstKind::Store))
                .map(|e| e.seq),
        );
        self.predictor.clone_from(&snap.predictor);
        self.fetch_pc = snap.fetch_pc;
        self.fetch_enabled = snap.fetch_enabled;
        self.fetch_fault = snap.fetch_fault;
        self.halt_in_flight = snap.halt_in_flight;
        self.pending_flush = snap.pending_flush;
        self.redirect_after_recovery = snap.redirect_after_recovery;
        self.cycle = snap.cycle;
        self.output.clone_from(&snap.output);
        self.committed = snap.committed;
        self.stats = snap.stats;
        self.store_sets.clone_from(&snap.store_sets);
        *checkers = snap.checkers.clone();
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn main_loop<R: Recorder>(
        &mut self,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        trace: &mut CommitTrace,
        monitor: &mut Option<TraceMonitor<'_>>,
        record: bool,
        max_cycles: u64,
        interrupt: Option<&std::sync::atomic::AtomicBool>,
        pause_at: Option<u64>,
        recorder: &mut R,
    ) -> Option<SimStop> {
        // Stall fast-forward: count consecutive cycles in which provably
        // nothing changed. Once two such cycles pass (letting checker
        // detection latches settle on the frozen state) and the end-state
        // analysis below holds, every future cycle is identical except
        // for the counter, so the loop jumps to the next external event.
        let mut idle_streak: u32 = 0;
        loop {
            if self.cycle >= max_cycles {
                return Some(SimStop::CycleLimit);
            }
            if pause_at.is_some_and(|p| self.cycle >= p) {
                return None;
            }
            if self.cycle & 0x3ff == 0 {
                if let Some(flag) = interrupt {
                    if flag.load(std::sync::atomic::Ordering::Relaxed) {
                        return Some(SimStop::CycleLimit);
                    }
                }
            }
            hook.begin_cycle(self.cycle);
            // At-rest storage upsets (§V.D class) land silently.
            self.rrs.apply_at_rest(hook);
            // --- Recovery (freezes the rest of the pipeline) -------------
            if self.rrs.recovery_active() {
                idle_streak = 0;
                self.stats.recovery_cycles += 1;
                match self.rrs.step_recovery(hook, checkers) {
                    Ok(true) => {
                        recorder.record(self.cycle, ObsEvent::RecoveryEnd);
                        if let Some(target) = self.redirect_after_recovery.take() {
                            self.fetch_pc = target;
                        }
                        self.fetch_fault = None;
                        self.halt_in_flight =
                            self.window.iter().any(|e| matches!(e.inst, Inst::Halt));
                        self.fetch_enabled = !self.halt_in_flight;
                    }
                    Ok(false) => {}
                    Err(a) => return Some(SimStop::Assert(a)),
                }
                self.end_cycle(hook, checkers, recorder);
                continue;
            }
            if let Some((fseq, target)) = self.pending_flush.take() {
                idle_streak = 0;
                self.stats.flushes += 1;
                recorder.record(
                    self.cycle,
                    ObsEvent::Flush {
                        seq: fseq,
                        target: target as u32,
                    },
                );
                self.squash_younger(fseq);
                self.repair_branch_history(fseq);
                self.rrs.start_recovery(fseq, hook, checkers);
                recorder.record(self.cycle, ObsEvent::RecoveryStart);
                self.redirect_after_recovery = Some(target);
                self.fetch_enabled = false;
                self.end_cycle(hook, checkers, recorder);
                continue;
            }

            // Observable-progress pulse: any change to these between here
            // and end of cycle means the machine moved.
            let pulse = (
                self.committed,
                self.window.len(),
                self.fetch_pc,
                self.fetch_enabled,
                self.stats.issued,
                self.stats.renamed,
                self.stats.loads,
                self.stats.load_replays,
                self.stats.branches,
            );
            let fs_before = self.stats.frontend_stalls;

            // --- Commit ---------------------------------------------------
            let mut commits = 0;
            while commits < self.cfg.width() {
                if self.stat.front() != Some(&Status::Done) {
                    break;
                }
                let front = self.window.front().expect("stat mirrors window");
                if let Some(f) = front.fault {
                    return Some(SimStop::Crash(f));
                }
                let (seq, pc, inst, result, addr) =
                    (front.seq, front.pc, front.inst, front.result, front.addr);
                if matches!(inst, Inst::Halt) {
                    self.observe_commit(pc, seq, trace, monitor, record, recorder);
                    self.committed += 1;
                    return Some(SimStop::Halted);
                }
                match inst {
                    Inst::St { .. } | Inst::Stw { .. } | Inst::Stb { .. } => {
                        let width = inst.mem_width().expect("store width");
                        let a = addr.expect("store executed");
                        if let Err(e) = self.mem.store(a, width, result) {
                            return Some(SimStop::Crash(CrashCause::MemFault {
                                addr: e.addr,
                                width: e.width,
                            }));
                        }
                        self.stats.stores += 1;
                        debug_assert_eq!(self.store_seqs.front(), Some(&seq));
                        self.store_seqs.pop_front();
                    }
                    Inst::Out { .. } => self.output.push(result),
                    _ => {}
                }
                if let Err(a) = self.rrs.commit_head(hook, checkers) {
                    return Some(SimStop::Assert(a));
                }
                self.observe_commit(pc, seq, trace, monitor, record, recorder);
                self.committed += 1;
                self.window.pop_front();
                self.stat.pop_front();
                self.src_lane.pop_front();
                commits += 1;
            }

            // --- Writeback / complete -------------------------------------
            let mut completions = 0u32;
            if !self.exec_done.is_empty() {
                let mut due = std::mem::take(&mut self.due_buf);
                let mut k = 0;
                while k < self.exec_done.len() {
                    let (done, seq) = self.exec_done[k];
                    if done <= self.cycle {
                        due.push(seq);
                        self.exec_done.swap_remove(k);
                    } else {
                        k += 1;
                    }
                }
                if !due.is_empty() {
                    // Window order (the order the old full-window scan
                    // produced): completion order is observable through the
                    // event trace, forwarding and predictor training.
                    due.sort_unstable();
                    let front_seq = self.window.front().expect("in-flight entries exist").seq;
                    for &seq in &due {
                        self.complete((seq - front_seq) as usize, recorder);
                        completions += 1;
                    }
                    due.clear();
                }
                self.due_buf = due;
            }

            // --- Issue ----------------------------------------------------
            self.issue(recorder);

            // --- Fetch + rename -------------------------------------------
            if self.fetch_enabled {
                if let Err(a) = self.fetch_rename(hook, checkers, recorder) {
                    return Some(SimStop::Assert(a));
                }
            }

            // --- End of cycle ---------------------------------------------
            if self.window.is_empty() {
                if let Some(pc) = self.fetch_fault {
                    return Some(SimStop::Crash(CrashCause::InvalidPc(pc)));
                }
            }

            // Dead-cycle analysis. If nothing committed, completed, issued
            // or renamed this cycle, then the end-of-cycle state proves the
            // machine can never move again: nothing is mid-execution (so no
            // completion is scheduled), the ROB head is not ready (commit
            // is a function of that frozen head), issue and fetch/rename
            // are pure functions of state they just failed on (a stalled
            // fetch restores `fetch_pc` and the speculative branch history
            // exactly), and the hook can only act on operations that no
            // longer happen. Memory, RRS, PRF and predictor state only
            // change through those channels, so every later cycle replays
            // this one verbatim.
            let frozen = self.cfg.stall_fast_forward
                && completions == 0
                && pulse
                    == (
                        self.committed,
                        self.window.len(),
                        self.fetch_pc,
                        self.fetch_enabled,
                        self.stats.issued,
                        self.stats.renamed,
                        self.stats.loads,
                        self.stats.load_replays,
                        self.stats.branches,
                    )
                && self.pending_flush.is_none()
                && !self.rrs.recovery_active()
                && hook.quiescent()
                && self.stat.front().is_none_or(|s| *s != Status::Done)
                && self.exec_done.is_empty();
            idle_streak = if frozen { idle_streak + 1 } else { 0 };

            self.end_cycle(hook, checkers, recorder);

            if idle_streak >= 2 {
                // The remaining cycles tick only the counters below and
                // call checkers whose detection latches settled on this
                // exact state during the streak; jump to the next event.
                let target = pause_at.map_or(max_cycles, |p| p.min(max_cycles));
                if let Some(skip) = target.checked_sub(self.cycle) {
                    self.stats.occupancy_sum += skip * self.window.len() as u64;
                    self.stats.frontend_stalls += skip * (self.stats.frontend_stalls - fs_before);
                    self.cycle = target;
                }
            }
        }
    }

    /// Routes one commit to every observer of the event stream: the
    /// recorded trace (golden runs), the divergence monitor (injected
    /// runs), and the recorder. All three consume the same [`ObsEvent`] —
    /// one source of truth for what committed when.
    fn observe_commit<R: Recorder>(
        &self,
        pc: usize,
        seq: u64,
        trace: &mut CommitTrace,
        monitor: &mut Option<TraceMonitor<'_>>,
        record: bool,
        recorder: &mut R,
    ) {
        let ev = ObsEvent::Commit { pc: pc as u32, seq };
        if record {
            trace.consume(self.cycle, &ev);
        }
        if let Some(m) = monitor {
            m.consume(self.cycle, &ev);
        }
        recorder.record(self.cycle, ev);
    }

    fn end_cycle<R: Recorder>(
        &mut self,
        hook: &impl FaultHook,
        checkers: &mut CheckerSet,
        recorder: &mut R,
    ) {
        self.stats.occupancy_sum += self.window.len() as u64;
        checkers.end_cycle(self.cycle);
        if self.window.is_empty() && !self.rrs.recovery_active() {
            checkers.on_pipeline_empty(self.cycle);
        }
        if recorder.enabled() {
            recorder.record(
                self.cycle,
                ObsEvent::Occupancy {
                    window: self.window.len() as u16,
                    fl_free: self.rrs.free_regs() as u16,
                    rob: self.rrs.rob_len() as u16,
                    rht: self.rrs.rht_len() as u16,
                },
            );
            if let Some(code) = checkers.xor_code() {
                // The recorder delta-encodes this: only changes survive.
                recorder.record(self.cycle, ObsEvent::CheckerCode { code });
            }
            if let Some((_, site)) = hook.activation() {
                // Recorded once per run by the recorder's dedup.
                recorder.record(self.cycle, ObsEvent::FaultInjected { site });
            }
            checkers.for_each_detection(|name, d| {
                // Likewise deduplicated per checker by the recorder.
                recorder.record(
                    self.cycle,
                    ObsEvent::Detection {
                        checker: name,
                        kind: d.kind.label(),
                        at: d.cycle,
                    },
                );
            });
        }
        self.cycle += 1;
    }

    /// Restores the speculative global history after a flush: the offending
    /// control instruction's checkpointed history, shifted by its actual
    /// outcome for conditional branches.
    fn repair_branch_history(&mut self, fseq: u64) {
        let Some(off) = self.window.back() else { return };
        debug_assert_eq!(off.seq, fseq);
        match off.inst {
            Inst::Br { target, .. } => {
                // Resolved-mispredicted branches carry their actual target;
                // correctly-predicted or still-unresolved ones keep their
                // prediction (memory-violation flushes can land here).
                let actual = off.mispredict_to.unwrap_or(off.pred_next);
                let taken = actual == target;
                self.predictor.repair_history(off.bp_hist, taken);
            }
            _ => self.predictor.set_history(off.bp_hist),
        }
    }

    fn squash_younger(&mut self, fseq: u64) {
        while let Some(back) = self.window.back() {
            if back.seq > fseq {
                self.window.pop_back();
                self.stat.pop_back().expect("stat mirrors window");
                self.src_lane.pop_back();
            } else {
                break;
            }
        }
        while self.store_seqs.back().is_some_and(|&s| s > fseq) {
            self.store_seqs.pop_back();
        }
        let keep = self.waiting_seqs.partition_point(|&s| s <= fseq);
        self.waiting_seqs.truncate(keep);
        self.exec_done.retain(|&(_, s)| s <= fseq);
        self.halt_in_flight = self.window.iter().any(|e| matches!(e.inst, Inst::Halt));
        self.fetch_fault = None;
    }

    fn latency(&self, inst: &Inst) -> u64 {
        use idld_isa::InstKind::*;
        match inst.kind() {
            Alu | Out => self.cfg.lat_alu,
            MulDiv => self.cfg.lat_muldiv,
            Load => self.cfg.lat_load,
            Store => self.cfg.lat_store,
            Branch | Jump | JumpInd => self.cfg.lat_branch,
            Halt => self.cfg.lat_alu,
        }
    }

    #[inline]
    fn src_val(&self, e: &Entry, idx: usize) -> u64 {
        e.srcs[idx].map(|p| self.prf[p.index()]).unwrap_or(0)
    }

    /// Completes execution of window entry `i`.
    fn complete<R: Recorder>(&mut self, i: usize, recorder: &mut R) {
        let e = &self.window[i];
        let (inst, pc, seq, pred_next) = (e.inst, e.pc, e.seq, e.pred_next);
        let a = self.src_val(e, 0);
        let b = self.src_val(e, 1);
        let mut result = 0u64;
        let mut addr = None;
        let mut fault = None;
        let mut actual_next = pc + 1;
        match inst {
            Inst::Alu { op, .. } => result = op.apply(a, b),
            Inst::AluI { op, imm, .. } => result = op.apply(a, imm as u64),
            Inst::Li { imm, .. } => result = imm as u64,
            Inst::Ld { imm, .. } | Inst::Ldw { imm, .. } | Inst::Ldb { imm, .. } => {
                let width = inst.mem_width().expect("load width");
                let address = a.wrapping_add(imm as u64);
                match self.load_with_forwarding(i, address, width) {
                    LoadOutcome::Replay => {
                        // An older store resolved to a partially overlapping
                        // address while this load was in flight. Exact-match
                        // forwarding cannot supply the merged bytes, so send
                        // the load back to the scheduler: the issue rule
                        // holds it until the store commits its bytes.
                        self.stats.load_replays += 1;
                        self.stat[i] = Status::Waiting;
                        let pos = self.waiting_seqs.partition_point(|&s| s < seq);
                        self.waiting_seqs.insert(pos, seq);
                        return;
                    }
                    LoadOutcome::Value(v, forwarded) => {
                        result = v;
                        if forwarded.is_some() {
                            self.stats.load_forwards += 1;
                        }
                        self.window[i].forwarded_from = forwarded;
                    }
                    LoadOutcome::Fault(c) => {
                        fault = Some(c);
                        result = 0;
                    }
                }
                addr = Some(address);
                self.stats.loads += 1;
            }
            Inst::St { imm, .. } | Inst::Stw { imm, .. } | Inst::Stb { imm, .. } => {
                addr = Some(a.wrapping_add(imm as u64));
                result = b; // store data captured at execute
            }
            Inst::Br { cond, target, .. } => {
                self.stats.branches += 1;
                let taken = cond.eval(a, b);
                actual_next = if taken { target } else { pc + 1 };
                let hist = self.window[i].bp_hist;
                self.predictor.train_dir(pc, hist, taken);
            }
            Inst::Jal { target, .. } => {
                result = (pc + 1) as u64;
                actual_next = target;
            }
            Inst::Jalr { imm, .. } => {
                self.stats.branches += 1;
                result = (pc + 1) as u64;
                let t = a.wrapping_add(imm as u64);
                actual_next = t.min(usize::MAX as u64) as usize;
                self.predictor.train_target(pc, actual_next);
            }
            Inst::Out { .. } => result = a,
            Inst::Halt | Inst::Nop => {}
        }

        let e = &mut self.window[i];
        e.result = result;
        e.addr = addr;
        e.fault = fault;
        self.stat[i] = Status::Done;
        let mispredict = inst.is_control() && actual_next != pred_next;
        recorder.record(self.cycle, ObsEvent::Complete { seq, mispredict });
        if mispredict {
            self.stats.mispredicts += 1;
            e.mispredict_to = Some(actual_next);
            // Keep the oldest flush point; on a seq tie a branch flush wins
            // over a memory-violation flush anchored at the same point (its
            // redirect supersedes the wrong-path load's refetch).
            if self.pending_flush.is_none_or(|(s, _)| seq <= s) {
                self.pending_flush = Some((seq, actual_next));
            }
        }
        if let Some(p) = self.window[i].new_pdst {
            self.prf[p.index()] = result;
            self.ready[p.index()] = true;
        }
        if self.store_sets.is_some() && matches!(inst.kind(), idld_isa::InstKind::Store) {
            self.resolve_store_and_check_violations(i);
        }
    }

    /// A store's address just resolved: release its LFST entry and flush
    /// any younger load that already executed against an overlapping
    /// address without being shadowed by a newer forwarding store — the
    /// memory-order violation path of the store-sets scheme.
    fn resolve_store_and_check_violations(&mut self, i: usize) {
        let store = &self.window[i];
        let (s_seq, s_pc) = (store.seq, store.pc);
        let s_addr = store.addr.expect("store executed");
        let s_width = store.inst.mem_width().expect("store width");
        let store_sets = self.store_sets.as_mut().expect("speculation is on");
        store_sets.resolve_store(s_pc as u64, StoreTag(s_seq), true);

        let mut victim: Option<(u64, usize, usize)> = None; // (seq, pc, idx)
        for j in i + 1..self.window.len() {
            let e = &self.window[j];
            if !matches!(e.inst.kind(), idld_isa::InstKind::Load) {
                continue;
            }
            let executed = !matches!(self.stat[j], Status::Waiting);
            let Some(laddr) = e.addr else { continue };
            if !executed {
                continue;
            }
            let lwidth = e.inst.mem_width().expect("load width");
            let overlap = s_addr < laddr.wrapping_add(lwidth as u64)
                && laddr < s_addr.wrapping_add(s_width as u64);
            if !overlap {
                continue;
            }
            // Shadowed by a forwarding store younger than this one?
            if matches!(e.forwarded_from, Some(f) if f > s_seq) {
                continue;
            }
            if victim.is_none_or(|(vs, _, _)| e.seq < vs) {
                victim = Some((e.seq, e.pc, j));
            }
        }
        if let Some((l_seq, l_pc, _)) = victim {
            self.stats.mem_violations += 1;
            store_sets.train_violation(l_pc as u64, s_pc as u64);
            // Flush at the instruction before the load; refetch the load.
            if self.pending_flush.is_none_or(|(s, _)| l_seq - 1 < s) {
                self.pending_flush = Some((l_seq - 1, l_pc));
            }
        }
    }

    /// Loads with exact-match store-to-load forwarding from older in-window
    /// stores, scanning youngest-first so the nearest exact match shadows
    /// anything older.
    ///
    /// The issue rule refuses to *issue* a load past a store already
    /// resolved to a partially overlapping address, but with memory
    /// dependence speculation a store may resolve to one while the load is
    /// in flight (the violation scan cannot see such a load: its address
    /// is recorded only here, at completion). That case returns
    /// [`LoadOutcome::Replay`] instead of stale memory bytes.
    fn load_with_forwarding(&self, i: usize, addr: u64, width: usize) -> LoadOutcome {
        let front_seq = self.window.front().expect("load is in the window").seq;
        let load_seq = front_seq + i as u64;
        for &s in self.store_seqs.iter().rev().skip_while(|&&s| s >= load_seq) {
            let e = &self.window[(s - front_seq) as usize];
            if let Some(saddr) = e.addr {
                let swidth = e.inst.mem_width().expect("store width");
                if saddr == addr && swidth == width {
                    let mask = if width == 8 {
                        u64::MAX
                    } else {
                        (1u64 << (8 * width)) - 1
                    };
                    return LoadOutcome::Value(e.result & mask, Some(e.seq));
                }
                let overlap = saddr < addr.wrapping_add(width as u64)
                    && addr < saddr.wrapping_add(swidth as u64);
                if overlap {
                    return LoadOutcome::Replay;
                }
            }
        }
        match self.mem.load(addr, width) {
            Ok(v) => LoadOutcome::Value(v, None),
            Err(e) => LoadOutcome::Fault(CrashCause::MemFault {
                addr: e.addr,
                width: e.width,
            }),
        }
    }

    /// True if window entry `i` (a load) may issue under conservative
    /// memory disambiguation.
    fn load_may_issue(&self, i: usize) -> bool {
        let load = &self.window[i];
        let laddr = self.src_val(load, 0).wrapping_add(match load.inst {
            Inst::Ld { imm, .. } | Inst::Ldw { imm, .. } | Inst::Ldb { imm, .. } => imm as u64,
            _ => 0,
        });
        let lwidth = load.inst.mem_width().expect("load width");
        let speculate = self.store_sets.is_some();
        // Predicted dependence (store sets): wait until that specific
        // store's address resolves (or it is squashed / retired).
        if speculate {
            if let Some(dep_seq) = load.wait_for_store {
                if let Some(j) = self.window_index(dep_seq) {
                    if j < i && self.window[j].addr.is_none() {
                        return false;
                    }
                }
            }
        }
        let front_seq = self.window.front().expect("load is in the window").seq;
        let load_seq = front_seq + i as u64;
        for &s in self.store_seqs.iter().rev().skip_while(|&&s| s >= load_seq) {
            let e = &self.window[(s - front_seq) as usize];
            match e.addr {
                // Conservative mode blocks on any unresolved older store;
                // speculative mode sails past (the violation scan at the
                // store's resolution catches mis-speculations).
                None => {
                    if !speculate {
                        return false;
                    }
                }
                Some(saddr) => {
                    let swidth = e.inst.mem_width().expect("store width");
                    if saddr == laddr && swidth == lwidth {
                        // Exact match: forwarding possible once we execute;
                        // the newest such store shadows anything older.
                        return true;
                    }
                    let overlap = saddr < laddr.wrapping_add(lwidth as u64)
                        && laddr < saddr.wrapping_add(swidth as u64);
                    if overlap {
                        return false; // partial overlap: wait for commit
                    }
                }
            }
        }
        true
    }

    fn issue<R: Recorder>(&mut self, recorder: &mut R) {
        if self.waiting_seqs.is_empty() {
            return;
        }
        let front_seq = self.window.front().expect("waiting entries exist").seq;
        let len = self.waiting_seqs.len();
        let mut issued = 0;
        // Single pass over the waiting candidates (oldest first), compacting
        // issued entries out of the list in place. `k` doubles as the
        // reservation-station scan counter: the list holds only Waiting
        // entries, so "k waiting entries examined" matches the old
        // whole-window scan's cap exactly.
        let mut k = 0;
        let mut w = 0;
        while k < len {
            if issued >= self.cfg.width() || k >= self.cfg.rs_entries {
                break;
            }
            let seq = self.waiting_seqs[k];
            let i = (seq - front_seq) as usize;
            let srcs = self.src_lane[i];
            let ready = srcs.iter().flatten().all(|p| self.ready[p.index()]);
            let take = ready && {
                let e = &self.window[i];
                !matches!(e.inst.kind(), idld_isa::InstKind::Load) || self.load_may_issue(i)
            };
            if take {
                let done = self.cycle + self.latency(&self.window[i].inst);
                self.stat[i] = Status::Executing { done };
                self.exec_done.push((done, seq));
                recorder.record(self.cycle, ObsEvent::Issue { seq });
                self.stats.issued += 1;
                issued += 1;
            } else {
                self.waiting_seqs[w] = seq;
                w += 1;
            }
            k += 1;
        }
        if w < k {
            self.waiting_seqs.copy_within(k..len, w);
            self.waiting_seqs.truncate(len - (k - w));
        }
    }

    /// Predicts the next pc for the instruction at `pc`, checkpointing the
    /// global history before any prediction shift. Returns `(next, hist)`,
    /// or `None` next for `Halt` (fetch stops behind it).
    fn predict_next(&mut self, pc: usize, ctrl: FetchCtrl) -> (Option<usize>, u32) {
        let hist = self.predictor.history();
        let next = match ctrl {
            FetchCtrl::Br { target } => {
                let (taken, _) = self.predictor.predict_dir(pc);
                Some(if taken { target } else { pc + 1 })
            }
            FetchCtrl::Jal { target } => Some(target),
            FetchCtrl::Jalr => Some(self.predictor.predict_target(pc).unwrap_or(pc + 1)),
            FetchCtrl::Halt => None,
            FetchCtrl::Fall => Some(pc + 1),
        };
        (next, hist)
    }

    fn fetch_rename<R: Recorder>(
        &mut self,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        recorder: &mut R,
    ) -> Result<(), idld_rrs::RrsAssert> {
        // The scratch buffers move out of `self` for the duration of the
        // cycle (the body needs `&mut self` for the RRS) and come back
        // empty, preserving the between-cycles-empty invariant that lets
        // snapshots skip them.
        let mut group = std::mem::take(&mut self.fetch_buf);
        let mut reqs = std::mem::take(&mut self.req_buf);
        let mut outs = std::mem::take(&mut self.out_buf);
        let res =
            self.fetch_rename_with(hook, checkers, &mut group, &mut reqs, &mut outs, recorder);
        group.clear();
        reqs.clear();
        outs.clear();
        self.fetch_buf = group;
        self.req_buf = reqs;
        self.out_buf = outs;
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn fetch_rename_with<R: Recorder>(
        &mut self,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        group: &mut Vec<(usize, FetchDecode, usize, u32)>,
        reqs: &mut Vec<RenameRequest>,
        outs: &mut Vec<idld_rrs::RenameOut>,
        recorder: &mut R,
    ) -> Result<(), idld_rrs::RrsAssert> {
        // Collect a fetch group following the predicted path.
        group.clear();
        let mut pc = self.fetch_pc;
        for _ in 0..self.cfg.width() {
            let Some(&d) = self.decode.get(pc) else {
                self.fetch_fault = Some(pc);
                self.fetch_enabled = false;
                break;
            };
            match self.predict_next(pc, d.ctrl) {
                (Some(next), hist) => {
                    group.push((pc, d, next, hist));
                    pc = next;
                }
                (None, hist) => {
                    // Halt: fetch it, then stop fetching.
                    group.push((pc, d, pc + 1, hist));
                    self.halt_in_flight = true;
                    self.fetch_enabled = false;
                    break;
                }
            }
        }

        // Trim to available resources (RS space, RRS capacity).
        let rs_free = self.cfg.rs_entries.saturating_sub(self.waiting_seqs.len());
        let mut n = group.len().min(rs_free);
        loop {
            let dests = group[..n]
                .iter()
                .filter(|(_, d, _, _)| d.req.ldst.is_some())
                .count();
            if n == 0 || self.rrs.can_rename(n, dests) {
                break;
            }
            n -= 1;
        }
        if n < group.len() {
            self.stats.frontend_stalls += 1;
            // Couldn't take the whole group: refetch the rest next cycle,
            // unwinding the speculative history the trimmed tail shifted.
            if let Some(&(first_pc, _, _, hist)) = group.get(n) {
                self.fetch_pc = first_pc;
                self.predictor.set_history(hist);
            }
            // A trimmed group cannot include the halt/fault stop decisions
            // beyond position n.
            if self.halt_in_flight
                && !group[..n]
                    .iter()
                    .any(|(_, d, _, _)| matches!(d.ctrl, FetchCtrl::Halt))
            {
                self.halt_in_flight = false;
                self.fetch_enabled = true;
            }
            if self.fetch_fault.is_some() {
                self.fetch_fault = None;
                self.fetch_enabled = true;
            }
            group.truncate(n);
        } else if self.fetch_enabled {
            self.fetch_pc = pc;
        }
        if group.is_empty() {
            return Ok(());
        }

        reqs.clear();
        reqs.extend(group.iter().map(|(_, d, _, _)| d.req));
        self.rrs.rename_group_into(reqs, outs, hook, checkers)?;

        for ((pc, d, pred_next, bp_hist), out) in group.drain(..).zip(outs.drain(..)) {
            self.stats.renamed += 1;
            if out.eliminated {
                self.stats.eliminated_moves += 1;
            }
            if recorder.enabled() {
                // Fetch is recorded only for instructions the cycle kept:
                // a trimmed tail is refetched (and re-recorded) next cycle.
                recorder.record(self.cycle, ObsEvent::Fetch { pc: pc as u32 });
                recorder.record(
                    self.cycle,
                    ObsEvent::Rename {
                        pc: pc as u32,
                        seq: out.seq,
                        pdst: (!out.eliminated)
                            .then_some(out.new_pdst)
                            .flatten()
                            .map(|p| p.index() as u16),
                        eliminated: out.eliminated,
                    },
                );
            }
            if matches!(d.kind, idld_isa::InstKind::Store) {
                self.store_seqs.push_back(out.seq);
            }
            // Store-sets dispatch interactions (speculative mode only).
            let mut wait_for_store = None;
            if let Some(store_sets) = &mut self.store_sets {
                match d.kind {
                    idld_isa::InstKind::Store => {
                        store_sets.dispatch_store(pc as u64, StoreTag(out.seq));
                    }
                    idld_isa::InstKind::Load => {
                        wait_for_store = store_sets.dispatch_load(pc as u64).map(|t| t.0);
                    }
                    _ => {}
                }
            }
            if !out.eliminated {
                if let Some(p) = out.new_pdst {
                    self.ready[p.index()] = false;
                }
            }
            // Eliminated moves need no execution: their destination *is*
            // the source physical register, whose readiness the original
            // producer controls.
            let status = if d.no_exec || out.eliminated {
                Status::Done
            } else {
                self.waiting_seqs.push(out.seq);
                Status::Waiting
            };
            self.stat.push_back(status);
            self.src_lane.push_back(out.srcs);
            self.window.push_back(Entry {
                seq: out.seq,
                pc,
                inst: d.inst,
                srcs: out.srcs,
                new_pdst: out.new_pdst,
                pred_next,
                bp_hist,
                result: 0,
                addr: None,
                fault: None,
                mispredict_to: None,
                wait_for_store,
                forwarded_from: None,
            });
        }
        Ok(())
    }
}

/// A capture of a [`Simulator`]'s mutable state at a cycle boundary,
/// except data memory, plus the attached checker state.
///
/// Produced by [`Simulator::snapshot`], consumed by
/// [`Simulator::restore_from_arch`], which rebuilds memory from the
/// in-order emulator behind the bit-exactness gate. The restored
/// simulator continues bit-for-bit identically to one that never
/// stopped — same commits, same cycles, same checker verdicts — which is
/// what lets a fault-injection campaign fork thousands of runs off one
/// golden prefix instead of re-simulating it each time.
///
/// The per-cycle scratch buffers (`fetch_buf` and friends) are *not*
/// captured: they are empty at every cycle boundary by construction. Nor
/// is a recorder: a recorded run forks its recorder by cloning it.
#[derive(Clone)]
pub struct SimSnapshot {
    rrs: Rrs,
    prf: Vec<u64>,
    ready: Vec<bool>,
    window: VecDeque<Entry>,
    stat: VecDeque<Status>,
    predictor: Predictor,
    fetch_pc: usize,
    fetch_enabled: bool,
    fetch_fault: Option<usize>,
    halt_in_flight: bool,
    pending_flush: Option<(u64, usize)>,
    redirect_after_recovery: Option<usize>,
    cycle: u64,
    output: Vec<u64>,
    committed: u64,
    stats: SimStats,
    store_sets: Option<StoreSets>,
    checkers: CheckerSet,
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("cycle", &self.cycle)
            .field("committed", &self.committed)
            .field("window_depth", &self.window.len())
            .finish_non_exhaustive()
    }
}

impl SimSnapshot {
    /// The cycle the snapshot was taken at.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions committed up to the snapshot point.
    #[inline]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The fast-forward bit-exactness gate: checks that `emu`, advanced to
    /// exactly this snapshot's committed instruction count, agrees with
    /// the snapshot's committed architectural view — register file (read
    /// through the retirement RAT), output stream, and next-to-execute pc
    /// (the window head's pc; when the window is drained, the fetch pc).
    ///
    /// Snapshots are taken on the bug-free prefix of golden runs, where
    /// the two engines are architecturally equivalent by contract, so any
    /// disagreement here is an emulator-vs-OoO divergence — exactly what
    /// fast-forwarding must turn into a hard failure instead of silently
    /// corrupting a campaign.
    pub fn verify_arch(&self, emu: &Emulator) -> Result<(), FfDivergence> {
        if emu.steps() != self.committed {
            return Err(FfDivergence::Steps {
                emu: emu.steps(),
                snap: self.committed,
            });
        }
        for arch in 0..NUM_ARCH_REGS {
            let snap = self.prf[self.rrs.rrat_lookup(arch).index()];
            let emu_v = emu.regs()[arch];
            if emu_v != snap {
                return Err(FfDivergence::Reg {
                    arch,
                    emu: emu_v,
                    snap,
                });
            }
        }
        if emu.output() != self.output {
            return Err(FfDivergence::Output {
                emu_len: emu.output().len(),
                snap_len: self.output.len(),
            });
        }
        let snap_pc = match self.window.front() {
            Some(front) => Some(front.pc),
            // Drained window: everything fetched has committed, so the
            // fetch pc is the architectural next pc — unless fetch already
            // stopped on an invalid pc or recovery is mid-walk, where no
            // single "next pc" exists to compare.
            None if self.fetch_fault.is_none() && !self.rrs.recovery_active() => {
                Some(self.fetch_pc)
            }
            None => None,
        };
        if let Some(snap_pc) = snap_pc {
            if emu.pc() != snap_pc {
                return Err(FfDivergence::Pc {
                    emu: emu.pc(),
                    snap: snap_pc,
                });
            }
        }
        Ok(())
    }

    /// Structural equality of the captured *simulator* state (checker
    /// state excluded — trait objects have no general equality; compare
    /// their detections instead). Memory is not captured, so compare
    /// [`Simulator::mem`] as well. Used by determinism tests to prove a
    /// forked run converges to the same final state as an uninterrupted
    /// one.
    pub fn state_eq(&self, other: &SimSnapshot) -> bool {
        self.rrs == other.rrs
            && self.prf == other.prf
            && self.ready == other.ready
            && self.window == other.window
            && self.stat == other.stat
            && self.predictor == other.predictor
            && self.fetch_pc == other.fetch_pc
            && self.fetch_enabled == other.fetch_enabled
            && self.fetch_fault == other.fetch_fault
            && self.halt_in_flight == other.halt_in_flight
            && self.pending_flush == other.pending_flush
            && self.redirect_after_recovery == other.redirect_after_recovery
            && self.cycle == other.cycle
            && self.output == other.output
            && self.committed == other.committed
            && self.stats == other.stats
            && self.store_sets == other.store_sets
    }
}

/// A divergence caught by the fast-forward bit-exactness gate
/// ([`SimSnapshot::verify_arch`]): the in-order emulator, advanced to the
/// hand-off instruction count, disagrees with the cycle-accurate
/// snapshot's committed architectural view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FfDivergence {
    /// The emulator is not at the snapshot's committed instruction count.
    Steps {
        /// Emulator steps executed.
        emu: u64,
        /// Snapshot committed-instruction count.
        snap: u64,
    },
    /// An architectural register differs between the emulator and the
    /// snapshot's retirement-RAT view.
    Reg {
        /// Architectural register number.
        arch: usize,
        /// Emulator value.
        emu: u64,
        /// Snapshot (retirement-RAT) value.
        snap: u64,
    },
    /// The output streams differ.
    Output {
        /// Emulator output length.
        emu_len: usize,
        /// Snapshot output length.
        snap_len: usize,
    },
    /// The next-to-execute pc differs.
    Pc {
        /// Emulator pc.
        emu: usize,
        /// Snapshot view of the next-to-commit pc.
        snap: usize,
    },
}

impl std::fmt::Display for FfDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FfDivergence::Steps { emu, snap } => {
                write!(f, "emulator at step {emu}, snapshot committed {snap}")
            }
            FfDivergence::Reg { arch, emu, snap } => {
                write!(f, "r{arch}: emulator {emu:#x} vs committed view {snap:#x}")
            }
            FfDivergence::Output { emu_len, snap_len } => write!(
                f,
                "output streams differ (emulator {emu_len} values, snapshot {snap_len})"
            ),
            FfDivergence::Pc { emu, snap } => {
                write!(f, "next pc: emulator {emu} vs snapshot {snap}")
            }
        }
    }
}

impl std::error::Error for FfDivergence {}

/// A simulation run driven in resumable slices.
///
/// Created by [`Simulator::begin_run`]; owns the run-scoped bookkeeping
/// (commit trace, divergence monitor) that the one-shot entry points kept
/// on the stack. Call [`SegmentedRun::step_until`] to advance to chosen
/// pause cycles — taking [`SimSnapshot`]s at each boundary — then
/// [`SegmentedRun::run_to_end`] and [`SegmentedRun::finish`].
pub struct SegmentedRun<'g> {
    trace: CommitTrace,
    monitor: Option<TraceMonitor<'g>>,
    record: bool,
    max_cycles: u64,
}

impl<'g> SegmentedRun<'g> {
    /// Advances the run until `sim.cycle() >= pause_at`, the cycle budget,
    /// or a terminal stop. Returns `None` when paused (the run can
    /// continue), `Some(stop)` when the run ended.
    pub fn step_until(
        &mut self,
        sim: &mut Simulator<'_>,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        pause_at: u64,
    ) -> Option<SimStop> {
        self.step_until_observed(sim, hook, checkers, pause_at, &mut NullRecorder)
    }

    /// [`SegmentedRun::step_until`] with an event recorder attached.
    pub fn step_until_observed(
        &mut self,
        sim: &mut Simulator<'_>,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        pause_at: u64,
        recorder: &mut impl Recorder,
    ) -> Option<SimStop> {
        sim.main_loop(
            hook,
            checkers,
            &mut self.trace,
            &mut self.monitor,
            self.record,
            self.max_cycles,
            None,
            Some(pause_at),
            recorder,
        )
    }

    /// Runs to a terminal stop (no more pauses).
    ///
    /// When `interrupt` becomes true the run stops with
    /// [`SimStop::CycleLimit`] at the next budget check (polled every
    /// 1024 cycles). Every caller in the workspace passes `None`; the
    /// parameter stays only because the repository benchmark's per-layer
    /// replay (`benchmark/src/trace.rs`) calls this signature, and it goes
    /// when that replay is deleted in favour of the campaign's own probe.
    pub fn run_to_end(
        &mut self,
        sim: &mut Simulator<'_>,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        interrupt: Option<&std::sync::atomic::AtomicBool>,
    ) -> SimStop {
        sim.main_loop(
            hook,
            checkers,
            &mut self.trace,
            &mut self.monitor,
            self.record,
            self.max_cycles,
            interrupt,
            None,
            &mut NullRecorder,
        )
        .expect("run_to_end never pauses")
    }

    /// [`SegmentedRun::run_to_end`] with an event recorder attached.
    pub fn run_to_end_observed(
        &mut self,
        sim: &mut Simulator<'_>,
        hook: &mut impl FaultHook,
        checkers: &mut CheckerSet,
        recorder: &mut impl Recorder,
    ) -> SimStop {
        sim.main_loop(
            hook,
            checkers,
            &mut self.trace,
            &mut self.monitor,
            self.record,
            self.max_cycles,
            None,
            None,
            recorder,
        )
        .expect("run_to_end never pauses")
    }

    /// Consumes the run and packages the [`RunResult`].
    pub fn finish(
        self,
        sim: &mut Simulator<'_>,
        stop: SimStop,
        checkers: &mut CheckerSet,
    ) -> RunResult {
        sim.finish_run(stop, self.trace, self.monitor, checkers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idld_isa::reg::r;
    use idld_isa::{Asm, Emulator, StopReason};
    use idld_rrs::NoFaults;

    fn run_prog(a: Asm, width: usize) -> RunResult {
        let p = a.finish();
        let mut sim = Simulator::new(&p, SimConfig::with_width(width));
        sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 1_000_000)
    }

    fn check_against_emulator(a: Asm, widths: &[usize]) {
        let p = a.finish();
        let mut emu = Emulator::new(&p);
        let expected = emu.run(10_000_000);
        assert_eq!(expected.stop, StopReason::Halted, "test program must halt");
        for &w in widths {
            let mut sim = Simulator::new(&p, SimConfig::with_width(w));
            let got = sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 100_000_000);
            assert_eq!(got.stop, SimStop::Halted, "width {w}");
            assert_eq!(got.output, expected.output, "width {w}");
            assert_eq!(got.committed, expected.steps, "width {w}");
        }
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Asm::new();
        a.li(r(1), 6)
            .li(r(2), 7)
            .mul(r(3), r(1), r(2))
            .out(r(3))
            .halt();
        let res = run_prog(a, 4);
        assert_eq!(res.stop, SimStop::Halted);
        assert_eq!(res.output, vec![42]);
        assert!(res.final_contents.is_exact_partition());
    }

    #[test]
    fn loop_matches_emulator_at_all_widths() {
        let mut a = Asm::new();
        a.li(r(1), 0).li(r(2), 50);
        a.label("loop");
        a.add(r(1), r(1), r(2));
        a.addi(r(2), r(2), -1);
        a.bne(r(2), r(0), "loop");
        a.out(r(1)).halt();
        check_against_emulator(a, &[1, 2, 4, 6, 8]);
    }

    #[test]
    fn memory_and_forwarding_matches_emulator() {
        let mut a = Asm::new();
        a.li(r(10), 256); // base
        a.li(r(1), 0);
        a.li(r(2), 20);
        a.label("w");
        a.slli(r(3), r(1), 3);
        a.add(r(3), r(3), r(10));
        a.mul(r(4), r(1), r(1));
        a.st(r(4), r(3), 0);
        a.ld(r(5), r(3), 0); // immediate reload → forwarding
        a.out(r(5));
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "w");
        a.halt();
        check_against_emulator(a, &[1, 4, 8]);
    }

    #[test]
    fn partially_overlapping_store_under_speculative_load_replays() {
        // Minimized from fuzz seed 0xcafebabe iter 09805: with memory
        // dependence speculation on, the 4-byte load at 88 issues past the
        // unresolved 8-byte store at 89; the store then resolves to a
        // partially overlapping address while the load is still in flight,
        // where the violation scan cannot see it (its address is recorded
        // only at completion). The load must replay after the store
        // commits instead of completing with stale memory bytes.
        let mut a = Asm::new();
        a.li(r(5), 415);
        a.ldb(r(21), r(31), 2851); // keeps the load port busy a cycle
        a.st(r(5), r(31), 89);
        a.ldw(r(6), r(31), 88);
        a.out(r(6));
        a.halt();
        let p = a.finish();
        let mut emu = Emulator::new(&p);
        let expected = emu.run(10_000);
        assert_eq!(expected.stop, StopReason::Halted);
        for w in [1, 2, 4, 8] {
            for spec in [false, true] {
                let mut cfg = SimConfig::with_width(w);
                cfg.mem_dep_speculation = spec;
                let mut sim = Simulator::new(&p, cfg);
                let got = sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 100_000);
                assert_eq!(got.stop, SimStop::Halted, "width {w} spec {spec}");
                assert_eq!(got.output, expected.output, "width {w} spec {spec}");
            }
        }
    }

    #[test]
    fn data_dependent_branches_match_emulator() {
        // Alternating hard-to-predict branches exercise flush recovery.
        let mut a = Asm::new();
        a.li(r(1), 0); // i
        a.li(r(2), 64);
        a.li(r(5), 0); // acc
        a.li(r(6), 1); // lfsr-ish state
        a.label("loop");
        a.muli(r(6), r(6), 1103515245);
        a.addi(r(6), r(6), 12345);
        a.srli(r(7), r(6), 16);
        a.andi(r(7), r(7), 1);
        a.beq(r(7), r(0), "even");
        a.addi(r(5), r(5), 3);
        a.j("next");
        a.label("even");
        a.addi(r(5), r(5), 5);
        a.label("next");
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "loop");
        a.out(r(5)).halt();
        check_against_emulator(a, &[1, 2, 4, 8]);
    }

    #[test]
    fn calls_and_returns_match_emulator() {
        let mut a = Asm::new();
        a.li(r(10), 7);
        a.li(r(11), 0);
        a.li(r(12), 6);
        a.label("loop");
        a.jal(r(1), "square");
        a.add(r(11), r(11), r(10));
        a.addi(r(10), r(10), -1);
        a.addi(r(12), r(12), -1);
        a.bne(r(12), r(0), "loop");
        a.out(r(11)).halt();
        a.label("square");
        a.mul(r(10), r(10), r(10));
        a.jalr(r(2), r(1), 0);
        check_against_emulator(a, &[1, 4]);
    }

    #[test]
    fn commit_trace_is_deterministic() {
        let mut a = Asm::new();
        a.li(r(1), 0).li(r(2), 30);
        a.label("loop");
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "loop");
        a.out(r(1)).halt();
        let p = a.finish();
        let run = |p: &Program| {
            let mut sim = Simulator::new(p, SimConfig::default());
            sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 100_000)
        };
        let r1 = run(&p);
        let r2 = run(&p);
        assert_eq!(r1.trace, r2.trace);
        assert_eq!(r1.cycles, r2.cycles);
    }

    #[test]
    fn golden_comparison_of_identical_run_shows_no_divergence() {
        let mut a = Asm::new();
        a.li(r(1), 5).out(r(1)).halt();
        let p = a.finish();
        let golden = {
            let mut sim = Simulator::new(&p, SimConfig::default());
            sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 10_000)
        };
        let mut sim = Simulator::new(&p, SimConfig::default());
        let rerun = sim.run(
            &mut NoFaults,
            &mut CheckerSet::new(),
            Some(&golden.trace),
            10_000,
        );
        assert!(!rerun.divergence.any());
    }

    #[test]
    fn memory_fault_crashes_at_commit() {
        let mut a = Asm::new();
        a.li(r(1), 1 << 40);
        a.ld(r(2), r(1), 0);
        a.halt();
        let res = run_prog(a, 4);
        match res.stop {
            SimStop::Crash(CrashCause::MemFault { addr, .. }) => assert_eq!(addr, 1 << 40),
            other => panic!("expected crash, got {other:?}"),
        }
    }

    #[test]
    fn wrong_path_fault_is_squashed() {
        // A predicted-taken... actually: branch that is *not* taken but the
        // predictor (weakly-taken at reset) predicts taken, sending fetch
        // into a faulting path that must be squashed harmlessly.
        let mut a = Asm::new();
        a.li(r(1), 1);
        a.li(r(9), 1 << 40);
        a.beq(r(1), r(0), "poison"); // not taken, predicted taken at reset
        a.li(r(3), 42);
        a.out(r(3)).halt();
        a.label("poison");
        a.ld(r(4), r(9), 0); // would fault if committed
        a.halt();
        let res = run_prog(a, 4);
        assert_eq!(res.stop, SimStop::Halted);
        assert_eq!(res.output, vec![42]);
        assert!(res.final_contents.is_exact_partition());
    }

    #[test]
    fn running_off_the_end_crashes() {
        let mut a = Asm::new();
        a.li(r(1), 3);
        a.nop();
        let res = run_prog(a, 2);
        assert!(
            matches!(res.stop, SimStop::Crash(CrashCause::InvalidPc(2))),
            "{:?}",
            res.stop
        );
    }

    #[test]
    fn cycle_limit_reported() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let p = a.finish();
        let mut sim = Simulator::new(&p, SimConfig::default());
        let res = sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 500);
        assert_eq!(res.stop, SimStop::CycleLimit);
        assert_eq!(res.cycles, 500);
    }

    #[test]
    fn wider_cores_are_not_slower() {
        let mut a = Asm::new();
        a.li(r(1), 0).li(r(2), 200);
        a.label("loop");
        a.addi(r(3), r(1), 5);
        a.muli(r(4), r(3), 3);
        a.xori(r(5), r(4), 0x55);
        a.add(r(6), r(5), r(3));
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "loop");
        a.out(r(6)).halt();
        let p = a.finish();
        let cycles = |w: usize| {
            let mut sim = Simulator::new(&p, SimConfig::with_width(w));
            let res = sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 1_000_000);
            assert_eq!(res.stop, SimStop::Halted);
            res.cycles
        };
        let c1 = cycles(1);
        let c4 = cycles(4);
        assert!(c4 < c1, "width 4 ({c4}) should beat width 1 ({c1})");
    }

    /// A branchy, memory-heavy program for the snapshot tests.
    fn snapshot_workload() -> Program {
        seeded_workload(1)
    }

    fn seeded_workload(seed: i64) -> Program {
        let mut a = Asm::new();
        a.li(r(10), 512);
        a.li(r(1), 0);
        a.li(r(2), 40);
        a.li(r(5), seed);
        a.label("loop");
        a.muli(r(5), r(5), 1103515245);
        a.addi(r(5), r(5), 12345);
        a.andi(r(6), r(5), 7);
        a.slli(r(7), r(1), 3);
        a.add(r(7), r(7), r(10));
        a.st(r(6), r(7), 0);
        a.ld(r(8), r(7), 0);
        a.beq(r(6), r(0), "skip");
        a.out(r(8));
        a.label("skip");
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "loop");
        a.out(r(5)).halt();
        a.finish()
    }

    /// An emulator of `p` advanced to `snap`'s committed count: the
    /// memory source and gate input of [`Simulator::restore_from_arch`].
    fn emu_at(p: &Program, snap: &SimSnapshot) -> Emulator {
        let mut emu = Emulator::new(p);
        emu.run_to_step(snap.committed()).expect("clean prefix");
        emu
    }

    #[test]
    fn restored_run_is_bit_identical_to_uninterrupted() {
        use idld_core::IdldChecker;
        let p = snapshot_workload();
        let cfg = SimConfig::default();

        // Uninterrupted reference run.
        let mut ref_checkers = CheckerSet::new();
        ref_checkers.push(Box::new(IdldChecker::new(&cfg.rrs)));
        let mut ref_sim = Simulator::new(&p, cfg);
        let mut ref_seg = ref_sim.begin_run(None, 100_000);
        let ref_stop = ref_seg.run_to_end(&mut ref_sim, &mut NoFaults, &mut ref_checkers, None);
        let ref_final = ref_sim.snapshot(&ref_checkers);
        let ref_res = ref_seg.finish(&mut ref_sim, ref_stop, &mut ref_checkers);
        assert_eq!(ref_res.stop, SimStop::Halted);

        // Paused run: snapshot mid-flight, fork into a FRESH simulator.
        let mut checkers = CheckerSet::new();
        checkers.push(Box::new(IdldChecker::new(&cfg.rrs)));
        let mut sim = Simulator::new(&p, cfg);
        let mut seg = sim.begin_run(None, 100_000);
        let paused = seg.step_until(&mut sim, &mut NoFaults, &mut checkers, ref_res.cycles / 2);
        assert_eq!(paused, None, "workload runs past the pause point");
        let snap = sim.snapshot(&checkers);
        assert!(snap.cycle() >= ref_res.cycles / 2);

        // The emulator reconstructs memory; the gate passes; the resumed
        // run is bit-identical to the uninterrupted one.
        let mut fork_checkers = CheckerSet::new();
        let mut fork = Simulator::new(&p, cfg);
        fork.restore_from_arch(&snap, &emu_at(&p, &snap), &mut fork_checkers)
            .expect("bit-exactness gate passes on the golden prefix");
        assert_eq!(fork.mem(), sim.mem(), "memory rebuilt at the pause point");
        let mut fseg = fork.begin_run(None, 100_000);
        let stop = fseg.run_to_end(&mut fork, &mut NoFaults, &mut fork_checkers, None);
        let fork_final = fork.snapshot(&fork_checkers);
        let fork_res = fseg.finish(&mut fork, stop, &mut fork_checkers);

        assert_eq!(fork_res.stop, SimStop::Halted);
        assert_eq!(fork_res.cycles, ref_res.cycles);
        assert_eq!(fork_res.committed, ref_res.committed);
        assert_eq!(fork_res.output, ref_res.output);
        assert_eq!(fork_res.stats, ref_res.stats);
        assert!(
            fork_final.state_eq(&ref_final),
            "forked run converges to the uninterrupted final state"
        );
        assert_eq!(fork.mem(), ref_sim.mem(), "final memory");
        assert_eq!(
            fork_checkers.detections(),
            ref_checkers.detections(),
            "checker verdicts survive the snapshot/restore"
        );
    }

    #[test]
    #[should_panic(expected = "fast-forward bit-exactness gate")]
    fn restore_refuses_a_snapshot_of_another_program() {
        let cfg = SimConfig::default();
        let p = snapshot_workload();
        let mut sim = Simulator::new(&p, cfg);
        let mut seg = sim.begin_run(None, 100_000);
        assert_eq!(
            seg.step_until(&mut sim, &mut NoFaults, &mut CheckerSet::new(), 200),
            None
        );
        let snap = sim.snapshot(&CheckerSet::new());

        // Same code, other seed: the emulator reaches the step count, but
        // its registers disagree with the snapshot's.
        let other = seeded_workload(3);
        Simulator::new(&other, cfg).restore(&snap, &mut CheckerSet::new());
    }

    #[test]
    fn resumed_golden_comparison_sees_no_divergence() {
        let p = snapshot_workload();
        let cfg = SimConfig::default();

        let golden = {
            let mut sim = Simulator::new(&p, cfg);
            sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 100_000)
        };

        // Pause a fresh run mid-flight, then resume it in a NEW simulator
        // comparing against the golden trace: the monitor joins at the
        // restored commit position and must see a clean suffix.
        let mut checkers = CheckerSet::new();
        let mut sim = Simulator::new(&p, cfg);
        let mut seg = sim.begin_run(Some(&golden.trace), 100_000);
        assert_eq!(
            seg.step_until(&mut sim, &mut NoFaults, &mut checkers, golden.cycles / 3),
            None
        );
        let snap = sim.snapshot(&checkers);

        let mut rchk = CheckerSet::new();
        let mut resumed = Simulator::new(&p, cfg);
        resumed
            .restore_from_arch(&snap, &emu_at(&p, &snap), &mut rchk)
            .expect("gate passes");
        let mut rseg = resumed.begin_run(Some(&golden.trace), 100_000);
        let stop = rseg.run_to_end(&mut resumed, &mut NoFaults, &mut rchk, None);
        let res = rseg.finish(&mut resumed, stop, &mut rchk);
        assert_eq!(res.stop, SimStop::Halted);
        assert!(!res.divergence.any(), "{:?}", res.divergence);
    }

    #[test]
    fn step_until_past_the_end_returns_the_stop() {
        let p = snapshot_workload();
        let mut sim = Simulator::new(&p, SimConfig::default());
        let mut checkers = CheckerSet::new();
        let mut seg = sim.begin_run(None, 100_000);
        let stop = seg.step_until(&mut sim, &mut NoFaults, &mut checkers, u64::MAX);
        assert_eq!(stop, Some(SimStop::Halted));
    }

    #[test]
    fn observed_run_records_the_pipeline_and_matches_unobserved() {
        use idld_core::IdldChecker;
        use idld_obs::{EventKind, RingRecorder};
        let p = snapshot_workload();
        let cfg = SimConfig::default();

        let plain = {
            let mut sim = Simulator::new(&p, cfg);
            sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 100_000)
        };

        let mut checkers = CheckerSet::new();
        checkers.push(Box::new(IdldChecker::new(&cfg.rrs)));
        let mut rec = RingRecorder::default();
        let mut sim = Simulator::new(&p, cfg);
        let res = sim.run_observed(&mut NoFaults, &mut checkers, None, 100_000, &mut rec);

        // Observation must not perturb the simulation.
        assert_eq!(res.stop, plain.stop);
        assert_eq!(res.cycles, plain.cycles);
        assert_eq!(res.output, plain.output);
        assert_eq!(res.trace, plain.trace);

        // The stream accounts for the whole run.
        assert_eq!(res.committed, rec.count_of(EventKind::Commit));
        assert_eq!(res.stats.renamed, rec.count_of(EventKind::Rename));
        assert_eq!(res.stats.renamed, rec.count_of(EventKind::Fetch));
        assert_eq!(res.stats.issued, rec.count_of(EventKind::Issue));
        assert_eq!(
            res.stats.flushes,
            rec.count_of(EventKind::Flush),
            "one flush event per flush"
        );
        assert!(rec.count_of(EventKind::Occupancy) > 0);
        assert!(
            rec.count_of(EventKind::Checker) >= 1,
            "idld code changes were observed"
        );
    }

    #[test]
    fn forked_observed_run_emits_byte_identical_trace() {
        use idld_core::IdldChecker;
        use idld_obs::RingRecorder;
        let p = snapshot_workload();
        let cfg = SimConfig::default();

        // Cold observed run, uninterrupted.
        let mut cold_chk = CheckerSet::new();
        cold_chk.push(Box::new(IdldChecker::new(&cfg.rrs)));
        let mut cold_rec = RingRecorder::default();
        let mut cold = Simulator::new(&p, cfg);
        let cold_res =
            cold.run_observed(&mut NoFaults, &mut cold_chk, None, 100_000, &mut cold_rec);
        assert_eq!(cold_res.stop, SimStop::Halted);

        // Observed run paused mid-flight.
        let mut chk = CheckerSet::new();
        chk.push(Box::new(IdldChecker::new(&cfg.rrs)));
        let mut rec = RingRecorder::default();
        let mut sim = Simulator::new(&p, cfg);
        let mut seg = sim.begin_run(None, 100_000);
        assert_eq!(
            seg.step_until_observed(
                &mut sim,
                &mut NoFaults,
                &mut chk,
                cold_res.cycles / 2,
                &mut rec
            ),
            None
        );
        let snap = sim.snapshot(&chk);

        // Fork into a fresh simulator and a clone of the paused recorder.
        let mut fchk = CheckerSet::new();
        let mut frec = rec.clone();
        let mut fork = Simulator::new(&p, cfg);
        fork.restore_from_arch(&snap, &emu_at(&p, &snap), &mut fchk)
            .expect("gate passes");
        let mut fseg = fork.begin_run(None, 100_000);
        let stop = fseg.run_to_end_observed(&mut fork, &mut NoFaults, &mut fchk, &mut frec);
        let fres = fseg.finish(&mut fork, stop, &mut fchk);

        assert_eq!(fres.stop, SimStop::Halted);
        assert_eq!(frec.digest(), cold_rec.digest(), "stream digests agree");
        assert_eq!(frec.total(), cold_rec.total());
        assert_eq!(frec.counts(), cold_rec.counts());
        assert!(frec.events().eq(cold_rec.events()), "retained tails agree");
    }

    #[test]
    fn jalr_beyond_program_matches_emulator() {
        // Minimized reproducer: results/fuzz/corpus/emu-jalr-wrap-target.asm.
        // Surfaced by the fast-forward bit-exactness gate: the emulator used
        // to truncate an out-of-range jalr target into a valid pc while the
        // OoO model clamps it to `usize::MAX` and faults at the next fetch.
        // Both engines must now crash at the same (clamped) pc with the same
        // architectural state — the wrong-path `out` behind the alias pc
        // must never retire.
        let mut a = Asm::new();
        a.li(r(1), 0x1_0000_0003u64 as i64); // aliases pc 3 if truncated
        a.jalr(r(3), r(1), 0);
        a.halt();
        a.out(r(1)); // pc 3: the alias target a truncating engine runs
        a.halt();
        let p = a.finish();

        let mut emu = Emulator::new(&p);
        let eres = emu.run(1_000);
        let clamped = (0x1_0000_0003u64).min(usize::MAX as u64) as usize;
        assert_eq!(
            eres.stop,
            StopReason::Fault(idld_isa::EmuFault::InvalidPc(clamped))
        );

        for w in [1, 2, 4, 8] {
            let mut sim = Simulator::new(&p, SimConfig::with_width(w));
            let got = sim.run(&mut NoFaults, &mut CheckerSet::new(), None, 100_000);
            assert_eq!(
                got.stop,
                SimStop::Crash(CrashCause::InvalidPc(clamped)),
                "width {w}"
            );
            assert_eq!(got.output, eres.output, "width {w}");
            // The fault contract: the emulator stops *before* executing the
            // instruction at the bad pc, the simulator commits everything
            // older than the faulting fetch — both agree on the retired
            // prefix (li + jalr).
            assert_eq!(got.committed, eres.steps, "width {w}");
        }
    }

    #[test]
    fn verify_arch_refuses_a_diverged_emulator() {
        let p = snapshot_workload();
        let cfg = SimConfig::default();
        let mut checkers = CheckerSet::new();
        let mut sim = Simulator::new(&p, cfg);
        let mut seg = sim.begin_run(None, 100_000);
        assert_eq!(
            seg.step_until(&mut sim, &mut NoFaults, &mut checkers, 200),
            None
        );
        let snap = sim.snapshot(&checkers);
        let target = snap.committed();
        assert!(target > 0, "pause point retires instructions");

        // Wrong step count → Steps divergence.
        let mut emu = Emulator::new(&p);
        emu.run_to_step(target - 1).unwrap();
        assert!(matches!(
            snap.verify_arch(&emu),
            Err(FfDivergence::Steps { .. })
        ));

        // Right step count but corrupted register → Reg divergence, and
        // restore_from_arch must refuse without touching the simulator.
        emu.run_to_step(target).unwrap();
        snap.verify_arch(&emu).expect("clean prefix verifies");
        let mut bad = Emulator::new(&p);
        bad.run_to_step(target).unwrap();
        bad.set_reg(r(5), bad.reg(r(5)) ^ 1);
        let err = snap.verify_arch(&bad).unwrap_err();
        assert!(matches!(err, FfDivergence::Reg { .. }), "{err}");
        let mut fchk = CheckerSet::new();
        let mut fork = Simulator::new(&p, cfg);
        assert!(fork.restore_from_arch(&snap, &bad, &mut fchk).is_err());
    }

    #[test]
    fn idld_checker_stays_clean_through_real_execution() {
        use idld_core::IdldChecker;
        let mut a = Asm::new();
        a.li(r(1), 0).li(r(2), 300);
        a.label("loop");
        a.muli(r(3), r(1), 7);
        a.andi(r(4), r(3), 63);
        a.beq(r(4), r(0), "skip");
        a.add(r(5), r(5), r(4));
        a.label("skip");
        a.addi(r(1), r(1), 1);
        a.blt(r(1), r(2), "loop");
        a.out(r(5)).halt();
        let p = a.finish();
        let cfg = SimConfig::default();
        let mut checkers = CheckerSet::new();
        checkers.push(Box::new(IdldChecker::new(&cfg.rrs)));
        let mut sim = Simulator::new(&p, cfg);
        let res = sim.run(&mut NoFaults, &mut checkers, None, 1_000_000);
        assert_eq!(res.stop, SimStop::Halted);
        assert_eq!(
            checkers.detection_of("idld"),
            None,
            "no false positives across thousands of cycles with flush recovery"
        );
    }
}
