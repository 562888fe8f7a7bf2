//! The assembled register renaming subsystem: rename, retire, recover.

use crate::ckpt::CkptTable;
use crate::config::RrsConfig;
use crate::event::{EventSink, RrsEvent};
use crate::fault::{FaultHook, OpSite};
use crate::freelist::FreeList;
use crate::phys::PhysReg;
use crate::rat::Rat;
use crate::rht::{Rht, RhtEntry};
use crate::rob::{Rob, RobMeta};
use std::fmt;

/// A hardware condition the model cannot service — the simulator maps these
/// to the paper's **Assert** outcome class (§VI.C: "the simulator cannot
/// decide how a real system would behave").
///
/// None of these are reachable without an injected bug.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RrsAssert {
    /// Free-list push with full pointers (double reclamation).
    FlOverflow,
    /// Allocation found the free list empty despite a capacity check.
    FlUnderflow,
    /// ROB allocation with full pointers.
    RobOverflow,
    /// Retirement from an empty ROB.
    RobUnderflow,
    /// RHT append with full pointers.
    RhtOverflow,
    /// Recovery pointer restore became self-contradictory.
    RecoveryBroken,
}

impl fmt::Display for RrsAssert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RrsAssert::FlOverflow => "free list overflow",
            RrsAssert::FlUnderflow => "free list underflow",
            RrsAssert::RobOverflow => "rob overflow",
            RrsAssert::RobUnderflow => "rob underflow",
            RrsAssert::RhtOverflow => "rht overflow",
            RrsAssert::RecoveryBroken => "recovery pointers inconsistent",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RrsAssert {}

/// The hardwired constant an idiom instruction produces (§V.E).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Idiom {
    /// The instruction writes the constant 0.
    Zero,
    /// The instruction writes the constant 1.
    One,
}

/// A rename request for one instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RenameRequest {
    /// Architectural destination, if the instruction writes a register.
    pub ldst: Option<usize>,
    /// Architectural sources (up to two).
    pub srcs: [Option<usize>; 2],
    /// True for a register-move (`rd = rs`) eligible for move elimination.
    /// The move source must be `srcs[0]`; honored only when
    /// [`RrsConfig::move_elim`] is set.
    pub is_move: bool,
    /// Set when the instruction is a recognized 0/1 idiom; honored only
    /// when [`RrsConfig::idiom_elim`] is set.
    pub idiom: Option<Idiom>,
}

/// The renamer's answer for one instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RenameOut {
    /// Reliable allocation sequence number (used as the flush point handle).
    pub seq: u64,
    /// Renamed physical sources.
    pub srcs: [Option<PhysReg>; 2],
    /// The allocated physical destination (the register the instruction
    /// will actually write — allocation is on the datapath, before any
    /// corruptible RAT write). For an eliminated move this is the aliased
    /// source register, which the instruction must *not* write.
    pub new_pdst: Option<PhysReg>,
    /// True if the instruction was move-eliminated: no FL allocation
    /// happened and the instruction needs no execution.
    pub eliminated: bool,
}

/// The outcome of retiring the ROB head.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommitOut {
    /// The PdstID reclaimed into the free list (possibly stale under bugs).
    pub reclaimed: Option<PhysReg>,
}

/// A census of where every PdstID currently resides.
///
/// Used by the persistence analysis (paper Figure 4): after a program
/// terminates and the pipeline drains, any deviation from "each id exactly
/// once across FL ∪ RAT ∪ ROB" is a bug effect that persists until reset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ContentSnapshot {
    /// `counts[p]` = number of occurrences of PdstID `p`.
    pub counts: Vec<u32>,
}

impl ContentSnapshot {
    /// True if every PdstID occurs exactly once — the RRS invariant.
    pub fn is_exact_partition(&self) -> bool {
        self.counts.iter().all(|&c| c == 1)
    }

    /// PdstIDs that have disappeared (leaked).
    pub fn leaked(&self) -> Vec<PhysReg> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(i, _)| PhysReg(i as u16))
            .collect()
    }

    /// PdstIDs that occur more than once (duplicated).
    pub fn duplicated(&self) -> Vec<PhysReg> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 1)
            .map(|(i, _)| PhysReg(i as u16))
            .collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RecoveryPhase {
    PositiveWalk,
    NegativeWalk,
    TailRestore,
}

#[derive(Clone, PartialEq, Eq, Debug)]
struct Recovery {
    offending: u64,
    phase: RecoveryPhase,
    /// Positive-walk cursor (ascending to `offending`, inclusive).
    pos: u64,
    /// Negative-walk cursor: next entry processed is `neg - 1`; descends
    /// until `neg == offending + 1`.
    neg: u64,
    /// Safety valve against bug-induced non-terminating walks.
    steps: u64,
}

/// The register renaming subsystem, assembled.
///
/// The simulator drives it with three operations per cycle bundle:
/// [`Rrs::rename_group`] at rename, [`Rrs::commit_head`] at retirement, and
/// [`Rrs::start_recovery`]/[`Rrs::step_recovery`] around pipeline flushes.
/// All PdstID movement flows through [`FaultHook`]-guarded ports that report
/// to the [`EventSink`] — see the crate docs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rrs {
    cfg: RrsConfig,
    fl: FreeList,
    rat: Rat,
    rrat: Vec<PhysReg>,
    rob: Rob,
    rht: Rht,
    ckpts: CkptTable,
    /// Per-PdstID count of speculative-RAT references. All ones for mapped
    /// ids unless move elimination creates aliases; an eviction reclaims
    /// the id only when its count returns to zero (§V.E).
    refcount: Vec<i32>,
    /// Per-PdstID count of retirement-RAT references.
    rrat_refcount: Vec<i32>,
    /// Reliable count of renamed instructions == next allocation sequence.
    renamed: u64,
    /// Reliable count of retired instructions == oldest live sequence.
    committed: u64,
    recovery: Option<Recovery>,
}

impl Rrs {
    /// Creates a power-on RRS: RAT maps logical `i` to physical `i`, FL
    /// holds the rest, ROB and RHT empty.
    pub fn new(cfg: RrsConfig) -> Self {
        cfg.validate();
        let initial_rat: Vec<PhysReg> = (0..cfg.num_arch).map(|i| cfg.initial_rat(i)).collect();
        let mut refcount = vec![0i32; cfg.num_phys];
        for p in &initial_rat {
            refcount[p.index()] = 1;
        }
        if let Some((zero, one)) = cfg.pinned() {
            // The hardwired registers are born with one permanent reference,
            // so no eviction ever takes their count to zero and they never
            // enter the free list.
            refcount[zero.index()] = 1;
            refcount[one.index()] = 1;
        }
        Rrs {
            fl: FreeList::new(cfg.num_phys, cfg.initial_free()),
            rat: Rat::new(initial_rat.clone()),
            rrat: initial_rat,
            rob: Rob::new(cfg.rob_entries),
            rht: Rht::new(cfg.rht_entries),
            ckpts: CkptTable::new(cfg.num_ckpts, cfg.num_arch, cfg.num_phys),
            rrat_refcount: refcount.clone(),
            refcount,
            renamed: 0,
            committed: 0,
            recovery: None,
            cfg,
        }
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &RrsConfig {
        &self.cfg
    }

    /// Free-list occupancy.
    #[inline]
    pub fn free_regs(&self) -> usize {
        self.fl.len()
    }

    /// ROB occupancy.
    #[inline]
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// RHT occupancy (retirement history entries awaiting recycle).
    #[inline]
    pub fn rht_len(&self) -> usize {
        self.rht.len()
    }

    /// Reliable count of renamed instructions (the next sequence number).
    #[inline]
    pub fn renamed(&self) -> u64 {
        self.renamed
    }

    /// Reliable count of retired instructions.
    #[inline]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// True while a multi-cycle recovery is in progress.
    #[inline]
    pub fn recovery_active(&self) -> bool {
        self.recovery.is_some()
    }

    /// Whether a group of `n_insts` instructions needing `n_dests` physical
    /// registers can rename this cycle.
    pub fn can_rename(&self, n_insts: usize, n_dests: usize) -> bool {
        self.recovery.is_none()
            && self.fl.len() >= n_dests
            && self.rob.len() + n_insts <= self.rob.capacity()
            && self.rht.len() + n_insts <= self.rht.capacity()
    }

    /// Renames a group of up to `width` instructions (one cycle's worth).
    ///
    /// Same-cycle same-Ldst writers are modeled as sequential port
    /// operations; the PdstID flow (FL→RAT plus FL→ROB for all but the
    /// youngest writer) is identical to the collapsed multiplexing the paper
    /// describes, event for event.
    ///
    /// # Errors
    ///
    /// Propagates [`RrsAssert`]s — reachable only under injected bugs when
    /// the caller respects [`Rrs::can_rename`].
    ///
    /// # Panics
    ///
    /// Panics if called during recovery or with more than `width` requests.
    pub fn rename_group(
        &mut self,
        reqs: &[RenameRequest],
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<Vec<RenameOut>, RrsAssert> {
        let mut outs = Vec::with_capacity(reqs.len());
        self.rename_group_into(reqs, &mut outs, hook, sink)?;
        Ok(outs)
    }

    /// [`Rrs::rename_group`] writing into a caller-owned buffer (cleared
    /// first), so the per-cycle rename path can reuse one allocation for a
    /// whole run.
    ///
    /// # Errors
    ///
    /// As [`Rrs::rename_group`]; on error the buffer holds the outputs of
    /// the requests renamed before the assert.
    ///
    /// # Panics
    ///
    /// As [`Rrs::rename_group`].
    pub fn rename_group_into(
        &mut self,
        reqs: &[RenameRequest],
        outs: &mut Vec<RenameOut>,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<(), RrsAssert> {
        assert!(self.recovery.is_none(), "rename during recovery");
        assert!(reqs.len() <= self.cfg.width, "group exceeds rename width");
        outs.clear();
        for req in reqs {
            outs.push(self.rename_one(req, hook, sink)?);
        }
        Ok(())
    }

    fn rename_one(
        &mut self,
        req: &RenameRequest,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<RenameOut, RrsAssert> {
        let seq = self.renamed;
        // Checkpoint cadence: snapshot the RAT state *before* renaming every
        // `ckpt_interval`-th allocation.
        if seq.is_multiple_of(self.cfg.ckpt_interval) {
            self.ckpts
                .take(self.rat.entries(), &self.refcount, seq, hook, sink);
        }
        if self.cfg.idiom_elim {
            if let (Some(ldst), Some(idiom)) = (req.ldst, req.idiom) {
                let (zero, one) = self.cfg.pinned().expect("idiom_elim enabled");
                let p = match idiom {
                    Idiom::Zero => zero,
                    Idiom::One => one,
                };
                return self.rename_alias(seq, ldst, p, hook, sink);
            }
        }
        if self.cfg.move_elim && req.is_move {
            if let (Some(ldst), Some(lsrc)) = (req.ldst, req.srcs[0]) {
                let p = self.rat_read_checked(lsrc, sink);
                return self.rename_alias(seq, ldst, p, hook, sink);
            }
        }
        let srcs = [
            req.srcs[0].map(|a| self.rat_read_checked(a, sink)),
            req.srcs[1].map(|a| self.rat_read_checked(a, sink)),
        ];
        let (new_pdst, rht_entry) = if let Some(ldst) = req.ldst {
            let p = self.fl.pop(hook, sink).ok_or(RrsAssert::FlUnderflow)?;
            self.refcount[p.index()] = 1;
            let evicted = self.rat_write_port(ldst, p, true, hook, sink);
            self.rob.alloc(
                RobMeta {
                    has_dest: true,
                    arch: ldst as u8,
                    new_pdst: p,
                },
                evicted,
                hook,
                sink,
            )?;
            (
                Some(p),
                RhtEntry {
                    has_dest: true,
                    arch: ldst as u8,
                    new_pdst: p,
                    is_move: false,
                },
            )
        } else {
            self.rob.alloc(RobMeta::NO_DEST, None, hook, sink)?;
            (None, RhtEntry::NO_DEST)
        };
        self.rht.append(rht_entry, hook)?;
        self.renamed += 1;
        Ok(RenameOut {
            seq,
            srcs,
            new_pdst,
            eliminated: false,
        })
    }

    /// Aliasing rename shared by move elimination and 0/1-idiom
    /// elimination (§V.E): maps `ldst` to `p` without allocating,
    /// incrementing `p`'s reference count. The duplicate-marking signal
    /// ([`OpSite::MoveElimDup`]) tells IDLD not to count this instance; if
    /// the signal fails, the write proceeds as an ordinary counted rename
    /// write and the XOR invariance breaks instantly — the paper's "it
    /// will cause IDLD assertion".
    fn rename_alias(
        &mut self,
        seq: u64,
        ldst: usize,
        p: PhysReg,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<RenameOut, RrsAssert> {
        let c = hook.on_op(OpSite::MoveElimDup);
        let dup_ok = !c.suppress_array && !c.suppress_ptr;
        if dup_ok {
            self.refcount[p.index()] += 1;
        }
        let evicted = self.rat_write_port(ldst, p, !dup_ok, hook, sink);
        self.rob.alloc(
            RobMeta {
                has_dest: true,
                arch: ldst as u8,
                new_pdst: p,
            },
            evicted,
            hook,
            sink,
        )?;
        self.rht.append(
            RhtEntry {
                has_dest: true,
                arch: ldst as u8,
                new_pdst: p,
                is_move: true,
            },
            hook,
        )?;
        self.renamed += 1;
        Ok(RenameOut {
            seq,
            srcs: [Some(p), None],
            new_pdst: Some(p),
            eliminated: true,
        })
    }

    /// A RAT read through a parity-protected port: emits
    /// [`RrsEvent::ParityAlarm`] when the entry's stored parity disagrees
    /// with its contents (enabled by [`RrsConfig::parity`]).
    fn rat_read_checked(&self, arch: usize, sink: &mut impl EventSink) -> PhysReg {
        if self.cfg.parity && !self.rat.parity_ok(arch) {
            sink.event(RrsEvent::ParityAlarm);
        }
        self.rat.lookup(arch)
    }

    /// Applies any pending at-rest upset from the hook (called once per
    /// cycle by the simulator). Storage-cell corruption produces no port
    /// traffic, so no IDLD-visible event fires here — exactly §V.D's
    /// delimitation of IDLD's scope.
    pub fn apply_at_rest(&mut self, hook: &mut impl FaultHook) {
        if let Some((arch, mask)) = hook.take_at_rest() {
            if arch < self.cfg.num_arch && mask != 0 {
                self.rat.upset(arch, mask);
            }
        }
    }

    /// The RAT write port with reference-counted eviction: the eviction
    /// read delivers the previous mapping, but the id heads to a ROB entry
    /// (and the IDLD tap fires) only when its last RAT reference dies.
    /// `counted` gates the [`RrsEvent::RatWrite`] tap: false for properly
    /// marked duplicate (move-eliminated) writes.
    fn rat_write_port(
        &mut self,
        ldst: usize,
        new: PhysReg,
        counted: bool,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Option<PhysReg> {
        let evicted = self.rat_read_checked(ldst, sink);
        let rc = &mut self.refcount[evicted.index()];
        *rc -= 1;
        let last = *rc <= 0;
        if last {
            *rc = 0;
            sink.event(RrsEvent::RatEvictRead(evicted));
        }
        let c = hook.on_op(OpSite::RatWrite);
        if !c.suppress_array && !c.suppress_ptr {
            let v = PhysReg(new.0 ^ c.value_xor);
            self.rat.set_raw(ldst, v);
            if counted {
                sink.event(RrsEvent::RatWrite(v));
            }
        }
        last.then_some(evicted)
    }

    /// Retires the ROB head instruction: reclaims its evicted PdstID into
    /// the free list and updates the retirement RAT.
    ///
    /// # Errors
    ///
    /// Propagates [`RrsAssert`]s under injected bugs.
    pub fn commit_head(
        &mut self,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<CommitOut, RrsAssert> {
        let c = self.rob.commit_head(hook, sink)?;
        if let Some(v) = c.reclaimed {
            self.fl.push(v, hook, sink)?;
        }
        if c.meta.has_dest {
            let old = self.rrat[c.meta.arch as usize];
            let newp = c.meta.new_pdst;
            if old != newp {
                let mut old_out = None;
                let mut new_out = None;
                let ro = &mut self.rrat_refcount[old.index()];
                *ro -= 1;
                if *ro <= 0 {
                    *ro = 0;
                    old_out = Some(old);
                }
                let rn = &mut self.rrat_refcount[newp.index()];
                *rn += 1;
                if *rn == 1 {
                    new_out = Some(newp);
                }
                self.rrat[c.meta.arch as usize] = newp;
                sink.event(RrsEvent::RratWrite {
                    old: old_out,
                    new: new_out,
                });
            }
        }
        self.committed += 1;
        self.rht.advance_head_to(self.committed);
        Ok(CommitOut {
            reclaimed: c.reclaimed,
        })
    }

    /// Begins recovery from a flush caused by the instruction with sequence
    /// number `offending`: restores the RAT from the newest usable
    /// checkpoint (or the retirement RAT), then the walks proceed via
    /// [`Rrs::step_recovery`].
    ///
    /// # Panics
    ///
    /// Panics if a recovery is already active or `offending` is not an
    /// in-flight instruction.
    pub fn start_recovery(
        &mut self,
        offending: u64,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) {
        assert!(self.recovery.is_none(), "nested recovery");
        assert!(
            offending >= self.committed && offending < self.renamed,
            "flush point {offending} not in flight [{}, {})",
            self.committed,
            self.renamed
        );
        sink.event(RrsEvent::RecoveryStart);
        self.ckpts.invalidate_after(offending + 1);
        let pos = match self.ckpts.find(offending + 1, self.committed) {
            Some(slot) => {
                let c = hook.on_op(OpSite::RatRecover);
                if !c.suppress_array && !c.suppress_ptr {
                    let snapshot = self.ckpts.slot(slot).rat.clone();
                    let counts = self.ckpts.slot(slot).refcounts.clone();
                    self.rat.restore(&snapshot);
                    self.refcount = counts;
                }
                // The IDLD logic has its own copy of the recovery flow
                // (Figure 6); a weak signal at the RAT array does not stop
                // the checker from restoring its XOR snapshot.
                sink.event(RrsEvent::CkptRestore { slot });
                self.ckpts.slot(slot).seq
            }
            None => {
                let c = hook.on_op(OpSite::RatRecover);
                if !c.suppress_array && !c.suppress_ptr {
                    let snapshot = self.rrat.clone();
                    self.rat.restore(&snapshot);
                    self.refcount = self.rrat_refcount.clone();
                }
                sink.event(RrsEvent::RratRestore);
                self.committed
            }
        };
        self.recovery = Some(Recovery {
            offending,
            phase: RecoveryPhase::PositiveWalk,
            pos,
            neg: self.renamed,
            steps: 0,
        });
    }

    /// Advances an active recovery by one cycle (up to `width` walk entries
    /// or one pointer-restore step). Returns `true` when recovery completed
    /// this cycle.
    ///
    /// # Errors
    ///
    /// Propagates [`RrsAssert`]s under injected bugs.
    ///
    /// # Panics
    ///
    /// Panics if no recovery is active.
    pub fn step_recovery(
        &mut self,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<bool, RrsAssert> {
        let mut rec = self.recovery.take().expect("no active recovery");
        rec.steps += 1;
        if rec.steps > 20 * self.cfg.rht_entries as u64 + 100 {
            return Err(RrsAssert::RecoveryBroken);
        }
        let mut budget = self.cfg.width;
        if rec.phase == RecoveryPhase::PositiveWalk {
            while budget > 0 && rec.pos <= rec.offending {
                let entry = self.rht.read_at(rec.pos);
                if entry.has_dest {
                    let arch = entry.arch as usize;
                    // Re-applied through the regular RAT ports (§V.C), so the
                    // RAT write-enable fault site also covers walk traffic.
                    // Moves replay with duplicate semantics; regular renames
                    // re-derive the allocation's unit reference count.
                    if entry.is_move {
                        let c = hook.on_op(OpSite::MoveElimDup);
                        let dup_ok = !c.suppress_array && !c.suppress_ptr;
                        if dup_ok {
                            self.refcount[entry.new_pdst.index()] += 1;
                        }
                        let _ = self.rat_write_port(arch, entry.new_pdst, !dup_ok, hook, sink);
                    } else {
                        self.refcount[entry.new_pdst.index()] = 1;
                        let _ = self.rat_write_port(arch, entry.new_pdst, true, hook, sink);
                    }
                }
                let c = hook.on_op(OpSite::RhtPosWalkRead);
                if !c.suppress_array && !c.suppress_ptr {
                    rec.pos += 1;
                }
                budget -= 1;
            }
            if rec.pos > rec.offending {
                rec.phase = RecoveryPhase::NegativeWalk;
            }
        }
        if rec.phase == RecoveryPhase::NegativeWalk {
            while budget > 0 && rec.neg > rec.offending + 1 {
                let entry = self.rht.read_at(rec.neg - 1);
                // Eliminated moves allocated nothing; there is nothing to
                // return (their reference counts were rebuilt by the
                // checkpoint restore + positive walk).
                if entry.has_dest && !entry.is_move {
                    self.fl.push(entry.new_pdst, hook, sink)?;
                }
                let c = hook.on_op(OpSite::RhtNegWalkRead);
                if !c.suppress_array && !c.suppress_ptr {
                    rec.neg -= 1;
                }
                budget -= 1;
            }
            if rec.neg == rec.offending + 1 {
                rec.phase = RecoveryPhase::TailRestore;
                // Pointer restores take their own cycle.
                self.recovery = Some(rec);
                return Ok(false);
            }
        }
        if rec.phase == RecoveryPhase::TailRestore {
            self.rob.restore_tail(rec.offending + 1, hook)?;
            self.rht.restore_tail(rec.offending + 1, hook)?;
            self.renamed = rec.offending + 1;
            sink.event(RrsEvent::RecoveryEnd);
            return Ok(true);
        }
        self.recovery = Some(rec);
        Ok(false)
    }

    /// Censuses where every PdstID currently resides (FL + RAT + live ROB
    /// evicted fields). The RAT contributes each *distinct* id once: under
    /// move elimination several logical registers may legitimately alias
    /// one physical register (§V.E), and IDLD's invariance counts the id a
    /// single time.
    pub fn contents(&self) -> ContentSnapshot {
        let mut counts = vec![0u32; self.cfg.num_phys];
        let mut bump = |p: PhysReg| {
            if let Some(c) = counts.get_mut(p.index()) {
                *c += 1;
            }
        };
        for p in self.fl.iter() {
            bump(p);
        }
        let mut seen = vec![false; self.cfg.num_phys];
        for p in self.rat.iter() {
            if let Some(s) = seen.get_mut(p.index()) {
                if *s {
                    continue;
                }
                *s = true;
            }
            bump(p);
        }
        for p in self.rob.iter_live() {
            bump(p);
        }
        if let Some((zero, one)) = self.cfg.pinned() {
            // The hardwired registers legitimately live outside the
            // circulation (0 or 1 RAT references at any time); normalize to
            // exactly one so the partition check stays uniform. A pinned id
            // that bug-leaked into the FL or ROB still shows as a duplicate.
            for p in [zero, one] {
                counts[p.index()] = counts[p.index()].max(1);
            }
        }
        ContentSnapshot { counts }
    }

    /// The actual per-array content XORs (extended encoding) — ground truth
    /// used by tests to validate that the event-driven IDLD checker tracks
    /// reality. Hardwired idiom registers are excluded from the RAT term:
    /// they live outside the tracked circulation, exactly as the checker
    /// never sees counted traffic for them.
    pub fn content_xors(&self) -> (u32, u32, u32) {
        let bits = self.cfg.pdst_bits();
        let mut ratx = self.rat.content_xor(bits);
        if let Some((zero, one)) = self.cfg.pinned() {
            for pin in [zero, one] {
                if self.rat.iter().any(|p| p == pin) {
                    ratx ^= pin.extended(bits);
                }
            }
        }
        (self.fl.content_xor(bits), ratx, self.rob.content_xor(bits))
    }

    /// Current speculative RAT mapping (for simulator-side inspection).
    #[inline]
    pub fn rat_lookup(&self, arch: usize) -> PhysReg {
        self.rat.lookup(arch)
    }

    /// Current retirement RAT mapping.
    #[inline]
    pub fn rrat_lookup(&self, arch: usize) -> PhysReg {
        self.rrat[arch]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NullSink, RecordingSink};
    use crate::fault::NoFaults;

    fn small_cfg() -> RrsConfig {
        RrsConfig {
            num_phys: 16,
            num_arch: 4,
            rob_entries: 8,
            rht_entries: 8,
            num_ckpts: 2,
            ckpt_interval: 4,
            width: 2,
            move_elim: false,
            idiom_elim: false,
            parity: false,
        }
    }

    fn dest(ldst: usize) -> RenameRequest {
        RenameRequest {
            ldst: Some(ldst),
            srcs: [None, None],
            ..Default::default()
        }
    }

    #[test]
    fn rename_allocates_in_fl_order() {
        let mut rrs = Rrs::new(small_cfg());
        let outs = rrs
            .rename_group(&[dest(0), dest(1)], &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(outs[0].new_pdst, Some(PhysReg(4)));
        assert_eq!(outs[1].new_pdst, Some(PhysReg(5)));
        assert_eq!(rrs.rat_lookup(0), PhysReg(4));
        assert_eq!(rrs.rat_lookup(1), PhysReg(5));
        assert_eq!(rrs.renamed(), 2);
    }

    #[test]
    fn sources_resolve_through_group_in_order() {
        let mut rrs = Rrs::new(small_cfg());
        // First writes r0, second reads r0: must see the new mapping.
        let outs = rrs
            .rename_group(
                &[
                    dest(0),
                    RenameRequest {
                        ldst: Some(1),
                        srcs: [Some(0), None],
                        ..Default::default()
                    },
                ],
                &mut NoFaults,
                &mut NullSink,
            )
            .unwrap();
        assert_eq!(outs[1].srcs[0], outs[0].new_pdst);
    }

    #[test]
    fn same_ldst_chain_flows_to_rob() {
        let mut rrs = Rrs::new(small_cfg());
        let mut sink = RecordingSink::new();
        rrs.rename_group(&[dest(2), dest(2)], &mut NoFaults, &mut sink)
            .unwrap();
        // p2 (initial) evicted to first entry, p4 (first alloc) to second.
        let rob_writes: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                RrsEvent::RobWrite(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(rob_writes, vec![PhysReg(2), PhysReg(4)]);
        assert_eq!(rrs.rat_lookup(2), PhysReg(5), "youngest mapping wins");
    }

    #[test]
    fn commit_reclaims_and_updates_rrat() {
        let mut rrs = Rrs::new(small_cfg());
        rrs.rename_group(&[dest(0)], &mut NoFaults, &mut NullSink)
            .unwrap();
        let free_before = rrs.free_regs();
        let c = rrs.commit_head(&mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(c.reclaimed, Some(PhysReg(0)), "initial mapping reclaimed");
        assert_eq!(rrs.free_regs(), free_before + 1);
        assert_eq!(rrs.rrat_lookup(0), PhysReg(4));
        assert_eq!(rrs.committed(), 1);
    }

    #[test]
    fn invariant_partition_holds_through_traffic() {
        let mut rrs = Rrs::new(small_cfg());
        for i in 0..20 {
            rrs.rename_group(&[dest(i % 4)], &mut NoFaults, &mut NullSink)
                .unwrap();
            rrs.commit_head(&mut NoFaults, &mut NullSink).unwrap();
            assert!(rrs.contents().is_exact_partition(), "iteration {i}");
        }
    }

    fn run_recovery(rrs: &mut Rrs, offending: u64, sink: &mut impl EventSink) {
        rrs.start_recovery(offending, &mut NoFaults, sink);
        while !rrs.step_recovery(&mut NoFaults, sink).unwrap() {}
    }

    #[test]
    fn recovery_restores_rat_and_fl() {
        let mut rrs = Rrs::new(small_cfg());
        // Rename 3 instructions; flush after the first.
        rrs.rename_group(&[dest(0), dest(1)], &mut NoFaults, &mut NullSink)
            .unwrap();
        rrs.rename_group(&[dest(0)], &mut NoFaults, &mut NullSink)
            .unwrap();
        let map_after_first = rrs.rat_lookup(0);
        assert_ne!(map_after_first, rrs.rat_lookup(1), "sanity");
        let free_before_flush = rrs.free_regs();

        run_recovery(&mut rrs, 0, &mut NullSink);

        assert_eq!(
            rrs.rat_lookup(0),
            PhysReg(4),
            "mapping of instruction 0 restored"
        );
        assert_eq!(
            rrs.rat_lookup(1),
            PhysReg(1),
            "wrong-path mapping rolled back"
        );
        assert_eq!(
            rrs.free_regs(),
            free_before_flush + 2,
            "two wrong-path ids returned"
        );
        assert_eq!(rrs.renamed(), 1);
        assert_eq!(rrs.rob_len(), 1);
        assert!(rrs.contents().is_exact_partition());
        assert!(!rrs.recovery_active());
    }

    #[test]
    fn recovery_falls_back_to_rrat() {
        // Tiny checkpoint table: force the covering checkpoint to be
        // overwritten so the RRAT path is exercised.
        let cfg = RrsConfig {
            num_ckpts: 1,
            ckpt_interval: 2,
            ..small_cfg()
        };
        let mut rrs = Rrs::new(cfg);
        let mut sink = RecordingSink::new();
        for _ in 0..5 {
            rrs.rename_group(&[dest(0)], &mut NoFaults, &mut sink)
                .unwrap();
        }
        // Only checkpoint alive is at seq 4; flush at 1 needs RRAT.
        rrs.start_recovery(1, &mut NoFaults, &mut sink);
        assert!(sink.count(|e| matches!(e, RrsEvent::RratRestore)) == 1);
        while !rrs.step_recovery(&mut NoFaults, &mut sink).unwrap() {}
        assert!(rrs.contents().is_exact_partition());
        assert_eq!(rrs.renamed(), 2);
    }

    #[test]
    fn recovery_spreads_over_cycles() {
        let mut rrs = Rrs::new(small_cfg());
        for _ in 0..4 {
            rrs.rename_group(&[dest(0), dest(1)], &mut NoFaults, &mut NullSink)
                .unwrap();
        }
        rrs.start_recovery(0, &mut NoFaults, &mut NullSink);
        let mut cycles = 0;
        while !rrs.step_recovery(&mut NoFaults, &mut NullSink).unwrap() {
            cycles += 1;
            assert!(cycles < 100);
        }
        // 1 pos entry + 7 neg entries at width 2, plus a tail-restore cycle.
        assert!(
            cycles >= 4,
            "recovery took {cycles} extra cycles — must be multi-cycle"
        );
        assert!(rrs.contents().is_exact_partition());
    }

    #[test]
    fn recovery_mid_stream_keeps_partition() {
        let mut rrs = Rrs::new(small_cfg());
        // Interleave renames, commits and a flush; partition must hold at
        // every quiescent point.
        for round in 0..4u64 {
            rrs.rename_group(
                &[dest((round % 4) as usize), dest(((round + 1) % 4) as usize)],
                &mut NoFaults,
                &mut NullSink,
            )
            .unwrap();
            if round % 2 == 1 {
                rrs.commit_head(&mut NoFaults, &mut NullSink).unwrap();
            }
        }
        let flush_at = rrs.committed() + 1;
        run_recovery(&mut rrs, flush_at, &mut NullSink);
        assert!(rrs.contents().is_exact_partition());
        // Everything still in flight can retire cleanly.
        while rrs.rob_len() > 0 {
            rrs.commit_head(&mut NoFaults, &mut NullSink).unwrap();
        }
        assert!(rrs.contents().is_exact_partition());
        assert_eq!(rrs.free_regs(), 16 - 4);
    }

    #[test]
    fn content_xors_match_events_free_run() {
        // Accumulate event XORs by hand and compare with array ground truth.
        let mut rrs = Rrs::new(small_cfg());
        let (mut flx, mut ratx, mut robx) = rrs.content_xors();
        let mut sink = RecordingSink::new();
        for i in 0..10 {
            rrs.rename_group(&[dest(i % 4)], &mut NoFaults, &mut sink)
                .unwrap();
            if i >= 2 {
                rrs.commit_head(&mut NoFaults, &mut sink).unwrap();
            }
        }
        for ev in &sink.events {
            match ev {
                RrsEvent::FlRead(p) | RrsEvent::FlWrite(p) => flx ^= p.extended(4),
                RrsEvent::RatWrite(p) | RrsEvent::RatEvictRead(p) => ratx ^= p.extended(4),
                RrsEvent::RobWrite(p) | RrsEvent::RobRead(p) => robx ^= p.extended(4),
                _ => {}
            }
        }
        assert_eq!((flx, ratx, robx), rrs.content_xors());
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn recovery_of_retired_instruction_panics() {
        let mut rrs = Rrs::new(small_cfg());
        rrs.rename_group(&[dest(0)], &mut NoFaults, &mut NullSink)
            .unwrap();
        rrs.commit_head(&mut NoFaults, &mut NullSink).unwrap();
        rrs.start_recovery(0, &mut NoFaults, &mut NullSink);
    }

    #[test]
    fn can_rename_respects_resources() {
        let mut rrs = Rrs::new(small_cfg());
        assert!(rrs.can_rename(2, 2));
        // Exhaust the ROB.
        for _ in 0..4 {
            rrs.rename_group(&[dest(0), dest(1)], &mut NoFaults, &mut NullSink)
                .unwrap();
        }
        assert_eq!(rrs.rob_len(), 8);
        assert!(!rrs.can_rename(1, 0));
    }

    // --- Move elimination (§V.E) -------------------------------------------

    fn move_cfg() -> RrsConfig {
        RrsConfig {
            move_elim: true,
            ..small_cfg()
        }
    }

    fn mv(ldst: usize, lsrc: usize) -> RenameRequest {
        RenameRequest {
            ldst: Some(ldst),
            srcs: [Some(lsrc), None],
            is_move: true,
            idiom: None,
        }
    }

    #[test]
    fn move_aliases_without_allocating() {
        let mut rrs = Rrs::new(move_cfg());
        let free = rrs.free_regs();
        let outs = rrs
            .rename_group(&[mv(1, 0)], &mut NoFaults, &mut NullSink)
            .unwrap();
        assert!(outs[0].eliminated);
        assert_eq!(
            outs[0].new_pdst,
            Some(PhysReg(0)),
            "aliased to the source's id"
        );
        assert_eq!(rrs.free_regs(), free, "no FL allocation");
        assert_eq!(rrs.rat_lookup(1), rrs.rat_lookup(0));
    }

    #[test]
    fn move_is_ignored_when_optimization_disabled() {
        let mut rrs = Rrs::new(small_cfg());
        let free = rrs.free_regs();
        let outs = rrs
            .rename_group(&[mv(1, 0)], &mut NoFaults, &mut NullSink)
            .unwrap();
        assert!(!outs[0].eliminated);
        assert_eq!(rrs.free_regs(), free - 1, "ordinary allocation happened");
    }

    #[test]
    fn aliased_id_reclaimed_only_after_last_eviction() {
        let mut rrs = Rrs::new(move_cfg());
        let mut sink = RecordingSink::new();
        // r1 aliases r0's id (p0); then both get remapped.
        rrs.rename_group(&[mv(1, 0)], &mut NoFaults, &mut sink)
            .unwrap();
        rrs.rename_group(&[dest(0)], &mut NoFaults, &mut sink)
            .unwrap(); // evicts p0 (alias lives)
        assert_eq!(
            sink.count(|e| matches!(e, RrsEvent::RobWrite(p) if *p == PhysReg(0))),
            0,
            "first eviction of the aliased id reclaims nothing"
        );
        rrs.rename_group(&[dest(1)], &mut NoFaults, &mut sink)
            .unwrap(); // last reference dies
        assert_eq!(
            sink.count(|e| matches!(e, RrsEvent::RobWrite(p) if *p == PhysReg(0))),
            1,
            "second eviction carries p0 to the ROB"
        );
        // Drain: p0 must return to the FL exactly once.
        let mut reclaimed = Vec::new();
        while rrs.rob_len() > 0 {
            if let Some(p) = rrs.commit_head(&mut NoFaults, &mut sink).unwrap().reclaimed {
                reclaimed.push(p);
            }
        }
        assert_eq!(reclaimed.iter().filter(|&&p| p == PhysReg(0)).count(), 1);
        assert!(rrs.contents().is_exact_partition());
    }

    #[test]
    fn idld_stays_balanced_through_moves_and_recovery() {
        use crate::fault::CensusHook;
        let cfg = move_cfg();
        let mut rrs = Rrs::new(cfg);
        let mut census = CensusHook::new();
        let mut sink = RecordingSink::new();
        // Mixed traffic: renames, moves, commits, plus a flush across moves.
        for round in 0..5usize {
            rrs.rename_group(
                &[dest(round % 4), mv((round + 1) % 4, round % 4)],
                &mut census,
                &mut sink,
            )
            .unwrap();
            if round % 2 == 1 {
                rrs.commit_head(&mut census, &mut sink).unwrap();
            }
        }
        assert!(census.count(OpSite::MoveElimDup) >= 5);
        let offending = rrs.committed() + 1;
        rrs.start_recovery(offending, &mut census, &mut sink);
        while !rrs.step_recovery(&mut census, &mut sink).unwrap() {}
        while rrs.rob_len() > 0 {
            rrs.commit_head(&mut census, &mut sink).unwrap();
        }
        assert!(rrs.contents().is_exact_partition());
        // With live aliases the RAT holds fewer *distinct* ids than
        // entries, so the free pool is correspondingly larger.
        let distinct: std::collections::HashSet<_> = (0..4).map(|a| rrs.rat_lookup(a)).collect();
        assert_eq!(rrs.free_regs(), 16 - distinct.len());
        // The ground-truth arrays must satisfy the invariance: FLxor ⊕
        // RATxor(distinct) ⊕ ROBxor equals the constant, aliases and all.
        // (The full event-driven checker cross-validation — which needs the
        // XOR checkpoint machinery — lives in the workspace-level
        // move-elimination integration tests.)
        let (gf, gr, gb) = rrs.content_xors();
        assert_eq!(gf ^ gr ^ gb, cfg.total_xor(), "XOR invariance preserved");
    }

    #[test]
    fn suppressed_dup_signal_breaks_the_invariance_instantly() {
        use crate::fault::Corruption;
        use crate::testutil::OneShot;
        let mut rrs = Rrs::new(move_cfg());
        let mut sink = RecordingSink::new();
        let mut hook = OneShot::new(
            OpSite::MoveElimDup,
            0,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        rrs.rename_group(&[mv(1, 0)], &mut hook, &mut sink).unwrap();
        assert!(hook.fired);
        // The write was counted (RatWrite event) without an FL read: the
        // paper's "RATxor updated without the FLxor being updated".
        assert_eq!(sink.count(|e| matches!(e, RrsEvent::RatWrite(_))), 1);
        assert_eq!(sink.count(|e| matches!(e, RrsEvent::FlRead(_))), 0);
    }

    #[test]
    fn self_move_is_harmless() {
        let mut rrs = Rrs::new(move_cfg());
        rrs.rename_group(&[mv(2, 2)], &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(rrs.rat_lookup(2), PhysReg(2));
        while rrs.rob_len() > 0 {
            rrs.commit_head(&mut NoFaults, &mut NullSink).unwrap();
        }
        assert!(rrs.contents().is_exact_partition());
    }
}
