//! SMT rename sharing: two architectural contexts over one free list.
//!
//! The paper evaluates IDLD on a single-threaded core; this module models
//! the sharpest extension of its invariant: a 2-way SMT renamer in which two
//! architectural contexts (each with a private RAT and a private ROB
//! partition) allocate from **one shared free list** and one shared physical
//! register file. A leaked or duplicated PdstID can now cross the thread
//! boundary — a correctness *and* isolation failure.
//!
//! Three Table-I-style fault sites are specific to this organization:
//!
//! * [`OpSite::ThreadSelect`] — the rename-stage mux routing a group's RAT
//!   write ports to its thread's RAT. Corruption steers the group's RAT
//!   traffic (eviction reads and writes) into the *other* thread's RAT
//!   while the ROB/FL flow stays attributed to the fetching thread.
//! * [`OpSite::SmtFlPop`] — the shared free list's read port (allocation on
//!   behalf of either thread).
//! * [`OpSite::SmtFlPush`] — the shared free list's write port (reclamation
//!   at either thread's retirement).
//!
//! Checkers observe the same [`crate::event::RrsEvent`] stream as in
//! single-thread mode, with one addition: the RRS announces the context
//! each port transfer is routed to via [`EventSink::thread_hint`] (reliable
//! select-line metadata, like the ROB's bookkeeping fields). Thread-blind
//! checkers ignore the hints and see the paper's original stream.

use crate::config::RrsConfig;
use crate::event::EventSink;
use crate::fault::{FaultHook, OpSite};
use crate::freelist::FreeList;
use crate::phys::PhysReg;
use crate::rat::Rat;
use crate::rob::{Rob, RobCommit, RobMeta};
use crate::rrs::{ContentSnapshot, RrsAssert};

/// Number of hardware threads in the SMT organization.
pub const NUM_THREADS: usize = 2;

/// Ground-truth per-array content XORs of an SMT renamer, for validating
/// event-driven checkers against array reality.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SmtXors {
    /// Shared free-list content XOR.
    pub flx: u32,
    /// Per-thread RAT content XORs.
    pub ratx: [u32; NUM_THREADS],
    /// Per-thread ROB (evicted-field) content XORs.
    pub robx: [u32; NUM_THREADS],
}

impl SmtXors {
    /// The summed code `FLxor ^ RATxor[0] ^ RATxor[1] ^ ROBxor[0] ^
    /// ROBxor[1]` — the paper's invariant extended across contexts.
    pub fn code(&self) -> u32 {
        self.flx ^ self.ratx[0] ^ self.ratx[1] ^ self.robx[0] ^ self.robx[1]
    }
}

/// A 2-way SMT register renaming subsystem: per-thread RATs and ROB
/// partitions over one shared free list.
///
/// The SMT pipeline modelled here is in-order past rename (no wrong-path
/// speculation), so the RHT/checkpoint/recovery machinery of [`crate::Rrs`]
/// does not appear: every renamed instruction retires.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SmtRrs {
    cfg: RrsConfig,
    fl: FreeList,
    rats: [Rat; NUM_THREADS],
    robs: [Rob; NUM_THREADS],
}

impl SmtRrs {
    /// Power-on state: thread `t`'s logical register `i` maps to physical
    /// `t * num_arch + i`; the shared FL holds the rest in ascending order.
    /// `cfg.num_arch` is the *per-thread* architectural register count;
    /// `cfg.rob_entries` sizes each thread's private ROB partition.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot host two contexts
    /// (`num_phys <= 2 * num_arch`) or enables the single-thread-only
    /// options (`move_elim`, `idiom_elim`).
    pub fn new(cfg: RrsConfig) -> Self {
        cfg.validate();
        assert!(
            cfg.num_phys > NUM_THREADS * cfg.num_arch,
            "SMT needs free registers beyond both initial RATs"
        );
        assert!(
            !cfg.move_elim && !cfg.idiom_elim,
            "move/idiom elimination are single-thread options"
        );
        let rats = [0, 1].map(|t| {
            Rat::new(
                (0..cfg.num_arch)
                    .map(|i| Self::initial_rat(&cfg, t, i))
                    .collect(),
            )
        });
        SmtRrs {
            fl: FreeList::new(cfg.num_phys, Self::initial_free(&cfg)),
            rats,
            robs: [Rob::new(cfg.rob_entries), Rob::new(cfg.rob_entries)],
            cfg,
        }
    }

    /// The power-on RAT mapping of thread `t`, entry `i`.
    #[inline]
    pub fn initial_rat(cfg: &RrsConfig, t: usize, i: usize) -> PhysReg {
        debug_assert!(t < NUM_THREADS && i < cfg.num_arch);
        PhysReg((t * cfg.num_arch + i) as u16)
    }

    /// The power-on shared free-list contents, in FIFO order.
    pub fn initial_free(cfg: &RrsConfig) -> impl Iterator<Item = PhysReg> + '_ {
        (NUM_THREADS * cfg.num_arch..cfg.num_phys).map(|i| PhysReg(i as u16))
    }

    /// The configuration this renamer was built with.
    #[inline]
    pub fn config(&self) -> &RrsConfig {
        &self.cfg
    }

    /// Free registers currently in the shared FL.
    #[inline]
    pub fn free_regs(&self) -> usize {
        self.fl.len()
    }

    /// Occupancy of thread `t`'s ROB partition.
    #[inline]
    pub fn rob_len(&self, t: usize) -> usize {
        self.robs[t].len()
    }

    /// Current mapping of thread `t`'s logical register `arch`.
    #[inline]
    pub fn rat_lookup(&self, t: usize, arch: usize) -> PhysReg {
        self.rats[t].lookup(arch)
    }

    /// True if thread `t` can rename a group of `insts` instructions of
    /// which `dests` carry register destinations.
    pub fn can_rename(&self, t: usize, dests: usize, insts: usize) -> bool {
        self.fl.len() >= dests && self.robs[t].capacity() - self.robs[t].len() >= insts
    }

    /// Renames one group of up to `width` instructions fetched by hardware
    /// thread `t` (`group[i]` is instruction *i*'s logical destination, if
    /// any), writing the allocated PdstIDs into `out` (cleared first),
    /// aligned with `group`. The caller owns `out`, so a simulator renaming
    /// every cycle reuses one buffer instead of allocating per call.
    ///
    /// The thread-select mux ([`OpSite::ThreadSelect`]) is consulted once
    /// per group: any corruption flips the 1-bit select line, steering the
    /// whole group's RAT port traffic to the other thread's RAT. The ROB
    /// allocation and FL pop remain attributed to `t` — routing metadata in
    /// the ROB is reliable bookkeeping, exactly as in [`crate::rob`].
    ///
    /// # Errors
    ///
    /// Returns [`RrsAssert::RobOverflow`] when `t`'s partition is full
    /// (`out` then holds the outputs of the instructions before it);
    /// callers gate on [`SmtRrs::can_rename`].
    pub fn rename_group(
        &mut self,
        t: usize,
        group: &[Option<usize>],
        out: &mut Vec<Option<PhysReg>>,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<(), RrsAssert> {
        debug_assert!(t < NUM_THREADS);
        out.clear();
        if group.is_empty() {
            return Ok(());
        }
        let sel = hook.on_op(OpSite::ThreadSelect);
        let rat_t = if sel.is_active() { 1 - t } else { t };
        for &ldst in group {
            let Some(arch) = ldst else {
                // No destination: pure in-order bookkeeping, no PdstID flow.
                self.robs[t].alloc(RobMeta::NO_DEST, None, hook, sink)?;
                out.push(None);
                continue;
            };
            sink.thread_hint(t as u8);
            let new = self
                .fl
                .pop_at(OpSite::SmtFlPop, hook, sink)
                .expect("caller gated on can_rename");
            sink.thread_hint(rat_t as u8);
            let evicted = self.rats[rat_t].write(arch, new, hook, sink);
            sink.thread_hint(t as u8);
            self.robs[t].alloc(
                RobMeta {
                    has_dest: true,
                    arch: arch as u8,
                    new_pdst: new,
                },
                Some(evicted),
                hook,
                sink,
            )?;
            out.push(Some(new));
        }
        Ok(())
    }

    /// Retires thread `t`'s ROB head, reclaiming its evicted PdstID into
    /// the shared FL through the [`OpSite::SmtFlPush`] write port.
    ///
    /// # Errors
    ///
    /// Returns [`RrsAssert::RobUnderflow`] on an empty partition and
    /// [`RrsAssert::FlOverflow`] when a bug double-reclaims into a full FL.
    pub fn commit_head(
        &mut self,
        t: usize,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<RobCommit, RrsAssert> {
        debug_assert!(t < NUM_THREADS);
        sink.thread_hint(t as u8);
        let commit = self.robs[t].commit_head(hook, sink)?;
        if let Some(p) = commit.reclaimed {
            self.fl.push_at(OpSite::SmtFlPush, p, hook, sink)?;
        }
        Ok(commit)
    }

    /// Censuses where every PdstID currently resides across the shared FL,
    /// both RATs and both ROB partitions — the cross-context extension of
    /// the "each id exactly once" invariant.
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
        for t in 0..NUM_THREADS {
            for p in self.rats[t].iter() {
                bump(p);
            }
            for p in self.robs[t].iter_live() {
                bump(p);
            }
        }
        ContentSnapshot { counts }
    }

    /// The actual per-array content XORs (extended encoding) — ground truth
    /// for validating the event-driven SMT checker.
    pub fn content_xors(&self) -> SmtXors {
        let bits = self.cfg.pdst_bits();
        SmtXors {
            flx: self.fl.content_xor(bits),
            ratx: [0, 1].map(|t| self.rats[t].content_xor(bits)),
            robx: [0, 1].map(|t| self.robs[t].content_xor(bits)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NullSink, RecordingSink, RrsEvent};
    use crate::fault::{CensusHook, Corruption, NoFaults};
    use crate::testutil::OneShot;

    fn cfg() -> RrsConfig {
        RrsConfig {
            num_phys: 32,
            num_arch: 8,
            rob_entries: 8,
            rht_entries: 8,
            num_ckpts: 1,
            ckpt_interval: 64,
            width: 2,
            ..Default::default()
        }
    }

    #[test]
    fn power_on_is_exact_partition() {
        let smt = SmtRrs::new(cfg());
        assert!(smt.contents().is_exact_partition());
        assert_eq!(smt.free_regs(), 32 - 16);
        assert_eq!(smt.rat_lookup(0, 3), PhysReg(3));
        assert_eq!(smt.rat_lookup(1, 3), PhysReg(11));
    }

    #[test]
    fn interleaved_traffic_keeps_partition_and_code() {
        let c = cfg();
        let mut smt = SmtRrs::new(c);
        let total = c.total_xor();
        let mut out = Vec::new();
        for round in 0..40usize {
            let t = round % 2;
            if smt.can_rename(t, 2, 2) {
                smt.rename_group(
                    t,
                    &[Some(round % 8), Some((round + 3) % 8)],
                    &mut out,
                    &mut NoFaults,
                    &mut NullSink,
                )
                .unwrap();
            }
            if smt.rob_len(t) > 4 {
                smt.commit_head(t, &mut NoFaults, &mut NullSink).unwrap();
                smt.commit_head(t, &mut NoFaults, &mut NullSink).unwrap();
            }
            assert!(smt.contents().is_exact_partition(), "round {round}");
            assert_eq!(smt.content_xors().code(), total, "round {round}");
        }
    }

    #[test]
    fn thread_select_steering_writes_other_rat() {
        let mut smt = SmtRrs::new(cfg());
        let before_t0 = smt.rat_lookup(0, 2);
        let mut hook = OneShot::new(
            OpSite::ThreadSelect,
            0,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        let mut allocs = Vec::new();
        smt.rename_group(1, &[Some(2)], &mut allocs, &mut hook, &mut NullSink)
            .unwrap();
        assert!(hook.fired);
        // Thread 1's allocation landed in thread 0's RAT...
        assert_eq!(smt.rat_lookup(0, 2), allocs[0].unwrap());
        // ...and thread 1's own mapping is untouched.
        assert_eq!(smt.rat_lookup(1, 2), PhysReg(10));
        assert_ne!(before_t0, allocs[0].unwrap());
        // Steering *conserves* the global id flow: t0's evicted id rides
        // t1's ROB entry and is reclaimed normally, so the global partition
        // (and hence any summed-XOR or census check) stays exact. The
        // damage is pure isolation loss — t0's architectural mapping was
        // clobbered by t1's allocation. Only per-thread flow accounting
        // can see this, which is what the SMT checker's per-context
        // invariants exist for.
        while smt.rob_len(1) > 0 {
            smt.commit_head(1, &mut NoFaults, &mut NullSink).unwrap();
        }
        assert!(smt.contents().is_exact_partition());
        assert_eq!(smt.content_xors().code(), cfg().total_xor());
    }

    #[test]
    fn shared_fl_pop_suppression_duplicates_across_threads() {
        let mut smt = SmtRrs::new(cfg());
        let mut s = RecordingSink::new();
        let mut hook = OneShot::new(
            OpSite::SmtFlPop,
            0,
            Corruption {
                suppress_ptr: true,
                ..Corruption::NONE
            },
        );
        let (mut a0, mut a1) = (Vec::new(), Vec::new());
        smt.rename_group(0, &[Some(0)], &mut a0, &mut hook, &mut s)
            .unwrap();
        smt.rename_group(1, &[Some(0)], &mut a1, &mut NoFaults, &mut s)
            .unwrap();
        assert!(hook.fired);
        // Both threads now map the same physical register — cross-thread
        // duplication through the shared FL.
        assert_eq!(a0[0], a1[0]);
        assert_eq!(smt.rat_lookup(0, 0), smt.rat_lookup(1, 0));
        assert!(!smt.contents().is_exact_partition());
    }

    #[test]
    fn census_sees_smt_sites_only() {
        let mut smt = SmtRrs::new(cfg());
        let mut census = CensusHook::new();
        let mut out = Vec::new();
        smt.rename_group(0, &[Some(1), None], &mut out, &mut census, &mut NullSink)
            .unwrap();
        smt.rename_group(1, &[Some(1)], &mut out, &mut census, &mut NullSink)
            .unwrap();
        while smt.rob_len(0) > 0 {
            smt.commit_head(0, &mut census, &mut NullSink).unwrap();
        }
        assert_eq!(census.count(OpSite::ThreadSelect), 2);
        assert_eq!(census.count(OpSite::SmtFlPop), 2);
        assert_eq!(census.count(OpSite::SmtFlPush), 1);
        assert_eq!(census.count(OpSite::FlPop), 0);
        assert_eq!(census.count(OpSite::FlPush), 0);
        assert_eq!(census.count(OpSite::RatWrite), 2);
    }

    /// Records the event stream and the thread hints.
    #[derive(Default, PartialEq, Debug)]
    struct HintLog {
        hints: Vec<u8>,
        events: Vec<RrsEvent>,
    }

    impl EventSink for HintLog {
        fn event(&mut self, ev: RrsEvent) {
            self.events.push(ev);
        }
        fn thread_hint(&mut self, t: u8) {
            self.hints.push(t);
        }
    }

    #[test]
    fn reused_output_buffer_renames_like_a_fresh_one() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let c = cfg();
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        // (thread, group, commits after the group), groups of 0..=width.
        let script: Vec<(usize, Vec<Option<usize>>, usize)> = (0..400)
            .map(|_| {
                let t = rng.gen_range(0..NUM_THREADS);
                let group = (0..rng.gen_range(0..c.width + 1))
                    .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(0..c.num_arch)))
                    .collect();
                (t, group, rng.gen_range(0..3))
            })
            .collect();
        // Both runs flip the thread-select mux at the same call, so
        // steered groups are covered too.
        let steer = || {
            OneShot::new(
                OpSite::ThreadSelect,
                57,
                Corruption {
                    suppress_array: true,
                    ..Corruption::NONE
                },
            )
        };
        let run = |reuse: bool| {
            let mut smt = SmtRrs::new(c);
            let mut log = HintLog::default();
            let mut hook = steer();
            // Stale entries longer than any group: a rename that appended
            // instead of clearing would leave them visible.
            let mut buf = vec![Some(PhysReg(31)); 2 * c.width];
            let mut allocs = Vec::new();
            for (t, group, commits) in &script {
                let dests = group.iter().flatten().count();
                if smt.can_rename(*t, dests, group.len()) {
                    let mut fresh = Vec::new();
                    let out = if reuse { &mut buf } else { &mut fresh };
                    smt.rename_group(*t, group, out, &mut hook, &mut log)
                        .unwrap();
                    assert_eq!(out.len(), group.len());
                    allocs.push(out.clone());
                }
                for _ in 0..(*commits).min(smt.rob_len(*t)) {
                    smt.commit_head(*t, &mut NoFaults, &mut log).unwrap();
                }
            }
            assert!(hook.fired, "the steered call was reached");
            (allocs, log, smt.contents())
        };
        let (reused, fresh) = (run(true), run(false));
        assert!(reused.0.len() > 100, "most groups renamed");
        assert_eq!(reused.0, fresh.0, "PdstIDs");
        assert_eq!(reused.1, fresh.1, "event and thread-hint streams");
        assert_eq!(reused.2, fresh.2, "final contents");
    }

    #[test]
    fn thread_hints_mirror_routing() {
        let mut smt = SmtRrs::new(cfg());
        let mut log = HintLog::default();
        let mut hook = OneShot::new(
            OpSite::ThreadSelect,
            0,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        smt.rename_group(1, &[Some(4)], &mut Vec::new(), &mut hook, &mut log)
            .unwrap();
        // FL pop attributed to t1, RAT traffic routed to t0, ROB to t1.
        assert_eq!(log.hints, vec![1, 0, 1]);
    }
}
