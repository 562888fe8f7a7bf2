//! The IDLD checker — the paper's proposed scheme (§V).

use crate::checker::{Checker, Detection, DetectionKind};
use idld_rrs::{EventSink, PhysReg, RrsConfig, RrsEvent, SmtRrs, NUM_THREADS};

/// Instantaneous Detector of Leakage and Duplication.
///
/// Hardware cost (paper §V.B, §VI): three `pdst_bits + 1`-wide XOR
/// registers, small XOR trees on the FL/RAT/ROB ports, `2 × (pdst_bits+1)`
/// bits per RAT checkpoint for the RATxor/ROBxor snapshots, a register for
/// the retirement-RAT XOR, and one equality comparator — all off the RRS
/// critical path.
///
/// Semantics implemented here, event for event:
///
/// * every id is accumulated in its *extended* encoding
///   ([`idld_rrs::PhysReg::extended`]) so that PdstID 0 perturbs the code
///   (§V.D);
/// * each array's XOR register is updated by that array's **actual** port
///   traffic — a suppressed write-enable suppresses the XOR update too, and
///   detection arises from the imbalance against the partner array;
/// * each non-recovery cycle, `FLxor ^ RATxor ^ ROBxor` must equal the
///   constant XOR of all extended ids (§V.B, constant folded);
/// * checking is suspended between `RecoveryStart` and `RecoveryEnd`
///   (§V.C: flush actions span several cycles);
/// * RAT checkpoints carry RATxor and ROBxor snapshots; since ROB entries
///   retire *after* a checkpoint is taken, every retirement also XORs the
///   reclaimed id out of all checkpointed ROBxor values — four small XOR
///   updates the paper leaves implicit in "the checkpoint cost … is quite
///   small";
/// * during the positive recovery walk the RAT eviction reads re-derive the
///   surviving ROB entries' evicted ids, so they are folded into the
///   restored ROBxor (§V.C);
/// * a restore from the retirement RAT (the fall-back when no checkpoint
///   covers the flush point) sets RATxor from the retirement-RAT XOR and
///   ROBxor to zero — the positive walk then rebuilds the ROBxor of all
///   surviving entries from scratch.
///
/// # Rename contexts
///
/// [`IdldChecker::new`] watches one rename context, [`IdldChecker::new_smt`]
/// the [`NUM_THREADS`] contexts of an [`SmtRrs`] over one shared free list.
/// FLxor is shared; RATxor and ROBxor are per context, selected by
/// [`EventSink::thread_hint`], and the check above runs on their XOR. A
/// thread-select steering fault conserves that global flow (the leaked id
/// is reclaimed normally), so each context also keeps an ownership XOR
/// `OWNxor[t]` of the free-list traffic it requested, and with more than
/// one context each flow code `RATxor[t] ^ ROBxor[t] ^ OWNxor[t]` must keep
/// its power-on value: every id a context pops must surface in its own RAT
/// and every id its ROB reclaims must come out of its own RAT. The power-on
/// free list counts as context 0's, so the flow codes XOR to the global
/// code, and with one context the flow code *is* the global code. The SMT
/// core takes no checkpoints and has no retirement RAT, so those events
/// are single-context.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IdldChecker {
    bits: u32,
    total: u32,
    contexts: usize,
    cur: usize,
    flx: u32,
    ratx: [u32; NUM_THREADS],
    robx: [u32; NUM_THREADS],
    ownx: [u32; NUM_THREADS],
    rratx: u32,
    ckpt: Vec<Option<XorCkpt>>,
    in_recovery: bool,
    detection: Option<Detection>,
    init_flx: u32,
    init_ratx: [u32; NUM_THREADS],
}

/// XOR of `ids`' extended encodings.
fn xor_of(cfg: &RrsConfig, ids: impl Iterator<Item = PhysReg>) -> u32 {
    ids.fold(0, |a, p| a ^ p.extended(cfg.pdst_bits()))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct XorCkpt {
    ratx: u32,
    robx: u32,
}

impl IdldChecker {
    /// Creates a checker for an RRS in its power-on state.
    pub fn new(cfg: &RrsConfig) -> Self {
        let ratx = xor_of(cfg, (0..cfg.num_arch).map(|i| cfg.initial_rat(i)));
        Self::with_contexts(cfg, 1, xor_of(cfg, cfg.initial_free()), [ratx, 0])
    }

    /// Creates a checker for a 2-way SMT RRS in its power-on state
    /// ([`SmtRrs::new`]'s initial partition), one context per thread.
    pub fn new_smt(cfg: &RrsConfig) -> Self {
        let rat = |t| (0..cfg.num_arch).map(move |i| SmtRrs::initial_rat(cfg, t, i));
        let ratx = std::array::from_fn(|t| xor_of(cfg, rat(t)));
        let flx = xor_of(cfg, SmtRrs::initial_free(cfg));
        Self::with_contexts(cfg, NUM_THREADS, flx, ratx)
    }

    fn with_contexts(cfg: &RrsConfig, contexts: usize, flx: u32, ratx: [u32; NUM_THREADS]) -> Self {
        let mut ck = IdldChecker {
            bits: cfg.pdst_bits(),
            total: cfg.total_xor(),
            contexts,
            cur: 0,
            flx,
            ratx,
            robx: [0; NUM_THREADS],
            ownx: [0; NUM_THREADS],
            rratx: 0,
            ckpt: vec![None; cfg.num_ckpts],
            in_recovery: false,
            detection: None,
            init_flx: flx,
            init_ratx: ratx,
        };
        ck.reset();
        ck
    }

    /// The current accumulated code, `FLxor ^ RATxor ^ ROBxor`.
    #[inline]
    pub fn code(&self) -> u32 {
        let (flx, ratx, robx) = self.registers();
        flx ^ ratx ^ robx
    }

    /// The constant the code is compared against. The paper states the
    /// check as "equals zero" with this constant folded away.
    #[inline]
    pub fn expected(&self) -> u32 {
        self.total
    }

    /// The three XOR registers `(FLxor, RATxor, ROBxor)`, for inspection,
    /// with the RAT and ROB registers XORed across contexts.
    #[inline]
    pub fn registers(&self) -> (u32, u32, u32) {
        let sum = |r: &[u32; NUM_THREADS]| r.iter().fold(0, |a, x| a ^ x);
        (self.flx, sum(&self.ratx), sum(&self.robx))
    }

    /// Context `t`'s registers `(RATxor[t], ROBxor[t], OWNxor[t])`.
    #[inline]
    pub fn context_registers(&self, t: usize) -> (u32, u32, u32) {
        (self.ratx[t], self.robx[t], self.ownx[t])
    }

    /// Context `t`'s flow code `RATxor[t] ^ ROBxor[t] ^ OWNxor[t]`,
    /// balanced when it equals [`IdldChecker::flow_expected`].
    #[inline]
    pub fn flow_code(&self, t: usize) -> u32 {
        self.ratx[t] ^ self.robx[t] ^ self.ownx[t]
    }

    /// The power-on value of context `t`'s flow code.
    #[inline]
    pub fn flow_expected(&self, t: usize) -> u32 {
        self.init_ratx[t] ^ if t == 0 { self.init_flx } else { 0 }
    }

    /// True while checking is suspended for a multi-cycle recovery.
    #[inline]
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }
}

impl EventSink for IdldChecker {
    #[inline]
    fn event(&mut self, ev: RrsEvent) {
        let bits = self.bits;
        let t = self.cur;
        match ev {
            RrsEvent::FlRead(p) | RrsEvent::FlWrite(p) => {
                let x = p.extended(bits);
                self.flx ^= x;
                self.ownx[t] ^= x;
            }
            RrsEvent::RatWrite(p) => self.ratx[t] ^= p.extended(bits),
            RrsEvent::RatEvictRead(e) => {
                self.ratx[t] ^= e.extended(bits);
                if self.in_recovery {
                    // Positive walk: the eviction reads re-derive the
                    // surviving ROB entries' contents for the restored ROBxor.
                    self.robx[t] ^= e.extended(bits);
                }
            }
            RrsEvent::RobWrite(p) => self.robx[t] ^= p.extended(bits),
            RrsEvent::RobRead(p) => {
                let x = p.extended(bits);
                self.robx[t] ^= x;
                // Retirement removes this entry from every live checkpoint's
                // ROBxor as well (checkpoints only snapshot younger state).
                for slot in self.ckpt.iter_mut().flatten() {
                    slot.robx ^= x;
                }
            }
            RrsEvent::RratWrite { old, new } => {
                debug_assert_eq!(self.contexts, 1, "single-context event");
                // Under move elimination a side is None when the id's
                // retirement reference count did not cross zero (§V.E).
                if let Some(old) = old {
                    self.rratx ^= old.extended(bits);
                }
                if let Some(new) = new {
                    self.rratx ^= new.extended(bits);
                }
            }
            RrsEvent::CkptTake { slot } => {
                debug_assert_eq!(self.contexts, 1, "single-context event");
                self.ckpt[slot] = Some(XorCkpt {
                    ratx: self.ratx[0],
                    robx: self.robx[0],
                });
            }
            RrsEvent::CkptRestore { slot } => {
                debug_assert_eq!(self.contexts, 1, "single-context event");
                if let Some(x) = self.ckpt[slot] {
                    self.ratx[0] = x.ratx;
                    self.robx[0] = x.robx;
                }
            }
            RrsEvent::RratRestore => {
                debug_assert_eq!(self.contexts, 1, "single-context event");
                self.ratx[0] = self.rratx;
                self.robx[0] = 0;
            }
            RrsEvent::RecoveryStart => self.in_recovery = true,
            RrsEvent::RecoveryEnd => self.in_recovery = false,
            // At-rest parity alarms belong to the orthogonal ECC-class
            // protection (§V.D); IDLD tracks port traffic only.
            RrsEvent::ParityAlarm => {}
        }
    }

    #[inline]
    fn thread_hint(&mut self, t: u8) {
        self.cur = (t as usize).min(self.contexts - 1);
    }
}

impl Checker for IdldChecker {
    fn name(&self) -> &'static str {
        "idld"
    }

    fn end_cycle(&mut self, cycle: u64) {
        if self.detection.is_some() {
            return;
        }
        if self.in_recovery {
            // §V.C: the invariance need not hold mid-recovery; transfers
            // are checked in bulk at the first post-recovery cycle.
            return;
        }
        let flows_balanced = self.contexts == 1
            || (0..self.contexts).all(|t| self.flow_code(t) == self.flow_expected(t));
        if self.code() != self.total || !flows_balanced {
            self.detection = Some(Detection {
                cycle,
                kind: DetectionKind::XorInvariance,
            });
        }
    }

    fn on_pipeline_empty(&mut self, _cycle: u64) {
        // IDLD checks every cycle; nothing extra at empty points.
    }

    fn detection(&self) -> Option<Detection> {
        self.detection
    }

    fn clone_box(&self) -> Box<dyn Checker> {
        Box::new(self.clone())
    }

    fn devirt(self: Box<Self>) -> crate::checker::AnyChecker {
        crate::checker::AnyChecker::Idld(*self)
    }

    fn reset(&mut self) {
        self.cur = 0;
        self.flx = self.init_flx;
        self.ratx = self.init_ratx;
        self.robx = [0; NUM_THREADS];
        // The power-on free list counts as context 0's (see the type docs).
        self.ownx = [0; NUM_THREADS];
        self.ownx[0] = self.init_flx;
        self.rratx = self.init_ratx[0];
        self.ckpt.iter_mut().for_each(|c| *c = None);
        self.in_recovery = false;
        self.detection = None;
    }

    fn xor_code(&self) -> Option<u32> {
        Some(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::OneShot;
    use idld_rrs::event::FanoutSink;
    use idld_rrs::{Corruption, FaultHook, NoFaults, OpSite, PhysReg, RenameRequest, Rrs};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> RrsConfig {
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

    fn dest(l: usize) -> RenameRequest {
        RenameRequest {
            ldst: Some(l),
            srcs: [None, None],
            ..Default::default()
        }
    }

    /// Drives realistic traffic with periodic flush recovery; `hook` decides
    /// bug injection. Returns (rrs, checker, cycle count).
    fn drive(hook: &mut impl FaultHook, rounds: u64) -> (Rrs, IdldChecker, u64) {
        let cfg = cfg();
        let mut rrs = Rrs::new(cfg);
        let mut ck = IdldChecker::new(&cfg);
        let mut cycle = 0u64;
        for round in 0..rounds {
            if rrs.can_rename(2, 2) {
                rrs.rename_group(
                    &[dest((round % 4) as usize), dest(((round + 1) % 4) as usize)],
                    hook,
                    &mut ck,
                )
                .unwrap();
            }
            if rrs.rob_len() > 4 {
                rrs.commit_head(hook, &mut ck).unwrap();
                rrs.commit_head(hook, &mut ck).unwrap();
            }
            ck.end_cycle(cycle);
            cycle += 1;
            if round % 7 == 6 {
                // Flush the youngest half of the window.
                let offending = rrs.committed() + (rrs.renamed() - rrs.committed()) / 2;
                rrs.start_recovery(offending, hook, &mut ck);
                loop {
                    let done = rrs.step_recovery(hook, &mut ck).unwrap();
                    ck.end_cycle(cycle);
                    cycle += 1;
                    if done {
                        break;
                    }
                }
            }
        }
        (rrs, ck, cycle)
    }

    #[test]
    fn bug_free_registers_track_array_contents() {
        let (rrs, ck, _) = drive(&mut NoFaults, 40);
        assert_eq!(ck.registers(), rrs.content_xors());
        assert_eq!(ck.code(), ck.expected());
        assert!(ck.detection().is_none());
    }

    #[test]
    fn bug_free_no_false_positives_long_run() {
        let (_, ck, cycles) = drive(&mut NoFaults, 300);
        assert!(cycles > 300);
        assert!(
            ck.detection().is_none(),
            "IDLD must not false-positive (§V.D)"
        );
    }

    #[test]
    fn rat_write_suppression_detected_instantly() {
        // Paper Figure 2 scenario: RAT write-enable stuck low.
        let mut hook = OneShot::new(
            OpSite::RatWrite,
            5,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive(&mut hook, 10);
        assert!(hook.fired);
        let d = ck.detection().expect("leakage must be detected");
        assert_eq!(d.kind, DetectionKind::XorInvariance);
        // Fired in round 2-3 → detected at that cycle (instantaneous).
        assert!(
            d.cycle <= 4,
            "detection cycle {} not instantaneous",
            d.cycle
        );
    }

    #[test]
    fn fl_pop_suppression_detected_instantly() {
        let mut hook = OneShot::new(
            OpSite::FlPop,
            4,
            Corruption {
                suppress_ptr: true,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive(&mut hook, 10);
        assert!(hook.fired);
        assert!(ck.detection().is_some(), "duplication must be detected");
    }

    #[test]
    fn rob_commit_read_suppression_detected() {
        let mut hook = OneShot::new(
            OpSite::RobCommitRead,
            2,
            Corruption {
                suppress_ptr: true,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive(&mut hook, 20);
        assert!(hook.fired);
        assert!(ck.detection().is_some());
    }

    #[test]
    fn rob_alloc_suppression_detected() {
        let mut hook = OneShot::new(
            OpSite::RobAlloc,
            6,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive(&mut hook, 20);
        assert!(hook.fired);
        assert!(ck.detection().is_some());
    }

    #[test]
    fn fl_push_array_suppression_detected() {
        let mut hook = OneShot::new(
            OpSite::FlPush,
            3,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive(&mut hook, 30);
        assert!(hook.fired);
        assert!(ck.detection().is_some());
    }

    #[test]
    fn pdst_corruption_at_rat_write_detected() {
        let mut hook = OneShot::new(
            OpSite::RatWrite,
            7,
            Corruption {
                value_xor: 0b101,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive(&mut hook, 20);
        assert!(hook.fired);
        assert!(
            ck.detection().is_some(),
            "PdstID corruption must be detected"
        );
    }

    #[test]
    fn zero_pdst_handled_by_extended_bit() {
        // Force the very first allocation's RAT write to be corrupted into
        // PdstID 0 duplication scenarios: corrupt value by xor with the
        // allocated id → written id 0 iff alloc is id==mask. Instead test
        // directly: a RatWrite of p0 plus loss of p4 changes the code even
        // though p0's raw encoding is zero.
        let c = cfg();
        let mut ck = IdldChecker::new(&c);
        let before = ck.code();
        ck.event(RrsEvent::RatWrite(PhysReg(0)));
        assert_ne!(ck.code(), before, "extended bit makes id 0 visible");
    }

    #[test]
    fn detection_is_sticky_and_reports_first_cycle() {
        let c = cfg();
        let mut ck = IdldChecker::new(&c);
        ck.event(RrsEvent::FlRead(PhysReg(4)));
        ck.end_cycle(3);
        ck.end_cycle(4);
        let d = ck.detection().unwrap();
        assert_eq!(d.cycle, 3);
    }

    #[test]
    fn transient_imbalance_within_recovery_is_ignored() {
        let c = cfg();
        let mut ck = IdldChecker::new(&c);
        ck.event(RrsEvent::RecoveryStart);
        ck.event(RrsEvent::FlWrite(PhysReg(9)));
        ck.end_cycle(0);
        assert!(ck.detection().is_none(), "mid-recovery imbalance tolerated");
        // Balance restored before the recovery ends (as real walks do).
        ck.event(RrsEvent::RobRead(PhysReg(9)));
        ck.event(RrsEvent::RecoveryEnd);
        ck.end_cycle(1);
        assert!(ck.detection().is_none());
    }

    #[test]
    fn imbalance_surviving_recovery_is_detected_at_recovery_end() {
        let c = cfg();
        let mut ck = IdldChecker::new(&c);
        ck.event(RrsEvent::RecoveryStart);
        ck.event(RrsEvent::FlWrite(PhysReg(9))); // never balanced
        ck.event(RrsEvent::RecoveryEnd);
        ck.end_cycle(7);
        assert_eq!(ck.detection().unwrap().cycle, 7);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut hook = OneShot::new(
            OpSite::RatWrite,
            2,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        let (_, mut ck, _) = drive(&mut hook, 10);
        assert!(ck.detection().is_some());
        ck.reset();
        assert!(ck.detection().is_none());
        assert_eq!(ck.code(), ck.expected());
    }

    #[test]
    fn recovery_with_checkpoint_restore_keeps_checker_consistent() {
        // After many flushes, the checker registers must still equal the
        // array ground truth — this exercises CkptTake/CkptRestore and the
        // retirement adjustment of checkpointed ROBxor.
        let (rrs, ck, _) = drive(&mut NoFaults, 120);
        assert_eq!(ck.registers(), rrs.content_xors());
    }

    /// Counts the recovery events that restore RATxor/ROBxor.
    #[derive(Default)]
    struct Restores {
        ckpt: usize,
        rrat: usize,
    }

    impl EventSink for Restores {
        fn event(&mut self, ev: RrsEvent) {
            match ev {
                RrsEvent::CkptRestore { .. } => self.ckpt += 1,
                RrsEvent::RratRestore => self.rrat += 1,
                _ => {}
            }
        }
    }

    /// Ends `cycle` and checks that the one context's flow code and its
    /// power-on value equal the global code and constant.
    fn end_cycle_flow_is_global(ck: &mut IdldChecker, case: u64, cycle: u64) {
        ck.end_cycle(cycle);
        assert_eq!(ck.flow_code(0), ck.code(), "case {case} cycle {cycle}");
        assert_eq!(ck.flow_expected(0), ck.expected(), "case {case}");
    }

    /// Seeded: random rename groups, retirements and flushes, recovered
    /// from checkpoints and from the retirement RAT. Every cycle, recovery
    /// cycles included, a one-context checker's flow code is the paper's
    /// global code, so it runs the paper's check and nothing else.
    #[test]
    fn one_context_flow_code_is_the_global_code() {
        let c = cfg();
        let mut restores = Restores::default();
        for case in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(0xf10c ^ case);
            let mut rrs = Rrs::new(c);
            let mut ck = IdldChecker::new(&c);
            let mut sink = FanoutSink(&mut ck, &mut restores);
            let mut cycle = 0u64;
            for _ in 0..400 {
                let n = rng.gen_range(1..3);
                if rng.gen_bool(0.6) && rrs.can_rename(n, n) {
                    let group: Vec<_> = (0..n).map(|_| dest(rng.gen_range(0..4))).collect();
                    rrs.rename_group(&group, &mut NoFaults, &mut sink).unwrap();
                }
                if rng.gen_bool(0.4) && rrs.rob_len() > 0 {
                    rrs.commit_head(&mut NoFaults, &mut sink).unwrap();
                }
                let inflight = rrs.renamed() - rrs.committed();
                if rng.gen_bool(0.1) && inflight > 0 {
                    let offending = rrs.committed() + rng.gen_range(0..inflight);
                    rrs.start_recovery(offending, &mut NoFaults, &mut sink);
                    while !rrs.step_recovery(&mut NoFaults, &mut sink).unwrap() {
                        end_cycle_flow_is_global(sink.0, case, cycle);
                        cycle += 1;
                    }
                }
                end_cycle_flow_is_global(sink.0, case, cycle);
                cycle += 1;
            }
            assert_eq!(ck.registers(), rrs.content_xors(), "case {case}");
            assert!(ck.detection().is_none(), "case {case}");
        }
        assert!(
            restores.ckpt > 0 && restores.rrat > 0,
            "both restore paths ran"
        );
    }

    fn smt_cfg() -> RrsConfig {
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

    /// Drives interleaved 2-thread SMT traffic; returns (smt, checker, cycles).
    fn drive_smt(hook: &mut impl FaultHook, rounds: u64) -> (SmtRrs, IdldChecker, u64) {
        let c = smt_cfg();
        let mut smt = SmtRrs::new(c);
        let mut ck = IdldChecker::new_smt(&c);
        let mut cycle = 0u64;
        let mut out = Vec::new();
        for round in 0..rounds {
            let t = (round % 2) as usize;
            if smt.can_rename(t, 2, 2) {
                smt.rename_group(
                    t,
                    &[Some((round % 8) as usize), Some(((round + 3) % 8) as usize)],
                    &mut out,
                    hook,
                    &mut ck,
                )
                .unwrap();
            }
            if smt.rob_len(t) > 4 {
                smt.commit_head(t, hook, &mut ck).unwrap();
                smt.commit_head(t, hook, &mut ck).unwrap();
            }
            ck.end_cycle(cycle);
            cycle += 1;
        }
        (smt, ck, cycle)
    }

    #[test]
    fn smt_bug_free_registers_track_array_contents() {
        let (smt, ck, _) = drive_smt(&mut NoFaults, 60);
        let truth = smt.content_xors();
        assert_eq!(ck.registers().0, truth.flx);
        for t in 0..NUM_THREADS {
            let (ratx, robx, _ownx) = ck.context_registers(t);
            assert_eq!((ratx, robx), (truth.ratx[t], truth.robx[t]));
        }
        assert_eq!(ck.code(), ck.expected());
        for t in 0..NUM_THREADS {
            assert_eq!(ck.flow_code(t), ck.flow_expected(t));
        }
        assert!(ck.detection().is_none());
    }

    #[test]
    fn smt_thread_select_steering_detected_same_cycle() {
        // The headline scenario: steering conserves the global flow (the
        // summed XOR stays balanced) but breaks BOTH threads' flow codes in
        // the firing cycle.
        let mut hook = OneShot::new(
            OpSite::ThreadSelect,
            5,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive_smt(&mut hook, 20);
        assert!(hook.fired);
        assert_eq!(ck.code(), ck.expected(), "global sum is blind to steering");
        assert_ne!(ck.flow_code(0), ck.flow_expected(0));
        assert_ne!(ck.flow_code(1), ck.flow_expected(1));
        let d = ck.detection().expect("cross-thread leak must be detected");
        assert_eq!(d.kind, DetectionKind::XorInvariance);
        // Fired in round 5 (occurrence 5 of the per-round group select) →
        // detected at that very cycle.
        assert_eq!(d.cycle, 5, "detection not instantaneous");
    }

    #[test]
    fn smt_shared_fl_pop_suppression_detected_instantly() {
        let mut hook = OneShot::new(
            OpSite::SmtFlPop,
            6,
            Corruption {
                suppress_ptr: true,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive_smt(&mut hook, 20);
        assert!(hook.fired);
        assert!(ck.detection().is_some(), "shared-FL duplication missed");
    }

    #[test]
    fn smt_shared_fl_push_suppression_detected_instantly() {
        let mut hook = OneShot::new(
            OpSite::SmtFlPush,
            3,
            Corruption {
                suppress_array: true,
                suppress_ptr: true,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive_smt(&mut hook, 30);
        assert!(hook.fired);
        assert!(ck.detection().is_some(), "shared-FL leakage missed");
    }

    #[test]
    fn smt_shared_fl_value_corruption_detected_instantly() {
        let mut hook = OneShot::new(
            OpSite::SmtFlPush,
            2,
            Corruption {
                value_xor: 0b101,
                ..Corruption::NONE
            },
        );
        let (_, ck, _) = drive_smt(&mut hook, 30);
        assert!(hook.fired);
        assert!(ck.detection().is_some(), "PdstID corruption missed");
    }

    #[test]
    fn smt_detection_is_sticky_and_reset_restores_power_on() {
        let c = smt_cfg();
        let mut ck = IdldChecker::new_smt(&c);
        ck.thread_hint(1);
        ck.event(RrsEvent::FlRead(PhysReg(20)));
        ck.end_cycle(3);
        ck.end_cycle(4);
        assert_eq!(ck.detection().unwrap().cycle, 3);
        ck.reset();
        assert!(ck.detection().is_none());
        assert_eq!(ck.code(), ck.expected());
    }
}
