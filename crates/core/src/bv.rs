//! The bit-vector (BV) baseline scheme of paper §V.E.

use crate::checker::{Checker, Detection, DetectionKind};
use idld_rrs::{EventSink, RrsConfig, RrsEvent};

/// The bit-vector alternative [58 in the paper]: one bit per physical
/// register, set when the id is free, cleared when allocated.
///
/// * **Duplication** is detected when an id is freed whose bit is already
///   set (double free) — but only when the duplicate is actually
///   *reclaimed*, which is unbounded in time (§V.E).
/// * **Leakage** is detected only at pipeline-empty check points, by
///   comparing the number of set bits against `num_phys - num_arch`.
/// * Bugs that get repaired on the wrong path (e.g. a leak recovered from
///   the RHT during a flush) are invisible to the scheme — the paper's
///   motivation for IDLD.
///
/// Cost: `num_phys` bits of state (vs. IDLD's ~3×(pdst_bits+1)), plus
/// multi-ported set/clear logic, plus flush recovery of the vector. This
/// model implements the *recovered* variant: the negative-walk FL writes
/// repair the vector through the regular event stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitVectorChecker {
    free: Vec<bool>,
    expected_free: usize,
    detection: Option<Detection>,
    pending: Option<DetectionKind>,
}

impl BitVectorChecker {
    /// Creates a checker for an RRS in its power-on state.
    pub fn new(cfg: &RrsConfig) -> Self {
        let mut free = vec![false; cfg.num_phys];
        for p in cfg.initial_free() {
            free[p.index()] = true;
        }
        BitVectorChecker {
            free,
            expected_free: cfg.num_phys - cfg.num_arch,
            detection: None,
            pending: None,
        }
    }

    /// Creates a checker for a 2-way SMT RRS in its power-on state: the
    /// shared FL holds `num_phys - 2 * num_arch` ids (both contexts' RATs
    /// are pre-mapped). The scheme itself is unchanged — it watches the
    /// shared FL's traffic and is blind to which thread drives it.
    pub fn new_smt(cfg: &RrsConfig) -> Self {
        let mut free = vec![false; cfg.num_phys];
        for p in idld_rrs::SmtRrs::initial_free(cfg) {
            free[p.index()] = true;
        }
        BitVectorChecker {
            free,
            expected_free: cfg.num_phys - idld_rrs::NUM_THREADS * cfg.num_arch,
            detection: None,
            pending: None,
        }
    }

    /// Number of ids currently marked free.
    pub fn free_count(&self) -> usize {
        self.free.iter().filter(|&&b| b).count()
    }
}

impl EventSink for BitVectorChecker {
    #[inline]
    fn event(&mut self, ev: RrsEvent) {
        match ev {
            RrsEvent::FlRead(p) => {
                if let Some(b) = self.free.get_mut(p.index()) {
                    *b = false;
                }
            }
            RrsEvent::FlWrite(p) => match self.free.get_mut(p.index()) {
                Some(b) => {
                    if *b && self.pending.is_none() {
                        self.pending = Some(DetectionKind::DoubleFree);
                    }
                    *b = true;
                }
                // A corrupted id beyond the register count is itself a
                // reclamation of a nonexistent register.
                None => {
                    if self.pending.is_none() {
                        self.pending = Some(DetectionKind::DoubleFree);
                    }
                }
            },
            _ => {}
        }
    }
}

impl Checker for BitVectorChecker {
    fn name(&self) -> &'static str {
        "bv"
    }

    fn end_cycle(&mut self, cycle: u64) {
        if self.detection.is_none() {
            if let Some(kind) = self.pending.take() {
                self.detection = Some(Detection { cycle, kind });
            }
        }
        self.pending = None;
    }

    fn on_pipeline_empty(&mut self, cycle: u64) {
        if self.detection.is_none() && self.free_count() != self.expected_free {
            self.detection = Some(Detection {
                cycle,
                kind: DetectionKind::FreeCountMismatch,
            });
        }
    }

    fn detection(&self) -> Option<Detection> {
        self.detection
    }

    fn reset(&mut self) {
        let n = self.free.len();
        for (i, b) in self.free.iter_mut().enumerate() {
            *b = i >= n - self.expected_free;
        }
        self.detection = None;
        self.pending = None;
    }

    fn clone_box(&self) -> Box<dyn Checker> {
        Box::new(self.clone())
    }

    fn devirt(self: Box<Self>) -> crate::checker::AnyChecker {
        crate::checker::AnyChecker::BitVector(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idld_rrs::PhysReg;

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

    #[test]
    fn tracks_alloc_free() {
        let mut bv = BitVectorChecker::new(&cfg());
        assert_eq!(bv.free_count(), 12);
        bv.event(RrsEvent::FlRead(PhysReg(4)));
        assert_eq!(bv.free_count(), 11);
        bv.event(RrsEvent::FlWrite(PhysReg(0)));
        assert_eq!(bv.free_count(), 12);
        bv.end_cycle(0);
        assert!(bv.detection().is_none());
    }

    #[test]
    fn double_free_detected_on_reclamation() {
        let mut bv = BitVectorChecker::new(&cfg());
        bv.event(RrsEvent::FlWrite(PhysReg(5)));
        bv.end_cycle(9);
        let d = bv.detection().unwrap();
        assert_eq!(d.kind, DetectionKind::DoubleFree);
        assert_eq!(d.cycle, 9);
    }

    #[test]
    fn out_of_range_free_detected() {
        let mut bv = BitVectorChecker::new(&cfg());
        bv.event(RrsEvent::FlWrite(PhysReg(200)));
        bv.end_cycle(1);
        assert_eq!(bv.detection().unwrap().kind, DetectionKind::DoubleFree);
    }

    #[test]
    fn leak_detected_only_at_empty_point() {
        let mut bv = BitVectorChecker::new(&cfg());
        // An id is allocated but never returns: the vector shows 11 free.
        bv.event(RrsEvent::FlRead(PhysReg(4)));
        bv.end_cycle(0);
        assert!(
            bv.detection().is_none(),
            "BV cannot see the leak continuously"
        );
        bv.on_pipeline_empty(50);
        let d = bv.detection().unwrap();
        assert_eq!(d.kind, DetectionKind::FreeCountMismatch);
        assert_eq!(d.cycle, 50);
    }

    #[test]
    fn rat_traffic_is_invisible() {
        // A RAT write imbalance (leakage in the RAT) never trips the BV.
        let mut bv = BitVectorChecker::new(&cfg());
        bv.event(RrsEvent::RatWrite(PhysReg(4)));
        bv.event(RrsEvent::RatEvictRead(PhysReg(2)));
        bv.end_cycle(0);
        assert!(bv.detection().is_none());
    }

    #[test]
    fn reset_restores_free_set() {
        let mut bv = BitVectorChecker::new(&cfg());
        bv.event(RrsEvent::FlRead(PhysReg(4)));
        bv.event(RrsEvent::FlWrite(PhysReg(4)));
        bv.event(RrsEvent::FlWrite(PhysReg(4)));
        bv.end_cycle(0);
        assert!(bv.detection().is_some());
        bv.reset();
        assert!(bv.detection().is_none());
        assert_eq!(bv.free_count(), 12);
        bv.on_pipeline_empty(0);
        assert!(bv.detection().is_none());
    }
}
