//! The free-register counter baseline scheme of paper §V.E.

use crate::checker::{Checker, Detection, DetectionKind};
use idld_rrs::{EventSink, RrsConfig, RrsEvent};

/// The counting alternative: track the number of free registers and check
/// at pipeline-empty points that it equals `num_phys - num_arch`.
///
/// Cost: `log2(num_phys)` bits — the cheapest scheme — but, as §V.E notes,
/// it cannot detect a *combined* duplication and leakage (`x + 1 - 1 == x`)
/// and it cannot see PdstID corruption at all.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CounterChecker {
    free: i64,
    expected_free: i64,
    max: i64,
    detection: Option<Detection>,
    pending: Option<DetectionKind>,
}

impl CounterChecker {
    /// Creates a checker for an RRS in its power-on state.
    pub fn new(cfg: &RrsConfig) -> Self {
        CounterChecker {
            free: (cfg.num_phys - cfg.num_arch) as i64,
            expected_free: (cfg.num_phys - cfg.num_arch) as i64,
            max: cfg.num_phys as i64,
            detection: None,
            pending: None,
        }
    }

    /// Creates a checker for a 2-way SMT RRS in its power-on state (shared
    /// FL holding `num_phys - 2 * num_arch` ids).
    pub fn new_smt(cfg: &RrsConfig) -> Self {
        let free = (cfg.num_phys - idld_rrs::NUM_THREADS * cfg.num_arch) as i64;
        CounterChecker {
            free,
            expected_free: free,
            max: cfg.num_phys as i64,
            detection: None,
            pending: None,
        }
    }

    /// The current free-register count.
    pub fn free_count(&self) -> i64 {
        self.free
    }
}

impl EventSink for CounterChecker {
    #[inline]
    fn event(&mut self, ev: RrsEvent) {
        match ev {
            RrsEvent::FlRead(_) => self.free -= 1,
            RrsEvent::FlWrite(_) => self.free += 1,
            _ => return,
        }
        if (self.free < 0 || self.free > self.max) && self.pending.is_none() {
            self.pending = Some(DetectionKind::CounterRange);
        }
    }
}

impl Checker for CounterChecker {
    fn name(&self) -> &'static str {
        "counter"
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
        if self.detection.is_none() && self.free != self.expected_free {
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
        self.free = self.expected_free;
        self.detection = None;
        self.pending = None;
    }

    fn clone_box(&self) -> Box<dyn Checker> {
        Box::new(self.clone())
    }

    fn devirt(self: Box<Self>) -> crate::checker::AnyChecker {
        crate::checker::AnyChecker::Counter(*self)
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
            ..RrsConfig::default()
        }
    }

    #[test]
    fn balanced_traffic_is_clean() {
        let mut c = CounterChecker::new(&cfg());
        c.event(RrsEvent::FlRead(PhysReg(4)));
        c.event(RrsEvent::FlWrite(PhysReg(0)));
        c.end_cycle(0);
        c.on_pipeline_empty(0);
        assert!(c.detection().is_none());
        assert_eq!(c.free_count(), 12);
    }

    #[test]
    fn leak_detected_at_empty_point() {
        let mut c = CounterChecker::new(&cfg());
        c.event(RrsEvent::FlRead(PhysReg(4)));
        c.end_cycle(0);
        assert!(c.detection().is_none());
        c.on_pipeline_empty(8);
        assert_eq!(
            c.detection().unwrap().kind,
            DetectionKind::FreeCountMismatch
        );
    }

    #[test]
    fn combined_dup_and_leak_is_invisible() {
        // §V.E: one id leaks (read, never returned) while another
        // duplicates (written twice) — the count is unchanged.
        let mut c = CounterChecker::new(&cfg());
        c.event(RrsEvent::FlRead(PhysReg(4))); // leak of p4
        c.event(RrsEvent::FlRead(PhysReg(5)));
        c.event(RrsEvent::FlWrite(PhysReg(6)));
        c.event(RrsEvent::FlWrite(PhysReg(6))); // duplicate of p6
        c.end_cycle(0);
        c.on_pipeline_empty(1);
        assert!(c.detection().is_none(), "counter is blind to dup+leak");
    }

    #[test]
    fn range_violation_detected_immediately() {
        let mut c = CounterChecker::new(&cfg());
        for _ in 0..5 {
            c.event(RrsEvent::FlWrite(PhysReg(1)));
        }
        c.end_cycle(3);
        assert_eq!(c.detection().unwrap().kind, DetectionKind::CounterRange);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = CounterChecker::new(&cfg());
        c.event(RrsEvent::FlRead(PhysReg(4)));
        c.on_pipeline_empty(0);
        assert!(c.detection().is_some());
        c.reset();
        assert!(c.detection().is_none());
        assert_eq!(c.free_count(), 12);
    }
}
