//! The parity (ECC-class) checker — §V.D's orthogonal companion to IDLD.

use crate::checker::{Checker, Detection, DetectionKind};
use idld_rrs::{EventSink, RrsConfig, RrsEvent};

/// Records the RAT parity alarms raised by the RRS's parity-protected read
/// ports ([`idld_rrs::RrsEvent::ParityAlarm`], enabled by
/// [`RrsConfig::parity`]).
///
/// §V.D delimits IDLD's scope: corruption of a PdstID *at rest* in an array
/// is the territory of "other well-established schemes, like ECC or
/// circular parity... orthogonal to IDLD and can be combined to provide a
/// comprehensive RRS protection". This checker is that companion: it fires
/// on the first read of a corrupted entry, while IDLD only notices when the
/// corrupted id eventually flows through a port (its eviction) — or never.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParityChecker {
    detection: Option<Detection>,
    pending: bool,
}

impl ParityChecker {
    /// Creates a checker (the config is unused today but kept for parity
    /// with the other checker constructors).
    pub fn new(_cfg: &RrsConfig) -> Self {
        ParityChecker {
            detection: None,
            pending: false,
        }
    }
}

impl EventSink for ParityChecker {
    #[inline]
    fn event(&mut self, ev: RrsEvent) {
        if matches!(ev, RrsEvent::ParityAlarm) {
            self.pending = true;
        }
    }
}

impl Checker for ParityChecker {
    fn name(&self) -> &'static str {
        "parity"
    }

    fn end_cycle(&mut self, cycle: u64) {
        if self.detection.is_none() && self.pending {
            self.detection = Some(Detection {
                cycle,
                kind: DetectionKind::ParityMismatch,
            });
        }
        self.pending = false;
    }

    fn on_pipeline_empty(&mut self, _cycle: u64) {}

    fn detection(&self) -> Option<Detection> {
        self.detection
    }

    fn reset(&mut self) {
        self.detection = None;
        self.pending = false;
    }

    fn clone_box(&self) -> Box<dyn Checker> {
        Box::new(self.clone())
    }

    fn devirt(self: Box<Self>) -> crate::checker::AnyChecker {
        crate::checker::AnyChecker::Parity(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_first_alarm_cycle() {
        let mut c = ParityChecker::new(&RrsConfig::default());
        c.end_cycle(0);
        assert_eq!(c.detection(), None);
        c.event(RrsEvent::ParityAlarm);
        c.end_cycle(5);
        c.event(RrsEvent::ParityAlarm);
        c.end_cycle(9);
        let d = c.detection().unwrap();
        assert_eq!(d.cycle, 5);
        assert_eq!(d.kind, DetectionKind::ParityMismatch);
    }

    #[test]
    fn other_events_ignored() {
        let mut c = ParityChecker::new(&RrsConfig::default());
        c.event(RrsEvent::RecoveryStart);
        c.event(RrsEvent::FlRead(idld_rrs::PhysReg(3)));
        c.end_cycle(1);
        assert_eq!(c.detection(), None);
    }

    #[test]
    fn reset_clears() {
        let mut c = ParityChecker::new(&RrsConfig::default());
        c.event(RrsEvent::ParityAlarm);
        c.end_cycle(1);
        assert!(c.detection().is_some());
        c.reset();
        assert_eq!(c.detection(), None);
    }
}
