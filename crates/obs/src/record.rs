//! Recorders: where events go.
//!
//! The simulator is generic over [`Recorder`]. The [`NullRecorder`] is the
//! default and compiles to nothing — `enabled()` is a `const false`, so
//! every `if recorder.enabled() { ... }` block and every event
//! construction feeding `record()` is dead code the optimizer removes.
//! [`RingRecorder`] is the real sink: it keeps a bounded ring of recent
//! events, exact per-kind counts, and a streaming FNV-1a digest over the
//! *entire* event stream (not just the retained tail), so two runs whose
//! digests agree recorded identical traces even when the ring wrapped.
//!
//! Recorders stay out of simulator snapshots. A recorded run forks its
//! recorder by cloning it: a [`RingRecorder`] clone carries the ring,
//! counts, digest and dedup state, so a run forked from a snapshot into
//! the clone emits a byte-identical trace to a cold run paused at the
//! same cycle.

use std::collections::VecDeque;

use crate::event::{EventKind, Fnv64, ObsEvent, TimedEvent};

/// Default bounded capacity of [`RingRecorder`]'s retained-event ring.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Sink for pipeline events. Implementations must be cheap to consult:
/// the simulator calls [`Recorder::enabled`] on hot paths to skip event
/// assembly entirely.
pub trait Recorder {
    /// Whether this recorder wants events. Hot-path guard: when this
    /// returns `false` the caller skips building events altogether.
    fn enabled(&self) -> bool;

    /// Records one event stamped with the cycle it occurred in. Cycles
    /// must be non-decreasing across calls.
    fn record(&mut self, cycle: u64, ev: ObsEvent);
}

/// The recorder that records nothing. All methods are trivially inlinable
/// no-ops, making the observability layer free when unused.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _cycle: u64, _ev: ObsEvent) {}
}

/// Ring-buffered event sink with exact aggregate statistics.
///
/// Three stream-shaping rules live here rather than in the simulator so
/// a clone carries them across a fork unchanged:
///
/// * [`ObsEvent::CheckerCode`] events are deduplicated — only value
///   *changes* are recorded, turning the per-cycle XOR poll into a delta
///   stream.
/// * [`ObsEvent::Detection`] events are deduplicated per checker name —
///   only the first firing of each checker is recorded.
/// * [`ObsEvent::FaultInjected`] is recorded once per run — the simulator
///   polls the fault hook every cycle after activation.
#[derive(Clone, Debug)]
pub struct RingRecorder {
    capacity: usize,
    ring: VecDeque<TimedEvent>,
    counts: [u64; EventKind::COUNT],
    total: u64,
    digest: Fnv64,
    last_code: Option<u32>,
    detected: Vec<&'static str>,
    injected: bool,
}

impl Default for RingRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

impl RingRecorder {
    /// A fresh recorder retaining at most `capacity` recent events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(1024)),
            counts: [0; EventKind::COUNT],
            total: 0,
            digest: Fnv64::new(),
            last_code: None,
            detected: Vec::new(),
            injected: false,
        }
    }

    /// Total events recorded over the run (including those evicted from
    /// the ring).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact per-kind event counts over the whole run.
    pub fn counts(&self) -> &[u64; EventKind::COUNT] {
        &self.counts
    }

    /// Count for one kind.
    pub fn count_of(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// FNV-1a digest over the full recorded stream.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// The retained tail of the stream, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.ring.iter()
    }

    /// Number of retained events (≤ capacity).
    pub fn retained(&self) -> usize {
        self.ring.len()
    }

    /// The configured retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Recorder for RingRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, cycle: u64, ev: ObsEvent) {
        match ev {
            // Delta-encode the checker code stream: repeats carry no
            // information and would dominate the trace.
            ObsEvent::CheckerCode { code } => {
                if self.last_code == Some(code) {
                    return;
                }
                self.last_code = Some(code);
            }
            // Only the first detection per checker is meaningful; the
            // simulator polls every cycle.
            ObsEvent::Detection { checker, .. } => {
                if self.detected.contains(&checker) {
                    return;
                }
                self.detected.push(checker);
            }
            // One injection marker per run: the simulator polls the hook's
            // activation state every cycle once it has fired.
            ObsEvent::FaultInjected { .. } => {
                if self.injected {
                    return;
                }
                self.injected = true;
            }
            _ => {}
        }
        ev.digest_into(cycle, &mut self.digest);
        self.counts[ev.kind().index()] += 1;
        self.total += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(TimedEvent { cycle, ev });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(seq: u64) -> ObsEvent {
        ObsEvent::Issue { seq }
    }

    #[test]
    fn null_recorder_is_disabled_and_stateless() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(0, issue(1));
    }

    #[test]
    fn ring_counts_and_digest_cover_evicted_events() {
        let mut r = RingRecorder::new(4);
        for i in 0..10 {
            r.record(i, issue(i));
        }
        assert_eq!(r.total(), 10);
        assert_eq!(r.count_of(EventKind::Issue), 10);
        assert_eq!(r.retained(), 4);
        // Digest covers all 10, so it differs from a 4-event run.
        let mut small = RingRecorder::new(4);
        for i in 6..10 {
            small.record(i, issue(i));
        }
        assert_ne!(r.digest(), small.digest());
        // But retained tails agree.
        assert!(r.events().eq(small.events()));
    }

    #[test]
    fn checker_code_is_delta_encoded() {
        let mut r = RingRecorder::new(16);
        r.record(0, ObsEvent::CheckerCode { code: 7 });
        r.record(1, ObsEvent::CheckerCode { code: 7 });
        r.record(2, ObsEvent::CheckerCode { code: 9 });
        r.record(3, ObsEvent::CheckerCode { code: 9 });
        assert_eq!(r.count_of(EventKind::Checker), 2);
    }

    #[test]
    fn detections_deduplicate_per_checker() {
        let mut r = RingRecorder::new(16);
        let det = |checker| ObsEvent::Detection {
            checker,
            kind: "xor-invariance",
            at: 3,
        };
        r.record(3, det("idld"));
        r.record(4, det("idld"));
        r.record(4, det("bv"));
        assert_eq!(r.count_of(EventKind::Fault), 2);
    }

    #[test]
    fn fault_injection_records_once() {
        let mut r = RingRecorder::new(16);
        r.record(5, ObsEvent::FaultInjected { site: "RatWrite" });
        r.record(6, ObsEvent::FaultInjected { site: "RatWrite" });
        r.record(7, ObsEvent::FaultInjected { site: "FlPop" });
        let faults = r
            .events()
            .filter(|te| matches!(te.ev, ObsEvent::FaultInjected { .. }))
            .count();
        assert_eq!(faults, 1);
    }

    #[test]
    fn clone_resumes_identically() {
        // Record a prefix, fork it by clone, then replay the same suffix
        // into both: the clone carries the dedup state, so the streams
        // agree.
        let mut cold = RingRecorder::new(8);
        for i in 0..6 {
            cold.record(i, issue(i));
        }
        cold.record(6, ObsEvent::CheckerCode { code: 3 });
        let mut forked = cold.clone();

        let suffix = [
            (7, ObsEvent::CheckerCode { code: 3 }), // deduped in both
            (8, issue(42)),
            (
                9,
                ObsEvent::Detection {
                    checker: "idld",
                    kind: "xor-invariance",
                    at: 9,
                },
            ),
        ];
        for &(c, ev) in &suffix {
            cold.record(c, ev);
            forked.record(c, ev);
        }
        assert_eq!(cold.digest(), forked.digest());
        assert_eq!(cold.total(), forked.total());
        assert_eq!(cold.counts(), forked.counts());
        assert!(cold.events().eq(forked.events()));
    }
}
