//! The checker interface shared by IDLD and the baseline schemes.

use crate::bv::BitVectorChecker;
use crate::counter::CounterChecker;
use crate::idld::IdldChecker;
use crate::parity::ParityChecker;
use idld_rrs::{EventSink, RrsEvent};
use std::fmt;

/// How a checker flagged a violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DetectionKind {
    /// IDLD: `FLxor ^ RATxor ^ ROBxor` deviated from the constant.
    XorInvariance,
    /// Bit-vector: a PdstID was freed while already marked free.
    DoubleFree,
    /// Bit-vector / counter: free-register count wrong at a pipeline-empty
    /// check point.
    FreeCountMismatch,
    /// Counter: the free count left its physically possible range.
    CounterRange,
    /// Parity: a RAT read returned an entry whose stored parity disagrees
    /// with its contents (at-rest corruption, §V.D).
    ParityMismatch,
}

impl DetectionKind {
    /// Short kebab-case label for machine-readable exports (trace events,
    /// metrics keys). [`fmt::Display`] stays the human-readable phrase.
    pub const fn label(self) -> &'static str {
        match self {
            DetectionKind::XorInvariance => "xor-invariance",
            DetectionKind::DoubleFree => "double-free",
            DetectionKind::FreeCountMismatch => "free-count-mismatch",
            DetectionKind::CounterRange => "counter-range",
            DetectionKind::ParityMismatch => "parity-mismatch",
        }
    }
}

impl fmt::Display for DetectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetectionKind::XorInvariance => "xor invariance violation",
            DetectionKind::DoubleFree => "double free",
            DetectionKind::FreeCountMismatch => "free count mismatch",
            DetectionKind::CounterRange => "counter out of range",
            DetectionKind::ParityMismatch => "rat parity mismatch",
        };
        f.write_str(s)
    }
}

/// A recorded first detection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Detection {
    /// The cycle in which the violation was flagged.
    pub cycle: u64,
    /// What tripped.
    pub kind: DetectionKind,
}

/// A hardware bug checker observing the RRS port-event stream.
///
/// The driving simulator calls [`EventSink::event`] for every port transfer,
/// [`Checker::end_cycle`] once per cycle (the invariance check point) and
/// [`Checker::on_pipeline_empty`] whenever the ROB drains (the check point
/// available to the weaker baseline schemes, paper §V.E).
///
/// Checkers are `Send + Sync` and cloneable through [`Checker::clone_box`]:
/// a checker is part of the simulated hardware state, so simulator
/// snapshots capture the whole [`CheckerSet`] and campaign workers restore
/// those snapshots concurrently from shared read-only storage.
pub trait Checker: EventSink + Send + Sync {
    /// Short scheme name used in reports (e.g. `"idld"`, `"bv"`).
    fn name(&self) -> &'static str;

    /// Called at the end of cycle `cycle`; checkers that check continuously
    /// (IDLD) evaluate their invariant here and stamp pending detections.
    fn end_cycle(&mut self, cycle: u64);

    /// Called when the pipeline is empty at the end of cycle `cycle`
    /// (retired == renamed); the bit-vector and counter schemes run their
    /// leak checks here.
    fn on_pipeline_empty(&mut self, cycle: u64);

    /// The first detection, if any.
    fn detection(&self) -> Option<Detection>;

    /// Resets to power-on state (for checker reuse across runs).
    fn reset(&mut self);

    /// Clones this checker — detection state and all — behind a fresh box,
    /// so a [`CheckerSet`] inside a simulator snapshot restores to exactly
    /// the captured mid-run state.
    fn clone_box(&self) -> Box<dyn Checker>;

    /// The checker's running XOR code, for checkers whose state *is* a
    /// single XOR word (IDLD's `FLxor ^ RATxor ^ ROBxor`). Observability
    /// probes poll this per cycle to render checker-state evolution;
    /// checkers without such a word return `None` (the default).
    fn xor_code(&self) -> Option<u32> {
        None
    }

    /// Unwraps a boxed checker into the static-dispatch enum a
    /// [`CheckerSet`] stores internally. The four first-party checkers
    /// return their concrete variant, devirtualizing the per-port-event hot
    /// path; other implementors write `AnyChecker::Boxed(self)` and stay
    /// behind the box.
    fn devirt(self: Box<Self>) -> AnyChecker;
}

/// One checker behind static dispatch where possible.
///
/// The RRS fires several port events per renamed instruction and every
/// event fans out to every attached checker, so the dispatch cost is on the
/// simulator's hottest path. Storing the first-party checkers as enum
/// variants lets the compiler inline their (tiny, XOR-sized) event handlers
/// into [`CheckerSet::event`]; third-party [`Checker`] impls still work
/// through the [`AnyChecker::Boxed`] fall-back.
pub enum AnyChecker {
    /// The paper's IDLD scheme, over one or more rename contexts.
    Idld(IdldChecker),
    /// The bit-vector baseline.
    BitVector(BitVectorChecker),
    /// The counter baseline.
    Counter(CounterChecker),
    /// The RAT-parity baseline.
    Parity(ParityChecker),
    /// Any other [`Checker`] impl, behind dynamic dispatch.
    Boxed(Box<dyn Checker>),
}

macro_rules! dispatch {
    ($s:expr, $c:ident => $body:expr) => {
        match $s {
            AnyChecker::Idld($c) => $body,
            AnyChecker::BitVector($c) => $body,
            AnyChecker::Counter($c) => $body,
            AnyChecker::Parity($c) => $body,
            AnyChecker::Boxed($c) => $body,
        }
    };
}

impl AnyChecker {
    /// [`Checker::name`].
    pub fn name(&self) -> &'static str {
        dispatch!(self, c => c.name())
    }

    /// [`Checker::end_cycle`].
    #[inline]
    pub fn end_cycle(&mut self, cycle: u64) {
        dispatch!(self, c => c.end_cycle(cycle))
    }

    /// [`Checker::on_pipeline_empty`].
    #[inline]
    pub fn on_pipeline_empty(&mut self, cycle: u64) {
        dispatch!(self, c => c.on_pipeline_empty(cycle))
    }

    /// [`Checker::detection`].
    #[inline]
    pub fn detection(&self) -> Option<Detection> {
        dispatch!(self, c => c.detection())
    }

    /// [`Checker::reset`].
    pub fn reset(&mut self) {
        dispatch!(self, c => c.reset())
    }

    /// [`Checker::xor_code`].
    #[inline]
    pub fn xor_code(&self) -> Option<u32> {
        dispatch!(self, c => c.xor_code())
    }
}

impl EventSink for AnyChecker {
    #[inline]
    fn event(&mut self, ev: RrsEvent) {
        dispatch!(self, c => c.event(ev))
    }

    #[inline]
    fn thread_hint(&mut self, t: u8) {
        dispatch!(self, c => c.thread_hint(t))
    }
}

impl Clone for AnyChecker {
    fn clone(&self) -> Self {
        match self {
            AnyChecker::Idld(c) => AnyChecker::Idld(c.clone()),
            AnyChecker::BitVector(c) => AnyChecker::BitVector(c.clone()),
            AnyChecker::Counter(c) => AnyChecker::Counter(c.clone()),
            AnyChecker::Parity(c) => AnyChecker::Parity(c.clone()),
            AnyChecker::Boxed(c) => AnyChecker::Boxed(c.clone_box()),
        }
    }
}

impl fmt::Debug for AnyChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AnyChecker").field(&self.name()).finish()
    }
}

/// A set of checkers attached to one core, fed from a single event stream.
#[derive(Default)]
pub struct CheckerSet {
    checkers: Vec<AnyChecker>,
}

impl CheckerSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a checker. First-party checkers are unwrapped out of the box
    /// into static dispatch (see [`AnyChecker`]).
    pub fn push(&mut self, c: Box<dyn Checker>) -> &mut Self {
        self.checkers.push(c.devirt());
        self
    }

    /// True if the set has no checkers.
    pub fn is_empty(&self) -> bool {
        self.checkers.is_empty()
    }

    /// Number of checkers.
    pub fn len(&self) -> usize {
        self.checkers.len()
    }

    /// Forwards the cycle boundary to every checker.
    pub fn end_cycle(&mut self, cycle: u64) {
        for c in &mut self.checkers {
            c.end_cycle(cycle);
        }
    }

    /// Forwards the pipeline-empty check point to every checker.
    pub fn on_pipeline_empty(&mut self, cycle: u64) {
        for c in &mut self.checkers {
            c.on_pipeline_empty(cycle);
        }
    }

    /// First detection per checker, as `(name, detection)` pairs.
    pub fn detections(&self) -> Vec<(&'static str, Option<Detection>)> {
        self.checkers
            .iter()
            .map(|c| (c.name(), c.detection()))
            .collect()
    }

    /// Visits each checker's first detection without allocating:
    /// `f(name, detection)` for every checker that has one. Hot-path
    /// alternative to [`CheckerSet::detections`] for per-cycle polls.
    pub fn for_each_detection(&self, mut f: impl FnMut(&'static str, Detection)) {
        for c in &self.checkers {
            if let Some(d) = c.detection() {
                f(c.name(), d);
            }
        }
    }

    /// The first non-`None` [`Checker::xor_code`] in the set (in practice
    /// the IDLD checker's running code).
    pub fn xor_code(&self) -> Option<u32> {
        self.checkers.iter().find_map(|c| c.xor_code())
    }

    /// True when no future event can change what this set reports next
    /// to `golden`, the same checkers at the same point of a run that
    /// went on to detect nothing: every checker has detected (a checker
    /// keeps its first detection), or equals its counterpart in `golden`
    /// (checkers are deterministic observers, so over the same remaining
    /// events it also ends without a detection). A [`AnyChecker::Boxed`]
    /// checker has no equality and never settles before it detects; sets
    /// of different lengths never settle.
    pub fn settled_against(&self, golden: &CheckerSet) -> bool {
        self.checkers.len() == golden.checkers.len()
            && self.checkers.iter().zip(&golden.checkers).all(|pair| {
                pair.0.detection().is_some()
                    || match pair {
                        (AnyChecker::Idld(a), AnyChecker::Idld(b)) => a == b,
                        (AnyChecker::BitVector(a), AnyChecker::BitVector(b)) => a == b,
                        (AnyChecker::Counter(a), AnyChecker::Counter(b)) => a == b,
                        (AnyChecker::Parity(a), AnyChecker::Parity(b)) => a == b,
                        _ => false,
                    }
            })
    }

    /// First detection of the checker called `name`.
    pub fn detection_of(&self, name: &str) -> Option<Detection> {
        self.checkers
            .iter()
            .find(|c| c.name() == name)
            .and_then(|c| c.detection())
    }
}

impl Clone for CheckerSet {
    fn clone(&self) -> Self {
        CheckerSet {
            checkers: self.checkers.clone(),
        }
    }
}

impl EventSink for CheckerSet {
    #[inline]
    fn event(&mut self, ev: RrsEvent) {
        // Fast path for the shipping configuration (the paper's scheme
        // comparison: IDLD vs bit-vector vs counter), single-thread and
        // SMT alike. Pinning the concrete types lets the event-kind branch
        // resolve once for all three handlers instead of re-dispatching per
        // checker — the RRS emits several events per renamed instruction,
        // so this is the hottest dispatch point in the simulator.
        if let [AnyChecker::Idld(i), AnyChecker::BitVector(b), AnyChecker::Counter(c)] =
            &mut self.checkers[..]
        {
            i.event(ev);
            b.event(ev);
            c.event(ev);
            return;
        }
        for c in &mut self.checkers {
            c.event(ev);
        }
    }

    #[inline]
    fn thread_hint(&mut self, t: u8) {
        for c in &mut self.checkers {
            c.thread_hint(t);
        }
    }
}

impl fmt::Debug for CheckerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckerSet")
            .field(
                "checkers",
                &self.checkers.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idld_rrs::RrsConfig;

    #[test]
    fn set_fans_out_and_reports() {
        let cfg = RrsConfig::default();
        let mut set = CheckerSet::new();
        set.push(Box::new(IdldChecker::new(&cfg)));
        assert_eq!(set.len(), 1);
        set.end_cycle(0);
        assert_eq!(set.detections(), vec![("idld", None)]);
        assert_eq!(set.detection_of("idld"), None);
        assert_eq!(set.detection_of("nope"), None);
    }

    #[test]
    fn cloned_set_carries_checker_state() {
        let cfg = RrsConfig::default();
        let mut set = CheckerSet::new();
        set.push(Box::new(IdldChecker::new(&cfg)));
        // Desynchronize the XOR registers by feeding an unbalanced event,
        // then check the clone reports the same detection.
        set.event(idld_rrs::RrsEvent::FlRead(idld_rrs::PhysReg(40)));
        set.end_cycle(7);
        let cloned = set.clone();
        assert_eq!(cloned.len(), set.len());
        assert_eq!(cloned.detections(), set.detections());
        assert!(cloned.detection_of("idld").is_some());
    }

    /// A third-party checker: it stays behind [`AnyChecker::Boxed`].
    #[derive(Clone)]
    struct Silent;

    impl EventSink for Silent {
        fn event(&mut self, _ev: RrsEvent) {}
    }

    impl Checker for Silent {
        fn name(&self) -> &'static str {
            "silent"
        }
        fn end_cycle(&mut self, _cycle: u64) {}
        fn on_pipeline_empty(&mut self, _cycle: u64) {}
        fn detection(&self) -> Option<Detection> {
            None
        }
        fn reset(&mut self) {}
        fn clone_box(&self) -> Box<dyn Checker> {
            Box::new(self.clone())
        }
        fn devirt(self: Box<Self>) -> AnyChecker {
            AnyChecker::Boxed(self)
        }
    }

    fn trio(cfg: &RrsConfig) -> CheckerSet {
        let mut set = CheckerSet::new();
        set.push(Box::new(IdldChecker::new(cfg)));
        set.push(Box::new(BitVectorChecker::new(cfg)));
        set.push(Box::new(CounterChecker::new(cfg)));
        set
    }

    #[test]
    fn settled_against_needs_each_checker_detected_or_equal() {
        let cfg = RrsConfig::default();
        let golden = trio(&cfg);
        assert!(trio(&cfg).settled_against(&golden), "equal sets");

        // An unbalanced event moves the IDLD code but not yet its
        // detection: differing, undetected, so not settled.
        let mut run = trio(&cfg);
        run.event(RrsEvent::FlRead(idld_rrs::PhysReg(40)));
        assert!(!run.settled_against(&golden));
        // The end of the cycle stamps IDLD's detection, which it keeps
        // whatever comes; the bit-vector and counter states differ from
        // golden's too and have not detected yet, so still not settled.
        run.end_cycle(7);
        assert!(run.detection_of("idld").is_some());
        assert!(!run.settled_against(&golden));
        // Their pipeline-empty checks catch the missing register: every
        // checker has detected, so the set settles although no state
        // equals golden's.
        run.on_pipeline_empty(8);
        run.end_cycle(8);
        assert!(run.detections().iter().all(|(_, d)| d.is_some()));
        assert!(run.settled_against(&golden));

        // A boxed checker has no equality: it never settles undetected.
        let mut boxed = trio(&cfg);
        boxed.push(Box::new(Silent));
        let mut boxed_golden = trio(&cfg);
        boxed_golden.push(Box::new(Silent));
        assert!(!boxed.settled_against(&boxed_golden));

        // Sets of different lengths never settle.
        let mut short = CheckerSet::new();
        short.push(Box::new(IdldChecker::new(&cfg)));
        assert!(!short.settled_against(&golden));
        assert!(!golden.settled_against(&short));
    }

    #[test]
    fn detection_kind_display() {
        assert_eq!(
            DetectionKind::XorInvariance.to_string(),
            "xor invariance violation"
        );
        assert_eq!(DetectionKind::DoubleFree.to_string(), "double free");
    }
}
