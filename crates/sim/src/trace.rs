//! Commit traces and on-the-fly divergence detection.
//!
//! The paper's outcome classification (§IV.A) distinguishes *order*
//! divergence (a different instruction committed at position *i* — the
//! Control Flow Deviation class and worse) from *timing* divergence (the
//! same instruction committed in a different cycle — the Performance
//! class). Storing full traces for every injected run would be wasteful, so
//! runs compare against the golden trace incrementally and record only the
//! first divergence of each kind.
//!
//! Both cores route every retirement through one function, `observe_commit`,
//! to [`CommitTrace`] (recording), [`TraceMonitor`] (comparing) and the
//! event recorder's [`ObsEvent::Commit`] — one source of truth for what
//! committed when. The module also holds the rest of the run plumbing the
//! out-of-order and SMT cores share: the end-of-cycle probes
//! (`record_cycle_probes`) and the end-of-run checks (`finish_checks`).
//!
//! A campaign keeps one golden trace per (sweep point × workload) alive for
//! its whole life, so the trace is delta-encoded at about 2 bytes per
//! commit (see [`CommitTrace`]).

use crate::result::SimStop;
use idld_core::CheckerSet;
use idld_obs::{ObsEvent, Recorder};
use idld_rrs::FaultHook;

/// Pc delta that sends the commit's full pc to the side vector.
const PC_ESCAPE: i8 = i8::MIN;
/// Cycle delta that sends the commit's full cycle to the side vector.
const CYCLE_ESCAPE: u8 = u8::MAX;
/// Commits per seek block: a cursor can start anywhere after at most
/// `SEEK_EVERY - 1` decodes.
const SEEK_EVERY: usize = 1024;

/// Decoder state at the start of a seek block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct SeekPoint {
    /// Pc of the commit before the block (0 before the first).
    pc: u32,
    /// Cycle of the commit before the block (0 before the first).
    cycle: u64,
    /// Position in the pc side vector.
    pc_escapes: u32,
    /// Position in the cycle side vector.
    cycle_escapes: u32,
}

/// A recorded commit trace: the pc and cycle of every committed
/// instruction, in program order.
///
/// The trace is delta-encoded. Each commit stores one `i8` pc delta and one
/// `u8` commit-cycle delta from the previous commit (the first from pc 0 at
/// cycle 0). A delta that does not fit is written as the escape value
/// (`i8::MIN`, `u8::MAX`) and the full pc or cycle goes to a side vector, so
/// any sequence round-trips: SMT thread-tagged pcs (bit 30), far jumps and
/// long stalls all take escapes. Every 1024 commits a seek point records
/// the previous pc and cycle and both side-vector positions, so
/// [`TraceMonitor::new_at`] joins mid-trace after at most 1023 decodes.
///
/// The campaign kernels never take an escape: a trace costs 2 bytes per
/// commit plus 24 bytes per 1024 commits (about 2.02 B per commit, against
/// 12 B for plain `u32` pc and `u64` cycle vectors). Read it back with
/// [`CommitTrace::iter`], [`CommitTrace::pcs`] or [`CommitTrace::cycles`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CommitTrace {
    /// Per commit: the pc delta and the commit-cycle delta.
    deltas: Vec<(i8, u8)>,
    pc_escapes: Vec<u32>,
    cycle_escapes: Vec<u64>,
    seeks: Vec<SeekPoint>,
    last_pc: u32,
    last_cycle: u64,
}

impl CommitTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True if nothing has committed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Appends one commit record.
    #[inline]
    pub fn push(&mut self, pc: usize, cycle: u64) {
        if self.deltas.len().is_multiple_of(SEEK_EVERY) {
            self.seeks.push(SeekPoint {
                pc: self.last_pc,
                cycle: self.last_cycle,
                pc_escapes: side_position(self.pc_escapes.len()),
                cycle_escapes: side_position(self.cycle_escapes.len()),
            });
        }
        let pc = pc as u32;
        let pc_delta = match i8::try_from(pc.wrapping_sub(self.last_pc) as i32) {
            Ok(d) if d != PC_ESCAPE => d,
            _ => {
                self.pc_escapes.push(pc);
                PC_ESCAPE
            }
        };
        let cycle_delta = match u8::try_from(cycle.wrapping_sub(self.last_cycle)) {
            Ok(d) if d != CYCLE_ESCAPE => d,
            _ => {
                self.cycle_escapes.push(cycle);
                CYCLE_ESCAPE
            }
        };
        self.deltas.push((pc_delta, cycle_delta));
        self.last_pc = pc;
        self.last_cycle = cycle;
    }

    /// Releases the spare capacity left by vector growth. A golden trace
    /// lives for the whole campaign, so its slack is worth returning.
    pub fn shrink_to_fit(&mut self) {
        self.deltas.shrink_to_fit();
        self.pc_escapes.shrink_to_fit();
        self.cycle_escapes.shrink_to_fit();
        self.seeks.shrink_to_fit();
    }

    /// Heap bytes held by the trace (allocated capacity, not just length).
    pub fn heap_bytes(&self) -> usize {
        self.deltas.capacity() * size_of::<(i8, u8)>()
            + self.pc_escapes.capacity() * size_of::<u32>()
            + self.cycle_escapes.capacity() * size_of::<u64>()
            + self.seeks.capacity() * size_of::<SeekPoint>()
    }

    /// Decodes the trace as `(pc, cycle)` pairs in commit order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, u64)> + '_ {
        Cursor::at(self, 0)
    }

    /// Decodes the committed pcs in order.
    pub fn pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(pc, _)| pc)
    }

    /// Decodes the commit cycles in order.
    pub fn cycles(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(_, cycle)| cycle)
    }
}

/// A side-vector position as stored in a seek point.
fn side_position(len: usize) -> u32 {
    u32::try_from(len).expect("commit trace side vector exceeds u32 positions")
}

/// A decode cursor over a [`CommitTrace`], yielding `(pc, cycle)` pairs.
#[derive(Clone, Debug)]
struct Cursor<'t> {
    trace: &'t CommitTrace,
    /// Index of the next commit to decode.
    index: usize,
    pc: u32,
    cycle: u64,
    pc_escapes: usize,
    cycle_escapes: usize,
}

impl<'t> Cursor<'t> {
    /// A cursor whose next decode is commit `start`, reached from the
    /// nearest seek point. At or past the end the cursor is exhausted.
    fn at(trace: &'t CommitTrace, start: usize) -> Self {
        let mut cursor = Cursor {
            trace,
            index: trace.len(),
            pc: 0,
            cycle: 0,
            pc_escapes: 0,
            cycle_escapes: 0,
        };
        if start < trace.len() {
            let block = start / SEEK_EVERY;
            let seek = trace.seeks[block];
            cursor.index = block * SEEK_EVERY;
            cursor.pc = seek.pc;
            cursor.cycle = seek.cycle;
            cursor.pc_escapes = seek.pc_escapes as usize;
            cursor.cycle_escapes = seek.cycle_escapes as usize;
            for _ in cursor.index..start {
                cursor.next();
            }
        }
        cursor
    }

    /// Decodes a commit with at least one escaped field. Kept out of line:
    /// the campaign kernels never escape, and inlining this path doubled
    /// the cost of [`TraceMonitor::observe`].
    #[cold]
    #[inline(never)]
    fn escaped(&mut self, pc_delta: i8, cycle_delta: u8) {
        let t = self.trace;
        self.pc = if pc_delta == PC_ESCAPE {
            self.pc_escapes += 1;
            t.pc_escapes[self.pc_escapes - 1]
        } else {
            self.pc.wrapping_add(pc_delta as i32 as u32)
        };
        self.cycle = if cycle_delta == CYCLE_ESCAPE {
            self.cycle_escapes += 1;
            t.cycle_escapes[self.cycle_escapes - 1]
        } else {
            self.cycle.wrapping_add(u64::from(cycle_delta))
        };
    }
}

impl Iterator for Cursor<'_> {
    type Item = (u32, u64);

    #[inline]
    fn next(&mut self) -> Option<(u32, u64)> {
        let &(pc_delta, cycle_delta) = self.trace.deltas.get(self.index)?;
        self.index += 1;
        if pc_delta == PC_ESCAPE || cycle_delta == CYCLE_ESCAPE {
            self.escaped(pc_delta, cycle_delta);
        } else {
            self.pc = self.pc.wrapping_add(pc_delta as i32 as u32);
            self.cycle = self.cycle.wrapping_add(u64::from(cycle_delta));
        }
        Some((self.pc, self.cycle))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.len() - self.index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Cursor<'_> {}

/// First divergences from a golden trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Divergence {
    /// Cycle of the first *order* divergence (different instruction
    /// committed, or trace length mismatch at termination).
    pub order: Option<u64>,
    /// Cycle of the first *timing* divergence (same instruction, different
    /// commit cycle).
    pub timing: Option<u64>,
}

impl Divergence {
    /// True if the commit trace deviated from golden in any way.
    pub fn any(&self) -> bool {
        self.order.is_some() || self.timing.is_some()
    }

    /// The earliest divergence cycle of any kind.
    pub fn first_cycle(&self) -> Option<u64> {
        match (self.order, self.timing) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Streams a run's commits against a golden trace, recording first
/// divergences.
///
/// The monitor walks the golden trace with a decode cursor: each observed
/// commit decodes exactly one golden entry, whether or not it matches, so
/// comparing a whole run costs one decode per commit and no allocation.
#[derive(Clone, Debug)]
pub struct TraceMonitor<'g> {
    golden: Cursor<'g>,
    divergence: Divergence,
}

impl<'g> TraceMonitor<'g> {
    /// Creates a monitor comparing against `golden`.
    pub fn new(golden: &'g CommitTrace) -> Self {
        Self::new_at(golden, 0)
    }

    /// Creates a monitor that joins the comparison at commit position
    /// `start_index`, for runs resumed from a state snapshot: the first
    /// `start_index` commits were produced by the golden run itself, so
    /// they match by construction and need no re-checking. The cursor
    /// starts from the nearest seek point, at most 1023 decodes away. A
    /// start at or past the golden length treats every commit as extra.
    pub fn new_at(golden: &'g CommitTrace, start_index: usize) -> Self {
        TraceMonitor {
            golden: Cursor::at(golden, start_index),
            divergence: Divergence::default(),
        }
    }

    /// Observes one commit.
    #[inline]
    pub fn observe(&mut self, pc: usize, cycle: u64) {
        match self.golden.next() {
            // Extra instructions beyond the golden run.
            None => {
                self.divergence.order.get_or_insert(cycle);
            }
            Some((golden_pc, _)) if golden_pc as usize != pc => {
                self.divergence.order.get_or_insert(cycle);
            }
            Some((_, golden_cycle)) if golden_cycle != cycle => {
                self.divergence.timing.get_or_insert(cycle);
            }
            Some(_) => {}
        }
    }

    /// Declares the run finished at `cycle`; a short trace is an order
    /// divergence.
    pub fn finish(&mut self, cycle: u64) -> Divergence {
        if self.golden.len() > 0 {
            self.divergence.order.get_or_insert(cycle);
        }
        self.divergence
    }

    /// The divergences recorded so far.
    pub fn divergence(&self) -> Divergence {
        self.divergence
    }
}

/// Routes the commit of `pc` (instruction `seq`) at `cycle` to the
/// recorded trace (golden runs, `record`), the divergence monitor
/// (injected runs) and the recorder.
#[inline(always)]
pub(crate) fn observe_commit<R: Recorder>(
    cycle: u64,
    pc: usize,
    seq: u64,
    trace: &mut CommitTrace,
    monitor: &mut Option<TraceMonitor<'_>>,
    record: bool,
    recorder: &mut R,
) {
    let pc = pc as u32;
    if record {
        trace.push(pc as usize, cycle);
    }
    if let Some(m) = monitor {
        m.observe(pc as usize, cycle);
    }
    recorder.record(cycle, ObsEvent::Commit { pc, seq });
}

/// Records the end-of-cycle probes when the recorder is on: the
/// `occupancy` event, the XOR code, the fault activation and every
/// checker's detection. The recorder keeps only changes of the code and
/// one event per activation and detection.
#[inline(always)]
pub(crate) fn record_cycle_probes<R: Recorder>(
    cycle: u64,
    hook: &impl FaultHook,
    checkers: &CheckerSet,
    recorder: &mut R,
    occupancy: impl FnOnce() -> ObsEvent,
) {
    if !recorder.enabled() {
        return;
    }
    recorder.record(cycle, occupancy());
    if let Some(code) = checkers.xor_code() {
        recorder.record(cycle, ObsEvent::CheckerCode { code });
    }
    if let Some((_, site)) = hook.activation() {
        recorder.record(cycle, ObsEvent::FaultInjected { site });
    }
    checkers.for_each_detection(|name, d| {
        recorder.record(
            cycle,
            ObsEvent::Detection {
                checker: name,
                kind: d.kind.label(),
                at: d.cycle,
            },
        );
    });
}

/// The end-of-run checks of a run that stopped with `stop` at `cycle`. A
/// halted pipeline is architecturally drained, so the empty-point
/// checkers (bit vector, counter) get their final check. The monitor's
/// verdict counts a short trace as an order divergence at `cycle`: a run
/// that stopped abnormally committed less than its golden run, which
/// halted.
pub(crate) fn finish_checks(
    stop: SimStop,
    cycle: u64,
    monitor: Option<TraceMonitor<'_>>,
    checkers: &mut CheckerSet,
) -> Divergence {
    if stop == SimStop::Halted {
        checkers.end_cycle(cycle);
        checkers.on_pipeline_empty(cycle);
    }
    monitor.map_or_else(Divergence::default, |mut m| m.finish(cycle))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> CommitTrace {
        let mut t = CommitTrace::new();
        t.push(0, 1);
        t.push(1, 2);
        t.push(2, 5);
        t
    }

    #[test]
    fn identical_run_has_no_divergence() {
        let g = golden();
        let mut m = TraceMonitor::new(&g);
        m.observe(0, 1);
        m.observe(1, 2);
        m.observe(2, 5);
        let d = m.finish(6);
        assert!(!d.any());
        assert_eq!(d.first_cycle(), None);
    }

    #[test]
    fn timing_divergence_detected() {
        let g = golden();
        let mut m = TraceMonitor::new(&g);
        m.observe(0, 1);
        m.observe(1, 3); // late
        m.observe(2, 5);
        let d = m.finish(6);
        assert_eq!(d.timing, Some(3));
        assert_eq!(d.order, None);
        assert_eq!(d.first_cycle(), Some(3));
    }

    #[test]
    fn order_divergence_detected() {
        let g = golden();
        let mut m = TraceMonitor::new(&g);
        m.observe(0, 1);
        m.observe(7, 2); // wrong instruction
        let d = m.finish(9);
        assert_eq!(d.order, Some(2));
    }

    #[test]
    fn order_beats_timing_in_first_cycle() {
        let d = Divergence {
            order: Some(4),
            timing: Some(9),
        };
        assert_eq!(d.first_cycle(), Some(4));
    }

    #[test]
    fn short_trace_is_order_divergence_at_finish() {
        let g = golden();
        let mut m = TraceMonitor::new(&g);
        m.observe(0, 1);
        let d = m.finish(100);
        assert_eq!(d.order, Some(100));
    }

    #[test]
    fn monitor_joining_mid_trace_skips_the_verified_prefix() {
        let g = golden();
        let mut m = TraceMonitor::new_at(&g, 2);
        m.observe(2, 5);
        assert!(!m.finish(6).any(), "resumed run matches golden suffix");

        let mut late = TraceMonitor::new_at(&g, 2);
        late.observe(2, 9); // same pc, late commit
        assert_eq!(late.finish(10).timing, Some(9));
    }

    #[test]
    fn long_trace_is_order_divergence() {
        let g = golden();
        let mut m = TraceMonitor::new(&g);
        m.observe(0, 1);
        m.observe(1, 2);
        m.observe(2, 5);
        m.observe(3, 6); // extra
        assert_eq!(m.divergence().order, Some(6));
    }
}
