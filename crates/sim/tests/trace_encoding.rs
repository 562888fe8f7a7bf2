//! Property tests of the delta-encoded commit trace and its monitor.
//!
//! Real kernels never take an escape (every pc step fits an `i8`, every
//! commit-cycle gap a `u8`), so these tests are what exercises the escape
//! paths: a `Vec<(u32, u64)>` reference must round-trip through
//! [`CommitTrace`] for pc jumps at and past the `i8` range, SMT
//! thread-tagged pcs, cycle gaps at and past the `u8` range, and lengths
//! around the 1024-commit seek blocks. [`TraceMonitor`] must report exactly
//! the divergences of a reference monitor over the plain vector, from any
//! join position.
//!
//! Cases are generated with a seeded deterministic PRNG (one fixed seed per
//! case index), so every run exercises the same corpus and failures
//! reproduce exactly; the failing case is in the panic message.

use idld_sim::{CommitTrace, Divergence, TraceMonitor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Pc steps at the edges of the `i8` delta and far beyond it.
const PC_STEPS: [i64; 10] = [0, 1, -1, 4, 127, -127, 128, -128, 1 << 31, -(1 << 31)];
/// Bit 30 carries the SMT thread tag.
const THREAD_TAG: u32 = 1 << 30;
/// Cycle gaps at the edges of the `u8` delta and far beyond it.
const CYCLE_GAPS: [u64; 7] = [0, 1, 3, 253, 254, 255, 1 << 40];

/// A commit stream with every escape kind mixed into ordinary steps.
fn stream(rng: &mut SmallRng, len: usize) -> Vec<(u32, u64)> {
    let mut pc = rng.gen_range(0u32..1 << 12);
    let mut cycle = rng.gen_range(0u64..1 << 20);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        pc = match rng.gen_range(0u32..8) {
            0 => pc.wrapping_add(PC_STEPS[rng.gen_range(0..PC_STEPS.len())] as u32),
            1 => pc ^ THREAD_TAG,
            2 => rng.gen_range(0..u32::MAX),
            _ => pc.wrapping_add(1),
        };
        cycle += match rng.gen_range(0u32..8) {
            0 | 1 => CYCLE_GAPS[rng.gen_range(0..CYCLE_GAPS.len())],
            _ => rng.gen_range(0u64..4),
        };
        out.push((pc, cycle));
    }
    out
}

fn encode(commits: &[(u32, u64)]) -> CommitTrace {
    let mut t = CommitTrace::new();
    for &(pc, cycle) in commits {
        t.push(pc as usize, cycle);
    }
    t
}

/// The monitor's first-divergence rules over a plain vector.
fn reference(golden: &[(u32, u64)], start: usize, run: &[(u32, u64)], end: u64) -> Divergence {
    let mut d = Divergence::default();
    let mut index = start;
    for &(pc, cycle) in run {
        match golden.get(index) {
            None => {
                d.order.get_or_insert(cycle);
            }
            Some(&(gpc, _)) if gpc != pc => {
                d.order.get_or_insert(cycle);
            }
            Some(&(_, gcycle)) if gcycle != cycle => {
                d.timing.get_or_insert(cycle);
            }
            Some(_) => {}
        }
        index += 1;
    }
    if index < golden.len() {
        d.order.get_or_insert(end);
    }
    d
}

fn monitored(golden: &CommitTrace, start: usize, run: &[(u32, u64)], end: u64) -> Divergence {
    let mut m = TraceMonitor::new_at(golden, start);
    for &(pc, cycle) in run {
        m.observe(pc as usize, cycle);
    }
    m.finish(end)
}

/// Lengths around the seek-block boundary, plus random ones.
fn lengths(rng: &mut SmallRng) -> Vec<usize> {
    let mut v = vec![0, 1, 2, 1023, 1024, 1025, 2048, 2049];
    v.push(rng.gen_range(3..4096));
    v
}

#[test]
fn trace_round_trips_every_escape() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x7ace ^ case);
        for len in lengths(&mut rng) {
            let commits = stream(&mut rng, len);
            let t = encode(&commits);
            let at = format!("case {case} len {len}");
            assert_eq!(t.len(), len, "{at}");
            assert_eq!(t.is_empty(), len == 0, "{at}");
            assert_eq!(t.iter().len(), len, "{at}");
            assert!(t.iter().eq(commits.iter().copied()), "{at}");
            assert!(t.pcs().eq(commits.iter().map(|c| c.0)), "{at}");
            assert!(t.cycles().eq(commits.iter().map(|c| c.1)), "{at}");

            let mut shrunk = t.clone();
            shrunk.shrink_to_fit();
            assert_eq!(shrunk, t, "{at}: shrinking keeps the trace");
            assert!(shrunk.heap_bytes() <= t.heap_bytes(), "{at}");
        }
    }
}

/// Every escape boundary, in isolation, from both signs.
#[test]
fn escape_boundaries_round_trip() {
    let mut commits = vec![(0u32, 0u64)];
    for step in PC_STEPS {
        for gap in CYCLE_GAPS {
            let &(pc, cycle) = commits.last().unwrap();
            commits.push((pc.wrapping_add(step as u32), cycle + gap));
            commits.push((pc ^ THREAD_TAG, cycle + gap + 1));
        }
    }
    commits.push((u32::MAX, u64::MAX));
    commits.push((0, 0));
    let t = encode(&commits);
    assert!(t.iter().eq(commits.iter().copied()));
}

#[test]
fn monitor_matches_reference_from_any_join_position() {
    for case in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0x3071 ^ case);
        for len in lengths(&mut rng) {
            let commits = stream(&mut rng, len);
            let golden = encode(&commits);
            let mut starts: Vec<usize> = (1020..=1030).collect();
            starts.extend([0, len.saturating_sub(1), len, len + 3]);
            for start in starts {
                let suffix = commits.get(start..).unwrap_or(&[]);
                let end = commits.last().map_or(0, |c| c.1) + 7;
                let mut runs = vec![suffix.to_vec()];
                if !suffix.is_empty() {
                    let k = rng.gen_range(0..suffix.len());
                    let mut dropped = suffix.to_vec();
                    dropped.remove(k);
                    let mut swapped = suffix.to_vec();
                    swapped[k].0 = swapped[k].0.wrapping_add(rng.gen_range(1..u32::MAX));
                    let mut late = suffix.to_vec();
                    for c in &mut late[k..] {
                        c.1 += rng.gen_range(1u64..300);
                    }
                    runs.extend([dropped, swapped, late]);
                }
                let mut extra = suffix.to_vec();
                extra.push((rng.gen_range(0..u32::MAX), end - 1));
                runs.push(extra);
                for (r, run) in runs.iter().enumerate() {
                    assert_eq!(
                        monitored(&golden, start, run, end),
                        reference(&commits, start, run, end),
                        "case {case} len {len} start {start} run {r}"
                    );
                }
            }
        }
    }
}
