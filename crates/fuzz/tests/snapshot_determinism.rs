//! Seeded snapshot/fork determinism fuzzing.
//!
//! For random generated programs (reusing the differential fuzzer's
//! generator), run the simulator to completion, then rerun it pausing at
//! a random mid-run cycle, snapshot, fork the snapshot into a *fresh*
//! simulator (memory rebuilt by the in-order emulator behind the
//! bit-exactness gate) and continue. The forked continuation must be
//! bit-for-bit identical to the uninterrupted run: stop reason, cycle
//! count, commit trace, outputs, statistics, final
//! architectural/microarchitectural state, memory and checker verdicts. This is the property the campaign engine's
//! snapshot-and-fork execution rests on, probed across the generator's
//! full program space (wild memory, deep loops, calls, crashes included).

use idld_core::{BitVectorChecker, CheckerSet, CounterChecker, IdldChecker};
use idld_fuzz::{generate, iter_rng, GenConfig};
use idld_isa::{Emulator, Program};
use idld_rrs::NoFaults;
use idld_sim::{SimConfig, SimSnapshot, Simulator};
use rand::Rng;

const SEED: u64 = 0x51AB_5407;
const ITERS: u64 = 12;
const BUDGET: u64 = 5_000_000;

fn checkers_for(cfg: &SimConfig) -> CheckerSet {
    let mut c = CheckerSet::new();
    c.push(Box::new(IdldChecker::new(&cfg.rrs)));
    c.push(Box::new(BitVectorChecker::new(&cfg.rrs)));
    c.push(Box::new(CounterChecker::new(&cfg.rrs)));
    c
}

/// Restores `snap` into `fork` through the emulator gate.
fn restore(fork: &mut Simulator<'_>, program: &Program, snap: &SimSnapshot) -> CheckerSet {
    let mut emu = Emulator::new(program);
    emu.run_to_step(snap.committed()).expect("clean prefix");
    let mut checkers = CheckerSet::new();
    fork.restore_from_arch(snap, &emu, &mut checkers)
        .expect("bit-exactness gate");
    checkers
}

#[test]
fn forked_runs_match_uninterrupted_runs() {
    let mut tested = 0u64;
    for iter in 0..ITERS {
        let mut rng = iter_rng(SEED, iter);
        let gen_cfg = GenConfig::sample(&mut rng);
        let program = generate(&gen_cfg, &mut rng);
        let mut sim_cfg = SimConfig::with_width([1, 2, 4, 8][iter as usize % 4]);
        sim_cfg.mem_dep_speculation = iter % 2 == 0;

        // Uninterrupted reference.
        let mut ref_checkers = checkers_for(&sim_cfg);
        let mut ref_sim = Simulator::new(&program, sim_cfg);
        let mut ref_seg = ref_sim.begin_run(None, BUDGET);
        let ref_stop = ref_seg.run_to_end(&mut ref_sim, &mut NoFaults, &mut ref_checkers, None);
        let ref_final = ref_sim.snapshot(&ref_checkers);
        let ref_res = ref_seg.finish(&mut ref_sim, ref_stop, &mut ref_checkers);
        if ref_res.cycles < 2 {
            continue; // nothing mid-run to pause at
        }
        tested += 1;

        // Paused run: stop at a random interior cycle and snapshot.
        let pause = rng.gen_range(1..ref_res.cycles);
        let mut checkers = checkers_for(&sim_cfg);
        let mut sim = Simulator::new(&program, sim_cfg);
        let mut seg = sim.begin_run(None, BUDGET);
        let paused = seg.step_until(&mut sim, &mut NoFaults, &mut checkers, pause);
        assert_eq!(
            paused, None,
            "iter {iter}: pause {pause} < end {}",
            ref_res.cycles
        );
        let snap = sim.snapshot(&checkers);

        // Fork into a fresh simulator and run to the end.
        let mut fork = Simulator::new(&program, sim_cfg);
        let mut fork_checkers = restore(&mut fork, &program, &snap);
        assert_eq!(fork.mem(), sim.mem(), "iter {iter}: restored memory");
        let mut fseg = fork.begin_run(None, BUDGET);
        let stop = fseg.run_to_end(&mut fork, &mut NoFaults, &mut fork_checkers, None);
        let fork_final = fork.snapshot(&fork_checkers);
        let fork_res = fseg.finish(&mut fork, stop, &mut fork_checkers);

        assert_eq!(fork_res.stop, ref_res.stop, "iter {iter}: stop reason");
        assert_eq!(fork_res.cycles, ref_res.cycles, "iter {iter}: cycles");
        assert_eq!(
            fork_res.committed, ref_res.committed,
            "iter {iter}: commits"
        );
        assert_eq!(fork_res.output, ref_res.output, "iter {iter}: output");
        assert_eq!(fork_res.stats, ref_res.stats, "iter {iter}: stats");
        // The fork records only the post-pause suffix of the commit trace;
        // it must equal the reference trace's suffix from the snapshot's
        // commit position.
        let at = snap.committed() as usize;
        assert!(
            fork_res.trace.pcs().eq(ref_res.trace.pcs().skip(at)),
            "iter {iter}: trace pcs"
        );
        assert!(
            fork_res.trace.cycles().eq(ref_res.trace.cycles().skip(at)),
            "iter {iter}: trace cycles"
        );
        assert!(
            fork_final.state_eq(&ref_final),
            "iter {iter}: final simulator state diverged (pause {pause})"
        );
        assert_eq!(fork.mem(), ref_sim.mem(), "iter {iter}: final memory");
        assert_eq!(
            fork_checkers.detections(),
            ref_checkers.detections(),
            "iter {iter}: checker verdicts"
        );
        eprintln!(
            "iter {iter}: ok — {} cycles, paused at {pause}, stop {:?}",
            ref_res.cycles, ref_res.stop
        );
    }
    assert!(
        tested >= ITERS / 2,
        "generator produced too many trivial programs ({tested}/{ITERS} usable)"
    );
}

/// The same fork==cold property, extended to the observability layer:
/// with a [`RingRecorder`] attached, the fork records into a clone of the
/// paused run's recorder, so a forked continuation must reproduce the
/// *exact* event stream — whole-run FNV digest, total and per-kind
/// counts, and the retained ring tail — of the uninterrupted recorded
/// run, and the same final memory.
#[test]
fn forked_traces_match_uninterrupted_traces() {
    use idld_obs::RingRecorder;

    const TRACE_ITERS: u64 = 8;
    let mut tested = 0u64;
    for iter in 0..TRACE_ITERS {
        let mut rng = iter_rng(SEED ^ 0x000b_5e77_ace5, iter);
        let gen_cfg = GenConfig::sample(&mut rng);
        let program = generate(&gen_cfg, &mut rng);
        let mut sim_cfg = SimConfig::with_width([1, 2, 4, 8][iter as usize % 4]);
        sim_cfg.mem_dep_speculation = iter % 2 == 0;

        // Uninterrupted recorded reference. A small ring forces eviction,
        // so the digest (whole stream) and the tail (recent window) are
        // probed independently.
        let mut ref_checkers = checkers_for(&sim_cfg);
        let mut ref_rec = RingRecorder::new(512);
        let mut ref_sim = Simulator::new(&program, sim_cfg);
        let ref_res =
            ref_sim.run_observed(&mut NoFaults, &mut ref_checkers, None, BUDGET, &mut ref_rec);
        if ref_res.cycles < 2 {
            continue;
        }
        tested += 1;

        // Pause mid-run, snapshot, fork into a fresh simulator and a
        // clone of the paused recorder, finish.
        let pause = rng.gen_range(1..ref_res.cycles);
        let mut checkers = checkers_for(&sim_cfg);
        let mut rec = RingRecorder::new(512);
        let mut sim = Simulator::new(&program, sim_cfg);
        let mut seg = sim.begin_run(None, BUDGET);
        assert_eq!(
            seg.step_until_observed(&mut sim, &mut NoFaults, &mut checkers, pause, &mut rec),
            None,
            "iter {iter}: pause {pause} < end {}",
            ref_res.cycles
        );
        let snap = sim.snapshot(&checkers);

        let mut fork_rec = rec.clone();
        let mut fork = Simulator::new(&program, sim_cfg);
        let mut fork_checkers = restore(&mut fork, &program, &snap);
        let mut fseg = fork.begin_run(None, BUDGET);
        let stop =
            fseg.run_to_end_observed(&mut fork, &mut NoFaults, &mut fork_checkers, &mut fork_rec);
        let fork_res = fseg.finish(&mut fork, stop, &mut fork_checkers);

        assert_eq!(fork_res.stop, ref_res.stop, "iter {iter}: stop reason");
        assert_eq!(fork_res.cycles, ref_res.cycles, "iter {iter}: cycles");
        assert_eq!(fork.mem(), ref_sim.mem(), "iter {iter}: final memory");
        assert_eq!(
            fork_rec.digest(),
            ref_rec.digest(),
            "iter {iter}: stream digest diverged (pause {pause})"
        );
        assert_eq!(
            fork_rec.total(),
            ref_rec.total(),
            "iter {iter}: event totals"
        );
        assert_eq!(
            fork_rec.counts(),
            ref_rec.counts(),
            "iter {iter}: per-kind counts"
        );
        assert!(
            fork_rec.events().eq(ref_rec.events()),
            "iter {iter}: retained event tails diverged (pause {pause})"
        );
        eprintln!(
            "iter {iter}: ok — {} events over {} cycles, paused at {pause}",
            ref_rec.total(),
            ref_res.cycles
        );
    }
    assert!(
        tested >= TRACE_ITERS / 2,
        "generator produced too many trivial programs ({tested}/{TRACE_ITERS} usable)"
    );
}
