//! Seeded property test of [`Simulator::reset`].
//!
//! Campaign workers keep one simulator per golden cell and start every
//! cold run with `reset()`, which restores only the memory pages the
//! previous run wrote. The proof obligation: a reset simulator is
//! indistinguishable from a new one, whatever the previous run did.
//!
//! For each of at least [`MIN_PROGRAMS`] generated halting programs (at
//! widths 1, 2, 4 and 8), one simulator runs [`RUNS_PER_PROGRAM`] random
//! single-shot injections back to back with a reset after each. Every
//! run must produce a [`RunResult`], checker verdicts and final state
//! identical to the same run on a new simulator, and every reset must
//! leave a snapshot and memory equal to those of `Simulator::new`.
//!
//! The runs before a reset must include wild stores (memory written
//! where the golden run leaves the initial image), crashes and timeouts,
//! so the reset is exercised on the runs that leave the most behind.
//!
//! Forks carry the same obligation. A fork restores memory from the
//! in-order emulator by copying only the pages dirty in either image, so
//! a page the previous run dirtied but the emulator never wrote must come
//! back too. The second test forks golden snapshots onto a simulator
//! that just ran an injected run and compares each fork with the same
//! fork on a new simulator.

use idld_bugs::{BugModel, BugSpec, SingleShotHook};
use idld_campaign::{GoldenRun, GoldenSnapshot};
use idld_core::{BitVectorChecker, CheckerSet, CounterChecker, IdldChecker};
use idld_fuzz::{generate, iter_rng, GenConfig};
use idld_isa::{Emulator, Memory};
use idld_rrs::NoFaults;
use idld_sim::{RunResult, SimConfig, SimSnapshot, SimStop, Simulator};
use idld_workloads::Workload;
use rand::rngs::SmallRng;
use rand::Rng;

const SEED: u64 = 0x5E5E7;
const MIN_PROGRAMS: usize = 200;
const MAX_ITERS: u64 = 2_000;
const WIDTHS: [usize; 4] = [1, 2, 4, 8];
/// Injected runs per program, each followed by a reset.
const RUNS_PER_PROGRAM: usize = 6;

fn checkers(cfg: &SimConfig) -> CheckerSet {
    let mut c = CheckerSet::new();
    c.push(Box::new(IdldChecker::new(&cfg.rrs)));
    c.push(Box::new(BitVectorChecker::new(&cfg.rrs)));
    c.push(Box::new(CounterChecker::new(&cfg.rrs)));
    c
}

fn sample_spec(golden: &GoldenRun, cfg: &SimConfig, rng: &mut SmallRng) -> Option<BugSpec> {
    let model = BugModel::ALL[rng.gen_range(0..BugModel::ALL.len())];
    BugSpec::sample(model, &golden.census, cfg.rrs.pdst_bits(), rng)
}

/// One injected run on `sim` from its current state: the result plus
/// each checker's first detection.
fn injected_run(
    sim: &mut Simulator<'_>,
    golden: &GoldenRun,
    cfg: &SimConfig,
    spec: BugSpec,
) -> (RunResult, [Option<u64>; 3]) {
    let mut hook = SingleShotHook::new(spec);
    let mut c = checkers(cfg);
    let res = sim.run(
        &mut hook,
        &mut c,
        Some(&golden.trace),
        golden.timeout_budget(),
    );
    let det = ["idld", "bv", "counter"].map(|n| c.detection_of(n).map(|d| d.cycle));
    (res, det)
}

/// The campaign's fork of an injected run: the emulator replays the
/// golden prefix up to `snap`, the simulator restores over whatever state
/// it holds, and the hook resumes at the snapshot's census count. Returns
/// the simulator's snapshot and memory right after the restore, then the
/// run's result and detections.
fn forked_run(
    sim: &mut Simulator<'_>,
    golden: &GoldenRun,
    snap: &GoldenSnapshot,
    spec: BugSpec,
) -> (SimSnapshot, Memory, RunResult, [Option<u64>; 3]) {
    let mut emu = Emulator::new(&golden.workload.program);
    emu.run_to_step(snap.state.committed())
        .expect("the golden prefix replays");
    let mut c = CheckerSet::new();
    sim.restore_from_arch(&snap.state, &emu, &mut c)
        .expect("bit-exactness gate");
    let restored = sim.snapshot(&c);
    let restored_mem = sim.mem().clone();
    let mut hook = SingleShotHook::resumed(spec, snap.counts[spec.site.index()], snap.cycle);
    let res = sim.run(
        &mut hook,
        &mut c,
        Some(&golden.trace),
        golden.timeout_budget(),
    );
    let det = ["idld", "bv", "counter"].map(|n| c.detection_of(n).map(|d| d.cycle));
    (restored, restored_mem, res, det)
}

/// The memory a bug-free run of `golden`'s program ends with.
fn final_memory(golden: &GoldenRun, cfg: SimConfig) -> Memory {
    let mut sim = Simulator::new(&golden.workload.program, cfg);
    sim.run(
        &mut NoFaults,
        &mut CheckerSet::new(),
        None,
        golden.timeout_budget(),
    );
    sim.mem().clone()
}

/// True when `after` differs from the initial image at a byte where the
/// golden run's final memory does not: the injected run stored somewhere
/// the bug-free program never writes. Pages equal to the initial image
/// are skipped wholesale.
fn wrote_wild(initial: &Memory, golden_end: &Memory, after: &Memory) -> bool {
    fn pages(m: &Memory) -> std::slice::Chunks<'_, u8> {
        m.read_image(0, m.size()).chunks(4096)
    }
    pages(initial)
        .zip(pages(golden_end))
        .zip(pages(after))
        .any(|((i, g), a)| a != i && i.iter().zip(g).zip(a).any(|((i, g), a)| i == g && a != i))
}

#[test]
fn reset_is_indistinguishable_from_new_after_injected_runs() {
    let (mut programs, mut runs) = (0, 0);
    let (mut wild, mut crashes, mut timeouts) = (0, 0, 0);
    let empty = CheckerSet::new();
    for iter in 0..MAX_ITERS {
        if programs >= MIN_PROGRAMS {
            break;
        }
        let mut rng = iter_rng(SEED, iter);
        let gen_cfg = GenConfig::sample(&mut rng);
        let program = generate(&gen_cfg, &mut rng);
        let Ok(w) = Workload::capture(format!("reset-{iter:04}"), program, 200_000) else {
            continue;
        };
        let cfg = SimConfig::with_width(WIDTHS[iter as usize % WIDTHS.len()]);
        let Ok(golden) = GoldenRun::capture(&w, cfg) else {
            continue;
        };
        let p = &golden.workload.program;
        let initial = p.build_memory();
        let golden_end = final_memory(&golden, cfg);
        programs += 1;

        // One simulator serves every run of the program, reset between
        // runs; each run must match the same run on a new simulator.
        let mut sim = Simulator::new(p, cfg);
        let mut prev: Option<(BugSpec, SimStop)> = None;
        for _ in 0..RUNS_PER_PROGRAM {
            let Some(spec) = sample_spec(&golden, &cfg, &mut rng) else {
                continue;
            };
            let got = injected_run(&mut sim, &golden, &cfg, spec);
            let mut fresh = Simulator::new(p, cfg);
            let want = injected_run(&mut fresh, &golden, &cfg, spec);
            assert_eq!(got, want, "{}: {spec:?} after a reset of {prev:?}", w.name);
            assert!(
                sim.snapshot(&empty).state_eq(&fresh.snapshot(&empty)),
                "{}: end state of {spec:?} after a reset of {prev:?}",
                w.name
            );
            assert_eq!(
                sim.mem(),
                fresh.mem(),
                "{}: end memory of {spec:?} after a reset of {prev:?}",
                w.name
            );
            runs += 1;
            let stop = got.0.stop;
            wild += usize::from(wrote_wild(&initial, &golden_end, sim.mem()));
            crashes += usize::from(matches!(stop, SimStop::Crash(_)));
            timeouts += usize::from(stop == SimStop::CycleLimit);

            sim.reset();
            assert!(
                sim.snapshot(&empty)
                    .state_eq(&Simulator::new(p, cfg).snapshot(&empty)),
                "{}: reset after {spec:?} ({stop:?}) differs from power-on",
                w.name
            );
            assert_eq!(sim.mem(), &initial, "{}: memory after reset", w.name);
            prev = Some((spec, stop));
        }
    }
    assert!(
        programs >= MIN_PROGRAMS,
        "generator produced too few usable programs ({programs}/{MIN_PROGRAMS})"
    );
    eprintln!(
        "{programs} programs, {runs} runs: {wild} wild-store, {crashes} crash, {timeouts} timeout"
    );
    for (what, n) in [
        ("wild-store", wild),
        ("crash", crashes),
        ("timeout", timeouts),
    ] {
        assert!(n > 0, "no {what} run among {runs} injected runs");
    }
}

#[test]
fn fork_onto_a_dirtied_simulator_is_indistinguishable_from_new() {
    const FORK_PROGRAMS: usize = 100;
    let (mut programs, mut forks, mut after_wild) = (0, 0, 0);
    let empty = CheckerSet::new();
    for iter in 0..MAX_ITERS {
        if programs >= FORK_PROGRAMS {
            break;
        }
        let mut rng = iter_rng(SEED ^ 0xf0f0, iter);
        let gen_cfg = GenConfig::sample(&mut rng);
        let program = generate(&gen_cfg, &mut rng);
        let Ok(w) = Workload::capture(format!("fork-{iter:04}"), program, 200_000) else {
            continue;
        };
        let cfg = SimConfig::with_width(WIDTHS[iter as usize % WIDTHS.len()]);
        // A stride of a few dozen cycles gives the short generated
        // programs several snapshots each.
        let Ok(golden) = GoldenRun::capture_with_snapshots(&w, cfg, 24, 16) else {
            continue;
        };
        if golden.snapshots.is_empty() {
            continue;
        }
        let p = &golden.workload.program;
        let initial = p.build_memory();
        let golden_end = final_memory(&golden, cfg);
        programs += 1;

        // One simulator alternates injected cold runs, which leave their
        // stores behind, with forks restored over them.
        let mut sim = Simulator::new(p, cfg);
        for _ in 0..RUNS_PER_PROGRAM {
            let Some(dirty_spec) = sample_spec(&golden, &cfg, &mut rng) else {
                continue;
            };
            sim.reset();
            assert_eq!(sim.mem(), &initial, "{}: memory after reset", w.name);
            injected_run(&mut sim, &golden, &cfg, dirty_spec);
            let wild = wrote_wild(&initial, &golden_end, sim.mem());
            let Some(spec) = sample_spec(&golden, &cfg, &mut rng) else {
                continue;
            };
            let Some(snap) = golden.snapshot_for(&spec) else {
                continue;
            };
            let got = forked_run(&mut sim, &golden, snap, spec);
            let mut fresh = Simulator::new(p, cfg);
            let want = forked_run(&mut fresh, &golden, snap, spec);
            assert!(
                got.0.state_eq(&want.0),
                "{}: restore of cycle {} over a run of {dirty_spec:?}",
                w.name,
                snap.cycle
            );
            assert_eq!(
                got.1, want.1,
                "{}: memory restored at cycle {} over a run of {dirty_spec:?}",
                w.name, snap.cycle
            );
            assert_eq!(
                (got.2, got.3),
                (want.2, want.3),
                "{}: {spec:?} forked at cycle {} over a run of {dirty_spec:?}",
                w.name,
                snap.cycle
            );
            assert!(
                sim.snapshot(&empty).state_eq(&fresh.snapshot(&empty)),
                "{}: end state of {spec:?} forked over a run of {dirty_spec:?}",
                w.name
            );
            assert_eq!(
                sim.mem(),
                fresh.mem(),
                "{}: end memory of {spec:?} forked over a run of {dirty_spec:?}",
                w.name
            );
            forks += 1;
            after_wild += usize::from(wild);
        }
        // The dirty bitmap a fork leaves behind still covers every page
        // that differs from the initial image (also checked by the reset
        // that opens each round above).
        sim.reset();
        assert_eq!(sim.mem(), &initial, "{}: memory after reset", w.name);
    }
    assert!(
        programs >= FORK_PROGRAMS,
        "generator produced too few usable programs ({programs}/{FORK_PROGRAMS})"
    );
    eprintln!("{programs} programs, {forks} forks, {after_wild} over a wild-store run");
    assert!(
        after_wild > 0,
        "no fork over a wild-store run among {forks}"
    );
}
