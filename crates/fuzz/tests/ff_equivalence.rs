//! Seeded fast-forward equivalence fuzzing.
//!
//! Every forked campaign run restores a lean golden snapshot (no memory)
//! through the in-order emulator behind an architectural bit-exactness
//! gate. Its proof obligation is that forking is *invisible* in every
//! output byte. These tests probe that obligation across the generator's
//! random program space, not just the curated suite:
//!
//! * [`ff_campaigns_produce_bit_identical_records`] — whole campaigns
//!   over ≥12 random halting programs, the default forked path vs the
//!   cold oracle (`snapshot_max: 0`) at 1 and 4 threads: the exported
//!   `records.csv` must be byte-identical and every forked run must have
//!   passed the arch gate.
//! * [`ff_forks_emit_byte_identical_traces`] — single injected runs with
//!   a [`RingRecorder`] attached: a fork restored from a golden snapshot
//!   through the emulator, recording into a clone of the cold run's
//!   recorder paused at the fork cycle, must emit the exact same event
//!   stream as the cold run (FNV digest, totals, per-kind counts,
//!   retained tail), with the same run result and detections.

use idld_bugs::{BugModel, BugSpec, SingleShotHook};
use idld_campaign::{export, Campaign, CampaignConfig, GoldenRun};
use idld_core::{BitVectorChecker, CheckerSet, CounterChecker, IdldChecker};
use idld_fuzz::{generate, iter_rng, GenConfig};
use idld_isa::Emulator;
use idld_obs::RingRecorder;
use idld_sim::{SimConfig, Simulator};
use idld_workloads::Workload;

const SEED: u64 = 0xFF_1D1D;
const MIN_PROGRAMS: usize = 12;
const MAX_ITERS: u64 = 600;
/// Minimum dynamic length (architectural steps) for a usable program: a
/// run must outlive at least a few snapshot strides or every injection
/// starts cold and the fast-forward path is never exercised.
const MIN_STEPS: u64 = 400;

/// Generates random programs until `MIN_PROGRAMS` of them halt cleanly on
/// the emulator (those are the only ones a campaign can golden-run) *and*
/// run long enough for mid-trace snapshots to exist.
fn random_workloads(salt: u64) -> Vec<Workload> {
    let mut out = Vec::new();
    for iter in 0..MAX_ITERS {
        if out.len() >= MIN_PROGRAMS {
            break;
        }
        let mut rng = iter_rng(SEED ^ salt, iter);
        let gen_cfg = GenConfig::sample(&mut rng);
        let program = generate(&gen_cfg, &mut rng);
        let steps = {
            let mut emu = Emulator::new(&program);
            let r = emu.run(2_000_000);
            if r.stop != idld_isa::StopReason::Halted {
                continue;
            }
            r.steps
        };
        if steps < MIN_STEPS {
            continue;
        }
        if let Ok(w) = Workload::capture(format!("fuzz-{iter:03}"), program, 2_000_000) {
            out.push(w);
        }
    }
    assert!(
        out.len() >= MIN_PROGRAMS,
        "generator produced too few long halting programs ({}/{MIN_PROGRAMS})",
        out.len()
    );
    out
}

#[test]
fn ff_campaigns_produce_bit_identical_records() {
    let workloads = random_workloads(0);
    let base = CampaignConfig {
        runs_per_cell: 2,
        seed: 0x1d1d,
        // Generated programs are far shorter than the suite workloads the
        // automatic stride is tuned for; a fine stride makes sure the
        // forked path actually executes.
        snapshot_stride: 64,
        ..CampaignConfig::default()
    };

    let cold = Campaign::new(CampaignConfig {
        snapshot_max: 0,
        ..base.clone()
    })
    .run(&workloads)
    .expect("cold campaign");
    assert_eq!(cold.snapshot_stats.forked_runs, 0, "the oracle never forks");
    let cold_csv = export::to_csv(&cold);

    for threads in [1, 4] {
        let forked = Campaign::new(CampaignConfig {
            threads,
            ..base.clone()
        })
        .run(&workloads)
        .expect("default campaign");
        assert_eq!(
            cold_csv,
            export::to_csv(&forked),
            "{threads} thread(s): forking changed a record byte"
        );
        assert_eq!(forked.poisoned().count(), 0, "no run tripped the arch gate");
        assert!(
            forked.snapshot_stats.forked_runs > 0,
            "random programs produced no forked runs — the test probes nothing"
        );
    }
}

#[test]
fn ff_forks_emit_byte_identical_traces() {
    let sim_cfg = SimConfig::default();
    let checkers_for = || {
        let mut c = CheckerSet::new();
        c.push(Box::new(IdldChecker::new(&sim_cfg.rrs)));
        c.push(Box::new(BitVectorChecker::new(&sim_cfg.rrs)));
        c.push(Box::new(CounterChecker::new(&sim_cfg.rrs)));
        c
    };

    let mut forked = 0usize;
    for (i, w) in random_workloads(0x7ace).iter().enumerate() {
        // Fine stride: generated programs are much shorter than the suite
        // workloads the automatic stride is tuned for.
        let golden = GoldenRun::capture_with_snapshots(w, sim_cfg, 64, 64).expect("golden");

        let mut rng = iter_rng(SEED ^ 0x7ace, i as u64);
        let model = BugModel::ALL[i % BugModel::ALL.len()];
        let Some(spec) = BugSpec::sample(model, &golden.census, sim_cfg.rrs.pdst_bits(), &mut rng)
        else {
            continue;
        };
        let Some(snap) = golden.snapshot_for(&spec) else {
            continue; // cold either way: trivially equivalent
        };
        forked += 1;

        // The cold injected run, paused at the fork cycle: its recorder
        // there is the one a fork resumes from.
        let mut chk_a = checkers_for();
        let mut rec_a = RingRecorder::new(512);
        let mut sim_a = Simulator::new(&w.program, sim_cfg);
        let mut hook_a = SingleShotHook::new(spec);
        let mut seg_a = sim_a.begin_run(Some(&golden.trace), golden.timeout_budget());
        let paused =
            seg_a.step_until_observed(&mut sim_a, &mut hook_a, &mut chk_a, snap.cycle, &mut rec_a);
        assert_eq!(paused, None, "{}: cold run reaches the fork", w.name);
        assert_eq!(sim_a.cycle(), snap.cycle, "{}: same fork point", w.name);
        let mut rec_b = rec_a.clone();
        let stop_a = seg_a.run_to_end_observed(&mut sim_a, &mut hook_a, &mut chk_a, &mut rec_a);
        let res_a = seg_a.finish(&mut sim_a, stop_a, &mut chk_a);

        // The fork: memory rebuilt by the emulator, admitted through the
        // bit-exactness gate, recording into the clone.
        let mut emu = Emulator::new(&w.program);
        emu.run_to_step(snap.state.committed())
            .expect("clean prefix");
        let mut chk_b = CheckerSet::new();
        let mut sim_b = Simulator::new(&w.program, sim_cfg);
        sim_b
            .restore_from_arch(&snap.state, &emu, &mut chk_b)
            .expect("arch gate passes on the golden prefix");
        let mut hook_b = SingleShotHook::resumed(spec, snap.counts[spec.site.index()], snap.cycle);
        let mut seg_b = sim_b.begin_run(Some(&golden.trace), golden.timeout_budget());
        let stop_b = seg_b.run_to_end_observed(&mut sim_b, &mut hook_b, &mut chk_b, &mut rec_b);
        let res_b = seg_b.finish(&mut sim_b, stop_b, &mut chk_b);

        assert_eq!(res_a.stop, res_b.stop, "{}: stop", w.name);
        assert_eq!(res_a.cycles, res_b.cycles, "{}: cycles", w.name);
        assert_eq!(res_a.committed, res_b.committed, "{}: commits", w.name);
        assert_eq!(res_a.output, res_b.output, "{}: output", w.name);
        assert_eq!(res_a.stats, res_b.stats, "{}: stats", w.name);
        assert_eq!(
            res_a.divergence, res_b.divergence,
            "{}: divergence classification",
            w.name
        );
        assert_eq!(
            rec_a.digest(),
            rec_b.digest(),
            "{}: event stream digest",
            w.name
        );
        assert_eq!(rec_a.total(), rec_b.total(), "{}: event totals", w.name);
        assert_eq!(
            rec_a.counts(),
            rec_b.counts(),
            "{}: per-kind counts",
            w.name
        );
        assert!(
            rec_a.events().eq(rec_b.events()),
            "{}: retained event tails",
            w.name
        );
        assert_eq!(
            chk_a.detections(),
            chk_b.detections(),
            "{}: checker verdicts",
            w.name
        );
    }
    assert!(
        forked >= MIN_PROGRAMS / 2,
        "too few injected runs actually forked from snapshots ({forked})"
    );
}
