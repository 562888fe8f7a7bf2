//! Detection-coverage matrix over the Table-I bug classes.
//!
//! One test per class — Duplication, Leakage, PdstID Corruption — each
//! asserting, on three workloads, the paper's coverage claims for every
//! checker scheme at once:
//!
//! * **IDLD** detects every sampled injection of the class, with at least
//!   one *zero-latency* detection per workload (the titular
//!   "instantaneous" property: the XOR invariance breaks in the very
//!   cycle the control signal misbehaves).
//! * **Parity** (§V.D) never fires on any of the three classes: these are
//!   in-flight control-signal bugs, and a corrupt id is stored *with*
//!   self-consistent parity — parity only covers at-rest upsets.
//! * **Counter** (§V.E) cannot see PdstID corruption itself: bit-flips of
//!   an in-flight id leave the free-register count exactly balanced, so
//!   the counter misses most injections outright and any detection it
//!   does score is a *delayed secondary* imbalance (e.g. the corrupt id
//!   later double-freeing), never the instantaneous corruption event.

use idld::bugs::{BugModel, BugSpec, SingleShotHook};
use idld::campaign::{GoldenRun, SmtGolden};
use idld::core::{BitVectorChecker, CheckerSet, CounterChecker, IdldChecker, ParityChecker};
use idld::rrs::OpSite;
use idld::sim::{SimConfig, Simulator, SmtSimulator};
use idld::workloads::smt_pairs;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const WORKLOADS: [&str; 3] = ["crc32", "bitcount", "basicmath"];
const SAMPLES_PER_CELL: u64 = 4;

fn config() -> SimConfig {
    let mut cfg = SimConfig::default();
    // Give parity every chance: protect the RAT read ports. The matrix
    // still expects silence — control-signal corruption stores a
    // self-consistent parity bit.
    cfg.rrs.parity = true;
    cfg
}

fn full_checker_set(cfg: &SimConfig) -> CheckerSet {
    let mut c = CheckerSet::new();
    c.push(Box::new(IdldChecker::new(&cfg.rrs)));
    c.push(Box::new(BitVectorChecker::new(&cfg.rrs)));
    c.push(Box::new(CounterChecker::new(&cfg.rrs)));
    c.push(Box::new(ParityChecker::new(&cfg.rrs)));
    c
}

struct CellOutcome {
    idld_detected: u64,
    idld_zero_latency: u64,
    counter_detected: u64,
    counter_zero_latency: u64,
    parity_detected: u64,
}

/// Injects `SAMPLES_PER_CELL` bugs of `model` into `workload` under
/// `cfg` and tallies which schemes fired.
fn run_cell_with(model: BugModel, workload: &str, cfg: SimConfig) -> CellOutcome {
    let w = idld::workloads::by_name(workload).expect("suite workload exists");
    let golden = GoldenRun::capture(&w, cfg).expect("golden run valid");
    let mut out = CellOutcome {
        idld_detected: 0,
        idld_zero_latency: 0,
        counter_detected: 0,
        counter_zero_latency: 0,
        parity_detected: 0,
    };
    for k in 0..SAMPLES_PER_CELL {
        let mut rng = SmallRng::seed_from_u64(0x1d1d_0000 + k);
        let spec = BugSpec::sample(model, &golden.census, cfg.rrs.pdst_bits(), &mut rng)
            .expect("workload exercises every bug model's sites");
        let mut hook = SingleShotHook::new(spec);
        let mut checkers = full_checker_set(&cfg);
        let mut sim = Simulator::new(&w.program, cfg);
        let _ = sim.run(
            &mut hook,
            &mut checkers,
            Some(&golden.trace),
            golden.timeout_budget(),
        );
        let activation = hook
            .activation_cycle()
            .expect("sampled occurrence always fires");
        if let Some(d) = checkers.detection_of("idld") {
            out.idld_detected += 1;
            if d.cycle == activation {
                out.idld_zero_latency += 1;
            }
        }
        if let Some(d) = checkers.detection_of("counter") {
            out.counter_detected += 1;
            if d.cycle == activation {
                out.counter_zero_latency += 1;
            }
        }
        if checkers.detection_of("parity").is_some() {
            out.parity_detected += 1;
        }
    }
    out
}

fn assert_class(model: BugModel, counter_must_miss: bool) {
    for workload in WORKLOADS {
        let cell = run_cell_with(model, workload, config());
        assert_eq!(
            cell.idld_detected,
            SAMPLES_PER_CELL,
            "{workload}/{}: IDLD must detect every injection",
            model.label()
        );
        assert!(
            cell.idld_zero_latency >= 1,
            "{workload}/{}: at least one detection must be instantaneous \
             (latency 0), got {}/{} zero-latency",
            model.label(),
            cell.idld_zero_latency,
            SAMPLES_PER_CELL
        );
        assert_eq!(
            cell.parity_detected,
            0,
            "{workload}/{}: parity must not see in-flight control-signal bugs",
            model.label()
        );
        if counter_must_miss {
            assert!(
                cell.counter_detected < SAMPLES_PER_CELL,
                "{workload}/{}: the counter scheme cannot see id corruption \
                 itself — it must miss injections IDLD catches",
                model.label()
            );
            assert_eq!(
                cell.counter_zero_latency,
                0,
                "{workload}/{}: any counter hit on id corruption is a delayed \
                 secondary imbalance, never instantaneous",
                model.label()
            );
        }
    }
}

#[test]
fn duplication_matrix() {
    assert_class(BugModel::Duplication, false);
}

#[test]
fn leakage_matrix() {
    assert_class(BugModel::Leakage, false);
}

#[test]
fn pdst_corruption_matrix() {
    assert_class(BugModel::PdstCorruption, true);
}

// ───────────────────── SMT cross-thread section ─────────────────────
//
// The same matrix over the 2-thread shared-rename core: every paired-
// workload scenario, every SMT-specific Table-I site. The coverage
// claims sharpen here — a steered rename or corrupted shared-FL
// transfer crosses the thread boundary, and the per-context flow codes
// make every such leak/duplicate *instantaneous*, not just detected.

/// Occurrence indices probed at one site: first, middle, last — the
/// injection window's edges and interior.
fn probe_occurrences(total: u64) -> Vec<u64> {
    assert!(total > 0, "scenario must exercise the site");
    let mut occ = vec![0, total / 2, total - 1];
    occ.dedup();
    occ
}

/// The SMT shipping checker set plus the parity companion.
fn smt_full_checker_set(cfg: &SimConfig) -> CheckerSet {
    let mut c = CheckerSet::new();
    c.push(Box::new(IdldChecker::new_smt(&cfg.rrs)));
    c.push(Box::new(BitVectorChecker::new_smt(&cfg.rrs)));
    c.push(Box::new(CounterChecker::new_smt(&cfg.rrs)));
    c.push(Box::new(ParityChecker::new(&cfg.rrs)));
    c
}

struct SmtOutcome {
    activation: u64,
    idld: Option<u64>,
    counter: Option<u64>,
    parity: Option<u64>,
    /// The injected run is bit-identical to the golden run: both outputs
    /// match and the commit trace never diverged — the corruption moved
    /// no PdstID at all.
    no_op: bool,
}

/// Injects `spec` into the scenario's SMT run and reports who fired.
fn run_smt_injection(golden: &SmtGolden, spec: BugSpec, cfg: SimConfig) -> SmtOutcome {
    let mut hook = SingleShotHook::new(spec);
    let mut checkers = smt_full_checker_set(&cfg);
    let mut sim = SmtSimulator::new(
        [&golden.scenario.a.program, &golden.scenario.b.program],
        cfg,
    );
    let res = sim.run(
        &mut hook,
        &mut checkers,
        Some(&golden.trace),
        golden.timeout_budget(),
    );
    SmtOutcome {
        activation: hook
            .activation_cycle()
            .expect("sampled occurrence always fires"),
        idld: checkers.detection_of("idld").map(|d| d.cycle),
        counter: checkers.detection_of("counter").map(|d| d.cycle),
        parity: checkers.detection_of("parity").map(|d| d.cycle),
        no_op: res.outputs_match([&golden.outputs[0], &golden.outputs[1]]) && !res.divergence.any(),
    }
}

/// IDLD detects *every* cross-thread leak and duplicate at latency 0:
/// shared-FL pop suppression (duplication into both contexts), shared-FL
/// push suppression (leakage from the shared pool), and thread-select
/// steering (leakage into the other context's RAT) — at the injection
/// window's edges and interior, in every scenario.
#[test]
fn smt_cross_thread_leaks_and_duplicates_are_instantaneous() {
    let cfg = config();
    for scenario in smt_pairs() {
        let golden = SmtGolden::capture(&scenario, cfg).expect("golden SMT run valid");
        let cross_thread: Vec<(BugModel, idld::bugs::SiteChoice)> =
            [BugModel::Duplication, BugModel::Leakage]
                .into_iter()
                .flat_map(|m| m.smt_sites().iter().map(move |&s| (m, s)))
                .collect();
        for (model, choice) in cross_thread {
            let mut detected = 0u32;
            for occ in probe_occurrences(golden.census.count(choice.site)) {
                let spec = BugSpec {
                    site: choice.site,
                    occurrence: occ,
                    corruption: choice.corruption(0),
                    model,
                };
                let out = run_smt_injection(&golden, spec, cfg);
                match out.idld {
                    Some(cycle) => {
                        assert_eq!(
                            cycle, out.activation,
                            "{}/{spec}: cross-thread bug must be detected in \
                             its activation cycle",
                            scenario.name
                        );
                        detected += 1;
                    }
                    // A thread-select flip on a rename group that carries
                    // no destination routes no PdstID anywhere: there is
                    // nothing to leak, and the only acceptable silence is
                    // a run bit-identical to the golden one.
                    None => assert!(
                        choice.site == OpSite::ThreadSelect && out.no_op,
                        "{}/{spec}: undetected cross-thread bug perturbed \
                         the run",
                        scenario.name
                    ),
                }
                if choice.site == OpSite::ThreadSelect {
                    assert_eq!(
                        out.parity, None,
                        "{}/{spec}: parity must not see thread-select control \
                         bugs — steering stores self-consistent parity in the \
                         other thread's RAT",
                        scenario.name
                    );
                }
            }
            assert!(
                detected > 0,
                "{}/{model:?}@{:?}: every probed occurrence was a no-op — \
                 the site never carried a PdstID",
                scenario.name,
                choice.site
            );
        }
    }
}

/// The counter baseline is structurally blind to shared-FL PdstID
/// corruption: a bit-flipped id leaves the free-register count exactly
/// balanced, so any counter hit is a delayed secondary imbalance, never
/// the instantaneous corruption event IDLD reports.
#[test]
fn smt_counter_never_instantaneous_on_shared_fl_corruption() {
    let cfg = config();
    let bits = cfg.rrs.pdst_bits();
    for scenario in smt_pairs() {
        let golden = SmtGolden::capture(&scenario, cfg).expect("golden SMT run valid");
        let choice = BugModel::PdstCorruption.smt_sites()[0];
        assert_eq!(choice.site, OpSite::SmtFlPush);
        for (i, occ) in probe_occurrences(golden.census.count(choice.site))
            .into_iter()
            .enumerate()
        {
            let spec = BugSpec {
                site: choice.site,
                occurrence: occ,
                corruption: choice.corruption(1 << (i as u32 % bits)),
                model: BugModel::PdstCorruption,
            };
            let out = run_smt_injection(&golden, spec, cfg);
            assert_eq!(
                out.idld,
                Some(out.activation),
                "{}/{spec}: IDLD must catch the corrupted reclaim instantly",
                scenario.name
            );
            if let Some(c) = out.counter {
                assert!(
                    c > out.activation,
                    "{}/{spec}: counter hit at {c} must be a delayed secondary \
                     imbalance (activation {})",
                    scenario.name,
                    out.activation
                );
            }
        }
    }
}

/// The IDLD coverage claims hold across the sweep's design points, not
/// just the paper's default machine: at every `grid` preset point
/// (2-wide/2-ckpt/48-ROB through 8-wide/8-ckpt/192-ROB), every sampled
/// injection of every class is detected, with at least one zero-latency
/// detection per cell. The XOR invariance is structural — it cannot
/// depend on machine width, checkpoint count, or ROB depth.
#[test]
fn sweep_points_preserve_instantaneous_detection() {
    let sweep = idld::campaign::SweepSpec::parse("grid").expect("grid preset parses");
    assert!(
        sweep.points.len() >= 3,
        "the grid preset must cover at least three width x ckpt points"
    );
    for point in &sweep.points {
        for model in [
            BugModel::Duplication,
            BugModel::Leakage,
            BugModel::PdstCorruption,
        ] {
            for workload in ["crc32", "bitcount"] {
                let cell = run_cell_with(model, workload, point.sim);
                assert_eq!(
                    cell.idld_detected,
                    SAMPLES_PER_CELL,
                    "{}/{workload}/{}: IDLD must detect every injection at \
                     every sweep point",
                    point.label,
                    model.label()
                );
                assert!(
                    cell.idld_zero_latency >= 1,
                    "{}/{workload}/{}: at least one detection must be \
                     instantaneous, got {}/{} zero-latency",
                    point.label,
                    model.label(),
                    cell.idld_zero_latency,
                    SAMPLES_PER_CELL
                );
            }
        }
    }
}
