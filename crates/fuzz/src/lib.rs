//! Seeded, deterministic differential fuzzing for the IDLD reproduction.
//!
//! Three pieces, composed by [`run_fuzz`]:
//!
//! * [`gen`] — a random tiny-RISC program generator with tunable shape
//!   knobs whose output is structurally valid and termination-guaranteed
//!   by construction;
//! * [`oracle`] — a lockstep differential oracle executing each program
//!   on the architectural emulator and on the OoO simulator at several
//!   configurations, cross-checking stop reasons, output streams,
//!   architectural register/memory state and commit traces, and flagging
//!   any checker detection on a clean run;
//! * [`soundness`](mod@soundness) — a checker-soundness fuzzer injecting random Table-I
//!   bugs into cleanly-halting generated programs and verifying IDLD's
//!   completeness and instantaneity claims.
//!
//! Determinism: iteration `i` of seed `s` derives its RNG from `(s, i)`
//! alone (same scheme as the campaign's per-run RNGs), so any finding is
//! reproducible from its `(seed, iter)` pair regardless of which other
//! iterations ran. Findings are minimized with [`minimize()`] and persisted
//! by [`corpus`] as `.asm` + seed metadata.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod soundness;

pub use corpus::CorpusEntry;
pub use gen::{generate, GenConfig};
pub use minimize::minimize;
pub use oracle::{differential, DiffDivergence, DiffOutcome};
pub use soundness::{soundness, SoundnessOutcome, SoundnessViolation};

use idld_isa::Program;
use idld_sim::SimConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

/// Which oracle(s) an iteration exercises.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Clean-run lockstep comparison only.
    Differential,
    /// Bug-injection soundness checking only.
    Soundness,
    /// Both (the default).
    Both,
}

impl Mode {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "diff" | "differential" => Some(Mode::Differential),
            "soundness" => Some(Mode::Soundness),
            "both" => Some(Mode::Both),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Differential => "diff",
            Mode::Soundness => "soundness",
            Mode::Both => "both",
        }
    }
}

/// A fuzzing session's parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; every iteration derives from `(seed, iter)`.
    pub seed: u64,
    /// Number of iterations.
    pub iters: u64,
    /// Which oracle(s) to run.
    pub mode: Mode,
    /// Pipeline widths to cross-check (must be non-empty; ≥ 2 entries
    /// also enables the cross-width commit-trace comparison).
    pub widths: Vec<usize>,
    /// Soundness injections per bug model per iteration.
    pub per_model: usize,
    /// Delta-debug findings before reporting them.
    pub minimize: bool,
    /// Where to persist findings (`None` = don't persist).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x1d1d,
            iters: 200,
            mode: Mode::Both,
            widths: vec![2, 4],
            per_model: 1,
            minimize: true,
            corpus_dir: None,
        }
    }
}

/// One reported finding (a divergence or soundness violation), carrying
/// its reproducer.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Iteration that produced it.
    pub iter: u64,
    /// `"diff"` or `"soundness"`.
    pub mode: &'static str,
    /// Stable short label (see [`DiffDivergence::kind`] /
    /// [`SoundnessViolation::kind`]).
    pub kind: String,
    /// Human-readable description of every observation this iteration.
    pub detail: String,
    /// The minimized reproducer (equals `original` when minimization is
    /// off or failed to reduce).
    pub program: Program,
    /// The program exactly as generated.
    pub original: Program,
}

impl Finding {
    /// The corpus file stem for this finding under `seed`.
    pub fn stem(&self, seed: u64) -> String {
        format!("{}-{seed:#x}-{:05}-{}", self.mode, self.iter, self.kind)
    }
}

/// Aggregate results of a fuzzing session.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// Differential comparisons performed (programs × 1).
    pub diff_runs: u64,
    /// Soundness-checked programs (cleanly-halting ones).
    pub soundness_runs: u64,
    /// Total bug injections performed.
    pub soundness_injections: u64,
    /// Programs skipped by the soundness fuzzer (they fault by design).
    pub soundness_skipped: u64,
    /// Every finding, in iteration order.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// True when the session found nothing.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The per-iteration RNG: derived from `(seed, iter)` only, so iteration
/// results are independent of how many iterations run and in what order.
pub fn iter_rng(seed: u64, iter: u64) -> SmallRng {
    let mut h = DefaultHasher::new();
    (seed, iter).hash(&mut h);
    SmallRng::seed_from_u64(h.finish())
}

/// The simulator configurations an iteration cross-checks: one per
/// requested width, each with independently drawn optional-feature
/// toggles (move elimination, idiom elimination, memory dependence
/// speculation) so the feature matrix gets swept too.
fn sim_configs(widths: &[usize], rng: &mut SmallRng) -> Vec<SimConfig> {
    widths
        .iter()
        .map(|&w| {
            let mut c = SimConfig::with_width(w);
            c.rrs.move_elim = rng.gen_bool(0.5);
            c.rrs.idiom_elim = rng.gen_bool(0.5);
            c.mem_dep_speculation = rng.gen_bool(0.5);
            c
        })
        .collect()
}

/// The configuration the soundness fuzzer injects against for iteration
/// `iter`: one of the iteration's configurations, but with move/idiom
/// elimination forced off. Faults on *uncounted* (duplicate-marked)
/// writes are outside IDLD's tracked id circulation by design (§V.E), so
/// the detection contract is only claimed for the elimination-free
/// protection domain — which is also the paper's Table-I campaign
/// configuration.
pub fn soundness_config(sim_cfgs: &[SimConfig], iter: u64) -> SimConfig {
    let mut c = sim_cfgs[(iter as usize) % sim_cfgs.len()];
    c.rrs.move_elim = false;
    c.rrs.idiom_elim = false;
    c
}

/// Everything one iteration produced.
#[derive(Clone, Debug)]
pub struct IterationOutcome {
    /// The generated program.
    pub program: Program,
    /// The generator knobs used.
    pub gen_cfg: GenConfig,
    /// The simulator configurations cross-checked.
    pub sim_cfgs: Vec<SimConfig>,
    /// Differential result (when the mode ran it).
    pub diff: Option<DiffOutcome>,
    /// Soundness result (when the mode ran it).
    pub soundness: Option<SoundnessOutcome>,
}

/// Runs iteration `iter` of `cfg` and returns its raw outcome
/// (no minimization, no persistence). This is the unit `fuzz replay`
/// re-executes: identical `(cfg.seed, iter, mode, widths, per_model)`
/// produce an identical program and identical observations, bit for bit.
pub fn run_iteration(cfg: &FuzzConfig, iter: u64) -> IterationOutcome {
    let mut rng = iter_rng(cfg.seed, iter);
    let gen_cfg = GenConfig::sample(&mut rng);
    let mut program = generate(&gen_cfg, &mut rng);
    program.name = format!("fuzz-{:#x}-{iter:05}", cfg.seed);
    let sim_cfgs = sim_configs(&cfg.widths, &mut rng);

    let diff = matches!(cfg.mode, Mode::Differential | Mode::Both)
        .then(|| differential(&program, &sim_cfgs));
    let snd = matches!(cfg.mode, Mode::Soundness | Mode::Both).then(|| {
        let scfg = soundness_config(&sim_cfgs, iter);
        soundness(&program, scfg, cfg.per_model, &mut rng)
    });

    IterationOutcome {
        program,
        gen_cfg,
        sim_cfgs,
        diff,
        soundness: snd,
    }
}

/// Minimizes a differential finding: keep shrinking while the program
/// still produces a divergence of the same kind under the same
/// configurations.
fn minimize_diff(program: &Program, sim_cfgs: &[SimConfig], kind: &str) -> Program {
    minimize(program, |p| {
        differential(p, sim_cfgs)
            .divergences
            .iter()
            .any(|d| d.kind() == kind)
    })
}

/// Minimizes a soundness finding: keep shrinking while re-fuzzing the
/// candidate (fresh injections from a seed derived from the original
/// iteration) still produces a violation of the same kind.
fn minimize_soundness(
    program: &Program,
    scfg: SimConfig,
    per_model: usize,
    seed: u64,
    iter: u64,
    kind: &str,
) -> Program {
    minimize(program, |p| {
        let mut rng = iter_rng(seed ^ 0x5eed_5eed, iter);
        soundness(p, scfg, per_model, &mut rng)
            .violations
            .iter()
            .any(|v| v.kind() == kind)
    })
}

/// Runs a full fuzzing session, invoking `on_iter(iter, findings_so_far)`
/// after every iteration (for progress reporting).
pub fn run_fuzz_with(cfg: &FuzzConfig, mut on_iter: impl FnMut(u64, usize)) -> FuzzReport {
    assert!(!cfg.widths.is_empty(), "at least one width is required");
    let mut report = FuzzReport::default();
    for iter in 0..cfg.iters {
        let out = run_iteration(cfg, iter);
        let mut iter_findings: Vec<(&'static str, String, String)> = Vec::new();

        if let Some(d) = &out.diff {
            report.diff_runs += 1;
            if !d.clean() {
                let detail = d
                    .divergences
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join("; ");
                iter_findings.push(("diff", d.divergences[0].kind().to_string(), detail));
            }
        }
        if let Some(s) = &out.soundness {
            if s.skipped {
                report.soundness_skipped += 1;
            } else {
                report.soundness_runs += 1;
                report.soundness_injections += s.injections as u64;
            }
            if !s.clean() {
                let detail = s
                    .violations
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join("; ");
                iter_findings.push(("soundness", s.violations[0].kind().to_string(), detail));
            }
        }

        for (mode, kind, detail) in iter_findings {
            let minimized = if cfg.minimize {
                match mode {
                    "diff" => minimize_diff(&out.program, &out.sim_cfgs, &kind),
                    _ => {
                        let scfg = soundness_config(&out.sim_cfgs, iter);
                        minimize_soundness(&out.program, scfg, cfg.per_model, cfg.seed, iter, &kind)
                    }
                }
            } else {
                out.program.clone()
            };
            let finding = Finding {
                iter,
                mode,
                kind,
                detail,
                program: minimized,
                original: out.program.clone(),
            };
            if let Some(dir) = &cfg.corpus_dir {
                let entry = CorpusEntry {
                    stem: finding.stem(cfg.seed),
                    program: finding.program.clone(),
                    original: finding.original.clone(),
                    meta: finding_meta(cfg, &finding, &out),
                };
                // Persistence failure shouldn't lose the in-memory
                // finding; the caller still reports it.
                let _ = entry.save(dir);
            }
            report.findings.push(finding);
        }

        report.iters += 1;
        on_iter(iter, report.findings.len());
    }
    report
}

/// [`run_fuzz_with`] without a progress callback.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    run_fuzz_with(cfg, |_, _| {})
}

/// The metadata block persisted next to a finding's `.asm` files.
fn finding_meta(cfg: &FuzzConfig, f: &Finding, out: &IterationOutcome) -> Vec<(String, String)> {
    vec![
        ("seed".to_string(), format!("{:#x}", cfg.seed)),
        ("iter".to_string(), f.iter.to_string()),
        ("mode".to_string(), f.mode.to_string()),
        ("kind".to_string(), f.kind.clone()),
        ("detail".to_string(), f.detail.clone()),
        (
            "widths".to_string(),
            cfg.widths
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(","),
        ),
        ("per_model".to_string(), cfg.per_model.to_string()),
        ("gen_cfg".to_string(), format!("{:?}", out.gen_cfg)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_session_is_deterministic() {
        let cfg = FuzzConfig {
            iters: 5,
            minimize: false,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.iters, b.iters);
        assert_eq!(a.findings.len(), b.findings.len());
        assert_eq!(a.diff_runs, b.diff_runs);
        assert_eq!(a.soundness_injections, b.soundness_injections);
    }

    #[test]
    fn iteration_outcomes_are_order_independent() {
        let cfg = FuzzConfig::default();
        let a = run_iteration(&cfg, 3);
        let b = run_iteration(&cfg, 3);
        assert_eq!(a.program.insts, b.program.insts);
        assert_eq!(
            a.diff.as_ref().map(|d| d.divergences.clone()),
            b.diff.as_ref().map(|d| d.divergences.clone())
        );
    }
}
