//! The checker-soundness fuzzer.
//!
//! For a generated program that halts cleanly, this half of the fuzzer
//! samples random Table-I injection plans (every bug model, random site /
//! occurrence / corruption) and runs each through the campaign's
//! single-injection machinery, then checks the paper's two soundness
//! claims from the *checker's* side:
//!
//! * **completeness** — every injected leak/duplication-class bug is
//!   detected by IDLD (the XOR invariance cannot miss a deviation from an
//!   exact partition);
//! * **instantaneity** — for [`BugModel::Duplication`] and
//!   [`BugModel::Leakage`], the IDLD detection cycle is no later than the
//!   bug's first *architectural* manifestation (crash, assert, SDC,
//!   control-flow deviation or timeout). Timing-only divergences
//!   ([`OutcomeClass::Performance`]) are exempt: a wrong-path stall can
//!   precede the corrupted id's first observable use.
//!
//! Clean-run false positives are the oracle's job (see
//! [`crate::oracle`]); a run that panics inside the simulator is reported
//! as its own violation class rather than aborting the fuzzer.

use idld_bugs::{BugModel, BugSpec};
use idld_campaign::{isolated, Campaign, CampaignConfig, GoldenRun, OutcomeClass, RunRecord};
use idld_isa::Program;
use idld_sim::SimConfig;
use idld_workloads::Workload;
use rand::rngs::SmallRng;
use std::fmt;

/// One violation of the checker-soundness contract.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SoundnessViolation {
    /// The clean program halted on the emulator but the golden simulator
    /// run failed — a differential bug surfacing through the soundness
    /// path.
    GoldenMismatch {
        /// The golden-run error, rendered.
        error: String,
    },
    /// IDLD never detected an injected bug.
    NotDetected {
        /// The injected bug model.
        model: BugModel,
        /// The injection plan, rendered.
        spec: String,
        /// How the run was classified.
        outcome: OutcomeClass,
    },
    /// IDLD detected the bug only after its first architectural
    /// manifestation.
    LateDetection {
        /// The injected bug model.
        model: BugModel,
        /// The injection plan, rendered.
        spec: String,
        /// IDLD's first detection cycle.
        idld_cycle: u64,
        /// Cycle of the first architectural manifestation.
        manifestation_cycle: u64,
    },
    /// The simulator panicked during the injected run.
    RunPanicked {
        /// The injected bug model.
        model: BugModel,
        /// The injection plan, rendered.
        spec: String,
        /// The panic message.
        message: String,
    },
}

impl SoundnessViolation {
    /// A stable short label for corpus metadata and finding triage.
    pub fn kind(&self) -> &'static str {
        match self {
            SoundnessViolation::GoldenMismatch { .. } => "golden-mismatch",
            SoundnessViolation::NotDetected { .. } => "not-detected",
            SoundnessViolation::LateDetection { .. } => "late-detection",
            SoundnessViolation::RunPanicked { .. } => "run-panicked",
        }
    }
}

impl fmt::Display for SoundnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoundnessViolation::GoldenMismatch { error } => {
                write!(f, "golden simulator run failed: {error}")
            }
            SoundnessViolation::NotDetected {
                model,
                spec,
                outcome,
            } => write!(
                f,
                "{} bug never detected by IDLD ({spec}; outcome {outcome:?})",
                model.label()
            ),
            SoundnessViolation::LateDetection {
                model,
                spec,
                idld_cycle,
                manifestation_cycle,
            } => write!(
                f,
                "{} bug detected at cycle {idld_cycle}, after its manifestation at {manifestation_cycle} ({spec})",
                model.label()
            ),
            SoundnessViolation::RunPanicked {
                model,
                spec,
                message,
            } => write!(f, "{} run panicked: {message} ({spec})", model.label()),
        }
    }
}

/// The outcome of one soundness iteration.
#[derive(Clone, Debug, Default)]
pub struct SoundnessOutcome {
    /// Every violation observed.
    pub violations: Vec<SoundnessViolation>,
    /// Number of injection runs performed.
    pub injections: usize,
    /// True when the program was skipped (it does not halt cleanly, so no
    /// golden run exists to inject against).
    pub skipped: bool,
}

impl SoundnessOutcome {
    /// True when every injection honoured the soundness contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Outcomes whose manifestation cycle is an *architectural* event that
/// IDLD must beat. Performance (timing-only) manifestations are exempt.
fn architectural(outcome: OutcomeClass) -> bool {
    matches!(
        outcome,
        OutcomeClass::ControlFlowDeviation
            | OutcomeClass::Sdc
            | OutcomeClass::Timeout
            | OutcomeClass::Assert
            | OutcomeClass::Crash
    )
}

/// Checks one injected-run record against the soundness contract.
fn check_record(rec: &RunRecord, violations: &mut Vec<SoundnessViolation>) {
    if let Some(message) = &rec.poisoned {
        violations.push(SoundnessViolation::RunPanicked {
            model: rec.model,
            spec: rec.spec.to_string(),
            message: message.clone(),
        });
        return;
    }
    let Some(idld) = rec.detections.idld else {
        violations.push(SoundnessViolation::NotDetected {
            model: rec.model,
            spec: rec.spec.to_string(),
            outcome: rec.outcome,
        });
        return;
    };
    // Instantaneity: a pure leak or duplication must be caught no later
    // than its first architectural manifestation. PdstCorruption is a
    // compound (leak + duplication of a different id), so completeness is
    // required but the race against the corrupted id's first use is not.
    if matches!(rec.model, BugModel::Duplication | BugModel::Leakage) && architectural(rec.outcome)
    {
        if let Some(m) = rec.manifestation_cycle {
            if idld > m {
                violations.push(SoundnessViolation::LateDetection {
                    model: rec.model,
                    spec: rec.spec.to_string(),
                    idld_cycle: idld,
                    manifestation_cycle: m,
                });
            }
        }
    }
}

/// Runs the soundness fuzzer for one program: `per_model` random
/// injections of each bug model, against the given simulator
/// configuration. Programs that do not halt cleanly on the emulator are
/// skipped (there is no golden run to inject against).
pub fn soundness(
    program: &Program,
    sim: SimConfig,
    per_model: usize,
    rng: &mut SmallRng,
) -> SoundnessOutcome {
    let mut out = SoundnessOutcome::default();
    let workload = match Workload::capture("fuzz", program.clone(), crate::oracle::EMU_STEP_BUDGET)
    {
        Ok(w) => w,
        Err(_) => {
            // Legitimately faulting programs are differential-oracle
            // territory, not soundness territory.
            out.skipped = true;
            return out;
        }
    };
    let golden = match GoldenRun::capture(&workload, sim) {
        Ok(g) => g,
        Err(e) => {
            out.violations.push(SoundnessViolation::GoldenMismatch {
                error: e.to_string(),
            });
            return out;
        }
    };
    let campaign = Campaign::new(CampaignConfig {
        sim,
        ..CampaignConfig::default()
    });
    for model in BugModel::ALL {
        for _ in 0..per_model {
            let Some(spec) = BugSpec::sample(model, &golden.census, sim.rrs.pdst_bits(), rng)
            else {
                // No candidate site ever fires in this program (e.g. no
                // checkpoints allocated); nothing to inject.
                continue;
            };
            let rec = isolated(|| campaign.run_one(&golden, spec)).unwrap_or_else(|message| {
                RunRecord::poisoned(
                    idld_campaign::DEFAULT_LABEL,
                    0,
                    &golden.workload.name,
                    spec,
                    message,
                )
            });
            out.injections += 1;
            check_record(&rec, &mut out.violations);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use rand::SeedableRng;

    #[test]
    fn injections_into_a_generated_program_honour_the_contract() {
        let mut rng = SmallRng::seed_from_u64(11);
        let cfg = GenConfig {
            wild_mem: 0.0,
            wrong_path: 0.0,
            ..GenConfig::default()
        };
        let p = generate(&cfg, &mut rng);
        let out = soundness(&p, SimConfig::default(), 2, &mut rng);
        assert!(!out.skipped, "a wild-free program must halt cleanly");
        assert!(out.injections > 0);
        assert!(out.clean(), "violations: {:?}", out.violations);
    }

    #[test]
    fn faulting_programs_are_skipped() {
        use idld_isa::reg::r;
        let mut a = idld_isa::Asm::new();
        a.li(r(1), 1 << 40);
        a.ld(r(2), r(1), 0);
        a.halt();
        let p = a.finish();
        let mut rng = SmallRng::seed_from_u64(0);
        let out = soundness(&p, SimConfig::default(), 1, &mut rng);
        assert!(out.skipped);
        assert_eq!(out.injections, 0);
    }
}
