//! The SMT campaign axis (`IDLD_SMT=1`): cross-thread injections on the
//! 2-thread shared-rename core.
//!
//! The single-thread campaign exercises the paper's Table-I sites inside
//! one context. This axis re-runs the same three bug models against the
//! [`idld_sim::SmtSimulator`] over the paired-workload scenarios of
//! [`idld_workloads::smt_pairs`], where the free list and physical
//! register file are shared between two architectural contexts — so a
//! leaked or duplicated PdstID can cross the thread boundary, and the
//! candidate site set grows by the SMT-only sites (thread-select mux,
//! shared-FL allocate/reclaim; see [`idld_bugs::BugSpec::sample_smt`]).
//!
//! The section is appended *after* the dense single-thread job space:
//! its jobs carry global indices `base_jobs + (scenario × model × k)`,
//! hash-partitioned across shards by the same rule as base jobs, so
//! shard merges interleave them back byte-identically. Runs execute
//! serially on the scheduling thread in deterministic (scenario, model,
//! k) order — the record stream is identical at any worker count by
//! construction. With the axis off, the campaign output is byte-for-byte
//! what it was before the axis existed.

use crate::campaign::{
    panic_message, Campaign, CellTimings, Detections, GoldenRunError, RunRecord,
    SUPPRESS_PANIC_OUTPUT,
};
use crate::classify::{classify_smt, manifestation_cycle_smt};
use crate::progress::CampaignProgress;
use idld_bugs::{BugModel, BugSpec, SingleShotHook};
use idld_core::{BitVectorChecker, CheckerSet, CounterChecker, IdldChecker};
use idld_rrs::CensusHook;
use idld_sim::{CommitTrace, SimConfig, SimStop, SmtSimulator};
use idld_workloads::{smt_pairs, SmtScenario};
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// Sweep-point label of every SMT-axis record ([`RunRecord::config`]).
pub const SMT_LABEL: &str = "smt";

/// The checker set attached to every SMT run: the IDLD checker over both
/// rename contexts plus the two baseline mechanisms in their shared-free-
/// list configurations.
pub fn smt_checkers(sim_cfg: &SimConfig) -> CheckerSet {
    let mut checkers = CheckerSet::new();
    checkers.push(Box::new(IdldChecker::new_smt(&sim_cfg.rrs)));
    checkers.push(Box::new(BitVectorChecker::new_smt(&sim_cfg.rrs)));
    checkers.push(Box::new(CounterChecker::new_smt(&sim_cfg.rrs)));
    checkers
}

/// A golden (bug-free) SMT run of one paired-workload scenario.
#[derive(Clone, Debug)]
pub struct SmtGolden {
    /// The scenario.
    pub scenario: SmtScenario,
    /// Full commit trace (thread-tagged pcs).
    pub trace: CommitTrace,
    /// Cycle count (the timeout budget is 2.5× this).
    pub cycles: u64,
    /// Per-thread output streams.
    pub outputs: [Vec<u64>; 2],
    /// Census of control-signal occurrences — including the SMT-only
    /// sites — used to arm injections.
    pub census: CensusHook,
}

impl SmtGolden {
    /// Executes the golden SMT run for `scenario`.
    ///
    /// # Errors
    ///
    /// Returns [`GoldenRunError`] (named with the scenario) if the pair
    /// does not halt cleanly or either thread's output deviates from its
    /// native reference.
    pub fn capture(
        scenario: &SmtScenario,
        sim_cfg: SimConfig,
    ) -> Result<SmtGolden, GoldenRunError> {
        const BUDGET: u64 = 500_000_000;
        let mut census = CensusHook::new();
        let mut checkers = smt_checkers(&sim_cfg);
        let mut sim = SmtSimulator::new([&scenario.a.program, &scenario.b.program], sim_cfg);
        let res = sim.run(&mut census, &mut checkers, None, BUDGET);
        if res.stop != SimStop::Halted {
            return Err(GoldenRunError::DidNotHalt {
                workload: scenario.name.clone(),
                stop: res.stop,
            });
        }
        if res.outputs[0] != scenario.a.expected_output
            || res.outputs[1] != scenario.b.expected_output
        {
            return Err(GoldenRunError::OutputMismatch {
                workload: scenario.name.clone(),
            });
        }
        let [out_a, out_b] = res.outputs;
        Ok(SmtGolden {
            scenario: scenario.clone(),
            trace: res.trace,
            cycles: res.cycles,
            outputs: [out_a, out_b],
            census,
        })
    }

    /// The injected-run cycle budget: 2.5× the golden cycles (the same
    /// Timeout definition as single-thread runs).
    pub fn timeout_budget(&self) -> u64 {
        self.cycles * 5 / 2
    }
}

impl Campaign {
    /// Runs one SMT injection from power-on against a scenario golden.
    pub fn run_one_smt(&self, job: usize, golden: &SmtGolden, spec: BugSpec) -> RunRecord {
        let mut checkers = smt_checkers(&self.cfg.sim);
        let mut hook = SingleShotHook::new(spec);
        let mut sim = SmtSimulator::new(
            [&golden.scenario.a.program, &golden.scenario.b.program],
            self.cfg.sim,
        );
        let res = sim.run(
            &mut hook,
            &mut checkers,
            Some(&golden.trace),
            golden.timeout_budget(),
        );
        let outcome = classify_smt(&res, [&golden.outputs[0], &golden.outputs[1]]);
        let activation_cycle = hook
            .activation_cycle()
            .expect("sampled activation must fire (identical prefix to golden)");
        let persists = outcome.is_masked() && !res.final_contents.is_exact_partition();
        RunRecord {
            config: SMT_LABEL.to_string(),
            job,
            bench: golden.scenario.name.clone(),
            model: spec.model,
            spec,
            activation_cycle,
            outcome,
            manifestation_cycle: manifestation_cycle_smt(&res, outcome),
            end_cycle: res.cycles,
            persists,
            detections: Detections {
                idld: checkers.detection_of("idld").map(|d| d.cycle),
                bv: checkers.detection_of("bv").map(|d| d.cycle),
                counter: checkers.detection_of("counter").map(|d| d.cycle),
            },
            stats: res.stats,
            poisoned: None,
        }
    }

    /// Appends the SMT section to `records`/`timings`: for every
    /// scenario this shard owns jobs in, a golden capture followed by the
    /// owned `(model, k)` injections in deterministic order, each under
    /// panic isolation. Job indices continue from `base_jobs` (the size
    /// of the dense single-thread job space, identical on every shard).
    pub(crate) fn run_smt_section(
        &self,
        base_jobs: usize,
        records: &mut Vec<RunRecord>,
        timings: &mut CellTimings,
        progress: &dyn CampaignProgress,
    ) -> Result<(), GoldenRunError> {
        let models = BugModel::ALL.len();
        let bits = self.cfg.sim.rrs.pdst_bits();
        SUPPRESS_PANIC_OUTPUT.set(true);
        let result = (|| {
            for (si, scenario) in smt_pairs().iter().enumerate() {
                let owned: Vec<(usize, BugModel, usize)> = BugModel::ALL
                    .into_iter()
                    .enumerate()
                    .flat_map(|(mi, model)| {
                        (0..self.cfg.runs_per_cell).map(move |k| (mi, model, k))
                    })
                    .filter(|&(_, model, k)| {
                        self.cfg.shards == 1
                            || self.shard_of(SMT_LABEL, &scenario.name, model, k) == self.cfg.shard
                    })
                    .collect();
                if owned.is_empty() {
                    continue;
                }
                let golden = SmtGolden::capture(scenario, self.cfg.sim)?;
                progress.on_golden(&format!("{SMT_LABEL}/{}", scenario.name), golden.cycles);
                for (mi, model, k) in owned {
                    let mut rng = self.run_rng(SMT_LABEL, &scenario.name, model, k);
                    let Some(spec) = BugSpec::sample_smt(model, &golden.census, bits, &mut rng)
                    else {
                        continue;
                    };
                    let job = base_jobs + (si * models + mi) * self.cfg.runs_per_cell + k;
                    let started = Instant::now();
                    let rec = panic::catch_unwind(AssertUnwindSafe(|| {
                        self.run_one_smt(job, &golden, spec)
                    }))
                    .unwrap_or_else(|payload| {
                        RunRecord::poisoned(
                            SMT_LABEL,
                            job,
                            &scenario.name,
                            spec,
                            panic_message(&*payload),
                        )
                    });
                    let elapsed = started.elapsed();
                    timings.add(&rec, elapsed);
                    records.push(rec);
                }
            }
            Ok(())
        })();
        SUPPRESS_PANIC_OUTPUT.set(false);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, CampaignResult};
    use crate::classify::OutcomeClass;

    fn picks() -> Vec<idld_workloads::Workload> {
        idld_workloads::suite()
            .into_iter()
            .filter(|w| w.name == "crc32" || w.name == "basicmath")
            .collect()
    }

    fn smt_cfg() -> CampaignConfig {
        CampaignConfig {
            runs_per_cell: 2,
            seed: 42,
            smt: true,
            ..Default::default()
        }
    }

    fn smt_campaign(cfg: CampaignConfig) -> CampaignResult {
        Campaign::new(cfg)
            .run(&picks())
            .expect("golden runs are valid")
    }

    #[test]
    fn smt_axis_appends_scenario_records_after_the_base_space() {
        let res = smt_campaign(smt_cfg());
        let base_jobs = 2 * 3 * 2; // benches × models × k
        let scenario_names: Vec<String> = smt_pairs().into_iter().map(|s| s.name).collect();
        let (base, smt): (Vec<_>, Vec<_>) = res.records.iter().partition(|r| r.config != SMT_LABEL);
        assert_eq!(base.len(), base_jobs, "base section untouched");
        assert_eq!(
            smt.len(),
            scenario_names.len() * 3 * 2,
            "scenarios × models × k"
        );
        for (i, r) in smt.iter().enumerate() {
            assert_eq!(r.job, base_jobs + i, "dense continuing job index");
            assert!(scenario_names.contains(&r.bench), "{} unknown", r.bench);
            assert!(r.poisoned.is_none(), "{}: {}", r.bench, r.spec);
            assert_ne!(r.outcome, OutcomeClass::Anomalous);
        }
        // The paper's invariant extends to the shared free list: every
        // injected cross-thread bug is caught by the SMT IDLD checker.
        for r in &smt {
            assert!(
                r.detections.idld.is_some(),
                "{}: {} not detected by SMT IDLD",
                r.bench,
                r.spec
            );
        }
    }

    #[test]
    fn smt_axis_is_deterministic() {
        let a = smt_campaign(smt_cfg());
        let b = smt_campaign(smt_cfg());
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.job, y.job);
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.detections, y.detections);
        }
    }

    #[test]
    fn smt_axis_off_leaves_the_campaign_byte_identical() {
        // IDLD_SMT=0 must not perturb the record stream at any worker
        // count: the axis appends strictly after the base job space.
        let on = smt_campaign(smt_cfg());
        let off1 = smt_campaign(CampaignConfig {
            smt: false,
            threads: 1,
            ..smt_cfg()
        });
        let off4 = smt_campaign(CampaignConfig {
            smt: false,
            threads: 4,
            ..smt_cfg()
        });
        let csv_off1 = crate::export::to_csv(&off1);
        let csv_off4 = crate::export::to_csv(&off4);
        assert_eq!(csv_off1, csv_off4, "worker count must not matter");
        assert!(!csv_off1.contains(SMT_LABEL));
        // The base prefix of the smt=1 stream is the whole smt=0 stream.
        let base: Vec<_> = on
            .records
            .iter()
            .filter(|r| r.config != SMT_LABEL)
            .collect();
        assert_eq!(base.len(), off1.records.len());
        for (x, y) in base.iter().zip(&off1.records) {
            assert_eq!(x.job, y.job);
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.outcome, y.outcome);
        }
    }

    #[test]
    fn smt_shards_partition_the_smt_job_space_exactly() {
        let full = smt_campaign(smt_cfg());
        let shards = 3;
        let mut union: Vec<RunRecord> = Vec::new();
        for shard in 0..shards {
            let part = smt_campaign(CampaignConfig {
                shard,
                shards,
                ..smt_cfg()
            });
            union.extend(part.records);
        }
        union.sort_by_key(|r| r.job);
        assert_eq!(union.len(), full.records.len(), "no job lost or doubled");
        for (got, want) in union.iter().zip(&full.records) {
            assert_eq!(got.job, want.job);
            assert_eq!(got.config, want.config);
            assert_eq!(got.spec, want.spec);
            assert_eq!(got.outcome, want.outcome);
            assert_eq!(got.detections, want.detections);
        }
    }

    #[test]
    fn smt_golden_capture_validates_both_threads() {
        let scenario = smt_pairs().remove(0);
        let g = SmtGolden::capture(&scenario, SimConfig::default()).expect("clean pair");
        assert_eq!(g.outputs[0], scenario.a.expected_output);
        assert_eq!(g.outputs[1], scenario.b.expected_output);
        assert!(g.timeout_budget() > g.cycles);
        assert!(
            g.census.count(idld_rrs::OpSite::SmtFlPop) > 0,
            "shared-FL sites must appear in the SMT census"
        );
        assert_eq!(
            g.census.count(idld_rrs::OpSite::FlPop),
            0,
            "single-thread FL sites never fire on the shared free list"
        );
    }
}
