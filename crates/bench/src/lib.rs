//! # idld-bench — paper reproduction and measurement harnesses
//!
//! One binary regenerates the paper's evaluation: `reproduce_all` runs one
//! deterministic injection campaign and writes every figure and table
//! under `results/`:
//!
//! | `results/` file | paper artifact |
//! |-----------------|----------------|
//! | `fig3_masking.txt` | Fig. 3 — masked activations per benchmark × model |
//! | `fig4_persistence.txt` | Fig. 4 — persisting masked bugs |
//! | `fig5_manifestation.txt` | Fig. 5 — manifestation-latency histogram |
//! | `fig8_outcomes.txt` | Fig. 8 — outcome breakdown, control-signal bugs |
//! | `fig9_fig10_detection.txt` | Figs. 9 and 10 — IDLD vs end-of-test coverage, plus the bit-vector scheme |
//! | `table2_area_energy.txt` | Table II — RRS area/energy, baseline vs IDLD |
//! | `mdp_usecase.txt` | §V.F — Store-Sets LFST checking policies |
//!
//! plus `records.csv`, `metrics.{csv,json}` and `timings.csv`. The bench
//! targets measure what the paper does not report:
//!
//! | target | measures |
//! |--------|----------|
//! | `ablation_extended_sites` | (ours) XOR-invariance coverage edges |
//! | `checker_overhead` | (ours) simulation-speed cost of checkers |
//! | `obs_overhead` | (ours) cost of the trace recorder, off and on |
//! | `ablation_checkpoints` | (ours) checkpoint count vs recovery cost |
//!
//! Scale the campaign with `IDLD_RUNS_PER_CELL` (paper scale: 1000),
//! `IDLD_WORKLOAD_SCALE`, `IDLD_SEED`, and `IDLD_CAMPAIGN_THREADS`
//! (campaign threads, golden capture included; the record stream is
//! identical for any value). `IDLD_SNAPSHOT_MAX=0` runs every injection
//! cold from power-on (same records, slower).

/// Environment variable: workload scale factor for bench campaigns
/// (default 1; see `idld_workloads::suite_scaled`).
pub const WORKLOAD_SCALE_ENV: &str = "IDLD_WORKLOAD_SCALE";

/// Environment variable: comma-separated workload filter for campaign
/// drivers (empty/unset = the full suite).
pub const WORKLOADS_ENV: &str = "IDLD_WORKLOADS";

pub mod netd;

/// The workload scale factor bench campaigns run at ([`WORKLOAD_SCALE_ENV`],
/// default 1). Set-but-malformed is an error, not a silent default — the
/// same contract as `CampaignConfig::try_from_env` (a typo'd scale must
/// never quietly bench the wrong suite).
pub fn try_workload_scale() -> Result<u32, String> {
    parse_workload_scale(std::env::var(WORKLOAD_SCALE_ENV).ok().as_deref())
}

fn parse_workload_scale(raw: Option<&str>) -> Result<u32, String> {
    match raw {
        None => Ok(1),
        Some(v) => match v.trim().parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "{WORKLOAD_SCALE_ENV} must be a positive integer, got {v:?}"
            )),
        },
    }
}

/// Prints a banner naming the regenerated artifact.
pub fn banner(what: &str) {
    println!("==================================================================");
    println!("IDLD reproduction — {what}");
    println!("==================================================================");
}

/// The logical cores available to this process (1 if undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Shared handles to a [`RestoreTally`]'s counters:
/// `(checkpoint restores, retirement-RAT restores)`.
pub type RestoreCounts =
    std::sync::Arc<(std::sync::atomic::AtomicU64, std::sync::atomic::AtomicU64)>;

/// A checker-shaped event tally: counts recovery-restore events so benches
/// can see how often flushes hit a checkpoint vs the retirement-RAT
/// fall-back. The counters live behind an `Arc` (checkers must be
/// `Send + Sync` so snapshots can cross campaign worker threads) and the
/// bench keeps a handle after boxing the tally into a `CheckerSet`.
#[derive(Clone, Debug, Default)]
pub struct RestoreTally {
    counts: RestoreCounts,
}

impl RestoreTally {
    /// Creates a tally and a shared handle to its counters.
    pub fn new() -> (Self, RestoreCounts) {
        let t = RestoreTally::default();
        let h = t.counts.clone();
        (t, h)
    }
}

use std::sync::atomic::Ordering::Relaxed;

impl idld_rrs::EventSink for RestoreTally {
    fn event(&mut self, ev: idld_rrs::RrsEvent) {
        match ev {
            idld_rrs::RrsEvent::CkptRestore { .. } => {
                self.counts.0.fetch_add(1, Relaxed);
            }
            idld_rrs::RrsEvent::RratRestore => {
                self.counts.1.fetch_add(1, Relaxed);
            }
            _ => {}
        }
    }
}

impl idld_core::Checker for RestoreTally {
    fn name(&self) -> &'static str {
        "restore-tally"
    }
    fn end_cycle(&mut self, _cycle: u64) {}
    fn on_pipeline_empty(&mut self, _cycle: u64) {}
    fn detection(&self) -> Option<idld_core::Detection> {
        None
    }
    fn reset(&mut self) {
        self.counts.0.store(0, Relaxed);
        self.counts.1.store(0, Relaxed);
    }
    fn clone_box(&self) -> Box<dyn idld_core::Checker> {
        Box::new(self.clone())
    }
    fn devirt(self: Box<Self>) -> idld_core::AnyChecker {
        idld_core::AnyChecker::Boxed(self)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_prints() {
        super::banner("smoke");
    }

    #[test]
    fn workload_scale_rejects_malformed_values() {
        // Pure-function test (no env mutation — parallel tests read the
        // real variable through `try_workload_scale`).
        assert_eq!(super::parse_workload_scale(None), Ok(1));
        assert_eq!(super::parse_workload_scale(Some(" 10 ")), Ok(10));
        assert!(super::parse_workload_scale(Some("1O")).is_err());
        assert!(super::parse_workload_scale(Some("")).is_err());
        assert!(
            super::parse_workload_scale(Some("0")).is_err(),
            "a zero scale benches an empty suite"
        );
        assert!(super::parse_workload_scale(Some("-2")).is_err());
    }
}
