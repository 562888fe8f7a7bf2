//! # idld-bench — figure/table regeneration harnesses
//!
//! One bench target per figure and table of the paper's evaluation. Each
//! campaign-backed target runs its own deterministic injection campaign and
//! prints the same rows/series the paper reports:
//!
//! | target | paper artifact |
//! |--------|----------------|
//! | `fig3_masking` | Fig. 3 — masked activations per benchmark × model |
//! | `fig4_persistence` | Fig. 4 — persisting masked bugs |
//! | `fig5_manifestation` | Fig. 5 — manifestation-latency histogram |
//! | `fig8_outcomes` | Fig. 8 — outcome breakdown, control-signal bugs |
//! | `fig9_detection` | Fig. 9 — IDLD vs end-of-test coverage |
//! | `fig10_bv` | Fig. 10 — adding the bit-vector scheme |
//! | `table2_area_energy` | Table II — RRS area/energy, baseline vs IDLD |
//! | `mdp_usecase` | §V.F — Store-Sets LFST checking policies |
//! | `ablation_extended_sites` | (ours) XOR-invariance coverage edges |
//! | `checker_overhead` | (ours) simulation-speed cost of checkers |
//! | `sched_speedup` | (ours) per-run scheduler vs per-workload threads |
//!
//! Scale the campaigns with `IDLD_RUNS_PER_CELL` (paper scale: 1000),
//! `IDLD_SEED`, and `IDLD_CAMPAIGN_THREADS` (scheduler workers; the
//! record stream is identical for any value). `IDLD_SNAPSHOT_MAX=0` runs
//! every injection cold from power-on (same records, slower);
//! `campaignd --bench` writes the campaign measurements to
//! `BENCH_campaign.json`.

use idld_campaign::{Campaign, CampaignConfig, CampaignResult, SnapshotStats, StderrProgress};

/// Environment variable: workload scale factor for bench campaigns
/// (default 1; see `idld_workloads::suite_scaled`).
pub const WORKLOAD_SCALE_ENV: &str = "IDLD_WORKLOAD_SCALE";

/// Environment variable: directory shard artifacts are written to and
/// merged from (`shard-<i>.part`), shared by the local multi-process
/// driver and the distributed service.
pub const SHARD_DIR_ENV: &str = "IDLD_SHARD_DIR";

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

/// [`try_workload_scale`], panicking on a malformed value (bench targets
/// have no error channel).
pub fn workload_scale() -> u32 {
    try_workload_scale().unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the standard full-suite campaign at env-controlled scale, with
/// throttled stderr progress (runs/s, per-outcome tallies, ETA).
///
/// The default `runs_per_cell` for bench targets is 12 (10 workloads × 3
/// models × 12 ≈ 360 runs, tens of seconds); set `IDLD_RUNS_PER_CELL=1000`
/// to match the paper's 30 000-run campaign, and `IDLD_CAMPAIGN_THREADS`
/// to pin the scheduler's worker count (default: one per core; the record
/// stream is identical for any value).
pub fn run_standard_campaign() -> CampaignResult {
    let mut cfg = CampaignConfig::from_env();
    if std::env::var(idld_campaign::campaign::RUNS_PER_CELL_ENV).is_err() {
        cfg.runs_per_cell = 12;
    }
    let scale = workload_scale();
    let suite = idld_workloads::suite_scaled(scale);
    eprintln!(
        "[idld-bench] campaign: {} workloads (scale {scale}) × 3 models × {} runs (seed {})",
        suite.len(),
        cfg.runs_per_cell,
        cfg.seed
    );
    Campaign::new(cfg)
        .run_with_progress(&suite, &StderrProgress::new())
        .unwrap_or_else(|e| panic!("campaign baseline invalid: {e}"))
}

/// Prints a banner naming the regenerated artifact.
pub fn banner(what: &str) {
    println!("==================================================================");
    println!("IDLD reproduction — {what}");
    println!("==================================================================");
}

/// Environment variable: output path for [`write_campaign_bench_json`]
/// (default `BENCH_campaign.json` in the current directory).
pub const BENCH_JSON_ENV: &str = "IDLD_BENCH_JSON";

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// The logical cores available to this process (1 if undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One named measurement destined for `BENCH_campaign.json` — a campaign
/// run plus the host conditions it ran under. `host_cores` is recorded
/// per entry (entries written on different hosts or at different shard
/// counts must each carry their own), `shards` is the process count the
/// campaign was split over (1 = in-process), and `workload_scale` the
/// suite scale factor.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    pub name: String,
    pub wall_secs: f64,
    pub runs: usize,
    pub host_cores: usize,
    pub shards: usize,
    pub workload_scale: u32,
    pub stats: SnapshotStats,
    /// Per-workload serial work (name, total work seconds across cells).
    pub workloads: Vec<(String, f64)>,
}

impl BenchEntry {
    /// Builds an entry from an in-process campaign result: host cores
    /// detected, one shard, scale from [`workload_scale`].
    pub fn from_result(name: &str, res: &CampaignResult) -> BenchEntry {
        let workloads = res
            .benches()
            .iter()
            .map(|b| {
                let secs: f64 = res
                    .timings
                    .iter()
                    .filter(|c| c.bench == *b)
                    .map(|c| c.total.as_secs_f64())
                    .sum();
                (b.to_string(), secs)
            })
            .collect();
        BenchEntry {
            name: name.to_string(),
            wall_secs: res.wall.as_secs_f64(),
            runs: res.records.len(),
            host_cores: host_cores(),
            shards: 1,
            workload_scale: workload_scale(),
            stats: res.snapshot_stats,
            workloads,
        }
    }

    /// Runs per second over the entry's wall-clock (0 if unmeasured).
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.runs as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// One point of a shard-count scaling series: the same campaign executed
/// across `shards` worker processes, with the merged artifacts verified
/// byte-identical to the single-process run.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    pub shards: usize,
    pub wall_secs: f64,
    pub runs: usize,
    /// Whether the merged records/metrics/timings matched the 1-shard
    /// outputs byte-for-byte.
    pub merged_identical: bool,
}

impl ScalingPoint {
    /// Runs per second at this shard count (0 if unmeasured).
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.runs as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// The shard-count scaling series of a bench run: measured points, a
/// recorded reason it was skipped, or not attempted at all.
///
/// On a single-core host a multi-process series can only measure process
/// overhead — more shards contend for the one core and the curve comes
/// out inverted. Rather than record that misleading series, the driver
/// passes [`ShardScaling::Skipped`] and the JSON carries an explicit
/// `{"skipped": "single-core host"}` marker.
#[derive(Clone, Copy, Debug)]
pub enum ShardScaling<'a> {
    /// No series attempted.
    NotRun,
    /// Measured runs/s over process counts.
    Measured(&'a [ScalingPoint]),
    /// Deliberately skipped, with the reason recorded in the JSON.
    Skipped(&'a str),
}

/// Renders campaign measurements as the machine-readable
/// `BENCH_campaign.json` payload: wall-clock and runs/sec per campaign
/// (with the host cores and shard count each entry ran under), snapshot
/// hit rate, the per-workload wall-clock breakdown, and — when a sharded
/// scaling series was measured — the runs/s curve over process counts
/// (or the marker explaining why there is none).
/// Hand-rolled writer — the workspace deliberately has no JSON dependency.
pub fn campaign_bench_json(
    entries: &[BenchEntry],
    scaling: ShardScaling<'_>,
    speedup: Option<f64>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host_cores\": {},\n", host_cores()));
    out.push_str("  \"campaigns\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let st = e.stats;
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(&e.name)));
        out.push_str(&format!("      \"wall_secs\": {:.6},\n", e.wall_secs));
        out.push_str(&format!("      \"runs\": {},\n", e.runs));
        out.push_str(&format!(
            "      \"runs_per_sec\": {:.3},\n",
            e.runs_per_sec()
        ));
        out.push_str(&format!("      \"host_cores\": {},\n", e.host_cores));
        out.push_str(&format!("      \"shards\": {},\n", e.shards));
        out.push_str(&format!(
            "      \"workload_scale\": {},\n",
            e.workload_scale
        ));
        out.push_str(&format!(
            "      \"snapshot_hit_rate\": {:.6},\n",
            st.hit_rate()
        ));
        out.push_str(&format!("      \"forked_runs\": {},\n", st.forked_runs));
        out.push_str(&format!("      \"cold_runs\": {},\n", st.cold_runs));
        out.push_str(&format!(
            "      \"skipped_cycles\": {},\n",
            st.skipped_cycles
        ));
        out.push_str(&format!("      \"snapshots_captured\": {},\n", st.captured));
        out.push_str("      \"workloads\": [\n");
        for (j, (name, secs)) in e.workloads.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"work_secs\": {secs:.6}}}{}\n",
                json_escape(name),
                if j + 1 < e.workloads.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    match scaling {
        ShardScaling::Measured(points) if !points.is_empty() => {
            out.push_str(",\n  \"shard_scaling\": [\n");
            for (i, p) in points.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"shards\": {}, \"wall_secs\": {:.6}, \"runs_per_sec\": {:.3}, \"merged_identical\": {}}}{}\n",
                    p.shards,
                    p.wall_secs,
                    p.runs_per_sec(),
                    p.merged_identical,
                    if i + 1 < points.len() { "," } else { "" }
                ));
            }
            out.push_str("  ]");
        }
        ShardScaling::Skipped(reason) => {
            out.push_str(&format!(
                ",\n  \"shard_scaling\": {{\"skipped\": \"{}\"}}",
                json_escape(reason)
            ));
        }
        ShardScaling::Measured(_) | ShardScaling::NotRun => {}
    }
    if let Some(s) = speedup {
        out.push_str(&format!(",\n  \"snapshot_speedup\": {s:.3}"));
    }
    out.push_str("\n}\n");
    out
}

/// Writes [`campaign_bench_json`] to [`BENCH_JSON_ENV`] (default
/// `BENCH_campaign.json`) and returns the path written.
pub fn write_campaign_bench_json(
    entries: &[BenchEntry],
    scaling: ShardScaling<'_>,
    speedup: Option<f64>,
) -> std::io::Result<String> {
    let path = std::env::var(BENCH_JSON_ENV).unwrap_or_else(|_| "BENCH_campaign.json".to_string());
    std::fs::write(&path, campaign_bench_json(entries, scaling, speedup))?;
    Ok(path)
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
    use super::{Campaign, CampaignConfig};

    #[test]
    fn banner_prints() {
        super::banner("smoke");
    }

    #[test]
    fn campaign_json_is_well_formed() {
        let cfg = CampaignConfig {
            runs_per_cell: 2,
            seed: 7,
            ..CampaignConfig::default()
        };
        let suite: Vec<_> = idld_workloads::suite()
            .into_iter()
            .filter(|w| w.name == "crc32")
            .collect();
        let res = Campaign::new(cfg).run(&suite).expect("mini campaign");
        let entry = super::BenchEntry::from_result("smoke", &res);
        let scaling = [
            super::ScalingPoint {
                shards: 1,
                wall_secs: 2.0,
                runs: 6,
                merged_identical: true,
            },
            super::ScalingPoint {
                shards: 4,
                wall_secs: 1.0,
                runs: 6,
                merged_identical: true,
            },
        ];
        let json = super::campaign_bench_json(
            &[entry],
            super::ShardScaling::Measured(&scaling),
            Some(2.5),
        );
        for needle in [
            "\"name\": \"smoke\"",
            "\"wall_secs\":",
            "\"runs\": 6",
            "\"runs_per_sec\":",
            "\"host_cores\":",
            "\"shards\": 1",
            "\"workload_scale\": 1",
            "\"snapshot_hit_rate\":",
            "\"forked_runs\":",
            "\"skipped_cycles\":",
            "\"shard_scaling\": [",
            "{\"shards\": 4, \"wall_secs\": 1.000000, \"runs_per_sec\": 6.000, \"merged_identical\": true}",
            "\"snapshot_speedup\": 2.500",
            "\"workloads\": [",
            "\"name\": \"crc32\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces/brackets — the closest well-formedness check
        // without a JSON parser in the workspace.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = json.matches(open).count();
            let c = json.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close}:\n{json}");
        }
    }

    #[test]
    fn workload_scale_rejects_malformed_values() {
        // Pure-function test (no env mutation — parallel tests read the
        // real variable through `workload_scale`).
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

    #[test]
    fn skipped_scaling_series_is_a_marker_not_a_curve() {
        let json =
            super::campaign_bench_json(&[], super::ShardScaling::Skipped("single-core host"), None);
        assert!(
            json.contains("\"shard_scaling\": {\"skipped\": \"single-core host\"}"),
            "{json}"
        );
        let none = super::campaign_bench_json(&[], super::ShardScaling::NotRun, None);
        assert!(!none.contains("shard_scaling"), "{none}");
        assert!(!none.contains("snapshot_speedup"), "{none}");
    }
}
