//! Regenerates every paper figure and table in one run, writing each
//! artifact under `results/`.
//!
//! ```sh
//! cargo run --release -p idld-bench --bin reproduce_all
//! IDLD_RUNS_PER_CELL=1000 cargo run --release -p idld-bench --bin reproduce_all
//! ```

use idld_campaign::analysis::{
    DetectionFigure, ManifestationFigure, MaskingFigure, OutcomeFigure, PersistenceFigure,
};
use idld_campaign::{Campaign, CampaignConfig, CampaignResult, StderrProgress};
use idld_mdp::UseCaseTable;
use idld_rrs::RrsConfig;
use idld_rtl::{table2, TechParams};
use std::fs;
use std::path::Path;

/// Runs the standard full-suite campaign at env-controlled scale, with
/// throttled stderr progress (runs/s, per-outcome tallies, ETA).
///
/// The default `runs_per_cell` is 12 (10 workloads × 3 models × 12 = 360
/// runs); set `IDLD_RUNS_PER_CELL=1000` to match the paper's 30 000-run
/// campaign, `IDLD_WORKLOAD_SCALE` to stretch the workloads, and
/// `IDLD_CAMPAIGN_THREADS` to pin the scheduler's worker count (default:
/// one per core; the record stream is identical for any value).
fn run_standard_campaign() -> CampaignResult {
    let mut cfg = CampaignConfig::from_env();
    if std::env::var(idld_campaign::campaign::RUNS_PER_CELL_ENV).is_err() {
        cfg.runs_per_cell = 12;
    }
    let scale = idld_bench::try_workload_scale().unwrap_or_else(|e| panic!("{e}"));
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

fn write(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");

    idld_bench::banner("reproducing every figure and table");
    let res = run_standard_campaign();

    write(dir, "records.csv", &idld_campaign::export::to_csv(&res));
    write(
        dir,
        "timings.csv",
        &idld_campaign::export::timings_csv(&res),
    );
    let metrics = idld_campaign::CampaignMetrics::build(&res);
    write(
        dir,
        "metrics.csv",
        &idld_campaign::metrics::metrics_csv(&metrics),
    );
    write(
        dir,
        "metrics.json",
        &idld_campaign::metrics::metrics_json(&metrics),
    );
    write(
        dir,
        "fig3_masking.txt",
        &MaskingFigure::build(&res).render(),
    );
    write(
        dir,
        "fig4_persistence.txt",
        &PersistenceFigure::build(&res).render(),
    );
    write(
        dir,
        "fig5_manifestation.txt",
        &ManifestationFigure::build(&res).render(),
    );
    write(
        dir,
        "fig8_outcomes.txt",
        &OutcomeFigure::build(&res).render(),
    );
    write(
        dir,
        "fig9_fig10_detection.txt",
        &DetectionFigure::build(&res).render(),
    );
    write(
        dir,
        "table2_area_energy.txt",
        &table2(&RrsConfig::default(), &TechParams::default()).render(),
    );

    write(dir, "mdp_usecase.txt", &UseCaseTable::build().render());

    println!();
    println!(
        "done — {} injected bugs analysed in {:.1}s wall ({} poisoned); see results/ and EXPERIMENTS.md",
        res.records.len(),
        res.wall.as_secs_f64(),
        res.poisoned().count(),
    );
}
