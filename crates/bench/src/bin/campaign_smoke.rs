//! CI equivalence smoke: runs a small fixed-seed campaign and writes the
//! exported record CSV to the path given as the first argument (default
//! `records.csv`), plus the aggregated metrics as `<stem>.metrics.csv`
//! and `<stem>.metrics.json`.
//!
//! CI runs this once as the cold oracle (`IDLD_SNAPSHOT_MAX=0`: every run
//! from power-on) and once with the defaults (lean snapshots, emulator
//! hand-off), and diffs all three files byte-for-byte: forking must
//! change wall-clock only, never a record or an aggregated metric. All
//! the usual campaign environment knobs (`IDLD_RUNS_PER_CELL`,
//! `IDLD_SEED`, `IDLD_CAMPAIGN_THREADS`, `IDLD_SNAPSHOT_STRIDE`,
//! `IDLD_SNAPSHOT_MAX`, `IDLD_SMT`) apply.

use idld_campaign::{export, metrics, Campaign, CampaignConfig, CampaignMetrics};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "records.csv".to_string());
    let mut cfg = CampaignConfig::from_env();
    if std::env::var(idld_campaign::campaign::RUNS_PER_CELL_ENV).is_err() {
        cfg.runs_per_cell = 4;
    }
    let suite: Vec<_> = idld_workloads::suite()
        .into_iter()
        .filter(|w| matches!(w.name.as_str(), "crc32" | "basicmath" | "bitcount"))
        .collect();
    let res = Campaign::new(cfg)
        .run(&suite)
        .unwrap_or_else(|e| panic!("campaign baseline invalid: {e}"));
    std::fs::write(&path, export::to_csv(&res))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    // Metrics ride alongside the records, sharing their stem: the
    // equivalence diff covers them too (snapshot forking must not change
    // a single aggregated count).
    let m = CampaignMetrics::build(&res);
    let stem = path.strip_suffix(".csv").unwrap_or(&path);
    let metrics_path = format!("{stem}.metrics.csv");
    std::fs::write(&metrics_path, metrics::metrics_csv(&m))
        .unwrap_or_else(|e| panic!("cannot write {metrics_path}: {e}"));
    let json_path = format!("{stem}.metrics.json");
    std::fs::write(&json_path, metrics::metrics_json(&m))
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    let st = res.snapshot_stats;
    eprintln!(
        "campaign_smoke: {} records -> {path} ({} forked / {} cold, {} snapshots; \
         {} converged, {} suffix cycles skipped)",
        res.records.len(),
        st.forked_runs,
        st.cold_runs,
        st.captured,
        st.converged_runs,
        st.suffix_cycles,
    );
}
