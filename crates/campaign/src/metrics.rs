//! Campaign-level metrics: per-cell registries and the campaign rollup.
//!
//! Each (workload × bug model) cell aggregates its runs into one
//! [`MetricsRegistry`] — outcome counters, checker-detection counters,
//! detection/manifestation latency histograms, and the summed
//! microarchitectural statistics of every run in the cell. A campaign-wide
//! rollup merges every cell. Exports ride alongside `records.csv`:
//! `metrics.csv` (one row per metric per scope, see
//! [`idld_obs::METRICS_CSV_HEADER`]) and a hand-rolled `metrics.json`.
//!
//! Like the record stream, the metrics are a pure function of the records:
//! deterministic for any worker count, byte-identical with snapshots on
//! or off.

use crate::campaign::{CampaignResult, RunRecord};
use idld_obs::{MetricsRegistry, METRICS_CSV_HEADER};
use std::fmt::Write as _;

/// Scope label of the campaign-wide rollup registry.
pub const CAMPAIGN_SCOPE: &str = "campaign";

/// Every metric name [`observe_record`] can write: the schema a
/// coordinator parses uploaded shard registries against
/// ([`MetricsRegistry::from_kv`]).
pub const CELL_METRICS: &[&str] = &[
    "runs",
    "Benign",
    "Performance",
    "CFD",
    "SDC",
    "Timeout",
    "Assert",
    "Crash",
    "Anomalous",
    "poisoned",
    "masked",
    "persists",
    "eot_detects",
    "detected_idld",
    "detected_bv",
    "detected_counter",
    "idld_latency",
    "manifestation_latency",
    "end_cycle",
    "activation_cycle",
    "sim_cycles",
    "sim_committed",
    "sim_renamed",
    "sim_issued",
    "sim_flushes",
    "sim_recovery_cycles",
    "sim_mispredicts",
    "sim_frontend_stalls",
];

/// Folds one run record into a registry.
pub fn observe_record(m: &mut MetricsRegistry, r: &RunRecord) {
    m.incr("runs");
    m.incr(r.outcome.label());
    if r.poisoned.is_some() {
        m.incr("poisoned");
        return;
    }
    if r.outcome.is_masked() {
        m.incr("masked");
    }
    if r.persists {
        m.incr("persists");
    }
    if r.eot_detects() {
        m.incr("eot_detects");
    }
    if r.detections.idld.is_some() {
        m.incr("detected_idld");
    }
    if r.detections.bv.is_some() {
        m.incr("detected_bv");
    }
    if r.detections.counter.is_some() {
        m.incr("detected_counter");
    }
    if let Some(lat) = r.idld_latency() {
        m.observe("idld_latency", lat);
    }
    if let Some(lat) = r.manifestation_latency() {
        m.observe("manifestation_latency", lat);
    }
    m.observe("end_cycle", r.end_cycle);
    m.observe("activation_cycle", r.activation_cycle);
    // Summed microarchitectural statistics of the cell's runs.
    m.add("sim_cycles", r.stats.cycles);
    m.add("sim_committed", r.stats.committed);
    m.add("sim_renamed", r.stats.renamed);
    m.add("sim_issued", r.stats.issued);
    m.add("sim_flushes", r.stats.flushes);
    m.add("sim_recovery_cycles", r.stats.recovery_cycles);
    m.add("sim_mispredicts", r.stats.mispredicts);
    m.add("sim_frontend_stalls", r.stats.frontend_stalls);
}

/// One cell's scope label and registry.
#[derive(Clone, Debug)]
pub struct CellMetrics {
    /// `config/bench/model` scope label (e.g. `default/crc32/Leakage`).
    pub scope: String,
    /// The cell's aggregated metrics.
    pub registry: MetricsRegistry,
}

/// The `config/bench/model` scope label of one record's cell.
pub fn record_scope(r: &RunRecord) -> String {
    format!(
        "{}/{}/{}",
        r.config,
        r.bench,
        r.model.label().replace(' ', "_")
    )
}

/// Aggregated metrics of one campaign: per-cell registries in record
/// order plus the campaign-wide rollup.
#[derive(Clone, Debug, Default)]
pub struct CampaignMetrics {
    /// Per-(config × workload × model) registries, in first-seen record
    /// order.
    pub cells: Vec<CellMetrics>,
    /// Merge of every cell.
    pub rollup: MetricsRegistry,
}

impl CampaignMetrics {
    /// Builds the metrics from a finished campaign's records.
    pub fn build(res: &CampaignResult) -> CampaignMetrics {
        let mut out = CampaignMetrics::default();
        for r in &res.records {
            let scope = record_scope(r);
            let cell = match out.cells.iter_mut().find(|c| c.scope == scope) {
                Some(c) => c,
                None => {
                    out.cells.push(CellMetrics {
                        scope,
                        registry: MetricsRegistry::new(),
                    });
                    out.cells.last_mut().expect("just pushed")
                }
            };
            observe_record(&mut cell.registry, r);
        }
        for c in &out.cells {
            out.rollup.merge(&c.registry);
        }
        out
    }

    /// The registry of one cell, by `config/bench/model` scope label.
    pub fn cell(&self, scope: &str) -> Option<&MetricsRegistry> {
        self.cells
            .iter()
            .find(|c| c.scope == scope)
            .map(|c| &c.registry)
    }
}

/// Renders the campaign metrics as CSV: the rollup first (scope
/// `campaign`), then every cell in record order.
pub fn metrics_csv(metrics: &CampaignMetrics) -> String {
    let mut s = String::with_capacity(1024);
    let _ = writeln!(s, "{METRICS_CSV_HEADER}");
    metrics.rollup.csv_rows(CAMPAIGN_SCOPE, &mut s);
    for c in &metrics.cells {
        c.registry.csv_rows(&c.scope, &mut s);
    }
    s
}

/// Renders the campaign metrics as a JSON document (hand-rolled; scope
/// labels contain only workload names, model labels, `/` and `_`).
pub fn metrics_json(metrics: &CampaignMetrics) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"campaign\": {},", metrics.rollup.to_json(2));
    let _ = writeln!(s, "  \"cells\": {{");
    let n = metrics.cells.len();
    for (i, c) in metrics.cells.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let _ = writeln!(s, "    \"{}\": {}{comma}", c.scope, c.registry.to_json(4));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};

    fn tiny() -> CampaignResult {
        let cfg = CampaignConfig {
            runs_per_cell: 2,
            seed: 3,
            ..Default::default()
        };
        let picks: Vec<_> = idld_workloads::suite()
            .into_iter()
            .filter(|w| w.name == "crc32")
            .collect();
        Campaign::new(cfg)
            .run(&picks)
            .expect("golden runs are valid")
    }

    #[test]
    fn metrics_account_for_every_record() {
        let res = tiny();
        let m = CampaignMetrics::build(&res);
        assert_eq!(m.cells.len(), 3, "one cell per bug model");
        assert_eq!(m.rollup.counter("runs"), res.records.len() as u64);
        // IDLD detects everything in a healthy campaign.
        assert_eq!(m.rollup.counter("detected_idld"), res.records.len() as u64);
        let lat = m.rollup.histogram("idld_latency").expect("observed");
        assert_eq!(lat.count(), res.records.len() as u64);
        // Cell registries merge exactly into the rollup.
        let cell_runs: u64 = m.cells.iter().map(|c| c.registry.counter("runs")).sum();
        assert_eq!(cell_runs, m.rollup.counter("runs"));
        // Stats flow through.
        assert!(m.rollup.counter("sim_cycles") > 0);
        assert!(m.cell("default/crc32/Leakage").is_some());
        assert!(m.cell("default/crc32/PdstID_Corruption").is_some());
    }

    /// Every name `observe_record` writes is in the schema, and every
    /// schema name is written by some record.
    #[test]
    fn cell_metrics_schema_is_exactly_what_records_write() {
        use crate::classify::OutcomeClass;
        let base = tiny().records.swap_remove(0);
        let mut m = MetricsRegistry::new();
        for outcome in OutcomeClass::ALL {
            let mut r = base.clone();
            r.outcome = outcome;
            r.persists = true;
            r.manifestation_cycle = Some(r.end_cycle);
            r.detections.bv = r.detections.idld;
            r.detections.counter = r.detections.idld;
            observe_record(&mut m, &r);
        }
        let mut poisoned = base;
        poisoned.poisoned = Some("panic".to_string());
        observe_record(&mut m, &poisoned);
        let mut written: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        written.extend(m.histograms().map(|(n, _)| n));
        written.sort_unstable();
        let mut schema = CELL_METRICS.to_vec();
        schema.sort_unstable();
        assert_eq!(written, schema);
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        let res = tiny();
        let m = CampaignMetrics::build(&res);
        let csv = metrics_csv(&m);
        assert!(csv.starts_with(METRICS_CSV_HEADER));
        assert!(csv.contains("\ncampaign,runs,counter,"));
        assert_eq!(csv, metrics_csv(&CampaignMetrics::build(&res)));
        let json = metrics_json(&m);
        assert!(json.contains("\"campaign\""));
        assert!(json.contains("\"default/crc32/Duplication\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json, metrics_json(&CampaignMetrics::build(&res)));
    }
}
