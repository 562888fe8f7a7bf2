//! Shard artifacts: the wire format between campaign worker processes and
//! the coordinator, and the merge that reassembles them.
//!
//! A worker process runs the shard of the job space its
//! [`CampaignConfig::shard`](crate::CampaignConfig) selects and serializes
//! the result with [`encode_shard`]: every record tagged with its dense
//! global job index, per-cell timing rows, per-cell metric registries in
//! the `idld-obs` kv format, and the shard's snapshot statistics. The
//! coordinator decodes N such artifacts and [`merge_shards`] reassembles
//! them:
//!
//! - **records** interleave by global job index (each index owned by
//!   exactly one shard — a duplicate is a merge error);
//! - **metrics** merge per scope with [`MetricsRegistry::merge`], which is
//!   associative and commutative over exact integers, then roll up;
//! - **timings** sum per `(config, bench, model)` cell;
//! - **snapshot stats** sum field-wise.
//!
//! Every artifact ends with a `digest <16 hex>` line: the FNV-1a-64 of
//! every byte before it. [`decode_shard`] checks it before parsing
//! anything, so a `.part` file with a single flipped bit is rejected on
//! resume, on upload and at merge instead of reaching the merged CSV.
//!
//! The merged `records.csv` and `metrics.csv`/`.json` are **byte-identical
//! to a single-process run** of the same campaign at any shard count; the
//! merged `timings.csv` is byte-identical with wall-clock columns zeroed
//! (wall time is a measurement, not part of the deterministic stream).
//! Cell order everywhere is first-seen order of the merged record stream,
//! exactly as a single process would have seen it.

use crate::campaign::{CampaignResult, CellTiming, SnapshotStats};
use crate::export;
use crate::metrics::{metrics_csv, metrics_json, CampaignMetrics, CellMetrics, CELL_METRICS};
use idld_bugs::BugModel;
use idld_obs::{Fnv64, MetricsRegistry};
use std::fmt::Write as _;
use std::time::Duration;

/// Format tag heading every artifact; bumped on incompatible changes so a
/// stale worker binary fails loudly instead of merging garbage. Public
/// because the `idld-net` HELLO handshake carries it: a coordinator and a
/// worker built against different shard formats must refuse to talk at
/// connection time, not fail at merge time.
pub const SHARD_MAGIC: &str = "idld-shard v6";

use SHARD_MAGIC as MAGIC;

/// One worker process's serialized campaign slice.
#[derive(Clone, Debug)]
pub struct ShardArtifact {
    /// This artifact's shard index.
    pub shard: usize,
    /// Total shard count of the campaign it belongs to.
    pub shards: usize,
    /// The shard's end-to-end wall-clock, in microseconds.
    pub wall_us: u128,
    /// The shard's snapshot-and-fork statistics.
    pub stats: SnapshotStats,
    /// `(global job index, CSV row)` for every record, in index order.
    pub records: Vec<(usize, String)>,
    /// Per-cell timing rows (wall columns intact).
    pub timings: Vec<CellTiming>,
    /// Per-cell metric registries, keyed by `config/bench/model` scope.
    pub cells: Vec<(String, MetricsRegistry)>,
}

/// Serializes one shard's campaign result for the coordinator.
pub fn encode_shard(res: &CampaignResult, shard: usize, shards: usize) -> String {
    let mut s = String::with_capacity(4096 + res.records.len() * 96);
    let _ = writeln!(s, "{MAGIC}");
    let _ = writeln!(s, "shard {shard} {shards}");
    let _ = writeln!(s, "wall_us {}", res.wall.as_micros());
    let st = &res.snapshot_stats;
    let _ = writeln!(
        s,
        "stats {} {} {} {} {} {}",
        st.forked_runs,
        st.cold_runs,
        st.skipped_cycles,
        st.captured,
        st.converged_runs,
        st.suffix_cycles
    );
    let _ = writeln!(s, "records {}", res.records.len());
    for r in &res.records {
        let _ = writeln!(s, "{} {}", r.job, export::record_row(r));
    }
    let _ = writeln!(s, "timings {}", res.timings.len());
    for c in &res.timings {
        let _ = writeln!(s, "{}", export::timing_row(c, true));
    }
    let metrics = CampaignMetrics::build(res);
    let _ = writeln!(s, "cells {}", metrics.cells.len());
    for c in &metrics.cells {
        let _ = writeln!(s, "cell {}", c.scope);
        s.push_str(&c.registry.to_kv());
        let _ = writeln!(s, "endcell");
    }
    let _ = writeln!(s, "{DIGEST_TAG}{:016x}", fnv(&s));
    s
}

/// Prefix of an artifact's last line, which carries [`fnv`] of every
/// byte before it.
const DIGEST_TAG: &str = "digest ";

/// FNV-1a-64 of `text`'s bytes.
fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(text.as_bytes());
    h.finish()
}

/// Splits off and checks the trailing digest line, returning the body it
/// covers.
fn verified_body(s: &str) -> Result<&str, String> {
    let cut = s
        .strip_suffix('\n')
        .and_then(|t| t.rfind('\n'))
        .map_or(0, |i| i + 1);
    let (body, last) = s.split_at(cut);
    // Lowercase only: `from_str_radix` also takes `A-F`, so a flipped
    // case bit in the digest would otherwise parse to the same value.
    let want = last
        .strip_prefix(DIGEST_TAG)
        .and_then(|r| r.strip_suffix('\n'))
        .filter(|h| h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("artifact does not end with a digest line")?;
    let got = fnv(body);
    if got != want {
        return Err(format!(
            "artifact digest mismatch: the body hashes to {got:016x}, the digest line says {want:016x}"
        ));
    }
    Ok(body)
}

/// The bug model whose exported label (spaces underscored) is `label`.
fn model_from_label(label: &str) -> Result<BugModel, String> {
    BugModel::ALL
        .into_iter()
        .find(|m| m.label().replace(' ', "_") == label)
        .ok_or_else(|| format!("unknown bug model label {label:?}"))
}

/// Deserializes a shard artifact.
///
/// # Errors
///
/// A digest mismatch, or any structural deviation, is an error naming
/// the offending line — a corrupted, truncated or mis-versioned artifact
/// must never merge silently.
pub fn decode_shard(s: &str) -> Result<ShardArtifact, String> {
    let body = verified_body(s).map_err(|e| match s.lines().next() {
        Some(tag) if tag != MAGIC => format!("artifact does not start with {MAGIC:?}"),
        _ => e,
    })?;
    let mut lines = body.lines();
    let mut expect = |what: &str| {
        lines
            .next()
            .ok_or_else(|| format!("artifact truncated before {what}"))
    };
    if expect("the format tag")? != MAGIC {
        return Err(format!("artifact does not start with {MAGIC:?}"));
    }
    let header = expect("the shard header")?;
    let (shard, shards) = match header
        .strip_prefix("shard ")
        .and_then(|r| r.split_once(' '))
    {
        Some((i, n)) => (
            i.parse::<usize>()
                .map_err(|e| format!("shard index in {header:?}: {e}"))?,
            n.parse::<usize>()
                .map_err(|e| format!("shard count in {header:?}: {e}"))?,
        ),
        None => return Err(format!("malformed shard header {header:?}")),
    };
    let wall = expect("wall_us")?;
    let wall_us = wall
        .strip_prefix("wall_us ")
        .ok_or_else(|| format!("malformed wall line {wall:?}"))?
        .parse::<u128>()
        .map_err(|e| format!("wall_us in {wall:?}: {e}"))?;
    let stats_line = expect("stats")?;
    let nums: Vec<&str> = stats_line
        .strip_prefix("stats ")
        .ok_or_else(|| format!("malformed stats line {stats_line:?}"))?
        .split(' ')
        .collect();
    if nums.len() != 6 {
        return Err(format!("stats line needs 6 fields: {stats_line:?}"));
    }
    let field = |i: usize| -> Result<u64, String> {
        nums[i]
            .parse()
            .map_err(|e| format!("stats field {i} in {stats_line:?}: {e}"))
    };
    let stats = SnapshotStats {
        forked_runs: field(0)? as usize,
        cold_runs: field(1)? as usize,
        skipped_cycles: field(2)?,
        captured: field(3)? as usize,
        converged_runs: field(4)? as usize,
        suffix_cycles: field(5)?,
    };

    // Section counts come from the artifact itself, so they are never
    // trusted for pre-allocation: a forged count must fail as truncation
    // when the lines run out, not abort the process on a huge reservation.
    let count = |line: &str, tag: &str| -> Result<usize, String> {
        line.strip_prefix(tag)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| format!("expected {tag:?} section, got {line:?}"))?
            .parse()
            .map_err(|e| format!("{tag} count in {line:?}: {e}"))
    };

    let n = count(expect("records")?, "records")?;
    let mut records = Vec::new();
    for _ in 0..n {
        let line = expect("a record line")?;
        let (job, row) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed record line {line:?}"))?;
        let job = job
            .parse::<usize>()
            .map_err(|e| format!("job index in {line:?}: {e}"))?;
        records.push((job, row.to_string()));
    }

    let n = count(expect("timings")?, "timings")?;
    let mut timings = Vec::new();
    for _ in 0..n {
        let line = expect("a timing line")?;
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 6 {
            return Err(format!("timing line needs 6 fields: {line:?}"));
        }
        let num = |i: usize| -> Result<u64, String> {
            f[i].parse()
                .map_err(|e| format!("timing field {i} in {line:?}: {e}"))
        };
        timings.push(CellTiming {
            config: f[0].to_string(),
            bench: f[1].to_string(),
            model: model_from_label(f[2])?,
            runs: num(3)? as usize,
            poisoned: num(4)? as usize,
            total: Duration::from_micros(num(5)?),
        });
    }

    let n = count(expect("cells")?, "cells")?;
    let mut cells = Vec::new();
    for _ in 0..n {
        let line = expect("a cell header")?;
        let scope = line
            .strip_prefix("cell ")
            .ok_or_else(|| format!("expected a cell header, got {line:?}"))?
            .to_string();
        let mut kv = String::new();
        loop {
            let line = expect("a cell body line")?;
            if line == "endcell" {
                break;
            }
            kv.push_str(line);
            kv.push('\n');
        }
        let registry = MetricsRegistry::from_kv(&kv, CELL_METRICS)
            .map_err(|e| format!("metrics of cell {scope:?}: {e}"))?;
        cells.push((scope, registry));
    }
    if lines.next().is_some() {
        return Err("trailing data after the cells section".to_string());
    }
    Ok(ShardArtifact {
        shard,
        shards,
        wall_us,
        stats,
        records,
        timings,
        cells,
    })
}

/// A fully merged campaign, ready to export.
#[derive(Clone, Debug)]
pub struct MergedCampaign {
    /// Every record's CSV row, sorted by global job index.
    pub records: Vec<(usize, String)>,
    /// Per-cell registries plus rollup, in merged-record first-seen order.
    pub metrics: CampaignMetrics,
    /// Summed per-cell timings, in the same order.
    pub timings: Vec<CellTiming>,
    /// Field-wise sum of the shard snapshot statistics. `captured` can
    /// exceed a single-process run's: shards sharing a golden cell each
    /// capture their own snapshot cache.
    pub stats: SnapshotStats,
    /// The slowest shard's wall-clock, in microseconds — the campaign's
    /// end-to-end wall under perfect process parallelism.
    pub wall_us: u128,
}

impl MergedCampaign {
    /// The merged `records.csv`, byte-identical to a single-process run.
    pub fn records_csv(&self) -> String {
        let mut s = String::with_capacity(64 + self.records.len() * 96);
        let _ = writeln!(s, "{}", export::CSV_HEADER);
        for (_, row) in &self.records {
            let _ = writeln!(s, "{row}");
        }
        s
    }

    /// The merged `metrics.csv`, byte-identical to a single-process run.
    pub fn metrics_csv(&self) -> String {
        metrics_csv(&self.metrics)
    }

    /// The merged `metrics.json`, byte-identical to a single-process run.
    pub fn metrics_json(&self) -> String {
        metrics_json(&self.metrics)
    }

    /// The merged `timings.csv`; byte-identical to a single-process run
    /// when `wall` is off (wall-clock is a measurement, not derived from
    /// the record stream).
    pub fn timings_csv(&self, wall: bool) -> String {
        export::timings_csv_from(&self.timings, self.wall_us, wall)
    }

    /// Total merged records.
    pub fn runs(&self) -> usize {
        self.records.len()
    }
}

/// The `config/bench/model` scope of a record CSV row (its first three
/// fields — the same label [`CampaignMetrics`] scopes cells by).
fn row_scope(row: &str) -> Result<String, String> {
    let mut it = row.split(',');
    match (it.next(), it.next(), it.next()) {
        (Some(c), Some(b), Some(m)) => Ok(format!("{c}/{b}/{m}")),
        _ => Err(format!("record row with fewer than 3 fields: {row:?}")),
    }
}

/// Merges shard artifacts back into one campaign (see the module docs for
/// the per-stream merge rules).
///
/// # Errors
///
/// Rejects an empty, incomplete or internally inconsistent set:
/// mismatched shard counts, duplicate or missing shard indices, a job
/// index claimed by two shards, or a metrics cell with no backing records.
pub fn merge_shards(parts: &[ShardArtifact]) -> Result<MergedCampaign, String> {
    let Some(first) = parts.first() else {
        return Err("no shard artifacts to merge".to_string());
    };
    let shards = first.shards;
    // Indexed by artifact, not by the (artifact-supplied) shard count.
    let mut seen: Vec<usize> = Vec::with_capacity(parts.len());
    for p in parts {
        if p.shards != shards {
            return Err(format!(
                "artifact of shard {} says {} total shards, another said {shards}",
                p.shard, p.shards
            ));
        }
        if p.shard >= shards || seen.contains(&p.shard) {
            return Err(format!("shard {} duplicated or out of range", p.shard));
        }
        seen.push(p.shard);
    }
    if seen.len() != shards {
        return Err(format!(
            "only {} of {shards} shard artifacts present",
            seen.len()
        ));
    }

    // Records: interleave by global job index; every index owned once.
    let mut records: Vec<(usize, String)> = parts
        .iter()
        .flat_map(|p| p.records.iter().cloned())
        .collect();
    records.sort_by_key(|(job, _)| *job);
    for w in records.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(format!("job {} claimed by two shards", w[0].0));
        }
    }

    // Cell order: first-seen in the merged record stream — exactly the
    // order a single process builds its cells in.
    let mut scope_order: Vec<String> = Vec::new();
    for (_, row) in &records {
        let scope = row_scope(row)?;
        if !scope_order.contains(&scope) {
            scope_order.push(scope);
        }
    }

    // Metrics: merge per scope, then roll up.
    let mut metrics = CampaignMetrics::default();
    for scope in &scope_order {
        let mut registry = MetricsRegistry::new();
        let mut found = false;
        for p in parts {
            if let Some((_, r)) = p.cells.iter().find(|(s, _)| s == scope) {
                registry.merge(r);
                found = true;
            }
        }
        if !found {
            return Err(format!("records of scope {scope:?} have no metrics cell"));
        }
        metrics.cells.push(CellMetrics {
            scope: scope.clone(),
            registry,
        });
    }
    for p in parts {
        for (scope, _) in &p.cells {
            if !scope_order.contains(scope) {
                return Err(format!("metrics cell {scope:?} has no records"));
            }
        }
    }
    for c in &metrics.cells {
        metrics.rollup.merge(&c.registry);
    }

    // Timings: sum per cell, in the same first-seen order.
    let mut timings: Vec<CellTiming> = Vec::new();
    for scope in &scope_order {
        let mut merged: Option<CellTiming> = None;
        for p in parts {
            for c in &p.timings {
                let cell_scope = format!(
                    "{}/{}/{}",
                    c.config,
                    c.bench,
                    c.model.label().replace(' ', "_")
                );
                if &cell_scope != scope {
                    continue;
                }
                match &mut merged {
                    Some(m) => {
                        m.runs += c.runs;
                        m.poisoned += c.poisoned;
                        m.total += c.total;
                    }
                    None => merged = Some(c.clone()),
                }
            }
        }
        timings.push(merged.ok_or_else(|| format!("scope {scope:?} has no timing cell"))?);
    }

    let mut stats = SnapshotStats::default();
    for p in parts {
        stats.forked_runs += p.stats.forked_runs;
        stats.cold_runs += p.stats.cold_runs;
        stats.skipped_cycles += p.stats.skipped_cycles;
        stats.captured += p.stats.captured;
        stats.converged_runs += p.stats.converged_runs;
        stats.suffix_cycles += p.stats.suffix_cycles;
    }

    Ok(MergedCampaign {
        records,
        metrics,
        timings,
        stats,
        wall_us: parts.iter().map(|p| p.wall_us).max().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig, CampaignResult};
    use idld_workloads::Workload;

    fn picks() -> Vec<Workload> {
        idld_workloads::suite()
            .into_iter()
            .filter(|w| w.name == "crc32" || w.name == "basicmath")
            .collect()
    }

    fn run_with(base: &CampaignConfig, shard: usize, shards: usize) -> CampaignResult {
        Campaign::new(CampaignConfig {
            shard,
            shards,
            ..base.clone()
        })
        .run(&picks())
        .expect("campaign runs")
    }

    fn merge_of(base: &CampaignConfig, shards: usize) -> MergedCampaign {
        let parts: Vec<ShardArtifact> = (0..shards)
            .map(|i| {
                let res = run_with(base, i, shards);
                decode_shard(&encode_shard(&res, i, shards)).expect("round trip")
            })
            .collect();
        merge_shards(&parts).expect("consistent shards merge")
    }

    /// The merge guarantee: shards=1 vs shards=2/4, forked and cold
    /// (`snapshot_max: 0`) — byte-identical merged records.csv,
    /// metrics.csv/json, and wall-free timings.csv.
    #[test]
    fn sharded_merge_is_byte_identical_to_single_process() {
        for snapshot_max in [64, 0] {
            let base = CampaignConfig {
                runs_per_cell: 3,
                seed: 9,
                snapshot_max,
                ..Default::default()
            };
            let single = run_with(&base, 0, 1);
            let single_metrics = CampaignMetrics::build(&single);
            let shard_counts: &[usize] = if snapshot_max > 0 { &[2, 4] } else { &[4] };
            for &shards in shard_counts {
                let merged = merge_of(&base, shards);
                assert_eq!(
                    merged.records_csv(),
                    crate::export::to_csv(&single),
                    "records.csv must be byte-identical ({shards} shards, snapshot_max={snapshot_max})"
                );
                assert_eq!(
                    merged.metrics_csv(),
                    metrics_csv(&single_metrics),
                    "metrics.csv must be byte-identical ({shards} shards, snapshot_max={snapshot_max})"
                );
                assert_eq!(
                    merged.metrics_json(),
                    metrics_json(&single_metrics),
                    "metrics.json must be byte-identical ({shards} shards, snapshot_max={snapshot_max})"
                );
                assert_eq!(
                    merged.timings_csv(false),
                    crate::export::timings_csv_with(&single, false),
                    "wall-free timings.csv must be byte-identical ({shards} shards)"
                );
                assert_eq!(merged.runs(), single.records.len());
                // Per-run savings sum to the same totals in any partition
                // (`captured` counts each shard's own golden captures).
                let saved = |st: &SnapshotStats| {
                    (
                        st.forked_runs,
                        st.cold_runs,
                        st.skipped_cycles,
                        st.converged_runs,
                        st.suffix_cycles,
                    )
                };
                assert_eq!(saved(&merged.stats), saved(&single.snapshot_stats));
            }
        }
    }

    #[test]
    fn artifact_round_trip_preserves_every_stream() {
        let base = CampaignConfig {
            runs_per_cell: 2,
            seed: 5,
            ..Default::default()
        };
        let res = run_with(&base, 1, 3);
        let art = decode_shard(&encode_shard(&res, 1, 3)).expect("round trip");
        assert_eq!((art.shard, art.shards), (1, 3));
        assert_eq!(art.records.len(), res.records.len());
        assert_eq!(art.timings.len(), res.timings.len());
        assert_eq!(art.stats, res.snapshot_stats);
        for (r, (job, row)) in res.records.iter().zip(&art.records) {
            assert_eq!(r.job, *job);
            assert_eq!(&crate::export::record_row(r), row);
        }
        for (a, b) in res.timings.iter().zip(&art.timings) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.bench, b.bench);
            assert_eq!(a.model, b.model);
            assert_eq!((a.runs, a.poisoned), (b.runs, b.poisoned));
            assert_eq!(a.total.as_micros(), b.total.as_micros());
        }
    }

    #[test]
    fn merge_rejects_inconsistent_artifact_sets() {
        let base = CampaignConfig {
            runs_per_cell: 2,
            seed: 5,
            ..Default::default()
        };
        let res = run_with(&base, 0, 2);
        let art = decode_shard(&encode_shard(&res, 0, 2)).expect("round trip");
        assert!(merge_shards(&[]).is_err(), "empty set");
        let twice = merge_shards(&[art.clone(), art.clone()]);
        assert!(twice.is_err(), "the same shard twice must not merge");
        let mut relabeled = art.clone();
        relabeled.shard = 1; // same records under a different shard index
        let overlapping = merge_shards(&[art, relabeled]);
        assert!(
            overlapping.is_err(),
            "two shards claiming the same jobs must not merge"
        );
    }

    /// `body` followed by a digest line that matches it — what a hostile
    /// peer that knows the format can always produce.
    fn seal(body: &str) -> String {
        format!("{body}{DIGEST_TAG}{:016x}\n", fnv(body))
    }

    #[test]
    fn decode_rejects_malformed_artifacts() {
        for bad in [
            "",
            "idld-shard v0\n",
            "idld-shard v5\nshard 0 2\nwall_us 1\nstats 1 2 3 4\nrecords 0\ntimings 0\ncells 0\n",
            "idld-shard v6\nshard 0\n",
            "idld-shard v6\nshard 0 2\nwall_us x\n",
            "idld-shard v6\nshard 0 2\nwall_us 1\nstats 1 2 3 4\nrecords 0\ntimings 0\ncells 0\n",
            "idld-shard v6\nshard 0 2\nwall_us 1\nstats 1 2 3 4 5 6 7 8 9\n",
            "idld-shard v6\nshard 0 2\nwall_us 1\nstats 1 2 3 4 5 x\n",
            "idld-shard v6\nshard 0 2\nwall_us 1\nstats 1 2 3 4 5 6\nrecords 1\n",
        ] {
            assert!(decode_shard(bad).is_err(), "must reject {bad:?}");
            assert!(
                decode_shard(&seal(bad)).is_err(),
                "must reject sealed {bad:?}"
            );
        }
        let empty =
            "idld-shard v6\nshard 0 1\nwall_us 1\nstats 0 0 0 0 0 0\nrecords 0\ntimings 0\ncells 0\n";
        assert!(decode_shard(&seal(empty)).is_ok(), "a sealed empty shard");
        let err = decode_shard(empty).expect_err("an unsealed artifact");
        assert!(err.contains("digest"), "{err}");
        let stale = decode_shard(&seal(&empty.replace("v6", "v5"))).expect_err("old format");
        assert!(stale.contains(MAGIC), "{stale}");
    }

    /// Seeded: one flipped bit anywhere in a valid artifact — header,
    /// record rows, metric cells or the digest line itself — is an error,
    /// never a quietly different record.
    #[test]
    fn any_single_bit_flip_is_rejected() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let base = CampaignConfig {
            runs_per_cell: 2,
            seed: 5,
            ..Default::default()
        };
        let good = encode_shard(&run_with(&base, 0, 2), 0, 2);
        assert!(decode_shard(&good).is_ok());
        let mut rng = SmallRng::seed_from_u64(0x5ead);
        for _ in 0..256 {
            let pos = rng.gen_range(0..good.len());
            let bit = rng.gen_range(0..8u32);
            let mut bytes = good.clone().into_bytes();
            bytes[pos] ^= 1 << bit;
            // Bytes that are no longer UTF-8 fail `read_to_string` before
            // the decoder sees them; the rest must fail the decoder.
            if let Ok(text) = String::from_utf8(bytes) {
                assert!(
                    decode_shard(&text).is_err(),
                    "bit {bit} of byte {pos}/{} flipped and still decoded",
                    good.len()
                );
                // Resealed, as a peer that knows the format could forge,
                // the flip reaches the parser: it may decode, but must
                // not panic.
                if let Some((body, _)) = text.rsplit_once(DIGEST_TAG) {
                    let _ = decode_shard(&seal(body));
                }
            }
        }
    }

    /// `.part` files are read back from disk (and over the wire), so the
    /// decoder must treat them as hostile: forged section counts and
    /// truncation anywhere are errors, never a panic or an allocation
    /// abort.
    #[test]
    fn decode_survives_forged_counts_and_truncation() {
        let base = CampaignConfig {
            runs_per_cell: 1,
            seed: 5,
            ..Default::default()
        };
        let good = encode_shard(&run_with(&base, 0, 1), 0, 1);
        assert!(decode_shard(&good).is_ok());

        let huge = usize::MAX.to_string();
        for tag in ["records", "timings", "cells"] {
            let line = good
                .lines()
                .find(|l| l.starts_with(&format!("{tag} ")))
                .expect("section present");
            for forged in [huge.as_str(), "4294967295", "1000000000"] {
                let text = good.replacen(line, &format!("{tag} {forged}"), 1);
                assert!(
                    decode_shard(&text).is_err(),
                    "{tag} {forged} must be rejected"
                );
                // Resealed, the forgery passes the digest and must fail
                // in the parser, as truncation.
                let body = text.rsplit_once(DIGEST_TAG).expect("digest line").0;
                assert!(
                    decode_shard(&seal(body)).is_err(),
                    "resealed {tag} {forged} must be rejected"
                );
            }
        }
        // A forged shard count must not reach an allocation in the merge.
        let body = good.rsplit_once(DIGEST_TAG).expect("digest line").0;
        let text = seal(&body.replacen("shard 0 1", &format!("shard 0 {huge}"), 1));
        let forged = decode_shard(&text).expect("the header itself is well formed");
        assert!(
            merge_shards(&[forged]).is_err(),
            "shards missing from the set"
        );

        // Every proper prefix is a truncated artifact, including those
        // that end exactly at a section boundary: they still lack the
        // sections after it.
        for cut in (0..good.len()).filter(|&c| good.is_char_boundary(c)) {
            assert!(
                decode_shard(&good[..cut]).is_err(),
                "prefix of {cut}/{} bytes must be rejected",
                good.len()
            );
        }
        // A duplicated metric line inside a cell body is garbage too.
        let cell_line = good
            .lines()
            .skip_while(|l| !l.starts_with("cell "))
            .nth(1)
            .expect("cell body");
        let doubled = body.replacen(cell_line, &format!("{cell_line}\n{cell_line}"), 1);
        assert!(
            decode_shard(&seal(&doubled)).is_err(),
            "duplicate metric line"
        );
        // Resealed prefixes reach the parser and still fail as truncation.
        for cut in body.match_indices('\n').map(|(i, _)| i + 1) {
            if cut < body.len() {
                assert!(
                    decode_shard(&seal(&body[..cut])).is_err(),
                    "sealed prefix {cut}"
                );
            }
        }
    }
}
