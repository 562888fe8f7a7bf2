//! Counters/histograms metrics registry.
//!
//! A [`MetricsRegistry`] is a flat, name-keyed bag of monotonically
//! increasing counters and log2-bucketed histograms. Campaign code builds
//! one registry per cell (workload × bug model), merges run-level
//! observations into it, and rolls cells up into a campaign-wide registry.
//! Export is deliberately dependency-free: CSV rows compatible with the
//! existing `records.csv` tooling, and a hand-rolled JSON document (the
//! repo has no serde).
//!
//! Names are `BTreeMap` keys so every export is deterministically sorted —
//! a requirement for byte-diffable artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log2 buckets in a [`Histogram`]: bucket `i` counts values
/// `v` with `floor(log2(v+1)) == i`, so bucket 0 is exactly `v == 0`,
/// bucket 1 is `v in 1..=2`, etc. 64 buckets cover the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucketed histogram with exact count/sum/min/max.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        // floor(log2(value + 1)), saturating at the top bucket.
        (64 - value.saturating_add(1).leading_zeros() as usize - 1).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

/// Name-keyed counters and histograms for one aggregation scope.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Records `value` into histogram `name`, creating it if absent.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges all of `other`'s counters and histograms into this registry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&name, &v) in &other.counters {
            self.add(name, v);
        }
        for (&name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// True when no metric was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&n, &v)| (n, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&n, h)| (n, h))
    }

    /// CSV rows for this registry under a scope label, without header.
    /// Schema: `scope,metric,kind,count,sum,min,max,mean`.
    pub fn csv_rows(&self, scope: &str, out: &mut String) {
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{scope},{name},counter,1,{v},{v},{v},{v}");
        }
        for (name, h) in &self.histograms {
            let (min, max) = (h.min().unwrap_or(0), h.max().unwrap_or(0));
            let mean = h.mean().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{scope},{name},histogram,{},{},{min},{max},{mean:.3}",
                h.count(),
                h.sum()
            );
        }
    }

    /// A complete one-registry CSV document — [`METRICS_CSV_HEADER`] plus
    /// [`MetricsRegistry::csv_rows`] under `scope`. The export shape the
    /// `netd` coordinator uses for its service metrics (shards
    /// dispatched/retried/resumed, worker wall histograms), so service
    /// dashboards parse the same schema as campaign `metrics.csv`.
    pub fn to_csv(&self, scope: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{METRICS_CSV_HEADER}");
        self.csv_rows(scope, &mut s);
        s
    }

    /// Serializes this registry as a line-oriented key-value text block,
    /// the transport format sharded campaign workers use to ship their
    /// per-cell registries to the merging coordinator. The encoding is
    /// *exact*: every internal `u64` (including a histogram's raw `min`
    /// sentinel and its individual bucket counts) round-trips bit-for-bit
    /// through [`MetricsRegistry::from_kv`], so `merge` over deserialized
    /// registries equals `merge` over the originals.
    ///
    /// Format, one metric per line:
    ///
    /// ```text
    /// c <name> <value>
    /// h <name> <count> <sum> <raw_min> <max> <bucket>:<count> ...
    /// ```
    pub fn to_kv(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(s, "c {name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = write!(s, "h {name} {} {} {} {}", h.count, h.sum, h.min, h.max);
            for (b, c) in h.nonzero_buckets() {
                let _ = write!(s, " {b}:{c}");
            }
            s.push('\n');
        }
        s
    }

    /// Parses a [`MetricsRegistry::to_kv`] block back into a registry.
    ///
    /// Every metric name must be one of `schema`, whose entries become the
    /// registry keys: parsing allocates no name, however many blocks are
    /// parsed and whatever names they carry.
    ///
    /// # Errors
    ///
    /// Any malformed line, or a name outside `schema`, is an error naming
    /// the line — a merge over a truncated or forged shard artifact must
    /// fail loudly, not undercount.
    pub fn from_kv(s: &str, schema: &[&'static str]) -> Result<MetricsRegistry, String> {
        fn num(tok: Option<&str>, line: &str) -> Result<u64, String> {
            tok.ok_or_else(|| format!("kv line {line:?}: missing field"))?
                .parse()
                .map_err(|e| format!("kv line {line:?}: {e}"))
        }
        let mut m = MetricsRegistry::new();
        for line in s.lines() {
            if line.is_empty() {
                continue;
            }
            let mut f = line.split(' ');
            let kind = f.next();
            let raw = f
                .next()
                .ok_or_else(|| format!("kv line {line:?}: no name"))?;
            let name = *schema
                .iter()
                .find(|&&n| n == raw)
                .ok_or_else(|| format!("kv line {line:?}: unknown metric {raw:?}"))?;
            if m.counters.contains_key(name) || m.histograms.contains_key(name) {
                return Err(format!("kv line {line:?}: duplicate metric {name:?}"));
            }
            match kind {
                Some("c") => {
                    m.add(name, num(f.next(), line)?);
                }
                Some("h") => {
                    let mut h = Histogram {
                        count: num(f.next(), line)?,
                        sum: num(f.next(), line)?,
                        min: num(f.next(), line)?,
                        max: num(f.next(), line)?,
                        ..Histogram::default()
                    };
                    for pair in f {
                        let (b, c) = pair
                            .split_once(':')
                            .ok_or_else(|| format!("kv line {line:?}: bad bucket {pair:?}"))?;
                        let b: usize = b.parse().map_err(|e| format!("kv line {line:?}: {e}"))?;
                        if b >= HISTOGRAM_BUCKETS {
                            return Err(format!("kv line {line:?}: bucket {b} out of range"));
                        }
                        h.buckets[b] = c.parse().map_err(|e| format!("kv line {line:?}: {e}"))?;
                    }
                    m.histograms.insert(name, h);
                }
                _ => return Err(format!("kv line {line:?}: unknown kind")),
            }
        }
        Ok(m)
    }

    /// This registry as a JSON object (no trailing newline), indented by
    /// `indent` spaces at the top level. Hand-rolled; metric names are
    /// static identifiers and never need escaping.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let pad2 = " ".repeat(indent + 2);
        let pad4 = " ".repeat(indent + 4);
        let mut s = String::from("{\n");
        let _ = writeln!(s, "{pad2}\"counters\": {{");
        let n = self.counters.len();
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(s, "{pad4}\"{name}\": {v}{comma}");
        }
        let _ = writeln!(s, "{pad2}}},");
        let _ = writeln!(s, "{pad2}\"histograms\": {{");
        let n = self.histograms.len();
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .map(|(b, c)| format!("[{b}, {c}]"))
                .collect();
            let _ = writeln!(
                s,
                "{pad4}\"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"buckets\": [{}]}}{comma}",
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                buckets.join(", ")
            );
        }
        let _ = writeln!(s, "{pad2}}}");
        let _ = write!(s, "{pad}}}");
        s
    }
}

/// Header for [`MetricsRegistry::csv_rows`] output.
pub const METRICS_CSV_HEADER: &str = "scope,metric,kind,count,sum,min,max,mean";

#[cfg(test)]
mod tests {
    use super::*;

    /// The names the kv tests use.
    const SCHEMA: &[&str] = &["runs", "masked", "latency", "end_cycle", "lat"];

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(6), 2);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_stats_and_merge() {
        let mut a = Histogram::default();
        a.observe(0);
        a.observe(10);
        let mut b = Histogram::default();
        b.observe(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 15);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(10));
        assert_eq!(a.mean(), Some(5.0));
    }

    #[test]
    fn registry_merge_accumulates() {
        let mut cell = MetricsRegistry::new();
        cell.incr("runs");
        cell.observe("latency", 0);
        let mut rollup = MetricsRegistry::new();
        rollup.merge(&cell);
        rollup.merge(&cell);
        assert_eq!(rollup.counter("runs"), 2);
        assert_eq!(rollup.histogram("latency").unwrap().count(), 2);
    }

    #[test]
    fn kv_round_trip_is_exact() {
        let mut m = MetricsRegistry::new();
        m.add("runs", 42);
        m.incr("masked");
        m.observe("latency", 0);
        m.observe("latency", 1000);
        m.observe("end_cycle", u64::MAX);
        let back = MetricsRegistry::from_kv(&m.to_kv(), SCHEMA).expect("round trip");
        assert_eq!(m, back);
        // Empty registry round-trips too.
        let empty = MetricsRegistry::from_kv("", SCHEMA).expect("empty");
        assert!(empty.is_empty());
    }

    #[test]
    fn kv_merge_after_round_trip_equals_direct_merge() {
        // The shard-merge soundness property: serializing per-shard
        // registries and merging the parses must equal merging the
        // originals — bit for bit, including histogram internals.
        let mut a = MetricsRegistry::new();
        a.add("runs", 3);
        a.observe("lat", 7);
        let mut b = MetricsRegistry::new();
        b.add("runs", 5);
        b.incr("masked");
        b.observe("lat", 9000);
        let mut direct = MetricsRegistry::new();
        direct.merge(&a);
        direct.merge(&b);
        let mut via_kv = MetricsRegistry::from_kv(&a.to_kv(), SCHEMA).unwrap();
        via_kv.merge(&MetricsRegistry::from_kv(&b.to_kv(), SCHEMA).unwrap());
        assert_eq!(direct, via_kv);
        assert_eq!(direct.to_kv(), via_kv.to_kv());
    }

    #[test]
    fn kv_rejects_malformed_input() {
        assert!(
            MetricsRegistry::from_kv("x runs 1", SCHEMA).is_err(),
            "bad kind"
        );
        assert!(
            MetricsRegistry::from_kv("c runs", SCHEMA).is_err(),
            "missing value"
        );
        assert!(
            MetricsRegistry::from_kv("c runs abc", SCHEMA).is_err(),
            "non-num"
        );
        assert!(
            MetricsRegistry::from_kv("h lat 1 2 3", SCHEMA).is_err(),
            "truncated histogram header"
        );
        assert!(
            MetricsRegistry::from_kv("h lat 1 2 3 4 nob", SCHEMA).is_err(),
            "bad bucket pair"
        );
        assert!(
            MetricsRegistry::from_kv("h lat 1 2 3 4 99:1", SCHEMA).is_err(),
            "bucket index out of range"
        );
        let err = MetricsRegistry::from_kv("c runz 1", SCHEMA).expect_err("unknown name");
        assert!(err.contains("unknown metric \"runz\""), "{err}");
    }

    #[test]
    fn csv_and_json_are_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.add("zebra", 3);
        m.add("alpha", 1);
        m.observe("lat", 4);
        let mut csv = String::new();
        m.csv_rows("cell", &mut csv);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "cell,alpha,counter,1,1,1,1,1");
        assert_eq!(lines[1], "cell,zebra,counter,1,3,3,3,3");
        assert!(lines[2].starts_with("cell,lat,histogram,1,4,4,4,"));
        let json = m.to_json(0);
        assert!(json.contains("\"alpha\": 1"));
        assert!(json.contains("\"lat\": {\"count\": 1, \"sum\": 4"));
        // Deterministic: same input, same bytes.
        assert_eq!(json, m.to_json(0));
    }

    #[test]
    fn to_csv_is_a_headed_one_registry_document() {
        let mut m = MetricsRegistry::new();
        m.add("shards_dispatched", 3);
        m.observe("shard_wall_us", 250);
        let csv = m.to_csv("netd");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], METRICS_CSV_HEADER);
        assert_eq!(lines[1], "netd,shards_dispatched,counter,1,3,3,3,3");
        assert!(lines[2].starts_with("netd,shard_wall_us,histogram,1,250,250,250,"));
        assert_eq!(lines.len(), 3);
    }
}
