//! # idld-campaign — bug-injection campaigns and the paper's analyses
//!
//! Reproduces the experimental methodology of IDLD §IV and §VI.C:
//!
//! 1. For each workload, a **golden run** records the commit trace, output,
//!    cycle count and a census of every RRS control-signal occurrence.
//! 2. For each (workload × bug model) cell, N **injection runs** each arm a
//!    single bug activation at a uniformly random occurrence of the model's
//!    signals, with IDLD, bit-vector and counter checkers attached.
//! 3. Every run is classified into the paper's outcome classes
//!    ([`classify::OutcomeClass`]): Benign, Performance, Control Flow
//!    Deviation (together the *Masked* set), SDC, Timeout, Assert, Crash.
//! 4. [`analysis`] aggregates the records into exactly the figures of the
//!    paper: masking (Fig. 3), persistence (Fig. 4), manifestation-latency
//!    histogram (Fig. 5), per-benchmark outcome breakdown (Fig. 8), and
//!    detection coverage for IDLD vs. traditional end-of-test vs. +BV
//!    (Figs. 9–10).
//!
//! Campaigns are deterministic under (`seed`, configuration): the run for
//! cell (workload, model, k) derives its RNG from those values only.

pub mod analysis;
pub mod campaign;
pub mod classify;
pub mod export;
pub mod ledger;
pub mod metrics;
pub mod progress;
pub mod shard;
pub mod smt;
pub mod sweep;

pub use campaign::{
    injection_checkers, isolated, Campaign, CampaignConfig, CampaignResult, CellTiming, GoldenEnd,
    GoldenRun, GoldenRunError, GoldenSnapshot, RunRecord, SnapshotStats,
};
pub use classify::{classify, classify_smt, manifestation_cycle_smt, OutcomeClass};
pub use ledger::{Claim, Completion, ShardLedger};
pub use metrics::{metrics_csv, metrics_json, CampaignMetrics};
pub use progress::{CampaignProgress, NullProgress, ProgressSnapshot, StderrProgress};
pub use shard::{
    decode_shard, encode_shard, merge_shards, MergedCampaign, ShardArtifact, SHARD_MAGIC,
};
pub use smt::{smt_checkers, SmtGolden, SMT_LABEL};
pub use sweep::{SweepPoint, SweepSpec, DEFAULT_LABEL};
