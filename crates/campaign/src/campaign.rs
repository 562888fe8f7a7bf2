//! The campaign driver: golden runs, injection runs, record collection.
//!
//! # Scheduler
//!
//! [`Campaign::run`] drains a pre-built list of individual
//! `(workload, model, k)` run jobs through a shared atomic job index —
//! work-stealing at run granularity, so `min(threads, jobs)` workers stay
//! busy until the very last job, instead of one thread per workload idling
//! behind the slowest workload. Golden runs are captured once per
//! `(point × workload)` cell, all before any run starts, on the same
//! kind of pool: `min(threads, cells)` workers pull cells in index order.
//! So [`CampaignConfig::threads`] bounds every thread a campaign runs
//! simulations on, golden capture included. The goldens are then shared
//! read-only across the run workers.
//!
//! # Snapshot-and-fork execution
//!
//! An injected run is bit-identical to the golden run until its bug
//! activates, so simulating that prefix thousands of times is pure waste.
//! The golden capture therefore also takes snapshots — simulator +
//! checker state without the memory image — at a stride of cycles
//! (bounded per workload by [`CampaignConfig::snapshot_max`] via
//! deterministic stride-doubling thinning), each snapshot tagged with the
//! control-signal census at its cycle. Every injection then forks from
//! the latest snapshot that has not yet passed its target occurrence:
//! the worker's in-order emulator replays the architectural prefix to
//! rebuild memory, the bit-exactness gate
//! ([`Simulator::restore_from_arch`]) admits the hand-off, and the hook
//! is re-armed with the snapshot's census count. Jobs are *executed* in
//! (workload, resume-cycle) order for cache locality, but records are
//! written back by original index, so the record stream — and the
//! exported CSV — is byte-identical to the cold oracle
//! (`snapshot_max: 0`, `IDLD_SNAPSHOT_MAX=0`: every run from power-on),
//! at any worker count.
//!
//! # Sweep and shard axes
//!
//! The job list is the cross product `config × workload × model × k`: the
//! config axis comes from [`CampaignConfig::sweep`] (a [`SweepSpec`];
//! empty = the single implicit `default` point over
//! [`CampaignConfig::sim`]). Every job has a *dense global index*
//! computable without running anything —
//! `((point × workloads + workload) × models + model) × runs_per_cell + k`
//! — and carries it in [`RunRecord::job`].
//!
//! A campaign can be split across processes: with
//! [`CampaignConfig::shards`] `= N`, shard `i` executes exactly the jobs
//! whose `(config, bench, model, k)` hash lands on `i`, captures golden
//! runs only for the `(config, workload)` cells it owns jobs in, and
//! reports records tagged with their global index. The
//! [`shard`](crate::shard) module merges N such partial results back into
//! outputs byte-identical to a `shards = 1` run.
//!
//! # Determinism
//!
//! Every job's RNG derives from `(seed, config, bench, model, k)` only,
//! the job list is sampled up front on the scheduling thread, and records
//! are written back by original job index — so the record order *and
//! content* are identical to a sequential run of the same seed, for any
//! worker count and any shard partition
//! ([`export::to_csv`](crate::export::to_csv) output is byte-identical
//! between 1-thread and N-thread runs).
//!
//! # Panic isolation
//!
//! Each injected run executes under `catch_unwind`; a panicking run
//! becomes a poisoned record ([`OutcomeClass::Anomalous`], with the panic
//! message in [`RunRecord::poisoned`]) instead of aborting the campaign.
//! While a campaign runs, a process-wide panic hook suppresses backtrace
//! spam from campaign workers only; other threads' panics still report
//! through the previously installed hook.

use crate::classify::{classify, manifestation_cycle, OutcomeClass};
use crate::progress::{CampaignProgress, NullProgress, ProgressState};
use crate::sweep::{SweepPoint, SweepSpec, DEFAULT_LABEL};
use idld_bugs::{BugModel, BugSpec, SingleShotHook};
use idld_core::{BitVectorChecker, CheckerSet, CounterChecker, IdldChecker};
use idld_isa::Emulator;
use idld_rrs::CensusHook;
use idld_sim::{CommitTrace, SimConfig, SimSnapshot, SimStats, Simulator};
use idld_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable: injection runs per (workload × model) cell.
pub const RUNS_PER_CELL_ENV: &str = "IDLD_RUNS_PER_CELL";
/// Environment variable: master campaign seed.
pub const SEED_ENV: &str = "IDLD_SEED";
/// Environment variable: the campaign's worker threads, golden capture
/// included (0 or unset = one per available core).
pub const THREADS_ENV: &str = "IDLD_CAMPAIGN_THREADS";
/// Environment variable: golden-run snapshot capture stride in cycles
/// (`0` or unset = automatic).
pub const SNAPSHOT_STRIDE_ENV: &str = "IDLD_SNAPSHOT_STRIDE";
/// Environment variable: maximum retained snapshots per workload. `0`
/// disables capture, so every run simulates from power-on — the cold
/// oracle the forked record stream is byte-compared against.
pub const SNAPSHOT_MAX_ENV: &str = "IDLD_SNAPSHOT_MAX";
/// Environment variable: config-space sweep specification (`grid` or
/// comma-separated `w<width>c<ckpts>r<rob>` points; unset = no sweep).
pub const SWEEP_ENV: &str = "IDLD_SWEEP";
/// Environment variable: the SMT campaign axis, `0` (default) or `1`.
/// With `1` the campaign appends, after the single-thread job space, an
/// injection section over the paired-workload SMT scenarios
/// ([`idld_workloads::smt_pairs`]) on the 2-thread shared-rename core
/// (see [`crate::smt`]). With `0` the record stream is byte-identical
/// to a campaign without the axis.
pub const SMT_ENV: &str = "IDLD_SMT";

/// Variables earlier versions read, each with what replaces it. Setting
/// one is an error: ignoring it would quietly run a different campaign
/// than the one asked for (an unsharded run for `IDLD_SHARDS=4`).
pub const RETIRED_ENV: &[(&str, &str)] = &[
    ("IDLD_SHARD", "use `campaignd --shards N`"),
    ("IDLD_SHARDS", "use `campaignd --shards N`"),
    ("IDLD_SHARD_DIR", "use `campaignd --shards N --out DIR`"),
    (
        "IDLD_SNAPSHOT",
        "use IDLD_SNAPSHOT_MAX=0 for the cold oracle",
    ),
    ("IDLD_FF", "use IDLD_SNAPSHOT_MAX=0 for the cold oracle"),
    (
        "IDLD_FF_GUARD",
        "removed: the bit-exactness gate always runs",
    ),
    (
        "IDLD_EMU_BLOCK",
        "removed: the single-step emulator is the only one",
    ),
    ("IDLD_LISTEN", "use `campaignd --listen HOST:PORT`"),
    ("IDLD_CONNECT", "use `campaignd --connect HOST:PORT`"),
];

/// Strictly parses environment variable `name` with `parse`: unset is
/// `None`, a set-but-malformed value is an error naming the variable.
fn parse_env_with<T>(
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Ok(raw) => parse(&raw)
            .map(Some)
            .map_err(|e| format!("{name}={raw:?} is invalid: {e}")),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(format!("{name} is unreadable: {e}")),
    }
}

/// [`parse_env_with`] through [`str::parse`], surrounding whitespace
/// trimmed.
fn parse_env<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    parse_env_with(name, |raw| {
        raw.trim().parse().map_err(|e: T::Err| e.to_string())
    })
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Core configuration used for golden and injected runs (of the
    /// implicit `default` sweep point; an explicit [`sweep`](Self::sweep)
    /// replaces it).
    pub sim: SimConfig,
    /// Config-space sweep axis: each point runs the full
    /// `workload × model × k` protocol under its own core configuration.
    /// Empty (the default) = the single `default` point over `sim`.
    pub sweep: SweepSpec,
    /// Injection runs per (workload × bug model) cell. The paper used
    /// 1 000; the default here is CI-scale and the benches read
    /// `IDLD_RUNS_PER_CELL` to scale up.
    pub runs_per_cell: usize,
    /// Master seed; every run's RNG derives deterministically from it.
    pub seed: u64,
    /// Worker threads of the campaign; `0` means one per available core.
    /// Golden capture and the injection runs both run on at most this
    /// many threads. The record stream is identical for every value (see
    /// module docs).
    pub threads: usize,
    /// Golden-run snapshot stride in cycles; `0` picks automatically.
    pub snapshot_stride: u64,
    /// Maximum snapshots retained per workload. `0` disables capture:
    /// every run simulates from power-on, the cold oracle whose record
    /// stream forked campaigns must reproduce byte for byte.
    pub snapshot_max: usize,
    /// This process's shard index (`0..shards`): it executes only the
    /// jobs hash-partitioned onto it (see the module docs).
    pub shard: usize,
    /// Total shard count; `1` (the default) runs every job in-process.
    pub shards: usize,
    /// The SMT campaign axis (off by default): append an injection
    /// section over the paired-workload SMT scenarios on the 2-thread
    /// shared-rename core, with job indices continuing after the dense
    /// single-thread job space. Off, the record stream is byte-identical
    /// to a campaign without the axis.
    pub smt: bool,
    /// Test instrumentation: make the worker executing this job index
    /// panic deliberately, to exercise panic isolation. Not for normal
    /// use.
    #[doc(hidden)]
    pub sabotage_job: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            sim: SimConfig::default(),
            sweep: SweepSpec::default(),
            runs_per_cell: 30,
            seed: 0x1d1d,
            threads: 0,
            snapshot_stride: 0,
            snapshot_max: 64,
            shard: 0,
            shards: 1,
            smt: false,
            sabotage_job: None,
        }
    }
}

impl CampaignConfig {
    /// Reads every campaign knob ([`RUNS_PER_CELL_ENV`], [`SEED_ENV`],
    /// [`SMT_ENV`], [`SWEEP_ENV`] and the [local](Self::with_local_env)
    /// ones) from the environment, falling back to the defaults — the
    /// hook the bench harnesses use to scale toward the paper's 1 000
    /// runs per cell.
    ///
    /// # Errors
    ///
    /// A set-but-malformed variable is an error, not a silent fallback: a
    /// typo in `IDLD_RUNS_PER_CELL` must not quietly degrade a 1 000-run
    /// campaign to the 30-run default. So is any [`RETIRED_ENV`] variable
    /// that is set, naming its replacement.
    pub fn try_from_env() -> Result<Self, String> {
        let mut cfg = CampaignConfig::default().with_local_env()?;
        if let Some(n) = parse_env(RUNS_PER_CELL_ENV)? {
            cfg.runs_per_cell = n;
        }
        if let Some(s) = parse_env(SEED_ENV)? {
            cfg.seed = s;
        }
        let flag = |raw: &str| match raw.trim() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err("expected 0 or 1".to_string()),
        };
        if let Some(on) = parse_env_with(SMT_ENV, flag)? {
            cfg.smt = on;
        }
        if let Some(sweep) = parse_env_with(SWEEP_ENV, SweepSpec::parse)? {
            cfg.sweep = sweep;
        }
        Ok(cfg)
    }

    /// `self` with the host-local performance knobs read from the
    /// environment: [`THREADS_ENV`], [`SNAPSHOT_STRIDE_ENV`] and
    /// [`SNAPSHOT_MAX_ENV`]. None of them can change the record stream,
    /// so a distributed worker applies them over the campaign its job
    /// describes and reads nothing else.
    ///
    /// # Errors
    ///
    /// As [`try_from_env`](Self::try_from_env): a malformed variable of
    /// the three, or any [`RETIRED_ENV`] variable that is set.
    pub fn with_local_env(mut self) -> Result<Self, String> {
        if let Some((name, instead)) = RETIRED_ENV
            .iter()
            .find(|(name, _)| std::env::var_os(name).is_some())
        {
            return Err(format!("{name} is no longer read: {instead}"));
        }
        if let Some(t) = parse_env(THREADS_ENV)? {
            self.threads = t;
        }
        if let Some(s) = parse_env(SNAPSHOT_STRIDE_ENV)? {
            self.snapshot_stride = s;
        }
        if let Some(m) = parse_env(SNAPSHOT_MAX_ENV)? {
            self.snapshot_max = m;
        }
        Ok(self)
    }

    /// [`CampaignConfig::try_from_env`], panicking with the offending
    /// variable on malformed input (a campaign silently run at the wrong
    /// scale is worse than no campaign).
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("campaign environment: {e}"))
    }
}

/// A mid-trace capture of the golden run: simulator state without memory
/// plus checker state at `cycle` (a [`SimSnapshot`], restored through the
/// emulator gate), and the control-signal census up to that point.
///
/// The census counts are what make snapshots *addressable by occurrence*:
/// an injection armed for the `n`-th occurrence of a site can resume from
/// the last snapshot whose count for that site is still `<= n` — the
/// trigger provably lies in the remaining suffix.
#[derive(Clone, Debug)]
pub struct GoldenSnapshot {
    /// Cycle the snapshot was taken at.
    pub cycle: u64,
    /// Per-site occurrence counts at the snapshot point (indexable by
    /// [`OpSite::index`](idld_rrs::OpSite::index)).
    pub counts: [u64; idld_rrs::OpSite::COUNT],
    /// The simulator + checker state.
    pub state: SimSnapshot,
}

/// A golden (bug-free) run of one workload.
#[derive(Clone, Debug)]
pub struct GoldenRun {
    /// The workload.
    pub workload: Workload,
    /// Full commit trace.
    pub trace: CommitTrace,
    /// Cycle count (the timeout budget is 2.5× this).
    pub cycles: u64,
    /// Output stream.
    pub output: Vec<u64>,
    /// Census of control-signal occurrences, used to arm injections.
    pub census: CensusHook,
    /// Mid-trace state snapshots in cycle order, for snapshot-and-fork
    /// execution (empty when captured without snapshots).
    pub snapshots: Vec<GoldenSnapshot>,
}

/// Why a golden (bug-free) run is unusable as a campaign baseline.
///
/// Either failure invalidates every injection against that workload, so
/// the campaign surfaces the workload and cause instead of aborting the
/// process from inside a worker thread.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GoldenRunError {
    /// The workload did not halt cleanly (crash/assert/cycle-limit).
    DidNotHalt {
        /// Workload name.
        workload: String,
        /// How the run actually stopped.
        stop: idld_sim::SimStop,
    },
    /// The workload halted but its output deviates from the native
    /// reference.
    OutputMismatch {
        /// Workload name.
        workload: String,
    },
}

impl std::fmt::Display for GoldenRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GoldenRunError::DidNotHalt { workload, stop } => {
                write!(
                    f,
                    "golden run of {workload} did not halt (stopped with {stop:?})"
                )
            }
            GoldenRunError::OutputMismatch { workload } => {
                write!(
                    f,
                    "golden run of {workload} deviates from the native reference"
                )
            }
        }
    }
}

impl std::error::Error for GoldenRunError {}

impl GoldenRun {
    /// Executes the golden run for `workload`.
    ///
    /// # Errors
    ///
    /// Returns [`GoldenRunError`] if the workload does not halt cleanly or
    /// its output deviates from the native reference — that would
    /// invalidate the whole campaign.
    pub fn capture(workload: &Workload, sim_cfg: SimConfig) -> Result<GoldenRun, GoldenRunError> {
        Self::capture_with_snapshots(workload, sim_cfg, 0, 0)
    }

    /// [`GoldenRun::capture`] that additionally snapshots the run every
    /// `stride` cycles (`0` = automatic), retaining at most `max`
    /// snapshots (`0` disables capture entirely).
    ///
    /// The run executes with the same checker set injection runs use, so
    /// each snapshot carries the checker state a from-power-on injected
    /// run would have at that cycle (checkers are pure observers: the
    /// golden trace, cycles and census are unaffected). When the snapshot
    /// count would exceed `max`, every second snapshot is dropped and the
    /// stride doubles — deterministic thinning that needs no advance
    /// knowledge of the run length and keeps the survivors evenly spaced.
    ///
    /// Snapshots carry no memory image; a fork restores one through
    /// [`Simulator::restore_from_arch`] with emulator-reconstructed
    /// memory.
    pub fn capture_with_snapshots(
        workload: &Workload,
        sim_cfg: SimConfig,
        stride: u64,
        max: usize,
    ) -> Result<GoldenRun, GoldenRunError> {
        const BUDGET: u64 = 500_000_000;
        /// Initial automatic stride: fine enough to matter for the
        /// shortest workloads (a few thousand cycles), coarse enough that
        /// thinning settles quickly for the longest. Tuned together with
        /// the default `snapshot_max` of 64 — the measured suite
        /// throughput optimum; denser caches lose more to capture cost
        /// than they save in replay (see EXPERIMENTS.md).
        const AUTO_STRIDE: u64 = 1_024;

        let mut census = CensusHook::new();
        let mut checkers = injection_checkers(&sim_cfg);
        let mut sim = Simulator::new(&workload.program, sim_cfg);
        let mut seg = sim.begin_run(None, BUDGET);
        let mut snapshots: Vec<GoldenSnapshot> = Vec::new();
        let stop = if max == 0 {
            seg.run_to_end(&mut sim, &mut census, &mut checkers, None)
        } else {
            let mut stride = if stride == 0 { AUTO_STRIDE } else { stride };
            loop {
                let pause = sim.cycle() + stride;
                match seg.step_until(&mut sim, &mut census, &mut checkers, pause) {
                    Some(stop) => break stop,
                    None => {
                        snapshots.push(GoldenSnapshot {
                            cycle: sim.cycle(),
                            counts: census.counts(),
                            state: sim.snapshot(&checkers),
                        });
                        if snapshots.len() > max {
                            // Keep every second snapshot (the ones landing
                            // on multiples of the doubled stride).
                            let mut keep = 0usize;
                            snapshots.retain(|_| {
                                keep += 1;
                                keep.is_multiple_of(2)
                            });
                            stride *= 2;
                        }
                    }
                }
            }
        };
        let mut res = seg.finish(&mut sim, stop, &mut checkers);
        if res.stop != idld_sim::SimStop::Halted {
            return Err(GoldenRunError::DidNotHalt {
                workload: workload.name.clone(),
                stop: res.stop,
            });
        }
        if res.output != workload.expected_output {
            return Err(GoldenRunError::OutputMismatch {
                workload: workload.name.clone(),
            });
        }
        // The trace lives as long as the campaign: drop the growth slack.
        res.trace.shrink_to_fit();
        Ok(GoldenRun {
            workload: workload.clone(),
            trace: res.trace,
            cycles: res.cycles,
            output: res.output,
            census,
            snapshots,
        })
    }

    /// The last snapshot an injection of `spec` can legally resume from:
    /// the latest one that has not yet passed the spec's occurrence.
    pub fn snapshot_for(&self, spec: &BugSpec) -> Option<&GoldenSnapshot> {
        let site = spec.site.index();
        self.snapshots
            .iter()
            .rev()
            .find(|s| s.counts[site] <= spec.occurrence)
    }

    /// The injected-run cycle budget: 2.5× the golden cycles (paper's
    /// Timeout definition).
    pub fn timeout_budget(&self) -> u64 {
        self.cycles * 5 / 2
    }
}

/// Per-checker first-detection latency relative to bug activation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Detections {
    /// IDLD detection cycle (absolute), if detected.
    pub idld: Option<u64>,
    /// Bit-vector detection cycle.
    pub bv: Option<u64>,
    /// Counter detection cycle.
    pub counter: Option<u64>,
}

/// One injected run's record.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Sweep-point label this run executed under
    /// ([`DEFAULT_LABEL`] when unswept).
    pub config: String,
    /// Dense global job index (see the module docs) — stable across any
    /// shard partition, used to interleave shard outputs back into the
    /// single-process record order. Not exported to CSV.
    pub job: usize,
    /// Workload name.
    pub bench: String,
    /// Bug-model class.
    pub model: BugModel,
    /// The exact injected bug.
    pub spec: BugSpec,
    /// Cycle of activation (always present for completed runs: specs are
    /// sampled from the golden census, and the run is identical to golden
    /// until activation). `0` for poisoned runs.
    pub activation_cycle: u64,
    /// Outcome class.
    pub outcome: OutcomeClass,
    /// First cycle the bug showed any evidence, if ever.
    pub manifestation_cycle: Option<u64>,
    /// The run finished at this cycle (`0` for poisoned runs).
    pub end_cycle: u64,
    /// Masked runs whose PdstID damage survives program termination
    /// (paper Fig. 4).
    pub persists: bool,
    /// Checker detections (absolute cycles).
    pub detections: Detections,
    /// Microarchitectural statistics of the injected run, feeding the
    /// per-cell metrics registry (zeroed for poisoned runs).
    pub stats: SimStats,
    /// The panic message, when this run panicked inside the simulator and
    /// the scheduler isolated it ([`OutcomeClass::Anomalous`]).
    pub poisoned: Option<String>,
}

impl RunRecord {
    /// Manifestation latency in cycles (activation → first evidence).
    pub fn manifestation_latency(&self) -> Option<u64> {
        self.manifestation_cycle
            .map(|m| m.saturating_sub(self.activation_cycle))
    }

    /// IDLD detection latency in cycles.
    pub fn idld_latency(&self) -> Option<u64> {
        self.detections
            .idld
            .map(|c| c.saturating_sub(self.activation_cycle))
    }

    /// True if traditional end-of-test checking flags this run (only
    /// non-masked outcomes are visible at end of test).
    pub fn eot_detects(&self) -> bool {
        !self.outcome.is_masked()
    }

    /// The poisoned record for a run whose simulation panicked.
    pub fn poisoned(
        config: &str,
        job: usize,
        bench: &str,
        spec: BugSpec,
        message: String,
    ) -> RunRecord {
        RunRecord {
            config: config.to_string(),
            job,
            bench: bench.to_string(),
            model: spec.model,
            spec,
            activation_cycle: 0,
            outcome: OutcomeClass::Anomalous,
            manifestation_cycle: None,
            end_cycle: 0,
            persists: false,
            detections: Detections::default(),
            stats: SimStats::default(),
            poisoned: Some(message),
        }
    }
}

/// Wall-clock spent in one (config × workload × model) cell, summed over
/// its runs.
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// Sweep-point label.
    pub config: String,
    /// Workload name.
    pub bench: String,
    /// Bug model.
    pub model: BugModel,
    /// Completed runs in the cell (including poisoned).
    pub runs: usize,
    /// Poisoned runs in the cell.
    pub poisoned: usize,
    /// Summed per-run wall-clock (CPU-side cost of the cell; runs execute
    /// concurrently, so cells can sum to more than the campaign wall).
    pub total: Duration,
}

/// Sums per-run wall time into one [`CellTiming`] per
/// `(config, bench, model)`, cells in first-appearance order. The map
/// makes each lookup constant-time, so aggregation is linear in the runs.
#[derive(Default)]
pub(crate) struct CellTimings {
    cells: Vec<CellTiming>,
    index: HashMap<(String, String, BugModel), usize>,
}

impl CellTimings {
    /// Adds one finished run (poisoned runs included).
    pub(crate) fn add(&mut self, rec: &RunRecord, elapsed: Duration) {
        let cells = &mut self.cells;
        // Runs arrive grouped by cell, so the newest cell usually matches
        // and the map lookup (whose owned key allocates) is skipped.
        let newest = cells.last().is_some_and(|c| {
            c.model == rec.model && c.bench == rec.bench && c.config == rec.config
        });
        let i = if newest {
            cells.len() - 1
        } else {
            *self
                .index
                .entry((rec.config.clone(), rec.bench.clone(), rec.model))
                .or_insert_with(|| {
                    cells.push(CellTiming {
                        config: rec.config.clone(),
                        bench: rec.bench.clone(),
                        model: rec.model,
                        runs: 0,
                        poisoned: 0,
                        total: Duration::ZERO,
                    });
                    cells.len() - 1
                })
        };
        let cell = &mut cells[i];
        cell.runs += 1;
        cell.poisoned += usize::from(rec.poisoned.is_some());
        cell.total += elapsed;
    }
}

/// All records of one campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    /// Every injected run's record, in deterministic
    /// workload-major/model/run order.
    pub records: Vec<RunRecord>,
    /// Per-cell wall-clock timing, in the same cell order. Timing is a
    /// measurement, not part of the deterministic record stream.
    pub timings: Vec<CellTiming>,
    /// End-to-end campaign wall-clock (goldens + scheduling + runs).
    pub wall: Duration,
    /// Snapshot-and-fork usage (a measurement, like `wall` — not part of
    /// the deterministic record stream).
    pub snapshot_stats: SnapshotStats,
}

impl CampaignResult {
    /// Records of one workload.
    pub fn of_bench<'a>(&'a self, bench: &'a str) -> impl Iterator<Item = &'a RunRecord> + 'a {
        self.records.iter().filter(move |r| r.bench == bench)
    }

    /// Records of one bug model.
    pub fn of_model(&self, model: BugModel) -> impl Iterator<Item = &'_ RunRecord> + '_ {
        self.records.iter().filter(move |r| r.model == model)
    }

    /// The distinct benchmark names, in first-seen order.
    pub fn benches(&self) -> Vec<&str> {
        let mut v: Vec<&str> = Vec::new();
        for r in &self.records {
            if !v.contains(&r.bench.as_str()) {
                v.push(&r.bench);
            }
        }
        v
    }

    /// The distinct sweep-point labels, in first-seen order.
    pub fn configs(&self) -> Vec<&str> {
        let mut v: Vec<&str> = Vec::new();
        for r in &self.records {
            if !v.contains(&r.config.as_str()) {
                v.push(&r.config);
            }
        }
        v
    }

    /// Records whose run panicked and was isolated by the scheduler.
    pub fn poisoned(&self) -> impl Iterator<Item = &'_ RunRecord> + '_ {
        self.records.iter().filter(|r| r.poisoned.is_some())
    }
}

/// One scheduled injection run: the dense global job index, the
/// `(point × workload)` golden-table cell it runs against, and the fully
/// sampled bug spec.
#[derive(Clone, Copy, Debug)]
struct Job {
    /// Dense global index across every shard (see module docs).
    job: usize,
    /// Index into the resolved sweep-point list.
    point: usize,
    /// Index into the `points × workloads` golden-run table.
    cell: usize,
    spec: BugSpec,
}

thread_local! {
    /// Set on campaign worker threads so the process-wide panic hook can
    /// suppress backtrace spam for isolated (caught) run panics only.
    pub(crate) static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

type PrevHook = Arc<Box<dyn Fn(&panic::PanicHookInfo<'_>) + Send + Sync + 'static>>;

struct SilencerState {
    depth: usize,
    prev: Option<PrevHook>,
}

static SILENCER: Mutex<SilencerState> = Mutex::new(SilencerState {
    depth: 0,
    prev: None,
});

/// RAII guard for the campaign panic hook: the first concurrent campaign
/// installs a hook that swallows panics from campaign workers (they are
/// caught and recorded as poisoned) and forwards everything else to the
/// previously installed hook; the last campaign restores forwarding.
struct PanicSilencer;

impl PanicSilencer {
    fn install() -> PanicSilencer {
        let mut st = SILENCER.lock().unwrap_or_else(|e| e.into_inner());
        if st.depth == 0 {
            st.prev = Some(Arc::new(panic::take_hook()));
            panic::set_hook(Box::new(|info| {
                if SUPPRESS_PANIC_OUTPUT.get() {
                    return;
                }
                let prev = SILENCER
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .prev
                    .clone();
                if let Some(prev) = prev {
                    prev(info);
                }
            }));
        }
        st.depth += 1;
        PanicSilencer
    }
}

impl Drop for PanicSilencer {
    fn drop(&mut self) {
        let mut st = SILENCER.lock().unwrap_or_else(|e| e.into_inner());
        st.depth -= 1;
        if st.depth == 0 {
            if let Some(prev) = st.prev.take() {
                // Keep forwarding through the Arc — the original boxed hook
                // cannot be moved back out if a panic is concurrently
                // reading it.
                panic::set_hook(Box::new(move |info| prev(info)));
            }
        }
    }
}

/// The checker set attached to every injected run — and to golden
/// captures, so snapshots carry exactly the checker state a
/// from-power-on injected run would have at the snapshot cycle.
fn injection_checkers(sim_cfg: &SimConfig) -> CheckerSet {
    let mut checkers = CheckerSet::new();
    checkers.push(Box::new(IdldChecker::new(&sim_cfg.rrs)));
    checkers.push(Box::new(BitVectorChecker::new(&sim_cfg.rrs)));
    checkers.push(Box::new(CounterChecker::new(&sim_cfg.rrs)));
    checkers
}

/// Snapshot-and-fork usage across one campaign.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SnapshotStats {
    /// Injected runs forked from a mid-trace snapshot.
    pub forked_runs: usize,
    /// Injected runs simulated from power-on (snapshots disabled, or no
    /// snapshot precedes the trigger).
    pub cold_runs: usize,
    /// Golden-prefix cycles skipped by forking, summed over runs — the
    /// work the snapshot cache saved.
    pub skipped_cycles: u64,
    /// Snapshots retained across all workloads.
    pub captured: usize,
}

/// Renders a caught panic payload as a short message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-worker engine cache: the simulator and hand-off emulator of the
/// golden cell the worker is currently streaming through. Every run
/// starts the simulator from a defined state — a cold run from
/// [`Simulator::reset`], a fork from a restore — so reuse is invisible
/// to the record stream. The cache drops the per-run construction cost
/// (a fresh 1 MiB memory image plus allocations; a reset restores only
/// the pages the previous run wrote) and lets the emulator advance
/// incrementally while a worker walks one cell's jobs in ascending
/// hand-off order.
struct WorkerCache<'p> {
    /// Golden-table cell the cached engines belong to.
    cell: Option<usize>,
    sim: Option<Simulator<'p>>,
    emu: Option<Emulator>,
}

impl<'p> WorkerCache<'p> {
    fn new() -> Self {
        WorkerCache {
            cell: None,
            sim: None,
            emu: None,
        }
    }

    /// Rebinds the cache to `cell`, dropping engines of any other cell.
    fn enter(&mut self, cell: usize) {
        if self.cell != Some(cell) {
            self.reset();
            self.cell = Some(cell);
        }
    }

    fn reset(&mut self) {
        self.cell = None;
        self.sim = None;
        self.emu = None;
    }
}

/// The campaign driver.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Parameters.
    pub cfg: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign with the given parameters.
    pub fn new(cfg: CampaignConfig) -> Self {
        Campaign { cfg }
    }

    /// Derives the per-run RNG deterministically from (seed, config,
    /// bench, model, run index).
    pub(crate) fn run_rng(&self, config: &str, bench: &str, model: BugModel, k: usize) -> SmallRng {
        let mut h = DefaultHasher::new();
        self.cfg.seed.hash(&mut h);
        config.hash(&mut h);
        bench.hash(&mut h);
        model.label().hash(&mut h);
        k.hash(&mut h);
        SmallRng::seed_from_u64(h.finish())
    }

    /// The shard that owns job `(config, bench, model, k)`. Computable
    /// without the golden census, so a shard knows its whole slice — and
    /// which goldens it needs — before simulating anything. The hash is
    /// `DefaultHasher` with its fixed default keys: deterministic across
    /// the identical processes a coordinator self-execs.
    pub(crate) fn shard_of(&self, config: &str, bench: &str, model: BugModel, k: usize) -> usize {
        let mut h = DefaultHasher::new();
        config.hash(&mut h);
        bench.hash(&mut h);
        model.label().hash(&mut h);
        k.hash(&mut h);
        (h.finish() % self.cfg.shards as u64) as usize
    }

    /// Runs one injection against a golden run (at the campaign's base
    /// `sim` configuration, as the implicit `default` sweep point).
    pub fn run_one(&self, golden: &GoldenRun, spec: BugSpec) -> RunRecord {
        let mut cache = WorkerCache::new();
        self.run_one_from(self.cfg.sim, DEFAULT_LABEL, 0, golden, spec, &mut cache)
            .0
    }

    /// Runs one injection, forking from the latest eligible golden
    /// snapshot when there is one. Returns the record plus the
    /// golden-prefix cycles skipped (`0` = simulated from power-on).
    ///
    /// Fork equivalence: up to the bug's activation an injected run is
    /// bit-identical to the golden run, so restoring golden state at
    /// cycle `C <= activation` and re-arming the hook with the census
    /// count at `C` reproduces the from-power-on run exactly — commits,
    /// cycles, outputs, stats and checker verdicts.
    fn run_one_from<'p>(
        &self,
        sim_cfg: SimConfig,
        config: &str,
        job: usize,
        golden: &'p GoldenRun,
        spec: BugSpec,
        cache: &mut WorkerCache<'p>,
    ) -> (RunRecord, u64) {
        let snap = golden.snapshot_for(&spec);
        // The worker's cached simulator (same program, same config) serves
        // every run of the cell: a fork restores over it, a cold run
        // resets it to power-on in place.
        let sim = cache
            .sim
            .get_or_insert_with(|| Simulator::new(&golden.workload.program, sim_cfg));
        let mut checkers;
        let mut hook;
        let skipped = match snap {
            Some(s) => {
                // The in-order emulator replays the architectural prefix
                // (incrementally — jobs stream through a cell in ascending
                // hand-off order) and the gate cross-checks it against the
                // snapshot's committed view before seeding anything.
                checkers = CheckerSet::new();
                let target = s.state.committed();
                let emu = cache
                    .emu
                    .get_or_insert_with(|| Emulator::new(&golden.workload.program));
                if emu.steps() > target {
                    *emu = Emulator::new(&golden.workload.program);
                }
                if let Err(stop) = emu.run_to_step(target) {
                    panic!(
                        "fast-forward emulator stopped at step {} of {target} \
                         ({}): {stop:?}",
                        emu.steps(),
                        golden.workload.name,
                    );
                }
                if let Err(d) = sim.restore_from_arch(&s.state, emu, &mut checkers) {
                    panic!(
                        "fast-forward bit-exactness gate: {d} ({} @ cycle {})",
                        golden.workload.name, s.cycle,
                    );
                }
                hook = SingleShotHook::resumed(spec, s.counts[spec.site.index()], s.cycle);
                s.cycle
            }
            None => {
                sim.reset();
                checkers = injection_checkers(&sim_cfg);
                hook = SingleShotHook::new(spec);
                0
            }
        };
        let mut seg = sim.begin_run(Some(&golden.trace), golden.timeout_budget());
        let stop = seg.run_to_end(sim, &mut hook, &mut checkers, None);
        let res = seg.finish(sim, stop, &mut checkers);

        let outcome = classify(&res, &golden.output);
        let activation_cycle = hook
            .activation_cycle()
            .expect("sampled activation must fire (identical prefix to golden)");
        let persists = outcome.is_masked() && !res.final_contents.is_exact_partition();
        let record = RunRecord {
            config: config.to_string(),
            job,
            bench: golden.workload.name.clone(),
            model: spec.model,
            spec,
            activation_cycle,
            outcome,
            manifestation_cycle: manifestation_cycle(&res, outcome),
            end_cycle: res.cycles,
            persists,
            detections: Detections {
                idld: checkers.detection_of("idld").map(|d| d.cycle),
                bv: checkers.detection_of("bv").map(|d| d.cycle),
                counter: checkers.detection_of("counter").map(|d| d.cycle),
            },
            stats: res.stats,
            poisoned: None,
        };
        (record, skipped)
    }

    /// Executes the job with global index `job` under panic isolation.
    /// Returns the record and the golden-prefix cycles the run skipped via
    /// snapshot forking.
    fn execute_job<'p>(
        &self,
        sim_cfg: SimConfig,
        config: &str,
        job: usize,
        golden: &'p GoldenRun,
        spec: BugSpec,
        cache: &mut WorkerCache<'p>,
    ) -> (RunRecord, u64) {
        let sabotage = self.cfg.sabotage_job == Some(job);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if sabotage {
                panic!("deliberately sabotaged run (test instrumentation)");
            }
            self.run_one_from(sim_cfg, config, job, golden, spec, cache)
        }));
        match outcome {
            Ok(rec) => rec,
            Err(payload) => {
                // A panicking run may have left the cached engines in a
                // torn state; drop them so the next job starts clean.
                cache.reset();
                (
                    RunRecord::poisoned(
                        config,
                        job,
                        &golden.workload.name,
                        spec,
                        panic_message(&*payload),
                    ),
                    0,
                )
            }
        }
    }

    /// Runs `work` on every index of `list` on `min(threads, list.len())`
    /// scoped workers, the one pool behind both campaign phases. Workers
    /// pull indices in list order through a shared atomic cursor, each
    /// with private state from `init` (built on its own thread), and the
    /// result for index `i` lands in slot `i` of the `slots`-long table
    /// returned. A slot stays `None` if its index is not listed. A panic
    /// in `work` propagates to the caller with its original payload.
    fn drain<S, T: Send>(
        &self,
        list: &[usize],
        slots: usize,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, usize) -> T + Sync,
    ) -> Vec<Option<T>> {
        let hw = if self.cfg.threads > 0 {
            self.cfg.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let next = AtomicUsize::new(0);
        let table: Mutex<Vec<Option<T>>> = Mutex::new((0..slots).map(|_| None).collect());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..hw.min(list.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        while let Some(&i) = list.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let result = work(&mut state, i);
                            table.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(result);
                        }
                    })
                })
                .collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    panic::resume_unwind(payload);
                }
            }
        });
        table.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs the full campaign over `workloads` (paper protocol: for every
    /// workload, `runs_per_cell` runs of each of the three bug models).
    ///
    /// See the module docs for the scheduler's determinism and panic-
    /// isolation guarantees.
    ///
    /// # Errors
    ///
    /// Returns the first [`GoldenRunError`] if any workload's golden run
    /// is unusable — the campaign for that suite would be meaningless.
    pub fn run(&self, workloads: &[Workload]) -> Result<CampaignResult, GoldenRunError> {
        self.run_with_progress(workloads, &NullProgress)
    }

    /// [`Campaign::run`] with a progress observer (see
    /// [`CampaignProgress`]).
    pub fn run_with_progress(
        &self,
        workloads: &[Workload],
        progress: &dyn CampaignProgress,
    ) -> Result<CampaignResult, GoldenRunError> {
        let t0 = Instant::now();
        let points: Vec<SweepPoint> = self.cfg.sweep.resolve(self.cfg.sim);
        let nw = workloads.len();
        let models = BugModel::ALL.len();

        // Pass 1 — shard membership is a pure hash of job coordinates, so
        // before simulating anything this shard knows exactly which
        // (point × workload) golden cells it owns jobs in.
        let mut needed = vec![false; points.len() * nw];
        for (pi, point) in points.iter().enumerate() {
            for (wi, w) in workloads.iter().enumerate() {
                needed[pi * nw + wi] = BugModel::ALL.into_iter().any(|model| {
                    (0..self.cfg.runs_per_cell).any(|k| {
                        self.cfg.shards == 1
                            || self.shard_of(&point.label, &w.name, model, k) == self.cfg.shard
                    })
                });
            }
        }

        // Golden runs: once per needed (point × workload) cell, on the
        // same bounded pool as the runs, all before any run starts, and
        // shared read-only with every worker afterwards. The capture also
        // materializes the bounded per-cell lean snapshot cache that
        // injected runs fork from.
        let sweeping = points.len() > 1 || points[0].label != DEFAULT_LABEL;
        let cells: Vec<usize> = (0..needed.len()).filter(|&ci| needed[ci]).collect();
        let captured = self.drain(
            &cells,
            needed.len(),
            || (),
            |(), ci| {
                GoldenRun::capture_with_snapshots(
                    &workloads[ci % nw],
                    points[ci / nw].sim,
                    self.cfg.snapshot_stride,
                    self.cfg.snapshot_max,
                )
            },
        );
        let mut goldens: Vec<Option<GoldenRun>> = Vec::with_capacity(captured.len());
        for (ci, g) in captured.into_iter().enumerate() {
            let g = g.transpose()?;
            if let Some(g) = &g {
                if sweeping {
                    let label = &points[ci / nw].label;
                    progress.on_golden(&format!("{label}/{}", g.workload.name), g.cycles);
                } else {
                    progress.on_golden(&g.workload.name, g.cycles);
                }
            }
            goldens.push(g);
        }

        // Pass 2 — the job list, sampled up front in deterministic
        // sequential order (point-major, then workload, model, run index).
        // Each job records its dense global index, which is shared by
        // every shard partition of the same campaign.
        let mut jobs = Vec::new();
        for (pi, point) in points.iter().enumerate() {
            let bits = point.sim.rrs.pdst_bits();
            for wi in 0..nw {
                let Some(golden) = goldens[pi * nw + wi].as_ref() else {
                    continue;
                };
                for (mi, model) in BugModel::ALL.into_iter().enumerate() {
                    for k in 0..self.cfg.runs_per_cell {
                        if self.cfg.shards > 1
                            && self.shard_of(&point.label, &golden.workload.name, model, k)
                                != self.cfg.shard
                        {
                            continue;
                        }
                        let mut rng = self.run_rng(&point.label, &golden.workload.name, model, k);
                        if let Some(spec) = BugSpec::sample(model, &golden.census, bits, &mut rng) {
                            jobs.push(Job {
                                job: ((pi * nw + wi) * models + mi) * self.cfg.runs_per_cell + k,
                                point: pi,
                                cell: pi * nw + wi,
                                spec,
                            });
                        }
                    }
                }
            }
        }

        let total = jobs.len();

        // Execution order: group jobs by golden cell and ascending trigger
        // bound so a worker streams through one cell's snapshot cache
        // front to back instead of ping-ponging across workloads. This is
        // a pure permutation of *execution* order — records are written
        // back by original job index, so the record stream is untouched.
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by_key(|&i| {
            let job = &jobs[i];
            let golden = goldens[job.cell]
                .as_ref()
                .expect("sampled jobs have goldens");
            let resume = golden.snapshot_for(&job.spec).map_or(0, |s| s.cycle);
            (job.cell, resume)
        });

        let state = ProgressState::new(total);
        let _silencer = PanicSilencer::install();
        // Per-job result slot: record, work time, golden-prefix cycles
        // skipped.
        let slots = self.drain(
            &order,
            total,
            || {
                SUPPRESS_PANIC_OUTPUT.set(true);
                WorkerCache::new()
            },
            |cache, i| {
                let job = jobs[i];
                let point = &points[job.point];
                let golden = goldens[job.cell]
                    .as_ref()
                    .expect("sampled jobs have goldens");
                cache.enter(job.cell);
                let started = Instant::now();
                let (rec, skipped) =
                    self.execute_job(point.sim, &point.label, job.job, golden, job.spec, cache);
                let elapsed = started.elapsed();
                state.complete(rec.outcome, rec.poisoned.is_some());
                progress.on_run(&state.snapshot());
                (rec, elapsed, skipped)
            },
        );

        // Write-back by original job index keeps the stream bit-identical
        // to a sequential run.
        let mut timings = CellTimings::default();
        let mut snapshot_stats = SnapshotStats {
            captured: goldens.iter().flatten().map(|g| g.snapshots.len()).sum(),
            ..SnapshotStats::default()
        };
        // `map` + `collect` moves the records within the slots' buffer
        // (std collects a `vec::IntoIter` chain in place) instead of
        // faulting in a second one: most of this loop's time at ~19k runs.
        let mut records: Vec<RunRecord> = slots
            .into_iter()
            .map(|slot| {
                let (rec, elapsed, skipped) = slot.expect("every job ran");
                if skipped > 0 {
                    snapshot_stats.forked_runs += 1;
                } else {
                    snapshot_stats.cold_runs += 1;
                }
                snapshot_stats.skipped_cycles += skipped;
                timings.add(&rec, elapsed);
                rec
            })
            .collect();

        // The SMT axis appends its section after the dense single-thread
        // job space, so with it off the stream above is byte-identical to
        // a campaign without the axis.
        if self.cfg.smt {
            let base_jobs = points.len() * nw * models * self.cfg.runs_per_cell;
            self.run_smt_section(base_jobs, &mut records, &mut timings, progress)?;
        }

        progress.on_finish(&state.snapshot());
        Ok(CampaignResult {
            records,
            timings: timings.cells,
            wall: t0.elapsed(),
            snapshot_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cfg() -> CampaignConfig {
        CampaignConfig {
            runs_per_cell: 4,
            seed: 42,
            ..Default::default()
        }
    }

    fn picks() -> Vec<Workload> {
        idld_workloads::suite()
            .into_iter()
            .filter(|w| w.name == "crc32" || w.name == "basicmath")
            .collect()
    }

    fn mini_campaign() -> CampaignResult {
        Campaign::new(mini_cfg())
            .run(&picks())
            .expect("golden runs are valid")
    }

    #[test]
    fn campaign_produces_expected_record_count() {
        let res = mini_campaign();
        assert_eq!(res.records.len(), 2 * 3 * 4);
        assert_eq!(res.benches(), vec!["crc32", "basicmath"]);
        assert_eq!(res.configs(), vec![DEFAULT_LABEL]);
        // The global job index is dense when every sample succeeds.
        for (i, r) in res.records.iter().enumerate() {
            assert_eq!(r.job, i, "dense global index");
        }
    }

    #[test]
    fn shards_partition_the_job_space_exactly() {
        // Union of all shards == the unsharded campaign, record for
        // record, with no job claimed twice — the invariant the process-
        // level coordinator's merge rests on.
        let full = mini_campaign();
        let shards = 3;
        let mut union: Vec<RunRecord> = Vec::new();
        for shard in 0..shards {
            let part = Campaign::new(CampaignConfig {
                shard,
                shards,
                ..mini_cfg()
            })
            .run(&picks())
            .expect("shard runs");
            assert!(
                part.records.len() < full.records.len(),
                "shard {shard} must run a strict subset"
            );
            union.extend(part.records);
        }
        union.sort_by_key(|r| r.job);
        assert_eq!(union.len(), full.records.len(), "no job lost or doubled");
        for (got, want) in union.iter().zip(&full.records) {
            assert_eq!(got.job, want.job);
            assert_eq!(got.spec, want.spec);
            assert_eq!(got.outcome, want.outcome);
            assert_eq!(got.detections, want.detections);
        }
    }

    #[test]
    fn sweep_campaign_runs_every_point() {
        let res = Campaign::new(CampaignConfig {
            sweep: SweepSpec::parse("w2c2r48,w4c4r96").expect("valid sweep"),
            runs_per_cell: 2,
            seed: 7,
            ..Default::default()
        })
        .run(&picks())
        .expect("sweep campaign runs");
        assert_eq!(res.configs(), vec!["w2c2r48", "w4c4r96"]);
        assert_eq!(
            res.records.len(),
            2 * 2 * 3 * 2,
            "points × benches × models × k"
        );
        assert_eq!(
            res.timings.len(),
            2 * 2 * 3,
            "one timing cell per config cell"
        );
        for r in &res.records {
            assert!(
                r.detections.idld.is_some(),
                "{}/{}: {} undetected",
                r.config,
                r.bench,
                r.spec
            );
        }
    }

    #[test]
    fn idld_detects_every_injected_bug() {
        // The paper's headline: 100% coverage, instantaneous.
        let res = mini_campaign();
        for r in &res.records {
            assert!(
                r.detections.idld.is_some(),
                "{}: {} not detected by IDLD",
                r.bench,
                r.spec
            );
        }
    }

    #[test]
    fn idld_latency_is_tiny() {
        let res = mini_campaign();
        for r in &res.records {
            let lat = r.idld_latency().expect("detected");
            // Instantaneous modulo a recovery window (bounded by a couple
            // of full walk lengths).
            assert!(lat < 600, "{}: latency {} for {}", r.bench, lat, r.spec);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = mini_campaign();
        let b = mini_campaign();
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.detections, y.detections);
        }
    }

    #[test]
    fn parallel_matches_single_thread_byte_for_byte() {
        let seq = Campaign::new(CampaignConfig {
            threads: 1,
            ..mini_cfg()
        })
        .run(&picks())
        .expect("sequential run");
        let par = Campaign::new(CampaignConfig {
            threads: 8,
            ..mini_cfg()
        })
        .run(&picks())
        .expect("parallel run");
        assert_eq!(
            crate::export::to_csv(&seq),
            crate::export::to_csv(&par),
            "CSV must be byte-identical between 1-thread and 8-thread runs"
        );
    }

    /// Records the cells `on_golden` reports, in call order.
    #[derive(Default)]
    struct GoldenLog(Mutex<Vec<String>>);

    impl CampaignProgress for GoldenLog {
        fn on_golden(&self, workload: &str, _cycles: u64) {
            self.0.lock().expect("log lock").push(workload.to_string());
        }
    }

    #[test]
    fn first_bad_golden_cell_fails_the_campaign_at_any_thread_count() {
        // Each bad cell is a three-instruction program with a wrong
        // expected output, so a pool of four finishes both bad captures
        // long before either good kernel. Whatever the finishing order,
        // the error must name the first bad cell, and `on_golden` fire
        // only for the cells before it.
        let bad = |name: &str| {
            let mut a = idld_isa::Asm::new();
            a.li(idld_isa::reg::r(3), 41);
            a.out(idld_isa::reg::r(3));
            a.halt();
            Workload::from_program(name, a.finish(), vec![42])
        };
        let [crc32, basicmath] = <[Workload; 2]>::try_from(picks()).expect("two picks");
        let workloads = [crc32, bad("bad_a"), basicmath, bad("bad_b")];
        for threads in [1, 4] {
            let log = GoldenLog::default();
            let err = Campaign::new(CampaignConfig {
                threads,
                ..mini_cfg()
            })
            .run_with_progress(&workloads, &log)
            .expect_err("a bad golden fails the campaign");
            assert_eq!(
                err,
                GoldenRunError::OutputMismatch {
                    workload: "bad_a".to_string()
                },
                "{threads} threads"
            );
            assert_eq!(
                log.0.into_inner().expect("log lock"),
                vec!["crc32"],
                "{threads} threads"
            );
        }
    }

    #[test]
    fn pool_workers_capturing_many_goldens_change_no_output_byte() {
        // 30 golden cells (three sweep points × ten kernels) against at
        // most seven workers: every worker captures several cells.
        let cfg = CampaignConfig {
            sweep: SweepSpec::parse("grid").expect("preset"),
            runs_per_cell: 1,
            seed: 11,
            ..Default::default()
        };
        let suite = idld_workloads::suite();
        assert_eq!(suite.len(), 10);
        let outputs: Vec<_> = [1, 2, 7]
            .into_iter()
            .map(|threads| {
                let res = Campaign::new(CampaignConfig {
                    threads,
                    ..cfg.clone()
                })
                .run(&suite)
                .expect("kernels capture");
                let m = crate::metrics::CampaignMetrics::build(&res);
                (
                    crate::export::to_csv(&res),
                    crate::metrics::metrics_csv(&m),
                    crate::metrics::metrics_json(&m),
                    res.snapshot_stats,
                )
            })
            .collect();
        assert_eq!(
            outputs[0].0.lines().count(),
            1 + 3 * 10 * 3,
            "header + runs"
        );
        assert!(outputs[0].3.captured > 0);
        for (threads, out) in [2, 7].into_iter().zip(&outputs[1..]) {
            assert!(*out == outputs[0], "{threads} threads differ from 1");
        }
    }

    #[test]
    fn default_and_cold_campaigns_are_byte_identical() {
        // The fork guarantee: snapshots without memory, emulator-rebuilt memory and
        // the arch gate at every hand-off change only wall-clock, never a
        // byte of the record stream — at any worker count. The cold
        // oracle (`snapshot_max: 0`) simulates every run from power-on.
        let cold = Campaign::new(CampaignConfig {
            snapshot_max: 0,
            threads: 1,
            ..mini_cfg()
        })
        .run(&picks())
        .expect("cold run");
        assert_eq!(cold.snapshot_stats.forked_runs, 0);
        assert_eq!(cold.snapshot_stats.captured, 0);
        for threads in [1, 8] {
            let forked = Campaign::new(CampaignConfig {
                threads,
                ..mini_cfg()
            })
            .run(&picks())
            .expect("default run");
            assert_eq!(
                crate::export::to_csv(&cold),
                crate::export::to_csv(&forked),
                "default CSV must be byte-identical to cold CSV ({threads} threads)"
            );
            assert_eq!(forked.poisoned().count(), 0, "no gate failures");
            assert!(
                forked.snapshot_stats.forked_runs > 0,
                "snapshots must actually be used ({threads} threads): {:?}",
                forked.snapshot_stats
            );
            assert!(forked.snapshot_stats.captured > 0);
            assert!(forked.snapshot_stats.skipped_cycles > 0);
        }
    }

    #[test]
    fn stall_fast_forward_is_bit_exact() {
        // Record-level: skipping provably dead cycles must not change a
        // byte of the exported record stream.
        let mut ticked_cfg = mini_cfg();
        ticked_cfg.threads = 1;
        ticked_cfg.sim.stall_fast_forward = false;
        let ticked = Campaign::new(ticked_cfg).run(&picks()).expect("ticked");
        let fast = Campaign::new(CampaignConfig {
            threads: 1,
            ..mini_cfg()
        })
        .run(&picks())
        .expect("fast");
        assert_eq!(crate::export::to_csv(&ticked), crate::export::to_csv(&fast));
        let hung = fast
            .records
            .iter()
            .find(|r| r.outcome == OutcomeClass::Timeout)
            .expect("mini campaign must exercise a hung run");

        // Run-level, on a genuinely hung injection: identical stop,
        // cycle count, output, *statistics*, and final machine state.
        let w = idld_workloads::by_name(&hung.bench).expect("workload");
        let mut results = Vec::new();
        for ff in [false, true] {
            let mut sim_cfg = mini_cfg().sim;
            sim_cfg.stall_fast_forward = ff;
            let golden = GoldenRun::capture(&w, sim_cfg).expect("golden");
            let mut sim = Simulator::new(&w.program, sim_cfg);
            let mut hook = SingleShotHook::new(hung.spec);
            let mut checkers = injection_checkers(&sim_cfg);
            let mut seg = sim.begin_run(Some(&golden.trace), golden.timeout_budget());
            let stop = seg.run_to_end(&mut sim, &mut hook, &mut checkers, None);
            let fin = sim.snapshot(&checkers);
            let mem = sim.mem().clone();
            results.push((seg.finish(&mut sim, stop, &mut checkers), fin, mem));
        }
        let (slow_res, slow_fin, slow_mem) = &results[0];
        let (fast_res, fast_fin, fast_mem) = &results[1];
        assert_eq!(fast_res.stop, slow_res.stop);
        assert_eq!(fast_res.cycles, slow_res.cycles);
        assert_eq!(fast_res.output, slow_res.output);
        assert_eq!(fast_res.stats, slow_res.stats);
        assert!(fast_fin.state_eq(slow_fin), "final machine state diverged");
        assert_eq!(fast_mem, slow_mem, "final memory diverged");
    }

    #[test]
    fn snapshot_cache_stays_bounded() {
        let w = idld_workloads::by_name("crc32").expect("exists");
        let max = 6;
        let g = GoldenRun::capture_with_snapshots(&w, SimConfig::default(), 128, max)
            .expect("golden halts");
        assert!(!g.snapshots.is_empty());
        assert!(
            g.snapshots.len() <= max,
            "stride doubling must bound the cache: {} > {max}",
            g.snapshots.len()
        );
        // Snapshots stay in cycle order with monotone census counts.
        for pair in g.snapshots.windows(2) {
            assert!(pair[0].cycle < pair[1].cycle);
            for s in 0..idld_rrs::OpSite::COUNT {
                assert!(pair[0].counts[s] <= pair[1].counts[s]);
            }
        }
    }

    #[test]
    fn snapshot_selection_respects_the_occurrence_bound() {
        let w = idld_workloads::by_name("crc32").expect("exists");
        let g = GoldenRun::capture_with_snapshots(&w, SimConfig::default(), 0, 16)
            .expect("golden halts");
        let site = idld_rrs::OpSite::FlPop;
        let total = g.census.count(site);
        assert!(total > 0);
        let spec = |occurrence| BugSpec {
            site,
            occurrence,
            corruption: idld_rrs::Corruption::NONE,
            model: BugModel::Duplication,
        };
        // Occurrence 0 must resume from power-on or a snapshot that has
        // seen nothing.
        if let Some(s) = g.snapshot_for(&spec(0)) {
            assert_eq!(s.counts[site.index()], 0);
        }
        // The last occurrence resumes from the deepest usable snapshot.
        let deep = g
            .snapshot_for(&spec(total - 1))
            .expect("late occurrence has a usable snapshot");
        assert!(deep.counts[site.index()] < total);
        let is_last_usable = g
            .snapshots
            .iter()
            .all(|s| s.counts[site.index()] > total - 1 || s.cycle <= deep.cycle);
        assert!(is_last_usable, "must pick the LAST usable snapshot");
    }

    #[test]
    fn sabotaged_run_is_poisoned_not_fatal() {
        let baseline = Campaign::new(CampaignConfig {
            threads: 2,
            ..mini_cfg()
        })
        .run(&picks())
        .expect("baseline");
        let sab = 5;
        let res = Campaign::new(CampaignConfig {
            threads: 2,
            sabotage_job: Some(sab),
            ..mini_cfg()
        })
        .run(&picks())
        .expect("campaign must survive a panicking run");

        assert_eq!(res.records.len(), baseline.records.len());
        assert_eq!(res.poisoned().count(), 1, "exactly one poisoned record");
        let poisoned = res
            .records
            .iter()
            .find(|r| r.job == sab)
            .expect("sabotaged job present");
        assert_eq!(poisoned.outcome, OutcomeClass::Anomalous);
        assert!(
            poisoned.poisoned.as_deref().unwrap().contains("sabotaged"),
            "panic message preserved: {:?}",
            poisoned.poisoned
        );
        for (i, (got, want)) in res.records.iter().zip(&baseline.records).enumerate() {
            if got.job == sab {
                continue;
            }
            assert_eq!(got.spec, want.spec, "record {i}");
            assert_eq!(got.outcome, want.outcome, "record {i}");
            assert_eq!(got.detections, want.detections, "record {i}");
        }
    }

    #[test]
    fn timings_cover_all_cells() {
        let res = mini_campaign();
        assert_eq!(res.timings.len(), 2 * 3, "2 workloads × 3 models");
        assert_eq!(
            res.timings.iter().map(|c| c.runs).sum::<usize>(),
            res.records.len()
        );
        assert!(res.wall > Duration::ZERO);

        // Runs interleaved across cells (each one misses the newest-cell
        // check) land in the same cells, in first-appearance order.
        let mut interleaved: Vec<&RunRecord> = res.records.iter().collect();
        interleaved.sort_by_key(|r| r.job % mini_cfg().runs_per_cell);
        let mut timings = CellTimings::default();
        for r in interleaved {
            timings.add(r, Duration::from_micros(1));
        }
        let key = |c: &CellTiming| (c.config.clone(), c.bench.clone(), c.model, c.runs);
        assert_eq!(
            timings.cells.iter().map(key).collect::<Vec<_>>(),
            res.timings.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_env_rejects_malformed_values() {
        // Env mutation: run the three scenarios in one test to avoid
        // parallel-test interference on the shared process environment.
        let run = |k: &str, v: &str| {
            std::env::set_var(k, v);
            let r = CampaignConfig::try_from_env();
            std::env::remove_var(k);
            r
        };
        assert!(
            run(RUNS_PER_CELL_ENV, "1OOO").is_err(),
            "typo'd digits must not default"
        );
        assert!(
            run(SEED_ENV, "0x1d1d").is_err(),
            "hex is not accepted by u64 parse"
        );
        assert!(run(THREADS_ENV, "many").is_err());
        let ok = run(RUNS_PER_CELL_ENV, " 1000 ").expect("trimmed digits parse");
        assert_eq!(ok.runs_per_cell, 1000);
        assert_eq!(
            run(SNAPSHOT_MAX_ENV, " 0 ")
                .expect("the cold oracle parses")
                .snapshot_max,
            0
        );
        assert_eq!(
            run(SNAPSHOT_STRIDE_ENV, "4096")
                .expect("stride parses")
                .snapshot_stride,
            4096
        );
        assert!(run(SNAPSHOT_MAX_ENV, "-3").is_err());
        for (name, instead) in RETIRED_ENV {
            let err = run(name, "1").expect_err("a retired variable must not be ignored");
            assert!(err.contains(name) && err.contains(instead), "{err}");
        }
        let err = run("IDLD_SHARDS", "4").expect_err("no silent unsharded run");
        assert!(err.contains("--shards N"), "{err}");
        let err = run("IDLD_SNAPSHOT", "0").expect_err("no silent forked run");
        assert!(err.contains("IDLD_SNAPSHOT_MAX=0"), "{err}");
        assert!(
            run(SMT_ENV, "true").is_err(),
            "the SMT axis flag accepts only 0/1"
        );
        assert!(run(SMT_ENV, "2").is_err());
        assert!(run(SMT_ENV, " 1 ").expect("1 parses").smt);
        assert!(!run(SMT_ENV, "0").expect("0 parses").smt);
        assert!(
            run(SWEEP_ENV, "w4c4").is_err(),
            "malformed sweep points must not run a partial sweep"
        );
        assert!(run(SWEEP_ENV, "").is_err(), "an empty sweep is a typo");
        let swept = run(SWEEP_ENV, "grid").expect("preset parses");
        assert_eq!(swept.sweep.points.len(), 3);

        // A distributed worker reads only the local knobs: the job fixes
        // the rest, so a malformed seed on its host must not fail it.
        let local = |k: &str, v: &str| {
            std::env::set_var(k, v);
            let r = CampaignConfig::default().with_local_env();
            std::env::remove_var(k);
            r
        };
        assert!(local(SEED_ENV, "0x1d1d").is_ok());
        assert!(local(SWEEP_ENV, "w4c4").is_ok());
        assert!(local(THREADS_ENV, "many").is_err());
        assert_eq!(local(SNAPSHOT_MAX_ENV, "0").expect("cold").snapshot_max, 0);
        assert!(local("IDLD_SHARDS", "4").is_err());
    }

    #[test]
    fn golden_capture_sanity() {
        let w = idld_workloads::by_name("bitcount").expect("exists");
        let g = GoldenRun::capture(&w, SimConfig::default()).expect("golden run halts");
        assert!(g.cycles > 1000);
        assert_eq!(g.output, w.expected_output);
        assert!(g.census.count(idld_rrs::OpSite::FlPop) > 100);
        assert_eq!(g.timeout_budget(), g.cycles * 5 / 2);
    }

    /// Golden traces live for a whole campaign: the delta encoding must
    /// keep the suite's at about 2 bytes per commit, slack included.
    #[test]
    fn golden_traces_cost_about_two_bytes_per_commit() {
        let (mut bytes, mut commits) = (0, 0);
        for w in idld_workloads::suite() {
            let g = GoldenRun::capture(&w, SimConfig::default()).expect("golden run halts");
            bytes += g.trace.heap_bytes();
            commits += g.trace.len();
        }
        let per_commit = bytes as f64 / commits as f64;
        assert!(
            per_commit <= 2.1,
            "{per_commit:.3} B per commit over {commits} commits"
        );
    }

    #[test]
    fn outcomes_are_diverse() {
        // Across 24 injections at least masked and non-masked outcomes
        // should both appear (the paper's whole point).
        let res = mini_campaign();
        let masked = res.records.iter().filter(|r| r.outcome.is_masked()).count();
        assert!(masked > 0, "some bugs should be masked");
        assert!(masked < res.records.len(), "some bugs should be visible");
    }
}
