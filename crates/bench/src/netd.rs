//! `netd` — the campaign side of the distributed fault-injection
//! service, the one way a campaign is split across processes.
//!
//! `idld-net` is transport-only; this module supplies the campaign
//! knowledge `campaignd` needs in each of its roles (`--shards N` on
//! loopback, `--listen` across hosts, `--connect` as a worker):
//!
//! - building the coordinator's [`JobSpec`] template from the inherited
//!   environment, so every assignment carries the *complete* campaign
//!   description and remote workers never depend on matching env;
//! - executing one assignment ([`run_campaign_job`]): spec → suite →
//!   `Campaign::run` → encoded `idld-shard v5` artifact, with progress
//!   streamed back over the wire (throttled to one frame per interval);
//! - merging the persisted `.part` files into outputs byte-identical to
//!   a single-process run ([`merge_parts`]);
//! - spawning loopback worker processes for single-host scale-out, which
//!   never outlive the coordinator call that spawned them.
//!
//! Test instrumentation: a worker started with `IDLD_NETD_STALL=1`
//! prints `netd worker: stalling on shard <i>` for its first assignment
//! and then hangs forever — the hook the kill-and-retry tests (and the CI
//! smoke) use to lose a worker at a deterministic point.

use idld_campaign::ledger::{part_path, ShardLedger};
use idld_campaign::{
    campaign, decode_shard, encode_shard, export, merge_shards, Campaign, CampaignConfig,
    CampaignProgress, MergedCampaign, ProgressSnapshot, StderrProgress, SweepSpec,
};
use idld_net::{JobSpec, ProgressFn, ServeOpts, ServeOutcome, WorkerOpts, WorkerSummary};
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable: test instrumentation — a worker with this set
/// to `1` hangs forever on its first assignment (after announcing it on
/// stderr), so tests can SIGKILL it at a deterministic point.
pub const STALL_ENV: &str = "IDLD_NETD_STALL";

/// The [`JobSpec`] template a coordinator dispatches, resolved from the
/// same environment knobs an in-process campaign reads — plus the
/// `shards` split. `runs_per_cell` falls back to the bench default (12)
/// when unset.
///
/// # Errors
///
/// Any set-but-malformed variable, by name.
pub fn job_template_from_env(shards: usize) -> Result<JobSpec, String> {
    let cfg = CampaignConfig::try_from_env()?;
    let runs_per_cell = match std::env::var(campaign::RUNS_PER_CELL_ENV) {
        Ok(_) => cfg.runs_per_cell, // validated by try_from_env
        Err(_) => 12,
    };
    let spec = JobSpec {
        shard: 0,
        shards,
        runs_per_cell,
        seed: cfg.seed,
        // try_from_env validated the sweep; the spec carries it raw.
        sweep: std::env::var(campaign::SWEEP_ENV).unwrap_or_default(),
        workloads: std::env::var(crate::WORKLOADS_ENV).unwrap_or_default(),
        scale: crate::try_workload_scale()?,
        smt: cfg.smt,
    };
    spec.validate_as_template()?;
    // Fail on unknown workload names coordinator-side, before dispatch.
    suite_for(&spec)?;
    Ok(spec)
}

/// The workload suite `spec` describes: the scaled full suite, filtered
/// by `spec.workloads` if nonempty.
///
/// # Errors
///
/// Unknown workload names.
pub fn suite_for(spec: &JobSpec) -> Result<Vec<idld_workloads::Workload>, String> {
    let suite = idld_workloads::suite_scaled(spec.scale);
    if spec.workloads.is_empty() {
        return Ok(suite);
    }
    let names: Vec<&str> = spec.workloads.split(',').map(str::trim).collect();
    for n in &names {
        if !suite.iter().any(|w| w.name == *n) {
            return Err(format!("job names unknown workload {n:?}"));
        }
    }
    Ok(suite
        .into_iter()
        .filter(|w| names.contains(&w.name.as_str()))
        .collect())
}

/// The [`CampaignConfig`] `spec` describes. Deterministic fields come
/// from the spec alone; the host-local performance knobs (scheduler
/// threads, snapshot stride and cap), which cannot change the record
/// stream, come from this host's environment
/// ([`CampaignConfig::with_local_env`]) — nothing else of it is read.
///
/// # Errors
///
/// A malformed sweep in the spec, or a malformed local knob.
pub fn config_for(spec: &JobSpec) -> Result<CampaignConfig, String> {
    let mut cfg = CampaignConfig {
        runs_per_cell: spec.runs_per_cell,
        seed: spec.seed,
        shard: spec.shard,
        shards: spec.shards,
        smt: spec.smt,
        ..CampaignConfig::default()
    }
    .with_local_env()?;
    if !spec.sweep.is_empty() {
        cfg.sweep = SweepSpec::parse(&spec.sweep)
            .map_err(|e| format!("job sweep {:?} is invalid: {e}", spec.sweep))?;
    }
    Ok(cfg)
}

/// Campaign progress adapter: the usual throttled stderr reporting plus
/// one PROGRESS frame per interval to the coordinator.
struct WireProgress<'a> {
    stderr: StderrProgress,
    send: ProgressFn<'a>,
    last: Mutex<Option<Instant>>,
    period: Duration,
}

impl CampaignProgress for WireProgress<'_> {
    fn on_golden(&self, workload: &str, cycles: u64) {
        self.stderr.on_golden(workload, cycles);
    }

    fn on_run(&self, s: &ProgressSnapshot) {
        self.stderr.on_run(s);
        let mut last = self.last.lock().unwrap_or_else(|e| e.into_inner());
        let due = last.is_none_or(|t| t.elapsed() >= self.period) || s.completed == s.total;
        if due {
            *last = Some(Instant::now());
            (self.send)(s.completed, s.total);
        }
    }

    fn on_finish(&self, s: &ProgressSnapshot) {
        self.stderr.on_finish(s);
        (self.send)(s.completed, s.total);
    }
}

/// Executes one JOB assignment: runs the shard `spec` describes and
/// returns the encoded artifact. Honors [`STALL_ENV`] (test
/// instrumentation, see the module docs).
pub fn run_campaign_job(spec: &JobSpec, progress: ProgressFn<'_>) -> Result<String, String> {
    match std::env::var(STALL_ENV) {
        Err(_) => {}
        Ok(v) if v.trim() == "1" => {
            eprintln!("netd worker: stalling on shard {}", spec.shard);
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Ok(v) if v.trim() == "0" => {}
        Ok(v) => return Err(format!("{STALL_ENV}={v:?} is invalid: expected 0 or 1")),
    }
    let suite = suite_for(spec)?;
    let cfg = config_for(spec)?;
    let reporter = WireProgress {
        stderr: StderrProgress::new(),
        send: progress,
        last: Mutex::new(None),
        period: Duration::from_millis(500),
    };
    let res = Campaign::new(cfg)
        .run_with_progress(&suite, &reporter)
        .map_err(|e| format!("shard {} campaign invalid: {e}", spec.shard))?;
    Ok(encode_shard(&res, spec.shard, spec.shards))
}

/// Runs the full worker protocol against `addr` with the campaign
/// runner, using the env-configured heartbeat and retry budget.
pub fn connect_worker(addr: &str) -> Result<WorkerSummary, String> {
    let opts = WorkerOpts {
        heartbeat_ms: idld_net::env::try_heartbeat_ms()?,
        retry_max: idld_net::env::try_retry_max()?,
    };
    idld_net::run_worker(addr, &opts, run_campaign_job)
}

/// Decodes `shard-<i>.part` for every shard under `dir` and merges them
/// — byte-identical to a single-process run (the merge invariants live
/// in `idld_campaign::shard`).
///
/// # Errors
///
/// A missing or malformed part, or an inconsistent artifact set.
pub fn merge_parts(dir: &Path, shards: usize) -> Result<MergedCampaign, String> {
    let mut parts = Vec::with_capacity(shards);
    for shard in 0..shards {
        let path = part_path(dir, shard);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parts.push(decode_shard(&text).map_err(|e| format!("shard {shard}: {e}"))?);
    }
    merge_shards(&parts)
}

/// What [`serve_campaign`] returns: the merged campaign, the service
/// outcome (resume count + coordinator metrics), and the coordinator-side
/// wall-clock in seconds.
pub type Served = (MergedCampaign, ServeOutcome, f64);

/// Binds `addr`, serves the campaign's `shards` to TCP workers until
/// every artifact is persisted under `dir`, then merges. The job
/// template comes from this process's environment
/// ([`job_template_from_env`]); `workers` > 0 additionally spawns up to
/// that many loopback worker processes (`exe --connect` children), never
/// more than there are shards left to run, which are killed and reaped
/// on every return path. With `resume`, shards whose `.part` already
/// decodes cleanly are not re-dispatched. The reported
/// wall-clock runs from just before the workers spawn to the last
/// persisted artifact.
pub fn serve_campaign(
    addr: &str,
    shards: usize,
    dir: &Path,
    resume: bool,
    workers: usize,
    exe: &Path,
    verbose: bool,
) -> Result<Served, String> {
    // Everything that can fail before dispatch fails here, before a
    // single worker exists.
    let base = job_template_from_env(shards)?;
    let heartbeat_ms = idld_net::env::try_heartbeat_ms()?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    if verbose {
        eprintln!(
            "netd: coordinator on {local}, {shards} shard(s) -> {}",
            dir.display()
        );
    }
    // Start no more loopback workers than there are shards left to run,
    // so on a resume each one gets a larger share of the host's cores.
    let missing = if resume {
        shards - ShardLedger::new(shards).resume_from_dir(dir)
    } else {
        shards
    };
    let t0 = Instant::now();
    let _workers = spawn_loopback_workers(exe, &local.to_string(), workers.min(missing))
        .map_err(|e| format!("cannot spawn loopback workers: {e}"))?;
    let outcome = idld_net::serve(
        listener,
        ServeOpts {
            base,
            dir: dir.to_path_buf(),
            heartbeat_ms,
            resume,
            verbose,
        },
    )?;
    let wall = t0.elapsed().as_secs_f64();
    let merged = merge_parts(dir, shards)?;
    Ok((merged, outcome, wall))
}

/// Writes the four merged campaign artifacts into `dir` (honoring
/// `IDLD_TIMINGS_WALL` for the timings export).
pub fn write_merged_outputs(merged: &MergedCampaign, dir: &Path) -> Result<(), String> {
    let wall = export::timings_wall_from_env()?;
    for (name, body) in [
        ("records.csv", merged.records_csv()),
        ("metrics.csv", merged.metrics_csv()),
        ("metrics.json", merged.metrics_json()),
        ("timings.csv", merged.timings_csv(wall)),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Loopback worker processes that are killed and reaped when dropped.
/// By the time a coordinator returns, every artifact is persisted (or
/// the run failed), so a worker still alive then has nothing left to
/// do: it is in its reconnect backoff, or retrying against a
/// coordinator that is gone.
struct LoopbackWorkers(Vec<Child>);

impl Drop for LoopbackWorkers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns `n` loopback worker processes (`exe --connect addr`), each
/// pinned to an equal share of the host's cores unless the environment
/// already pins threads, so a loopback campaign never oversubscribes the
/// host. Stdout is discarded; stderr is inherited (workers already
/// prefix their progress). A spawn failure reaps the workers already
/// started.
fn spawn_loopback_workers(exe: &Path, addr: &str, n: usize) -> std::io::Result<LoopbackWorkers> {
    let threads_set = std::env::var(campaign::THREADS_ENV).is_ok();
    let per_worker = crate::host_cores().div_ceil(n.max(1)).max(1);
    let mut workers = LoopbackWorkers(Vec::with_capacity(n));
    for _ in 0..n {
        let mut cmd = Command::new(exe);
        cmd.arg("--connect")
            .arg(addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if !threads_set {
            cmd.env(campaign::THREADS_ENV, per_worker.to_string());
        }
        workers.0.push(cmd.spawn()?);
    }
    Ok(workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            shard: 1,
            shards: 2,
            runs_per_cell: 3,
            seed: 77,
            sweep: String::new(),
            workloads: "crc32".to_string(),
            scale: 1,
            smt: false,
        }
    }

    #[test]
    fn suite_and_config_follow_the_spec() {
        let suite = suite_for(&spec()).expect("suite");
        assert_eq!(suite.len(), 1);
        assert_eq!(suite[0].name, "crc32");
        let cfg = config_for(&spec()).expect("config");
        assert_eq!(cfg.runs_per_cell, 3);
        assert_eq!(cfg.seed, 77);
        assert_eq!((cfg.shard, cfg.shards), (1, 2));

        let mut unknown = spec();
        unknown.workloads = "crc32,nope".to_string();
        assert!(suite_for(&unknown).is_err());

        let mut sweep = spec();
        sweep.sweep = "grid".to_string();
        assert_eq!(config_for(&sweep).expect("grid").sweep.points.len(), 3);
        sweep.sweep = "w0c0r0".to_string();
        assert!(config_for(&sweep).is_err(), "malformed sweep fails loudly");
    }

    #[test]
    fn campaign_jobs_produce_decodable_artifacts() {
        let body = run_campaign_job(&spec(), &|_, _| {}).expect("job runs");
        let art = decode_shard(&body).expect("artifact decodes");
        assert_eq!((art.shard, art.shards), (1, 2));
    }
}
