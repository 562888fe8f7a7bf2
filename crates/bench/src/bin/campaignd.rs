//! `campaignd` — multi-process sharded campaign driver.
//!
//! The coordinator hash-partitions the campaign's job space (workload ×
//! bug spec × sweep point) into `N` shards, re-executes itself `N` times
//! with `IDLD_SHARD=i`/`IDLD_SHARDS=N` (`--worker` mode), streams each
//! worker's progress to stderr under a `[shard i]` prefix, then decodes
//! and merges the per-shard artifacts into `records.csv`, `metrics.csv`,
//! `metrics.json`, and `timings.csv` — byte-identical to a
//! single-process run at any shard count (the merge invariants live in
//! `idld_campaign::shard`).
//!
//! ```sh
//! campaignd [--out DIR] [--shards N]   # one sharded campaign, merged
//! campaignd --scaling [1,2,4,8]        # shard-count series + byte check
//! campaignd --bench                    # regenerate BENCH_campaign.json
//! campaignd --listen HOST:PORT         # TCP coordinator (idld-net)
//! campaignd --connect HOST:PORT        # TCP worker (idld-net)
//! ```
//!
//! `--listen` serves the campaign's shards to TCP workers (`--workers N`
//! additionally spawns N loopback worker processes), persists every
//! accepted artifact to `DIR/shard-<i>.part`, survives worker loss by
//! reassignment, and writes the merged outputs plus a
//! `service_metrics.csv` when every shard is in. `--resume` (either
//! mode of the coordinator, local or TCP) re-dispatches only shards
//! whose `.part` is missing or does not decode cleanly — a killed
//! coordinator picks up where the artifacts say it left off.
//!
//! Environment: all the usual campaign knobs (`IDLD_RUNS_PER_CELL`,
//! `IDLD_SEED`, `IDLD_SWEEP`, `IDLD_SNAPSHOT_MAX`, …) plus:
//!
//! - `IDLD_WORKLOADS` — comma-separated workload filter (default: full
//!   suite), applied identically by every worker.
//! - `IDLD_WORKLOAD_SCALE` — suite scale factor (default 1).
//! - `IDLD_CAMPAIGN_THREADS` — per-worker scheduler threads. When unset
//!   the coordinator pins each worker to `max(1, cores / shards)` so a
//!   sharded run never oversubscribes the host.
//! - `IDLD_TIMINGS_WALL=0` — zero the wall-clock column of the written
//!   `timings.csv` (CI byte-comparisons across shard counts).
//! - `IDLD_LISTEN` / `IDLD_CONNECT` — `host:port` fallbacks for the
//!   `--listen` / `--connect` flags.
//! - `IDLD_HEARTBEAT_MS` / `IDLD_RETRY_MAX` — service heartbeat interval
//!   and worker (re)connect budget (strict parses; see `idld_net::env`).

use idld_bench::{netd, BenchEntry, ScalingPoint, SHARD_DIR_ENV, WORKLOADS_ENV};
use idld_campaign::{
    campaign, encode_shard, export, Campaign, CampaignConfig, MergedCampaign, ShardLedger,
    StderrProgress,
};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

fn fail(msg: &str) -> ! {
    eprintln!("campaignd: {msg}");
    std::process::exit(2);
}

/// The workload suite this campaign runs: the scaled full suite, filtered
/// by [`WORKLOADS_ENV`] if set. Workers recompute this from the inherited
/// environment, so coordinator and workers always agree.
fn selected_suite() -> Vec<idld_workloads::Workload> {
    let suite =
        idld_workloads::suite_scaled(idld_bench::try_workload_scale().unwrap_or_else(|e| fail(&e)));
    let Ok(filter) = std::env::var(WORKLOADS_ENV) else {
        return suite;
    };
    let names: Vec<&str> = filter.split(',').map(str::trim).collect();
    for n in &names {
        if !suite.iter().any(|w| w.name == *n) {
            fail(&format!("{WORKLOADS_ENV} names unknown workload {n:?}"));
        }
    }
    suite
        .into_iter()
        .filter(|w| names.contains(&w.name.as_str()))
        .collect()
}

/// The effective runs-per-cell: the env override, or the bench default
/// (12). The coordinator resolves this once and passes it to workers
/// explicitly so the default lives in exactly one process.
fn runs_per_cell() -> usize {
    match std::env::var(campaign::RUNS_PER_CELL_ENV) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| fail(&format!("{} must be a count", campaign::RUNS_PER_CELL_ENV))),
        Err(_) => 12,
    }
}

/// `--worker`: run this process's shard of the campaign and write the
/// encoded artifact to `IDLD_SHARD_DIR/shard-<i>.part`.
fn run_worker() -> ! {
    let cfg = CampaignConfig::try_from_env().unwrap_or_else(|e| fail(&e));
    let (shard, shards) = (cfg.shard, cfg.shards);
    let dir = std::env::var(SHARD_DIR_ENV)
        .unwrap_or_else(|_| fail(&format!("--worker requires {SHARD_DIR_ENV}")));
    let suite = selected_suite();
    let res = Campaign::new(cfg)
        .run_with_progress(&suite, &StderrProgress::new())
        .unwrap_or_else(|e| fail(&format!("shard {shard} campaign invalid: {e}")));
    let path = Path::new(&dir).join(format!("shard-{shard}.part"));
    std::fs::write(&path, encode_shard(&res, shard, shards))
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    eprintln!(
        "shard {shard}/{shards}: {} records -> {}",
        res.records.len(),
        path.display()
    );
    std::process::exit(0);
}

/// Spawns a worker process for every missing shard, streams their stderr
/// with `[shard i]` prefixes, and merges the artifacts. With `resume`,
/// shards whose `dir/shard-<i>.part` already decodes cleanly are skipped
/// (the ledger's resume accounting); without it every shard runs afresh.
/// Returns the merged campaign and the coordinator-side wall-clock in
/// seconds.
fn run_sharded(shards: usize, dir: &Path, resume: bool) -> (MergedCampaign, f64) {
    if shards == 0 {
        fail("a campaign needs at least one shard");
    }
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
    let mut ledger = ShardLedger::new(shards);
    if resume {
        let resumed = ledger.resume_from_dir(dir);
        if resumed > 0 {
            eprintln!(
                "campaignd: resumed {resumed}/{shards} shard(s) from {}",
                dir.display()
            );
        }
    }
    let missing = ledger.missing();
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let threads_env = std::env::var(campaign::THREADS_ENV).ok();
    let per_worker = idld_bench::host_cores()
        .div_ceil(missing.len().max(1))
        .max(1);
    let rpc = runs_per_cell();

    let t0 = Instant::now();
    let mut children = Vec::with_capacity(missing.len());
    for shard in missing {
        let mut cmd = Command::new(&exe);
        cmd.arg("--worker")
            .env(campaign::SHARD_ENV, shard.to_string())
            .env(campaign::SHARDS_ENV, shards.to_string())
            .env(campaign::RUNS_PER_CELL_ENV, rpc.to_string())
            .env(SHARD_DIR_ENV, dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if threads_env.is_none() {
            cmd.env(campaign::THREADS_ENV, per_worker.to_string());
        }
        let mut child = cmd
            .spawn()
            .unwrap_or_else(|e| fail(&format!("cannot spawn shard {shard}: {e}")));
        let stderr = child.stderr.take().expect("stderr was piped");
        let relay = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stderr).lines() {
                match line {
                    Ok(l) => eprintln!("[shard {shard}] {l}"),
                    Err(_) => break,
                }
            }
        });
        children.push((shard, child, relay));
    }
    for (shard, mut child, relay) in children {
        let status = child
            .wait()
            .unwrap_or_else(|e| fail(&format!("waiting on shard {shard}: {e}")));
        let _ = relay.join();
        if !status.success() {
            fail(&format!("shard {shard} exited with {status}"));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let merged = netd::merge_parts(dir, shards).unwrap_or_else(|e| fail(&e));
    (merged, wall)
}

/// `--listen`: serve the campaign's shards over TCP until every artifact
/// is persisted, then merge and write outputs plus `service_metrics.csv`.
/// `workers` > 0 additionally spawns that many loopback worker processes
/// (`--connect` children of this binary).
fn run_listen(addr: &str, shards: usize, dir: &Path, resume: bool, workers: usize) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let (merged, outcome, wall) =
        netd::serve_campaign(addr, shards, dir, resume, workers, &exe, true)
            .unwrap_or_else(|e| fail(&e));
    write_outputs(&merged, dir);
    let path = dir.join("service_metrics.csv");
    std::fs::write(&path, outcome.metrics.to_csv("netd"))
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    eprintln!(
        "campaignd: {} runs across {shards} shard(s) in {wall:.2}s \
         ({} resumed, {} retried, {} duplicate(s)) -> {}",
        merged.runs(),
        outcome.resumed,
        outcome.metrics.counter("shards_retried"),
        outcome.metrics.counter("artifacts_duplicate"),
        dir.display()
    );
}

/// `--connect`: run shards for a remote coordinator until it says DONE.
fn run_connect(addr: &str) -> ! {
    match netd::connect_worker(addr) {
        Ok(s) => {
            eprintln!(
                "campaignd: worker done: {} shard(s), {} duplicate(s), {} reconnect(s)",
                s.completed, s.duplicates, s.reconnects
            );
            std::process::exit(0);
        }
        Err(e) => fail(&e),
    }
}

/// Writes the four merged artifacts into `dir`, honoring
/// `IDLD_TIMINGS_WALL` for the timings export.
fn write_outputs(merged: &MergedCampaign, dir: &Path) {
    netd::write_merged_outputs(merged, dir).unwrap_or_else(|e| fail(&e));
}

/// A [`BenchEntry`] for a merged multi-process run. `from_result` only
/// fits in-process campaigns, so the fields come from the merge.
fn entry_from_merged(
    name: &str,
    merged: &MergedCampaign,
    wall_secs: f64,
    shards: usize,
) -> BenchEntry {
    let mut workloads: Vec<(String, f64)> = Vec::new();
    for c in &merged.timings {
        let secs = c.total.as_secs_f64();
        match workloads.iter_mut().find(|(b, _)| *b == c.bench) {
            Some((_, acc)) => *acc += secs,
            None => workloads.push((c.bench.clone(), secs)),
        }
    }
    BenchEntry {
        name: name.to_string(),
        wall_secs,
        runs: merged.runs(),
        host_cores: idld_bench::host_cores(),
        shards,
        workload_scale: idld_bench::workload_scale(),
        stats: merged.stats,
        workloads,
    }
}

/// `--scaling`: run the same campaign at each shard count, byte-verify
/// every merged output against the first count's, and report the series.
/// Returns each point with its merged campaign.
fn run_scaling(counts: &[usize], out: &Path) -> Vec<(ScalingPoint, MergedCampaign)> {
    let mut series: Vec<(ScalingPoint, MergedCampaign)> = Vec::with_capacity(counts.len());
    for &n in counts {
        let (merged, wall) = run_sharded(n, &out.join(format!("scale-{n}")), false);
        let identical = match series.first() {
            Some((_, r)) => {
                r.records_csv() == merged.records_csv()
                    && r.metrics_csv() == merged.metrics_csv()
                    && r.timings_csv(false) == merged.timings_csv(false)
            }
            None => true,
        };
        let point = ScalingPoint {
            shards: n,
            wall_secs: wall,
            runs: merged.runs(),
            merged_identical: identical,
        };
        eprintln!(
            "campaignd: {n} shard(s): {} runs in {wall:.2}s ({:.1} runs/s), merged identical: {identical}",
            point.runs,
            point.runs_per_sec()
        );
        series.push((point, merged));
    }
    if series.iter().any(|(p, _)| !p.merged_identical) {
        fail("merged outputs differ across shard counts — shard merge is unsound");
    }
    series
}

/// `--bench`: regenerate `BENCH_campaign.json` — the cold oracle and the
/// default forked campaign (in-process), the SMT axis, the sharded
/// scaling series, the distributed loopback service, and a scale-10
/// suite entry.
fn run_bench(out: &Path) {
    let suite = selected_suite();
    let base = CampaignConfig {
        runs_per_cell: runs_per_cell(),
        ..CampaignConfig::try_from_env().unwrap_or_else(|e| fail(&e))
    };

    eprintln!("campaignd: cold oracle (no snapshots)...");
    let cold = Campaign::new(CampaignConfig {
        snapshot_max: 0,
        ..base.clone()
    })
    .run_with_progress(&suite, &StderrProgress::new())
    .unwrap_or_else(|e| fail(&format!("cold campaign invalid: {e}")));

    eprintln!("campaignd: default campaign...");
    let default = Campaign::new(base.clone())
        .run_with_progress(&suite, &StderrProgress::new())
        .unwrap_or_else(|e| fail(&format!("default campaign invalid: {e}")));
    if export::to_csv(&cold) != export::to_csv(&default) {
        fail("forked execution changed the record stream");
    }
    let speedup = cold.wall.as_secs_f64() / default.wall.as_secs_f64();

    // The SMT axis: the paired-scenario section appended after the dense
    // single-thread job space (DESIGN §14). The single-thread prefix of
    // the record stream must be byte-identical to the default campaign —
    // the axis may only append.
    eprintln!("campaignd: SMT axis...");
    let smt = Campaign::new(CampaignConfig {
        smt: true,
        ..base.clone()
    })
    .run_with_progress(&suite, &StderrProgress::new())
    .unwrap_or_else(|e| fail(&format!("SMT campaign invalid: {e}")));
    if !export::to_csv(&smt).starts_with(&export::to_csv(&default)) {
        fail("the SMT axis perturbed the single-thread record prefix");
    }
    let smt_entry = BenchEntry::from_result("suite_smt", &smt);

    // The shard-count series only means something with cores to spread
    // over: on a single-core host every extra shard just adds process
    // overhead and the curve comes out inverted. Record an explicit skip
    // marker instead of a misleading series (one 1-shard run still
    // exercises and byte-verifies the shard pipeline).
    let single_core = idld_bench::host_cores() == 1;
    let counts: &[usize] = if single_core { &[1] } else { &[1, 2, 4, 8] };
    if single_core {
        eprintln!("campaignd: single-core host — skipping the shard scaling series");
    } else {
        eprintln!("campaignd: shard scaling series...");
    }
    let series = run_scaling(counts, out);
    let (best, best_merged) = series
        .iter()
        .min_by(|(a, _), (b, _)| a.wall_secs.total_cmp(&b.wall_secs))
        .expect("series is nonempty");
    let sharded = entry_from_merged("suite_sharded", best_merged, best.wall_secs, best.shards);
    let measured: Vec<ScalingPoint> = series.iter().map(|(p, _)| *p).collect();
    let scaling = if single_core {
        idld_bench::ShardScaling::Skipped("single-core host")
    } else {
        idld_bench::ShardScaling::Measured(&measured)
    };

    // Distributed loopback: the same campaign served over TCP to two
    // worker processes, byte-verified against the in-process merge. Runs
    // even on a single-core host — it checks correctness, not scaling.
    eprintln!("campaignd: distributed loopback service (2 workers)...");
    const DIST_SHARDS: usize = 2;
    let dist_dir = out.join("dist");
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let (dist, _outcome, dist_wall) =
        netd::serve_campaign("127.0.0.1:0", DIST_SHARDS, &dist_dir, false, 2, &exe, false)
            .unwrap_or_else(|e| fail(&e));
    let reference = &series.first().expect("series is nonempty").1;
    if dist.records_csv() != reference.records_csv()
        || dist.metrics_csv() != reference.metrics_csv()
        || dist.timings_csv(false) != reference.timings_csv(false)
    {
        fail("distributed merge differs from the local merge — the service is unsound");
    }
    eprintln!(
        "campaignd: distributed merge byte-identical ({} runs in {dist_wall:.2}s)",
        dist.runs()
    );
    let dist_entry = entry_from_merged("suite_dist", &dist, dist_wall, DIST_SHARDS);

    eprintln!("campaignd: scale-10 suite...");
    let scale10_suite = idld_workloads::suite_scaled(10);
    let scale10_cfg = CampaignConfig {
        runs_per_cell: match std::env::var("IDLD_SCALE10_RUNS") {
            Err(_) => 4,
            Ok(v) => v
                .trim()
                .parse()
                .unwrap_or_else(|_| fail(&format!("IDLD_SCALE10_RUNS must be a count, got {v:?}"))),
        },
        ..base
    };
    let scale10 = Campaign::new(scale10_cfg)
        .run_with_progress(&scale10_suite, &StderrProgress::new())
        .unwrap_or_else(|e| fail(&format!("scale-10 campaign invalid: {e}")));
    let mut scale10_entry = BenchEntry::from_result("suite_scale10", &scale10);
    scale10_entry.workload_scale = 10;

    let entries = [
        BenchEntry::from_result("suite_cold", &cold),
        BenchEntry::from_result("suite_default", &default),
        smt_entry,
        sharded,
        dist_entry,
        scale10_entry,
    ];
    match idld_bench::write_campaign_bench_json(&entries, scaling, Some(speedup)) {
        Ok(path) => eprintln!("campaignd: wrote {path}"),
        Err(e) => fail(&format!("could not write bench json: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = PathBuf::from("campaign-out");
    let mut shards: Option<usize> = None;
    let mut scaling: Option<Vec<usize>> = None;
    let mut bench = false;
    let mut resume = false;
    let mut listen = idld_net::env::try_listen().unwrap_or_else(|e| fail(&e));
    let mut connect = idld_net::env::try_connect().unwrap_or_else(|e| fail(&e));
    let mut workers = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--worker" => run_worker(),
            "--listen" => {
                i += 1;
                listen = Some(
                    args.get(i)
                        .unwrap_or_else(|| fail("--listen needs host:port"))
                        .clone(),
                );
            }
            "--connect" => {
                i += 1;
                connect = Some(
                    args.get(i)
                        .unwrap_or_else(|| fail("--connect needs host:port"))
                        .clone(),
                );
            }
            "--resume" => resume = true,
            "--workers" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| fail("--workers needs a count"));
                workers = v
                    .parse()
                    .unwrap_or_else(|_| fail("--workers needs a count"));
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| fail("--out needs a directory")),
                );
            }
            "--shards" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| fail("--shards needs a count"));
                shards = Some(v.parse().unwrap_or_else(|_| fail("--shards needs a count")));
            }
            "--scaling" => {
                // Optional comma-separated counts; default 1,2,4,8.
                let counts = match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        v.split(',')
                            .map(|s| {
                                s.trim().parse().unwrap_or_else(|_| {
                                    fail("--scaling takes comma-separated shard counts")
                                })
                            })
                            .collect()
                    }
                    _ => vec![1, 2, 4, 8],
                };
                scaling = Some(counts);
            }
            "--bench" => bench = true,
            other => fail(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    if let Some(addr) = connect {
        if listen.is_some() {
            fail("--listen and --connect are mutually exclusive");
        }
        run_connect(&addr);
    }
    if bench {
        run_bench(&out);
        return;
    }
    if let Some(counts) = scaling {
        if counts.is_empty() {
            fail("--scaling needs at least one shard count");
        }
        run_scaling(&counts, &out);
        return;
    }

    let n = shards
        .or_else(|| {
            std::env::var(campaign::SHARDS_ENV).ok().map(|v| {
                v.trim()
                    .parse()
                    .unwrap_or_else(|_| fail("IDLD_SHARDS must be a count"))
            })
        })
        .unwrap_or_else(idld_bench::host_cores);
    if let Some(addr) = listen {
        run_listen(&addr, n, &out, resume, workers);
        return;
    }
    let (merged, wall) = run_sharded(n, &out, resume);
    write_outputs(&merged, &out);
    let st = merged.stats;
    eprintln!(
        "campaignd: {} runs across {n} shard(s) in {wall:.2}s ({:.1} runs/s) -> {}",
        merged.runs(),
        merged.runs() as f64 / wall.max(f64::MIN_POSITIVE),
        out.display()
    );
    eprintln!(
        "campaignd: snapshots: {} captured, {} forked / {} cold runs",
        st.captured, st.forked_runs, st.cold_runs
    );
}
