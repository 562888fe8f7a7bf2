//! `campaignd` — sharded campaign driver.
//!
//! The campaign's job space (workload × bug spec × sweep point) is
//! hash-partitioned into `N` shards, which are served over the
//! `idld-net` TCP service to worker processes — on loopback by default,
//! across hosts with `--listen`/`--connect`. The coordinator persists
//! each accepted artifact to `DIR/shard-<i>.part`, then decodes and
//! merges them into `records.csv`, `metrics.csv`, `metrics.json` and
//! `timings.csv` — byte-identical to a single-process run at any shard
//! count (the merge invariants live in `idld_campaign::shard`) — plus
//! the coordinator's `service_metrics.csv`.
//!
//! ```sh
//! campaignd [--out DIR] [--shards N] [--resume]  # N loopback workers
//! campaignd --scaling [1,2,4,8]        # shard-count series + byte check
//! campaignd --bench                    # regenerate BENCH_campaign.json
//! campaignd --listen HOST:PORT [--workers N]  # coordinator for remote workers
//! campaignd --connect HOST:PORT        # worker
//! ```
//!
//! `--shards N` alone is `--listen 127.0.0.1:0 --workers N`: it spawns N
//! `--connect` children of this binary. `--listen` spawns `--workers`
//! (default 0; the flag is an error without `--listen`) and waits for
//! the rest to connect. The service survives worker loss by
//! reassignment. `--resume` re-dispatches only shards whose `.part` is
//! missing or does not decode cleanly — a killed coordinator picks up
//! where the artifacts say it left off — and spawns no more loopback
//! workers than there are such shards.
//!
//! Environment: all the usual campaign knobs (`IDLD_RUNS_PER_CELL`,
//! `IDLD_SEED`, `IDLD_SWEEP`, `IDLD_SNAPSHOT_MAX`, …) plus:
//!
//! - `IDLD_WORKLOADS` — comma-separated workload filter (default: full
//!   suite), carried to every worker in its job.
//! - `IDLD_WORKLOAD_SCALE` — suite scale factor (default 1).
//! - `IDLD_CAMPAIGN_THREADS` — per-worker scheduler threads. When unset
//!   each loopback worker is pinned to `max(1, cores / workers)` so a
//!   sharded run never oversubscribes the host.
//! - `IDLD_TIMINGS_WALL=0` — zero the wall-clock column of the written
//!   `timings.csv` (CI byte-comparisons across shard counts).
//! - `IDLD_LISTEN` / `IDLD_CONNECT` — `host:port` fallbacks for the
//!   `--listen` / `--connect` flags.
//! - `IDLD_HEARTBEAT_MS` / `IDLD_RETRY_MAX` — service heartbeat interval
//!   and worker (re)connect budget (strict parses; see `idld_net::env`).

use idld_bench::{netd, BenchEntry, ScalingPoint};
use idld_campaign::{
    export, metrics_csv, Campaign, CampaignConfig, CampaignMetrics, MergedCampaign, StderrProgress,
};
use std::path::{Path, PathBuf};

/// Where `--shards` and `--scaling` serve their loopback workers.
const LOOPBACK: &str = "127.0.0.1:0";

fn fail(msg: &str) -> ! {
    eprintln!("campaignd: {msg}");
    std::process::exit(2);
}

/// Serves the campaign's `shards` on `addr` with `workers` loopback
/// worker processes (see [`netd::serve_campaign`]).
fn serve(
    addr: &str,
    shards: usize,
    dir: &Path,
    resume: bool,
    workers: usize,
    verbose: bool,
) -> netd::Served {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    netd::serve_campaign(addr, shards, dir, resume, workers, &exe, verbose)
        .unwrap_or_else(|e| fail(&e))
}

/// `--shards` / `--listen`: serve the campaign until every artifact is
/// persisted, then write the merged outputs plus `service_metrics.csv`.
fn run_served(addr: &str, shards: usize, dir: &Path, resume: bool, workers: usize) {
    let (merged, outcome, wall) = serve(addr, shards, dir, resume, workers, true);
    netd::write_merged_outputs(&merged, dir).unwrap_or_else(|e| fail(&e));
    let path = dir.join("service_metrics.csv");
    std::fs::write(&path, outcome.metrics.to_csv("netd"))
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    let st = merged.stats;
    eprintln!(
        "campaignd: {} runs across {shards} shard(s) in {wall:.2}s ({:.1} runs/s; \
         {} resumed, {} retried, {} duplicate(s)) -> {}",
        merged.runs(),
        merged.runs() as f64 / wall.max(f64::MIN_POSITIVE),
        outcome.resumed,
        outcome.metrics.counter("shards_retried"),
        outcome.metrics.counter("artifacts_duplicate"),
        dir.display()
    );
    eprintln!(
        "campaignd: snapshots: {} captured, {} forked / {} cold runs",
        st.captured, st.forked_runs, st.cold_runs
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

/// `--scaling`: run the same campaign at each shard count (one loopback
/// worker per shard), byte-verify every merged output against the first
/// count's, and report the series. Returns each point with its merged
/// campaign.
fn run_scaling(counts: &[usize], out: &Path) -> Vec<(ScalingPoint, MergedCampaign)> {
    let mut series: Vec<(ScalingPoint, MergedCampaign)> = Vec::with_capacity(counts.len());
    for &n in counts {
        let (merged, _, wall) = serve(
            LOOPBACK,
            n,
            &out.join(format!("scale-{n}")),
            false,
            n,
            false,
        );
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
/// scaling series (every point byte-verified against the in-process
/// default campaign), and a scale-10 suite entry.
fn run_bench(out: &Path) {
    // The same campaign the shard series serves, run in-process.
    let spec = netd::job_template_from_env(1).unwrap_or_else(|e| fail(&e));
    let suite = netd::suite_for(&spec).unwrap_or_else(|e| fail(&e));
    let base = netd::config_for(&spec).unwrap_or_else(|e| fail(&e));

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
    let records = export::to_csv(&default);
    let metrics = metrics_csv(&CampaignMetrics::build(&default));
    for (p, merged) in &series {
        if merged.records_csv() != records || merged.metrics_csv() != metrics {
            fail(&format!(
                "the {}-shard merge differs from the in-process campaign — shard merge is unsound",
                p.shards
            ));
        }
    }
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
        scale10_entry,
    ];
    match idld_bench::write_campaign_bench_json(&entries, scaling, Some(speedup)) {
        Ok(path) => eprintln!("campaignd: wrote {path}"),
        Err(e) => fail(&format!("could not write bench json: {e}")),
    }
}

/// The value following a flag, or a loud failure naming what it needs.
fn value(args: &mut impl Iterator<Item = String>, what: &str) -> String {
    args.next().unwrap_or_else(|| fail(what))
}

/// A count following a flag.
fn count(args: &mut impl Iterator<Item = String>, what: &str) -> usize {
    value(args, what).parse().unwrap_or_else(|_| fail(what))
}

fn main() {
    let mut out = PathBuf::from("campaign-out");
    let mut shards: Option<usize> = None;
    let mut scaling: Option<Vec<usize>> = None;
    let mut bench = false;
    let mut resume = false;
    let mut listen = idld_net::env::try_listen().unwrap_or_else(|e| fail(&e));
    let mut connect = idld_net::env::try_connect().unwrap_or_else(|e| fail(&e));
    let mut workers: Option<usize> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(value(&mut args, "--listen needs host:port")),
            "--connect" => connect = Some(value(&mut args, "--connect needs host:port")),
            "--resume" => resume = true,
            "--workers" => workers = Some(count(&mut args, "--workers needs a count")),
            "--out" => out = PathBuf::from(value(&mut args, "--out needs a directory")),
            "--shards" => shards = Some(count(&mut args, "--shards needs a count")),
            "--scaling" => {
                // Optional comma-separated counts; default 1,2,4,8.
                let counts = match args.next_if(|v| !v.starts_with("--")) {
                    Some(v) => v
                        .split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                fail("--scaling takes comma-separated shard counts")
                            })
                        })
                        .collect(),
                    None => vec![1, 2, 4, 8],
                };
                scaling = Some(counts);
            }
            "--bench" => bench = true,
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    if workers.is_some() && listen.is_none() {
        fail("--workers applies only with --listen; --shards N starts N loopback workers");
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

    let n = shards.unwrap_or_else(idld_bench::host_cores);
    match listen {
        Some(addr) => run_served(&addr, n, &out, resume, workers.unwrap_or(0)),
        None => run_served(LOOPBACK, n, &out, resume, n),
    }
}
