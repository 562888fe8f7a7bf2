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
//! - `IDLD_CAMPAIGN_THREADS` — per-worker campaign threads, golden
//!   capture included. When unset each loopback worker is pinned to
//!   `max(1, cores / workers)` so a sharded run never oversubscribes the
//!   host.
//! - `IDLD_TIMINGS_WALL=0` — zero the wall-clock column of the written
//!   `timings.csv` (CI byte-comparisons across shard counts).
//! - `IDLD_HEARTBEAT_MS` / `IDLD_RETRY_MAX` — service heartbeat interval
//!   and worker (re)connect budget (strict parses; see `idld_net::env`).

use idld_bench::netd;
use idld_campaign::MergedCampaign;
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

/// `--scaling`: run the same campaign at each shard count (one loopback
/// worker per shard), print each count's runs/s to stderr, and fail on
/// the first merge that is not byte-identical to the first count's.
fn run_scaling(counts: &[usize], out: &Path) {
    let mut first: Option<MergedCampaign> = None;
    for &n in counts {
        let (merged, _, wall) = serve(
            LOOPBACK,
            n,
            &out.join(format!("scale-{n}")),
            false,
            n,
            false,
        );
        let identical = first.as_ref().is_none_or(|r| {
            r.records_csv() == merged.records_csv()
                && r.metrics_csv() == merged.metrics_csv()
                && r.metrics_json() == merged.metrics_json()
                && r.timings_csv(false) == merged.timings_csv(false)
        });
        eprintln!(
            "campaignd: {n} shard(s): {} runs in {wall:.2}s ({:.1} runs/s), merged identical: {identical}",
            merged.runs(),
            merged.runs() as f64 / wall.max(f64::MIN_POSITIVE)
        );
        if !identical {
            fail("merged outputs differ across shard counts — shard merge is unsound");
        }
        first.get_or_insert(merged);
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
    let mut resume = false;
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
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
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    if scaling.is_some() {
        // `--scaling` serves its own loopback workers at each count; a
        // flag it would ignore must not quietly change what was asked.
        for (given, flag) in [
            (shards.is_some(), "--shards"),
            (resume, "--resume"),
            (workers.is_some(), "--workers"),
            (listen.is_some(), "--listen"),
            (connect.is_some(), "--connect"),
        ] {
            if given {
                fail(&format!("{flag} does not apply with --scaling"));
            }
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
