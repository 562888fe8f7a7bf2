//! Process-level distributed-service tests: real `campaignd`
//! coordinators, real `--connect` worker processes over loopback TCP, a
//! real SIGKILL mid-shard — and the proof obligation checked at the
//! outermost boundary: the files on disk are byte-identical to an
//! in-process run.

use idld_campaign::{export, metrics_csv, Campaign, CampaignConfig, CampaignMetrics};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const CAMPAIGND: &str = env!("CARGO_BIN_EXE_campaignd");

/// The tiny deterministic campaign every process in these tests runs.
const CAMPAIGN_ENV: &[(&str, &str)] = &[
    ("IDLD_WORKLOADS", "crc32,basicmath"),
    ("IDLD_RUNS_PER_CELL", "2"),
    ("IDLD_SEED", "23"),
    ("IDLD_TIMINGS_WALL", "0"),
    ("IDLD_HEARTBEAT_MS", "100"),
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idld-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn campaign_cmd(exe: &str) -> Command {
    let mut cmd = Command::new(exe);
    for (k, v) in CAMPAIGN_ENV {
        cmd.env(k, v);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    cmd
}

/// Spawns a child and forwards its stderr lines to a channel (tagged for
/// debuggability), so tests can watch for markers while it runs.
fn spawn_watched(mut cmd: Command, tag: &'static str) -> (Child, mpsc::Receiver<String>) {
    let mut child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {tag}: {e}"));
    let stderr = child.stderr.take().expect("stderr was piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            eprintln!("[{tag}] {line}");
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (child, rx)
}

/// Blocks until a stderr line containing `needle` arrives (panics after
/// `timeout`), returning the line.
fn await_line(rx: &mpsc::Receiver<String>, needle: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline
            .checked_duration_since(Instant::now())
            .unwrap_or_else(|| panic!("timed out waiting for {needle:?}"));
        match rx.recv_timeout(left) {
            Ok(line) if line.contains(needle) => return line,
            Ok(_) => {}
            Err(_) => panic!("timed out waiting for {needle:?}"),
        }
    }
}

/// Waits for a child with a deadline; kills it and panics on overrun.
fn wait_with_deadline(child: &mut Child, what: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "{what} exited with {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("{what} did not exit within {timeout:?}");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The reference `(records.csv, metrics.csv)` of [`CAMPAIGN_ENV`]'s
/// campaign, computed in-process.
fn single_process_outputs() -> (String, String) {
    let suite: Vec<_> = idld_workloads::suite()
        .into_iter()
        .filter(|w| w.name == "crc32" || w.name == "basicmath")
        .collect();
    let cfg = CampaignConfig {
        runs_per_cell: 2,
        seed: 23,
        ..CampaignConfig::default()
    };
    let res = Campaign::new(cfg).run(&suite).expect("reference campaign");
    (
        export::to_csv(&res),
        metrics_csv(&CampaignMetrics::build(&res)),
    )
}

/// The `metric` counter of a written `service_metrics.csv` (columns are
/// `scope,metric,kind,count,sum,min,max,mean`; a counter's value is its
/// `sum`). A metric that was never touched has no row and reads as 0.
fn service_counter(dir: &Path, metric: &str) -> u64 {
    let csv = std::fs::read_to_string(dir.join("service_metrics.csv")).expect("service metrics");
    let needle = format!("netd,{metric},counter,");
    csv.lines()
        .find_map(|l| l.strip_prefix(&needle))
        .map_or(0, |row| {
            row.split(',')
                .nth(1)
                .expect("sum column")
                .parse()
                .expect("sum parses")
        })
}

/// Starts a `--listen 127.0.0.1:0` coordinator and returns it plus the
/// actual address it bound (parsed from its banner line).
fn spawn_coordinator(
    exe: &str,
    dir: &Path,
    shards: usize,
    resume: bool,
) -> (Child, mpsc::Receiver<String>, String) {
    let mut cmd = campaign_cmd(exe);
    cmd.arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--out")
        .arg(dir)
        .arg("--shards")
        .arg(shards.to_string());
    if resume {
        cmd.arg("--resume");
    }
    let (child, rx) = spawn_watched(cmd, "coord");
    let banner = await_line(&rx, "coordinator on ", Duration::from_secs(60));
    let addr = banner
        .split("coordinator on ")
        .nth(1)
        .and_then(|r| r.split(',').next())
        .unwrap_or_else(|| panic!("unparseable banner {banner:?}"))
        .trim()
        .to_string();
    (child, rx, addr)
}

#[test]
fn killed_worker_is_reassigned_and_the_files_match_single_process() {
    let (records, metrics) = single_process_outputs();

    let dir = temp_dir("kill-svc");
    let shards = 3;
    let (mut coord, _coord_rx, addr) = spawn_coordinator(CAMPAIGND, &dir, shards, false);

    // One worker stalls forever on its first assignment and announces it;
    // we SIGKILL it mid-shard. Two healthy workers sweep up.
    let mut stall_cmd = campaign_cmd(CAMPAIGND);
    stall_cmd
        .arg("--connect")
        .arg(&addr)
        .env("IDLD_NETD_STALL", "1");
    let (mut stalled, stall_rx) = spawn_watched(stall_cmd, "stall");
    await_line(
        &stall_rx,
        "netd worker: stalling on shard ",
        Duration::from_secs(60),
    );
    let healthy: Vec<(Child, mpsc::Receiver<String>)> = (0..2)
        .map(|i| {
            let mut cmd = campaign_cmd(CAMPAIGND);
            cmd.arg("--connect").arg(&addr);
            spawn_watched(cmd, if i == 0 { "w0" } else { "w1" })
        })
        .collect();
    stalled.kill().expect("SIGKILL the stalled worker");
    let _ = stalled.wait();

    wait_with_deadline(&mut coord, "coordinator", Duration::from_secs(180));
    for (mut w, _rx) in healthy {
        wait_with_deadline(&mut w, "healthy worker", Duration::from_secs(60));
    }

    // The proof obligation, at the file boundary.
    assert_eq!(
        std::fs::read_to_string(dir.join("records.csv")).expect("merged records"),
        records,
        "records.csv byte-identical to the single-process run"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("metrics.csv")).expect("merged metrics"),
        metrics,
        "metrics.csv byte-identical to the single-process run"
    );
    // The killed worker's shard really was retried, not silently dropped.
    assert!(service_counter(&dir, "shards_retried") >= 1);
    assert_eq!(service_counter(&dir, "artifacts_accepted"), shards as u64);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn netd_resume_redispatches_only_missing_shards() {
    let dir = temp_dir("resume-svc");
    let shards = 3;
    let sharded = |resume: bool| {
        let mut cmd = campaign_cmd(CAMPAIGND);
        cmd.arg("--out")
            .arg(&dir)
            .arg("--shards")
            .arg(shards.to_string());
        if resume {
            cmd.arg("--resume");
        }
        cmd
    };

    // First pass: one loopback worker per shard.
    let (mut first, _rx) = spawn_watched(sharded(false), "pass1");
    wait_with_deadline(&mut first, "first pass", Duration::from_secs(180));
    let records = std::fs::read_to_string(dir.join("records.csv")).expect("first records");
    assert_eq!(records, single_process_outputs().0);
    assert_eq!(service_counter(&dir, "shards_resumed"), 0);

    // Kill-and-restart: lose shard 1's artifact and flip one bit of
    // shard 2's (a digit that still parses — only the digest can tell),
    // then resume. Only those two may be dispatched again; shard 0's
    // clean part is reused.
    std::fs::remove_file(dir.join("shard-1.part")).expect("drop shard 1");
    let part2 = dir.join("shard-2.part");
    let mut bytes = std::fs::read(&part2).expect("read shard 2");
    let at = bytes
        .windows(8)
        .position(|w| w == b"wall_us ")
        .expect("wall line")
        + 8;
    bytes[at] ^= 1;
    std::fs::write(&part2, bytes).expect("corrupt shard 2");
    let (mut second, _rx) = spawn_watched(sharded(true), "pass2");
    wait_with_deadline(&mut second, "resume pass", Duration::from_secs(180));

    assert_eq!(service_counter(&dir, "shards_resumed"), 1);
    assert_eq!(service_counter(&dir, "shards_dispatched"), 2);
    assert_eq!(
        service_counter(&dir, "workers_connected"),
        2,
        "one loopback worker per missing shard, not per shard"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("records.csv")).expect("resumed records"),
        records,
        "resume reproduced the identical merge"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A coordinator that cannot start must fail fast and leave no loopback
/// worker behind retrying against it.
#[test]
fn unusable_out_dir_fails_fast_without_orphans() {
    let dir = temp_dir("bad-out");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "a regular file").expect("plant file");
    let mut cmd = campaign_cmd(CAMPAIGND);
    cmd.arg("--out").arg(&file).arg("--shards").arg("2");
    let (mut child, rx) = spawn_watched(cmd, "bad-out");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("campaignd did not exit within 5 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success(), "exited with {status}");
    // The relay sees EOF only once every holder of the stderr pipe is
    // gone: an orphaned worker would keep it open.
    let mut stderr = Vec::new();
    loop {
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(line) => stderr.push(line),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("a worker outlived campaignd"),
        }
    }
    let name = file.display().to_string();
    assert!(
        stderr.iter().any(|l| l.contains(&name)),
        "stderr does not name {name}:\n{}",
        stderr.join("\n")
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--workers` sizes the pool of a `--listen` coordinator only; with
/// `--shards` alone it is refused, not silently applied or ignored.
#[test]
fn workers_without_listen_is_refused() {
    let out = campaign_cmd(CAMPAIGND)
        .args(["--shards", "2", "--workers", "3"])
        .output()
        .expect("run campaignd");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workers applies only with --listen"),
        "{stderr}"
    );
}

/// `--scaling` byte-checks every shard count's merge and refuses the
/// flags it would otherwise ignore; `--bench` is an unknown argument.
#[test]
fn scaling_series_byte_checks_and_refuses_ignored_flags() {
    let dir = temp_dir("scaling");
    let out = campaign_cmd(CAMPAIGND)
        .env("IDLD_WORKLOADS", "crc32")
        .arg("--scaling")
        .arg("1,2")
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run campaignd --scaling");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exited with {}:\n{stderr}",
        out.status
    );
    assert_eq!(
        stderr.matches("merged identical: true").count(),
        2,
        "one verified merge per shard count:\n{stderr}"
    );
    for n in [1, 2] {
        assert!(dir.join(format!("scale-{n}")).is_dir(), "scale-{n} missing");
    }
    std::fs::remove_dir_all(&dir).ok();

    for (args, needle) in [
        (&["--bench"][..], "unknown argument"),
        (
            &["--shards", "2", "--scaling", "1"][..],
            "--shards does not apply with --scaling",
        ),
    ] {
        let out = campaign_cmd(CAMPAIGND)
            .args(args)
            .output()
            .expect("run campaignd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}
