//! In-process loopback service tests: real campaigns over real TCP
//! sockets, with worker failure, duplicate rejection, handshake
//! versioning, and coordinator resume — and the tentpole's proof
//! obligation, byte-identical merges, checked end to end.

use idld_campaign::ledger::part_path;
use idld_campaign::{
    decode_shard, encode_shard, merge_shards, Campaign, CampaignConfig, CampaignMetrics,
};
use idld_net::{serve, JobSpec, Message, ServeOpts, ServeOutcome, WorkerOpts};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};

const WORKLOADS: &str = "crc32,basicmath";

fn base_spec(shards: usize) -> JobSpec {
    JobSpec {
        shard: 0,
        shards,
        runs_per_cell: 2,
        seed: 23,
        sweep: String::new(),
        workloads: WORKLOADS.to_string(),
        scale: 1,
    }
}

fn suite_of(spec: &JobSpec) -> Vec<idld_workloads::Workload> {
    let names: Vec<&str> = spec.workloads.split(',').collect();
    idld_workloads::suite()
        .into_iter()
        .filter(|w| names.contains(&w.name.as_str()))
        .collect()
}

fn config_of(spec: &JobSpec) -> CampaignConfig {
    CampaignConfig {
        runs_per_cell: spec.runs_per_cell,
        seed: spec.seed,
        shard: spec.shard,
        shards: spec.shards,
        ..CampaignConfig::default()
    }
}

/// The standard test runner: a real (tiny) campaign shard.
fn run_shard(spec: &JobSpec) -> Result<String, String> {
    let res = Campaign::new(config_of(spec))
        .run(&suite_of(spec))
        .map_err(|e| format!("shard {}: {e}", spec.shard))?;
    Ok(encode_shard(&res, spec.shard, spec.shards))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idld-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn serve_on(
    dir: &Path,
    shards: usize,
    resume: bool,
) -> (std::net::SocketAddr, std::thread::JoinHandle<ServeOutcome>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let opts = ServeOpts {
        base: base_spec(shards),
        dir: dir.to_path_buf(),
        heartbeat_ms: 50,
        resume,
        verbose: false,
    };
    let handle = std::thread::spawn(move || serve(listener, opts).expect("serve"));
    (addr, handle)
}

fn merge_dir(dir: &Path, shards: usize) -> idld_campaign::MergedCampaign {
    let parts: Vec<_> = (0..shards)
        .map(|i| {
            let text = std::fs::read_to_string(part_path(dir, i)).expect("part exists");
            decode_shard(&text).expect("part decodes")
        })
        .collect();
    merge_shards(&parts).expect("parts merge")
}

fn single_process() -> (String, String) {
    let spec = base_spec(1);
    let res = Campaign::new(config_of(&spec))
        .run(&suite_of(&spec))
        .expect("single-process campaign");
    let metrics = CampaignMetrics::build(&res);
    (
        idld_campaign::export::to_csv(&res),
        idld_campaign::metrics_csv(&metrics),
    )
}

#[test]
fn loopback_service_merges_byte_identical_to_single_process() {
    let dir = temp_dir("basic");
    let shards = 4;
    let (addr, coordinator) = serve_on(&dir, shards, false);
    let opts = WorkerOpts {
        heartbeat_ms: 50,
        retry_max: 8,
    };
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.to_string();
            let opts = opts.clone();
            std::thread::spawn(move || {
                idld_net::run_worker(&addr, &opts, |spec, progress| {
                    progress(0, spec.runs_per_cell);
                    run_shard(spec)
                })
                .expect("worker")
            })
        })
        .collect();
    let outcome = coordinator.join().expect("coordinator thread");
    let done: usize = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread").completed)
        .sum();
    assert_eq!(done, shards, "every shard completed exactly once");
    assert_eq!(outcome.metrics.counter("artifacts_accepted"), 4);
    assert_eq!(outcome.metrics.counter("shards_dispatched"), 4);
    assert_eq!(outcome.metrics.counter("workers_connected"), 2);

    let merged = merge_dir(&dir, shards);
    let (records, metrics) = single_process();
    assert_eq!(merged.records_csv(), records, "records.csv byte-identical");
    assert_eq!(merged.metrics_csv(), metrics, "metrics.csv byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lost_worker_shards_are_reassigned_and_the_merge_still_matches() {
    let dir = temp_dir("lost");
    let shards = 3;
    let (addr, coordinator) = serve_on(&dir, shards, false);
    let opts = WorkerOpts {
        heartbeat_ms: 50,
        retry_max: 8,
    };
    // Worker A dies on its first assignment (runner error = process
    // death, as far as the coordinator can tell: the connection drops).
    let failing = {
        let addr = addr.to_string();
        let opts = opts.clone();
        std::thread::spawn(move || {
            idld_net::run_worker(&addr, &opts, |_spec, _progress| {
                Err("simulated worker crash".to_string())
            })
        })
    };
    assert!(failing.join().expect("thread").is_err(), "crash is loud");
    // Worker B sweeps up everything, including the released shard.
    let survivor = {
        let addr = addr.to_string();
        std::thread::spawn(move || {
            idld_net::run_worker(&addr, &opts, |spec, _| run_shard(spec)).expect("worker")
        })
    };
    let outcome = coordinator.join().expect("coordinator thread");
    assert_eq!(survivor.join().expect("thread").completed, shards);
    assert!(
        outcome.metrics.counter("shards_retried") >= 1,
        "the crashed worker's shard was requeued"
    );
    assert_eq!(outcome.metrics.counter("workers_lost"), 1);

    let merged = merge_dir(&dir, shards);
    let (records, metrics) = single_process();
    assert_eq!(merged.records_csv(), records);
    assert_eq!(merged.metrics_csv(), metrics);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coordinator_resume_redispatches_only_missing_shards() {
    let dir = temp_dir("resume");
    let shards = 3;
    // First pass: complete everything.
    let (addr, coordinator) = serve_on(&dir, shards, false);
    let opts = WorkerOpts {
        heartbeat_ms: 50,
        retry_max: 8,
    };
    {
        let addr = addr.to_string();
        let opts = opts.clone();
        std::thread::spawn(move || {
            idld_net::run_worker(&addr, &opts, |spec, _| run_shard(spec)).expect("worker")
        })
        .join()
        .expect("thread");
    }
    coordinator.join().expect("coordinator thread");
    let full = merge_dir(&dir, shards);

    // "Kill" the coordinator after shard 1's artifact is lost, restart
    // with --resume: only shard 1 may run again.
    std::fs::remove_file(part_path(&dir, 1)).expect("drop shard 1");
    let (addr, coordinator) = serve_on(&dir, shards, true);
    let reran = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen = std::sync::Arc::clone(&reran);
    {
        let addr = addr.to_string();
        std::thread::spawn(move || {
            idld_net::run_worker(&addr, &opts, move |spec, _| {
                seen.lock().expect("seen").push(spec.shard);
                run_shard(spec)
            })
            .expect("worker")
        })
        .join()
        .expect("thread");
    }
    let outcome = coordinator.join().expect("coordinator thread");
    assert_eq!(outcome.resumed, shards - 1);
    assert_eq!(
        outcome.metrics.counter("shards_resumed"),
        (shards - 1) as u64
    );
    assert_eq!(
        *reran.lock().expect("reran"),
        vec![1],
        "only the missing shard ran"
    );

    let resumed = merge_dir(&dir, shards);
    assert_eq!(resumed.records_csv(), full.records_csv());
    assert_eq!(resumed.metrics_csv(), full.metrics_csv());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn handshake_rejects_mismatched_versions() {
    let dir = temp_dir("handshake");
    let (addr, coordinator) = serve_on(&dir, 1, false);

    // A worker built against a stale shard format is refused by name.
    let mut stale = TcpStream::connect(addr).expect("connect");
    idld_net::write_frame(
        &mut stale,
        &Message::Hello {
            proto: idld_net::PROTO_VERSION.to_string(),
            magic: "idld-shard v1".to_string(),
        }
        .encode(),
    )
    .expect("send stale hello");
    let reply = idld_net::read_frame(&mut stale).expect("reply");
    match Message::decode(&reply).expect("decodes") {
        Message::Error { msg } => assert!(msg.contains("idld-shard v1"), "{msg}"),
        other => panic!("expected refusal, got {other:?}"),
    }
    drop(stale);

    // A first frame that is not HELLO at all is refused too.
    let mut rude = TcpStream::connect(addr).expect("connect");
    idld_net::write_frame(&mut rude, &Message::Next.encode()).expect("send");
    let reply = idld_net::read_frame(&mut rude).expect("reply");
    assert!(matches!(
        Message::decode(&reply).expect("decodes"),
        Message::Error { .. }
    ));
    drop(rude);

    // A conforming worker still finishes the campaign afterwards.
    let opts = WorkerOpts {
        heartbeat_ms: 50,
        retry_max: 8,
    };
    let addr = addr.to_string();
    std::thread::spawn(move || {
        idld_net::run_worker(&addr, &opts, |spec, _| run_shard(spec)).expect("worker")
    })
    .join()
    .expect("thread");
    coordinator.join().expect("coordinator thread");
    std::fs::remove_dir_all(&dir).ok();
}
