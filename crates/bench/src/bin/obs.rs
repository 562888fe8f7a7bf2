//! Records a fully-observed run of one workload and exports its trace.
//!
//! ```sh
//! cargo run --release -p idld-bench --bin obs -- crc32
//! cargo run --release -p idld-bench --bin obs -- crc32 --inject leak --seed 7
//! ```
//!
//! Writes three artifacts to the output directory (default `results/obs`):
//!
//! * `<name>.trace.json` — Chrome Trace Event Format; open
//!   `chrome://tracing` (or <https://ui.perfetto.dev>) and load the file to
//!   see per-stage tracks, occupancy counters, flush/recovery spans, and —
//!   for injected runs — the inject→detect span with its latency.
//! * `<name>.trace.txt` — the compact deterministic text format the
//!   golden-trace conformance suite diffs.
//! * `<name>.metrics.json` — the run's counter/histogram registry.
//!
//! `--inject dup|leak|pdst` samples one bug of that class from the
//! workload's golden census (deterministic per `--seed`) and attaches the
//! IDLD, bit-vector and counter checkers, exactly as campaign runs do.

use idld_bugs::{BugModel, BugSpec, SingleShotHook};
use idld_campaign::{injection_checkers, GoldenRun};
use idld_obs::{MetricsRegistry, RingRecorder};
use idld_rrs::NoFaults;
use idld_sim::{SimConfig, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

struct Args {
    workload: String,
    inject: Option<BugModel>,
    seed: u64,
    out: PathBuf,
    tail: usize,
}

fn usage() -> ! {
    eprintln!("usage: obs <workload> [--inject dup|leak|pdst] [--seed N] [--out DIR] [--tail N]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        inject: None,
        seed: 0x1d1d,
        out: PathBuf::from("results/obs"),
        tail: idld_obs::DEFAULT_TAIL,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("obs: {what} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--inject" => {
                args.inject = Some(match value("--inject").as_str() {
                    "dup" | "duplication" => BugModel::Duplication,
                    "leak" | "leakage" => BugModel::Leakage,
                    "pdst" | "corruption" => BugModel::PdstCorruption,
                    other => {
                        eprintln!("obs: unknown bug model {other:?} (dup|leak|pdst)");
                        usage()
                    }
                });
            }
            "--seed" => {
                args.seed = parse_u64(&value("--seed"));
            }
            "--out" => args.out = PathBuf::from(value("--out")),
            "--tail" => args.tail = parse_u64(&value("--tail")) as usize,
            "-h" | "--help" => usage(),
            w if !w.starts_with('-') && args.workload.is_empty() => {
                args.workload = w.to_string();
            }
            other => {
                eprintln!("obs: unexpected argument {other:?}");
                usage()
            }
        }
    }
    if args.workload.is_empty() {
        usage()
    }
    args
}

fn parse_u64(s: &str) -> u64 {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("obs: not a number: {s:?}");
        usage()
    })
}

fn main() {
    let args = parse_args();
    let workload = idld_workloads::by_name(&args.workload).unwrap_or_else(|| {
        eprintln!(
            "obs: unknown workload {:?}; suite: {}",
            args.workload,
            idld_workloads::suite()
                .iter()
                .map(|w| w.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    });

    let sim_cfg = SimConfig::default();
    let golden = GoldenRun::capture(&workload, sim_cfg)
        .unwrap_or_else(|e| panic!("golden run invalid: {e}"));

    let mut checkers = injection_checkers(&sim_cfg);

    let mut recorder = RingRecorder::new(idld_obs::DEFAULT_RING_CAPACITY);
    let mut sim = Simulator::new(&workload.program, sim_cfg);
    let budget = golden.timeout_budget();

    let (res, spec, activation) = match args.inject {
        Some(model) => {
            let mut rng = SmallRng::seed_from_u64(args.seed);
            let spec = BugSpec::sample(model, &golden.census, sim_cfg.rrs.pdst_bits(), &mut rng)
                .unwrap_or_else(|| {
                    eprintln!(
                        "obs: {} has no occurrence of any {} site",
                        workload.name,
                        model.label()
                    );
                    std::process::exit(1);
                });
            eprintln!("obs: injecting {spec}");
            let mut hook = SingleShotHook::new(spec);
            let res = sim.run_observed(
                &mut hook,
                &mut checkers,
                Some(&golden.trace),
                budget,
                &mut recorder,
            );
            (res, Some(spec), hook.activation_cycle())
        }
        None => {
            let mut hook = NoFaults;
            let res = sim.run_observed(
                &mut hook,
                &mut checkers,
                Some(&golden.trace),
                budget,
                &mut recorder,
            );
            (res, None, None)
        }
    };

    let mut metrics = MetricsRegistry::new();
    metrics.add("cycles", res.stats.cycles);
    metrics.add("committed", res.stats.committed);
    metrics.add("renamed", res.stats.renamed);
    metrics.add("issued", res.stats.issued);
    metrics.add("flushes", res.stats.flushes);
    metrics.add("mispredicts", res.stats.mispredicts);
    metrics.add("recovery_cycles", res.stats.recovery_cycles);
    metrics.add("events_recorded", recorder.total());
    for kind in idld_obs::EventKind::ALL {
        metrics.add(kind.label(), recorder.count_of(kind));
    }
    if let Some(at) = activation {
        metrics.observe("activation_cycle", at);
        if let Some(d) = checkers.detection_of("idld") {
            metrics.observe("idld_latency", d.cycle.saturating_sub(at));
        }
    }

    let config = format!(
        "workload={} seed={:#x} inject={} stop={:?}",
        workload.name,
        args.seed,
        spec.map_or("none".to_string(), |s| s.to_string()),
        res.stop,
    );
    let extra = [
        ("cycles", res.cycles.to_string()),
        ("committed", res.stats.committed.to_string()),
        (
            "idld_detection",
            checkers
                .detection_of("idld")
                .map_or("none".to_string(), |d| d.cycle.to_string()),
        ),
    ];
    let compact = idld_obs::compact_trace(&workload.name, &config, &recorder, &extra, args.tail);
    let events: Vec<_> = recorder.events().cloned().collect();
    let chrome = idld_obs::chrome_trace(&format!("idld {}", workload.name), &events);

    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", args.out.display()));
    let write = |suffix: &str, contents: &str| {
        let path = args.out.join(format!("{}.{suffix}", workload.name));
        std::fs::write(&path, contents)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    };
    write("trace.json", &chrome);
    write("trace.txt", &compact);
    write("metrics.json", &(metrics.to_json(0) + "\n"));

    println!(
        "{}: {} cycles, {} events ({} retained), digest {:016x}",
        workload.name,
        res.cycles,
        recorder.total(),
        recorder.retained(),
        recorder.digest(),
    );
    if let (Some(at), Some(d)) = (activation, checkers.detection_of("idld")) {
        println!(
            "inject→detect: activation at cycle {at}, idld detection at {} (latency {})",
            d.cycle,
            d.cycle - at
        );
    }
}
