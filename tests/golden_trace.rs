//! Golden-trace conformance suite.
//!
//! Every suite workload has a blessed compact trace under `tests/golden/`:
//! the header, per-kind event counts, the FNV-1a digest of the *entire*
//! event stream, and the final 64 events of a clean (fault-free) run at
//! the default configuration. Each test re-simulates its workload with a
//! [`RingRecorder`] attached, renders the same compact format, and
//! byte-diffs it against the blessed file — so any change to
//! cycle-accurate pipeline behavior, event emission, or the exporter
//! itself fails loudly with a unified-style context diff.
//!
//! Regenerate after an *intentional* behavior change with:
//!
//! ```sh
//! IDLD_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! and review the resulting `tests/golden/*.trace.txt` diff like any
//! other code change. Traces are identical at any `--test-threads`
//! count: each test owns its simulator and recorder.

use idld::campaign::{injection_checkers, smt_checkers};
use idld::core::CheckerSet;
use idld::isa::Emulator;
use idld::obs::{compact_trace, parse_digest, RingRecorder};
use idld::rrs::NoFaults;
use idld::sim::{SimConfig, SimStop, Simulator, SmtSimulator};
use idld::workloads::{smt_pairs, SmtScenario};
use std::path::{Path, PathBuf};

const BUDGET: u64 = 500_000_000;

/// Simulates a clean run of `name` at workload `scale` and renders its
/// compact trace.
fn record_trace(name: &str, scale: u32) -> String {
    let workload = idld::workloads::by_name_scaled(name, scale).expect("suite workload exists");
    let cfg = SimConfig::default();
    // The set campaign injection runs attach; on a clean run none of
    // them may fire, so the golden traces also pin down zero false alarms.
    let mut cset = injection_checkers(&cfg);
    let mut sim = Simulator::new(&workload.program, cfg);
    let mut recorder = RingRecorder::default();
    let res = sim.run_observed(&mut NoFaults, &mut cset, None, BUDGET, &mut recorder);
    assert_eq!(res.stop, SimStop::Halted, "{name}: clean run must halt");
    assert!(
        cset.detections().iter().all(|(_, d)| d.is_none()),
        "{name}: no checker may fire on a clean run"
    );
    let extra = [
        ("cycles", res.cycles.to_string()),
        ("committed", res.stats.committed.to_string()),
    ];
    let what = if scale == 1 {
        "clean default-config run".to_string()
    } else {
        format!("clean default-config run, workload scale {scale}")
    };
    compact_trace(name, &what, &recorder, &extra, idld::obs::DEFAULT_TAIL)
}

fn golden_path(name: &str, scale: u32) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let dir = if scale == 1 {
        dir
    } else {
        dir.join(format!("scale{scale}"))
    };
    dir.join(format!("{name}.trace.txt"))
}

/// Line-level context diff, enough to localize a conformance break.
fn diff(expected: &str, actual: &str) -> String {
    let (e, a): (Vec<_>, Vec<_>) = (expected.lines().collect(), actual.lines().collect());
    let mut out = String::new();
    let n = e.len().max(a.len());
    let mut shown = 0;
    for i in 0..n {
        let (el, al) = (e.get(i), a.get(i));
        if el != al {
            out.push_str(&format!(
                "  line {:>4}: expected {:?}\n             actual  {:?}\n",
                i + 1,
                el.unwrap_or(&"<missing>"),
                al.unwrap_or(&"<missing>"),
            ));
            shown += 1;
            if shown == 12 {
                out.push_str("  ... (further differences elided)\n");
                break;
            }
        }
    }
    out
}

/// Simulates a clean SMT run of the paired scenario and renders its
/// compact trace (thread-tagged events included).
fn record_smt_trace(scenario: &SmtScenario) -> String {
    let cfg = SimConfig::default();
    let mut cset = smt_checkers(&cfg);
    let mut sim = SmtSimulator::new([&scenario.a.program, &scenario.b.program], cfg);
    let mut recorder = RingRecorder::default();
    let res = sim.run_observed(&mut NoFaults, &mut cset, None, BUDGET, &mut recorder);
    assert_eq!(
        res.stop,
        SimStop::Halted,
        "{}: clean SMT run must halt",
        scenario.name
    );
    assert!(
        cset.detections().iter().all(|(_, d)| d.is_none()),
        "{}: no checker may fire on a clean SMT run",
        scenario.name
    );
    let extra = [
        ("cycles", res.cycles.to_string()),
        ("committed", res.committed.to_string()),
    ];
    compact_trace(
        &scenario.name,
        "clean default-config 2-thread SMT run",
        &recorder,
        &extra,
        idld::obs::DEFAULT_TAIL,
    )
}

fn smt_golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/smt")
        .join(format!("{name}.trace.txt"))
}

fn check(name: &str, scale: u32) {
    let actual = record_trace(name, scale);
    let path = golden_path(name, scale);
    compare(name, &path, &actual);
}

fn check_smt(name: &str) {
    let scenario = smt_pairs()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown SMT scenario {name}"));
    let actual = record_smt_trace(&scenario);
    compare(name, &smt_golden_path(name), &actual);
}

/// Byte-diffs `actual` against the blessed file at `path`, or rewrites
/// the file when `IDLD_BLESS=1`.
fn compare(name: &str, path: &Path, actual: &str) {
    if std::env::var("IDLD_BLESS").is_ok_and(|v| v == "1") {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        }
        std::fs::write(path, actual)
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {} ({e}); run IDLD_BLESS=1 cargo test --test golden_trace",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name}: trace deviates from blessed golden (digest {} -> {}):\n{}",
        parse_digest(&expected).map_or("?".into(), |d| format!("{d:016x}")),
        parse_digest(actual).map_or("?".into(), |d| format!("{d:016x}")),
        diff(&expected, actual),
    );
}

macro_rules! golden_trace_tests {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), 1);
        }
    )*};
}

golden_trace_tests!(
    sha,
    crc32,
    qsort,
    dijkstra,
    fft,
    stringsearch,
    bitcount,
    basicmath,
    susan,
    rijndael,
);

// Scale-10 conformance: the same workloads at 10× dynamic size (the
// paper-scale sweep configuration), blessed under `tests/golden/scale10/`.
// Roughly 10× the simulation work of the scale-1 suite, so these are
// `#[ignore]`d from the default `cargo test` pass; CI runs them in the
// release-mode golden-trace job with `-- --ignored`, and blessing is
//
// ```sh
// IDLD_BLESS=1 cargo test --release --test golden_trace -- --ignored
// ```
macro_rules! golden_trace_scale10_tests {
    ($($name:ident => $workload:ident),* $(,)?) => {$(
        #[test]
        #[ignore = "10x simulation work; exercised by the CI release-mode golden-trace job"]
        fn $name() {
            check(stringify!($workload), 10);
        }
    )*};
}

golden_trace_scale10_tests!(
    scale10_sha => sha,
    scale10_crc32 => crc32,
    scale10_qsort => qsort,
    scale10_dijkstra => dijkstra,
    scale10_fft => fft,
    scale10_stringsearch => stringsearch,
    scale10_bitcount => bitcount,
    scale10_basicmath => basicmath,
    scale10_susan => susan,
    scale10_rijndael => rijndael,
);

// SMT conformance: each paired scenario's clean 2-thread run, blessed
// under `tests/golden/smt/`. These traces additionally pin the
// thread-select interleaving and the thread tags on every event; bless
// with
//
// ```sh
// IDLD_BLESS=1 cargo test --test golden_trace smt_
// ```
macro_rules! golden_trace_smt_tests {
    ($($test:ident => $name:expr),* $(,)?) => {$(
        #[test]
        fn $test() {
            check_smt($name);
        }
    )*};
}

golden_trace_smt_tests!(
    smt_crc32_sha => "crc32+sha",
    smt_bitcount_basicmath => "bitcount+basicmath",
    smt_qsort_stringsearch => "qsort+stringsearch",
);

/// The blessed set exactly covers the workload suite — a workload added
/// to the suite without a golden trace (or a stale file for a removed
/// one) fails here rather than silently escaping conformance.
#[test]
fn golden_set_matches_suite() {
    if std::env::var("IDLD_BLESS").is_ok_and(|v| v == "1") {
        // Blessing runs in parallel with this check; the set is validated
        // by the next ordinary `cargo test` pass.
        return;
    }
    let mut suite: Vec<String> = idld::workloads::suite()
        .iter()
        .map(|w| w.name.clone())
        .collect();
    suite.sort();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut blessed: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/golden exists")
        .filter_map(|e| {
            e.ok()?
                .file_name()
                .to_str()?
                .strip_suffix(".trace.txt")
                .map(str::to_string)
        })
        .collect();
    blessed.sort();
    assert_eq!(
        suite, blessed,
        "tests/golden must hold exactly one blessed trace per suite workload"
    );
    // The scale-10 set mirrors the suite too (the traces themselves are
    // verified by the `scale10_*` release-mode tests).
    let dir10 = dir.join("scale10");
    let mut blessed10: Vec<String> = std::fs::read_dir(&dir10)
        .expect("tests/golden/scale10 exists")
        .filter_map(|e| {
            e.ok()?
                .file_name()
                .to_str()?
                .strip_suffix(".trace.txt")
                .map(str::to_string)
        })
        .collect();
    blessed10.sort();
    assert_eq!(
        suite, blessed10,
        "tests/golden/scale10 must hold exactly one blessed trace per suite workload"
    );
    // And the SMT tier mirrors the paired-scenario set.
    let mut scenarios: Vec<String> = smt_pairs().iter().map(|s| s.name.clone()).collect();
    scenarios.sort();
    let dirsmt = dir.join("smt");
    let mut blessed_smt: Vec<String> = std::fs::read_dir(&dirsmt)
        .expect("tests/golden/smt exists")
        .filter_map(|e| {
            e.ok()?
                .file_name()
                .to_str()?
                .strip_suffix(".trace.txt")
                .map(str::to_string)
        })
        .collect();
    blessed_smt.sort();
    assert_eq!(
        scenarios, blessed_smt,
        "tests/golden/smt must hold exactly one blessed trace per SMT scenario"
    );
}

/// Snapshot-fork trace equivalence at the workload level: pausing a
/// recorded run mid-flight, snapshotting, restoring into a fresh
/// simulator through the emulator gate, and finishing into a clone of
/// the paused recorder must produce the same digest, counts and retained
/// tail as the uninterrupted run.
#[test]
fn forked_traces_match_cold_traces() {
    for name in ["crc32", "bitcount", "basicmath"] {
        let workload = idld::workloads::by_name(name).expect("suite workload exists");
        let cfg = SimConfig::default();

        let mut cset = injection_checkers(&cfg);
        let mut sim = Simulator::new(&workload.program, cfg);
        let mut cold = RingRecorder::default();
        let res = sim.run_observed(&mut NoFaults, &mut cset, None, BUDGET, &mut cold);
        assert_eq!(res.stop, SimStop::Halted);
        let pause = res.cycles / 3;

        // Cold run up to the pause point, snapshot...
        let mut cset1 = injection_checkers(&cfg);
        let mut sim1 = Simulator::new(&workload.program, cfg);
        let mut rec1 = RingRecorder::default();
        let mut seg1 = sim1.begin_run(None, BUDGET);
        let stop = seg1.step_until_observed(&mut sim1, &mut NoFaults, &mut cset1, pause, &mut rec1);
        assert!(stop.is_none(), "{name}: must pause before completion");
        let snap = sim1.snapshot(&cset1);

        // ...then resume in a different simulator and a recorder clone.
        let mut emu = Emulator::new(&workload.program);
        emu.run_to_step(snap.committed()).expect("clean prefix");
        let mut cset2 = CheckerSet::new();
        let mut sim2 = Simulator::new(&workload.program, cfg);
        let mut rec2 = rec1.clone();
        sim2.restore_from_arch(&snap, &emu, &mut cset2)
            .expect("bit-exactness gate");
        let res2 = sim2.run_observed(&mut NoFaults, &mut cset2, None, BUDGET, &mut rec2);
        assert_eq!(res2.stop, SimStop::Halted);

        assert_eq!(cold.digest(), rec2.digest(), "{name}: digest must match");
        assert_eq!(cold.total(), rec2.total(), "{name}: event count must match");
        assert_eq!(cold.counts(), rec2.counts(), "{name}: per-kind counts");
        assert!(
            cold.events().eq(rec2.events()),
            "{name}: retained tails must be identical"
        );
    }
}
