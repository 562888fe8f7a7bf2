//! The `fuzz` binary refuses widths and corpus metadata it cannot use:
//! exit code 2 with the offending flag or metadata key named, never a
//! panic (exit 101) and never a silent fall-back to a default.

use idld_fuzz::corpus::CorpusEntry;
use idld_fuzz::{run_iteration, FuzzConfig};
use std::path::PathBuf;
use std::process::{Command, Output};

fn fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .args(args)
        .output()
        .expect("the fuzz binary starts")
}

/// Asserts `out` is a refusal: exit code 2 with `needle` on stderr.
fn assert_refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "expected '{needle}' in: {stderr}");
}

fn run_with_widths(widths: &str) -> Output {
    fuzz(&[
        "run",
        "--widths",
        widths,
        "--iters",
        "1",
        "--no-corpus",
        "--quiet",
    ])
}

/// Writes a corpus entry for iteration 0 of seed 1 (the seed and
/// iteration every test's metadata names, so a replay regenerates the
/// recorded program) and returns the path of its `.asm` file. Each test
/// uses its own `name`.
fn corpus_entry(name: &str, meta: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idld-fuzz-cli-{}-{name}", std::process::id()));
    let cfg = FuzzConfig {
        seed: 1,
        ..FuzzConfig::default()
    };
    let program = run_iteration(&cfg, 0).program;
    CorpusEntry {
        stem: name.to_string(),
        program: program.clone(),
        original: program,
        meta: meta
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
    .save(&dir)
    .expect("corpus entry written")
}

fn replay_or_minimize(cmd: &str, name: &str, meta: &[(&str, &str)]) -> Output {
    let path = corpus_entry(name, meta);
    let out = fuzz(&[cmd, path.to_str().expect("utf-8 temp path")]);
    let _ = std::fs::remove_dir_all(path.parent().expect("entry has a directory"));
    out
}

#[test]
fn run_refuses_width_zero() {
    assert_refused(&run_with_widths("0"), "--widths");
}

#[test]
fn run_refuses_a_width_that_cannot_be_allocated() {
    assert_refused(&run_with_widths("18446744073709551615"), "--widths");
}

#[test]
fn run_accepts_widths_up_to_eight_and_refuses_nine() {
    assert_refused(&run_with_widths("2,9"), "--widths");
    let out = run_with_widths("1,8");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn replay_refuses_malformed_widths_metadata() {
    let meta = [("seed", "0x1"), ("iter", "0"), ("widths", "2,four")];
    assert_refused(&replay_or_minimize("replay", "rw", &meta), "'widths'");
}

#[test]
fn replay_refuses_out_of_range_widths_metadata() {
    let meta = [("seed", "0x1"), ("iter", "0"), ("widths", "0")];
    assert_refused(&replay_or_minimize("replay", "rz", &meta), "'widths'");
}

#[test]
fn replay_refuses_malformed_per_model_metadata() {
    let meta = [("seed", "0x1"), ("iter", "0"), ("per_model", "-1")];
    assert_refused(&replay_or_minimize("replay", "rp", &meta), "'per_model'");
}

#[test]
fn minimize_refuses_malformed_widths_metadata() {
    let meta = [
        ("seed", "0x1"),
        ("iter", "0"),
        ("kind", "output-mismatch"),
        ("widths", "2;4"),
    ];
    assert_refused(&replay_or_minimize("minimize", "mw", &meta), "'widths'");
}

#[test]
fn minimize_refuses_malformed_per_model_metadata() {
    let meta = [
        ("seed", "0x1"),
        ("iter", "0"),
        ("kind", "output-mismatch"),
        ("per_model", "one"),
    ];
    assert_refused(&replay_or_minimize("minimize", "mp", &meta), "'per_model'");
}

#[test]
fn minimize_requires_iter() {
    let meta = [("seed", "0x1"), ("kind", "output-mismatch")];
    assert_refused(&replay_or_minimize("minimize", "mi", &meta), "'iter'");
}

#[test]
fn minimize_refuses_malformed_iter() {
    let meta = [("seed", "0x1"), ("iter", "3x"), ("kind", "output-mismatch")];
    assert_refused(&replay_or_minimize("minimize", "mx", &meta), "'iter'");
}
