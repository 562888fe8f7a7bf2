//! `fuzz` — the differential-fuzzing CLI.
//!
//! ```text
//! fuzz run      [--seed S] [--iters N] [--mode diff|soundness|both]
//!               [--widths 2,4] [--per-model K] [--corpus DIR]
//!               [--no-minimize] [--quiet]
//! fuzz replay   --seed S --iter I [run options]
//! fuzz replay   <corpus-entry.asm>
//! fuzz minimize <corpus-entry.asm>
//! ```
//!
//! Seeds accept decimal and `0x` hex; any other string (e.g. `0xIDLD`) is
//! hashed deterministically, so memorable seeds work too. `run` exits
//! non-zero when it finds anything; `replay` of a corpus entry verifies
//! that regenerating from the recorded `(seed, iter)` reproduces the
//! generated program **bit for bit**, then reports whether the recorded
//! finding still reproduces on the current code.

use idld_fuzz::{corpus, run_iteration, FuzzConfig, Mode};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parses a seed: decimal, `0x` hex, or (for anything else) an FNV-1a
/// hash of the string — deterministic across runs and platforms.
fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The widest pipeline `fuzz` builds: the widest configuration the
/// repository runs (the `w8c8r192` sweep point).
const MAX_WIDTH: usize = 8;

/// Parses a comma-separated width list, each width in `1..=MAX_WIDTH`.
/// `--widths` and the corpus metadata readers share it, so a replay
/// accepts exactly the widths a run does.
fn parse_widths(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|w| match w.trim().parse::<usize>() {
            Ok(w @ 1..=MAX_WIDTH) => Ok(w),
            _ => Err(format!("'{}' is not a width in 1..={MAX_WIDTH}", w.trim())),
        })
        .collect()
}

/// Reads the configuration and iteration a corpus entry's metadata
/// records into `cfg`. `seed` and `iter` are required; `mode`, `widths`
/// and `per_model` are optional, but a key that is present and does not
/// parse is an error naming it: falling back to a default would replay
/// another configuration than the one the finding was recorded under.
fn config_from_meta(
    mut cfg: FuzzConfig,
    meta: &[(String, String)],
) -> Result<(FuzzConfig, u64), String> {
    let get = |k: &str| corpus::meta_value(meta, k);
    let bad = |k: &str, e: String| format!("metadata key '{k}': {e}");
    cfg.seed = parse_seed(get("seed").ok_or("metadata lacks 'seed'")?);
    let iter = get("iter")
        .ok_or("metadata lacks 'iter'")?
        .parse::<u64>()
        .map_err(|e| bad("iter", e.to_string()))?;
    if let Some(m) = get("mode") {
        cfg.mode = Mode::parse(m).ok_or_else(|| bad("mode", format!("unknown mode '{m}'")))?;
    }
    if let Some(w) = get("widths") {
        cfg.widths = parse_widths(w).map_err(|e| bad("widths", e))?;
    }
    if let Some(pm) = get("per_model") {
        cfg.per_model = pm
            .parse::<usize>()
            .map_err(|e| bad("per_model", e.to_string()))?;
    }
    Ok((cfg, iter))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fuzz run      [--seed S] [--iters N] [--mode diff|soundness|both]\n\
         \x20                 [--widths 2,4] [--per-model K] [--corpus DIR]\n\
         \x20                 [--no-minimize] [--quiet]\n\
         \x20      fuzz replay   --seed S --iter I [run options]\n\
         \x20      fuzz replay   <corpus-entry.asm>\n\
         \x20      fuzz minimize <corpus-entry.asm>"
    );
    ExitCode::from(2)
}

/// Options shared by the subcommands, parsed from `--flag value` pairs.
struct Opts {
    cfg: FuzzConfig,
    iter: Option<u64>,
    quiet: bool,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        cfg: FuzzConfig {
            corpus_dir: Some(PathBuf::from("results/fuzz/corpus")),
            ..FuzzConfig::default()
        },
        iter: None,
        quiet: false,
        positional: Vec::new(),
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => o.cfg.seed = parse_seed(&value(&mut i)?),
            "--iters" => {
                o.cfg.iters = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--iter" => o.iter = Some(value(&mut i)?.parse().map_err(|e| format!("--iter: {e}"))?),
            "--mode" => {
                let v = value(&mut i)?;
                o.cfg.mode = Mode::parse(&v).ok_or_else(|| format!("unknown mode '{v}'"))?;
            }
            "--widths" => {
                o.cfg.widths =
                    parse_widths(&value(&mut i)?).map_err(|e| format!("--widths: {e}"))?
            }
            "--per-model" => {
                o.cfg.per_model = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--per-model: {e}"))?
            }
            "--corpus" => o.cfg.corpus_dir = Some(PathBuf::from(value(&mut i)?)),
            "--no-corpus" => o.cfg.corpus_dir = None,
            "--no-minimize" => o.cfg.minimize = false,
            "--quiet" => o.quiet = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => o.positional.push(args[i].clone()),
        }
        i += 1;
    }
    Ok(o)
}

fn cmd_run(o: Opts) -> ExitCode {
    let cfg = o.cfg;
    eprintln!(
        "fuzz: seed {:#x}, {} iters, mode {}, widths {:?}",
        cfg.seed,
        cfg.iters,
        cfg.mode.label(),
        cfg.widths
    );
    let report = idld_fuzz::run_fuzz_with(&cfg, |iter, found| {
        if !o.quiet && (iter + 1) % 100 == 0 {
            eprintln!(
                "fuzz: {}/{} iterations, {found} findings",
                iter + 1,
                cfg.iters
            );
        }
    });
    for f in &report.findings {
        println!(
            "FINDING iter {:05} [{}] {}: {}",
            f.iter, f.mode, f.kind, f.detail
        );
        if let Some(dir) = &cfg.corpus_dir {
            println!(
                "  saved: {}",
                dir.join(format!("{}.asm", f.stem(cfg.seed))).display()
            );
        }
    }
    println!(
        "fuzz: {} iterations ({} differential, {} soundness programs / {} injections, {} skipped): {} findings",
        report.iters,
        report.diff_runs,
        report.soundness_runs,
        report.soundness_injections,
        report.soundness_skipped,
        report.findings.len()
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replays one iteration and prints its outcome; returns true when clean.
fn replay_iteration(cfg: &FuzzConfig, iter: u64) -> bool {
    let out = run_iteration(cfg, iter);
    println!(
        "replay: seed {:#x} iter {iter}: {} instructions",
        cfg.seed,
        out.program.insts.len()
    );
    let mut clean = true;
    if let Some(d) = &out.diff {
        for div in &d.divergences {
            println!("  diff: {div}");
            clean = false;
        }
    }
    if let Some(s) = &out.soundness {
        if s.skipped {
            println!("  soundness: skipped (program faults by design)");
        }
        for v in &s.violations {
            println!("  soundness: {v}");
            clean = false;
        }
    }
    if clean {
        println!("  clean: no divergences, no soundness violations");
    }
    clean
}

fn cmd_replay(o: Opts) -> ExitCode {
    // Corpus-entry replay: recover (seed, iter, mode, ...) from the
    // metadata, regenerate, and verify bit-for-bit equality with the
    // recorded original.
    if let Some(path) = o.positional.first() {
        let path = Path::new(path);
        let meta = match corpus::load_meta(path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("fuzz replay: {e}");
                return ExitCode::from(2);
            }
        };
        let (cfg, iter) = match config_from_meta(o.cfg, &meta) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("fuzz replay: {e}");
                return ExitCode::from(2);
            }
        };

        // Bit-for-bit check against the recorded original.
        let stem = path
            .file_name()
            .and_then(|n| n.to_str())
            .map(|n| {
                n.strip_suffix(".orig.asm")
                    .or_else(|| n.strip_suffix(".asm"))
                    .or_else(|| n.strip_suffix(".meta"))
                    .unwrap_or(n)
            })
            .unwrap_or_default();
        let orig_path = path.with_file_name(format!("{stem}.orig.asm"));
        let regenerated = run_iteration(&cfg, iter).program;
        match corpus::load_asm(&orig_path) {
            Ok(orig) => {
                if orig.insts == regenerated.insts && orig.image == regenerated.image {
                    println!(
                        "replay: regeneration matches {} bit for bit",
                        orig_path.display()
                    );
                } else {
                    eprintln!(
                        "fuzz replay: regenerated program DIFFERS from {}",
                        orig_path.display()
                    );
                    return ExitCode::from(2);
                }
            }
            Err(e) => eprintln!("fuzz replay: no original to verify against ({e})"),
        }
        let clean = replay_iteration(&cfg, iter);
        if clean {
            println!("replay: recorded finding no longer reproduces (fixed?)");
        }
        return ExitCode::SUCCESS;
    }

    // Seed/iter replay.
    let Some(iter) = o.iter else {
        eprintln!("fuzz replay: need --iter (or a corpus entry path)");
        return ExitCode::from(2);
    };
    if replay_iteration(&o.cfg, iter) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_minimize(o: Opts) -> ExitCode {
    let Some(path) = o.positional.first() else {
        eprintln!("fuzz minimize: need a corpus entry path");
        return ExitCode::from(2);
    };
    let path = Path::new(path);
    let program = match corpus::load_asm(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fuzz minimize: {e}");
            return ExitCode::from(2);
        }
    };
    let meta = match corpus::load_meta(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fuzz minimize: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = corpus::meta_value(&meta, "kind").map(str::to_string) else {
        eprintln!("fuzz minimize: metadata lacks a finding kind");
        return ExitCode::from(2);
    };
    let (cfg, iter) = match config_from_meta(o.cfg, &meta) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fuzz minimize: {e}");
            return ExitCode::from(2);
        }
    };
    // Rebuild the iteration's simulator configurations so the predicate
    // matches the one the finding was recorded under.
    let out = run_iteration(&cfg, iter);
    let is_diff = !matches!(cfg.mode, Mode::Soundness);
    let minimized = if is_diff {
        idld_fuzz::minimize(&program, |p| {
            idld_fuzz::differential(p, &out.sim_cfgs)
                .divergences
                .iter()
                .any(|d| d.kind() == kind)
        })
    } else {
        let scfg = idld_fuzz::soundness_config(&out.sim_cfgs, iter);
        idld_fuzz::minimize(&program, |p| {
            let mut rng = idld_fuzz::iter_rng(cfg.seed ^ 0x5eed_5eed, iter);
            idld_fuzz::soundness(p, scfg, cfg.per_model, &mut rng)
                .violations
                .iter()
                .any(|v| v.kind() == kind)
        })
    };
    eprintln!(
        "fuzz minimize: {} -> {} instructions",
        program.insts.len(),
        minimized.insts.len()
    );
    print!("{}", idld_isa::disassemble(&minimized));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return usage();
        }
    };
    match cmd.as_str() {
        "run" => cmd_run(opts),
        "replay" => cmd_replay(opts),
        "minimize" => cmd_minimize(opts),
        _ => usage(),
    }
}
