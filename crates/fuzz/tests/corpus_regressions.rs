//! Every committed corpus entry stays a passing regression.
//!
//! `fuzz replay` regenerates the entries whose `.meta` carries `seed` and
//! `iter`; the hand-reduced ones have no seed to regenerate from, so this
//! test pins all of them directly. For every `results/fuzz/corpus/*.asm`
//! (not `*.orig.asm`) it checks that the entry has a `.meta` with both or
//! neither of `seed`/`iter`, that the source parses and round-trips
//! through `disassemble`, and that the differential oracle is clean at
//! widths 1, 2, 4 and 8 with move/idiom elimination off and on and memory
//! dependence speculation off and on.

use idld_fuzz::corpus::{load_asm, load_meta, meta_value};
use idld_fuzz::differential;
use idld_isa::{disassemble, parse_asm};
use idld_sim::SimConfig;
use std::path::{Path, PathBuf};

fn corpus() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fuzz/corpus");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("corpus directory entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".asm") && !name.ends_with(".orig.asm")
        })
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "no corpus entries in {}",
        dir.display()
    );
    entries
}

/// Widths 1/2/4/8, each with elimination and speculation off and on.
fn configs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for width in [1, 2, 4, 8] {
        for elim in [false, true] {
            for speculate in [false, true] {
                let mut c = SimConfig::with_width(width);
                c.rrs.move_elim = elim;
                c.rrs.idiom_elim = elim;
                c.mem_dep_speculation = speculate;
                cfgs.push(c);
            }
        }
    }
    cfgs
}

#[test]
fn every_entry_has_consistent_metadata() {
    for path in corpus() {
        let meta = load_meta(&path).unwrap_or_else(|e| panic!("missing .meta: {e}"));
        let seed = meta_value(&meta, "seed").is_some();
        let iter = meta_value(&meta, "iter").is_some();
        assert_eq!(
            seed,
            iter,
            "{}: .meta must carry both seed and iter, or neither",
            path.display()
        );
    }
}

#[test]
fn every_entry_parses_and_round_trips() {
    for path in corpus() {
        let program = load_asm(&path).unwrap_or_else(|e| panic!("{e}"));
        let text = disassemble(&program);
        let reparsed = parse_asm(&text)
            .unwrap_or_else(|e| panic!("{}: disassembly does not reparse: {e}", path.display()));
        assert_eq!(reparsed, program, "{}: round trip", path.display());
    }
}

#[test]
fn every_entry_is_differentially_clean() {
    let cfgs = configs();
    for path in corpus() {
        let program = load_asm(&path).unwrap_or_else(|e| panic!("{e}"));
        let outcome = differential(&program, &cfgs);
        assert!(
            outcome.clean(),
            "{}: {:?}",
            path.display(),
            outcome.divergences
        );
    }
}
