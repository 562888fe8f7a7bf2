//! Corpus persistence: findings as `.asm` files plus seed metadata.
//!
//! Every finding is saved as a directory-free trio under the corpus
//! directory (default `results/fuzz/corpus/`):
//!
//! * `<stem>.asm` — the (minimized) reproducer, disassembled; feed it back
//!   with `fuzz replay <stem>.asm` or any tool that calls
//!   [`idld_isa::parse_asm`];
//! * `<stem>.orig.asm` — the program exactly as generated, for bit-for-bit
//!   replay verification against the seed;
//! * `<stem>.meta` — `key: value` lines recording the seed, iteration,
//!   mode, finding kind and detail.
//!
//! `fuzz replay` regenerates an entry whose `.meta` carries `seed` and
//! `iter` from scratch and confirms it matches. Hand-reduced entries carry
//! neither (and no `.orig.asm`); the `corpus_regressions` test pins every
//! committed entry, those included: its metadata, its parse round trip,
//! and a clean differential run across widths and feature toggles.

use idld_isa::{disassemble, parse_asm, Program};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One corpus entry ready to be written (or just read back).
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// File stem, e.g. `diff-0xidld-00042-reg-mismatch`.
    pub stem: String,
    /// The minimized reproducer.
    pub program: Program,
    /// The program exactly as generated (pre-minimization).
    pub original: Program,
    /// Metadata `key: value` pairs (seed, iter, mode, kind, detail, ...).
    pub meta: Vec<(String, String)>,
}

impl CorpusEntry {
    /// Writes the entry's three files under `dir` (created if missing).
    /// Returns the path of the `.asm` reproducer.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let asm_path = dir.join(format!("{}.asm", self.stem));
        fs::write(&asm_path, disassemble(&self.program))?;
        fs::write(
            dir.join(format!("{}.orig.asm", self.stem)),
            disassemble(&self.original),
        )?;
        let mut meta = String::new();
        for (k, v) in &self.meta {
            meta.push_str(k);
            meta.push_str(": ");
            meta.push_str(v);
            meta.push('\n');
        }
        fs::write(dir.join(format!("{}.meta", self.stem)), meta)?;
        Ok(asm_path)
    }
}

/// Loads a program from an `.asm` corpus file.
pub fn load_asm(path: &Path) -> Result<Program, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_asm(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads the `key: value` metadata next to a corpus `.asm` file (accepts
/// the `.asm`, `.orig.asm` or `.meta` path itself).
pub fn load_meta(path: &Path) -> Result<Vec<(String, String)>, String> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("{}: not a file path", path.display()))?;
    let stem = name
        .strip_suffix(".orig.asm")
        .or_else(|| name.strip_suffix(".asm"))
        .or_else(|| name.strip_suffix(".meta"))
        .unwrap_or(name);
    let meta_path = path.with_file_name(format!("{stem}.meta"));
    let text =
        fs::read_to_string(&meta_path).map_err(|e| format!("{}: {e}", meta_path.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(':')?;
            Some((k.trim().to_string(), v.trim().to_string()))
        })
        .collect())
}

/// Looks up one metadata key.
pub fn meta_value<'m>(meta: &'m [(String, String)], key: &str) -> Option<&'m str> {
    meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idld_isa::reg::r;
    use idld_isa::Asm;

    fn tiny() -> Program {
        let mut a = Asm::new();
        a.li(r(1), 42);
        a.out(r(1));
        a.halt();
        a.finish()
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("idld-fuzz-corpus-test");
        let _ = fs::remove_dir_all(&dir);
        let entry = CorpusEntry {
            stem: "diff-0-00001-output-mismatch".to_string(),
            program: tiny(),
            original: tiny(),
            meta: vec![
                ("seed".to_string(), "0".to_string()),
                ("iter".to_string(), "1".to_string()),
                ("kind".to_string(), "output-mismatch".to_string()),
            ],
        };
        let asm_path = entry.save(&dir).expect("save");
        let p = load_asm(&asm_path).expect("parse");
        assert_eq!(p.insts, tiny().insts);
        let meta = load_meta(&asm_path).expect("meta");
        assert_eq!(meta_value(&meta, "kind"), Some("output-mismatch"));
        assert_eq!(meta_value(&meta, "iter"), Some("1"));
        let orig = load_asm(&dir.join("diff-0-00001-output-mismatch.orig.asm")).expect("orig");
        assert_eq!(orig.insts, tiny().insts);
        let _ = fs::remove_dir_all(&dir);
    }
}
