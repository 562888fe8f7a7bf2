//! Executable programs: instruction stream plus initial data image.

use crate::inst::Inst;
use crate::mem::Memory;

/// Default data memory size for programs: 1 MiB.
pub const DEFAULT_MEM_SIZE: usize = 1 << 20;

/// A complete executable: instruction stream, initial data image and memory
/// size. Produced by [`crate::asm::Asm::finish`], consumed by the
/// architectural emulator and the out-of-order simulator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// The instruction stream; program counters index into this vector.
    pub insts: Vec<Inst>,
    /// Initial data regions copied into memory before execution.
    pub image: Vec<(u64, Vec<u8>)>,
    /// Data memory size in bytes.
    pub mem_size: usize,
    /// Human-readable name (used in experiment reports).
    pub name: String,
}

impl Program {
    /// Creates a program from raw instructions with an empty data image.
    pub fn from_insts(insts: Vec<Inst>) -> Self {
        Program {
            insts,
            image: Vec::new(),
            mem_size: DEFAULT_MEM_SIZE,
            name: String::new(),
        }
    }

    /// Number of static instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Adds an initial data region at `addr`.
    pub fn add_image(&mut self, addr: u64, data: Vec<u8>) {
        self.image.push((addr, data));
    }

    /// Builds the initial data memory for one execution of this program,
    /// with every page clean (see [`Memory::reset_dirty`]).
    pub fn build_memory(&self) -> Memory {
        let mut m = Memory::new(self.mem_size);
        for (addr, data) in &self.image {
            m.write_image(*addr, data);
        }
        m.mark_clean();
        m
    }

    /// Fetches the instruction at `pc`, or `None` when `pc` runs off the end
    /// of the instruction stream (an architectural control-flow fault).
    #[inline]
    pub fn fetch(&self, pc: usize) -> Option<Inst> {
        self.insts.get(pc).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_built_from_image() {
        let mut p = Program::from_insts(vec![Inst::Halt]);
        p.mem_size = 128;
        p.add_image(16, vec![9, 8, 7]);
        let m = p.build_memory();
        assert_eq!(m.size(), 128);
        assert_eq!(m.read_image(16, 3), &[9, 8, 7]);
        assert_eq!(m.load(0, 8).unwrap(), 0);
    }

    #[test]
    fn fetch_bounds() {
        let p = Program::from_insts(vec![Inst::Nop, Inst::Halt]);
        assert_eq!(p.fetch(0), Some(Inst::Nop));
        assert_eq!(p.fetch(1), Some(Inst::Halt));
        assert_eq!(p.fetch(2), None);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }
}
