//! Byte-addressed data memory with precise bounds checking.

use std::fmt;

/// A faulting memory access, reported with the offending address and width.
///
/// In the outcome classification of the paper (§VI.C) an architectural memory
/// fault at commit time lands a run in the **Crash** class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemFault {
    /// The first byte address of the faulting access.
    pub addr: u64,
    /// The access width in bytes.
    pub width: usize,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault: {}-byte access at {:#x}",
            self.width, self.addr
        )
    }
}

impl std::error::Error for MemFault {}

/// log2 of the dirty-tracking page size (4 KiB pages).
const PAGE_SHIFT: u32 = 12;

/// Flat little-endian byte-addressed data memory.
///
/// Unaligned accesses are permitted (they are assembled from byte accesses),
/// keeping the architectural fault model down to a single cause: access
/// beyond the memory size.
///
/// Memory also keeps a bitmap of the 4 KiB pages written since it was
/// built or last reset, so a simulator can return to its program's
/// initial image ([`Memory::reset_dirty`]) or take on another image of
/// the same program ([`Memory::restore_from`]) by copying only those
/// pages. The invariant: every byte that differs from
/// [`crate::Program::build_memory`] lies in a dirty page.
/// `build_memory` starts clean, every store and image write marks the
/// pages it touches, and `clone`, `clone_from` and `restore_from` copy
/// the bitmap. Equality compares bytes only.
#[derive(Clone, Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    /// One bit per page, set when any byte of the page was written.
    dirty: Vec<u64>,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates a zero-initialized memory of `size` bytes, every page clean.
    pub fn new(size: usize) -> Self {
        let pages = size.div_ceil(1 << PAGE_SHIFT);
        Memory {
            bytes: vec![0; size],
            dirty: vec![0; pages.div_ceil(64)],
        }
    }

    /// The memory size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    #[inline]
    fn check(&self, addr: u64, width: usize) -> Result<usize, MemFault> {
        let a = addr as usize;
        if (addr as usize as u64) == addr
            && a.checked_add(width)
                .is_some_and(|end| end <= self.bytes.len())
        {
            Ok(a)
        } else {
            Err(MemFault { addr, width })
        }
    }

    /// Loads `width` bytes (1, 4 or 8) little-endian, zero-extended to 64 bits.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if any byte of the access is out of bounds.
    pub fn load(&self, addr: u64, width: usize) -> Result<u64, MemFault> {
        let a = self.check(addr, width)?;
        let mut v: u64 = 0;
        for i in (0..width).rev() {
            v = (v << 8) | self.bytes[a + i] as u64;
        }
        Ok(v)
    }

    /// Marks every page overlapping the `len` bytes at `a` dirty. The
    /// caller has bounds-checked the region and `len` is non-zero.
    fn mark_dirty(&mut self, a: usize, len: usize) {
        for page in a >> PAGE_SHIFT..((a + len - 1) >> PAGE_SHIFT) + 1 {
            self.dirty[page / 64] |= 1 << (page % 64);
        }
    }

    /// [`Memory::mark_dirty`] for a bounds-checked store of 1 to 8
    /// bytes, which touches at most two pages: the pages of its first
    /// and last byte. Kept straight-line: a range loop on this path
    /// cost the benchmark's `kernels` workload about 7% runs/s.
    #[inline]
    fn mark_store(&mut self, a: usize, width: usize) {
        for page in [a >> PAGE_SHIFT, (a + width - 1) >> PAGE_SHIFT] {
            self.dirty[page / 64] |= 1 << (page % 64);
        }
    }

    /// Forgets every dirty mark: the current bytes become the baseline
    /// that [`Memory::reset_dirty`] restores to.
    pub(crate) fn mark_clean(&mut self) {
        self.dirty.fill(0);
    }

    /// Returns memory to the state `image` writes over zeroed memory,
    /// touching only the dirty pages: each is zeroed, the parts of
    /// `image` that overlap it are copied back, and every page is then
    /// clean. With `image` the program's [`crate::Program::image`], the
    /// result equals a fresh [`crate::Program::build_memory`] byte for
    /// byte, by the invariant in the type docs.
    pub fn reset_dirty(&mut self, image: &[(u64, Vec<u8>)]) {
        let Memory { bytes, dirty } = self;
        let size = bytes.len();
        let dirty_pages = || {
            dirty.iter().enumerate().flat_map(|(w, &bits)| {
                (0..64).filter(move |b| bits >> b & 1 == 1).map(move |b| {
                    let start = (w * 64 + b) << PAGE_SHIFT;
                    start..(start + (1 << PAGE_SHIFT)).min(size)
                })
            })
        };
        for page in dirty_pages() {
            bytes[page].fill(0);
        }
        for (addr, data) in image {
            let (start, end) = (*addr as usize, *addr as usize + data.len());
            for page in dirty_pages() {
                let (lo, hi) = (page.start.max(start), page.end.min(end));
                if lo < hi {
                    bytes[lo..hi].copy_from_slice(&data[lo - start..hi - start]);
                }
            }
        }
        dirty.fill(0);
    }

    /// Makes this memory equal to `src`, bytes and dirty bitmap, copying
    /// only the pages dirty in either and allocating nothing. Exact when
    /// both were built by the same program's
    /// [`crate::Program::build_memory`]: by the invariant in the type
    /// docs, a page clean in both holds the same baseline bytes in both.
    /// A simulator forking from a snapshot restores its memory this way
    /// from the emulator's, so a fork costs the pages either run wrote,
    /// not a whole image.
    ///
    /// # Panics
    ///
    /// Panics if the two memories differ in size.
    pub fn restore_from(&mut self, src: &Memory) {
        assert_eq!(self.size(), src.size(), "restore_from across memory sizes");
        let Memory { bytes, dirty } = self;
        let size = bytes.len();
        for (w, (mine, &theirs)) in dirty.iter_mut().zip(&src.dirty).enumerate() {
            let mut bits = *mine | theirs;
            while bits != 0 {
                let start = (w * 64 + bits.trailing_zeros() as usize) << PAGE_SHIFT;
                let end = (start + (1 << PAGE_SHIFT)).min(size);
                bytes[start..end].copy_from_slice(&src.bytes[start..end]);
                bits &= bits - 1;
            }
            *mine = theirs;
        }
    }

    /// True when this memory holds the same bytes as `other`, comparing
    /// only the pages dirty in either. Exact when both were built by the
    /// same program's [`crate::Program::build_memory`], as for
    /// [`Memory::restore_from`]: a page clean in both holds the baseline
    /// bytes in both. Memories of different sizes are never equal.
    pub fn same_bytes(&self, other: &Memory) -> bool {
        if self.size() != other.size() {
            return false;
        }
        let size = self.size();
        self.dirty
            .iter()
            .zip(&other.dirty)
            .enumerate()
            .all(|(w, (&mine, &theirs))| {
                let mut bits = mine | theirs;
                while bits != 0 {
                    let start = (w * 64 + bits.trailing_zeros() as usize) << PAGE_SHIFT;
                    let end = (start + (1 << PAGE_SHIFT)).min(size);
                    if self.bytes[start..end] != other.bytes[start..end] {
                        return false;
                    }
                    bits &= bits - 1;
                }
                true
            })
    }

    /// Stores the low `width` bytes (1, 4 or 8) of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if any byte of the access is out of bounds.
    pub fn store(&mut self, addr: u64, width: usize, value: u64) -> Result<(), MemFault> {
        let a = self.check(addr, width)?;
        self.mark_store(a, width);
        for i in 0..width {
            self.bytes[a + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Loads a value *speculatively*: out-of-bounds accesses return `0`
    /// instead of faulting.
    ///
    /// The out-of-order simulator uses this for wrong-path loads, which must
    /// not fault (faults are architecturally raised only at commit).
    #[inline]
    pub fn load_speculative(&self, addr: u64, width: usize) -> u64 {
        self.load(addr, width).unwrap_or(0)
    }

    /// Bulk-copies `data` into memory starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit; initial images are programmer
    /// errors, not simulated faults.
    pub fn write_image(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
        if !data.is_empty() {
            self.mark_dirty(a, data.len());
        }
    }

    /// Reads `len` bytes starting at `addr` (for test assertions).
    ///
    /// # Panics
    ///
    /// Panics if the region is out of bounds.
    pub fn read_image(&self, addr: u64, len: usize) -> &[u8] {
        let a = addr as usize;
        &self.bytes[a..a + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn store_load_round_trip() {
        let mut m = Memory::new(64);
        m.store(8, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.load(8, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.load(8, 1).unwrap(), 0x88, "little endian");
        assert_eq!(m.load(12, 4).unwrap(), 0x1122_3344);
    }

    #[test]
    fn unaligned_access_allowed() {
        let mut m = Memory::new(64);
        m.store(3, 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.load(3, 8).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn zero_extension() {
        let mut m = Memory::new(16);
        m.store(0, 1, 0xff).unwrap();
        assert_eq!(m.load(0, 8).unwrap(), 0xff);
        assert_eq!(m.load(0, 1).unwrap(), 0xff);
    }

    #[test]
    fn out_of_bounds_faults() {
        let m = Memory::new(16);
        assert_eq!(m.load(16, 1), Err(MemFault { addr: 16, width: 1 }));
        assert_eq!(m.load(9, 8), Err(MemFault { addr: 9, width: 8 }));
        assert!(
            m.load(u64::MAX, 8).is_err(),
            "address wraparound must fault"
        );
        assert!(m.load(u64::MAX - 3, 8).is_err());
    }

    #[test]
    fn speculative_load_never_faults() {
        let m = Memory::new(16);
        assert_eq!(m.load_speculative(1 << 40, 8), 0);
        assert_eq!(m.load_speculative(0, 8), 0);
    }

    #[test]
    fn image_round_trip() {
        let mut m = Memory::new(32);
        m.write_image(4, &[1, 2, 3]);
        assert_eq!(m.read_image(4, 3), &[1, 2, 3]);
        assert_eq!(m.load(4, 1).unwrap(), 1);
    }

    const PAGE: usize = 1 << PAGE_SHIFT;

    /// Three full pages plus a 100-byte partial page, with an image chunk
    /// that spans the page 0/1 boundary and one confined to page 2.
    fn paged_program() -> crate::Program {
        let mut p = crate::Program::from_insts(vec![crate::Inst::Halt]);
        p.mem_size = 3 * PAGE + 100;
        p.add_image(PAGE as u64 - 500, (0..1000).map(|i| i as u8 | 1).collect());
        p.add_image(2 * PAGE as u64 + 8, vec![0xab; 64]);
        p
    }

    fn dirty_set(m: &Memory) -> Vec<usize> {
        (0..m.size().div_ceil(PAGE))
            .filter(|&p| m.dirty[p / 64] >> (p % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn build_memory_starts_clean_and_stores_mark_their_pages() {
        let p = paged_program();
        let mut m = p.build_memory();
        assert!(dirty_set(&m).is_empty(), "the image is the baseline");
        m.store(2 * PAGE as u64 + 1, 1, 7).unwrap();
        assert_eq!(dirty_set(&m), vec![2]);
        assert!(m.store(m.size() as u64, 1, 7).is_err());
        assert_eq!(dirty_set(&m), vec![2], "a faulting store marks nothing");
    }

    #[test]
    fn page_straddling_store_is_restored() {
        let p = paged_program();
        let fresh = p.build_memory();
        let mut m = p.build_memory();
        m.store(PAGE as u64 - 3, 8, u64::MAX).unwrap();
        m.store(2 * PAGE as u64 - 2, 4, 0xdead_beef).unwrap();
        assert_eq!(dirty_set(&m), vec![0, 1, 2]);
        assert_ne!(m, fresh);
        m.reset_dirty(&p.image);
        assert_eq!(m, fresh);
        assert!(dirty_set(&m).is_empty());
    }

    #[test]
    fn store_into_last_partial_page_is_restored() {
        let p = paged_program();
        let fresh = p.build_memory();
        let mut m = p.build_memory();
        let end = m.size() as u64;
        m.store(end - 8, 8, 0x0102_0304_0506_0708).unwrap();
        m.store(end - 1, 1, 0xff).unwrap();
        assert_eq!(dirty_set(&m), vec![3]);
        m.reset_dirty(&p.image);
        assert_eq!(m, fresh);
    }

    #[test]
    fn image_overlapping_a_dirty_page_is_reapplied() {
        let p = paged_program();
        let fresh = p.build_memory();
        let mut m = p.build_memory();
        // Overwrite image bytes on both sides of the chunk's page boundary
        // and in the page-2 chunk; page 1's image tail must come back too.
        for a in [PAGE - 400, PAGE + 300, 2 * PAGE + 10] {
            m.store(a as u64, 8, 0).unwrap();
        }
        m.reset_dirty(&p.image);
        assert_eq!(m, fresh);
        assert_eq!(m.read_image(PAGE as u64 - 500, 3), &[1, 1, 3]);
    }

    #[test]
    fn clone_from_carries_the_dirty_pages() {
        let p = paged_program();
        let fresh = p.build_memory();
        let mut source = p.build_memory();
        source.store(PAGE as u64 + 17, 4, 0x1234_5678).unwrap();
        let mut m = p.build_memory();
        m.store(2 * PAGE as u64 + 40, 8, 9).unwrap();
        // `m` now holds `source`'s bytes: its own dirty page is back to
        // the image, and `source`'s dirty page must be restored.
        m.clone_from(&source);
        assert_eq!(m, source);
        m.reset_dirty(&p.image);
        assert_eq!(m, fresh);
        let mut c = source.clone();
        c.reset_dirty(&p.image);
        assert_eq!(c, fresh);
    }

    /// A random store of 1, 4 or 8 bytes, biased towards page boundaries
    /// and the last, partial page.
    fn random_store(rng: &mut SmallRng, m: &mut Memory) {
        let width = [1, 4, 8][rng.gen_range(0..3usize)];
        let size = m.size();
        let addr = match rng.gen_range(0..3u32) {
            // Straddling (or just touching) a page boundary.
            0 => rng.gen_range(1..size / PAGE + 1) * PAGE - rng.gen_range(0..8usize),
            1 => size - width - rng.gen_range(0..16usize),
            _ => rng.gen_range(0..size - width + 1),
        };
        m.store(addr as u64, width, rng.next_u64()).unwrap();
    }

    #[test]
    fn restore_from_equals_a_full_copy() {
        let p = paged_program();
        let fresh = p.build_memory();
        let mut rng = SmallRng::seed_from_u64(0x1d1d);
        for _ in 0..500 {
            let (mut m, mut src) = (p.build_memory(), p.build_memory());
            for _ in 0..rng.gen_range(0..6usize) {
                random_store(&mut rng, &mut m);
            }
            for _ in 0..rng.gen_range(0..6usize) {
                random_store(&mut rng, &mut src);
            }
            m.restore_from(&src);
            assert_eq!(m.bytes, src.bytes);
            assert_eq!(m.dirty, src.dirty);
            m.reset_dirty(&p.image);
            assert_eq!(m, fresh);
        }
    }

    #[test]
    #[should_panic(expected = "restore_from across memory sizes")]
    fn restore_from_refuses_another_size() {
        Memory::new(PAGE).restore_from(&Memory::new(2 * PAGE));
    }

    #[test]
    fn same_bytes_compares_the_pages_dirty_in_either() {
        let p = paged_program();
        let fresh = p.build_memory();
        let mut m = p.build_memory();
        assert!(m.same_bytes(&fresh));
        // A page dirty in one only: a differing byte there is seen from
        // either side.
        m.store(2 * PAGE as u64 + 10, 1, 0xee).unwrap();
        assert!(!m.same_bytes(&fresh) && !fresh.same_bytes(&m));
        // Rewriting the baseline byte leaves the page dirty but equal.
        m.store(2 * PAGE as u64 + 10, 1, 0xab).unwrap();
        assert_eq!(dirty_set(&m), vec![2]);
        assert!(m.same_bytes(&fresh) && fresh.same_bytes(&m));
        // Dirty in both, one differing byte.
        let mut other = p.build_memory();
        m.store(PAGE as u64 + 9, 4, 0x0102_0304).unwrap();
        other.store(PAGE as u64 + 9, 4, 0x0102_0305).unwrap();
        assert!(!m.same_bytes(&other));
        // Equal after a restore, and still equal to a full comparison.
        other.restore_from(&m);
        assert!(other.same_bytes(&m) && m.same_bytes(&other));
        assert_eq!(other, m);
    }

    #[test]
    fn same_bytes_agrees_with_full_equality() {
        let p = paged_program();
        let mut rng = SmallRng::seed_from_u64(0x5a5a);
        for _ in 0..300 {
            let (mut a, mut b) = (p.build_memory(), p.build_memory());
            for _ in 0..rng.gen_range(0..4usize) {
                random_store(&mut rng, &mut a);
            }
            if rng.gen_range(0..2u32) == 0 {
                b.restore_from(&a);
            }
            for _ in 0..rng.gen_range(0..3usize) {
                random_store(&mut rng, &mut b);
            }
            assert_eq!(a.same_bytes(&b), a == b);
        }
    }

    #[test]
    fn same_bytes_refuses_another_size() {
        assert!(!Memory::new(PAGE).same_bytes(&Memory::new(2 * PAGE)));
    }

    #[test]
    fn equality_ignores_the_dirty_bitmap() {
        let p = paged_program();
        let fresh = p.build_memory();
        let mut m = p.build_memory();
        let b = m.load(PAGE as u64, 1).unwrap();
        m.store(PAGE as u64, 1, b).unwrap();
        assert_eq!(dirty_set(&m), vec![1]);
        assert_eq!(m, fresh);
    }

    #[test]
    fn fault_display() {
        let f = MemFault {
            addr: 0x20,
            width: 4,
        };
        assert_eq!(f.to_string(), "memory fault: 4-byte access at 0x20");
    }
}
