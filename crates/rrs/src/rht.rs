//! The Register History Table: FIFO log of RAT changes per instruction.

use crate::fault::{FaultHook, OpSite};
use crate::phys::PhysReg;
use crate::rrs::RrsAssert;

/// One RHT entry: the RAT change made by one renamed instruction (paper
/// §II) — the logical destination (if any) and its allocated PdstID.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RhtEntry {
    /// True if the instruction wrote a register.
    pub has_dest: bool,
    /// Architectural destination index (meaningful when `has_dest`);
    /// a byte, as [`crate::RrsConfig::validate`] caps `num_arch` at 256.
    pub arch: u8,
    /// The allocated (or, for eliminated moves, aliased) PdstID.
    pub new_pdst: PhysReg,
    /// True for a move-eliminated instruction: `new_pdst` was not
    /// allocated from the FL, so recovery walks replay it with duplicate
    /// semantics and the negative walk returns nothing.
    pub is_move: bool,
}

impl RhtEntry {
    /// Entry for an instruction without a register destination.
    pub const NO_DEST: RhtEntry = RhtEntry {
        has_dest: false,
        arch: 0,
        new_pdst: PhysReg(0),
        is_move: false,
    };
}

/// The Register History Table.
///
/// The RHT is *not* one of the arrays tracked by the IDLD XOR invariance
/// (§V.B tracks FL, RAT, ROB only), so it emits no events; its corruption
/// surfaces indirectly when a later recovery walk reads a stale or skewed
/// entry. Slots are persistent (suppressed writes leave stale entries);
/// never-written slots log "no destination".
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rht {
    slots: Vec<RhtEntry>,
    head: u64,
    tail: u64,
}

impl Rht {
    /// Creates an empty RHT with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Rht {
            slots: vec![RhtEntry::NO_DEST; capacity],
            head: 0,
            tail: 0,
        }
    }

    /// Capacity in entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupancy implied by the pointers.
    #[inline]
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// True if the pointers indicate an empty log.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Appends the RAT-change log entry for one renamed instruction.
    ///
    /// Both write-enable sub-signals ([`OpSite::RhtAppend`]) are
    /// corruptible; `value_xor` corrupts the logged PdstID.
    ///
    /// # Errors
    ///
    /// Returns [`RrsAssert::RhtOverflow`] when full.
    pub fn append(&mut self, entry: RhtEntry, hook: &mut impl FaultHook) -> Result<(), RrsAssert> {
        if self.len() == self.capacity() {
            return Err(RrsAssert::RhtOverflow);
        }
        let c = hook.on_op(OpSite::RhtAppend);
        if !c.suppress_array {
            let cap = self.capacity() as u64;
            let mut e = entry;
            e.new_pdst = PhysReg(e.new_pdst.0 ^ c.value_xor);
            self.slots[(self.tail % cap) as usize] = e;
        }
        if !c.suppress_ptr {
            self.tail += 1;
        }
        Ok(())
    }

    /// Raw slot read at an *intended* absolute sequence position, used by
    /// the recovery walks. If bugs skewed the write pointer, the walk reads
    /// whatever actually occupies the slot — that is the point.
    #[inline]
    pub fn read_at(&self, seq: u64) -> RhtEntry {
        let cap = self.capacity() as u64;
        self.slots[(seq % cap) as usize]
    }

    /// Frees entries older than `seq` (retirement bookkeeping; reliable).
    pub fn advance_head_to(&mut self, seq: u64) {
        if seq > self.head {
            self.head = seq.min(self.tail);
        }
    }

    /// Recovery: move the tail back to `new_tail` (offending entry + 1),
    /// gated by the corruptible [`OpSite::RhtTailRestore`] recovery signal.
    ///
    /// # Errors
    ///
    /// Returns [`RrsAssert::RecoveryBroken`] if the requested tail is older
    /// than the head.
    pub fn restore_tail(
        &mut self,
        new_tail: u64,
        hook: &mut impl FaultHook,
    ) -> Result<(), RrsAssert> {
        let c = hook.on_op(OpSite::RhtTailRestore);
        if !c.suppress_array && !c.suppress_ptr {
            if new_tail < self.head {
                return Err(RrsAssert::RecoveryBroken);
            }
            self.tail = new_tail;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Corruption, NoFaults};
    use crate::testutil::OneShot;

    fn entry(arch: u8, p: u16) -> RhtEntry {
        RhtEntry {
            has_dest: true,
            arch,
            new_pdst: PhysReg(p),
            is_move: false,
        }
    }

    #[test]
    fn entry_is_six_bytes() {
        assert_eq!(std::mem::size_of::<RhtEntry>(), 6);
    }

    #[test]
    fn append_and_read_back() {
        let mut rht = Rht::new(4);
        rht.append(entry(1, 10), &mut NoFaults).unwrap();
        rht.append(RhtEntry::NO_DEST, &mut NoFaults).unwrap();
        rht.append(entry(2, 11), &mut NoFaults).unwrap();
        assert_eq!(rht.read_at(0), entry(1, 10));
        assert!(!rht.read_at(1).has_dest);
        assert_eq!(rht.read_at(2), entry(2, 11));
        assert_eq!(rht.len(), 3);
    }

    #[test]
    fn head_advance_frees_space() {
        let mut rht = Rht::new(2);
        rht.append(entry(0, 1), &mut NoFaults).unwrap();
        rht.append(entry(0, 2), &mut NoFaults).unwrap();
        assert_eq!(
            rht.append(entry(0, 3), &mut NoFaults),
            Err(RrsAssert::RhtOverflow)
        );
        rht.advance_head_to(1);
        rht.append(entry(0, 3), &mut NoFaults).unwrap();
        assert_eq!(rht.read_at(2), entry(0, 3));
    }

    #[test]
    fn suppressed_append_leaves_stale_slot() {
        let mut rht = Rht::new(4);
        rht.append(entry(1, 10), &mut NoFaults).unwrap();
        let mut hook = OneShot::new(
            OpSite::RhtAppend,
            0,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        rht.append(entry(2, 11), &mut hook).unwrap();
        // Slot 1 was never written: logs "no destination" — the walk will
        // skip it, leaking PdstID 11 if a flush crosses this entry.
        assert!(!rht.read_at(1).has_dest);
        assert_eq!(rht.len(), 2, "pointer still advanced");
    }

    #[test]
    fn suppressed_ptr_append_skews_log() {
        let mut rht = Rht::new(4);
        let mut hook = OneShot::new(
            OpSite::RhtAppend,
            0,
            Corruption {
                suppress_ptr: true,
                ..Corruption::NONE
            },
        );
        rht.append(entry(1, 10), &mut hook).unwrap();
        rht.append(entry(2, 11), &mut NoFaults).unwrap();
        // Entry 11 overwrote entry 10; position 1 holds stale NO_DEST.
        assert_eq!(rht.read_at(0), entry(2, 11));
        assert!(!rht.read_at(1).has_dest);
        assert_eq!(rht.len(), 1);
    }

    #[test]
    fn value_corruption_logs_wrong_pdst() {
        let mut rht = Rht::new(4);
        let mut hook = OneShot::new(
            OpSite::RhtAppend,
            0,
            Corruption {
                value_xor: 1,
                ..Corruption::NONE
            },
        );
        rht.append(entry(1, 0b10), &mut hook).unwrap();
        assert_eq!(rht.read_at(0).new_pdst, PhysReg(0b11));
    }

    #[test]
    fn tail_restore() {
        let mut rht = Rht::new(8);
        for i in 0..5 {
            rht.append(entry(0, i), &mut NoFaults).unwrap();
        }
        rht.restore_tail(2, &mut NoFaults).unwrap();
        assert_eq!(rht.len(), 2);
        rht.advance_head_to(3);
        assert_eq!(rht.len(), 0, "head clamped to tail");
    }
}
