//! The ROB's PdstID-tracking slice: the per-entry *evicted PdstID* field.
//!
//! A full reorder buffer also tracks pcs, results and exception state; those
//! live in the simulator (`idld-sim`). This module models exactly the part
//! of the ROB that participates in the register renaming subsystem: the FIFO
//! of evicted PdstIDs reclaimed into the free list at retirement (paper §II).

use crate::event::{EventSink, RrsEvent};
use crate::fault::{FaultHook, OpSite};
use crate::phys::PhysReg;
use crate::rrs::RrsAssert;

/// Reliable per-entry bookkeeping written at allocation.
///
/// These fields model control metadata outside the Table-I fault sites: the
/// destination flag steers whether the reclamation read fires at all, and
/// `arch`/`new_pdst` feed the retirement RAT.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RobMeta {
    /// True if the instruction writes a register (owns an evicted PdstID).
    pub has_dest: bool,
    /// Architectural destination index (meaningful when `has_dest`);
    /// a byte, as [`crate::RrsConfig::validate`] caps `num_arch` at 256.
    pub arch: u8,
    /// The PdstID allocated to this instruction (meaningful when `has_dest`).
    pub new_pdst: PhysReg,
}

impl RobMeta {
    /// Metadata for an instruction without a register destination.
    pub const NO_DEST: RobMeta = RobMeta {
        has_dest: false,
        arch: 0,
        new_pdst: PhysReg(0),
    };
}

/// The outcome of reading the ROB head at retirement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RobCommit {
    /// The evicted PdstID read from the (possibly stale) slot, if the entry
    /// has a destination.
    pub reclaimed: Option<PhysReg>,
    /// The entry's reliable metadata.
    pub meta: RobMeta,
}

/// The evicted-PdstID FIFO of the reorder buffer.
///
/// Each slot carries a valid flag alongside the PdstID: the flag is set by
/// the same write-enable that writes the field and conceptually cleared by
/// the previous occupant's commit pop. A suppressed array write therefore
/// leaves the slot *invalid* and retirement reclaims nothing — the paper's
/// pure-leakage semantics ("the input PdstID is not written in the array",
/// §III.C). Never-written slots are likewise invalid.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rob {
    slots: Vec<Option<PhysReg>>,
    meta: Vec<RobMeta>,
    head: u64,
    tail: u64,
}

impl Rob {
    /// Creates an empty ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Rob {
            slots: vec![None; capacity],
            meta: vec![RobMeta::NO_DEST; capacity],
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

    /// True if the pointers indicate an empty FIFO.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Allocates an entry at the tail.
    ///
    /// The evicted PdstID (if any) is written through the corruptible
    /// [`OpSite::RobAlloc`] array port; the tail-pointer update is a
    /// separate corruptible sub-signal.
    ///
    /// # Errors
    ///
    /// Returns [`RrsAssert::RobOverflow`] when full.
    pub fn alloc(
        &mut self,
        meta: RobMeta,
        evicted: Option<PhysReg>,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<(), RrsAssert> {
        if self.len() == self.capacity() {
            return Err(RrsAssert::RobOverflow);
        }
        let cap = self.capacity() as u64;
        let slot = (self.tail % cap) as usize;
        self.meta[slot] = meta;
        // The corruptible write-enable drives the PdstID field; entries
        // without a destination never exercise it (their allocation is pure
        // pointer bookkeeping), so the fault hook is consulted only for
        // id-carrying writes — matching how the paper's injections target
        // the identifier datapath.
        if let Some(e) = evicted {
            let c = hook.on_op(OpSite::RobAlloc);
            if !c.suppress_array {
                let v = PhysReg(e.0 ^ c.value_xor);
                self.slots[slot] = Some(v);
                sink.event(RrsEvent::RobWrite(v));
            } else {
                // The valid flag shares the suppressed write-enable: the
                // slot stays invalid and the evicted id leaks.
                self.slots[slot] = None;
            }
            if !c.suppress_ptr {
                self.tail += 1;
            }
        } else {
            self.slots[slot] = None;
            self.tail += 1;
        }
        Ok(())
    }

    /// Reads (and normally pops) the head entry at retirement.
    ///
    /// The slot data is delivered regardless; the corruptible read-enable
    /// ([`OpSite::RobCommitRead`]) gates the pointer advance and the IDLD
    /// tap, so a suppressed read-enable makes the *next* retirement reclaim
    /// the same PdstID again — a duplication bug.
    ///
    /// # Errors
    ///
    /// Returns [`RrsAssert::RobUnderflow`] when empty.
    pub fn commit_head(
        &mut self,
        hook: &mut impl FaultHook,
        sink: &mut impl EventSink,
    ) -> Result<RobCommit, RrsAssert> {
        if self.is_empty() {
            return Err(RrsAssert::RobUnderflow);
        }
        let cap = self.capacity() as u64;
        let slot = (self.head % cap) as usize;
        let meta = self.meta[slot];
        let reclaimed = if meta.has_dest {
            self.slots[slot]
        } else {
            None
        };
        // As at allocation, the corruptible read-enable belongs to the
        // PdstID datapath: only id-carrying retirements consult the hook.
        if let Some(v) = reclaimed {
            let c = hook.on_op(OpSite::RobCommitRead);
            if !c.suppress_ptr && !c.suppress_array {
                self.head += 1;
                sink.event(RrsEvent::RobRead(v));
            }
        } else {
            self.head += 1;
        }
        Ok(RobCommit { reclaimed, meta })
    }

    /// Recovery: move the tail back to `new_tail` (the offending entry + 1),
    /// gated by the corruptible [`OpSite::RobTailRestore`] recovery signal.
    ///
    /// # Errors
    ///
    /// Returns [`RrsAssert::RecoveryBroken`] if the requested tail is older
    /// than the head (possible only when bugs have desynchronized the
    /// pointers beyond repair).
    pub fn restore_tail(
        &mut self,
        new_tail: u64,
        hook: &mut impl FaultHook,
    ) -> Result<(), RrsAssert> {
        let c = hook.on_op(OpSite::RobTailRestore);
        if !c.suppress_array && !c.suppress_ptr {
            if new_tail < self.head {
                return Err(RrsAssert::RecoveryBroken);
            }
            self.tail = new_tail;
        }
        Ok(())
    }

    /// Iterates the evicted PdstIDs of live, valid entries with
    /// destinations.
    pub fn iter_live(&self) -> impl Iterator<Item = PhysReg> + '_ {
        let cap = self.capacity() as u64;
        (self.head..self.tail).filter_map(move |s| {
            let slot = (s % cap) as usize;
            if self.meta[slot].has_dest {
                self.slots[slot]
            } else {
                None
            }
        })
    }

    /// XOR of the extended encodings of the live evicted PdstIDs.
    pub fn content_xor(&self, bits: u32) -> u32 {
        self.iter_live().fold(0, |a, p| a ^ p.extended(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RecordingSink;
    use crate::fault::{Corruption, NoFaults};
    use crate::testutil::OneShot;

    fn dest_meta(arch: u8, new: u16) -> RobMeta {
        RobMeta {
            has_dest: true,
            arch,
            new_pdst: PhysReg(new),
        }
    }

    #[test]
    fn meta_is_four_bytes() {
        assert_eq!(std::mem::size_of::<RobMeta>(), 4);
    }

    #[test]
    fn fifo_commit_order() {
        let mut rob = Rob::new(4);
        let mut s = RecordingSink::new();
        rob.alloc(dest_meta(1, 10), Some(PhysReg(1)), &mut NoFaults, &mut s)
            .unwrap();
        rob.alloc(RobMeta::NO_DEST, None, &mut NoFaults, &mut s)
            .unwrap();
        rob.alloc(dest_meta(2, 11), Some(PhysReg(2)), &mut NoFaults, &mut s)
            .unwrap();
        assert_eq!(rob.len(), 3);

        let c1 = rob.commit_head(&mut NoFaults, &mut s).unwrap();
        assert_eq!(c1.reclaimed, Some(PhysReg(1)));
        let c2 = rob.commit_head(&mut NoFaults, &mut s).unwrap();
        assert_eq!(c2.reclaimed, None);
        let c3 = rob.commit_head(&mut NoFaults, &mut s).unwrap();
        assert_eq!(c3.reclaimed, Some(PhysReg(2)));
        assert!(rob.is_empty());
        assert_eq!(
            rob.commit_head(&mut NoFaults, &mut s),
            Err(RrsAssert::RobUnderflow)
        );
    }

    #[test]
    fn events_for_dest_entries_only() {
        let mut rob = Rob::new(4);
        let mut s = RecordingSink::new();
        rob.alloc(dest_meta(1, 10), Some(PhysReg(5)), &mut NoFaults, &mut s)
            .unwrap();
        rob.alloc(RobMeta::NO_DEST, None, &mut NoFaults, &mut s)
            .unwrap();
        rob.commit_head(&mut NoFaults, &mut s).unwrap();
        rob.commit_head(&mut NoFaults, &mut s).unwrap();
        assert_eq!(
            s.events,
            vec![
                RrsEvent::RobWrite(PhysReg(5)),
                RrsEvent::RobRead(PhysReg(5))
            ]
        );
    }

    #[test]
    fn suppressed_array_write_leaks_purely() {
        // Paper §III.C pure-leakage semantics: the suppressed write leaves
        // the slot invalid, so retirement reclaims nothing and the evicted
        // id disappears from circulation.
        let mut rob = Rob::new(2);
        let mut s = RecordingSink::new();
        let mut hook = OneShot::new(
            OpSite::RobAlloc,
            0,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        rob.alloc(dest_meta(3, 2), Some(PhysReg(77)), &mut hook, &mut s)
            .unwrap();
        assert_eq!(rob.iter_live().count(), 0, "slot invalid");
        let c = rob.commit_head(&mut NoFaults, &mut s).unwrap();
        assert_eq!(c.reclaimed, None, "p77 leaked: nothing to reclaim");
        assert!(
            c.meta.has_dest,
            "metadata still knows the instruction had a dest"
        );
        assert_eq!(s.count(|e| matches!(e, RrsEvent::RobRead(_))), 0);
    }

    #[test]
    fn suppressed_commit_read_duplicates() {
        let mut rob = Rob::new(4);
        let mut s = RecordingSink::new();
        rob.alloc(dest_meta(0, 1), Some(PhysReg(8)), &mut NoFaults, &mut s)
            .unwrap();
        rob.alloc(dest_meta(0, 2), Some(PhysReg(9)), &mut NoFaults, &mut s)
            .unwrap();
        let mut hook = OneShot::new(
            OpSite::RobCommitRead,
            0,
            Corruption {
                suppress_ptr: true,
                ..Corruption::NONE
            },
        );
        let c1 = rob.commit_head(&mut hook, &mut s).unwrap();
        let c2 = rob.commit_head(&mut hook, &mut s).unwrap();
        assert_eq!(c1.reclaimed, Some(PhysReg(8)));
        assert_eq!(
            c2.reclaimed,
            Some(PhysReg(8)),
            "same entry re-read: duplication"
        );
        // Only the second (pointer-advancing) read emitted an event.
        assert_eq!(s.count(|e| matches!(e, RrsEvent::RobRead(_))), 1);
    }

    #[test]
    fn tail_restore_squashes() {
        let mut rob = Rob::new(8);
        let mut s = RecordingSink::new();
        for i in 0..5u16 {
            rob.alloc(dest_meta(0, i), Some(PhysReg(i)), &mut NoFaults, &mut s)
                .unwrap();
        }
        rob.restore_tail(2, &mut NoFaults).unwrap();
        assert_eq!(rob.len(), 2);
        let live: Vec<_> = rob.iter_live().collect();
        assert_eq!(live, vec![PhysReg(0), PhysReg(1)]);
    }

    #[test]
    fn suppressed_tail_restore_keeps_zombies() {
        let mut rob = Rob::new(8);
        let mut s = RecordingSink::new();
        for i in 0..5u16 {
            rob.alloc(dest_meta(0, i), Some(PhysReg(i)), &mut NoFaults, &mut s)
                .unwrap();
        }
        let mut hook = OneShot::new(
            OpSite::RobTailRestore,
            0,
            Corruption {
                suppress_array: true,
                ..Corruption::NONE
            },
        );
        rob.restore_tail(2, &mut hook).unwrap();
        assert_eq!(
            rob.len(),
            5,
            "zombie entries survive the suppressed restore"
        );
    }

    #[test]
    fn restore_below_head_is_recovery_broken() {
        let mut rob = Rob::new(4);
        let mut s = RecordingSink::new();
        rob.alloc(dest_meta(0, 1), Some(PhysReg(1)), &mut NoFaults, &mut s)
            .unwrap();
        rob.commit_head(&mut NoFaults, &mut s).unwrap();
        assert_eq!(
            rob.restore_tail(0, &mut NoFaults),
            Err(RrsAssert::RecoveryBroken)
        );
    }

    #[test]
    fn overflow_asserts() {
        let mut rob = Rob::new(1);
        let mut s = RecordingSink::new();
        rob.alloc(RobMeta::NO_DEST, None, &mut NoFaults, &mut s)
            .unwrap();
        assert_eq!(
            rob.alloc(RobMeta::NO_DEST, None, &mut NoFaults, &mut s),
            Err(RrsAssert::RobOverflow)
        );
    }

    #[test]
    fn content_xor_counts_live_dests() {
        let mut rob = Rob::new(4);
        let mut s = RecordingSink::new();
        rob.alloc(dest_meta(0, 1), Some(PhysReg(3)), &mut NoFaults, &mut s)
            .unwrap();
        rob.alloc(RobMeta::NO_DEST, None, &mut NoFaults, &mut s)
            .unwrap();
        rob.alloc(dest_meta(0, 2), Some(PhysReg(4)), &mut NoFaults, &mut s)
            .unwrap();
        assert_eq!(
            rob.content_xor(7),
            PhysReg(3).extended(7) ^ PhysReg(4).extended(7)
        );
    }
}
