//! RRS configuration.

use crate::phys::PhysReg;

/// Configuration of the register renaming subsystem.
///
/// The default matches the paper's RTL design (§VI.A): 128 physical
/// registers (which size the FL and RHT), a 96-entry ROB, a 32-entry RAT and
/// 4 RAT checkpoints. `width` is the rename width (1/2/4/6/8-wide in the
/// paper's evaluation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RrsConfig {
    /// Number of physical registers (and FL/RHT capacity).
    pub num_phys: usize,
    /// Number of architectural registers (RAT entries).
    pub num_arch: usize,
    /// ROB capacity in instructions.
    pub rob_entries: usize,
    /// RHT capacity in entries (one per renamed instruction).
    pub rht_entries: usize,
    /// Number of RAT checkpoints.
    pub num_ckpts: usize,
    /// A checkpoint is taken every this many ROB allocations.
    pub ckpt_interval: u64,
    /// Rename width: maximum instructions renamed (and walked) per cycle.
    pub width: usize,
    /// Enable the move-elimination optimization (§V.E): register moves
    /// rename to the source's physical register instead of allocating,
    /// tracked by per-register reference counts and a duplicate-marking
    /// signal that IDLD consumes to skip counting duplicate instances.
    pub move_elim: bool,
    /// Protect RAT entries with a parity bit checked on every read — the
    /// orthogonal at-rest protection §V.D pairs with IDLD.
    pub parity: bool,
    /// Enable 0/1-idiom elimination (§V.E): instructions producing the
    /// constants 0 or 1 rename to two *hardwired* physical registers (the
    /// top two ids), which live outside the FL↔RAT↔ROB circulation and may
    /// alias any number of logical registers.
    pub idiom_elim: bool,
}

impl Default for RrsConfig {
    fn default() -> Self {
        RrsConfig {
            num_phys: 128,
            num_arch: 32,
            rob_entries: 96,
            rht_entries: 128,
            num_ckpts: 4,
            ckpt_interval: 24,
            width: 4,
            move_elim: false,
            parity: false,
            idiom_elim: false,
        }
    }
}

impl RrsConfig {
    /// The default configuration at a given rename width.
    pub fn with_width(width: usize) -> Self {
        RrsConfig {
            width,
            ..Default::default()
        }
    }

    /// Bits needed to encode a raw PdstID.
    #[inline]
    pub fn pdst_bits(&self) -> u32 {
        usize::BITS - (self.num_phys - 1).leading_zeros()
    }

    /// The initial RAT mapping: logical register `i` maps to physical `i`.
    #[inline]
    pub fn initial_rat(&self, arch_index: usize) -> PhysReg {
        debug_assert!(arch_index < self.num_arch);
        PhysReg(arch_index as u16)
    }

    /// The hardwired zero/one physical registers, when idiom elimination
    /// is enabled: the top two ids, pinned outside the FL↔RAT↔ROB loop.
    pub fn pinned(&self) -> Option<(PhysReg, PhysReg)> {
        self.idiom_elim.then(|| {
            (
                PhysReg((self.num_phys - 2) as u16),
                PhysReg((self.num_phys - 1) as u16),
            )
        })
    }

    /// The initial free-list contents: physical registers
    /// `num_arch..num_phys` (minus the hardwired idiom registers, when
    /// enabled), in ascending order.
    pub fn initial_free(&self) -> impl Iterator<Item = PhysReg> + '_ {
        let top = if self.idiom_elim {
            self.num_phys - 2
        } else {
            self.num_phys
        };
        (self.num_arch..top).map(|i| PhysReg(i as u16))
    }

    /// The constant value of `FLxor ^ RATxor ^ ROBxor` under the extended
    /// encoding: the XOR of `extended(p)` over every physical register.
    ///
    /// The IDLD checker compares the accumulated XOR against this constant
    /// each non-recovery cycle; the paper folds the constant away and states
    /// the check as "equals zero".
    pub fn total_xor(&self) -> u32 {
        let bits = self.pdst_bits();
        let top = if self.idiom_elim {
            self.num_phys - 2
        } else {
            self.num_phys
        };
        (0..top).fold(0, |acc, i| acc ^ PhysReg(i as u16).extended(bits))
    }

    /// Validates internal consistency (RHT must cover the ROB window, the
    /// checkpoint interval must be positive, sizes non-zero, at most 256
    /// architectural registers).
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration; configurations are
    /// constructed by experiment code, not simulated hardware.
    pub fn validate(&self) {
        assert!(self.num_arch >= 1 && self.num_phys > self.num_arch);
        assert!(
            self.num_arch <= u8::MAX as usize + 1,
            "RHT and ROB entries hold the architectural index in a byte"
        );
        if self.idiom_elim {
            assert!(
                self.num_phys >= self.num_arch + 4,
                "idiom elimination reserves the top two physical registers"
            );
        }
        assert!(self.rob_entries >= 1);
        assert!(
            self.rht_entries >= self.rob_entries,
            "RHT must cover all in-flight instructions"
        );
        assert!(self.num_ckpts >= 1 && self.ckpt_interval >= 1);
        assert!(self.width >= 1);
        assert!(self.num_phys <= u16::MAX as usize + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = RrsConfig::default();
        c.validate();
        assert_eq!(c.num_phys, 128);
        assert_eq!(c.num_arch, 32);
        assert_eq!(c.rob_entries, 96);
        assert_eq!(c.rht_entries, 128);
        assert_eq!(c.num_ckpts, 4);
        assert_eq!(c.pdst_bits(), 7);
    }

    #[test]
    fn pdst_bits_for_sizes() {
        assert_eq!(
            RrsConfig {
                num_phys: 64,
                ..Default::default()
            }
            .pdst_bits(),
            6
        );
        assert_eq!(
            RrsConfig {
                num_phys: 65,
                ..Default::default()
            }
            .pdst_bits(),
            7
        );
        assert_eq!(
            RrsConfig {
                num_phys: 256,
                ..Default::default()
            }
            .pdst_bits(),
            8
        );
    }

    #[test]
    fn total_xor_is_xor_of_extended_ids() {
        let c = RrsConfig::default();
        // 128 ids: raw parts 0..128 xor to 0; the extra bit appears 128
        // times (even) so it cancels; but the encoding keeps it well defined.
        let manual = (0..128u32).fold(0, |a, i| a ^ (i | 0x80));
        assert_eq!(c.total_xor(), manual);
    }

    #[test]
    fn initial_partition_covers_every_register() {
        let c = RrsConfig::default();
        let mut seen = vec![false; c.num_phys];
        for i in 0..c.num_arch {
            seen[c.initial_rat(i).index()] = true;
        }
        for p in c.initial_free() {
            assert!(!seen[p.index()], "initial FL overlaps initial RAT");
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn undersized_rht_rejected() {
        RrsConfig {
            rht_entries: 8,
            ..Default::default()
        }
        .validate();
    }
}
