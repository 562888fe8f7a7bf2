//! Simulator configuration.

use idld_isa::InstKind;
use idld_rrs::RrsConfig;

/// Out-of-order core configuration.
///
/// The default mirrors the paper's RRS design point (§VI.A) surrounded by a
/// plausible mid-size backend. Fetch, rename, issue and commit widths all
/// equal [`RrsConfig::width`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimConfig {
    /// The register renaming subsystem configuration (and pipeline width).
    pub rrs: RrsConfig,
    /// Reservation-station (issue window) entries.
    pub rs_entries: usize,
    /// log2 of bimodal branch-direction table entries.
    pub bp_log2: u32,
    /// log2 of BTB entries for indirect-jump target prediction.
    pub btb_log2: u32,
    /// Latency of simple ALU operations (cycles).
    pub lat_alu: u64,
    /// Latency of multiply/divide operations.
    pub lat_muldiv: u64,
    /// Latency of loads (address generation + data access).
    pub lat_load: u64,
    /// Latency of store address/data capture.
    pub lat_store: u64,
    /// Latency of branches and jumps.
    pub lat_branch: u64,
    /// Enable store-sets memory dependence speculation (Chrysos & Emer):
    /// loads issue past older stores with unresolved addresses unless the
    /// predictor says otherwise; mis-speculations flush at the load and
    /// train the predictor. Off = conservative disambiguation. The
    /// predictor's tables (about 5 KB) exist only when this is on, so a
    /// simulator and its snapshots carry none of them in the default,
    /// conservative mode.
    pub mem_dep_speculation: bool,
    /// Fast-forward provably dead cycles: when a cycle changes nothing
    /// (no commit/complete/issue/rename, no flush or recovery pending,
    /// nothing in execution, the fault hook permanently inert), every
    /// future cycle is identical, so the main loop jumps straight to the
    /// next external event (cycle budget or pause point) instead of
    /// ticking. Bit-exact — it only skips cycles a case analysis proves
    /// to be no-ops — and it turns hung injected runs (e.g. free-list
    /// exhaustion after a leak) from `2.5× golden` cycles into a few.
    pub stall_fast_forward: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rrs: RrsConfig::default(),
            rs_entries: 32,
            bp_log2: 12,
            btb_log2: 6,
            lat_alu: 1,
            lat_muldiv: 4,
            lat_load: 3,
            lat_store: 1,
            lat_branch: 1,
            mem_dep_speculation: false,
            stall_fast_forward: true,
        }
    }
}

impl SimConfig {
    /// The default configuration at a given pipeline width (1/2/4/6/8 in
    /// the paper's sweep).
    pub fn with_width(width: usize) -> Self {
        SimConfig {
            rrs: RrsConfig::with_width(width),
            ..Default::default()
        }
    }

    /// Pipeline width (fetch = rename = issue = commit).
    #[inline]
    pub fn width(&self) -> usize {
        self.rrs.width
    }

    /// The execution latency of an instruction class, in cycles: the one
    /// functional-unit latency table of both cores.
    #[inline]
    pub fn latency(&self, kind: InstKind) -> u64 {
        match kind {
            InstKind::Alu | InstKind::Out | InstKind::Halt => self.lat_alu,
            InstKind::MulDiv => self.lat_muldiv,
            InstKind::Load => self.lat_load,
            InstKind::Store => self.lat_store,
            InstKind::Branch | InstKind::Jump | InstKind::JumpInd => self.lat_branch,
        }
    }

    /// One point of the campaign config-space sweep: pipeline width ×
    /// ROB/window size × RAT-checkpoint count, everything else at the
    /// paper's design point.
    ///
    /// The window structures that must be able to hold the in-flight set
    /// scale with the ROB (RHT one entry per renamed in-flight
    /// instruction, reservation stations a third of the window) so a
    /// sweep over `rob_entries` measures the window itself, not an
    /// incidental cap in a sibling structure. At the default
    /// (4, 96, 4) this constructor reproduces `SimConfig::default()`
    /// exactly.
    pub fn sweep_point(width: usize, rob_entries: usize, num_ckpts: usize) -> Self {
        let mut cfg = SimConfig::with_width(width);
        cfg.rrs.rob_entries = rob_entries;
        cfg.rrs.num_ckpts = num_ckpts;
        cfg.rrs.rht_entries = cfg.rrs.rht_entries.max(rob_entries + width);
        cfg.rs_entries = cfg.rs_entries.max(rob_entries / 3);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_design_point() {
        let c = SimConfig::default();
        assert_eq!(c.rrs.num_phys, 128);
        assert_eq!(c.rrs.rob_entries, 96);
        assert_eq!(c.width(), 4);
    }

    #[test]
    fn with_width() {
        assert_eq!(SimConfig::with_width(8).width(), 8);
        assert_eq!(SimConfig::with_width(1).width(), 1);
    }

    #[test]
    fn sweep_point_at_the_design_point_is_the_default() {
        assert_eq!(SimConfig::sweep_point(4, 96, 4), SimConfig::default());
    }

    #[test]
    fn sweep_point_scales_the_window_structures() {
        let big = SimConfig::sweep_point(8, 192, 8);
        assert_eq!(big.width(), 8);
        assert_eq!(big.rrs.rob_entries, 192);
        assert_eq!(big.rrs.num_ckpts, 8);
        assert!(big.rrs.rht_entries >= 200, "RHT must hold the window");
        assert!(big.rs_entries >= 64);
        let small = SimConfig::sweep_point(2, 48, 2);
        assert_eq!(small.rrs.rht_entries, 128, "default caps still apply");
        assert_eq!(small.rs_entries, 32);
    }
}
