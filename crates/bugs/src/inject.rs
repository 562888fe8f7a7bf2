//! Single-activation injection: bug specs and the hook that arms them.

use crate::model::BugModel;
use idld_rrs::{CensusHook, Corruption, FaultHook, OpSite};
use rand::Rng;
use std::fmt;

/// A fully specified single bug activation: corrupt the `occurrence`-th
/// operation at `site` with `corruption`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BugSpec {
    /// The targeted control-signal site.
    pub site: OpSite,
    /// 0-based occurrence index of the operation at which to activate.
    pub occurrence: u64,
    /// The corruption applied at activation.
    pub corruption: Corruption,
    /// The bug-model class this spec was sampled for (reporting only).
    pub model: BugModel,
}

impl BugSpec {
    /// Samples a spec for `model` uniformly over all occurrences of the
    /// model's candidate sites observed in the golden-run `census`
    /// (equivalent to the paper's random-cycle arming, but reproducible).
    ///
    /// For [`BugModel::PdstCorruption`] a uniformly random single bit of
    /// the `pdst_bits`-wide id is flipped.
    ///
    /// Returns `None` when the census shows no occurrence of any candidate
    /// site (the bug cannot activate in this workload).
    pub fn sample(
        model: BugModel,
        census: &CensusHook,
        pdst_bits: u32,
        rng: &mut impl Rng,
    ) -> Option<BugSpec> {
        Self::sample_from(model, model.sites(), census, pdst_bits, rng)
    }

    /// [`BugSpec::sample`] over the SMT candidate set: the model's
    /// single-thread sites plus its [`BugModel::smt_sites`] (thread-select
    /// mux, shared-FL allocate/reclaim). On an SMT census the single-thread
    /// FL sites count zero (the shared FL reports `SmtFlPop`/`SmtFlPush`),
    /// so the census weighting does the routing by itself.
    pub fn sample_smt(
        model: BugModel,
        census: &CensusHook,
        pdst_bits: u32,
        rng: &mut impl Rng,
    ) -> Option<BugSpec> {
        let sites: Vec<crate::model::SiteChoice> = model
            .sites()
            .iter()
            .chain(model.smt_sites())
            .copied()
            .collect();
        Self::sample_from(model, &sites, census, pdst_bits, rng)
    }

    fn sample_from(
        model: BugModel,
        sites: &[crate::model::SiteChoice],
        census: &CensusHook,
        pdst_bits: u32,
        rng: &mut impl Rng,
    ) -> Option<BugSpec> {
        let counts: Vec<u64> = sites.iter().map(|s| census.count(s.site)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        // Pick a global occurrence index, then map it onto a site.
        let mut pick = rng.gen_range(0..total);
        for (choice, &count) in sites.iter().zip(&counts) {
            if pick < count {
                let value_xor = if model == BugModel::PdstCorruption {
                    1u16 << rng.gen_range(0..pdst_bits)
                } else {
                    0
                };
                return Some(BugSpec {
                    site: choice.site,
                    occurrence: pick,
                    corruption: choice.corruption(value_xor),
                    model,
                });
            }
            pick -= count;
        }
        unreachable!("occurrence index within total")
    }
}

impl fmt::Display for BugSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {:?}#{}{}",
            self.model,
            self.site,
            self.occurrence,
            if self.corruption.value_xor != 0 {
                format!(" (bit mask {:#b})", self.corruption.value_xor)
            } else {
                String::new()
            }
        )
    }
}

/// A [`FaultHook`] that applies one [`BugSpec`] exactly once and records
/// the activation cycle.
#[derive(Clone, Debug)]
pub struct SingleShotHook {
    spec: BugSpec,
    seen: u64,
    cycle: u64,
    activation: Option<u64>,
    /// Cycle the run resumed at (snapshot forks): no occurrence of the
    /// site can fire before it, so it is the trigger lower bound.
    resumed_at: u64,
}

impl SingleShotHook {
    /// Arms `spec` for a run starting from power-on.
    pub fn new(spec: BugSpec) -> Self {
        Self::resumed(spec, 0, 0)
    }

    /// Arms `spec` for a run resumed from a mid-run snapshot that had
    /// already passed `seen` occurrences of the spec's site by `cycle`.
    /// The caller must pick a snapshot with `seen <= spec.occurrence`
    /// (asserted): a later one would have skipped past the trigger.
    pub fn resumed(spec: BugSpec, seen: u64, cycle: u64) -> Self {
        assert!(
            seen <= spec.occurrence,
            "snapshot already past occurrence {} of {:?} (saw {seen})",
            spec.occurrence,
            spec.site,
        );
        SingleShotHook {
            spec,
            seen,
            cycle,
            activation: None,
            resumed_at: cycle,
        }
    }

    /// The armed spec.
    pub fn spec(&self) -> &BugSpec {
        &self.spec
    }

    /// The cycle in which the bug activated, if it has.
    pub fn activation_cycle(&self) -> Option<u64> {
        self.activation
    }
}

impl FaultHook for SingleShotHook {
    fn on_op(&mut self, site: OpSite) -> Corruption {
        if site != self.spec.site || self.activation.is_some() {
            if site == self.spec.site {
                self.seen += 1;
            }
            return Corruption::NONE;
        }
        let idx = self.seen;
        self.seen += 1;
        if idx == self.spec.occurrence {
            self.activation = Some(self.cycle);
            self.spec.corruption
        } else {
            Corruption::NONE
        }
    }

    fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    fn earliest_trigger(&self) -> u64 {
        self.resumed_at
    }

    fn activation(&self) -> Option<(u64, &'static str)> {
        self.activation.map(|c| (c, self.spec.site.label()))
    }
}

/// A hook injecting one *at-rest* RAT upset (§V.D's storage-corruption
/// class): at cycle `cycle`, entry `arch`'s stored PdstID is XORed with
/// `mask` without any port traffic. Combine with `idld_core`'s
/// `ParityChecker` to reproduce the paper's "orthogonal schemes" claim.
#[derive(Clone, Copy, Debug)]
pub struct AtRestHook {
    /// Cycle at which the upset lands.
    pub cycle: u64,
    /// RAT entry (logical register index).
    pub arch: usize,
    /// Bit-flip mask.
    pub mask: u16,
    cur: u64,
    applied: bool,
}

impl AtRestHook {
    /// Arms an upset of `arch` with `mask` at `cycle`.
    pub fn new(cycle: u64, arch: usize, mask: u16) -> Self {
        AtRestHook {
            cycle,
            arch,
            mask,
            cur: 0,
            applied: false,
        }
    }

    /// True once the upset has been delivered.
    pub fn applied(&self) -> bool {
        self.applied
    }
}

impl FaultHook for AtRestHook {
    fn on_op(&mut self, _site: OpSite) -> Corruption {
        Corruption::NONE
    }

    fn begin_cycle(&mut self, cycle: u64) {
        self.cur = cycle;
    }

    fn take_at_rest(&mut self) -> Option<(usize, u16)> {
        if !self.applied && self.cur >= self.cycle {
            self.applied = true;
            Some((self.arch, self.mask))
        } else {
            None
        }
    }

    fn earliest_trigger(&self) -> u64 {
        if self.applied {
            u64::MAX
        } else {
            self.cycle
        }
    }

    // Cycle-triggered: the simulator must keep ticking cycle by cycle
    // until the upset lands, even through an otherwise dead pipeline.
    fn quiescent(&self) -> bool {
        self.applied
    }

    fn activation(&self) -> Option<(u64, &'static str)> {
        self.applied.then_some((self.cycle, "RatAtRest"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn census_with(pairs: &[(OpSite, u64)]) -> CensusHook {
        let mut c = CensusHook::new();
        for &(site, n) in pairs {
            for _ in 0..n {
                c.on_op(site);
            }
        }
        c
    }

    #[test]
    fn sample_distributes_over_sites_by_count() {
        let census = census_with(&[(OpSite::FlPop, 90), (OpSite::RobCommitRead, 10)]);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut fl = 0;
        for _ in 0..200 {
            let spec = BugSpec::sample(BugModel::Duplication, &census, 7, &mut rng).unwrap();
            assert!(spec.corruption.suppress_ptr);
            match spec.site {
                OpSite::FlPop => {
                    fl += 1;
                    assert!(spec.occurrence < 90);
                }
                OpSite::RobCommitRead => assert!(spec.occurrence < 10),
                other => panic!("unexpected site {other:?}"),
            }
        }
        assert!(
            fl > 140,
            "sampling should be proportional to counts, got {fl}/200"
        );
    }

    #[test]
    fn sample_smt_routes_by_census_weight() {
        // An SMT census: the shared FL reports the SMT sites, the
        // single-thread FL sites never fire; per-thread RAT/ROB sites are
        // still live.
        let census = census_with(&[
            (OpSite::SmtFlPop, 40),
            (OpSite::SmtFlPush, 30),
            (OpSite::ThreadSelect, 20),
            (OpSite::RatWrite, 40),
            (OpSite::RobCommitRead, 25),
        ]);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut saw_smt_pop = false;
        let mut saw_select = false;
        for _ in 0..100 {
            let dup = BugSpec::sample_smt(BugModel::Duplication, &census, 7, &mut rng).unwrap();
            assert!(matches!(dup.site, OpSite::SmtFlPop | OpSite::RobCommitRead));
            saw_smt_pop |= dup.site == OpSite::SmtFlPop;
            let leak = BugSpec::sample_smt(BugModel::Leakage, &census, 7, &mut rng).unwrap();
            assert!(matches!(
                leak.site,
                OpSite::RatWrite | OpSite::SmtFlPush | OpSite::ThreadSelect
            ));
            saw_select |= leak.site == OpSite::ThreadSelect;
            let pc = BugSpec::sample_smt(BugModel::PdstCorruption, &census, 7, &mut rng).unwrap();
            assert!(matches!(pc.site, OpSite::RatWrite | OpSite::SmtFlPush));
            assert_eq!(pc.corruption.value_xor.count_ones(), 1);
        }
        assert!(saw_smt_pop && saw_select, "SMT sites must be reachable");
    }

    #[test]
    fn sample_smt_on_single_thread_census_matches_sample() {
        // A census with zero occurrences at every SMT site weights the SMT
        // candidates to nothing: the distribution (and with the same rng
        // stream, the exact draw) is the single-thread one.
        let census = census_with(&[(OpSite::RatWrite, 100), (OpSite::FlPush, 50)]);
        let a = BugSpec::sample(
            BugModel::Leakage,
            &census,
            7,
            &mut SmallRng::seed_from_u64(42),
        );
        let b = BugSpec::sample_smt(
            BugModel::Leakage,
            &census,
            7,
            &mut SmallRng::seed_from_u64(42),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn sample_empty_census_is_none() {
        let census = CensusHook::new();
        let mut rng = SmallRng::seed_from_u64(7);
        assert!(BugSpec::sample(BugModel::Leakage, &census, 7, &mut rng).is_none());
    }

    #[test]
    fn corruption_sample_flips_single_bit() {
        let census = census_with(&[(OpSite::RatWrite, 5)]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let spec = BugSpec::sample(BugModel::PdstCorruption, &census, 7, &mut rng).unwrap();
            assert_eq!(spec.corruption.value_xor.count_ones(), 1);
            assert!(spec.corruption.value_xor < 1 << 7);
        }
    }

    #[test]
    fn hook_fires_exactly_once_at_occurrence() {
        let spec = BugSpec {
            site: OpSite::FlPop,
            occurrence: 2,
            corruption: Corruption {
                suppress_ptr: true,
                ..Corruption::NONE
            },
            model: BugModel::Duplication,
        };
        let mut hook = SingleShotHook::new(spec);
        hook.begin_cycle(10);
        assert!(!hook.on_op(OpSite::FlPop).is_active());
        assert!(
            !hook.on_op(OpSite::RatWrite).is_active(),
            "other sites untouched"
        );
        hook.begin_cycle(11);
        assert!(!hook.on_op(OpSite::FlPop).is_active());
        hook.begin_cycle(12);
        assert!(
            hook.on_op(OpSite::FlPop).is_active(),
            "third occurrence fires"
        );
        assert_eq!(hook.activation_cycle(), Some(12));
        hook.begin_cycle(13);
        assert!(!hook.on_op(OpSite::FlPop).is_active(), "single shot only");
    }

    #[test]
    fn resumed_hook_fires_at_the_same_occurrence() {
        let spec = BugSpec {
            site: OpSite::FlPop,
            occurrence: 5,
            corruption: Corruption {
                suppress_ptr: true,
                ..Corruption::NONE
            },
            model: BugModel::Duplication,
        };
        // A snapshot taken at cycle 100 had already passed 3 FlPops.
        let mut hook = SingleShotHook::resumed(spec, 3, 100);
        assert_eq!(hook.earliest_trigger(), 100);
        hook.begin_cycle(100);
        assert!(!hook.on_op(OpSite::FlPop).is_active()); // occurrence 3
        assert!(!hook.on_op(OpSite::FlPop).is_active()); // occurrence 4
        hook.begin_cycle(101);
        assert!(hook.on_op(OpSite::FlPop).is_active(), "occurrence 5 fires");
        assert_eq!(hook.activation_cycle(), Some(101));
    }

    #[test]
    #[should_panic(expected = "snapshot already past occurrence")]
    fn resuming_past_the_trigger_is_rejected() {
        let spec = BugSpec {
            site: OpSite::FlPop,
            occurrence: 2,
            corruption: Corruption::NONE,
            model: BugModel::Duplication,
        };
        let _ = SingleShotHook::resumed(spec, 3, 100);
    }

    #[test]
    fn at_rest_hook_reports_its_arming_cycle() {
        let mut hook = AtRestHook::new(250, 4, 0b10);
        assert_eq!(hook.earliest_trigger(), 250);
        hook.begin_cycle(250);
        assert!(hook.take_at_rest().is_some());
        assert_eq!(hook.earliest_trigger(), u64::MAX, "spent hooks never fire");
    }

    #[test]
    fn spec_display_mentions_model_and_site() {
        let spec = BugSpec {
            site: OpSite::RatWrite,
            occurrence: 9,
            corruption: Corruption {
                value_xor: 0b100,
                ..Corruption::NONE
            },
            model: BugModel::PdstCorruption,
        };
        let s = spec.to_string();
        assert!(s.contains("PdstID Corruption") && s.contains("RatWrite") && s.contains("#9"));
    }

    #[test]
    fn deterministic_under_seed() {
        let census = census_with(&[(OpSite::RatWrite, 100), (OpSite::FlPush, 50)]);
        let a = BugSpec::sample(
            BugModel::Leakage,
            &census,
            7,
            &mut SmallRng::seed_from_u64(42),
        );
        let b = BugSpec::sample(
            BugModel::Leakage,
            &census,
            7,
            &mut SmallRng::seed_from_u64(42),
        );
        assert_eq!(a, b);
    }
}
