//! The §V.F policy comparison: the same removal-drop injections checked
//! under each [`CheckPolicy`].

use crate::checker::CheckPolicy;
use crate::driver::{DriverConfig, MdpPipeline};
use std::fmt::Write;

/// Removal-drop injections per policy.
pub const INJECTIONS: u64 = 40;

/// The policies compared, in table order.
pub const POLICIES: [(&str, CheckPolicy); 3] = [
    ("counter-zero", CheckPolicy::CounterZero),
    ("sq-empty", CheckPolicy::SqEmpty),
    ("checkpointed(8)", CheckPolicy::Checkpointed { interval: 8 }),
];

/// One policy's tallies over the [`INJECTIONS`] injected runs. Runs whose
/// injection never activated count in no column.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicyRow {
    /// Policy label.
    pub policy: &'static str,
    /// Runs whose removal drop activated.
    pub activated: u64,
    /// Activated runs the checker flagged.
    pub detected: u64,
    /// Mean activation→detection latency in ops (`None` if none detected).
    pub mean_latency: Option<f64>,
    /// Activated runs in which a load hung on a departed store.
    pub hangs: u64,
    /// Hangs that came before detection (or with no detection at all).
    pub hang_first: u64,
}

/// §V.F: the Store-Sets LFST check-policy comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct UseCaseTable {
    /// One row per entry of [`POLICIES`], in that order.
    pub rows: Vec<PolicyRow>,
}

impl UseCaseTable {
    /// Runs injection `k` (dropping the `7k`-th removal, seed `0x111d + k`)
    /// for `k < INJECTIONS` under every policy.
    pub fn build() -> Self {
        let rows = POLICIES
            .iter()
            .map(|&(name, policy)| {
                let mut row = PolicyRow {
                    policy: name,
                    ..Default::default()
                };
                let mut lat_sum = 0u64;
                for k in 0..INJECTIONS {
                    let cfg = DriverConfig {
                        inject_removal_drop_at: Some(k * 7),
                        seed: 0x111d + k,
                        ..Default::default()
                    };
                    let out = MdpPipeline::new(cfg).run(policy);
                    let Some(act) = out.activation_op else { continue };
                    row.activated += 1;
                    if let Some(det) = out.detection_op {
                        row.detected += 1;
                        lat_sum += det.saturating_sub(act);
                    }
                    if let Some(h) = out.hang_op {
                        row.hangs += 1;
                        if out.detection_op.is_none_or(|d| h < d) {
                            row.hang_first += 1;
                        }
                    }
                }
                if row.detected > 0 {
                    row.mean_latency = Some(lat_sum as f64 / row.detected as f64);
                }
                row
            })
            .collect();
        UseCaseTable { rows }
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "§V.F — Store-Sets LFST use case ({INJECTIONS} removal-drop injections per policy)"
        );
        let _ = writeln!(
            s,
            "{:<16} {:>9} {:>9} {:>9} {:>6} {:>10}",
            "policy", "activated", "detected", "mean lat", "hangs", "hang-first"
        );
        for r in &self.rows {
            let lat = r
                .mean_latency
                .map_or_else(|| "—".to_string(), |m| format!("{m:.1}"));
            let _ = writeln!(
                s,
                "{:<16} {:>9} {:>9} {lat:>9} {:>6} {:>10}",
                r.policy, r.activated, r.detected, r.hangs, r.hang_first
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_the_section_v_f_shape() {
        let t = UseCaseTable::build();
        let names: Vec<_> = t.rows.iter().map(|r| r.policy).collect();
        assert_eq!(names, ["counter-zero", "sq-empty", "checkpointed(8)"]);
        for r in &t.rows {
            assert!(r.detected <= r.activated, "{r:?}");
            assert!(r.activated <= INJECTIONS, "{r:?}");
            assert!(r.hang_first <= r.hangs, "{r:?}");
            assert_eq!(r.mean_latency.is_some(), r.detected > 0, "{r:?}");
        }
        assert!(
            t.rows[1].detected > t.rows[0].detected,
            "SQ-empty must catch more dropped removals than counter-zero: {:?}",
            t.rows
        );
        assert_eq!(t.render().lines().count(), 2 + t.rows.len());
    }
}
