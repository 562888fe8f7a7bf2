//! The §V.F use case: IDLD protecting the Store-Sets memory dependence
//! predictor's LFST against dropped removals (which otherwise hang loads
//! on stores that already left the pipeline).
//!
//! ```sh
//! cargo run --release --example mdp_checker
//! ```

use idld::mdp::usecase::POLICIES;
use idld::mdp::{CheckPolicy, DriverConfig, MdpPipeline};

fn main() {
    // Bug-free: the closed loop stays balanced.
    let clean = MdpPipeline::new(DriverConfig::default()).run(CheckPolicy::SqEmpty);
    println!(
        "bug-free: {} insertions, {} removals, {} SQ-empty checks, detection {:?}",
        clean.insertions, clean.removals, clean.sq_empties, clean.detection_op
    );

    // Drop one LFST removal and watch the policies race the hang.
    println!();
    println!("injecting a dropped LFST removal (the ICL065-style hazard):");
    for (name, policy) in POLICIES {
        let cfg = DriverConfig {
            inject_removal_drop_at: Some(120),
            ..Default::default()
        };
        let out = MdpPipeline::new(cfg).run(policy);
        println!(
            "  {name:<15}: activated@{:?}  idld-detect@{:?}  load-hang@{:?}",
            out.activation_op, out.detection_op, out.hang_op
        );
    }
    println!();
    println!("the SQ-empty policy flags the invariance break within a few ops;");
    println!("without IDLD the only symptom is a load that never wakes up.");
}
