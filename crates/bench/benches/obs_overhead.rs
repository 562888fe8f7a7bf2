//! Measures the cost of full tracing in the simulation loop.
//!
//! Runs every suite workload to completion twice — `run_observed` with the
//! [`NullRecorder`] (the disabled path) and with a [`RingRecorder`] (full
//! tracing) — and reports Mcycles/s plus the ring recorder's overhead over
//! the disabled path. That ring column is the DESIGN.md §9 number.
//!
//! There is no separate "plain" leg: [`Simulator::run`] and
//! `run_observed(.., &mut NullRecorder)` reach the same
//! `main_loop::<NullRecorder>` instantiation, so the disabled path costs
//! nothing by construction and timing it twice would only measure noise.

use idld_campaign::injection_checkers;
use idld_obs::{NullRecorder, RingRecorder};
use idld_rrs::NoFaults;
use idld_sim::{SimConfig, Simulator};
use std::time::Instant;

const BUDGET: u64 = 500_000_000;
const REPS: usize = 3;

fn main() {
    idld_bench::banner("observability overhead (null recorder vs ring recorder)");
    let cfg = SimConfig::default();
    let suite = idld_workloads::suite();

    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>8}",
        "workload", "cycles", "null Mc/s", "ring Mc/s", "ring %"
    );

    let mut tot = [0.0f64; 2];
    for w in &suite {
        let mut secs = [f64::MAX; 2];
        let mut cycles = 0;
        for _ in 0..REPS {
            // Disabled path: the NullRecorder instantiation every
            // campaign run takes.
            let mut c = injection_checkers(&cfg);
            let mut sim = Simulator::new(&w.program, cfg);
            let t = Instant::now();
            let res = sim.run_observed(&mut NoFaults, &mut c, None, BUDGET, &mut NullRecorder);
            secs[0] = secs[0].min(t.elapsed().as_secs_f64());
            cycles = res.cycles;

            // Full tracing.
            let mut c = injection_checkers(&cfg);
            let mut sim = Simulator::new(&w.program, cfg);
            let mut rec = RingRecorder::default();
            let t = Instant::now();
            sim.run_observed(&mut NoFaults, &mut c, None, BUDGET, &mut rec);
            secs[1] = secs[1].min(t.elapsed().as_secs_f64());
        }
        let mcs = |s: f64| cycles as f64 / s / 1e6;
        println!(
            "{:<14} {:>10} {:>12.2} {:>12.2} {:>7.2}%",
            w.name,
            cycles,
            mcs(secs[0]),
            mcs(secs[1]),
            (secs[1] / secs[0] - 1.0) * 100.0,
        );
        for (acc, s) in tot.iter_mut().zip(secs) {
            *acc += s;
        }
    }

    println!(
        "\nsuite wall: null-recorder {:.3}s, ring-recorder {:.3}s ({:+.2}%)",
        tot[0],
        tot[1],
        (tot[1] / tot[0] - 1.0) * 100.0,
    );
}
