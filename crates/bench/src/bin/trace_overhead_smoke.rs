//! CI guard: the observability layer must be free when disabled.
//!
//! Every campaign run goes through the recorder-generic simulator with
//! [`idld_obs::NullRecorder`], whose probes compile to nothing — so
//! campaign throughput is the regression signal for the disabled path.
//! This smoke runs the full-suite campaign at the default configuration
//! `campaignd --bench` used to write `BENCH_campaign.json` and fails if
//! runs/sec dropped more than the tolerance below the recorded
//! `suite_default` baseline.
//!
//! * `IDLD_BENCH_JSON` — baseline file path (default `BENCH_campaign.json`).
//!   A missing baseline skips the check (fresh clones, cross-machine CI).
//! * `IDLD_OVERHEAD_TOLERANCE` — allowed fractional regression
//!   (default `0.05` = 5%).

use idld_campaign::{Campaign, CampaignConfig};

/// Pulls `"runs_per_sec": <float>` out of the named campaign's object in
/// `BENCH_campaign.json`. Hand-rolled: the file is machine-written with
/// one key per line, so a string scan is reliable and keeps this
/// dependency-free.
fn baseline_runs_per_sec(json: &str, campaign: &str) -> Option<f64> {
    let start = json.find(&format!("\"name\": \"{campaign}\""))?;
    let rest = &json[start..];
    let key = "\"runs_per_sec\":";
    let at = rest.find(key)? + key.len();
    let tail = &rest[at..];
    let end = tail.find([',', '\n', '}'])?;
    tail[..end].trim().parse().ok()
}

fn main() {
    let baseline_path = std::env::var(idld_bench::BENCH_JSON_ENV)
        .unwrap_or_else(|_| "BENCH_campaign.json".to_string());
    let tolerance: f64 = match std::env::var("IDLD_OVERHEAD_TOLERANCE") {
        Err(_) => 0.05,
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("trace_overhead_smoke: IDLD_OVERHEAD_TOLERANCE must be a number, got {v:?}");
            std::process::exit(2);
        }),
    };

    let Ok(json) = std::fs::read_to_string(&baseline_path) else {
        println!("trace_overhead_smoke: no baseline at {baseline_path}; skipping");
        return;
    };
    let Some(reference) = baseline_runs_per_sec(&json, "suite_default") else {
        println!(
            "trace_overhead_smoke: {baseline_path} has no suite_default runs_per_sec; skipping"
        );
        return;
    };

    // Mirror the baseline's configuration: full suite, default scale.
    let cfg = CampaignConfig::from_env();
    let suite = idld_workloads::suite();
    let res = Campaign::new(cfg)
        .run(&suite)
        .unwrap_or_else(|e| panic!("campaign baseline invalid: {e}"));
    let runs_per_sec = res.records.len() as f64 / res.wall.as_secs_f64();

    let floor = reference * (1.0 - tolerance);
    println!(
        "trace_overhead_smoke: {:.1} runs/s measured vs {reference:.1} baseline \
         (floor {floor:.1} at {:.0}% tolerance)",
        runs_per_sec,
        tolerance * 100.0
    );
    if runs_per_sec < floor {
        eprintln!(
            "trace_overhead_smoke: FAIL — disabled-recorder campaign throughput regressed \
             more than {:.0}% below {baseline_path}",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!("trace_overhead_smoke: OK");
}
