//! Strict environment parsing for the service knobs.
//!
//! Same contract as `CampaignConfig::try_from_env`: an *unset* variable
//! falls back to its default, but a *set-but-malformed* one is an error
//! naming the variable — a typo'd heartbeat interval must never silently
//! run the service with the default.

/// Environment variable: heartbeat interval in milliseconds (default
/// [`DEFAULT_HEARTBEAT_MS`]). Workers send a BEAT every interval; the
/// coordinator treats a worker silent for [`STALE_BEATS`] intervals as
/// lost and reassigns its shards.
pub const HEARTBEAT_MS_ENV: &str = "IDLD_HEARTBEAT_MS";
/// Environment variable: maximum worker (re)connect attempts (default
/// [`DEFAULT_RETRY_MAX`]), with exponential backoff between attempts.
pub const RETRY_MAX_ENV: &str = "IDLD_RETRY_MAX";

/// Default heartbeat interval.
pub const DEFAULT_HEARTBEAT_MS: u64 = 1000;
/// Heartbeat intervals of silence before a worker's shards are stealable.
pub const STALE_BEATS: u32 = 5;
/// Default connection-attempt budget.
pub const DEFAULT_RETRY_MAX: u32 = 8;

fn parsed<T: std::str::FromStr>(name: &str, raw: &str, what: &str) -> Result<T, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("{name}={raw:?} is invalid: expected {what}"))
}

/// [`HEARTBEAT_MS_ENV`], defaulting to [`DEFAULT_HEARTBEAT_MS`]. Zero is
/// rejected: a zero interval would spin the heartbeat thread and make
/// every in-flight shard instantly stale.
pub fn try_heartbeat_ms() -> Result<u64, String> {
    match std::env::var(HEARTBEAT_MS_ENV) {
        Err(_) => Ok(DEFAULT_HEARTBEAT_MS),
        Ok(raw) => match parsed::<u64>(HEARTBEAT_MS_ENV, &raw, "milliseconds")? {
            0 => Err(format!(
                "{HEARTBEAT_MS_ENV}=\"0\" is invalid: the interval must be positive"
            )),
            ms => Ok(ms),
        },
    }
}

/// [`RETRY_MAX_ENV`], defaulting to [`DEFAULT_RETRY_MAX`]. Zero is
/// rejected: a worker that may not even try once can never connect.
pub fn try_retry_max() -> Result<u32, String> {
    match std::env::var(RETRY_MAX_ENV) {
        Err(_) => Ok(DEFAULT_RETRY_MAX),
        Ok(raw) => match parsed::<u32>(RETRY_MAX_ENV, &raw, "a count")? {
            0 => Err(format!(
                "{RETRY_MAX_ENV}=\"0\" is invalid: at least one attempt is needed"
            )),
            n => Ok(n),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pure-function tests (no env mutation — parallel tests read the real
    // variables through the try_* wrappers).
    #[test]
    fn numeric_knobs_reject_malformed_and_zero_values() {
        assert_eq!(parsed::<u64>(HEARTBEAT_MS_ENV, " 250 ", "ms"), Ok(250));
        let err = parsed::<u64>(HEARTBEAT_MS_ENV, "fast", "milliseconds").expect_err("words");
        assert!(err.contains(HEARTBEAT_MS_ENV), "{err}");
        let err = parsed::<u32>(RETRY_MAX_ENV, "-1", "a count").expect_err("negative");
        assert!(err.contains(RETRY_MAX_ENV), "{err}");
    }
}
