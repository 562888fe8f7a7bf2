//! Shard claiming, retry, and resume accounting for distributed campaigns.
//!
//! A [`ShardLedger`] is the coordinator's single source of truth about a
//! campaign's shards: which are still **pending**, which are **in flight**
//! on a worker (and when that worker last proved it was alive), and which
//! are **done** (their artifact persisted to `<dir>/shard-<i>.part`). It
//! is a pure state machine — no I/O except
//! [`ShardLedger::resume_from_dir`], no clocks except the `now` instants
//! its callers pass in — so every transition is unit-testable apart from
//! the TCP coordinator in `idld-net` that drives it.
//!
//! Fault-tolerance rules:
//!
//! - A shard is assigned to exactly one worker at a time, but a worker
//!   that misses heartbeats for longer than the staleness bound loses its
//!   claim: [`ShardLedger::claim`] hands the shard to the next worker that
//!   asks. Both may eventually finish; **the first complete artifact
//!   wins** ([`Completion::Accepted`]) and the loser is rejected as
//!   [`Completion::Duplicate`] — duplicates never reach the merge, whose
//!   own duplicate-job check stays as the final backstop.
//! - A worker whose connection drops returns its in-flight shards to the
//!   front of the pending queue ([`ShardLedger::release`]), so a lost
//!   shard is the *next* thing dispatched.
//! - [`ShardLedger::resume_from_dir`] marks every shard whose `.part`
//!   file already decodes cleanly (matching index and shard count) as
//!   done, so a killed coordinator re-dispatches only missing shards.
//!
//! Every transition is counted in an [`MetricsRegistry`]: shards
//! dispatched / retried / resumed, artifacts accepted / duplicate,
//! workers lost, and a per-shard worker wall-clock histogram.

use crate::shard::decode_shard;
use idld_obs::MetricsRegistry;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The persisted artifact path of shard `i` under `dir`: `shard-<i>.part`.
pub fn part_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.part"))
}

/// What the ledger tells a worker asking for work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Claim {
    /// Run this shard.
    Assign(usize),
    /// Nothing to hand out right now, but in-flight shards could still
    /// come back: ask again shortly.
    Wait,
    /// Every shard is done; the worker can disconnect.
    Finished,
}

/// Verdict on a completed artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// First artifact for this shard: persist it and count it done.
    Accepted,
    /// The shard already completed (a reassigned twin finished first):
    /// discard this artifact.
    Duplicate,
}

/// One in-flight assignment.
#[derive(Clone, Debug)]
struct Inflight {
    shard: usize,
    worker: u64,
    /// Last proof of life from `worker`: connect, claim, heartbeat, or
    /// progress.
    last_beat: Instant,
}

/// Shard dispatch state for one campaign (see the module docs).
#[derive(Debug)]
pub struct ShardLedger {
    shards: usize,
    pending: VecDeque<usize>,
    inflight: Vec<Inflight>,
    done: Vec<bool>,
    metrics: MetricsRegistry,
}

impl ShardLedger {
    /// A ledger with every shard of `0..shards` pending.
    pub fn new(shards: usize) -> ShardLedger {
        ShardLedger {
            shards,
            pending: (0..shards).collect(),
            inflight: Vec::new(),
            done: vec![false; shards],
            metrics: MetricsRegistry::new(),
        }
    }

    /// Whether every shard has a persisted artifact.
    pub fn all_done(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    /// Whether `shard` already has a persisted artifact.
    pub fn is_done(&self, shard: usize) -> bool {
        self.done[shard]
    }

    /// The service metrics accumulated so far.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access for coordinator-side counters that live outside the
    /// ledger's own transitions (connections, heartbeats).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Marks every shard whose `shard-<i>.part` under `dir` already
    /// decodes cleanly — digest intact, with matching index and shard
    /// count — as done,
    /// and returns how many were resumed. A missing, truncated, or
    /// mismatched file leaves its shard pending (it will simply be
    /// re-dispatched); a decodable file from a *different* shard count is
    /// ignored the same way, never trusted.
    pub fn resume_from_dir(&mut self, dir: &Path) -> usize {
        let mut resumed = 0;
        self.pending.retain(|&i| {
            let Ok(text) = std::fs::read_to_string(part_path(dir, i)) else {
                return true;
            };
            match decode_shard(&text) {
                Ok(art) if art.shard == i && art.shards == self.shards => {
                    self.done[i] = true;
                    resumed += 1;
                    false
                }
                _ => true,
            }
        });
        self.metrics.add("shards_resumed", resumed as u64);
        resumed
    }

    /// Hands `worker` a shard: the next pending one, else an in-flight
    /// shard whose worker has been silent for longer than `stale_after`
    /// (counted as a retry), else [`Claim::Wait`] / [`Claim::Finished`].
    pub fn claim(&mut self, worker: u64, now: Instant, stale_after: Duration) -> Claim {
        if let Some(shard) = self.pending.pop_front() {
            self.inflight.push(Inflight {
                shard,
                worker,
                last_beat: now,
            });
            self.metrics.incr("shards_dispatched");
            return Claim::Assign(shard);
        }
        if let Some(f) = self
            .inflight
            .iter_mut()
            .find(|f| f.worker != worker && now.duration_since(f.last_beat) > stale_after)
        {
            f.worker = worker;
            f.last_beat = now;
            self.metrics.incr("shards_dispatched");
            self.metrics.incr("shards_retried");
            return Claim::Assign(f.shard);
        }
        if self.all_done() {
            Claim::Finished
        } else {
            Claim::Wait
        }
    }

    /// Proof of life from `worker`: refreshes the staleness clock of every
    /// shard it holds.
    pub fn beat(&mut self, worker: u64, now: Instant) {
        for f in self.inflight.iter_mut().filter(|f| f.worker == worker) {
            f.last_beat = now;
        }
    }

    /// `worker`'s connection is gone: its in-flight shards go back to the
    /// *front* of the pending queue (a lost shard is the next thing
    /// dispatched), each counted as a retry. Returns the released shards.
    pub fn release(&mut self, worker: u64) -> Vec<usize> {
        let mut released = Vec::new();
        self.inflight.retain(|f| {
            if f.worker == worker {
                released.push(f.shard);
                false
            } else {
                true
            }
        });
        for &shard in released.iter().rev() {
            self.pending.push_front(shard);
            self.metrics.incr("shards_retried");
        }
        if !released.is_empty() {
            self.metrics.incr("workers_lost");
        }
        released
    }

    /// Records a finished artifact for `shard`, with the worker's
    /// reported wall-clock. First completion wins; any later twin is a
    /// [`Completion::Duplicate`] the caller must discard.
    pub fn complete(&mut self, shard: usize, wall_us: u128) -> Completion {
        if self.done[shard] {
            self.metrics.incr("artifacts_duplicate");
            return Completion::Duplicate;
        }
        self.done[shard] = true;
        self.inflight.retain(|f| f.shard != shard);
        self.pending.retain(|&p| p != shard);
        self.metrics.incr("artifacts_accepted");
        self.metrics
            .observe("shard_wall_us", u64::try_from(wall_us).unwrap_or(u64::MAX));
        Completion::Accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::shard::encode_shard;

    const STALE: Duration = Duration::from_millis(100);

    #[test]
    fn claims_drain_pending_then_wait_then_finish() {
        let mut l = ShardLedger::new(2);
        let now = Instant::now();
        assert_eq!(l.claim(1, now, STALE), Claim::Assign(0));
        assert_eq!(l.claim(2, now, STALE), Claim::Assign(1));
        // Nothing pending, both in flight and fresh: wait.
        assert_eq!(l.claim(3, now, STALE), Claim::Wait);
        assert_eq!(l.complete(0, 10), Completion::Accepted);
        assert_eq!(l.complete(1, 10), Completion::Accepted);
        assert!(l.all_done());
        assert_eq!(l.claim(3, now, STALE), Claim::Finished);
        assert_eq!(l.metrics().counter("shards_dispatched"), 2);
        assert_eq!(l.metrics().counter("artifacts_accepted"), 2);
    }

    #[test]
    fn stale_inflight_shards_are_reassigned_and_first_artifact_wins() {
        let mut l = ShardLedger::new(1);
        let t0 = Instant::now();
        assert_eq!(l.claim(1, t0, STALE), Claim::Assign(0));
        // Fresh: not stealable, not even by another worker.
        assert_eq!(l.claim(2, t0, STALE), Claim::Wait);
        let later = t0 + STALE + Duration::from_millis(1);
        // The holder itself never steals its own shard back.
        assert_eq!(l.claim(1, later, STALE), Claim::Wait);
        assert_eq!(l.claim(2, later, STALE), Claim::Assign(0));
        assert_eq!(l.metrics().counter("shards_retried"), 1);
        // Worker 1 limps in first anyway: its artifact wins, worker 2's
        // twin is a duplicate.
        assert_eq!(l.complete(0, 5), Completion::Accepted);
        assert_eq!(l.complete(0, 7), Completion::Duplicate);
        assert_eq!(l.metrics().counter("artifacts_duplicate"), 1);
        assert!(l.all_done());
    }

    #[test]
    fn heartbeats_keep_a_claim_alive() {
        let mut l = ShardLedger::new(1);
        let t0 = Instant::now();
        assert_eq!(l.claim(1, t0, STALE), Claim::Assign(0));
        let later = t0 + STALE + Duration::from_millis(1);
        l.beat(1, later);
        // The beat reset the clock: still not stealable at `later`.
        assert_eq!(l.claim(2, later, STALE), Claim::Wait);
        let much_later = later + STALE + Duration::from_millis(1);
        assert_eq!(l.claim(2, much_later, STALE), Claim::Assign(0));
    }

    #[test]
    fn released_shards_are_redispatched_first() {
        let mut l = ShardLedger::new(3);
        let now = Instant::now();
        assert_eq!(l.claim(1, now, STALE), Claim::Assign(0));
        assert_eq!(l.release(1), vec![0]);
        // Shard 0 jumped the queue ahead of 1 and 2.
        assert_eq!(l.claim(2, now, STALE), Claim::Assign(0));
        assert_eq!(l.release(9), Vec::<usize>::new(), "unknown worker");
        assert_eq!(l.metrics().counter("workers_lost"), 1);
        assert_eq!(l.metrics().counter("shards_retried"), 1);
        assert!((0..3).all(|i| !l.is_done(i)));
    }

    #[test]
    fn resume_marks_only_cleanly_decoding_matching_parts_done() {
        let dir = std::env::temp_dir().join(format!("idld-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let suite: Vec<_> = idld_workloads::suite()
            .into_iter()
            .filter(|w| w.name == "crc32")
            .collect();
        let cfg = CampaignConfig {
            runs_per_cell: 4,
            shards: 4,
            ..CampaignConfig::default()
        };
        // Shard 0: a clean artifact. Shard 1: truncated. Shard 2: absent.
        // Shard 3: complete but one record byte altered.
        let res = Campaign::new(CampaignConfig {
            shard: 0,
            ..cfg.clone()
        })
        .run(&suite)
        .expect("shard 0 runs");
        let art = encode_shard(&res, 0, 4);
        std::fs::write(part_path(&dir, 0), &art).expect("write part 0");
        std::fs::write(part_path(&dir, 1), &art[..art.len() / 2]).expect("write part 1");
        let res3 = Campaign::new(CampaignConfig { shard: 3, ..cfg })
            .run(&suite)
            .expect("shard 3 runs");
        assert!(!res3.records.is_empty(), "shard 3 owns jobs");
        // Flip the low bit of the first record's leading job-index digit:
        // still a digit, so only the digest can tell.
        let mut art3 = encode_shard(&res3, 3, 4).into_bytes();
        let row = art3
            .windows(9)
            .position(|w| w == b"\nrecords ")
            .and_then(|at| {
                art3[at + 1..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map(|n| at + n + 2)
            })
            .expect("a record row");
        art3[row] ^= 1;
        std::fs::write(part_path(&dir, 3), art3).expect("write part 3");

        let mut l = ShardLedger::new(4);
        assert_eq!(l.resume_from_dir(&dir), 1);
        let done: Vec<bool> = (0..4).map(|i| l.is_done(i)).collect();
        assert_eq!(done, [true, false, false, false]);
        assert_eq!(l.metrics().counter("shards_resumed"), 1);
        // A shard-count mismatch is never trusted: the same artifact under
        // a 5-shard ledger stays pending.
        let mut wrong = ShardLedger::new(5);
        assert_eq!(wrong.resume_from_dir(&dir), 0);
        assert!((0..5).all(|i| !wrong.is_done(i)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Seeded random schedules of claims, heartbeats, stale-timeout
    /// reclaims, releases, completions (duplicates included) and
    /// coordinator restarts resumed from the persisted parts, over 1 to 8
    /// shards. Against a model that only knows which shards were
    /// accepted, the ledger must accept each shard exactly once, reject
    /// every later twin, never lose or hand out a finished shard, and
    /// report `all_done()` exactly when every shard has completed.
    #[test]
    fn random_schedules_accept_each_shard_exactly_once() {
        use crate::campaign::CampaignResult;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let dir = std::env::temp_dir().join(format!("idld-ledger-prop-{}", std::process::id()));
        let part =
            |shard: usize, shards: usize| encode_shard(&CampaignResult::default(), shard, shards);
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let shards = rng.gen_range(1..9usize);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("temp dir");
            let mut l = ShardLedger::new(shards);
            let mut accepted = vec![0usize; shards];
            let mut claimed: Vec<usize> = Vec::new();
            let mut now = Instant::now();
            let ctx = |step: usize| format!("seed {seed}, {shards} shards, step {step}");

            for step in 0..200 {
                let worker = rng.gen_range(1..5u64);
                match rng.gen_range(0..16u32) {
                    0..=4 => match l.claim(worker, now, STALE) {
                        Claim::Assign(s) => {
                            assert!(!l.is_done(s), "{}: assigned done shard {s}", ctx(step));
                            claimed.push(s);
                        }
                        Claim::Wait => assert!(!l.all_done(), "{}", ctx(step)),
                        Claim::Finished => assert!(l.all_done(), "{}", ctx(step)),
                    },
                    5 | 6 => l.beat(worker, now),
                    7 | 8 => now += STALE + Duration::from_millis(1),
                    9 => {
                        for s in l.release(worker) {
                            assert!(!l.is_done(s), "{}: released done shard", ctx(step));
                        }
                    }
                    10..=14 => {
                        let s = if !claimed.is_empty() && rng.gen_bool(0.75) {
                            claimed[rng.gen_range(0..claimed.len())]
                        } else {
                            rng.gen_range(0..shards)
                        };
                        let got = l.complete(s, 1);
                        if accepted[s] == 0 {
                            assert_eq!(got, Completion::Accepted, "{}", ctx(step));
                            accepted[s] += 1;
                            std::fs::write(part_path(&dir, s), part(s, shards)).expect("persist");
                        } else {
                            assert_eq!(got, Completion::Duplicate, "{}", ctx(step));
                        }
                    }
                    _ => {
                        // Coordinator restart. Plant an untrustworthy part
                        // for one unfinished shard: it must stay pending.
                        if let Some(s) = (0..shards).find(|&s| accepted[s] == 0) {
                            let bad = if rng.gen_bool(0.5) {
                                part(s, shards + 1)
                            } else {
                                part(s, shards)[..20].to_string()
                            };
                            std::fs::write(part_path(&dir, s), bad).expect("plant");
                        }
                        l = ShardLedger::new(shards);
                        claimed.clear();
                        let persisted = accepted.iter().filter(|&&a| a > 0).count();
                        assert_eq!(l.resume_from_dir(&dir), persisted, "{}", ctx(step));
                    }
                }
                for (s, &a) in accepted.iter().enumerate() {
                    assert_eq!(l.is_done(s), a == 1, "{}: shard {s}", ctx(step));
                }
                let complete = accepted.iter().all(|&a| a == 1);
                assert_eq!(l.all_done(), complete, "{}", ctx(step));
            }

            // Drain: a worker that outlives every stale claim must be able
            // to finish the campaign — no unfinished shard is ever lost.
            for _ in 0..=shards {
                now += STALE + Duration::from_millis(1);
                match l.claim(99, now, STALE) {
                    Claim::Assign(s) => {
                        assert_eq!(l.complete(s, 1), Completion::Accepted, "seed {seed}");
                        accepted[s] += 1;
                    }
                    Claim::Finished => break,
                    Claim::Wait => panic!("seed {seed}: an unfinished shard was lost"),
                }
            }
            assert!(l.all_done(), "seed {seed}");
            assert_eq!(accepted, vec![1; shards], "seed {seed}: exactly once");
            assert_eq!(l.claim(99, now, STALE), Claim::Finished);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
