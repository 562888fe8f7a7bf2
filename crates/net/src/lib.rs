//! # idld-net — the distributed fault-injection service
//!
//! Promotes `campaignd` from "re-exec self N times on one host" to a
//! coordinator/worker service over TCP. The deterministic foundation is
//! the `idld-shard v4` artifact format and its byte-identical merge
//! (`idld_campaign::shard`); this crate adds the networking and
//! fault-tolerance layers on top:
//!
//! * [`frame`] — length-prefixed frames with truncation/oversize
//!   rejection;
//! * [`proto`] — the versioned text protocol (HELLO handshake carrying
//!   the shard-format magic, JOB assignment, PROGRESS streaming, BEAT
//!   heartbeats, ARTIFACT upload);
//! * [`coord`] — the coordinator: dispatches shards from a
//!   [`ShardLedger`](idld_campaign::ShardLedger), reassigns lost or
//!   stale shards, persists every completed artifact to
//!   `shard-<i>.part` so a killed coordinator resumes by re-dispatching
//!   only missing shards;
//! * [`worker`] — the worker client: exponential-backoff reconnect,
//!   heartbeating, artifact re-send across connection loss;
//! * [`env`] — strict parsing of the `IDLD_LISTEN` / `IDLD_CONNECT` /
//!   `IDLD_HEARTBEAT_MS` / `IDLD_RETRY_MAX` knobs.
//!
//! The proof obligation carries over from the multi-process driver:
//! merged `records.csv`/`metrics.csv` are **byte-identical to a
//! single-process run** at any worker count, under any schedule of
//! worker kills and reassignments — first complete artifact wins,
//! duplicates are rejected, and the merge's own duplicate-job check is
//! the final backstop.

pub mod coord;
pub mod env;
pub mod frame;
pub mod proto;
pub mod worker;

pub use coord::{serve, ServeOpts, ServeOutcome};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME};
pub use proto::{hello, JobSpec, Message, PROTO_VERSION};
pub use worker::{run_worker, ProgressFn, WorkerOpts, WorkerSummary};
