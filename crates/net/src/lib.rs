//! # idld-net — the distributed fault-injection service
//!
//! The one way a campaign is split across processes. `campaignd
//! --shards N` runs this service on loopback with `N` local worker
//! processes; `--listen`/`--connect` run the same coordinator and worker
//! across hosts. The deterministic foundation is the `idld-shard v6`
//! artifact format and its byte-identical merge
//! (`idld_campaign::shard`); this crate adds the networking and
//! fault-tolerance layers on top:
//!
//! * [`frame`] — length-prefixed frames with truncation/oversize
//!   rejection;
//! * [`proto`] — the versioned text protocol (`idld-net v3`: HELLO
//!   handshake carrying the shard-format magic, long-polled NEXT, JOB
//!   assignment, PROGRESS streaming, BEAT heartbeats, ARTIFACT upload);
//! * [`coord`] — the coordinator: dispatches shards from a
//!   [`ShardLedger`](idld_campaign::ShardLedger), reassigns lost or
//!   stale shards, persists every completed artifact to
//!   `shard-<i>.part` so a killed coordinator resumes by re-dispatching
//!   only missing shards;
//! * [`worker`] — the worker client: exponential-backoff reconnect,
//!   heartbeating, artifact re-send across connection loss;
//! * [`env`](mod@env) — strict parsing of the `IDLD_HEARTBEAT_MS` /
//!   `IDLD_RETRY_MAX` knobs.
//!
//! The proof obligation: merged `records.csv`/`metrics.csv` are
//! **byte-identical to a single-process run** at any worker count, under
//! any schedule of worker kills and reassignments — first complete
//! artifact wins, duplicates are rejected, and the merge's own
//! duplicate-job check is the final backstop.

pub mod coord;
pub mod env;
pub mod frame;
pub mod proto;
pub mod worker;

pub use coord::{serve, ServeOpts, ServeOutcome};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME};
pub use proto::{hello, JobSpec, Message, PROTO_VERSION};
pub use worker::{run_worker, ProgressFn, WorkerOpts, WorkerSummary};
