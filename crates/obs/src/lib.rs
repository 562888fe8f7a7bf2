//! # idld-obs — pipeline observability layer
//!
//! Zero-cost-when-disabled structured tracing and metrics for the IDLD
//! simulator. Three parts:
//!
//! 1. **Events + recorders** ([`event`], [`record`]): typed per-cycle
//!    pipeline events behind the [`Recorder`] trait. The simulator is
//!    generic over `R: Recorder`; with the default [`NullRecorder`]
//!    every probe compiles to nothing, with [`RingRecorder`] the run
//!    produces a bounded ring of recent events plus exact aggregate
//!    counts and a streaming FNV-1a digest over the whole stream.
//!    A recorded run forks its recorder by cloning it, so runs forked
//!    from a mid-run snapshot emit byte-identical traces to cold runs.
//! 2. **Metrics** ([`metrics`]): a name-keyed counters/histograms
//!    registry, aggregated per run, rolled up per campaign cell, and
//!    exported as deterministic CSV + hand-rolled JSON.
//! 3. **Exporters** ([`chrome`], [`compact`]): Chrome
//!    `chrome://tracing` JSON (per-stage tracks, occupancy/XOR counter
//!    tracks, and an inject→detect span whose duration is the detection
//!    latency) and the compact deterministic text format that the
//!    golden-trace conformance suite byte-diffs.
//!
//! The crate is dependency-free and sits below `rrs`/`sim` in the
//! workspace graph: events carry plain integers and `&'static str`
//! labels, never simulator types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod compact;
pub mod event;
pub mod metrics;
pub mod record;

pub use chrome::chrome_trace;
pub use compact::{compact_trace, parse_digest, DEFAULT_TAIL, FORMAT_VERSION};
pub use event::{EventKind, Fnv64, ObsEvent, TimedEvent};
pub use metrics::{Histogram, MetricsRegistry, METRICS_CSV_HEADER};
pub use record::{NullRecorder, Recorder, RingRecorder, DEFAULT_RING_CAPACITY};

/// A passive consumer of the event stream, for components that derive
/// state from events without owning the recorder (e.g. the simulator's
/// `TraceMonitor` and `CommitTrace` consume `Commit` events). Keeping
/// consumers on the same stream as the recorder guarantees one source
/// of truth for what happened each cycle.
pub trait Consume {
    /// Observes one event. Consumers must not assume they see every
    /// event kind — drivers may route only the kinds a consumer cares
    /// about.
    fn consume(&mut self, cycle: u64, ev: &ObsEvent);
}
