//! Zero-dependency tracing and profiling for the CFP-growth workspace.
//!
//! The paper's evaluation hinges on *where* time and memory go: the four
//! mining phases (scan, build, convert, mine), the allocator's free-queue
//! behaviour (Appendix A), and the node-type mix of the compressed tree
//! (§3.3). This crate makes those observable without pulling in the
//! `tracing` ecosystem — the workspace must build fully offline — and
//! without perturbing the numbers it measures:
//!
//! - [`counters`]: a static registry of atomic [`Counter`]s and
//!   [`MaxGauge`]s. All metrics are defined centrally here and in
//!   [`hist`]; producer crates (`cfp-memman`, `cfp-tree`, `cfp-array`,
//!   `cfp-core`) bump them directly.
//! - [`hist`]: the one histogram type, [`Histogram`]: log-linear
//!   (HDR-style), fixed-memory, with lock-free atomic buckets, an exact
//!   count, sum and maximum, and percentiles within 6.25%; mergeable
//!   across workers. The registry's eleven instances time latencies and
//!   record the mine phase's distributions.
//! - [`span`]: phase spans ([`Phase`], [`span()`]) accumulating wall time
//!   per mining phase into atomics, plus aggregate recursion events for
//!   the conditional-tree descent (depth and pattern-base size
//!   histograms, single-path short-circuits).
//! - [`sampler`]: a background [`MemSampler`] thread snapshotting the
//!   memory gauges at a configurable interval into a time series.
//! - [`events`]: the event timeline — lock-free per-thread ring buffers
//!   of typed, timestamped events (phase transitions, task claims/steals,
//!   recursion enter/exit, arena activity, recovery rungs, buffer swaps).
//! - [`chrome`]: Chrome trace-event JSON export of the timeline (loads
//!   in Perfetto / `chrome://tracing`).
//! - [`flame`]: folded-stack flamegraph lines of the conditional-tree
//!   descent (`flamegraph.pl` / speedscope input).
//! - [`progress`]: a live status heartbeat on stderr.
//! - [`json`]: a hand-rolled JSON value type, writer, and parser.
//! - [`snapshot`]: one capture of the registry — phases, counters,
//!   histogram summaries — and its one serialiser; the run report, the
//!   metrics export and the flight recorder all embed it.
//! - [`report`]: the versioned machine-readable run report
//!   (`"cfp-profile/5"`) emitted by `cfp-mine --profile`.
//! - [`memstat`]: the versioned space-domain report (`"cfp-memstat/1"`)
//!   emitted by `cfp-mine --mem-report` — per-component attribution,
//!   reconciliation audit, structure analytics, and the compression
//!   table.
//! - [`metrics`]: live export of the registry — Prometheus text
//!   exposition plus a `"cfp-metrics/3"` JSONL stream, rewritten
//!   atomically every `--metrics-every` interval.
//! - [`blackbox`]: the flight recorder — checksummed `"cfp-blackbox/4"`
//!   post-mortems dumped on error exits, rendered by
//!   `cfp-repro postmortem`.
//! - [`fnv`]: FNV-1a, the one checksum of every persisted format, and
//!   the sealed JSON envelope of the checkpoint manifest and the
//!   post-mortem.
//! - [`atomic`]: [`write_atomic`], the one temp → fsync → rename write
//!   of every file the workspace replaces in place (spill partitions,
//!   checkpoint manifests, the metrics exposition, the post-mortem).
//!
//! # Cost when disabled
//!
//! Instrumentation is double-gated. The cargo feature `trace` (default on)
//! compiles the sites in or out; with it off, [`enabled()`] is a constant
//! `false` and dead-code elimination removes every site. With the feature
//! on, sites still do nothing until [`set_enabled`]`(true)` — the only
//! cost on a hot path is a single relaxed atomic load.
//!
//! ```
//! use cfp_trace::{enabled, set_enabled, span, Phase};
//!
//! set_enabled(true);
//! {
//!     let _guard = span(Phase::Build);
//!     // ... work attributed to the build phase ...
//! }
//! let snap = cfp_trace::span::phase_snapshot();
//! assert!(snap.iter().any(|p| p.name == "build" && p.count == 1));
//! set_enabled(false);
//! cfp_trace::reset();
//! ```

#![warn(missing_docs)]

pub mod atomic;
pub mod blackbox;
pub mod chrome;
pub mod counters;
pub mod events;
pub mod flame;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod memstat;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod sampler;
pub mod snapshot;
pub mod span;

pub use atomic::write_atomic;
pub use blackbox::BlackboxReport;
pub use counters::{Counter, MaxGauge};
pub use events::{Event, EventKind, EventsSummary, Rung, TrackDump};
pub use hist::{HistSnapshot, HistSummary, Histogram};
pub use json::Json;
pub use memstat::{MemStatReport, MemSummary};
pub use metrics::{MetricsExporter, MetricsSnapshot};
pub use progress::ProgressMeter;
pub use report::RunReport;
pub use sampler::{MemSampler, Sample};
pub use snapshot::Snapshot;
pub use span::{span, Phase, SpanGuard};

#[cfg(feature = "trace")]
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "trace")]
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is live. One relaxed load; constant `false`
/// (and thus free) when the `trace` feature is compiled out.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        ENABLED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Turns instrumentation on or off at runtime. No-op without the `trace`
/// feature.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "trace")]
    ENABLED.store(on, Ordering::Relaxed);
    #[cfg(not(feature = "trace"))]
    let _ = on;
}

/// Resets every counter, histogram, gauge, phase span, and event ring to
/// zero.
///
/// Tests use this to start from a clean slate; note that the registry is
/// process-global, so tests touching it must serialise themselves (see
/// `counters::tests`).
pub fn reset() {
    counters::reset_all();
    hist::reset_all();
    span::reset();
    events::reset();
}
