//! Phase spans and aggregate recursion events.
//!
//! The paper reports time per mining phase (Figure 7 splits scan from
//! build+convert); [`Phase`] names those phases and [`span()`] returns an
//! RAII guard that adds the guard's lifetime to the phase's accumulated
//! wall time. Spans are *accumulating*: entering the same phase twice
//! (e.g. per-worker mine spans) sums the durations and counts the entries.
//!
//! The conditional-tree descent of the mine phase would produce millions
//! of events if logged individually; instead [`conditional_tree`] and
//! [`single_path`] fold each event into the aggregate registry metrics
//! (depth histogram, max depth, pattern-base size histogram, short-circuit
//! counter) in a few relaxed atomic ops.

use crate::counters::{
    CORE_CONDITIONAL_TREES, CORE_DEPTH, CORE_MAX_DEPTH, CORE_PATTERN_BASE_LOG2,
    CORE_SINGLE_PATH_SHORTCUTS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The mining phases of the CFP-growth pipeline (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reading transactions from disk (or the generator).
    Read,
    /// First scan: per-item support counting and recoding.
    Count,
    /// Building the compressed CFP-tree.
    Build,
    /// Converting the CFP-tree to the CFP-array.
    Convert,
    /// Mining the CFP-array (conditional-tree recursion).
    Mine,
    /// Recovery-ladder work after a failed attempt (compaction retry,
    /// sequential downshift, partitioned fallback). Zero on healthy runs.
    Recover,
    /// Spill-file I/O: writing CFP-arrays (a partition's array, or an
    /// oversized conditional array) to crash-safe spill files and reading
    /// them back, plus checkpoint-manifest commits, which use the same
    /// atomic write. Zero unless `--recover=spill` or `--checkpoint-dir`
    /// runs.
    Spill,
}

/// Number of phases; keep in sync with [`Phase::ALL`].
const NUM_PHASES: usize = 7;

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Read,
        Phase::Count,
        Phase::Build,
        Phase::Convert,
        Phase::Mine,
        Phase::Recover,
        Phase::Spill,
    ];

    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Read => "read",
            Phase::Count => "count",
            Phase::Build => "build",
            Phase::Convert => "convert",
            Phase::Mine => "mine",
            Phase::Recover => "recover",
            Phase::Spill => "spill",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Read => 0,
            Phase::Count => 1,
            Phase::Build => 2,
            Phase::Convert => 3,
            Phase::Mine => 4,
            Phase::Recover => 5,
            Phase::Spill => 6,
        }
    }

    pub(crate) fn from_index(i: usize) -> Option<Phase> {
        Phase::ALL.get(i).copied()
    }
}

static PHASE_NANOS: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];
static PHASE_COUNTS: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];

/// Most recently *entered* phase, as `index + 1` (0 = none yet). Spans
/// nest and overlap across workers, so this is a display hint for the
/// live progress meter, not an accounting structure; it is deliberately
/// not cleared when a span ends.
static CURRENT_PHASE: AtomicU64 = AtomicU64::new(0);

/// Starts a span attributed to `phase`. The span ends (and its duration
/// is recorded) when the returned guard drops. When tracing is disabled
/// the guard is inert and the call costs one relaxed load. With event
/// capture on, the guard additionally records `PhaseBegin`/`PhaseEnd`
/// on the calling thread's timeline track.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { started: None };
    }
    CURRENT_PHASE.store(phase.index() as u64 + 1, Ordering::Relaxed);
    if crate::events::capturing() {
        crate::events::record(crate::events::EventKind::PhaseBegin(phase));
    }
    SpanGuard { started: Some((phase, Instant::now())) }
}

/// The phase most recently entered by any thread, if spans have run.
pub fn current_phase() -> Option<Phase> {
    match CURRENT_PHASE.load(Ordering::Relaxed) {
        0 => None,
        i => Phase::from_index(i as usize - 1),
    }
}

/// RAII guard returned by [`span`]; records on drop.
#[derive(Debug)]
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    started: Option<(Phase, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((phase, start)) = self.started {
            let nanos = start.elapsed().as_nanos() as u64;
            PHASE_NANOS[phase.index()].fetch_add(nanos, Ordering::Relaxed);
            PHASE_COUNTS[phase.index()].fetch_add(1, Ordering::Relaxed);
            if crate::events::capturing() {
                crate::events::record(crate::events::EventKind::PhaseEnd(phase));
            }
        }
    }
}

/// Accumulated timing of one phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Stable phase name (`"read"`, `"count"`, ...).
    pub name: &'static str,
    /// Total wall nanoseconds spent in the phase across all spans.
    pub nanos: u64,
    /// Number of spans recorded (workers entering the phase, retries, ...).
    pub count: u64,
}

/// All phases in pipeline order with their accumulated times.
pub fn phase_snapshot() -> Vec<PhaseSpan> {
    Phase::ALL
        .iter()
        .map(|&p| PhaseSpan {
            name: p.name(),
            nanos: PHASE_NANOS[p.index()].load(Ordering::Relaxed),
            count: PHASE_COUNTS[p.index()].load(Ordering::Relaxed),
        })
        .collect()
}

/// Zeroes all phase accumulators and the current-phase hint.
pub fn reset() {
    for i in 0..NUM_PHASES {
        PHASE_NANOS[i].store(0, Ordering::Relaxed);
        PHASE_COUNTS[i].store(0, Ordering::Relaxed);
    }
    CURRENT_PHASE.store(0, Ordering::Relaxed);
}

/// Records one conditional-tree recursion at `depth` (length of the
/// current suffix) over a pattern base of `pattern_base_size` paths.
///
/// Callers must check [`crate::enabled()`] first — this is the per-item
/// hot path of the mine phase.
#[inline]
pub fn conditional_tree(depth: usize, pattern_base_size: usize) {
    CORE_CONDITIONAL_TREES.inc();
    CORE_DEPTH.record(depth);
    CORE_MAX_DEPTH.record(depth as u64);
    CORE_PATTERN_BASE_LOG2.record_log2(pattern_base_size as u64);
}

/// Records one recursion answered by the single-path short-circuit
/// (§3.2: a chain suffix enumerates its subsets directly).
#[inline]
pub fn single_path() {
    CORE_SINGLE_PATH_SHORTCUTS.inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    static SPAN_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        crate::set_enabled(false);
        reset();
        {
            let _s = span(Phase::Build);
        }
        assert!(phase_snapshot().iter().all(|p| p.nanos == 0 && p.count == 0));
    }

    #[test]
    fn enabled_spans_accumulate() {
        let _g = lock();
        crate::set_enabled(true);
        reset();
        {
            let _s = span(Phase::Mine);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _s = span(Phase::Mine);
        }
        let mine = phase_snapshot().into_iter().find(|p| p.name == "mine").unwrap();
        assert_eq!(mine.count, 2);
        assert!(mine.nanos >= 2_000_000, "slept 2ms but recorded {}ns", mine.nanos);
        crate::set_enabled(false);
        reset();
    }

    #[test]
    fn snapshot_is_in_pipeline_order() {
        let names: Vec<_> = phase_snapshot().iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["read", "count", "build", "convert", "mine", "recover", "spill"]);
    }
}
