//! The event timeline: lock-free per-thread ring buffers of typed events.
//!
//! Aggregate counters (see [`crate::counters`]) answer *how much*; they
//! cannot answer *when*. A straggler worker holding the mine phase, a
//! burst of steals at the cheap tail of the task queue, or a recovery
//! rung firing mid-run all look identical in end-of-run totals. This
//! module records the underlying events with timestamps so the exporters
//! ([`crate::chrome`], [`crate::flame`]) can reconstruct the timeline.
//!
//! # Design
//!
//! Each thread owns one fixed-capacity [`Ring`] registered in a global
//! list the first time the thread records. Recording is wait-free and
//! lock-free: the owning thread is the only writer, so a slot store plus
//! one release store of the write counter publishes an event — no CAS, no
//! lock, no allocation. When the ring is full the oldest event is
//! overwritten (drop-oldest); the write counter keeps the true total, so
//! `written - capacity` events are known dropped and reported as such
//! rather than silently missing.
//!
//! Readers ([`drain`]) run after the writing threads have quiesced (the
//! pipeline joins its workers before exporting), acquire-load the write
//! counter, and decode the surviving window. Timestamps come from one
//! process-wide monotonic [`Instant`] epoch so events from different
//! threads order correctly on a shared timeline.
//!
//! # Gating
//!
//! Event capture is gated separately from the metric registry: profiling
//! a run (`--profile`) should not pay for event recording unless a
//! timeline export was requested. Producers therefore check
//! [`capturing()`] — constant `false` without the `trace` feature, one
//! relaxed load with it — before calling [`record`].

use crate::span::Phase;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events a thread can record on its timeline track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A [`crate::span`] phase span opened on this thread.
    PhaseBegin(Phase),
    /// The matching span closed.
    PhaseEnd(Phase),
    /// A mine-phase worker claimed a task from the dynamic scheduler.
    TaskClaim {
        /// First-level item (recoded id) of the claimed task.
        item: u32,
        /// Estimated task cost (encoded subarray bytes).
        cost: u64,
        /// Whether the claim exceeded the worker's fair static share —
        /// work the dynamic scheduler moved off an overloaded peer.
        stolen: bool,
    },
    /// A conditional-tree recursion started (pattern base counted, tree
    /// about to be built and mined).
    RecEnter {
        /// Item being conditioned on (global id, as emitted in output).
        item: u32,
        /// Recursion depth = length of the current suffix.
        depth: u16,
        /// Paths in the conditional pattern base.
        pattern_base: u64,
    },
    /// The recursion for `item` returned (subtree fully mined).
    RecExit {
        /// Item of the matching [`EventKind::RecEnter`].
        item: u32,
    },
    /// An arena allocation hit memory pressure (budget or bump-space
    /// exhaustion) and is about to attempt compaction.
    ArenaPressure {
        /// Bytes the failing allocation requested.
        requested: u64,
    },
    /// An arena compaction finished.
    ArenaCompact {
        /// Bytes returned to the footprint.
        reclaimed: u64,
    },
    /// An arena was recycled via `reset` instead of reallocated.
    ArenaReset,
    /// The recovery supervisor started a ladder rung.
    RecoveryRung(Rung),
    /// The double-buffered reader handed a filled buffer to the parser.
    BufferSwap {
        /// Transactions in the swapped buffer.
        rows: u32,
    },
    /// The spill rung moved one serialized structure across the disk
    /// boundary (one event per completed file write or read-back).
    SpillIo {
        /// Bytes written to (or read from) the spill file.
        bytes: u64,
        /// `true` for a write, `false` for a read-back.
        write: bool,
    },
}

/// Rungs of the supervisor's recovery ladder, in escalation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Compact-and-retry at full parallelism.
    Retry,
    /// Sequential downshift.
    Degrade,
    /// Partitioned fallback mining.
    Partition,
    /// Out-of-core partitioned fallback: projections spilled to disk.
    Spill,
}

impl Rung {
    /// Stable lower-case name, matching the degradation report.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Retry => "retry",
            Rung::Degrade => "degrade",
            Rung::Partition => "partition",
            Rung::Spill => "spill",
        }
    }

    fn index(self) -> u32 {
        match self {
            Rung::Retry => 0,
            Rung::Degrade => 1,
            Rung::Partition => 2,
            Rung::Spill => 3,
        }
    }

    fn from_index(i: u32) -> Option<Rung> {
        [Rung::Retry, Rung::Degrade, Rung::Partition, Rung::Spill].get(i as usize).copied()
    }
}

impl EventKind {
    /// Stable snake_case name used in the report's `events.by_kind` map.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseBegin(_) => "phase_begin",
            EventKind::PhaseEnd(_) => "phase_end",
            EventKind::TaskClaim { .. } => "task_claim",
            EventKind::RecEnter { .. } => "rec_enter",
            EventKind::RecExit { .. } => "rec_exit",
            EventKind::ArenaPressure { .. } => "arena_pressure",
            EventKind::ArenaCompact { .. } => "arena_compact",
            EventKind::ArenaReset => "arena_reset",
            EventKind::RecoveryRung(_) => "recovery_rung",
            EventKind::BufferSwap { .. } => "buffer_swap",
            EventKind::SpillIo { .. } => "spill_io",
        }
    }
}

/// One decoded event with its timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the capture epoch (shared by all threads).
    pub t_nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

// ---------------------------------------------------------------------------
// Encoding. Each event packs into two u64 words (the third slot word is
// the timestamp): word1 = tag | a << 8 | b << 40, word2 = c. The packing
// keeps a slot at three atomics so recording is three relaxed stores.
// ---------------------------------------------------------------------------

const TAG_PHASE_BEGIN: u64 = 1;
const TAG_PHASE_END: u64 = 2;
const TAG_TASK_CLAIM: u64 = 3;
const TAG_REC_ENTER: u64 = 4;
const TAG_REC_EXIT: u64 = 5;
const TAG_ARENA_PRESSURE: u64 = 6;
const TAG_ARENA_COMPACT: u64 = 7;
const TAG_ARENA_RESET: u64 = 8;
const TAG_RECOVERY_RUNG: u64 = 9;
const TAG_BUFFER_SWAP: u64 = 10;
const TAG_SPILL_IO: u64 = 11;

fn pack(tag: u64, a: u32, b: u16) -> u64 {
    tag | (a as u64) << 8 | (b as u64) << 40
}

fn encode(kind: EventKind) -> (u64, u64) {
    match kind {
        EventKind::PhaseBegin(p) => (pack(TAG_PHASE_BEGIN, p.index() as u32, 0), 0),
        EventKind::PhaseEnd(p) => (pack(TAG_PHASE_END, p.index() as u32, 0), 0),
        EventKind::TaskClaim { item, cost, stolen } => {
            (pack(TAG_TASK_CLAIM, item, stolen as u16), cost)
        }
        EventKind::RecEnter { item, depth, pattern_base } => {
            (pack(TAG_REC_ENTER, item, depth), pattern_base)
        }
        EventKind::RecExit { item } => (pack(TAG_REC_EXIT, item, 0), 0),
        EventKind::ArenaPressure { requested } => (TAG_ARENA_PRESSURE, requested),
        EventKind::ArenaCompact { reclaimed } => (TAG_ARENA_COMPACT, reclaimed),
        EventKind::ArenaReset => (TAG_ARENA_RESET, 0),
        EventKind::RecoveryRung(r) => (pack(TAG_RECOVERY_RUNG, r.index(), 0), 0),
        EventKind::BufferSwap { rows } => (pack(TAG_BUFFER_SWAP, rows, 0), 0),
        EventKind::SpillIo { bytes, write } => (pack(TAG_SPILL_IO, 0, write as u16), bytes),
    }
}

fn decode(word1: u64, word2: u64) -> Option<EventKind> {
    let a = (word1 >> 8) as u32;
    let b = (word1 >> 40) as u16;
    match word1 & 0xFF {
        TAG_PHASE_BEGIN => Phase::from_index(a as usize).map(EventKind::PhaseBegin),
        TAG_PHASE_END => Phase::from_index(a as usize).map(EventKind::PhaseEnd),
        TAG_TASK_CLAIM => Some(EventKind::TaskClaim { item: a, cost: word2, stolen: b != 0 }),
        TAG_REC_ENTER => Some(EventKind::RecEnter { item: a, depth: b, pattern_base: word2 }),
        TAG_REC_EXIT => Some(EventKind::RecExit { item: a }),
        TAG_ARENA_PRESSURE => Some(EventKind::ArenaPressure { requested: word2 }),
        TAG_ARENA_COMPACT => Some(EventKind::ArenaCompact { reclaimed: word2 }),
        TAG_ARENA_RESET => Some(EventKind::ArenaReset),
        TAG_RECOVERY_RUNG => Rung::from_index(a).map(EventKind::RecoveryRung),
        TAG_BUFFER_SWAP => Some(EventKind::BufferSwap { rows: a }),
        TAG_SPILL_IO => Some(EventKind::SpillIo { bytes: word2, write: b != 0 }),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The per-thread ring.
// ---------------------------------------------------------------------------

/// Events kept per thread. At three words per slot this is 768 KiB per
/// worker — enough for the full recursion timeline of the bundled
/// dataset profiles, bounded regardless of run length.
const DEFAULT_CAPACITY: usize = 1 << 15;

type Slot = [AtomicU64; 3];

/// One thread's fixed-capacity event buffer. Single writer (the owning
/// thread), drop-oldest on overflow.
struct Ring {
    name: String,
    slots: Box<[Slot]>,
    /// Total events ever written; `written - capacity` (when positive)
    /// have been overwritten and are reported as dropped. Stored with
    /// release ordering so a post-join reader sees fully written slots.
    written: AtomicU64,
}

impl Ring {
    fn new(name: String, capacity: usize) -> Ring {
        let slots = (0..capacity.max(1)).map(|_| [const { AtomicU64::new(0) }; 3]).collect();
        Ring { name, slots, written: AtomicU64::new(0) }
    }

    /// Records one event. Only the owning thread calls this.
    fn push(&self, t_nanos: u64, kind: EventKind) {
        let i = self.written.load(Ordering::Relaxed);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        let (word1, word2) = encode(kind);
        slot[0].store(t_nanos, Ordering::Relaxed);
        slot[1].store(word1, Ordering::Relaxed);
        slot[2].store(word2, Ordering::Relaxed);
        self.written.store(i + 1, Ordering::Release);
    }

    /// Decodes the surviving window, oldest first. Safe to call from any
    /// thread; exact once the owning thread has quiesced (torn slots are
    /// possible only under concurrent writes, and decode failures are
    /// skipped rather than trusted).
    fn dump(&self) -> (Vec<Event>, u64, u64) {
        let written = self.written.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let dropped = written.saturating_sub(cap);
        let mut events = Vec::with_capacity((written - dropped) as usize);
        for i in dropped..written {
            let slot = &self.slots[(i % cap) as usize];
            let t_nanos = slot[0].load(Ordering::Relaxed);
            let word1 = slot[1].load(Ordering::Relaxed);
            let word2 = slot[2].load(Ordering::Relaxed);
            if let Some(kind) = decode(word1, word2) {
                events.push(Event { t_nanos, kind });
            }
        }
        (events, written, dropped)
    }
}

/// Everything [`drain`] returns about one thread's timeline.
#[derive(Clone, Debug)]
pub struct TrackDump {
    /// Thread name at registration (`"worker-3"`, `"cfp-data-reader"`,
    /// `"main"`, ...).
    pub name: String,
    /// Stable small id for exporters (1-based registration order).
    pub tid: u32,
    /// Surviving events, oldest first, timestamps from the shared epoch.
    pub events: Vec<Event>,
    /// Total events recorded on this track, including dropped ones.
    pub recorded: u64,
    /// Events overwritten by drop-oldest overflow.
    pub dropped: u64,
}

/// The `events` summary block of the `cfp-profile/3` report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventsSummary {
    /// Threads that recorded at least one event.
    pub tracks: u64,
    /// Total events recorded across all tracks (including dropped).
    pub recorded: u64,
    /// Events lost to ring-buffer overflow across all tracks.
    pub dropped_events: u64,
    /// Surviving event counts per [`EventKind::name`], sorted by name.
    pub by_kind: Vec<(&'static str, u64)>,
}

// ---------------------------------------------------------------------------
// Global capture state and the thread registry.
// ---------------------------------------------------------------------------

static CAPTURE: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

/// Whether event capture is live. Like [`crate::enabled`] this is one
/// relaxed load, and constant `false` (sites fold away) when the `trace`
/// feature is compiled out. Capture is gated separately so `--profile`
/// alone does not pay for event recording.
#[inline(always)]
pub fn capturing() -> bool {
    #[cfg(feature = "trace")]
    {
        CAPTURE.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Turns event capture on or off. Enabling pins the shared monotonic
/// epoch on first use. No effect without the `trace` feature (capture
/// then stays off).
pub fn set_capture(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    CAPTURE.store(on, Ordering::Relaxed);
}

fn now_nanos() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn register(name: String) -> Arc<Ring> {
    let ring = Arc::new(Ring::new(name, DEFAULT_CAPACITY));
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).push(Arc::clone(&ring));
    ring
}

/// Names the current thread's timeline track. Must be called before the
/// thread's first [`record`] to take effect (the ring is created — and
/// named — exactly once per thread); later calls are ignored. Threads
/// that never call this are named after [`std::thread::Thread::name`],
/// falling back to `"thread-<tid>"`.
pub fn name_thread(name: &str) {
    LOCAL.with(|cell| {
        cell.get_or_init(|| register(name.to_string()));
    });
}

/// Records one event on the calling thread's track. Callers must check
/// [`capturing()`] first — this is on the mine-phase hot path.
pub fn record(kind: EventKind) {
    let t_nanos = now_nanos();
    LOCAL.with(|cell| {
        let ring = cell.get_or_init(|| {
            let fallback = {
                let registered = REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).len();
                format!("thread-{}", registered + 1)
            };
            let name = std::thread::current().name().map(str::to_string).unwrap_or(fallback);
            register(name)
        });
        ring.push(t_nanos, kind);
    });
}

/// Snapshots every registered track (threads need not be alive, but the
/// result is only exact for threads that have quiesced). Tracks appear in
/// registration order; tracks that never recorded are omitted.
pub fn drain() -> Vec<TrackDump> {
    let rings: Vec<Arc<Ring>> =
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).iter().map(Arc::clone).collect();
    rings
        .iter()
        .enumerate()
        .filter_map(|(i, ring)| {
            let (events, recorded, dropped) = ring.dump();
            if recorded == 0 {
                return None;
            }
            Some(TrackDump {
                name: ring.name.clone(),
                tid: i as u32 + 1,
                events,
                recorded,
                dropped,
            })
        })
        .collect()
}

/// Aggregates [`drain`] into the report's `events` block.
pub fn summary() -> EventsSummary {
    summarize(&drain())
}

/// Aggregates already-drained tracks (so callers exporting a timeline do
/// not drain twice).
pub fn summarize(tracks: &[TrackDump]) -> EventsSummary {
    let mut by_kind: Vec<(&'static str, u64)> = Vec::new();
    for track in tracks {
        for event in &track.events {
            let name = event.kind.name();
            match by_kind.iter_mut().find(|(n, _)| *n == name) {
                Some((_, count)) => *count += 1,
                None => by_kind.push((name, 1)),
            }
        }
    }
    by_kind.sort_unstable_by_key(|&(name, _)| name);
    EventsSummary {
        tracks: tracks.len() as u64,
        recorded: tracks.iter().map(|t| t.recorded).sum(),
        dropped_events: tracks.iter().map(|t| t.dropped).sum(),
        by_kind,
    }
}

/// Rewinds every registered ring to empty (the rings themselves persist —
/// thread-locals still point at them). Part of [`crate::reset`].
pub fn reset() {
    for ring in REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        ring.written.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_through_the_slot_encoding() {
        let kinds = [
            EventKind::PhaseBegin(Phase::Mine),
            EventKind::PhaseEnd(Phase::Recover),
            EventKind::TaskClaim { item: 12345, cost: u64::MAX / 3, stolen: true },
            EventKind::TaskClaim { item: 0, cost: 0, stolen: false },
            EventKind::RecEnter { item: u32::MAX >> 8, depth: 999, pattern_base: 1 << 40 },
            EventKind::RecExit { item: 7 },
            EventKind::ArenaPressure { requested: 4096 },
            EventKind::ArenaCompact { reclaimed: 1 << 33 },
            EventKind::ArenaReset,
            EventKind::RecoveryRung(Rung::Partition),
            EventKind::RecoveryRung(Rung::Spill),
            EventKind::BufferSwap { rows: 8192 },
            EventKind::SpillIo { bytes: 1 << 39, write: true },
            EventKind::SpillIo { bytes: 512, write: false },
        ];
        for kind in kinds {
            let (w1, w2) = encode(kind);
            assert_eq!(decode(w1, w2), Some(kind), "{kind:?}");
        }
        assert_eq!(decode(0, 0), None, "zeroed slots must not decode");
        assert_eq!(decode(0xFF, 0), None, "unknown tags must not decode");
    }

    #[test]
    fn ring_keeps_events_in_order_below_capacity() {
        let ring = Ring::new("t".into(), 8);
        for i in 0..5 {
            ring.push(i * 10, EventKind::BufferSwap { rows: i as u32 });
        }
        let (events, recorded, dropped) = ring.dump();
        assert_eq!(recorded, 5);
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.t_nanos, i as u64 * 10);
            assert_eq!(e.kind, EventKind::BufferSwap { rows: i as u32 });
        }
    }

    #[test]
    fn ring_wraps_dropping_oldest_and_counts_drops() {
        let ring = Ring::new("t".into(), 4);
        for i in 0..11u64 {
            ring.push(i, EventKind::BufferSwap { rows: i as u32 });
        }
        let (events, recorded, dropped) = ring.dump();
        assert_eq!(recorded, 11);
        assert_eq!(dropped, 7, "capacity 4 of 11 events keeps the newest 4");
        let rows: Vec<u32> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::BufferSwap { rows } => rows,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(rows, vec![7, 8, 9, 10], "oldest events are overwritten first");
        assert!(events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos));
    }

    #[test]
    fn ring_wrap_exactly_at_capacity_drops_nothing() {
        let ring = Ring::new("t".into(), 4);
        for i in 0..4u64 {
            ring.push(i, EventKind::ArenaReset);
        }
        let (events, recorded, dropped) = ring.dump();
        assert_eq!((events.len(), recorded, dropped), (4, 4, 0));
    }

    #[test]
    #[cfg_attr(not(feature = "trace"), ignore = "capture is compiled out")]
    fn capture_round_trip_records_on_a_named_track() {
        // Use a dedicated thread: the thread-local ring is created once
        // per thread, so reusing the test-runner thread would race with
        // other tests' tracks.
        set_capture(true);
        std::thread::Builder::new()
            .name("events-test-worker".into())
            .spawn(|| {
                if capturing() {
                    record(EventKind::RecoveryRung(Rung::Retry));
                    record(EventKind::RecEnter { item: 3, depth: 1, pattern_base: 9 });
                    record(EventKind::RecExit { item: 3 });
                }
            })
            .unwrap()
            .join()
            .unwrap();
        set_capture(false);
        let tracks = drain();
        let track = tracks
            .iter()
            .find(|t| t.name == "events-test-worker")
            .expect("thread registered a track");
        assert!(track.tid >= 1);
        assert_eq!(track.dropped, 0);
        assert_eq!(track.events.len(), 3);
        assert_eq!(track.events[0].kind, EventKind::RecoveryRung(Rung::Retry));
        assert!(track.events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos));
        let summary = summarize(&tracks);
        assert!(summary.tracks >= 1);
        assert!(summary.recorded >= 3);
        let names: Vec<_> = summary.by_kind.iter().map(|&(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "by_kind is sorted by name");
    }

    #[test]
    fn name_thread_wins_over_the_os_thread_name() {
        set_capture(true);
        std::thread::Builder::new()
            .name("events-os-name".into())
            .spawn(|| {
                name_thread("events-logical-name");
                record(EventKind::ArenaReset);
            })
            .unwrap()
            .join()
            .unwrap();
        set_capture(false);
        let tracks = drain();
        assert!(tracks.iter().any(|t| t.name == "events-logical-name"));
        assert!(!tracks.iter().any(|t| t.name == "events-os-name"));
    }
}
