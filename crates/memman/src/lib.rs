//! The CFP-growth memory manager (Appendix A of the paper).
//!
//! Compressed CFP-tree nodes are variable-sized (roughly 2–26 bytes) and
//! *change size* as transactions are inserted: a pcount grows past a byte
//! boundary, a pointer appears, a chain splits. A general-purpose allocator
//! would pad, fragment, and burn a `malloc` call per node; the paper instead
//! uses a purpose-built manager that
//!
//! 1. avoids expensive allocation calls when creating nodes,
//! 2. enables small (40-bit) pointers, because every node lives in one
//!    contiguous arena addressed by offset, and
//! 3. provides unpadded chunks, so a 7-byte node costs exactly 7 bytes.
//!
//! The design follows Figure 9: the arena is split into *used* and *unused*
//! memory by a bump pointer (`next-free`). Freed chunks of each size are
//! threaded into per-size queues; the link to the next free chunk is stored
//! in the first 5 bytes of the free chunk itself, so the free lists cost no
//! extra memory. When a node grows or shrinks from `b1` to `b2` bytes, a
//! chunk is dequeued from the `b2` queue (or carved at the bump pointer),
//! the node is copied, and the old `b1` chunk is enqueued on the `b1` queue.
//!
//! Offsets returned by the arena are never 0 (reserved for the null
//! pointer) and never have `0xFF` as the most significant of their five
//! pointer bytes (reserved for the embedded-leaf marker, §3.3) — the arena
//! would have to approach a terabyte before that mattered.
//!
//! # Failure model
//!
//! Running out of memory is a runtime condition, not a bug, so the arena
//! exposes fallible entry points: [`Arena::try_alloc`] and
//! [`Arena::try_realloc`] return an [`AllocError`] when the 40-bit
//! address space runs out, when the arena's [`BudgetPool`] has no room
//! left, or when a `cfp-fault` failpoint (`"memman.alloc"`) injects the
//! condition. A failed call leaves the arena fully usable: no
//! accounting is touched before all checks pass. The panicking
//! [`alloc`](Arena::alloc)/[`realloc`](Arena::realloc) wrappers remain
//! for contexts that treat exhaustion as fatal (tests, ad-hoc tools).
//!
//! Two recovery hooks build on that: [`Arena::compact`] returns trailing
//! free chunks to the OS-facing footprint (live chunks never move, so
//! offsets stay valid), and a [`BudgetPool`] shares one byte limit
//! between several arenas — together they let the mining layers retry,
//! degrade, or partition a run instead of aborting it (see
//! [`ArenaOptions`]).
//!
//! Misuse, by contrast, stays a programming error: freeing the same
//! chunk twice corrupts the free queue into a cycle, so debug builds
//! `debug_assert!` against it by scanning the size's free queue on every
//! [`free`](Arena::free) (release builds skip the scan).

//! ```
//! use cfp_memman::Arena;
//!
//! let mut arena = Arena::new();
//! let a = arena.alloc(7);
//! arena.bytes_mut(a, 7).copy_from_slice(b"sevenby");
//! let b = arena.realloc(a, 7, 12); // node grew past a byte boundary
//! assert_eq!(&arena.bytes(b, 12)[..7], b"sevenby");
//! arena.free(b, 12);
//! assert_eq!(arena.alloc(12), b, "freed chunks are recycled");
//! ```

#![warn(missing_docs)]

use cfp_encoding::ptr40::{read_raw40, write_raw40, MAX_OFFSET, PTR_BYTES};
use cfp_trace::counters as tc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Smallest chunk the arena hands out. A free chunk must be able to hold a
/// 5-byte next-free link, so requests below this are rounded up.
pub const MIN_CHUNK: usize = PTR_BYTES;

/// Largest chunk the arena manages through free queues. Standard nodes top
/// out at 24 bytes and chain nodes at 27; 40 leaves headroom.
pub const MAX_CHUNK: usize = 40;

/// What a participant is holding pool memory *for*.
///
/// Every arena (and every out-of-arena charge, see
/// [`BudgetPool::charge_external`]) is tagged with the pipeline component
/// it serves, so a run report can say where the bytes went instead of
/// presenting one opaque total. The labels mirror the mining pipeline:
/// the initial build tree, the per-suffix conditional trees, the flat
/// CFP-array buffers, tid-lists (vertical baselines / future out-of-core
/// spilling), and scratch buffers. [`Component::Other`] is the default
/// for untagged participants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Component {
    /// The initial CFP-tree built from the database.
    BuildTree,
    /// Conditional CFP-trees built during the mine-phase recursion.
    CondTrees,
    /// CFP-array buffers (the converted top-level array and every
    /// conditional array).
    CondArrays,
    /// Transaction-id lists (vertical-format baselines, out-of-core
    /// spill candidates).
    TidLists,
    /// Scratch buffers (recycled arenas between tasks, emit buffers,
    /// recorded conditional pattern bases).
    Scratch,
    /// Out-of-core spill buffers: partition arrays loaded back from disk
    /// by the spill rung, charged externally so reports can attribute the
    /// borrowed file bytes.
    Spill,
    /// Anything not explicitly tagged.
    #[default]
    Other,
}

impl Component {
    /// Every component, in report order.
    pub const ALL: [Component; 7] = [
        Component::BuildTree,
        Component::CondTrees,
        Component::CondArrays,
        Component::TidLists,
        Component::Scratch,
        Component::Spill,
        Component::Other,
    ];

    /// Stable report label of this component.
    pub fn name(self) -> &'static str {
        match self {
            Component::BuildTree => "build-tree",
            Component::CondTrees => "cond-trees",
            Component::CondArrays => "cond-arrays",
            Component::TidLists => "tid-lists",
            Component::Scratch => "scratch",
            Component::Spill => "spill",
            Component::Other => "other",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            Component::BuildTree => 0,
            Component::CondTrees => 1,
            Component::CondArrays => 2,
            Component::TidLists => 3,
            Component::Scratch => 4,
            Component::Spill => 5,
            Component::Other => 6,
        }
    }
}

/// Point-in-time view of a [`BudgetPool`]'s accounting, for memory
/// reports. Captured with [`BudgetPool::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// The pool's byte limit (`u64::MAX` for an unlimited pool).
    pub limit: u64,
    /// Metered bytes currently reserved (arena carved bytes).
    pub used: u64,
    /// High-water mark of metered bytes.
    pub peak: u64,
    /// Unmetered bytes currently charged (flat buffers tracked for
    /// attribution only; they never count against the limit).
    pub external_used: u64,
    /// Per-component `(label, live, peak)` rows, in [`Component::ALL`]
    /// order. The sum of `live` over all rows equals
    /// `used + external_used` exactly — the attribution audit invariant.
    pub components: Vec<(&'static str, u64, u64)>,
}

impl PoolSnapshot {
    /// Total bytes the pool accounts for right now (metered + external).
    pub fn accounted(&self) -> u64 {
        self.used + self.external_used
    }

    /// Sum of per-component live bytes; must equal
    /// [`accounted`](Self::accounted) exactly.
    pub fn components_total(&self) -> u64 {
        self.components.iter().map(|&(_, live, _)| live).sum()
    }
}

/// A byte budget *shared* between several arenas (and threads).
///
/// A `BudgetPool` is a single atomic pool that every participating arena
/// reserves its carved bytes from, so the *combined* footprint of all of
/// them stays under one limit. This is how the parallel miner keeps
/// `threads × conditional trees` from oversubscribing the budget the user
/// asked for: the build tree and every worker's conditional trees draw
/// from the same pool.
///
/// The pool bounds *carved* bytes (each arena's bump high-water mark),
/// not live bytes, because carved memory is what the process actually
/// pays for. Recycling free-queue chunks never consumes budget; only bump
/// allocations do, checked before any state changes so a refused
/// allocation leaves the arena usable.
///
/// Clones share the same pool (`Arc` inside). Reservations are released
/// when an arena is dropped or compacted, and the high-water mark is
/// recorded in [`peak`](BudgetPool::peak).
#[derive(Clone, Debug)]
pub struct BudgetPool {
    inner: Arc<PoolInner>,
}

const N_COMPONENTS: usize = Component::ALL.len();

#[derive(Debug)]
struct PoolInner {
    limit: u64,
    used: AtomicU64,
    peak: AtomicU64,
    reserved_total: AtomicU64,
    compact_reclaimed: AtomicU64,
    /// Unmetered attribution charges (never count against `limit`).
    external_used: AtomicU64,
    /// Per-component live bytes (metered + external).
    comp_used: [AtomicU64; N_COMPONENTS],
    /// Per-component high-water marks.
    comp_peak: [AtomicU64; N_COMPONENTS],
}

impl BudgetPool {
    /// A pool of `limit` bytes shared by every clone.
    pub fn new(limit: u64) -> Self {
        BudgetPool {
            inner: Arc::new(PoolInner {
                limit,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                reserved_total: AtomicU64::new(0),
                compact_reclaimed: AtomicU64::new(0),
                external_used: AtomicU64::new(0),
                comp_used: Default::default(),
                comp_peak: Default::default(),
            }),
        }
    }

    /// A pool that never refuses a reservation (`u64::MAX` limit) —
    /// attribution accounting without admission control, for runs that
    /// want a memory report but no budget.
    pub fn unlimited() -> Self {
        Self::new(u64::MAX)
    }

    /// Reserves `bytes` from the pool; `false` when the limit would be
    /// exceeded (and nothing is reserved). Charged to
    /// [`Component::Other`]; tagged arenas use
    /// [`try_reserve_for`](Self::try_reserve_for).
    pub fn try_reserve(&self, bytes: u64) -> bool {
        self.try_reserve_for(Component::Other, bytes)
    }

    /// Reserves `bytes` on behalf of `component`; `false` when the limit
    /// would be exceeded (and nothing is reserved or attributed).
    pub fn try_reserve_for(&self, component: Component, bytes: u64) -> bool {
        let mut used = self.inner.used.load(Ordering::Relaxed);
        loop {
            let Some(next) = used.checked_add(bytes) else { return false };
            if next > self.inner.limit {
                return false;
            }
            match self.inner.used.compare_exchange_weak(
                used,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(next, Ordering::Relaxed);
                    self.inner.reserved_total.fetch_add(bytes, Ordering::Relaxed);
                    self.attribute(component, bytes);
                    if cfp_trace::enabled() {
                        tc::MEMMAN_POOL_PEAK.record(next);
                    }
                    return true;
                }
                Err(actual) => used = actual,
            }
        }
    }

    /// Returns `bytes` to the pool (saturating: releasing more than was
    /// reserved clamps to zero rather than underflowing). Attributed to
    /// [`Component::Other`]; tagged arenas use
    /// [`release_for`](Self::release_for).
    pub fn release(&self, bytes: u64) {
        self.release_for(Component::Other, bytes);
    }

    /// Returns `bytes` reserved on behalf of `component` to the pool.
    pub fn release_for(&self, component: Component, bytes: u64) {
        let _ = self
            .inner
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| Some(u.saturating_sub(bytes)));
        self.unattribute(component, bytes);
    }

    /// Records `bytes` held by `component` *outside* any arena (flat
    /// `Vec` buffers like CFP-arrays). External charges flow into the
    /// per-component gauges and the attribution audit but never count
    /// against the pool's limit, so arming attribution cannot change
    /// admission decisions or mining results.
    pub fn charge_external(&self, component: Component, bytes: u64) {
        self.inner.external_used.fetch_add(bytes, Ordering::Relaxed);
        self.attribute(component, bytes);
    }

    /// Releases an external charge made with
    /// [`charge_external`](Self::charge_external).
    pub fn release_external(&self, component: Component, bytes: u64) {
        let _ = self
            .inner
            .external_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| Some(u.saturating_sub(bytes)));
        self.unattribute(component, bytes);
    }

    fn attribute(&self, component: Component, bytes: u64) {
        let i = component.idx();
        let next = self.inner.comp_used[i].fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.comp_peak[i].fetch_max(next, Ordering::Relaxed);
    }

    fn unattribute(&self, component: Component, bytes: u64) {
        let _ = self.inner.comp_used[component.idx()].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |u| Some(u.saturating_sub(bytes)),
        );
    }

    /// The pool's byte limit.
    pub fn limit(&self) -> u64 {
        self.inner.limit
    }

    /// Bytes currently reserved across all participants.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// High-water mark of reserved bytes over the pool's lifetime.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Cumulative bytes ever reserved (never decremented by releases).
    /// Lets tests and reports see that a participant charged the pool
    /// even after it released everything again.
    pub fn reserved_total(&self) -> u64 {
        self.inner.reserved_total.load(Ordering::Relaxed)
    }

    /// Total bytes returned to the pool by [`Arena::compact`] calls, for
    /// degradation reports.
    pub fn compact_reclaimed(&self) -> u64 {
        self.inner.compact_reclaimed.load(Ordering::Relaxed)
    }

    /// Live bytes currently attributed to `component` (metered carved
    /// bytes plus external charges).
    pub fn component_used(&self, component: Component) -> u64 {
        self.inner.comp_used[component.idx()].load(Ordering::Relaxed)
    }

    /// High-water mark of bytes attributed to `component`.
    pub fn component_peak(&self, component: Component) -> u64 {
        self.inner.comp_peak[component.idx()].load(Ordering::Relaxed)
    }

    /// Unmetered bytes currently charged via
    /// [`charge_external`](Self::charge_external).
    pub fn external_used(&self) -> u64 {
        self.inner.external_used.load(Ordering::Relaxed)
    }

    /// Captures the pool's accounting for a memory report. The snapshot
    /// upholds the audit invariant `components_total() == accounted()`
    /// whenever every participant reserves and releases through the
    /// component-aware entry points (reads are relaxed, so a snapshot
    /// taken *while* other threads allocate may be transiently off; take
    /// it at a quiescent point).
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            limit: self.limit(),
            used: self.used(),
            peak: self.peak(),
            external_used: self.external_used(),
            components: Component::ALL
                .iter()
                .map(|&c| (c.name(), self.component_used(c), self.component_peak(c)))
                .collect(),
        }
    }

    fn release_reclaimed(&self, component: Component, bytes: u64) {
        self.release_for(component, bytes);
        self.inner.compact_reclaimed.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Construction-time knobs for an [`Arena`], threaded down from the
/// mining layers so recovery policies can arm them per run.
#[derive(Clone, Debug, Default)]
pub struct ArenaOptions {
    /// Shared pool this arena reserves its carved bytes from (see
    /// [`BudgetPool`]).
    pub pool: Option<BudgetPool>,
    /// When an allocation is refused, [`Arena::compact`] once and retry
    /// before reporting failure.
    pub compact_on_pressure: bool,
    /// Attribution label for this arena's pool reservations (see
    /// [`Component`]); purely observational, never changes admission.
    pub component: Component,
}

/// Why an allocation could not be satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocErrorKind {
    /// The bump pointer reached the end of the 40-bit address space.
    AddressSpaceExhausted,
    /// The arena's [`BudgetPool`] has no room for the chunk.
    BudgetExceeded,
    /// A `cfp-fault` failpoint injected the failure (tests only).
    Injected,
}

/// A failed [`Arena::try_alloc`]/[`Arena::try_realloc`].
///
/// Small and `Copy` so the `Result` stays cheap on the allocation hot
/// path; convert into the pipeline-wide `CfpError` (via `From`) at the
/// phase boundary where the failing phase name is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocError {
    /// What ran out.
    pub kind: AllocErrorKind,
    /// Rounded chunk bytes the caller asked for.
    pub requested: u64,
    /// Carved bytes at the moment of failure: the whole pool's when the
    /// pool refused, else this arena's.
    pub footprint: u64,
    /// The pool's limit when the pool refused, else 0.
    pub limit: u64,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            AllocErrorKind::AddressSpaceExhausted => write!(
                f,
                "arena exhausted the 40-bit address space ({} bytes carved, {} requested)",
                self.footprint, self.requested
            ),
            AllocErrorKind::BudgetExceeded => write!(
                f,
                "memory budget of {} bytes exceeded ({} carved, {} requested)",
                self.limit, self.footprint, self.requested
            ),
            AllocErrorKind::Injected => write!(
                f,
                "injected allocation failure ({} bytes carved, {} requested)",
                self.footprint, self.requested
            ),
        }
    }
}

impl std::error::Error for AllocError {}

impl From<AllocError> for cfp_fault::CfpError {
    fn from(e: AllocError) -> Self {
        cfp_fault::CfpError::MemoryExhausted {
            phase: "",
            requested: e.requested,
            footprint: e.footprint,
            limit: e.limit,
        }
    }
}

/// Per-arena event statistics.
///
/// Always maintained (plain integer adds, no atomics), so tests can make
/// deterministic assertions per arena regardless of what other threads or
/// arenas do. The global `cfp-trace` registry mirrors the same events,
/// gated on `cfp_trace::enabled()`, for cross-arena run reports.
///
/// Invariants: `allocs - frees == live_allocs()`, and
/// `queue_hits + bump_allocs == allocs`. A `realloc` that changes chunk
/// class counts as one alloc, one free, and one grow *or* shrink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total `alloc` calls (including those made inside `realloc`).
    pub allocs: u64,
    /// Total `free` calls (including those made inside `realloc`).
    pub frees: u64,
    /// Allocations served by recycling a free-queue chunk.
    pub queue_hits: u64,
    /// Allocations served by carving at the bump pointer.
    pub bump_allocs: u64,
    /// Reallocations that moved to a larger chunk class.
    pub grows: u64,
    /// Reallocations that moved to a smaller chunk class.
    pub shrinks: u64,
    /// [`Arena::compact`] calls (explicit or triggered by
    /// [`ArenaOptions::compact_on_pressure`]).
    pub compactions: u64,
    /// Total bytes returned to the OS-facing footprint by compaction.
    pub compact_reclaimed: u64,
    /// [`Arena::reset`] calls (arena recycled for a new structure).
    pub resets: u64,
    /// High-water mark of live (used) bytes in *this* arena since its
    /// creation or the last [`Arena::reset_with`] with
    /// [`StatsReset::ClearPeaks`].
    pub peak_used: u64,
    /// High-water mark of carved bytes in *this* arena, same window as
    /// [`peak_used`](Self::peak_used). The run-level peak across all
    /// arenas lives in [`BudgetPool::peak`].
    pub peak_footprint: u64,
}

/// What [`Arena::reset_with`] does to the per-instance high-water marks
/// in [`ArenaStats`].
///
/// Per-task arena recycling reuses one arena for many conditional trees;
/// keeping the peaks across resets would smear the largest task's peak
/// over every later task's report. `ClearPeaks` gives each task a fresh
/// window while the cumulative event counters (and the pool's run-level
/// peak) survive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsReset {
    /// Keep the high-water marks (the [`Arena::reset`] default).
    Keep,
    /// Zero `peak_used`/`peak_footprint` for a fresh per-task window.
    ClearPeaks,
}

/// A bump-pointer arena with per-size free-chunk queues.
#[derive(Debug)]
pub struct Arena {
    buf: Vec<u8>,
    /// Head of the free-chunk queue for each chunk size (index = size).
    free_heads: [u64; MAX_CHUNK + 1],
    /// Bytes currently handed out (allocated minus freed), after rounding.
    used: u64,
    /// Number of live allocations, for leak checks in tests.
    live: u64,
    /// Event counts for this arena.
    stats: ArenaStats,
    /// Optional shared pool carved bytes are reserved from.
    pool: Option<BudgetPool>,
    /// Compact-and-retry once when an allocation is refused.
    compact_on_pressure: bool,
    /// Attribution label for pool reservations.
    component: Component,
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an arena with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        let mut buf = Vec::with_capacity(cap.max(1));
        // Offset 0 is the null pointer; burn one byte so it is never used.
        buf.push(0);
        Arena {
            buf,
            free_heads: [0; MAX_CHUNK + 1],
            used: 0,
            live: 0,
            stats: ArenaStats::default(),
            pool: None,
            compact_on_pressure: false,
            component: Component::Other,
        }
    }

    /// Creates an empty arena configured by `opts` (shared pool,
    /// compact-on-pressure, attribution label).
    pub fn with_options(opts: ArenaOptions) -> Self {
        let mut a = Self::new();
        a.pool = opts.pool;
        a.compact_on_pressure = opts.compact_on_pressure;
        a.component = opts.component;
        a
    }

    /// The attribution label this arena charges its pool under.
    pub fn component(&self) -> Component {
        self.component
    }

    /// Rounds a requested size to the chunk size actually used.
    #[inline]
    fn chunk_size(size: usize) -> usize {
        assert!(size <= MAX_CHUNK, "allocation of {size} bytes exceeds MAX_CHUNK ({MAX_CHUNK})");
        size.max(MIN_CHUNK)
    }

    /// Allocates a chunk of at least `size` bytes and returns its offset,
    /// panicking on exhaustion. See [`try_alloc`](Self::try_alloc) for the
    /// fallible variant the pipeline uses.
    ///
    /// The chunk contents are unspecified (possibly stale bytes from a
    /// previous node); the caller is expected to overwrite them fully.
    #[inline]
    pub fn alloc(&mut self, size: usize) -> u64 {
        match self.try_alloc(size) {
            Ok(off) => off,
            Err(e) => panic!("{e}"),
        }
    }

    /// Allocates a chunk of at least `size` bytes and returns its offset,
    /// or an [`AllocError`] when the 40-bit address space or the arena's
    /// [`BudgetPool`] runs out.
    ///
    /// A failed call changes nothing: no accounting, no buffer growth —
    /// the arena remains fully usable, so callers can degrade (flush,
    /// shrink, report) instead of aborting.
    #[inline]
    pub fn try_alloc(&mut self, size: usize) -> Result<u64, AllocError> {
        let size = Self::chunk_size(size);
        if cfp_fault::should_fail("memman.alloc") {
            return Err(self.alloc_error(AllocErrorKind::Injected, size));
        }
        let head = self.free_heads[size];
        if head != 0 {
            self.used += size as u64;
            self.live += 1;
            self.stats.allocs += 1;
            self.stats.queue_hits += 1;
            self.stats.peak_used = self.stats.peak_used.max(self.used);
            if cfp_trace::enabled() {
                tc::MEMMAN_ALLOCS.inc();
                tc::MEMMAN_USED_BYTES.add(size as u64);
                tc::MEMMAN_QUEUE_HITS.inc();
            }
            let next = read_raw40(&self.buf[head as usize..head as usize + PTR_BYTES]);
            self.free_heads[size] = next;
            return Ok(head);
        }
        // Bump path: validate before touching any accounting. Under
        // `compact_on_pressure`, a refusal triggers one compaction and
        // one re-check before the failure is reported.
        if let Err(e) = self.admit_bump(size) {
            if cfp_trace::events::capturing() {
                cfp_trace::events::record(cfp_trace::EventKind::ArenaPressure {
                    requested: size as u64,
                });
            }
            if !self.compact_on_pressure || self.compact() == 0 {
                return Err(e);
            }
            self.admit_bump(size)?;
        }
        // Compaction may have moved the bump pointer, so read it after
        // admission.
        let off = self.buf.len() as u64;
        self.used += size as u64;
        self.live += 1;
        self.stats.allocs += 1;
        self.stats.bump_allocs += 1;
        self.stats.peak_used = self.stats.peak_used.max(self.used);
        self.stats.peak_footprint =
            self.stats.peak_footprint.max(self.footprint() - 1 + size as u64);
        if cfp_trace::enabled() {
            tc::MEMMAN_ALLOCS.inc();
            tc::MEMMAN_USED_BYTES.add(size as u64);
            tc::MEMMAN_BUMP_ALLOCS.inc();
            tc::MEMMAN_FOOTPRINT_BYTES.add(size as u64);
            tc::MEMMAN_PEAK_FOOTPRINT.record(tc::MEMMAN_FOOTPRINT_BYTES.get());
        }
        self.buf.resize(self.buf.len() + size, 0);
        Ok(off)
    }

    #[cold]
    fn alloc_error(&self, kind: AllocErrorKind, size: usize) -> AllocError {
        AllocError {
            kind,
            requested: size as u64,
            footprint: self.footprint().saturating_sub(1),
            limit: 0,
        }
    }

    /// Checks whether carving `size` bytes at the bump pointer is
    /// admissible: 40-bit address space, then the shared pool. On `Ok`, a
    /// pool reservation of `size` bytes is held; on `Err`, nothing is.
    fn admit_bump(&mut self, size: usize) -> Result<(), AllocError> {
        let off = self.buf.len() as u64;
        if off + size as u64 > MAX_OFFSET {
            return Err(self.alloc_error(AllocErrorKind::AddressSpaceExhausted, size));
        }
        if let Some(pool) = &self.pool {
            if !pool.try_reserve_for(self.component, size as u64) {
                // Report the pool's view: the other participants' carved
                // bytes are what left no room, not this arena's own.
                return Err(AllocError {
                    kind: AllocErrorKind::BudgetExceeded,
                    requested: size as u64,
                    footprint: pool.used(),
                    limit: pool.limit(),
                });
            }
        }
        Ok(())
    }

    /// Returns trailing free chunks to the OS-facing footprint.
    ///
    /// Live chunks never move (offsets handed out stay valid), so the
    /// only memory compaction can return is the contiguous run of free
    /// chunks ending exactly at the bump pointer. The surviving free
    /// chunks are re-threaded into their per-size queues (lowest offset
    /// first, improving locality of later recycling). Returns the bytes
    /// reclaimed, released back to the budget/pool and subtracted from
    /// the footprint gauges.
    pub fn compact(&mut self) -> u64 {
        let mut chunks: Vec<(u64, usize)> = Vec::new();
        for size in MIN_CHUNK..=MAX_CHUNK {
            let mut cur = self.free_heads[size];
            while cur != 0 {
                let next = read_raw40(&self.buf[cur as usize..cur as usize + PTR_BYTES]);
                chunks.push((cur, size));
                cur = next;
            }
        }
        chunks.sort_unstable_by_key(|&(off, _)| off);
        let mut end = self.buf.len() as u64;
        let mut kept = chunks.len();
        while kept > 0 {
            let (off, size) = chunks[kept - 1];
            if off + size as u64 != end {
                break;
            }
            end = off;
            kept -= 1;
        }
        let reclaimed = self.buf.len() as u64 - end;
        self.stats.compactions += 1;
        if reclaimed == 0 {
            return 0;
        }
        self.buf.truncate(end as usize);
        self.free_heads = [0; MAX_CHUNK + 1];
        for &(off, size) in chunks[..kept].iter().rev() {
            let head = self.free_heads[size];
            write_raw40(&mut self.buf[off as usize..off as usize + PTR_BYTES], head);
            self.free_heads[size] = off;
        }
        self.stats.compact_reclaimed += reclaimed;
        if let Some(pool) = &self.pool {
            pool.release_reclaimed(self.component, reclaimed);
        }
        if cfp_trace::enabled() {
            tc::MEMMAN_COMPACTIONS.inc();
            tc::MEMMAN_COMPACT_RECLAIMED.add(reclaimed);
            tc::MEMMAN_FOOTPRINT_BYTES.sub(reclaimed);
            if cfp_trace::events::capturing() {
                cfp_trace::events::record(cfp_trace::EventKind::ArenaCompact { reclaimed });
            }
        }
        reclaimed
    }

    /// [`compact`](Self::compact), then returns spare `Vec` capacity to
    /// the OS. Returns the bytes compaction reclaimed.
    pub fn shrink_to_fit(&mut self) -> u64 {
        let reclaimed = self.compact();
        self.buf.shrink_to_fit();
        reclaimed
    }

    /// Empties the arena for reuse, keeping the buffer capacity.
    ///
    /// All outstanding offsets become invalid. The footprint drops back to
    /// the single burned null byte, the full carved reservation is released
    /// to the budget/pool and subtracted from the trace gauges (exactly as
    /// [`Drop`] would), and the free queues are cleared — but the `Vec`
    /// capacity is retained, so a recycled arena rebuilds without touching
    /// the OS allocator. Cumulative [`stats`](Self::stats) survive,
    /// including the per-instance high-water marks; the `resets` counter
    /// records the recycle. See [`reset_with`](Self::reset_with) to open
    /// a fresh peak window per recycle.
    pub fn reset(&mut self) {
        self.reset_with(StatsReset::Keep);
    }

    /// [`reset`](Self::reset) with explicit control over the
    /// per-instance high-water marks: [`StatsReset::ClearPeaks`] zeroes
    /// `peak_used`/`peak_footprint` so the next task's peak is measured
    /// on its own instead of inheriting the largest earlier task's. The
    /// run-level peak is unaffected — it lives in the shared
    /// [`BudgetPool`] (and the trace gauges).
    pub fn reset_with(&mut self, stats: StatsReset) {
        let carved = self.footprint().saturating_sub(1);
        if cfp_trace::enabled() {
            tc::MEMMAN_USED_BYTES.sub(self.used);
            tc::MEMMAN_FOOTPRINT_BYTES.sub(carved);
            tc::MEMMAN_RESETS.inc();
            if cfp_trace::events::capturing() {
                cfp_trace::events::record(cfp_trace::EventKind::ArenaReset);
            }
        }
        if let Some(pool) = &self.pool {
            pool.release_for(self.component, carved);
        }
        self.buf.truncate(1);
        self.free_heads = [0; MAX_CHUNK + 1];
        self.used = 0;
        self.live = 0;
        self.stats.resets += 1;
        if stats == StatsReset::ClearPeaks {
            self.stats.peak_used = 0;
            self.stats.peak_footprint = 0;
        }
    }

    /// The shared pool this arena reserves from, if any.
    pub fn pool(&self) -> Option<&BudgetPool> {
        self.pool.as_ref()
    }

    /// Returns a chunk previously obtained from [`alloc`](Self::alloc) with
    /// the same `size` to the free queue of that size.
    ///
    /// Freeing the same chunk twice would thread the free queue into a
    /// cycle and later hand the chunk out twice; debug builds scan the
    /// size's queue and `debug_assert!` against it (release builds trust
    /// the caller and skip the scan).
    #[inline]
    pub fn free(&mut self, offset: u64, size: usize) {
        let size = Self::chunk_size(size);
        debug_assert!(offset as usize + size <= self.buf.len());
        debug_assert_ne!(offset, 0, "freeing the null offset");
        #[cfg(debug_assertions)]
        {
            let mut cur = self.free_heads[size];
            while cur != 0 {
                debug_assert_ne!(
                    cur, offset,
                    "double free of chunk at offset {offset} (size {size})"
                );
                cur = read_raw40(&self.buf[cur as usize..cur as usize + PTR_BYTES]);
            }
        }
        self.stats.frees += 1;
        if cfp_trace::enabled() {
            tc::MEMMAN_FREES.inc();
            tc::MEMMAN_USED_BYTES.sub(size as u64);
        }
        let head = self.free_heads[size];
        write_raw40(&mut self.buf[offset as usize..offset as usize + PTR_BYTES], head);
        self.free_heads[size] = offset;
        self.used -= size as u64;
        self.live -= 1;
    }

    /// Moves a chunk from `old_size` to `new_size` bytes, copying the first
    /// `min(old_size, new_size)` bytes. Returns the new offset (which may
    /// equal the old one when the rounded sizes match). Panics on
    /// exhaustion; see [`try_realloc`](Self::try_realloc).
    pub fn realloc(&mut self, offset: u64, old_size: usize, new_size: usize) -> u64 {
        match self.try_realloc(offset, old_size, new_size) {
            Ok(off) => off,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`realloc`](Self::realloc): on error the original chunk at
    /// `offset` is untouched and still owned by the caller, so a grow that
    /// hits the budget can be handled without losing the node.
    pub fn try_realloc(
        &mut self,
        offset: u64,
        old_size: usize,
        new_size: usize,
    ) -> Result<u64, AllocError> {
        let (old_chunk, new_chunk) = (Self::chunk_size(old_size), Self::chunk_size(new_size));
        if old_chunk == new_chunk {
            return Ok(offset);
        }
        let new_off = self.try_alloc(new_size)?;
        if new_chunk > old_chunk {
            self.stats.grows += 1;
            if cfp_trace::enabled() {
                tc::MEMMAN_GROWS.inc();
            }
        } else {
            self.stats.shrinks += 1;
            if cfp_trace::enabled() {
                tc::MEMMAN_SHRINKS.inc();
            }
        }
        let n = old_size.min(new_size);
        self.buf.copy_within(offset as usize..offset as usize + n, new_off as usize);
        self.free(offset, old_size);
        Ok(new_off)
    }

    /// Immutable view of `len` bytes starting at `offset`.
    #[inline]
    pub fn bytes(&self, offset: u64, len: usize) -> &[u8] {
        &self.buf[offset as usize..offset as usize + len]
    }

    /// Mutable view of `len` bytes starting at `offset`.
    #[inline]
    pub fn bytes_mut(&mut self, offset: u64, len: usize) -> &mut [u8] {
        &mut self.buf[offset as usize..offset as usize + len]
    }

    /// View from `offset` to the end of the arena, for decoding nodes whose
    /// length is only known after reading their first byte.
    #[inline]
    pub fn tail(&self, offset: u64) -> &[u8] {
        &self.buf[offset as usize..]
    }

    /// One byte at `offset`.
    #[inline]
    pub fn byte(&self, offset: u64) -> u8 {
        self.buf[offset as usize]
    }

    /// Total bytes the arena has carved out of its buffer (used + freed
    /// chunks): the high-water mark of memory consumption.
    pub fn footprint(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Bytes of capacity actually reserved from the OS.
    pub fn reserved(&self) -> u64 {
        self.buf.capacity() as u64
    }

    /// Bytes in live chunks (after rounding to chunk sizes).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> u64 {
        self.live
    }

    /// Number of free chunks currently queued for `size` (after rounding).
    pub fn free_chunks(&self, size: usize) -> usize {
        let size = Self::chunk_size(size);
        let mut n = 0;
        let mut cur = self.free_heads[size];
        while cur != 0 {
            n += 1;
            cur = read_raw40(&self.buf[cur as usize..cur as usize + PTR_BYTES]);
        }
        n
    }

    /// Bytes sitting in free queues: carved memory not currently holding a
    /// live chunk (the fragmentation the Appendix-A design bounds by
    /// recycling same-size chunks).
    pub fn free_bytes(&self) -> u64 {
        self.footprint() - 1 - self.used
    }

    /// Fraction of carved memory that is free-queue fragmentation.
    pub fn fragmentation(&self) -> f64 {
        let carved = self.footprint().saturating_sub(1);
        if carved == 0 {
            0.0
        } else {
            self.free_bytes() as f64 / carved as f64
        }
    }

    /// Event statistics for this arena since its creation.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        // Unwind this arena's contribution to the global memory gauges so
        // a long-lived profile session is not inflated by dead arenas.
        // The gauges saturate at zero, so an arena whose lifetime straddles
        // a set_enabled flip cannot underflow them.
        if cfp_trace::enabled() {
            tc::MEMMAN_USED_BYTES.sub(self.used);
            tc::MEMMAN_FOOTPRINT_BYTES.sub(self.footprint().saturating_sub(1));
        }
        // Give the shared pool back everything this arena carved (the
        // reservation invariant is exactly `footprint() - 1`).
        if let Some(pool) = &self.pool {
            pool.release_for(self.component, self.footprint().saturating_sub(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_nonzero_and_distinct() {
        let mut a = Arena::new();
        let x = a.alloc(7);
        let y = a.alloc(7);
        assert_ne!(x, 0);
        assert_ne!(y, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn free_then_alloc_reuses_chunk() {
        let mut a = Arena::new();
        let x = a.alloc(10);
        let _y = a.alloc(10);
        a.free(x, 10);
        let z = a.alloc(10);
        assert_eq!(z, x, "freed chunk should be recycled");
    }

    #[test]
    fn free_queues_are_lifo_per_size() {
        let mut a = Arena::new();
        let x = a.alloc(8);
        let y = a.alloc(8);
        let z = a.alloc(12);
        a.free(x, 8);
        a.free(y, 8);
        a.free(z, 12);
        assert_eq!(a.alloc(8), y);
        assert_eq!(a.alloc(8), x);
        assert_eq!(a.alloc(12), z);
    }

    #[test]
    fn small_requests_round_up_to_min_chunk() {
        let mut a = Arena::new();
        let x = a.alloc(1);
        let y = a.alloc(1);
        assert!(y - x >= MIN_CHUNK as u64, "1-byte chunks must not overlap the free link");
        a.free(x, 1);
        assert_eq!(a.alloc(3), x, "sizes 1 and 3 share the rounded chunk class");
    }

    #[test]
    fn realloc_copies_contents() {
        let mut a = Arena::new();
        let x = a.alloc(7);
        a.bytes_mut(x, 7).copy_from_slice(&[1, 2, 3, 4, 5, 6, 7]);
        let y = a.realloc(x, 7, 12);
        assert_ne!(x, y);
        assert_eq!(&a.bytes(y, 12)[..7], &[1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn realloc_shrinking_keeps_prefix() {
        let mut a = Arena::new();
        let x = a.alloc(12);
        a.bytes_mut(x, 12).copy_from_slice(&[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12]);
        let y = a.realloc(x, 12, 6);
        assert_eq!(a.bytes(y, 6), &[9, 8, 7, 6, 5, 4]);
    }

    #[test]
    fn realloc_same_rounded_size_is_a_noop() {
        let mut a = Arena::new();
        let x = a.alloc(7);
        assert_eq!(a.realloc(x, 7, 7), x);
        let y = a.alloc(2);
        assert_eq!(a.realloc(y, 2, 4), y, "2 and 4 both round to MIN_CHUNK");
    }

    #[test]
    fn used_tracks_rounded_live_bytes() {
        let mut a = Arena::new();
        assert_eq!(a.used(), 0);
        let x = a.alloc(7);
        let y = a.alloc(3); // rounds to 5
        assert_eq!(a.used(), 12);
        a.free(x, 7);
        assert_eq!(a.used(), 5);
        a.free(y, 3);
        assert_eq!(a.used(), 0);
        assert_eq!(a.live_allocs(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_CHUNK")]
    fn oversized_requests_panic() {
        let mut a = Arena::new();
        let _ = a.alloc(MAX_CHUNK + 1);
    }

    /// An arena drawing from a pool of its own, `limit` bytes deep.
    fn pooled(limit: u64) -> Arena {
        Arena::with_options(ArenaOptions {
            pool: Some(BudgetPool::new(limit)),
            ..Default::default()
        })
    }

    #[test]
    fn budget_refuses_excess_but_leaves_arena_usable() {
        let mut a = pooled(64);
        let x = a.alloc(40);
        let y = a.alloc(24); // exactly at the 64-byte cap
        let pool = a.pool().unwrap().clone();
        let before = (a.used(), a.live_allocs(), a.footprint(), a.stats(), pool.used());
        let err = a.try_alloc(8).unwrap_err();
        assert_eq!(err.kind, AllocErrorKind::BudgetExceeded);
        assert_eq!(err.limit, 64);
        assert_eq!(err.requested, 8);
        assert_eq!(err.footprint, 64);
        // Nothing changed: same accounting, and the arena still works.
        assert_eq!((a.used(), a.live_allocs(), a.footprint(), a.stats(), pool.used()), before);
        a.free(x, 40);
        assert_eq!(a.alloc(40), x, "recycling costs no budget and must succeed");
        a.free(y, 24);
        assert_eq!(a.live_allocs(), 1);
    }

    #[test]
    fn budget_counts_carved_not_live_bytes() {
        let mut a = pooled(20);
        let x = a.alloc(10);
        a.free(x, 10);
        // 10 bytes carved (now in the free queue) + a fresh 12 would top 20,
        // and freed chunks of another class don't give the budget back.
        assert_eq!(a.try_alloc(12).unwrap_err().kind, AllocErrorKind::BudgetExceeded);
        // Same class recycles within the cap.
        assert_eq!(a.try_alloc(10).unwrap(), x);
    }

    #[test]
    fn failed_realloc_keeps_the_old_chunk() {
        let mut a = pooled(8);
        let x = a.alloc(8);
        a.bytes_mut(x, 8).copy_from_slice(b"eightbyt");
        let err = a.try_realloc(x, 8, 16).unwrap_err();
        assert_eq!(err.kind, AllocErrorKind::BudgetExceeded);
        assert_eq!(a.bytes(x, 8), b"eightbyt", "old chunk must survive a failed grow");
        assert_eq!(a.live_allocs(), 1);
        assert_eq!(a.stats().grows, 0, "a failed grow is not a grow");
    }

    #[test]
    fn alloc_error_converts_to_cfp_error_with_phase() {
        let mut a = pooled(4);
        let e: cfp_fault::CfpError =
            cfp_fault::CfpError::from(a.try_alloc(40).unwrap_err()).with_phase("build");
        assert_eq!(e.exit_code(), 4);
        match e {
            cfp_fault::CfpError::MemoryExhausted { phase, requested, limit, .. } => {
                assert_eq!(phase, "build");
                assert_eq!(requested, 40);
                assert_eq!(limit, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught_in_debug_builds() {
        let mut a = Arena::new();
        let x = a.alloc(8);
        let _keep_queue_nonempty = a.alloc(8);
        a.free(x, 8);
        a.free(x, 8);
    }

    #[cfg(feature = "fault")]
    #[test]
    fn injected_alloc_failure_is_deterministic() {
        let mut a = Arena::new();
        cfp_fault::configure("memman.alloc", cfp_fault::FaultMode::Nth(3));
        assert!(a.try_alloc(8).is_ok());
        assert!(a.try_alloc(8).is_ok());
        let err = a.try_alloc(8).unwrap_err();
        assert_eq!(err.kind, AllocErrorKind::Injected);
        assert!(a.try_alloc(8).is_ok(), "only the third call fails");
        cfp_fault::clear("memman.alloc");
    }

    #[test]
    fn free_queue_accounting_is_consistent() {
        let mut a = Arena::new();
        let offs: Vec<u64> = (0..10).map(|_| a.alloc(8)).collect();
        assert_eq!(a.free_chunks(8), 0);
        assert_eq!(a.free_bytes(), 0);
        for &o in &offs[..4] {
            a.free(o, 8);
        }
        assert_eq!(a.free_chunks(8), 4);
        assert_eq!(a.free_bytes(), 32);
        assert!((a.fragmentation() - 32.0 / 80.0).abs() < 1e-12);
        // Recycling drains the queue.
        let _ = a.alloc(8);
        assert_eq!(a.free_chunks(8), 3);
    }

    #[test]
    fn stats_split_queue_hits_from_bump_allocs() {
        let mut a = Arena::new();
        let x = a.alloc(10);
        let _y = a.alloc(10);
        a.free(x, 10);
        let _z = a.alloc(10); // recycles x
        let s = a.stats();
        assert_eq!(s.allocs, 3);
        assert_eq!(s.frees, 1);
        assert_eq!(s.queue_hits, 1);
        assert_eq!(s.bump_allocs, 2);
        assert_eq!(s.queue_hits + s.bump_allocs, s.allocs);
        assert_eq!(s.allocs - s.frees, a.live_allocs());
    }

    #[test]
    fn stats_count_grows_and_shrinks() {
        let mut a = Arena::new();
        let x = a.alloc(7);
        let y = a.realloc(x, 7, 20); // grow: alloc + free + grow
        let z = a.realloc(y, 20, 6); // shrink
        let _same = a.realloc(z, 6, 6); // same chunk class: no-op
        let w = a.alloc(2);
        let _same = a.realloc(w, 2, 4); // 2 and 4 both round to MIN_CHUNK: no-op
        let s = a.stats();
        assert_eq!(s.grows, 1);
        assert_eq!(s.shrinks, 1);
        assert_eq!(s.allocs, 4, "realloc's internal allocs are counted");
        assert_eq!(s.frees, 2, "realloc's internal frees are counted");
        assert_eq!(s.allocs - s.frees, a.live_allocs());
    }

    #[test]
    fn stats_agree_with_live_and_free_byte_accounting() {
        let mut a = Arena::new();
        let offs: Vec<(u64, usize)> =
            (0..20).map(|i| (a.alloc(5 + (i % 8)), 5 + (i % 8))).collect();
        for &(o, sz) in offs.iter().take(8) {
            a.free(o, sz);
        }
        let s = a.stats();
        assert_eq!(s.allocs, 20);
        assert_eq!(s.frees, 8);
        assert_eq!(a.live_allocs(), 12);
        assert_eq!(s.allocs - s.frees, a.live_allocs());
        // free_bytes must equal the rounded sizes of the freed chunks.
        let freed: u64 = offs.iter().take(8).map(|&(_, sz)| sz.max(MIN_CHUNK) as u64).sum();
        assert_eq!(a.free_bytes(), freed);
        assert_eq!(a.footprint() - 1, a.used() + a.free_bytes());
    }

    #[test]
    fn offsets_respect_null_and_embed_marker_reservations() {
        use cfp_encoding::ptr40::{EMBED_MARKER, MAX_OFFSET};
        let mut a = Arena::new();
        for i in 0..200 {
            let off = a.alloc(5 + (i % 36));
            assert_ne!(off, 0, "offset 0 is the null pointer");
            assert!(off <= MAX_OFFSET);
            assert_ne!(
                (off >> 32) as u8,
                EMBED_MARKER,
                "top pointer byte 0xFF is reserved for embedded leaves"
            );
        }
    }

    #[test]
    fn footprint_grows_monotonically() {
        let mut a = Arena::new();
        let before = a.footprint();
        let x = a.alloc(24);
        assert_eq!(a.footprint(), before + 24);
        a.free(x, 24);
        assert_eq!(a.footprint(), before + 24, "free never shrinks the arena");
    }

    #[test]
    fn compact_reclaims_trailing_free_chunks_only() {
        let mut a = Arena::new();
        let x = a.alloc(8);
        let y = a.alloc(12);
        let _live = a.alloc(24); // pins y away from the tail
        let z = a.alloc(16);
        a.bytes_mut(x, 8).copy_from_slice(b"aaaaaaaa");
        a.free(y, 12); // interior: must survive, queued
        a.free(z, 16); // tail: reclaimable
        let before = a.footprint();
        let reclaimed = a.compact();
        assert_eq!(reclaimed, 16);
        assert_eq!(a.footprint(), before - 16);
        assert_eq!(a.bytes(x, 8), b"aaaaaaaa", "live chunks never move");
        assert_eq!(a.free_chunks(12), 1, "interior free chunk stays queued");
        assert_eq!(a.free_chunks(16), 0);
        assert_eq!(a.alloc(12), y, "surviving queue still recycles");
        let s = a.stats();
        assert_eq!(s.compactions, 1);
        assert_eq!(s.compact_reclaimed, 16);
    }

    #[test]
    fn compact_reclaims_a_chain_of_tail_chunks() {
        let mut a = Arena::new();
        let _x = a.alloc(8);
        let y = a.alloc(12);
        let z = a.alloc(16);
        // Freed in either order, y and z form a contiguous run that ends
        // at the bump pointer; both must go.
        a.free(z, 16);
        a.free(y, 12);
        assert_eq!(a.compact(), 28);
        assert_eq!(a.free_bytes(), 0);
        // The arena keeps working: new allocations carve at the new end.
        let w = a.alloc(12);
        assert_eq!(w, y, "bump pointer moved back to the reclaimed region");
    }

    #[test]
    fn compact_with_nothing_to_reclaim_is_a_noop() {
        let mut a = Arena::new();
        let x = a.alloc(8);
        let _y = a.alloc(8);
        a.free(x, 8); // interior only
        let before = (a.used(), a.footprint(), a.free_chunks(8));
        assert_eq!(a.compact(), 0);
        assert_eq!((a.used(), a.footprint(), a.free_chunks(8)), before);
    }

    #[test]
    fn compact_on_pressure_retries_within_budget() {
        let mut a = Arena::with_options(ArenaOptions {
            pool: Some(BudgetPool::new(40)),
            compact_on_pressure: true,
            component: Component::Other,
        });
        let x = a.alloc(16);
        let y = a.alloc(24); // at the 40-byte cap
        a.free(y, 24); // tail chunk: compactable
                       // Without compaction this would be refused (carved stays 40);
                       // with compact_on_pressure the tail is returned and re-carved.
        let z = a.try_alloc(20).expect("compaction must free room under the budget");
        assert_eq!(z, y, "re-carved at the reclaimed tail");
        assert!(a.stats().compactions >= 1);
        assert_eq!(a.bytes(x, 16).len(), 16);
        // Still over-budget requests keep failing cleanly.
        assert_eq!(a.try_alloc(24).unwrap_err().kind, AllocErrorKind::BudgetExceeded);
    }

    #[test]
    fn budget_pool_is_shared_across_arenas() {
        let pool = BudgetPool::new(64);
        let opts = |p: &BudgetPool| ArenaOptions {
            pool: Some(p.clone()),
            compact_on_pressure: false,
            component: Component::Other,
        };
        let mut a = Arena::with_options(opts(&pool));
        let mut b = Arena::with_options(opts(&pool));
        let _ = a.alloc(40);
        let _ = b.alloc(24);
        assert_eq!(pool.used(), 64);
        // The pool is exhausted even though each arena alone is small:
        // this is the oversubscription the shared pool exists to prevent.
        let err = b.try_alloc(8).unwrap_err();
        assert_eq!(err.kind, AllocErrorKind::BudgetExceeded);
        assert_eq!(err.limit, 64);
        assert_eq!(err.footprint, 64, "error reports the pool-wide footprint");
        drop(a);
        assert_eq!(pool.used(), 24, "dropping an arena releases its reservation");
        assert!(b.try_alloc(8).is_ok());
        assert_eq!(pool.peak(), 64, "peak keeps the high-water mark");
    }

    #[test]
    fn compact_releases_reclaimed_bytes_to_the_pool() {
        let pool = BudgetPool::new(100);
        let mut a = Arena::with_options(ArenaOptions {
            pool: Some(pool.clone()),
            compact_on_pressure: false,
            component: Component::Other,
        });
        let _x = a.alloc(8);
        let y = a.alloc(32);
        a.free(y, 32);
        assert_eq!(pool.used(), 40);
        assert_eq!(a.compact(), 32);
        assert_eq!(pool.used(), 8);
        assert_eq!(pool.compact_reclaimed(), 32);
    }

    #[test]
    fn reset_empties_the_arena_but_keeps_capacity() {
        let mut a = Arena::new();
        let x = a.alloc(16);
        let _y = a.alloc(32);
        a.free(x, 16);
        let cap = a.reserved();
        a.reset();
        assert_eq!(a.footprint(), 1, "only the burned null byte remains");
        assert_eq!(a.used(), 0);
        assert_eq!(a.live_allocs(), 0);
        assert_eq!(a.free_chunks(16), 0, "free queues cleared");
        assert_eq!(a.reserved(), cap, "Vec capacity survives the reset");
        assert_eq!(a.stats().resets, 1);
        // The arena is immediately reusable and re-carves from offset 1.
        let z = a.alloc(16);
        assert!(z >= 1);
        assert_eq!(a.used(), 16);
    }

    #[test]
    fn reset_releases_the_full_pool_reservation() {
        let pool = BudgetPool::new(100);
        let mut a = Arena::with_options(ArenaOptions {
            pool: Some(pool.clone()),
            compact_on_pressure: false,
            component: Component::Other,
        });
        let _x = a.alloc(8);
        let _y = a.alloc(32);
        assert_eq!(pool.used(), 40);
        a.reset();
        assert_eq!(pool.used(), 0, "reset releases exactly footprint - 1");
        // A recycled arena re-reserves as it re-carves, same as a fresh one.
        let _z = a.alloc(24);
        assert_eq!(pool.used(), 24);
        drop(a);
        assert_eq!(pool.used(), 0, "drop after reset does not double-release");
    }

    #[test]
    fn reset_respects_a_fixed_budget_afresh() {
        let mut a = pooled(40);
        let _x = a.alloc(32);
        assert!(a.try_alloc(32).is_err(), "budget refuses past the cap");
        a.reset();
        // After a reset the footprint is back to zero carved bytes, so the
        // same budget admits a fresh allocation.
        assert!(a.try_alloc(32).is_ok());
    }

    #[test]
    fn components_attribute_reserves_and_releases() {
        let pool = BudgetPool::unlimited();
        let mut build = Arena::with_options(ArenaOptions {
            pool: Some(pool.clone()),
            component: Component::BuildTree,
            ..Default::default()
        });
        let mut cond = Arena::with_options(ArenaOptions {
            pool: Some(pool.clone()),
            component: Component::CondTrees,
            ..Default::default()
        });
        assert_eq!(build.component(), Component::BuildTree);
        let _b = build.alloc(24);
        let _c = cond.alloc(16);
        assert_eq!(pool.component_used(Component::BuildTree), 24);
        assert_eq!(pool.component_used(Component::CondTrees), 16);
        assert_eq!(pool.used(), 40);
        cond.reset();
        assert_eq!(pool.component_used(Component::CondTrees), 0);
        assert_eq!(pool.component_peak(Component::CondTrees), 16);
        drop(build);
        assert_eq!(pool.component_used(Component::BuildTree), 0);
        assert_eq!(pool.component_peak(Component::BuildTree), 24);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn external_charges_attribute_but_never_meter() {
        let pool = BudgetPool::new(10);
        pool.charge_external(Component::CondArrays, 1000);
        assert_eq!(pool.used(), 0, "external bytes are unmetered");
        assert_eq!(pool.external_used(), 1000);
        assert_eq!(pool.component_used(Component::CondArrays), 1000);
        // Admission is unaffected: the 10-byte limit is still fully free.
        assert!(pool.try_reserve(10));
        assert!(!pool.try_reserve(1));
        pool.release(10);
        pool.release_external(Component::CondArrays, 1000);
        assert_eq!(pool.external_used(), 0);
        assert_eq!(pool.component_used(Component::CondArrays), 0);
        assert_eq!(pool.component_peak(Component::CondArrays), 1000);
    }

    #[test]
    fn snapshot_components_sum_to_accounted_bytes() {
        let pool = BudgetPool::unlimited();
        let mut a = Arena::with_options(ArenaOptions {
            pool: Some(pool.clone()),
            component: Component::BuildTree,
            ..Default::default()
        });
        let _x = a.alloc(17);
        pool.charge_external(Component::CondArrays, 123);
        pool.try_reserve(9); // untagged -> Component::Other
        let snap = pool.snapshot();
        assert_eq!(snap.used, 17 + 9);
        assert_eq!(snap.external_used, 123);
        assert_eq!(snap.components_total(), snap.accounted());
        assert_eq!(snap.components.len(), Component::ALL.len());
        let row = |name: &str| snap.components.iter().find(|r| r.0 == name).unwrap();
        assert_eq!(row("build-tree").1, 17);
        assert_eq!(row("cond-arrays").1, 123);
        assert_eq!(row("other").1, 9);
        pool.release(9);
    }

    #[test]
    fn arena_stats_track_peaks_within_the_window() {
        let mut a = Arena::new();
        let x = a.alloc(32);
        a.free(x, 32);
        let _y = a.alloc(8); // queue miss (wrong size) -> bump
        assert_eq!(a.stats().peak_used, 32, "peak survives the free");
        assert!(a.stats().peak_footprint >= a.footprint() - 1);
        let z = a.alloc(32); // queue hit: used rises, footprint does not
        assert_eq!(a.stats().peak_used, 40);
        let fp = a.stats().peak_footprint;
        a.free(z, 32);
        assert_eq!(a.stats().peak_used, 40, "peak survives frees");
        assert_eq!(a.stats().peak_footprint, fp, "queue traffic leaves footprint peak");
    }

    #[test]
    fn reset_with_clear_peaks_starts_a_fresh_window() {
        let mut a = Arena::new();
        let _x = a.alloc(32);
        assert_eq!(a.stats().peak_used, 32);
        // Plain reset keeps the peaks (run-level view)...
        a.reset();
        assert_eq!(a.stats().peak_used, 32);
        // ...while ClearPeaks starts a per-task window so recycling does
        // not smear one task's peak across the next.
        let _y = a.alloc(8);
        a.reset_with(StatsReset::ClearPeaks);
        assert_eq!(a.stats().peak_used, 0);
        assert_eq!(a.stats().peak_footprint, 0);
        let _z = a.alloc(16);
        assert_eq!(a.stats().peak_used, 16);
    }
}
