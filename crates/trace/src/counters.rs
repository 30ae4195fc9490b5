//! The global metric registry: atomic counters, gauges, and histograms.
//!
//! Every metric in the workspace is *defined* here, in one place, and
//! bumped from the producer crates. That inverts the usual "each crate
//! registers its own metrics" design on purpose: with no inventory/ctor
//! machinery available offline, a central static list is the only way to
//! enumerate all metrics for a snapshot without heap registration at
//! startup.
//!
//! All operations use relaxed atomics — metrics are monotonic event
//! counts and tolerate reordering; we never synchronise *through* them.
//! Producers must check [`crate::enabled()`] before bumping, so the
//! disabled cost is one relaxed load.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new zeroed counter (const, for statics).
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0) }
    }

    /// The registry name, e.g. `"memman.allocs"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An up/down gauge measured in arbitrary units (bytes, mostly).
///
/// Unlike [`Counter`] it supports `sub`, so it can mirror live state such
/// as an arena's used bytes. `sub` saturates at zero rather than wrapping:
/// producers whose lifetime straddles an `enabled()` flip would otherwise
/// underflow on teardown.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// A new zeroed gauge (const, for statics).
    pub const fn new(name: &'static str) -> Self {
        Gauge { name, value: AtomicU64::new(0) }
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Raises the gauge by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the gauge by `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        // fetch_update loops only under contention; gauges are bumped from
        // few threads and read rarely.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A gauge that remembers the maximum value ever recorded.
#[derive(Debug)]
pub struct MaxGauge {
    name: &'static str,
    value: AtomicU64,
}

impl MaxGauge {
    /// A new zeroed max-gauge (const, for statics).
    pub const fn new(name: &'static str) -> Self {
        MaxGauge { name, value: AtomicU64::new(0) }
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records `v`, keeping the running maximum.
    #[inline]
    pub fn record(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The maximum recorded so far.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram of `u64` counts.
///
/// Out-of-range observations land in the last bucket, so totals are
/// preserved (the report marks the last bucket as `+inf`-ish).
#[derive(Debug)]
pub struct Histogram<const N: usize> {
    name: &'static str,
    buckets: [AtomicU64; N],
}

impl<const N: usize> Histogram<N> {
    /// A new zeroed histogram (const, for statics).
    pub const fn new(name: &'static str) -> Self {
        Histogram { name, buckets: [const { AtomicU64::new(0) }; N] }
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation in `bucket` (clamped to the last bucket).
    #[inline]
    pub fn record(&self, bucket: usize) {
        self.buckets[bucket.min(N - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation of `value` in its log2 bucket
    /// (`0 → bucket 0`, `1 → 1`, `2..=3 → 2`, `4..=7 → 3`, ...).
    #[inline]
    pub fn record_log2(&self, value: u64) {
        let bucket = if value == 0 { 0 } else { 64 - value.leading_zeros() as usize };
        self.record(bucket);
    }

    /// Bucket counts as a plain vector.
    pub fn snapshot(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Back to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// The registry. Grouped by producer crate; names are `<group>.<metric>`.
// ---------------------------------------------------------------------------

/// `cfp-memman`: total `Arena::alloc` calls.
pub static MEMMAN_ALLOCS: Counter = Counter::new("memman.allocs");
/// `cfp-memman`: total `Arena::free` calls.
pub static MEMMAN_FREES: Counter = Counter::new("memman.frees");
/// `cfp-memman`: allocations served by recycling a free-queue chunk.
pub static MEMMAN_QUEUE_HITS: Counter = Counter::new("memman.queue_hits");
/// `cfp-memman`: allocations served by carving at the bump pointer.
pub static MEMMAN_BUMP_ALLOCS: Counter = Counter::new("memman.bump_allocs");
/// `cfp-memman`: reallocations to a larger chunk class.
pub static MEMMAN_GROWS: Counter = Counter::new("memman.reallocs_grow");
/// `cfp-memman`: reallocations to a smaller chunk class.
pub static MEMMAN_SHRINKS: Counter = Counter::new("memman.reallocs_shrink");
/// `cfp-memman`: live (rounded) bytes across all arenas, mirrored.
pub static MEMMAN_USED_BYTES: Gauge = Gauge::new("memman.used_bytes");
/// `cfp-memman`: carved bytes (bump high-water) across all arenas.
pub static MEMMAN_FOOTPRINT_BYTES: Gauge = Gauge::new("memman.footprint_bytes");
/// `cfp-memman`: peak of [`MEMMAN_FOOTPRINT_BYTES`] over the run.
pub static MEMMAN_PEAK_FOOTPRINT: MaxGauge = MaxGauge::new("memman.peak_footprint_bytes");
/// `cfp-memman`: `Arena::compact` calls across all arenas.
pub static MEMMAN_COMPACTIONS: Counter = Counter::new("memman.compactions");
/// `cfp-memman`: bytes returned to the footprint by compaction.
pub static MEMMAN_COMPACT_RECLAIMED: Counter = Counter::new("memman.compact_reclaimed_bytes");
/// `cfp-memman`: arenas recycled via `Arena::reset` instead of reallocated.
pub static MEMMAN_RESETS: Counter = Counter::new("memman.arena_resets");
/// `cfp-memman`: high-water mark of reserved bytes in the shared budget
/// pool (0 when mining runs without a budget).
pub static MEMMAN_POOL_PEAK: MaxGauge = MaxGauge::new("memman.pool_peak_bytes");

/// `cfp-metrics`: current tracked bytes, mirrored from `MemGauge`.
pub static MEM_CURRENT_BYTES: Gauge = Gauge::new("mem.current_bytes");
/// `cfp-metrics`: peak tracked bytes, mirrored from `MemGauge`.
pub static MEM_PEAK_BYTES: MaxGauge = MaxGauge::new("mem.peak_bytes");

/// `cfp-tree`: standard (masked) nodes encoded.
pub static TREE_STANDARD_NODES: Counter = Counter::new("tree.standard_nodes");
/// `cfp-tree`: chain nodes encoded.
pub static TREE_CHAIN_NODES: Counter = Counter::new("tree.chain_nodes");
/// `cfp-tree`: leaves embedded into their parent's pointer slot.
pub static TREE_EMBEDDED_LEAVES: Counter = Counter::new("tree.embedded_leaves");
/// `cfp-tree`: chain nodes split into standard nodes on insert.
pub static TREE_CHAIN_SPLITS: Counter = Counter::new("tree.chain_splits");
/// `cfp-tree`: embedded leaves promoted to real nodes.
pub static TREE_UNEMBEDS: Counter = Counter::new("tree.unembeds");
/// `cfp-tree`: distribution of compression-mask bytes written.
pub static TREE_MASK_BYTES: Histogram<256> = Histogram::new("tree.mask_bytes");

/// `cfp-array`: tree→array conversions performed.
pub static ARRAY_CONVERSIONS: Counter = Counter::new("array.conversions");
/// `cfp-array`: tree nodes visited during conversion.
pub static ARRAY_NODES_CONVERTED: Counter = Counter::new("array.nodes_converted");
/// `cfp-array`: bytes of CFP-array output written.
pub static ARRAY_BYTES_WRITTEN: Counter = Counter::new("array.bytes_written");
/// `cfp-array`: wall nanoseconds spent converting.
pub static ARRAY_CONVERT_NANOS: Counter = Counter::new("array.convert_nanos");
/// `cfp-array`: conversions that counted an item-pair table (dense
/// arrays, see `cfp_array::CfpArray::pair_row`).
pub static ARRAY_PAIR_TABLES: Counter = Counter::new("array.pair_tables");

/// `cfp-core`: conditional trees built during the mine phase.
pub static CORE_CONDITIONAL_TREES: Counter = Counter::new("core.conditional_trees");
/// `cfp-core`: recursions short-circuited by the single-path optimisation.
pub static CORE_SINGLE_PATH_SHORTCUTS: Counter = Counter::new("core.single_path_shortcuts");
/// `cfp-core`: frequent itemsets emitted.
pub static CORE_PATTERNS: Counter = Counter::new("core.patterns_emitted");
/// `cfp-core`: conditional pattern bases whose item frequencies came from
/// a pair-table row instead of a walk.
pub static CORE_PAIR_ROWS: Counter = Counter::new("core.pair_rows");
/// `cfp-core`: worker threads used by the parallel miner (0 = sequential).
pub static CORE_WORKERS: MaxGauge = MaxGauge::new("core.workers");
/// `cfp-core`: deepest conditional-tree recursion reached.
pub static CORE_MAX_DEPTH: MaxGauge = MaxGauge::new("core.max_depth");
/// `cfp-core`: recursion events per depth (clamped at 63).
pub static CORE_DEPTH: Histogram<64> = Histogram::new("core.recursion_depth");
/// `cfp-core`: log2 histogram of conditional pattern-base sizes.
pub static CORE_PATTERN_BASE_LOG2: Histogram<33> = Histogram::new("core.pattern_base_log2");
/// `cfp-core`: log2 histogram of conditional-tree arena bytes at the
/// moment each conditional tree finishes building (per-task peaks).
pub static CORE_COND_TREE_BYTES: Histogram<64> = Histogram::new("core.cond_tree_bytes");
/// `cfp-core`: worker panics contained by the parallel miner.
pub static CORE_WORKER_PANICS: Counter = Counter::new("core.worker_panics");
/// `cfp-core`: heartbeat ticks from parallel workers (one per first-level
/// item mined), read by the watchdog to tell progress from a hang.
pub static CORE_WORKER_HEARTBEATS: Counter = Counter::new("core.worker_heartbeats");
/// `cfp-core`: workers the watchdog declared stalled.
pub static CORE_WORKER_STALLS: Counter = Counter::new("core.worker_stalls");
/// `cfp-core`: item tasks claimed from the dynamic mine-phase scheduler.
pub static CORE_TASKS_CLAIMED: Counter = Counter::new("core.tasks_claimed");
/// `cfp-core`: claimed tasks beyond a worker's fair static share — work the
/// dynamic scheduler moved off an overloaded peer.
pub static CORE_TASKS_STOLEN: Counter = Counter::new("core.tasks_stolen");
/// `cfp-core`: recovery-ladder rungs attempted by the supervisor.
pub static CORE_RECOVERY_RUNGS: Counter = Counter::new("core.recovery_rungs");
/// `cfp-core`: partitions the database was split into for partitioned
/// (in-RAM or out-of-core) mining.
pub static CORE_PARTITIONS: MaxGauge = MaxGauge::new("core.partitions");
/// `cfp-core`: first-level items fully mined (conditional subtree done).
pub static CORE_ITEMS_MINED: Counter = Counter::new("core.items_mined");
/// `cfp-core`: first-level items the mine phase started with; with
/// [`CORE_ITEMS_MINED`] this gives the progress meter its denominator.
pub static CORE_FIRST_LEVEL_ITEMS: MaxGauge = MaxGauge::new("core.first_level_items");

/// `cfp-data`: malformed lines discarded under `ParsePolicy::Skip`.
pub static DATA_SKIPPED_LINES: Counter = Counter::new("data.skipped_lines");
/// `cfp-data`: malformed tokens across all skipped lines.
pub static DATA_BAD_TOKENS: Counter = Counter::new("data.bad_tokens");

/// `cfp-data`: spill files durably committed (fsync + rename completed).
pub static DATA_SPILL_FILES: Counter = Counter::new("data.spill_files");
/// `cfp-data`: bytes written into committed spill files.
pub static DATA_SPILL_BYTES_WRITTEN: Counter = Counter::new("data.spill_bytes_written");
/// `cfp-data`: bytes read back from spill files for mining.
pub static DATA_SPILL_BYTES_READ: Counter = Counter::new("data.spill_bytes_read");
/// `cfp-data`: transient spill I/O errors absorbed by retry-with-backoff.
pub static DATA_SPILL_RETRIES: Counter = Counter::new("data.spill_retries");
/// `cfp-core`: partitions known so far to a partitioned run — mined,
/// being mined, and queued (the `n` of the progress heartbeat's
/// `partition k/n`; grows when a too-big range is halved).
pub static CORE_SPILL_PARTITIONS: MaxGauge = MaxGauge::new("core.spill_partitions");
/// `cfp-core`: checkpoint manifests durably committed.
pub static CORE_CKPT_COMMITS: Counter = Counter::new("core.ckpt_commits");
/// `cfp-core`: bytes written into committed checkpoint manifests.
pub static CORE_CKPT_BYTES: Counter = Counter::new("core.ckpt_bytes");
/// `cfp-core`: candidates suppressed by the in-recursion closure check
/// (subsumption hits and support-preserving extensions).
pub static CORE_CLOSED_PRUNED: Counter = Counter::new("core.closed_pruned");
/// `cfp-core`: candidates/subtrees suppressed by the maximality check
/// (subset hits against the emitted-maximal index and lookahead prunes).
pub static CORE_MAXIMAL_PRUNED: Counter = Counter::new("core.maximal_pruned");
/// `cfp-core`: subtrees pruned because their support fell below the
/// rising top-k admission bound.
pub static CORE_TOPK_PRUNED: Counter = Counter::new("core.topk_pruned");
/// `cfp-core`: partitions a partitioned run mined to completion so far
/// (the `k` of the progress heartbeat's `partition k/n`).
pub static CORE_SPILL_PARTS_DONE: Counter = Counter::new("core.spill_parts_done");
/// `cfp-cli`: first-level watermark a checkpointed run resumed from
/// (0 when the run started fresh).
pub static CORE_RESUME_WATERMARK: MaxGauge = MaxGauge::new("core.resume_watermark");

/// All plain counters, for snapshots.
static COUNTERS: &[&Counter] = &[
    &MEMMAN_ALLOCS,
    &MEMMAN_FREES,
    &MEMMAN_QUEUE_HITS,
    &MEMMAN_BUMP_ALLOCS,
    &MEMMAN_GROWS,
    &MEMMAN_SHRINKS,
    &MEMMAN_COMPACTIONS,
    &MEMMAN_COMPACT_RECLAIMED,
    &MEMMAN_RESETS,
    &TREE_STANDARD_NODES,
    &TREE_CHAIN_NODES,
    &TREE_EMBEDDED_LEAVES,
    &TREE_CHAIN_SPLITS,
    &TREE_UNEMBEDS,
    &ARRAY_CONVERSIONS,
    &ARRAY_NODES_CONVERTED,
    &ARRAY_BYTES_WRITTEN,
    &ARRAY_CONVERT_NANOS,
    &ARRAY_PAIR_TABLES,
    &CORE_CONDITIONAL_TREES,
    &CORE_SINGLE_PATH_SHORTCUTS,
    &CORE_PATTERNS,
    &CORE_PAIR_ROWS,
    &CORE_WORKER_PANICS,
    &CORE_WORKER_HEARTBEATS,
    &CORE_WORKER_STALLS,
    &CORE_TASKS_CLAIMED,
    &CORE_TASKS_STOLEN,
    &CORE_RECOVERY_RUNGS,
    &CORE_ITEMS_MINED,
    &CORE_CLOSED_PRUNED,
    &CORE_MAXIMAL_PRUNED,
    &CORE_TOPK_PRUNED,
    &DATA_SKIPPED_LINES,
    &DATA_BAD_TOKENS,
    &DATA_SPILL_FILES,
    &DATA_SPILL_BYTES_WRITTEN,
    &DATA_SPILL_BYTES_READ,
    &DATA_SPILL_RETRIES,
    &CORE_CKPT_COMMITS,
    &CORE_CKPT_BYTES,
    &CORE_SPILL_PARTS_DONE,
];

/// All gauges, for snapshots.
static GAUGES: &[&Gauge] = &[&MEMMAN_USED_BYTES, &MEMMAN_FOOTPRINT_BYTES, &MEM_CURRENT_BYTES];

/// All max-gauges, for snapshots.
static MAX_GAUGES: &[&MaxGauge] = &[
    &MEMMAN_PEAK_FOOTPRINT,
    &MEMMAN_POOL_PEAK,
    &MEM_PEAK_BYTES,
    &CORE_WORKERS,
    &CORE_MAX_DEPTH,
    &CORE_PARTITIONS,
    &CORE_SPILL_PARTITIONS,
    &CORE_FIRST_LEVEL_ITEMS,
    &CORE_RESUME_WATERMARK,
];

/// Name/value pairs for every counter, gauge, and max-gauge, sorted by
/// name so snapshots (and the reports built from them) are byte-stable
/// regardless of how the registry statics are grouped.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    let mut out = Vec::with_capacity(COUNTERS.len() + GAUGES.len() + MAX_GAUGES.len());
    out.extend(COUNTERS.iter().map(|c| (c.name(), c.get())));
    out.extend(GAUGES.iter().map(|g| (g.name(), g.get())));
    out.extend(MAX_GAUGES.iter().map(|g| (g.name(), g.get())));
    out.sort_unstable_by_key(|&(name, _)| name);
    out
}

/// Name/buckets pairs for every histogram, sorted by name.
pub fn histogram_snapshot() -> Vec<(&'static str, Vec<u64>)> {
    let mut out = vec![
        (TREE_MASK_BYTES.name(), TREE_MASK_BYTES.snapshot()),
        (CORE_DEPTH.name(), CORE_DEPTH.snapshot()),
        (CORE_PATTERN_BASE_LOG2.name(), CORE_PATTERN_BASE_LOG2.snapshot()),
        (CORE_COND_TREE_BYTES.name(), CORE_COND_TREE_BYTES.snapshot()),
    ];
    out.sort_unstable_by_key(|&(name, _)| name);
    out
}

/// Zeroes every registered metric.
pub fn reset_all() {
    for c in COUNTERS {
        c.reset();
    }
    for g in GAUGES {
        g.reset();
    }
    for g in MAX_GAUGES {
        g.reset();
    }
    TREE_MASK_BYTES.reset();
    CORE_DEPTH.reset();
    CORE_PATTERN_BASE_LOG2.reset();
    CORE_COND_TREE_BYTES.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The registry is process-global; tests that mutate it take this
    /// lock so `cargo test`'s parallel runner cannot interleave them.
    static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_add_and_reset() {
        let _g = lock();
        let c = Counter::new("test.counter");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new("test.gauge");
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub must saturate, not wrap");
    }

    #[test]
    fn max_gauge_keeps_maximum() {
        let g = MaxGauge::new("test.max");
        g.record(5);
        g.record(3);
        g.record(9);
        g.record(7);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_clamps_and_totals() {
        let h: Histogram<4> = Histogram::new("test.hist");
        h.record(0);
        h.record(3);
        h.record(99); // clamps into the last bucket
        assert_eq!(h.snapshot(), vec![1, 0, 0, 2]);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn histogram_log2_buckets() {
        let h: Histogram<8> = Histogram::new("test.log2");
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1 << 40] {
            h.record_log2(v);
        }
        // 0→b0, 1→b1, {2,3}→b2, {4,7}→b3, 8→b4, 2^40→clamped b7
        assert_eq!(h.snapshot(), vec![1, 1, 2, 2, 1, 0, 0, 1]);
    }

    #[test]
    fn snapshot_contains_all_registered_names() {
        let _g = lock();
        let snap = snapshot();
        let names: Vec<_> = snap.iter().map(|(n, _)| *n).collect();
        for expected in ["memman.allocs", "tree.standard_nodes", "core.max_depth"] {
            assert!(names.contains(&expected), "{expected} missing from {names:?}");
        }
        // Names are unique.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn snapshots_are_sorted_by_name() {
        let _g = lock();
        let names: Vec<_> = snapshot().iter().map(|&(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "counter snapshot must iterate in name order");
        let hist_names: Vec<_> = histogram_snapshot().iter().map(|(n, _)| *n).collect();
        let mut hist_sorted = hist_names.clone();
        hist_sorted.sort_unstable();
        assert_eq!(hist_names, hist_sorted);
    }

    #[test]
    fn reset_all_zeroes_the_registry() {
        let _g = lock();
        MEMMAN_ALLOCS.add(3);
        CORE_MAX_DEPTH.record(12);
        TREE_MASK_BYTES.record(0xAB);
        reset_all();
        assert!(snapshot().iter().all(|&(_, v)| v == 0));
        assert_eq!(TREE_MASK_BYTES.total(), 0);
    }
}
