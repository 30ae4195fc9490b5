//! The mining driver: the one CFP-growth pipeline behind every entry point.
//!
//! [`CfpGrowthMiner`](crate::CfpGrowthMiner) is this driver with one
//! mine-phase worker and [`ParallelCfpGrowthMiner`](crate::ParallelCfpGrowthMiner)
//! with `threads`; [`mine_file`](crate::mine_file) and every
//! [`Supervisor`](crate::Supervisor) rung call the same back half.
//!
//! - The **front half** ([`count`], [`run`], [`convert_and_mine`]) counts
//!   item supports, builds the initial CFP-tree — charging the run's
//!   [`BudgetPool`](cfp_memman::BudgetPool) when there is one — and
//!   converts it to the CFP-array (§3 of the paper), each phase under its
//!   own span. [`count`] ranks a whole database by support, once per run:
//!   a supervised run's attempts and rungs share its count. [`run`] builds
//!   from that count; a rung-2 partition and [`mine_file`](crate::mine_file)
//!   build their own trees and join at [`convert_and_mine`].
//! - The **back half** ([`mine`]) mines the first-level items from the
//!   run's first item up (0 unless a rung-2 partition ranks its
//!   context items first) — one task per item — on `threads.max(1)`
//!   spawned workers claiming from a [`TaskQueue`]. Each task's itemsets
//!   travel to the caller's thread in chunks, where the
//!   [`OrderedEmitter`] replays them in
//!   descending item order: the order one recursion over the array
//!   produces, so the output stream is byte-identical at every thread
//!   count. The emitter owns the resumable watermarks, cancellation, the
//!   resume skip, the condensed-mode reconcile, and the top-k drain.
//!
//! Workers are spawned (not scoped) over `Arc`-shared structures so a
//! truly wedged worker can be abandoned. A panic inside a worker is caught
//! at the thread boundary ([`catch_unwind`]) and a shared poison flag
//! stops its siblings at their next task. With a `worker_timeout`, each
//! worker ticks a heartbeat per claimed task; a window in which no chunk
//! arrives and no heartbeat advances fails the run with
//! [`CfpError::WorkerTimeout`] instead of hanging.
//!
//! One [`MemGauge`] per run counts what the structures hold: the front
//! half charges it with the tree and the array, and every worker with its
//! conditional trees, arrays and recorded bases. `peak_bytes` is its
//! high-water — at more than one worker the measured concurrent peak,
//! which varies with scheduling — and `avg_bytes` its average over every
//! checkpoint: after the build, after the conversion, and at each
//! conditional array.

use crate::growth::{
    charge_cond_array, drain_topk, mine_one_item, MineOpts, ModeCtx, Scratch, SubsumeIndex,
    TopKState,
};
use crate::schedule::TaskQueue;
use cfp_array::{convert, CfpArray};
use cfp_data::{CfpError, Item, ItemRecoder, ItemsetSink, MineStats, OutputMode, TransactionDb};
use cfp_memman::Component;
use cfp_metrics::{HeapSize, MemGauge, Stopwatch};
use cfp_trace::{span, Phase};
use cfp_tree::CfpTree;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How the back half runs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Plan {
    /// Mine-phase workers; 0 counts as 1.
    pub threads: usize,
    /// Watchdog limit: fail when no worker makes progress for this long.
    pub worker_timeout: Option<Duration>,
}

/// A database's count ([`count`]) and the time it took.
pub(crate) type Counted = (ItemRecoder, Duration);

/// The first scan: the supports of every item of `db`, ranked by
/// descending support at `min_support`, under one `count` span.
pub(crate) fn count(db: &TransactionDb, min_support: u64) -> Counted {
    let sw = Stopwatch::start();
    let _s = span(Phase::Count);
    (ItemRecoder::scan(db, min_support), sw.elapsed())
}

/// Build, convert, mine: one whole run over `db` from its count, every
/// frequent item mined. The sink hears the count
/// ([`ItemsetSink::counted`]) before the build, and the stats' scan time
/// includes the count's.
pub(crate) fn run(
    db: &TransactionDb,
    (recoder, count_time): &Counted,
    sink: &mut dyn ItemsetSink,
    plan: Plan,
    opts: &MineOpts,
) -> Result<MineStats, CfpError> {
    let mut stats = MineStats::default();
    let mut sw = Stopwatch::start();
    sink.counted(recoder)?;
    stats.scan_time = *count_time + sw.lap();
    let tree = {
        let _s = span(Phase::Build);
        CfpTree::try_from_db_with(db, recoder, opts.arena_options(Component::BuildTree))?
    };
    stats.build_time = sw.lap();
    convert_and_mine(recoder, tree, 0, sink, stats, sw, plan, opts)
}

/// The rest of a run once the initial tree over `recoder`'s items is
/// built: conversion, then the back half from item `first` up at the
/// recoder's support. The streaming [`mine_file`](crate::mine_file)
/// pipeline, which builds its tree from the file, and each rung-2
/// partition, which builds its tree in the pass that sizes the next one,
/// join here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn convert_and_mine(
    recoder: &ItemRecoder,
    tree: CfpTree,
    first: u32,
    sink: &mut dyn ItemsetSink,
    mut stats: MineStats,
    mut sw: Stopwatch,
    plan: Plan,
    opts: &MineOpts,
) -> Result<MineStats, CfpError> {
    let gauge = MemGauge::new();
    gauge.alloc(tree.heap_bytes());
    gauge.checkpoint();
    stats.tree_nodes = tree.num_nodes();
    // Tree and array coexist during conversion: that is the build-phase
    // memory peak of CFP-growth (§3.5).
    let array = {
        let _s = span(Phase::Convert);
        convert(&tree)
    };
    gauge.alloc(array.heap_bytes());
    gauge.checkpoint();
    gauge.free(tree.heap_bytes());
    drop(tree);
    // Out of core: the array is mined from a zero-copy view of its spill
    // file, which keeps the array's pair table. The gauge holds the view
    // from here on; its data block is the spill buffer's.
    let array = match &opts.cond_spill {
        Some(cs) => {
            gauge.free(array.heap_bytes());
            let view = cs.round_trip(array)?;
            gauge.alloc(view.heap_bytes());
            view
        }
        None => array,
    };
    let _array_charges = charge_cond_array(&opts.pool, &array);
    stats.convert_time = sw.lap();

    let globals: Arc<[Item]> =
        (0..recoder.num_items() as u32).map(|i| recoder.original(i)).collect();
    let min_support = recoder.min_support();
    mine(Arc::new(array), globals, first, min_support, sink, plan, opts, &gauge, &mut stats)?;
    stats.mine_time = sw.lap();
    stats.peak_bytes = gauge.peak();
    stats.avg_bytes = gauge.average();
    Ok(stats)
}

/// The back half: mines the first-level items of `array` from `first` up
/// (local ids mapped to original items by `globals`) into `sink`, and
/// records the itemsets and each worker's tasks and costs in `stats`.
/// Every item of `array` is frequent: it was recoded at `min_support`.
/// Items below `first` appear only inside the itemsets of the items above.
/// Every worker charges its conditional structures to `gauge`, the run's
/// gauge, which already holds `array`.
#[allow(clippy::too_many_arguments)]
fn mine(
    array: Arc<CfpArray>,
    globals: Arc<[Item]>,
    first: u32,
    min_support: u64,
    sink: &mut dyn ItemsetSink,
    plan: Plan,
    opts: &MineOpts,
    gauge: &MemGauge,
    stats: &mut MineStats,
) -> Result<(), CfpError> {
    let n = array.num_items() as u32;
    if cfp_trace::enabled() {
        cfp_trace::counters::CORE_FIRST_LEVEL_ITEMS.record((n - first) as u64);
    }
    // One top-k heap shared by every worker: offers commute (the retained
    // set is fixed by the input), so the drain is deterministic.
    let topk = match opts.output {
        OutputMode::TopK(k) => Some(Arc::new(TopKState::new(k))),
        _ => None,
    };
    let threads = plan.threads.clamp(1, (n - first).max(1) as usize);
    if cfp_trace::enabled() {
        cfp_trace::counters::CORE_WORKERS.record(threads as u64);
    }
    // Items ≥ max_item were emitted by the run being resumed. Condensed
    // modes still mine them — their itemsets seed the reconcile index —
    // and the emitter replays them without emitting.
    let max_item = (n as u64).saturating_sub(opts.resume_skip) as u32;
    let sched_max = if opts.output.is_condensed() { n } else { max_item };
    let shared = Arc::new(Shared {
        queue: TaskQueue::for_workers(&array, first, sched_max, threads),
        array,
        globals,
        min_support,
        opts: opts.clone(),
        gauge: gauge.clone(),
        topk: topk.clone(),
        poison: AtomicBool::new(false),
        heartbeats: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        fair_share: ((n - first) as u64).div_ceil(threads as u64),
    });
    let (tx, rx) = mpsc::sync_channel::<Chunk>(IN_FLIGHT);
    let handles: Vec<_> = (0..threads)
        .map(|w| {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::spawn(move || work(&shared, w, &tx))
        })
        .collect();
    drop(tx);

    let mut emitter =
        OrderedEmitter::new(sink, n, first, sched_max, max_item, opts.output, opts.cancel.clone());
    let mut first_error = receive(&rx, &mut emitter, &shared, &handles, plan.worker_timeout);
    stats.itemsets = emitter.emitted;
    // The run is finished once its first item is out.
    let unfinished = emitter.next >= first as i64;
    drop(emitter);
    // A worker blocked on a full channel after a failure sees the hang-up
    // and stops.
    drop(rx);

    let timed_out = matches!(first_error, Some(CfpError::WorkerTimeout { .. }));
    for (w, h) in handles.into_iter().enumerate() {
        if timed_out {
            // Give cancelled workers a short grace to observe the poison
            // flag; abandon any that stay wedged (they hold only Arc'd
            // shared state, which outlives the run).
            let mut grace = 50;
            while !h.is_finished() && grace > 0 {
                std::thread::sleep(Duration::from_millis(2));
                grace -= 1;
            }
            if !h.is_finished() {
                continue;
            }
        }
        // join() only errors on a panic that escaped catch_unwind; fold it
        // into the same structured error instead of re-panicking.
        let joined = h.join().unwrap_or_else(|payload| {
            shared.poison.store(true, Ordering::Relaxed);
            Err(CfpError::WorkerPanic { worker: w, message: panic_message(&*payload) })
        });
        match joined {
            Ok(report) => {
                stats.worker_tasks.push(report.tasks);
                stats.worker_costs.push(report.cost);
            }
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    // Cancellation only counts as an interruption when work remains — a
    // signal landing after the last item leaves a complete run.
    if unfinished && opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        first_error.get_or_insert(CfpError::Interrupted);
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    // Top-k emits nothing while mining (workers offer into the shared
    // heap); the winners drain here, sorted, once the set is final.
    stats.itemsets += topk.as_deref().map_or(0, |t| drain_topk(t, sink));
    Ok(())
}

/// Everything the workers of one run share.
struct Shared {
    array: Arc<CfpArray>,
    globals: Arc<[Item]>,
    queue: TaskQueue,
    min_support: u64,
    opts: MineOpts,
    /// The run's memory gauge, which every worker charges.
    gauge: MemGauge,
    topk: Option<Arc<TopKState>>,
    /// Set by the first failure; every worker stops at its next task.
    poison: AtomicBool,
    /// Per-worker task counters the watchdog watches.
    heartbeats: Box<[AtomicU64]>,
    /// The round-robin deal size: claims past it count as steals.
    fair_share: u64,
}

/// What one worker did.
struct WorkerReport {
    tasks: u64,
    /// Summed estimated cost (encoded subarray bytes) of its tasks.
    cost: u64,
}

/// One worker: claims tasks until the queue drains, the run is poisoned,
/// or it is cancelled.
fn work(shared: &Shared, w: usize, tx: &mpsc::SyncSender<Chunk>) -> Result<WorkerReport, CfpError> {
    if cfp_trace::events::capturing() {
        // Pin this worker's event track to a stable name before the
        // mine-phase span records its first event (which would
        // auto-register the track under a fallback name).
        cfp_trace::events::name_thread(&format!("worker-{w}"));
    }
    // Each worker's mining wall time accumulates into the mine phase
    // (span count = worker count).
    let _s = span(Phase::Mine);
    let mut scratch = Scratch::new(shared.gauge.clone());
    let (mut tasks, mut cost) = (0u64, 0u64);
    let stopped = || {
        shared.poison.load(Ordering::Relaxed)
            || shared.opts.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    };
    'claims: while let Some((start, len)) = shared.queue.claim() {
        for slot in start..start + len {
            if stopped() {
                break 'claims;
            }
            worker_tick(&shared.heartbeats[w], tasks >= shared.fair_share);
            if cfp_fault::should_fail("core.worker.stall") {
                // Injected hang: hold the heartbeat still until the
                // watchdog poisons the run, then exit.
                while !shared.poison.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                break 'claims;
            }
            let item = shared.queue.item(slot);
            tasks += 1;
            cost += shared.queue.cost(slot);
            if cfp_trace::events::capturing() {
                cfp_trace::events::record(cfp_trace::events::EventKind::TaskClaim {
                    item,
                    cost: shared.queue.cost(slot),
                    stolen: tasks > shared.fair_share,
                });
            }
            let mut sink = TaskSink { tx, item, buf: Vec::new() };
            let result = catch_unwind(AssertUnwindSafe(|| {
                if cfp_fault::should_fail("core.worker") {
                    panic!("injected worker fault (failpoint core.worker)");
                }
                // Condensed state is per task: a fresh local index each
                // item, reconciled globally by the emitter. Top-k shares
                // the one global heap.
                let mut mode = ModeCtx::new(shared.opts.output, &shared.topk);
                mine_one_item(
                    &shared.array,
                    item,
                    &shared.globals,
                    shared.min_support,
                    &mut sink,
                    &shared.opts,
                    &mut scratch,
                    &mut mode,
                )
            }));
            let failure = match result {
                Ok(Ok(())) => {
                    if sink.send(true) || shared.poison.load(Ordering::Relaxed) {
                        continue;
                    }
                    CfpError::WorkerPanic {
                        worker: w,
                        message: "result channel disconnected".to_string(),
                    }
                }
                Ok(Err(e)) => e,
                Err(payload) => {
                    if cfp_trace::enabled() {
                        cfp_trace::counters::CORE_WORKER_PANICS.inc();
                    }
                    CfpError::WorkerPanic { worker: w, message: panic_message(&*payload) }
                }
            };
            shared.poison.store(true, Ordering::Relaxed);
            return Err(failure);
        }
    }
    Ok(WorkerReport { tasks, cost })
}

/// Per-task worker bookkeeping: the watchdog heartbeat, plus the
/// scheduler's claim/steal counters when tracing is on. A claim past the
/// worker's round-robin share is a steal.
#[inline]
fn worker_tick(heartbeat: &AtomicU64, stolen: bool) {
    // The watchdog counts a worker as live while its heartbeat advances
    // between claimed tasks.
    heartbeat.fetch_add(1, Ordering::Relaxed);
    if cfp_trace::enabled() {
        cfp_trace::counters::CORE_WORKER_HEARTBEATS.inc();
        cfp_trace::counters::CORE_TASKS_CLAIMED.inc();
        if stolen {
            cfp_trace::counters::CORE_TASKS_STOLEN.inc();
        }
    }
}

/// Feeds worker chunks to the emitter until every worker has hung up, and
/// returns the run's first failure, if any: a failed progress hook (a
/// checkpoint commit), or a watchdog stall. With a `limit`, a window of
/// that length with neither a chunk nor a heartbeat tick from any worker
/// poisons the run.
fn receive(
    rx: &mpsc::Receiver<Chunk>,
    emitter: &mut OrderedEmitter<'_>,
    shared: &Shared,
    handles: &[std::thread::JoinHandle<Result<WorkerReport, CfpError>>],
    limit: Option<Duration>,
) -> Option<CfpError> {
    let beats =
        || -> Vec<u64> { shared.heartbeats.iter().map(|h| h.load(Ordering::Relaxed)).collect() };
    let mut last_beats = beats();
    let mut waited = Duration::ZERO;
    loop {
        let chunk = match limit {
            None => match rx.recv() {
                Ok(chunk) => chunk,
                Err(mpsc::RecvError) => return None,
            },
            Some(limit) => {
                let tick = (limit / 4).max(Duration::from_millis(5)).min(limit);
                match rx.recv_timeout(tick) {
                    Ok(chunk) => chunk,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return None,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        let now = beats();
                        if now != last_beats {
                            last_beats = now;
                            waited = Duration::ZERO;
                            continue;
                        }
                        waited += tick;
                        if waited < limit {
                            continue;
                        }
                        // Stall: no chunk, no heartbeat, a full window.
                        // Blame the first unfinished worker.
                        let stalled =
                            handles.iter().position(|h| !h.is_finished()).unwrap_or_default();
                        shared.poison.store(true, Ordering::Relaxed);
                        if cfp_trace::enabled() {
                            cfp_trace::counters::CORE_WORKER_STALLS.inc();
                        }
                        return Some(CfpError::WorkerTimeout {
                            worker: stalled,
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                }
            }
        };
        waited = Duration::ZERO;
        if let Err(e) = emitter.handle(chunk) {
            // A failed progress hook ends the run like a poisoned worker.
            shared.poison.store(true, Ordering::Relaxed);
            return Some(e);
        }
    }
}

/// Renders a caught panic payload as a diagnostic string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// `(itemset, support)` pairs in emission order.
type Batch = Vec<(Vec<Item>, u64)>;

/// Itemsets per chunk a task sends to the emitter.
const CHUNK: usize = 1024;

/// Chunks in flight between the workers and the emitter. Workers block
/// when the emitter falls this far behind, so a fast worker cannot pile
/// up output the sink has not taken yet.
const IN_FLIGHT: usize = 64;

/// A run of one task's itemsets; `last` marks the task's final chunk.
struct Chunk {
    item: u32,
    batch: Batch,
    last: bool,
}

/// Sends one task's itemsets to the emitter in chunks, so the task the
/// emitter is waiting for streams through instead of being held whole.
struct TaskSink<'a> {
    tx: &'a mpsc::SyncSender<Chunk>,
    item: u32,
    buf: Batch,
}

impl TaskSink<'_> {
    /// Sends the buffered itemsets; `false` when the emitter is gone.
    fn send(&mut self, last: bool) -> bool {
        let batch = std::mem::take(&mut self.buf);
        self.tx.send(Chunk { item: self.item, batch, last }).is_ok()
    }
}

impl ItemsetSink for TaskSink<'_> {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.buf.push((itemset.to_vec(), support));
        if self.buf.len() >= CHUNK {
            // A gone emitter is reported by the task's final send.
            self.send(false);
        }
    }
}

/// Global condensed-mode reconciliation carried by the ordered emitter.
///
/// Workers mine with *local* subsumption indexes, which can never reject
/// a true closed/maximal itemset (a local subsumer is itself accepted, so
/// subsumption is transitive) but can accept candidates whose subsumer
/// lives in another task's subtree. Replaying the per-item chunks in
/// descending item order — the emission order of one recursion — against
/// one global index removes those false accepts: any subsumer has a top
/// item ≥ the candidate's, so it is replayed (and indexed) no later than
/// the candidate itself.
struct Reconcile {
    index: SubsumeIndex,
    /// Closed mode: subsumption only counts at equal support.
    closed: bool,
}

/// One task's chunks, held until the emitter reaches it.
#[derive(Default)]
struct Pending {
    batch: Batch,
    /// The task's final chunk has arrived.
    done: bool,
}

/// Forwards worker chunks to the caller's sink in descending item order.
///
/// Chunks of the item at the head of that order are emitted as they
/// arrive; chunks of lower items wait until every higher item is out.
/// Each completed item is an exact watermark reported through
/// [`ItemsetSink::progress`]. A fired cancel token is honoured between
/// items — exactly where one recursion over the array polls it — so the
/// stream stops at the first watermark past the cancel.
struct OrderedEmitter<'a> {
    sink: &'a mut dyn ItemsetSink,
    /// Buffered chunks by item id.
    pending: Vec<Pending>,
    /// The head: the highest item not yet fully emitted (`first - 1` when
    /// done).
    next: i64,
    /// The lowest item mined.
    first: u32,
    /// Whether the head has been entered: cancellation is checked only
    /// before entering the next item.
    entered: bool,
    /// All first-level items, counting ones skipped on resume — progress
    /// notifications report *global* completed counts.
    total: u32,
    /// Items at or above this were emitted by the run being resumed: they
    /// replay into the reconcile index but reach neither the sink nor the
    /// progress hook.
    live_below: u32,
    reconcile: Option<Reconcile>,
    cancel: Option<cfp_fault::CancelToken>,
    /// A cancel stopped the stream; later chunks are dropped.
    stopped: bool,
    emitted: u64,
}

impl<'a> OrderedEmitter<'a> {
    /// Replays items `sched_max-1 … first` in order, emitting only items
    /// below `live_below`; on a resume, `live_below` sits below `total`
    /// because the higher items are already out (condensed modes still
    /// schedule them, so `sched_max` stays at `total` there).
    fn new(
        sink: &'a mut dyn ItemsetSink,
        total: u32,
        first: u32,
        sched_max: u32,
        live_below: u32,
        output: OutputMode,
        cancel: Option<cfp_fault::CancelToken>,
    ) -> Self {
        let reconcile = match output {
            OutputMode::Closed => Some(Reconcile { index: SubsumeIndex::default(), closed: true }),
            OutputMode::Maximal => {
                Some(Reconcile { index: SubsumeIndex::default(), closed: false })
            }
            OutputMode::All | OutputMode::TopK(_) => None,
        };
        OrderedEmitter {
            sink,
            pending: (0..sched_max).map(|_| Pending::default()).collect(),
            next: sched_max as i64 - 1,
            first,
            entered: false,
            total,
            live_below,
            reconcile,
            cancel,
            stopped: false,
            emitted: 0,
        }
    }

    /// Emits a batch; in condensed modes each candidate is first checked
    /// against (then inserted into) the global reconcile index, and only
    /// `live` items reach the sink — resumed items replay silently.
    fn emit_batch(&mut self, batch: Batch, live: bool) {
        match &mut self.reconcile {
            None => {
                for (itemset, support) in batch {
                    self.sink.emit(&itemset, support);
                    self.emitted += 1;
                }
            }
            Some(rec) => {
                for (itemset, support) in batch {
                    let want = if rec.closed { Some(support) } else { None };
                    if rec.index.subsumes(&itemset, want) {
                        if cfp_trace::enabled() {
                            if rec.closed {
                                cfp_trace::counters::CORE_CLOSED_PRUNED.inc();
                            } else {
                                cfp_trace::counters::CORE_MAXIMAL_PRUNED.inc();
                            }
                        }
                        continue;
                    }
                    rec.index.insert(&itemset, support);
                    if live {
                        self.sink.emit(&itemset, support);
                        self.emitted += 1;
                    }
                }
            }
        }
    }

    fn handle(&mut self, chunk: Chunk) -> Result<(), CfpError> {
        if self.stopped {
            return Ok(());
        }
        let slot = &mut self.pending[chunk.item as usize];
        if slot.batch.is_empty() {
            slot.batch = chunk.batch;
        } else {
            slot.batch.extend(chunk.batch);
        }
        slot.done = chunk.last;
        while self.next >= self.first as i64 {
            if !self.entered {
                if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                    self.stopped = true;
                    return Ok(());
                }
                self.entered = true;
            }
            let head = self.next as usize;
            let live = (head as u32) < self.live_below;
            let batch = std::mem::take(&mut self.pending[head].batch);
            self.emit_batch(batch, live);
            if !self.pending[head].done {
                break;
            }
            // Everything up to and including item `next` is now in the
            // sink: an exact watermark of total - next completed items.
            let done = (self.total as i64 - self.next) as u64;
            self.next -= 1;
            self.entered = false;
            if live {
                self.sink.progress(cfp_data::MineProgress::Items { done })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::miner::CollectSink;

    /// Collects itemsets and fires a cancel token at the first itemset
    /// that is exactly `[trigger]`.
    struct CancelAt {
        inner: CollectSink,
        trigger: Item,
        token: cfp_fault::CancelToken,
    }

    impl ItemsetSink for CancelAt {
        fn emit(&mut self, itemset: &[Item], support: u64) {
            if itemset == [self.trigger] {
                self.token.cancel();
            }
            self.inner.emit(itemset, support);
        }
    }

    /// Records each [`ItemsetSink::counted`] call: the itemsets emitted
    /// before it and the fingerprint of the count it was given.
    #[derive(Default)]
    struct CountWatch {
        emitted: u64,
        counted: Vec<(u64, String)>,
    }

    impl ItemsetSink for CountWatch {
        fn emit(&mut self, _itemset: &[Item], _support: u64) {
            self.emitted += 1;
        }

        fn counted(&mut self, recoder: &ItemRecoder) -> Result<(), CfpError> {
            self.counted.push((self.emitted, crate::ckpt::counts_fingerprint(recoder)));
            Ok(())
        }
    }

    /// Every run that streams into the caller's sink tells it the
    /// whole database's count exactly once, before its first itemset:
    /// the sequential and parallel miners, and the resumable spill rung,
    /// whose partitions count only their projections.
    #[test]
    fn a_streaming_run_reports_its_count_once_before_the_first_itemset() {
        use crate::{CfpGrowthMiner, ParallelCfpGrowthMiner, RecoveryPolicy, Supervisor};
        use cfp_data::rng::{Rng, StdRng};
        use cfp_data::Miner;
        let mut rng = StdRng::seed_from_u64(21);
        let mut db = TransactionDb::new();
        for _ in 0..300 {
            let row: Vec<Item> = (0..40).filter(|_| rng.gen_bool(0.2)).collect();
            db.push(&row);
        }
        let min_support = 20;
        let want = crate::ckpt::counts_fingerprint(&ItemRecoder::scan(&db, min_support));
        let check = |what: &str, sink: CountWatch| {
            assert!(sink.emitted > 0, "{what} emitted nothing");
            assert_eq!(sink.counted, [(0, want.clone())], "{what}");
        };
        let mut sink = CountWatch::default();
        CfpGrowthMiner::new().try_mine(&db, min_support, &mut sink).expect("sequential");
        check("sequential", sink);
        let mut sink = CountWatch::default();
        ParallelCfpGrowthMiner::new(2).try_mine(&db, min_support, &mut sink).expect("parallel");
        check("parallel", sink);
        let mut sink = CountWatch::default();
        let sup = Supervisor::new(RecoveryPolicy::Spill);
        sup.mine_out_of_core_resumable(&db, min_support, &mut sink, None).0.expect("spill");
        check("spill", sink);
    }

    /// A run that mines from item `first` up is finished once `first` is
    /// out: a cancel that fires while the emitter is on that last item
    /// must leave a complete run, not an interrupted one.
    #[test]
    fn a_cancel_on_the_first_mined_item_leaves_the_run_complete() {
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ]);
        let recoder = ItemRecoder::scan(&db, 2);
        let from_three = |sink: &mut dyn ItemsetSink, opts: &MineOpts| {
            let tree = CfpTree::from_db(&db, &recoder);
            let plan = Plan { threads: 1, worker_timeout: None };
            let (stats, sw) = (MineStats::default(), Stopwatch::start());
            convert_and_mine(&recoder, tree, 3, sink, stats, sw, plan, opts)
        };
        let mut whole = CollectSink::new();
        from_three(&mut whole, &MineOpts::default()).expect("uncancelled");
        let mined: Vec<Item> = (3..5).map(|i| recoder.original(i)).collect();
        assert!(!whole.itemsets.is_empty());
        for (set, _) in &whole.itemsets {
            assert!(set.iter().any(|it| mined.contains(it)), "{set:?} has no item from 3 up");
        }

        let token = cfp_fault::CancelToken::new();
        let opts = MineOpts { cancel: Some(token.clone()), ..Default::default() };
        let mut sink = CancelAt { inner: CollectSink::new(), trigger: recoder.original(3), token };
        let stats =
            from_three(&mut sink, &opts).expect("the last item was entered before the cancel");
        assert!(sink.token.is_cancelled(), "the trigger never fired");
        assert_eq!(sink.inner.itemsets, whole.itemsets);
        assert_eq!(stats.itemsets, whole.itemsets.len() as u64);
    }
}
