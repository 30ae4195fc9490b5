//! The CFP-growth mining algorithm: the conditional recursion and the
//! one-worker miner.
//!
//! CFP-growth is FP-growth with both phases running on compressed
//! structures. One invocation (one pass of the crate's mining driver):
//!
//! 1. **Scan** — count item supports, recode frequent items densely in
//!    descending support order ([`cfp_data::ItemRecoder`]).
//! 2. **Build** — insert every recoded transaction into a
//!    [`CfpTree`].
//! 3. **Convert** — transform the CFP-tree into a [`CfpArray`]
//!    (§3.5); tree and array coexist briefly, which is exactly the peak
//!    the paper describes, then the tree is dropped and its memory
//!    recycled.
//! 4. **Mine** — for each item, least frequent first: emit the itemset,
//!    count the conditional item frequencies of its pattern base, build a
//!    *conditional* CFP-tree from the weighted filtered prefix paths,
//!    convert it, recurse. The base is walked — by scanning the item's
//!    subarray and following parent chains — at most once. A dense array
//!    carries an item-pair table from its conversion, whose row for the
//!    item already holds the frequencies, so the base is walked only when
//!    some conditional item stays frequent. Any other array's one walk
//!    counts the frequencies and is recorded, and the tree build replays
//!    the recording.
//!
//! Conditional trees keep the global support order of items (see the
//! discussion in `cfp_fptree::growth`), and a conditional structure that
//! degenerates into a single path short-circuits into direct subset
//! enumeration. This module owns the recursion below a first-level item;
//! the driver owns everything above it.

use crate::driver::Plan;
use crate::spill::CondSpill;
use cfp_array::{convert, CfpArray};
use cfp_data::miner::TopKSink;
use cfp_data::{
    CfpError, Item, ItemRecoder, ItemsetSink, MineStats, Miner, OutputMode, TransactionDb,
};
use cfp_memman::{Arena, ArenaOptions, BudgetPool, Component};
use cfp_metrics::{HeapSize, MemGauge};
use cfp_tree::{CfpTree, CfpTreeConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Options threaded through the mine phase's conditional-tree recursion.
///
/// The defaults reproduce the classic behaviour exactly: conditional
/// trees are uncapped. The recovery ladder
/// ([`crate::supervisor::Supervisor`]) passes a shared [`BudgetPool`]
/// so that *every* arena of a run — the initial tree and all
/// conditional trees — answers to one limit.
#[derive(Clone, Debug, Default)]
pub struct MineOpts {
    /// Shared byte pool charged by the initial and conditional tree
    /// arenas. Exhaustion surfaces as [`CfpError::MemoryExhausted`].
    pub pool: Option<BudgetPool>,
    /// Mine out of core through spill files ([`CondSpill`]): the
    /// first-level CFP-array and every conditional array at or above the
    /// hook's threshold make a checksummed write, fsync and read round
    /// trip through a crash-safe file and are mined from one shared
    /// buffer. Arrays are unmetered charges in RAM and on disk alike, so
    /// the round trip never changes admission. Armed by the supervisor's
    /// spill placement; `None` keeps every structure in RAM (classic
    /// behaviour).
    pub cond_spill: Option<CondSpill>,
    /// Cooperative cancellation, polled by the workers at task boundaries
    /// and by the ordered emitter between first-level items. When it
    /// fires, mining stops at the next boundary with
    /// [`CfpError::Interrupted`]; everything emitted so far sits at an
    /// exact item watermark.
    pub cancel: Option<cfp_fault::CancelToken>,
    /// Resume support: the first `resume_skip` top-level items (in the
    /// descending mining order, i.e. items `n-1 … n-resume_skip`) were
    /// fully emitted by a previous run and are skipped without emitting
    /// anything. Progress notifications still report *global* completed
    /// counts, so a resumed run checkpoints seamlessly. Under a
    /// condensed [`output`](Self::output) mode the skipped items are
    /// re-mined *silently* — their itemsets rebuild the subsumption
    /// index without reaching the sink, so the resumed emission stream
    /// continues byte-exactly. `resume_skip` does not compose with
    /// [`OutputMode::TopK`].
    pub resume_skip: u64,
    /// Which itemsets this run reports (see [`OutputMode`]). The
    /// condensed modes run closure/maximality checks inside the
    /// recursion; `TopK` collects into a shared bounded heap and emits
    /// the winners, sorted, at the end of the run.
    pub output: OutputMode,
}

impl MineOpts {
    pub(crate) fn arena_options(&self, component: Component) -> ArenaOptions {
        ArenaOptions { pool: self.pool.clone(), component }
    }
}

/// Inverted index over accepted condensed itemsets, answering "is this
/// candidate contained in an already-accepted itemset?" — with equal
/// support for closed mode, support-agnostic for maximal mode. Itemsets
/// are stored and queried with *original* item ids sorted ascending,
/// exactly as they are emitted.
#[derive(Debug, Default)]
pub(crate) struct SubsumeIndex {
    entries: Vec<(Vec<Item>, u64)>,
    by_item: HashMap<Item, Vec<u32>>,
}

impl SubsumeIndex {
    /// Records an accepted itemset.
    pub(crate) fn insert(&mut self, set: &[Item], support: u64) {
        let id = self.entries.len() as u32;
        for &it in set {
            self.by_item.entry(it).or_default().push(id);
        }
        self.entries.push((set.to_vec(), support));
    }

    /// True when an indexed itemset contains every item of `set` (and,
    /// when `support` is given, has exactly that support). Candidates
    /// are checked before insertion and the enumeration tree visits
    /// each itemset once, so a hit is always a *proper* superset.
    pub(crate) fn subsumes(&self, set: &[Item], support: Option<u64>) -> bool {
        // Scan only the shortest posting list among the set's items.
        let mut best: Option<&Vec<u32>> = None;
        for it in set {
            match self.by_item.get(it) {
                None => return false,
                Some(list) => {
                    if best.is_none_or(|b| list.len() < b.len()) {
                        best = Some(list);
                    }
                }
            }
        }
        let Some(list) = best else {
            return false; // an empty candidate never occurs
        };
        list.iter().any(|&id| {
            let (entry, sup) = &self.entries[id as usize];
            entry.len() >= set.len()
                && support.is_none_or(|s| *sup == s)
                && is_subset_sorted(set, entry)
        })
    }
}

/// `small ⊆ big`, both sorted ascending.
fn is_subset_sorted(small: &[Item], big: &[Item]) -> bool {
    let mut it = big.iter();
    small.iter().all(|s| it.any(|b| b == s))
}

/// Shared state of a streaming top-k run: a [`TopKSink`] holding the best
/// `k` itemsets, plus a copy of its rising admission bound that workers
/// read without the lock. One instance is shared by every worker of a
/// run, so the retained set is the true global top-k regardless of
/// schedule.
#[derive(Debug)]
pub(crate) struct TopKState {
    bound: AtomicU64,
    heap: Mutex<TopKSink>,
}

impl TopKState {
    pub(crate) fn new(k: usize) -> Self {
        TopKState { bound: AtomicU64::new(0), heap: Mutex::new(TopKSink::new(k)) }
    }

    /// Support of the worst retained itemset once `k` are held, else 0.
    /// Any candidate *strictly* below the bound — and its whole subtree,
    /// since extensions never gain support — can be pruned. The bound
    /// only rises, so a stale read is merely conservative.
    pub(crate) fn bound(&self) -> u64 {
        self.bound.load(Ordering::Relaxed)
    }

    /// Offers a candidate to the heap, which evicts its worst entry when
    /// over `k`.
    pub(crate) fn offer(&self, set: &[Item], support: u64) {
        if support < self.bound() {
            return;
        }
        let mut heap = self.heap.lock().unwrap_or_else(|e| e.into_inner());
        heap.emit(set, support);
        self.bound.store(heap.bound(), Ordering::Relaxed);
    }

    /// The retained itemsets in the final emission order of a top-k run
    /// (see [`TopKSink::into_sorted`]).
    pub(crate) fn drain_sorted(&self) -> Vec<(Vec<Item>, u64)> {
        let mut heap = self.heap.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::replace(&mut *heap, TopKSink::new(0)).into_sorted()
    }
}

/// Per-task runtime state of the active [`OutputMode`]. The
/// closed/maximal indexes grow as a task's itemsets are accepted; the
/// top-k state is shared across all workers of a run.
#[derive(Debug)]
pub(crate) enum ModeCtx {
    /// Report every frequent itemset.
    All,
    /// Closure checking against an emitted-closed index.
    Closed(SubsumeIndex),
    /// Maximality pruning against an emitted-maximal index.
    Maximal(SubsumeIndex),
    /// Streaming top-k with a rising admission bound.
    TopK(Arc<TopKState>),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ModeKind {
    All,
    Closed,
    Maximal,
    TopK,
}

impl ModeCtx {
    /// Fresh per-task state for `output`. Top-k joins the run's shared
    /// heap `topk` — how the workers of a run cooperate on one global
    /// heap — or starts its own when there is none.
    pub(crate) fn new(output: OutputMode, topk: &Option<Arc<TopKState>>) -> Self {
        match output {
            OutputMode::All => ModeCtx::All,
            OutputMode::Closed => ModeCtx::Closed(SubsumeIndex::default()),
            OutputMode::Maximal => ModeCtx::Maximal(SubsumeIndex::default()),
            OutputMode::TopK(k) => {
                ModeCtx::TopK(topk.clone().unwrap_or_else(|| Arc::new(TopKState::new(k))))
            }
        }
    }

    fn kind(&self) -> ModeKind {
        match self {
            ModeCtx::All => ModeKind::All,
            ModeCtx::Closed(_) => ModeKind::Closed,
            ModeCtx::Maximal(_) => ModeKind::Maximal,
            ModeCtx::TopK(_) => ModeKind::TopK,
        }
    }
}

/// Emits a finished top-k run's retained itemsets into `sink` (highest
/// support first, ties lexicographic) and returns how many there were.
pub(crate) fn drain_topk(state: &TopKState, sink: &mut dyn ItemsetSink) -> u64 {
    let winners = state.drain_sorted();
    let n = winners.len() as u64;
    for (set, support) in winners {
        sink.emit(&set, support);
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_PATTERNS.inc();
        }
    }
    n
}

/// RAII attribution of a flat buffer — a CFP-array, or a recorded
/// pattern base — to the run's budget pool.
///
/// The charge is *unmetered* ([`BudgetPool::charge_external`]): it feeds
/// the per-component gauges of the memstat report but never affects
/// admission, so mining output stays byte-identical with attribution on.
/// Dropping the guard releases the charge on every path, including
/// errors.
pub(crate) struct ArrayCharge {
    pool: Option<BudgetPool>,
    component: Component,
    bytes: u64,
}

impl ArrayCharge {
    pub(crate) fn new(pool: Option<BudgetPool>, bytes: u64) -> Self {
        Self::with_component(pool, Component::CondArrays, bytes)
    }

    /// An external charge against an explicit component — spilled array
    /// data blocks go to [`Component::Spill`] this way.
    pub(crate) fn with_component(
        pool: Option<BudgetPool>,
        component: Component,
        bytes: u64,
    ) -> Self {
        if let Some(p) = &pool {
            p.charge_external(component, bytes);
        }
        ArrayCharge { pool, component, bytes }
    }
}

impl Drop for ArrayCharge {
    fn drop(&mut self) {
        if let Some(p) = &self.pool {
            p.release_external(self.component, self.bytes);
        }
    }
}

/// Charges a conditional array's bytes to the pool with the right
/// attribution: an in-RAM array is a `CondArrays` charge for its whole
/// heap footprint; a spilled (shared-buffer) array additionally
/// attributes its data block — which `heap_bytes` no longer counts — to
/// [`Component::Spill`].
pub(crate) fn charge_cond_array(
    pool: &Option<BudgetPool>,
    array: &CfpArray,
) -> (ArrayCharge, Option<ArrayCharge>) {
    let charge = ArrayCharge::new(pool.clone(), array.heap_bytes());
    let spill = array
        .is_shared()
        .then(|| ArrayCharge::with_component(pool.clone(), Component::Spill, array.data_bytes()));
    (charge, spill)
}

/// Per-worker reusable mine-phase state.
///
/// The first conditional tree's arena is kept after conversion,
/// [`Arena::reset`] wipes it (releasing its budget-pool reservation), and
/// the next conditional tree rebuilds inside it — so a worker touching
/// thousands of first-level items performs one heap allocation ramp-up
/// instead of one per item. Only one conditional tree is ever alive per
/// worker (`conditional` drops it before the recursion continues), so a
/// single slot suffices. The same holds for the recorded pattern base,
/// whose buffers every conditional reuses.
pub(crate) struct Scratch {
    /// The recycled arena (captured from the first conditional tree).
    arena: Option<Arena>,
    /// The pattern base the current conditional tree is built from.
    base: RecordedBase,
    /// The run's memory gauge, charged with the worker's conditional
    /// trees, arrays and recorded bases.
    gauge: MemGauge,
}

impl Scratch {
    /// A worker's empty scratch, charging `gauge`.
    pub(crate) fn new(gauge: MemGauge) -> Self {
        Scratch { arena: None, base: RecordedBase::default(), gauge }
    }
}

/// One walk of a conditional pattern base, recorded so that the tree
/// build replays it instead of walking the base again: every node's
/// prefix path, ascending, back to back, and per node the path's length
/// and the node's count.
///
/// It never outgrows the database rows that contain the base's suffix,
/// which the caller already holds: each node stands for at least one
/// such row, its path holds only items of that row besides the suffix,
/// and a node's 12 bytes of length and count are no more than the row's
/// offset and suffix item.
#[derive(Default)]
struct RecordedBase {
    items: Vec<u32>,
    lens: Vec<u32>,
    counts: Vec<u64>,
}

impl RecordedBase {
    /// Walks `item`'s pattern base in `array` once and records it in
    /// place of the previous one, adding each node's count to the
    /// frequency of every item on its path.
    fn record(&mut self, array: &CfpArray, item: u32, freq: &mut [u64]) {
        self.items.clear();
        self.lens.clear();
        self.counts.clear();
        for node in array.subarray(item) {
            let start = self.items.len();
            array.append_prefix_path(item, &node, &mut self.items);
            for &it in &self.items[start..] {
                freq[it as usize] += node.count;
            }
            self.lens.push((self.items.len() - start) as u32);
            self.counts.push(node.count);
        }
    }

    /// Nodes in the recorded base.
    fn nodes(&self) -> usize {
        self.lens.len()
    }

    /// Bytes of the recorded walk.
    fn bytes(&self) -> u64 {
        (4 * self.items.len() + 4 * self.lens.len() + 8 * self.counts.len()) as u64
    }

    /// The recorded `(prefix path, count)` pairs, in subarray order.
    fn paths(&self) -> impl Iterator<Item = (&[u32], u64)> + '_ {
        let mut start = 0;
        self.lens.iter().zip(&self.counts).map(move |(&len, &count)| {
            let path = &self.items[start..start + len as usize];
            start += len as usize;
            (path, count)
        })
    }
}

/// A recorded base's bytes, held against the run's gauge and, as an
/// unmetered [`Component::Scratch`] charge, the run's pool until dropped.
struct HeldBase {
    gauge: MemGauge,
    bytes: u64,
    _charge: ArrayCharge,
}

impl HeldBase {
    fn new(ctx: &Ctx<'_>) -> Self {
        let bytes = ctx.scratch.base.bytes();
        ctx.scratch.gauge.alloc(bytes);
        let charge = ArrayCharge::with_component(ctx.opts.pool.clone(), Component::Scratch, bytes);
        HeldBase { gauge: ctx.scratch.gauge.clone(), bytes, _charge: charge }
    }
}

impl Drop for HeldBase {
    fn drop(&mut self) {
        self.gauge.free(self.bytes);
    }
}

/// Rewrites the phase of a memory-exhaustion error to `"mine"`:
/// conditional-tree construction goes through the same build entry
/// points as the initial tree, but failures there happen mid-mining.
fn mine_phase(e: CfpError) -> CfpError {
    match e {
        CfpError::MemoryExhausted { requested, footprint, limit, .. } => {
            CfpError::MemoryExhausted { phase: "mine", requested, footprint, limit }
        }
        other => other,
    }
}

/// The CFP-growth miner: the mining driver (count, build, convert, mine)
/// with one mine-phase worker — [`ParallelCfpGrowthMiner`](crate::ParallelCfpGrowthMiner)
/// runs the same driver with more. A byte cap on the run is a
/// [`MineOpts::pool`] passed to [`try_mine_with`](Self::try_mine_with).
#[derive(Clone, Copy, Debug, Default)]
pub struct CfpGrowthMiner;

impl CfpGrowthMiner {
    /// A CFP-growth miner (it has no options).
    pub fn new() -> Self {
        CfpGrowthMiner
    }

    /// How the driver's back half runs for this miner: one worker, no
    /// watchdog.
    pub(crate) fn plan(&self) -> Plan {
        Plan { threads: 1, worker_timeout: None }
    }
}

/// Runs the scan and build phases: returns the recoder and the initial
/// CFP-tree. Exposed separately so benchmarks can time phases.
pub fn build_tree(db: &TransactionDb, min_support: u64) -> (ItemRecoder, CfpTree) {
    try_build_tree(db, min_support, None).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`build_tree`]: the tree arena charges a [`BudgetPool`] of
/// `budget` bytes when given, and exhaustion comes back as
/// [`CfpError::MemoryExhausted`] with the phase set to `"build"`.
pub fn try_build_tree(
    db: &TransactionDb,
    min_support: u64,
    budget: Option<u64>,
) -> Result<(ItemRecoder, CfpTree), CfpError> {
    try_build_tree_with(
        db,
        min_support,
        ArenaOptions { pool: budget.map(BudgetPool::new), component: Component::BuildTree },
    )
}

/// [`try_build_tree`] with full [`ArenaOptions`]: the initial tree can
/// draw from a shared [`BudgetPool`].
pub fn try_build_tree_with(
    db: &TransactionDb,
    min_support: u64,
    opts: ArenaOptions,
) -> Result<(ItemRecoder, CfpTree), CfpError> {
    let recoder = ItemRecoder::scan(db, min_support);
    let tree = CfpTree::try_from_db_with(db, &recoder, opts)?;
    Ok((recoder, tree))
}

struct Ctx<'a> {
    sink: &'a mut dyn ItemsetSink,
    min_support: u64,
    opts: &'a MineOpts,
    scratch: &'a mut Scratch,
    mode: &'a mut ModeCtx,
    suffix: Vec<Item>,
    emit_buf: Vec<Item>,
    path_buf: Vec<u32>,
    itemsets: u64,
}

impl<'a> Ctx<'a> {
    fn new(
        sink: &'a mut dyn ItemsetSink,
        min_support: u64,
        opts: &'a MineOpts,
        scratch: &'a mut Scratch,
        mode: &'a mut ModeCtx,
    ) -> Self {
        Ctx {
            sink,
            min_support,
            opts,
            scratch,
            mode,
            suffix: Vec::new(),
            emit_buf: Vec::new(),
            path_buf: Vec::new(),
            itemsets: 0,
        }
    }

    /// Sorts the current suffix into `emit_buf` — the candidate itemset
    /// in emission form.
    fn build_candidate(&mut self) {
        self.emit_buf.clear();
        self.emit_buf.extend_from_slice(&self.suffix);
        self.emit_buf.sort_unstable();
    }

    /// All/top-k emission of the current suffix: the classic path sends
    /// it to the sink; a top-k run offers it to the shared heap instead
    /// (winners reach the sink sorted, at the end of the run).
    fn emit(&mut self, support: u64) {
        self.build_candidate();
        if let ModeCtx::TopK(state) = &*self.mode {
            state.offer(&self.emit_buf, support);
            return;
        }
        self.emit_candidate(support);
    }

    /// Forwards the already-built candidate in `emit_buf` to the sink.
    fn emit_candidate(&mut self, support: u64) {
        self.sink.emit(&self.emit_buf, support);
        self.itemsets += 1;
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_PATTERNS.inc();
        }
    }

    /// Is the candidate in `emit_buf` contained in an accepted itemset?
    /// (`Some(s)` additionally requires equal support — the closed-mode
    /// query; `None` is the maximal-mode query.)
    fn candidate_subsumed(&self, support: Option<u64>) -> bool {
        match &*self.mode {
            ModeCtx::Closed(ix) | ModeCtx::Maximal(ix) => ix.subsumes(&self.emit_buf, support),
            _ => false,
        }
    }

    /// Records the candidate in `emit_buf` as accepted.
    fn insert_candidate(&mut self, support: u64) {
        match &mut *self.mode {
            ModeCtx::Closed(ix) | ModeCtx::Maximal(ix) => ix.insert(&self.emit_buf, support),
            _ => {}
        }
    }

    /// Current top-k admission bound (0 outside top-k mode).
    fn topk_bound(&self) -> u64 {
        match &*self.mode {
            ModeCtx::TopK(state) => state.bound(),
            _ => 0,
        }
    }
}

impl Miner for CfpGrowthMiner {
    fn name(&self) -> &'static str {
        "cfp-growth"
    }

    fn mine(&self, db: &TransactionDb, min_support: u64, sink: &mut dyn ItemsetSink) -> MineStats {
        self.try_mine(db, min_support, sink).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_mine(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
    ) -> Result<MineStats, CfpError> {
        self.try_mine_with(db, min_support, sink, &MineOpts::default())
    }
}

impl CfpGrowthMiner {
    /// [`Miner::try_mine`] with explicit [`MineOpts`]: a shared budget
    /// pool covering the initial *and* every conditional tree,
    /// cancellation, resume, and the output mode. `try_mine` delegates
    /// here with the defaults.
    pub fn try_mine_with(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        opts: &MineOpts,
    ) -> Result<MineStats, CfpError> {
        crate::driver::run(db, &crate::driver::count(db, min_support), sink, self.plan(), opts)
    }
}

/// Mines the complete subtree of one first-level item: emits `{item}`
/// and recurses through its conditional structures. This is the unit of
/// work the driver's workers claim
/// (each first-level item is independent of the others). `scratch`
/// carries the worker's recycled arena and the run's memory gauge.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mine_one_item(
    array: &CfpArray,
    item: u32,
    globals: &[Item],
    min_support: u64,
    sink: &mut dyn ItemsetSink,
    opts: &MineOpts,
    scratch: &mut Scratch,
    mode: &mut ModeCtx,
) -> Result<(), CfpError> {
    let mut ctx = Ctx::new(sink, min_support, opts, scratch, mode);
    let task_t0 = cfp_trace::hist::maybe_now();
    ctx.suffix.push(globals[item as usize]);
    mine_node(array, item, globals, array.item_support(item), &mut ctx)?;
    ctx.suffix.pop();
    cfp_trace::hist::record_since(&cfp_trace::hist::CORE_MINE_TASK_NANOS, task_t0);
    if cfp_trace::enabled() {
        cfp_trace::counters::CORE_ITEMS_MINED.inc();
    }
    Ok(())
}

/// Mines every frequent itemset of the conditional `array` combined with
/// the suffix in `ctx`; `globals` maps local ids to original items. An
/// array that is one path is enumerated directly.
fn mine_array(array: &CfpArray, globals: &[Item], ctx: &mut Ctx<'_>) -> Result<(), CfpError> {
    if let Some(path) = single_path(array) {
        if cfp_trace::enabled() {
            cfp_trace::span::single_path();
        }
        enumerate_single_path(&path, globals, ctx);
        return Ok(());
    }
    for item in (0..array.num_items() as u32).rev() {
        let support = array.item_support(item);
        if support < ctx.min_support {
            continue;
        }
        ctx.suffix.push(globals[item as usize]);
        let node = mine_node(array, item, globals, support, ctx);
        ctx.suffix.pop();
        node?;
    }
    Ok(())
}

/// Processes one node of the enumeration tree — the suffix, whose last
/// item `item` is already pushed, with support `support` — under the
/// active output mode: runs the mode's pruning checks, decides
/// emission, and recurses into the conditional structure.
fn mine_node(
    array: &CfpArray,
    item: u32,
    globals: &[Item],
    support: u64,
    ctx: &mut Ctx<'_>,
) -> Result<(), CfpError> {
    match ctx.mode.kind() {
        ModeKind::All | ModeKind::TopK => {
            if ctx.mode.kind() == ModeKind::TopK && support < ctx.topk_bound() {
                // Extensions never gain support: the whole subtree sits
                // below the admission bound.
                if cfp_trace::enabled() {
                    cfp_trace::counters::CORE_TOPK_PRUNED.inc();
                }
                return Ok(());
            }
            ctx.emit(support);
            if item > 0 {
                if let Some(cond) = conditional(array, item, globals, support, ctx)? {
                    recurse_into(cond, ctx)?;
                }
                record_rec_exit(item, globals);
            }
        }
        ModeKind::Closed => {
            ctx.build_candidate();
            if ctx.candidate_subsumed(Some(support)) {
                // An accepted closed itemset contains the candidate at
                // equal support, so it also contains — at equal support
                // — every extension in this subtree: nothing here is
                // closed (the FPclose subtree prune).
                if cfp_trace::enabled() {
                    cfp_trace::counters::CORE_CLOSED_PRUNED.inc();
                }
                return Ok(());
            }
            let cond =
                if item > 0 { conditional(array, item, globals, support, ctx)? } else { None };
            if cond.as_ref().is_some_and(|c| c.support_preserved) {
                // LCM prefix-preservation test over the conditional
                // database: some conditional item occurs in every
                // occurrence of the candidate, so a proper superset has
                // equal support — not closed. The subtree still holds
                // closed itemsets; recursion continues.
                if cfp_trace::enabled() {
                    cfp_trace::counters::CORE_CLOSED_PRUNED.inc();
                }
            } else {
                ctx.build_candidate();
                ctx.emit_candidate(support);
                ctx.insert_candidate(support);
            }
            if item > 0 {
                if let Some(cond) = cond {
                    recurse_into(cond, ctx)?;
                }
                record_rec_exit(item, globals);
            }
        }
        ModeKind::Maximal => {
            let cond =
                if item > 0 { conditional(array, item, globals, support, ctx)? } else { None };
            match cond {
                None => {
                    // Empty tail: no frequent extension exists below the
                    // candidate, so it is maximal unless an accepted
                    // maximal itemset already contains it.
                    ctx.build_candidate();
                    if ctx.candidate_subsumed(None) {
                        if cfp_trace::enabled() {
                            cfp_trace::counters::CORE_MAXIMAL_PRUNED.inc();
                        }
                    } else {
                        ctx.emit_candidate(support);
                        ctx.insert_candidate(support);
                    }
                    if item > 0 {
                        record_rec_exit(item, globals);
                    }
                }
                Some(cond) => {
                    // HUTMFI lookahead: when candidate ∪ tail is inside
                    // an accepted maximal itemset, every itemset in this
                    // subtree is a proper subset of it — prune.
                    ctx.emit_buf.clear();
                    ctx.emit_buf.extend_from_slice(&ctx.suffix);
                    ctx.emit_buf.extend_from_slice(&cond.globals);
                    ctx.emit_buf.sort_unstable();
                    if ctx.candidate_subsumed(None) {
                        if cfp_trace::enabled() {
                            cfp_trace::counters::CORE_MAXIMAL_PRUNED.inc();
                        }
                    } else {
                        recurse_into(cond, ctx)?;
                    }
                    record_rec_exit(item, globals);
                }
            }
        }
    }
    Ok(())
}

/// Charges, mines, and releases a conditional structure.
fn recurse_into(cond: Cond, ctx: &mut Ctx<'_>) -> Result<(), CfpError> {
    ctx.scratch.gauge.alloc(cond.array.heap_bytes());
    let _charges = charge_cond_array(&ctx.opts.pool, &cond.array);
    ctx.scratch.gauge.checkpoint();
    mine_array(&cond.array, &cond.globals, ctx)?;
    ctx.scratch.gauge.free(cond.array.heap_bytes());
    Ok(())
}

/// The matching exit of the RecEnter recorded inside [`conditional`].
fn record_rec_exit(item: u32, globals: &[Item]) {
    if cfp_trace::events::capturing() {
        cfp_trace::events::record(cfp_trace::events::EventKind::RecExit {
            item: globals[item as usize],
        });
    }
}

/// A built conditional structure, plus what closed mode learned from
/// the frequency pass over the conditional pattern base.
struct Cond {
    array: CfpArray,
    globals: Vec<Item>,
    /// Some conditional item appears in *every* occurrence of the
    /// candidate (`freq == support`): a proper superset has equal
    /// support, so the candidate is not closed.
    support_preserved: bool,
}

/// Builds the conditional CFP-array of `item`: conditional pattern base →
/// conditional CFP-tree → conversion. Returns `None` when no conditional
/// item stays frequent. `support` is the candidate's support (the item's
/// support within `array`), used only for the closed-mode verdict. The
/// base's parent chains are walked at most once.
fn conditional(
    array: &CfpArray,
    item: u32,
    globals: &[Item],
    support: u64,
    ctx: &mut Ctx<'_>,
) -> Result<Option<Cond>, CfpError> {
    let traced = cfp_trace::enabled();
    // Pass A: conditional frequencies along all prefix paths. A dense
    // array's pair-table row holds them already; otherwise the one walk
    // counts them and is recorded for pass B.
    let mut walked: Vec<u64>;
    let (freq, held) = match array.pair_row(item) {
        Some(row) => {
            if traced {
                cfp_trace::counters::CORE_PAIR_ROWS.inc();
            }
            (row, None)
        }
        None => {
            walked = vec![0u64; item as usize];
            ctx.scratch.base.record(array, item, &mut walked);
            (&walked[..], Some(HeldBase::new(ctx)))
        }
    };
    let support_preserved = freq.contains(&support);
    if traced {
        let pattern_base = match held {
            Some(_) => ctx.scratch.base.nodes(),
            None => array.subarray_len(item),
        };
        // Depth = suffix length: how many conditional levels we are down.
        cfp_trace::span::conditional_tree(ctx.suffix.len(), pattern_base);
        if cfp_trace::events::capturing() {
            // The matching RecExit is recorded by the caller once the
            // conditional subtree is fully mined (or immediately, when
            // this returns None), so the enter/exit pair brackets the
            // whole recursion.
            cfp_trace::events::record(cfp_trace::events::EventKind::RecEnter {
                item: globals[item as usize],
                depth: ctx.suffix.len().min(u16::MAX as usize) as u16,
                pattern_base: pattern_base as u64,
            });
        }
    }

    let mut remap = vec![u32::MAX; item as usize];
    let mut cond_globals = Vec::new();
    for (old, &f) in freq.iter().enumerate() {
        if f >= ctx.min_support {
            remap[old] = cond_globals.len() as u32;
            cond_globals.push(globals[old]);
        }
    }
    if cond_globals.is_empty() {
        return Ok(None);
    }

    // Pass B: insert the filtered weighted paths into a conditional tree,
    // replaying the recorded walk — or, when a pair-table row gave the
    // frequencies, walking the base for the first and only time. That
    // walk streams rather than records: a dense base kept in memory
    // would cost megabytes (3.9 MB on connect-like at 80%).
    // Conditional arenas share the run's budget pool (when one is set);
    // exhaustion surfaces with the "mine" phase.
    // A worker rebuilds inside its long-lived arena instead of allocating
    // a fresh one per conditional tree.
    let mut cond_tree = match ctx.scratch.arena.take() {
        Some(arena) => CfpTree::try_with_arena(cond_globals.len(), CfpTreeConfig::default(), arena),
        None => CfpTree::try_with_options(
            cond_globals.len(),
            CfpTreeConfig::default(),
            ctx.opts.arena_options(Component::CondTrees),
        ),
    }
    .map_err(mine_phase)?;
    let mut filtered: Vec<u32> = Vec::new();
    let mut insert = |path: &[u32], count: u64| -> Result<(), CfpError> {
        filtered.clear();
        filtered.extend(
            path.iter().filter(|&&it| remap[it as usize] != u32::MAX).map(|&it| remap[it as usize]),
        );
        if filtered.is_empty() {
            return Ok(());
        }
        let weight = u32::try_from(count).expect("count exceeds u32");
        cond_tree.try_insert(&filtered, weight).map_err(|e| mine_phase(CfpError::from(e)))
    };
    if held.is_some() {
        for (path, count) in ctx.scratch.base.paths() {
            insert(path, count)?;
        }
    } else {
        let path = &mut ctx.path_buf;
        for node in array.subarray(item) {
            array.prefix_path(item, &node, path);
            insert(path, node.count)?;
        }
    }

    if traced {
        cfp_trace::hist::CORE_COND_TREE_BYTES.record(cond_tree.arena_used());
    }
    ctx.scratch.gauge.alloc(cond_tree.heap_bytes());
    drop(held);
    let cond_array = convert(&cond_tree);
    ctx.scratch.gauge.free(cond_tree.heap_bytes());
    let mut arena = cond_tree.into_arena();
    arena.reset();
    ctx.scratch.arena = Some(arena);
    // Out-of-core hook: an oversized conditional array round-trips
    // through a spill file and comes back as a shared view. The array is
    // an unmetered charge either way, so admission does not change. The
    // checksum on the file proves the round trip intact; mining a view
    // is byte-identical to mining the owned original, whose pair table
    // the view keeps.
    let cond_array = match &ctx.opts.cond_spill {
        Some(cs) if cond_array.data_bytes() >= cs.threshold => cs.round_trip(cond_array)?,
        _ => cond_array,
    };
    Ok(Some(Cond { array: cond_array, globals: cond_globals, support_preserved }))
}

/// If the array represents a single downward path (every item has exactly
/// one node, chained by parent links), returns its `(item, count)` pairs
/// from the top.
fn single_path(array: &CfpArray) -> Option<Vec<(u32, u64)>> {
    let n = array.num_items() as u32;
    let mut path = Vec::with_capacity(n as usize);
    let mut expected_parent: Option<u32> = None;
    for item in 0..n {
        let mut it = array.subarray(item);
        let node = it.next()?;
        if it.next().is_some() {
            return None;
        }
        let parent = array.parent_of(item, &node).map(|(p, _)| p);
        if parent != expected_parent {
            return None;
        }
        path.push((item, node.count));
        expected_parent = Some(item);
    }
    Some(path)
}

/// Processes a single-path structure directly, without recursing. In
/// all mode this emits every non-empty subset of the path combined with
/// the current suffix (a subset's support is its deepest element's
/// count); the other modes exploit the path shape:
///
/// - **top-k** skips a whole deepest-block when its uniform support sits
///   below the admission bound;
/// - **closed** emits only full prefixes whose next-deeper count
///   strictly drops — any other subset keeps its support when a missing
///   shallower (or the equal-count deeper) item is added — each still
///   subject to the cross-branch subsumption check;
/// - **maximal** looks ahead to the unique candidate, suffix ∪ whole
///   path, and checks it against the emitted-maximal index.
fn enumerate_single_path(path: &[(u32, u64)], globals: &[Item], ctx: &mut Ctx<'_>) {
    fn rec_prefix(
        path: &[(u32, u64)],
        globals: &[Item],
        deepest: usize,
        i: usize,
        support: u64,
        ctx: &mut Ctx<'_>,
    ) {
        if i == deepest {
            return;
        }
        let (item, _) = path[i];
        ctx.suffix.push(globals[item as usize]);
        ctx.emit(support);
        rec_prefix(path, globals, deepest, i + 1, support, ctx);
        ctx.suffix.pop();
        rec_prefix(path, globals, deepest, i + 1, support, ctx);
    }

    match ctx.mode.kind() {
        ModeKind::All | ModeKind::TopK => {
            let topk = ctx.mode.kind() == ModeKind::TopK;
            for deepest in 0..path.len() {
                let (item, count) = path[deepest];
                if topk && count < ctx.topk_bound() {
                    // Every subset of this block has support `count`.
                    if cfp_trace::enabled() {
                        cfp_trace::counters::CORE_TOPK_PRUNED.inc();
                    }
                    continue;
                }
                ctx.suffix.push(globals[item as usize]);
                ctx.emit(count);
                rec_prefix(path, globals, deepest, 0, count, ctx);
                ctx.suffix.pop();
            }
        }
        ModeKind::Closed => {
            for deepest in 0..path.len() {
                let count = path[deepest].1;
                if path.get(deepest + 1).is_some_and(|&(_, c)| c == count) {
                    continue; // the next-deeper extension preserves support
                }
                ctx.emit_buf.clear();
                ctx.emit_buf.extend_from_slice(&ctx.suffix);
                ctx.emit_buf.extend(path[..=deepest].iter().map(|&(it, _)| globals[it as usize]));
                ctx.emit_buf.sort_unstable();
                if ctx.candidate_subsumed(Some(count)) {
                    if cfp_trace::enabled() {
                        cfp_trace::counters::CORE_CLOSED_PRUNED.inc();
                    }
                } else {
                    ctx.emit_candidate(count);
                    ctx.insert_candidate(count);
                }
            }
        }
        ModeKind::Maximal => {
            let Some(&(_, count)) = path.last() else {
                return;
            };
            ctx.emit_buf.clear();
            ctx.emit_buf.extend_from_slice(&ctx.suffix);
            ctx.emit_buf.extend(path.iter().map(|&(it, _)| globals[it as usize]));
            ctx.emit_buf.sort_unstable();
            if ctx.candidate_subsumed(None) {
                if cfp_trace::enabled() {
                    cfp_trace::counters::CORE_MAXIMAL_PRUNED.inc();
                }
            } else {
                ctx.emit_candidate(count);
                ctx.insert_candidate(count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::miner::{CollectSink, CountingSink};
    use cfp_fptree::FpGrowthMiner;

    fn mine_collect(db: &TransactionDb, minsup: u64) -> Vec<(Vec<Item>, u64)> {
        let mut sink = CollectSink::new();
        CfpGrowthMiner::new().mine(db, minsup, &mut sink);
        sink.into_sorted()
    }

    /// Pool-capped mining: the run's byte cap is its [`MineOpts::pool`].
    fn try_mine_capped(
        db: &TransactionDb,
        minsup: u64,
        budget: u64,
        sink: &mut dyn ItemsetSink,
    ) -> Result<MineStats, CfpError> {
        let opts = MineOpts { pool: Some(BudgetPool::new(budget)), ..Default::default() };
        CfpGrowthMiner::new().try_mine_with(db, minsup, sink, &opts)
    }

    /// A sink that requests cancellation once `after` top-level items
    /// have completed — the in-process analogue of SIGTERM.
    struct CancellingSink {
        inner: CollectSink,
        cancel: cfp_fault::CancelToken,
        after: u64,
        watermark: u64,
    }

    impl CancellingSink {
        fn new(cancel: &cfp_fault::CancelToken, after: u64) -> Self {
            CancellingSink {
                inner: CollectSink::new(),
                cancel: cancel.clone(),
                after,
                watermark: 0,
            }
        }
    }

    impl ItemsetSink for CancellingSink {
        fn emit(&mut self, itemset: &[Item], support: u64) {
            self.inner.emit(itemset, support);
        }
        fn progress(&mut self, p: cfp_data::MineProgress<'_>) -> Result<(), CfpError> {
            if let cfp_data::MineProgress::Items { done } = p {
                self.watermark = done;
                if done >= self.after {
                    self.cancel.cancel();
                }
            }
            Ok(())
        }
    }

    fn fp_collect(db: &TransactionDb, minsup: u64) -> Vec<(Vec<Item>, u64)> {
        let mut sink = CollectSink::new();
        FpGrowthMiner::new().mine(db, minsup, &mut sink);
        sink.into_sorted()
    }

    #[test]
    fn shared_cond_arrays_charge_the_spill_component_externally() {
        use cfp_data::spill::SpillDir;
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![1, 2, 4],
            vec![1, 2],
            vec![1, 3],
        ]);
        let (_, tree) = try_build_tree(&db, 2, None).unwrap();
        let array = convert(&tree);
        drop(tree);
        let parent = std::env::temp_dir().join(format!("cfp-growth-spill-{}", std::process::id()));
        let dir = std::sync::Arc::new(SpillDir::create(&parent).unwrap());
        let view =
            crate::spill::CondSpill::new(std::sync::Arc::clone(&dir), 1).round_trip(array).unwrap();
        assert!(view.is_shared());

        let pool = BudgetPool::new(1 << 20);
        let charges = charge_cond_array(&Some(pool.clone()), &view);
        let snap = pool.snapshot();
        let spill_row =
            snap.components.iter().find(|(name, _, _)| *name == "spill").expect("spill row");
        assert_eq!(spill_row.1, view.data_bytes(), "the shared data block is a spill charge");
        assert_eq!(
            snap.components_total(),
            snap.accounted(),
            "Σ components must stay equal to used + external with spill charges live"
        );
        drop(charges);
        let snap = pool.snapshot();
        assert_eq!(snap.external_used, 0, "dropping the guards releases every charge");
        assert_eq!(snap.components_total(), snap.accounted());
        drop(dir);
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn cond_spill_round_trip_keeps_mining_byte_identical() {
        use cfp_data::spill::SpillDir;
        // A denser db so several conditional arrays exist; threshold 1
        // forces every one of them through the spill file path.
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut db = TransactionDb::new();
        for _ in 0..80 {
            let row: Vec<Item> = (0..10).filter(|_| rng.gen_bool(0.5)).collect();
            db.push(&row);
        }
        let baseline = mine_collect(&db, 3);

        let parent =
            std::env::temp_dir().join(format!("cfp-growth-condspill-{}", std::process::id()));
        let dir = std::sync::Arc::new(SpillDir::create(&parent).unwrap());
        let opts = MineOpts {
            cond_spill: Some(crate::spill::CondSpill::new(std::sync::Arc::clone(&dir), 1)),
            ..Default::default()
        };
        let mut sink = CollectSink::new();
        CfpGrowthMiner::new().try_mine_with(&db, 3, &mut sink, &opts).unwrap();
        assert_eq!(sink.into_sorted(), baseline, "spilled conditionals must not change output");
        assert_eq!(
            std::fs::read_dir(dir.path()).unwrap().count(),
            0,
            "every conditional round-trip file is removed after its load"
        );
        drop(dir);
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn textbook_example_matches_fp_growth() {
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
        let got = mine_collect(&db, 2);
        assert_eq!(got, fp_collect(&db, 2));
        assert!(got.contains(&(vec![1, 2, 5], 2)));
    }

    #[test]
    fn empty_database_and_high_minsup() {
        assert!(mine_collect(&TransactionDb::new(), 1).is_empty());
        let db = TransactionDb::from_rows(&[vec![1u32, 2]]);
        assert!(mine_collect(&db, 2).is_empty());
    }

    #[test]
    fn pure_single_path_database() {
        let db = TransactionDb::from_rows(&vec![vec![3u32, 5, 9]; 4]);
        let got = mine_collect(&db, 2);
        assert_eq!(got.len(), 7);
        assert!(got.iter().all(|(_, s)| *s == 4));
    }

    #[test]
    fn randomized_equivalence_with_fp_growth() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(31337);
        for trial in 0..40 {
            let n_items = rng.gen_range(1..=12);
            let n_txn = rng.gen_range(1..=60);
            let mut db = TransactionDb::new();
            for _ in 0..n_txn {
                let t: Vec<Item> = (0..n_items)
                    .filter(|_| rng.gen_bool(0.4))
                    .map(|i| i as Item * 7 + 3) // non-dense original ids
                    .collect();
                db.push(&t);
            }
            let minsup = rng.gen_range(1..=5);
            assert_eq!(
                mine_collect(&db, minsup),
                fp_collect(&db, minsup),
                "trial {trial} minsup {minsup}"
            );
        }
    }

    #[test]
    fn stats_track_memory_and_phases() {
        let db =
            TransactionDb::from_rows(&[vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![2, 3, 4]]);
        let mut sink = CountingSink::new();
        let stats = CfpGrowthMiner::new().mine(&db, 1, &mut sink);
        assert_eq!(stats.itemsets, sink.count);
        assert!(stats.peak_bytes > 0);
        assert!(stats.tree_nodes > 0);
        assert!(stats.avg_bytes > 0);
        assert!(stats.avg_bytes <= stats.peak_bytes);
    }

    #[test]
    fn tiny_budget_fails_structured_and_uncapped_retry_succeeds() {
        let db =
            TransactionDb::from_rows(&[vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![2, 3, 4]]);
        let mut sink = CountingSink::new();
        let err = try_mine_capped(&db, 1, 8, &mut sink).expect_err("8 bytes cannot hold the tree");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("build"), "{err}");
        // The failure is recoverable in-process: retry without the cap.
        let mut sink = CountingSink::new();
        let stats = CfpGrowthMiner::new().try_mine(&db, 1, &mut sink).expect("uncapped mine");
        assert_eq!(stats.itemsets, sink.count);
        assert!(sink.count > 0);
    }

    #[test]
    fn generous_budget_mines_identically() {
        let db =
            TransactionDb::from_rows(&[vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![2, 3, 4]]);
        let mut sink = CollectSink::new();
        try_mine_capped(&db, 1, 1 << 20, &mut sink).expect("1 MiB is plenty");
        assert_eq!(sink.into_sorted(), mine_collect(&db, 1));
    }

    #[test]
    fn exhausted_pool_fails_structured_in_the_mine_phase() {
        // An uncapped initial build followed by mining under a pool too
        // small for even a conditional tree's root slot: the failure must
        // be a structured MemoryExhausted naming the mine phase, not a
        // panic (the conditional recursion is fallible end to end).
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 3],
        ]);
        let (recoder, tree) = try_build_tree(&db, 1, None).expect("uncapped build");
        let array = convert(&tree);
        drop(tree);
        let globals: Vec<Item> =
            (0..recoder.num_items() as u32).map(|i| recoder.original(i)).collect();
        let opts = MineOpts { pool: Some(BudgetPool::new(4)), ..Default::default() };
        let mut sink = CountingSink::new();
        let last = recoder.num_items() as u32 - 1;
        let err = mine_one_item(
            &array,
            last,
            &globals,
            1,
            &mut sink,
            &opts,
            &mut Scratch::new(MemGauge::new()),
            &mut ModeCtx::All,
        )
        .expect_err("a 4-byte pool cannot hold a conditional tree root");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("mine"), "{err}");
    }

    #[test]
    fn cancel_and_resume_split_the_emission_stream_exactly() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut db = TransactionDb::new();
        for _ in 0..60 {
            let t: Vec<Item> = (0..12).filter(|_| rng.gen_bool(0.5)).collect();
            db.push(&t);
        }
        let miner = CfpGrowthMiner::new();
        let mut full = CollectSink::new();
        miner.try_mine(&db, 3, &mut full).unwrap();

        for after in [1u64, 3, 7] {
            let cancel = cfp_fault::CancelToken::new();
            let mut first = CancellingSink::new(&cancel, after);
            let opts = MineOpts { cancel: Some(cancel), ..Default::default() };
            let err = miner.try_mine_with(&db, 3, &mut first, &opts).expect_err("cancelled");
            assert_eq!(err.exit_code(), 8, "{err}");
            assert_eq!(first.watermark, after, "stops at the first boundary past the trigger");

            let opts = MineOpts { resume_skip: first.watermark, ..Default::default() };
            let mut second = CollectSink::new();
            miner.try_mine_with(&db, 3, &mut second, &opts).unwrap();

            let mut joined = first.inner.itemsets;
            joined.extend(second.itemsets);
            assert_eq!(
                joined, full.itemsets,
                "pre-cancel + post-resume emission must equal the uninterrupted run (after={after})"
            );
        }
    }

    /// A first-level array that is one path is mined item by item like any
    /// other, so it has a watermark after every item: a cancel at the first
    /// one interrupts the run, and a resume from it completes the stream.
    #[test]
    fn single_path_input_stops_and_resumes_at_item_watermarks() {
        // Rows `1`, `1 2`, …, `1 2 3 4 5 6`: one path, item 6 least frequent.
        let rows: Vec<Vec<Item>> = (1..=6).map(|n| (1..=n).collect()).collect();
        let db = TransactionDb::from_rows(&rows);
        let (_, tree) = try_build_tree(&db, 1, None).unwrap();
        assert!(single_path(&convert(&tree)).is_some(), "the first-level array must be one path");
        drop(tree);

        let miner = CfpGrowthMiner::new();
        let mut full = CollectSink::new();
        miner.try_mine(&db, 1, &mut full).unwrap();
        assert_eq!(full.itemsets.len(), 63);
        // Item by item, least frequent first: each itemset's largest item
        // never rises along the stream.
        let tops: Vec<Item> = full.itemsets.iter().map(|(set, _)| *set.last().unwrap()).collect();
        assert!(tops.windows(2).all(|w| w[0] >= w[1]), "not grouped by item: {tops:?}");
        for threads in [2, 4] {
            let mut par = CollectSink::new();
            crate::ParallelCfpGrowthMiner::new(threads).mine(&db, 1, &mut par);
            assert_eq!(par.itemsets, full.itemsets, "{threads} threads reordered the output");
        }

        let cancel = cfp_fault::CancelToken::new();
        let mut first = CancellingSink::new(&cancel, 1);
        let opts = MineOpts { cancel: Some(cancel), ..Default::default() };
        let err = miner.try_mine_with(&db, 1, &mut first, &opts).expect_err("cancelled");
        assert!(matches!(err, CfpError::Interrupted), "{err}");
        assert_eq!(first.watermark, 1);
        // The first item's subtree: every subset holding item 6.
        assert_eq!(first.inner.itemsets.len(), 32);
        assert!(first
            .inner
            .itemsets
            .iter()
            .all(|(set, support)| set.contains(&6) && *support == 1));

        let opts = MineOpts { resume_skip: first.watermark, ..Default::default() };
        let mut second = CollectSink::new();
        miner.try_mine_with(&db, 1, &mut second, &opts).unwrap();
        let mut joined = first.inner.itemsets;
        joined.extend(second.itemsets);
        assert_eq!(joined, full.itemsets, "pre-cancel + resumed stream must equal the full one");
    }

    #[test]
    fn deep_recursion_on_dense_block() {
        // A dense block: every transaction holds most of 14 items, so
        // conditional trees nest deeply.
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut db = TransactionDb::new();
        for _ in 0..50 {
            let t: Vec<Item> = (0..14).filter(|_| rng.gen_bool(0.8)).collect();
            db.push(&t);
        }
        let got = mine_collect(&db, 10);
        assert_eq!(got, fp_collect(&db, 10));
        assert!(!got.is_empty());
    }

    #[test]
    fn every_thread_count_emits_in_the_order_of_one_recursion() {
        // The reference is one recursion over the whole first-level
        // array, items descending. On this dense block the least
        // frequent item's subtree alone spans several emitter chunks.
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut db = TransactionDb::new();
        for _ in 0..60 {
            let t: Vec<Item> = (0..14).filter(|_| rng.gen_bool(0.8)).collect();
            db.push(&t);
        }
        let (recoder, tree) = try_build_tree(&db, 8, None).unwrap();
        let array = convert(&tree);
        drop(tree);
        let globals: Vec<Item> =
            (0..recoder.num_items() as u32).map(|i| recoder.original(i)).collect();
        let mut reference = CollectSink::new();
        let (opts, mut mode) = (MineOpts::default(), ModeCtx::All);
        let mut scratch = Scratch::new(MemGauge::new());
        let mut ctx = Ctx::new(&mut reference, 8, &opts, &mut scratch, &mut mode);
        mine_array(&array, &globals, &mut ctx).unwrap();
        let last = recoder.original(recoder.num_items() as u32 - 1);
        let in_last = reference.itemsets.iter().filter(|(set, _)| set.contains(&last)).count();
        assert!(in_last > 2 * 1024, "the last item's subtree must span chunks: {in_last}");

        for threads in [1, 2, 8] {
            let mut got = CollectSink::new();
            crate::ParallelCfpGrowthMiner::new(threads).mine(&db, 8, &mut got);
            assert!(got.itemsets == reference.itemsets, "{threads} thread(s) reordered the output");
        }
    }
}
