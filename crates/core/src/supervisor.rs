//! The run supervisor: graceful degradation under memory pressure.
//!
//! [`Supervisor::mine`] wraps a mining run in an escalation ladder that
//! turns [`CfpError::MemoryExhausted`] (and watchdog timeouts) into
//! completed, *exact* runs wherever possible. The database is counted
//! once, before the first attempt, and every attempt and rung starts from
//! that count. Every attempt runs under a fresh [`BudgetPool`] of the
//! budget, shared by all of its arenas, and fails as soon as the pool
//! refuses an allocation. The rungs, in order, each attempted at most once
//! per run:
//!
//! 1. **degrade** — downshift to one mine-phase worker (one conditional
//!    tree live instead of `threads`). Skipped when the run had one
//!    worker already, and when the pool refused the build phase (the tree
//!    is built on the calling thread before any worker starts): either
//!    way it would repeat the failed attempt exactly.
//! 2. **partition** or **spill** — partitioned mining: split the recoded
//!    items into ranges ([`cfp_data::partition`]) and mine each range's
//!    projection under a fresh pool of the budget, only the itemsets
//!    whose maximal item is in the range. Each partition is one pass over
//!    the caller's database that inserts the range's rows straight into
//!    its tree; no projection is copied. Under a budget each range is cut
//!    to fit before it is built: the pass of the partition before it
//!    estimates the candidate ranges' trees and counts their projected
//!    supports ([`Sizer`]). A range that still exhausts the budget is
//!    halved and requeued; a single-item range that fails ends the run,
//!    and the rung's report names it. Both policies run this one range
//!    loop and differ only in where the arrays live: under
//!    [`RecoveryPolicy::Spill`] every partition's CFP-array, and every
//!    conditional array above a quarter of the budget, makes a
//!    checksummed write, fsync and read round trip through a crash-safe
//!    spill file ([`CondSpill`]) and is mined from one shared buffer.
//!    Arrays are unmetered in both placements, so the round trip never
//!    changes admission: both policies cut the same partitions, reach
//!    the same pool peaks and emit the same stream, and a disk fault ends
//!    a spill run with [`CfpError::Spill`] (exit 7).
//!
//! A transient failure (an injected allocation fault in any phase, a
//! worker panic, a watchdog stall) is recovered by the next rung that
//! runs, rung 1 included.
//!
//! Output is buffered per attempt and flushed to the caller's sink only
//! when an attempt succeeds, so the caller never sees a partial result
//! stream mixed into a complete one. Every rung emits a
//! [`Phase::Recover`] span and a [`RungReport`]; the collected
//! [`RecoveryReport`] writes itself ([`RecoveryReport::to_json`]) as the
//! `degradation` section of the `cfp-profile/5` run report and the
//! `cfp-blackbox/4` post-mortem.
//!
//! Exactness of rung 2 follows Grahne & Zhu's range projection argument,
//! spelled out in [`cfp_data::partition`]: every frequent itemset has
//! exactly one maximal item under the global support-descending recode
//! order, the projection for that item's range preserves the itemset's
//! full global support, and ranking the range's items after the context
//! items and mining from the first range item up emits exactly the
//! itemsets whose maximal item is in the range, so each itemset comes out
//! of exactly one range. The on-disk detour is a checksummed identity
//! transformation of each array.

use crate::driver::{self, Counted, Plan};
use crate::growth::{MineOpts, SubsumeIndex};
use crate::spill::CondSpill;
use cfp_data::miner::{CollectSink, TopKSink};
use cfp_data::partition::{self, ranges_by_mass, Candidate, Sizer, Walk};
use cfp_data::spill::SpillDir;
use cfp_data::{
    CfpError, Item, ItemRecoder, ItemsetSink, MineProgress, MineStats, OutputMode, TransactionDb,
};
use cfp_memman::{ArenaOptions, BudgetPool, Component};
use cfp_metrics::Stopwatch;
use cfp_trace::hist::{maybe_now, record_since};
use cfp_trace::{span, Json, Phase};
use cfp_tree::{CfpTree, CfpTreeConfig};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// How far the supervisor may escalate when a run fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryPolicy {
    /// No recovery: the first failure is final (classic behaviour).
    Off,
    /// Rung 1 only: downshift to one mine-phase worker. A run with one
    /// worker, or whose build phase the pool refused, has no rung to try,
    /// so it fails like [`Off`](Self::Off).
    Degrade,
    /// Rungs 1–2: degrade, then partitioned mining in RAM.
    Partition,
    /// Rungs 1–2 with rung 2's arrays on disk: every partition's array
    /// (and every conditional array above a quarter of the budget) makes
    /// a checksummed write, fsync and read round trip through a
    /// crash-safe spill file and is mined from one shared buffer. The
    /// partitions, pool peaks and stream are those of
    /// [`Partition`](Self::Partition); a disk fault fails the run with
    /// [`CfpError::Spill`] (exit 7).
    Spill,
}

impl RecoveryPolicy {
    /// The policy's CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Off => "off",
            RecoveryPolicy::Degrade => "degrade",
            RecoveryPolicy::Partition => "partition",
            RecoveryPolicy::Spill => "spill",
        }
    }
}

impl std::str::FromStr for RecoveryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(RecoveryPolicy::Off),
            "degrade" => Ok(RecoveryPolicy::Degrade),
            "partition" => Ok(RecoveryPolicy::Partition),
            "spill" => Ok(RecoveryPolicy::Spill),
            other => {
                Err(format!("unknown recovery policy '{other}' (off|degrade|partition|spill)"))
            }
        }
    }
}

/// One rung's outcome within a recovery ladder.
#[derive(Clone, Debug)]
pub struct RungReport {
    /// Rung name: `"degrade"`, `"partition"`, or `"spill"`.
    pub rung: &'static str,
    /// Whether this rung completed the run.
    pub succeeded: bool,
    /// Number of partitions mined (rung 2 only, else 0).
    pub partitions: u64,
    /// The rung's failure, when it failed.
    pub error: Option<String>,
}

/// What the supervisor did to finish (or fail) a run.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// The configured escalation policy.
    pub policy: String,
    /// The rungs attempted, in order. Empty for a healthy first attempt.
    pub rungs: Vec<RungReport>,
    /// Whether a rung (rather than the first attempt) produced the result.
    pub recovered: bool,
    /// Partitions in the final successful configuration (0 = monolithic).
    pub final_partitions: u64,
    /// Per-partition pool peaks of rung 2, in mining order.
    pub partition_peaks: Vec<u64>,
}

impl RecoveryReport {
    /// The `degradation` section of the run report and the post-mortem:
    /// the policy, the rungs in ladder order (`error` is `null` unless
    /// the rung failed), whether a rung recovered the run, and the final
    /// partition count.
    pub fn to_json(&self) -> Json {
        let rungs = self
            .rungs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("rung".into(), Json::str(r.rung)),
                    ("succeeded".into(), Json::Bool(r.succeeded)),
                    ("partitions".into(), Json::u64(r.partitions)),
                    ("error".into(), r.error.as_deref().map_or(Json::Null, Json::str)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("policy".into(), Json::str(&self.policy)),
            ("rungs".into(), Json::Arr(rungs)),
            ("recovered".into(), Json::Bool(self.recovered)),
            ("final_partitions".into(), Json::u64(self.final_partitions)),
        ])
    }
}

/// Supervises a mining run with an escalation ladder (see the module
/// docs). Construct with the same knobs as
/// [`ParallelCfpGrowthMiner`](crate::ParallelCfpGrowthMiner) plus a
/// [`RecoveryPolicy`].
#[derive(Clone, Debug)]
pub struct Supervisor {
    /// Worker threads for the first attempt.
    pub threads: usize,
    /// Byte budget for the whole run; `None` disables the memory rungs'
    /// reason to exist but the ladder still handles worker failures.
    pub mem_budget: Option<u64>,
    /// The escalation policy.
    pub policy: RecoveryPolicy,
    /// Watchdog limit for every attempt (see
    /// [`ParallelCfpGrowthMiner::worker_timeout`](crate::ParallelCfpGrowthMiner::worker_timeout)).
    pub worker_timeout: Option<Duration>,
    /// Parent directory for the out-of-core rung's spill files; the system
    /// temp directory when unset. A uniquely-named subdirectory is
    /// created per run and removed on every exit path.
    pub spill_dir: Option<PathBuf>,
    /// Cooperative cancellation, polled at every rung and partition
    /// boundary and threaded into each rung's miner. A fired token stops
    /// the ladder with [`CfpError::Interrupted`] — recovery rungs never
    /// escalate past a cancellation, because the interruption is not a
    /// failure the ladder could repair.
    pub cancel: Option<cfp_fault::CancelToken>,
    /// What every rung emits (all, closed, maximal, or top-k). Rung 2
    /// stays exact in condensed modes by mining ranges in descending item
    /// order and reconciling each partition's locally-condensed output
    /// against a global subsumption index; for top-k it mines everything
    /// and selects the winners at the end.
    pub output: OutputMode,
}

impl Supervisor {
    /// A supervisor with the given policy and defaults for the rest.
    pub fn new(policy: RecoveryPolicy) -> Self {
        Supervisor {
            threads: 1,
            mem_budget: None,
            policy,
            worker_timeout: None,
            spill_dir: None,
            cancel: None,
            output: OutputMode::default(),
        }
    }

    /// Whether the run's cancel token (if any) has fired.
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// The driver on `threads` workers, under the run's watchdog.
    fn plan(&self, threads: usize) -> Plan {
        Plan { threads, worker_timeout: self.worker_timeout }
    }

    /// Mines `db`, escalating through the recovery ladder on failure.
    ///
    /// Returns the mining result *and* the recovery report — the report
    /// survives failure so callers can still explain what was attempted.
    /// The caller's sink receives either the complete result of the
    /// winning attempt or nothing.
    pub fn mine(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
    ) -> (Result<MineStats, CfpError>, RecoveryReport) {
        let mut report =
            RecoveryReport { policy: self.policy.name().to_string(), ..Default::default() };

        // One count serves the first attempt and every rung.
        let counted = driver::count(db, min_support);
        // First attempt: the classic run, output buffered.
        let (first, buf) = self.attempt(db, &counted, self.threads);
        let mut last_err = match first {
            Ok(stats) => {
                flush(buf, sink);
                return (Ok(stats), report);
            }
            Err(e) => e,
        };
        // Rung 1 downshifts to one worker: one conditional tree live at a
        // time instead of `threads`.
        if self.policy >= RecoveryPolicy::Degrade && self.threads > 1 && degrade_may_help(&last_err)
        {
            if self.cancelled() || matches!(last_err, CfpError::Interrupted) {
                return (Err(CfpError::Interrupted), report);
            }
            let _s = span(Phase::Recover);
            rung_started(cfp_trace::Rung::Degrade);
            let (r, buf) = self.attempt(db, &counted, 1);
            report.rungs.push(RungReport {
                rung: "degrade",
                succeeded: r.is_ok(),
                partitions: 0,
                error: r.as_ref().err().map(|e| e.to_string()),
            });
            match r {
                Ok(stats) => {
                    report.recovered = true;
                    flush(buf, sink);
                    return (Ok(stats), report);
                }
                Err(e) => last_err = e,
            }
        }
        if self.policy < RecoveryPolicy::Partition {
            return (Err(last_err), report);
        }
        if self.cancelled() || matches!(last_err, CfpError::Interrupted) {
            return (Err(CfpError::Interrupted), report);
        }

        // Rung 2.
        let on_disk = self.policy == RecoveryPolicy::Spill;
        let mut buf = CollectSink::new();
        let (r, report) = {
            let _s = span(Phase::Recover);
            self.partitioned(db, &counted, on_disk, &mut buf, None, report)
        };
        if r.is_ok() {
            flush(buf, sink);
        }
        (r, report)
    }

    /// One in-memory attempt: the whole run from the run's count on
    /// `threads` workers, its output buffered, under a fresh pool of the
    /// run's budget.
    fn attempt(
        &self,
        db: &TransactionDb,
        counted: &Counted,
        threads: usize,
    ) -> (Result<MineStats, CfpError>, CollectSink) {
        let opts = MineOpts {
            pool: self.mem_budget.map(BudgetPool::new),
            cancel: self.cancel.clone(),
            output: self.output,
            ..Default::default()
        };
        let mut buf = CollectSink::new();
        let r = driver::run(db, counted, &mut buf, self.plan(threads), &opts);
        (r, buf)
    }

    /// Runs the out-of-core rung directly, without first climbing the
    /// in-memory rungs — for callers that already know the dataset must
    /// go through disk (and for differential testing of the rung in
    /// isolation). Output, exactness, and reporting match a
    /// [`mine`](Supervisor::mine) run whose ladder ends in the spill
    /// rung; the caller's sink receives the complete result or nothing.
    pub fn mine_out_of_core(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
    ) -> (Result<MineStats, CfpError>, RecoveryReport) {
        let mut buf = CollectSink::new();
        let (r, report) = self.mine_out_of_core_resumable(db, min_support, &mut buf, None);
        if r.is_ok() {
            flush(buf, sink);
        }
        (r, report)
    }

    /// The checkpointable spin on
    /// [`mine_out_of_core`](Supervisor::mine_out_of_core): output is
    /// **streamed** to `sink` partition by partition instead of buffered
    /// for the whole run, and after each completed partition the sink
    /// receives a [`MineProgress::SpillParts`] notification carrying the
    /// global completed-partition count and the not-yet-mined `(lo, hi)`
    /// ranges in processing order — exactly the state a checkpoint
    /// manifest needs. A partition that fails and is halved never reaches
    /// the sink (its buffered output is discarded before the halves
    /// re-mine), so the stream always sits at a partition watermark.
    ///
    /// `resume` replays a previous run's final notification: `done`
    /// completed partitions (counted into subsequent notifications, never
    /// re-mined) and the surviving ranges to mine, in order. Because each
    /// range is rebuilt from the database, no spill files need to have
    /// survived the crash. Passing `None` starts a fresh run.
    pub fn mine_out_of_core_resumable(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        resume: Option<(u64, Vec<(u32, u32)>)>,
    ) -> (Result<MineStats, CfpError>, RecoveryReport) {
        // Resuming mid-run would start the reconcile index (or top-k
        // heap) without the already-emitted partitions' contributions;
        // the CLI restricts checkpointing of condensed/top-k runs to
        // `--recover=off` so this path is unreachable from it.
        assert!(
            resume.is_none() || self.output == OutputMode::All,
            "resumable out-of-core mining supports only OutputMode::All, not {}",
            self.output
        );
        let report = RecoveryReport {
            policy: RecoveryPolicy::Spill.name().to_string(),
            ..Default::default()
        };
        let _s = span(Phase::Recover);
        let counted = driver::count(db, min_support);
        self.partitioned(db, &counted, true, sink, resume, report)
    }

    /// Rung 2 (see the module docs) from the run's count, recorded into
    /// `report`: the range loop, fresh or from a `resume` point, with the
    /// arrays on disk when `on_disk`. The caller holds the rung's
    /// [`Phase::Recover`] span.
    fn partitioned(
        &self,
        db: &TransactionDb,
        counted: &Counted,
        on_disk: bool,
        sink: &mut dyn ItemsetSink,
        resume: Option<(u64, Vec<(u32, u32)>)>,
        mut report: RecoveryReport,
    ) -> (Result<MineStats, CfpError>, RecoveryReport) {
        let (rung, trace_rung) = if on_disk {
            ("spill", cfp_trace::Rung::Spill)
        } else {
            ("partition", cfp_trace::Rung::Partition)
        };
        rung_started(trace_rung);
        let mut tally = Tally::default();
        let r = self.range_loop(db, counted, on_disk, sink, resume, &mut tally);
        let error = r.as_ref().err().map(|e| match tally.unhalvable {
            Some((lo, hi)) => format!("range [{lo}, {hi}) of one item cannot be halved: {e}"),
            None => e.to_string(),
        });
        report.rungs.push(RungReport {
            rung,
            succeeded: r.is_ok(),
            partitions: tally.mined,
            error,
        });
        if r.is_ok() {
            report.recovered = true;
            report.final_partitions = tally.mined;
            report.partition_peaks = tally.peaks;
        }
        (r, report)
    }

    /// The range loop. From the whole database's count, which `sink`
    /// hears first ([`ItemsetSink::counted`]), each step pops a range and
    /// makes one pass over `db` ([`build_pass`]) that inserts the range's
    /// projected rows into a tree under a fresh pool of the budget. The
    /// tree then goes through the driver's back half into a buffer of its
    /// own. The partition's recoder ranks the range's items after its
    /// context items and the driver mines from the first range item up,
    /// so the partition emits exactly the itemsets whose maximal item is
    /// in the range. The ranking needs the projected supports before the
    /// pass: the sizer that cut the range counted them; a range no sizer
    /// measured (a halved range, the first range of a resume, every range
    /// of a run without a budget) gets a counting pass of its own first.
    /// A range that exhausts the pool drops its buffer and goes back on
    /// the front of the queue as two halves, in mining order. A completed
    /// partition cuts the next range from the uncut rest when that is all
    /// the queue holds ([`fit`]), is reconciled (condensed output) or
    /// offered to the top-k heap, emitted to `sink`, and followed by a
    /// [`MineProgress::SpillParts`] watermark, which therefore already
    /// lists the cut.
    ///
    /// Condensed output mines the ranges in descending item order: the
    /// order one recursion emits in, so every cross-partition subsumer is
    /// indexed before the candidates it subsumes (a superset's maximal
    /// item is ≥ the candidate's). Subsumption inside a partition is
    /// already exact, since the projection preserves global supports.
    /// Top-k mines every partition in full and drains the winners after
    /// the last one.
    fn range_loop(
        &self,
        db: &TransactionDb,
        (recoder, count_time): &Counted,
        on_disk: bool,
        sink: &mut dyn ItemsetSink,
        resume: Option<(u64, Vec<(u32, u32)>)>,
        tally: &mut Tally,
    ) -> Result<MineStats, CfpError> {
        let mut stats = MineStats { scan_time: *count_time, ..Default::default() };
        sink.counted(recoder)?;
        let n = recoder.num_items();
        if n == 0 {
            // Nothing frequent: the empty result is exact. (A failure
            // that led here was necessarily transient — e.g. injected.)
            return Ok(stats);
        }
        // The placement. On disk, one conditional-spill hook over the
        // run's spill directory: the driver round-trips every partition's
        // array through it, and the recursion every conditional array
        // above a quarter of the budget (none without a budget). The
        // directory goes with the last clone of the hook, on every exit
        // path.
        let cond_spill = if on_disk {
            let parent = self.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            let dir = SpillDir::create(&parent).map_err(|e| CfpError::Spill {
                op: "write",
                path: parent.display().to_string(),
                message: e.to_string(),
            })?;
            let threshold = self.mem_budget.map_or(u64::MAX, |b| (b / 4).max(1));
            Some(CondSpill::new(Arc::new(dir), threshold))
        } else {
            None
        };
        let condensed = self.output.is_condensed();
        let walk = if condensed { Walk::Down } else { Walk::Up };
        let (part_output, mut topk) = match self.output {
            OutputMode::TopK(k) => (OutputMode::All, Some(TopKSink::new(k))),
            other => (other, None),
        };
        let mut index = condensed.then(SubsumeIndex::default);
        let done0 = resume.as_ref().map_or(0, |(done, _)| *done);
        if let Some((_, remaining)) = &resume {
            assert!(
                remaining.iter().all(|&(lo, hi)| lo < hi && hi as usize <= n),
                "resumed ranges {remaining:?} must lie in the {n}-item universe"
            );
        }
        // `sized`: the front range's projected supports, when a sizer
        // measured it.
        let (mut queue, mut sized): (VecDeque<(u32, u32)>, Option<SizedRange>) = match resume {
            Some((_, remaining)) => (remaining.into(), None),
            None => {
                let sw = Stopwatch::start();
                let (ranges, sized) = self.first_ranges(db, recoder, walk);
                stats.scan_time += sw.elapsed();
                (ranges.into(), sized)
            }
        };

        let traced = cfp_trace::enabled();
        if traced {
            cfp_trace::counters::CORE_PARTITION_ITEMS.record(n as u64);
        }
        while let Some(range) = queue.pop_front() {
            if self.cancelled() {
                return Err(CfpError::Interrupted);
            }
            let (lo, hi) = range;
            let t0 = maybe_now();
            let mut sw = Stopwatch::start();
            let mut part_stats = MineStats::default();
            let supports = match sized.take() {
                Some((r, supports)) if r == range => supports,
                _ => {
                    let _s = span(Phase::Count);
                    partition::projected_supports(db, recoder, range)
                }
            };
            let (local, to_local) = rank_partition(recoder, range, supports);
            part_stats.scan_time = sw.lap();
            // When only the uncut rest follows, this partition's pass also
            // sizes the ranges the next partition could cut from it.
            let mut sizer = match queue.front() {
                Some(&rest) if self.mem_budget.is_some() && queue.len() == 1 => {
                    (rest.1 - rest.0 > 1).then(|| Sizer::new(recoder, rest, walk))
                }
                _ => None,
            };
            let pool = self.mem_budget.map(BudgetPool::new);
            let opts = MineOpts {
                pool: pool.clone(),
                cond_spill: cond_spill.clone(),
                cancel: self.cancel.clone(),
                output: part_output,
                ..Default::default()
            };
            let tree = {
                let _s = span(Phase::Build);
                let arena = opts.arena_options(Component::BuildTree);
                build_pass(db, recoder, range, &to_local, local.num_items(), sizer.as_mut(), arena)
            };
            part_stats.build_time = sw.lap();
            // Every range item is frequent in the projection (its rows
            // are all there), so ranked last the range's items are the
            // partition's last `hi - lo` items.
            let first = local.num_items() as u32 - (hi - lo);
            let mut part = CollectSink::new();
            let r = tree.and_then(|tree| {
                let plan = self.plan(1);
                driver::convert_and_mine(
                    &local, tree, first, &mut part, part_stats, sw, plan, &opts,
                )
            });
            record_since(&cfp_trace::hist::CORE_SPILL_MINE_NANOS, t0);
            let s = match r {
                Ok(s) => s,
                Err(CfpError::MemoryExhausted { .. }) if hi - lo > 1 => {
                    let mid = lo + (hi - lo) / 2;
                    let (first, second) = match walk {
                        Walk::Up => ((lo, mid), (mid, hi)),
                        Walk::Down => ((mid, hi), (lo, mid)),
                    };
                    queue.push_front(second);
                    queue.push_front(first);
                    tally.retries += 1;
                    if traced {
                        cfp_trace::counters::CORE_PARTITION_RETRIES.inc();
                    }
                    continue;
                }
                Err(e) => {
                    if matches!(e, CfpError::MemoryExhausted { .. }) {
                        tally.unhalvable = Some(range);
                    }
                    return Err(e);
                }
            };
            tally.mined += 1;
            let peak = pool.map_or(s.peak_bytes, |p| p.peak());
            tally.peaks.push(peak);
            stats.scan_time += s.scan_time;
            stats.build_time += s.build_time;
            stats.convert_time += s.convert_time;
            stats.mine_time += s.mine_time;
            stats.tree_nodes += s.tree_nodes;
            stats.peak_bytes = stats.peak_bytes.max(s.peak_bytes);
            stats.avg_bytes = stats.avg_bytes.max(s.avg_bytes);
            if let (Some(sizer), Some(budget)) = (sizer, self.mem_budget) {
                let rest = queue.pop_front().expect("a sized rest is queued");
                let candidates = sizer.candidates(recoder);
                let next = fit(&candidates, budget, (peak, s.tree_nodes.max(1)), u64::MAX);
                sized = sizer.supports(recoder, next).map(|supports| (next, supports));
                queue.extend(cut(rest, next));
            }

            if let Some(index) = &mut index {
                let closed = self.output == OutputMode::Closed;
                part.itemsets.retain(|(set, support)| {
                    if index.subsumes(set, closed.then_some(*support)) {
                        return false;
                    }
                    index.insert(set, *support);
                    true
                });
            }
            if let Some(heap) = &mut topk {
                for (set, support) in part.itemsets.drain(..) {
                    heap.emit(&set, support);
                }
            }
            stats.itemsets += part.itemsets.len() as u64;
            flush(part, sink);
            if traced {
                cfp_trace::counters::CORE_SPILL_PARTS_DONE.inc();
                let queued: u32 = queue.iter().map(|&(lo, hi)| hi - lo).sum();
                cfp_trace::counters::CORE_PARTITION_ITEMS_DONE.record((n as u32 - queued) as u64);
            }
            let remaining: Vec<(u32, u32)> = queue.iter().copied().collect();
            sink.progress(MineProgress::SpillParts {
                done: done0 + tally.mined,
                remaining: &remaining,
            })?;
        }
        if let Some(heap) = topk {
            let winners = CollectSink { itemsets: heap.into_sorted() };
            stats.itemsets += winners.itemsets.len() as u64;
            flush(winners, sink);
        }
        if traced {
            cfp_trace::counters::CORE_PARTITIONS.record(tally.mined);
        }
        Ok(stats)
    }

    /// The ranges a fresh rung-2 run starts from, in mining order, and
    /// the first range's projected supports when a sizer measured it.
    /// Without a budget nothing is sized and nothing is read: two ranges
    /// of equal support mass. With one, a first range cut by one sizing
    /// pass over the database, under the `count` span, at
    /// [`FIRST_BYTES_PER_NODE`] and at most half the support mass, so the
    /// run still has at least two partitions, then the uncut rest.
    fn first_ranges(
        &self,
        db: &TransactionDb,
        recoder: &ItemRecoder,
        walk: Walk,
    ) -> (Vec<(u32, u32)>, Option<SizedRange>) {
        let n = recoder.num_items() as u32;
        let Some(budget) = self.mem_budget.filter(|_| n > 1) else {
            let mut ranges = ranges_by_mass(recoder, 2);
            if walk == Walk::Down {
                ranges.reverse();
            }
            return (ranges, None);
        };
        let mut sizer = Sizer::new(recoder, (0, n), walk);
        {
            let _s = span(Phase::Count);
            sizer.scan(db, recoder);
        }
        let half = recoder.supports().iter().sum::<u64>() / 2;
        let first = fit(&sizer.candidates(recoder), budget, (FIRST_BYTES_PER_NODE, 1), half);
        let supports = sizer.supports(recoder, first).map(|supports| (first, supports));
        (cut((0, n), first).collect(), supports)
    }
}

/// A partition's recoder and its global→local rank table, from the
/// projected supports of the items below the range's end: the items
/// frequent in the projection by descending projected support, the
/// range's own items last ([`ItemRecoder::ranked_last`]). The table maps
/// each global rank below the range's end to its local one, or to
/// `u32::MAX` for a context item infrequent in the projection.
fn rank_partition(
    recoder: &ItemRecoder,
    (lo, hi): (u32, u32),
    supports: Vec<u64>,
) -> (ItemRecoder, Vec<u32>) {
    let originals = || (0..hi).map(|i| recoder.original(i));
    let mut by_item = vec![0u64; originals().max().map_or(0, |m| m as usize + 1)];
    for (item, support) in originals().zip(supports) {
        by_item[item as usize] = support;
    }
    let own = |item: Item| recoder.recode(item).is_some_and(|i| lo <= i && i < hi);
    let local = ItemRecoder::ranked_last(&by_item, recoder.min_support(), own);
    let to_local = originals().map(|item| local.recode(item).unwrap_or(u32::MAX)).collect();
    (local, to_local)
}

/// One partition's pass over `db`: recodes every row once, shows it to
/// `sizer` when the pass also sizes the next cut, and inserts the items
/// the projection onto `range` keeps from it, mapped through `to_local`
/// and sorted, into the partition's tree over `num_local` items. A
/// refused allocation stops the pass.
fn build_pass(
    db: &TransactionDb,
    recoder: &ItemRecoder,
    range: (u32, u32),
    to_local: &[u32],
    num_local: usize,
    mut sizer: Option<&mut Sizer>,
    arena: ArenaOptions,
) -> Result<CfpTree, CfpError> {
    let mut tree = CfpTree::try_with_options(num_local, CfpTreeConfig::default(), arena)?;
    let (mut row, mut local) = (Vec::new(), Vec::new());
    for t in db.iter() {
        recoder.recode_transaction(t, &mut row);
        if let Some(sizer) = sizer.as_deref_mut() {
            sizer.observe(&row);
        }
        let kept = partition::kept(&row, range);
        if kept.is_empty() {
            continue;
        }
        local.clear();
        local.extend(kept.iter().map(|&i| to_local[i as usize]).filter(|&i| i != u32::MAX));
        local.sort_unstable();
        tree.try_insert(&local, 1).map_err(|e| CfpError::from(e).with_phase("build"))?;
    }
    Ok(tree)
}

/// A range a sizer measured, with the projected supports of its items
/// below its end ([`Sizer::supports`]).
type SizedRange = ((u32, u32), Vec<u64>);

/// Share of the budget, in tenths, that a sized range's estimated tree
/// may fill.
const FILL_TENTHS: u128 = 9;

/// Bytes per tree node assumed for the first range, which no partition
/// precedes to measure them.
const FIRST_BYTES_PER_NODE: u64 = 6;

/// The cut rule: the largest candidate of at most `max_mass` whose node
/// estimate, at `bytes / nodes` bytes per node (a pool peak over the node
/// count of the tree that peaked it), fills at most 90% of `budget`; the
/// smallest candidate when none does. It depends only on the database,
/// the budget and the partition measured, so a resumed run cuts where the
/// uninterrupted one did.
fn fit(
    candidates: &[Candidate],
    budget: u64,
    (bytes, nodes): (u64, u64),
    max_mass: u64,
) -> (u32, u32) {
    let fits = |c: &Candidate| {
        c.mass <= max_mass
            && 10 * u128::from(c.nodes()) * u128::from(bytes)
                <= FILL_TENTHS * u128::from(budget) * u128::from(nodes)
    };
    candidates.iter().rposition(fits).map_or(candidates[0].range, |k| candidates[k].range)
}

/// `rest` cut into `next`, which shares one of its ends, and what remains,
/// in mining order.
fn cut(rest: (u32, u32), next: (u32, u32)) -> impl Iterator<Item = (u32, u32)> {
    let remainder = if next.0 == rest.0 { (next.1, rest.1) } else { (rest.0, next.0) };
    std::iter::once(next).chain((remainder.0 < remainder.1).then_some(remainder))
}

/// What rung 2 did, on success or failure.
#[derive(Default)]
struct Tally {
    /// Partitions mined to completion.
    mined: u64,
    /// Ranges whose attempt exhausted the budget and were halved.
    retries: u64,
    /// Each mined partition's pool peak, in mining order.
    peaks: Vec<u64>,
    /// The single-item range whose exhausted budget ended the rung.
    unhalvable: Option<(u32, u32)>,
}

/// Whether rung 1 can end differently from a first attempt that failed
/// with `err`. The tree is built on the calling thread before any worker
/// starts, so a build the pool refused (`limit` > 0) fails the same way on
/// one worker. An injected fault (`limit` 0), a refusal in the mine phase,
/// a worker panic or a stall may not recur there.
fn degrade_may_help(err: &CfpError) -> bool {
    !matches!(err, CfpError::MemoryExhausted { phase: "build", limit, .. } if *limit > 0)
}

fn rung_started(rung: cfp_trace::Rung) {
    if cfp_trace::enabled() {
        cfp_trace::counters::CORE_RECOVERY_RUNGS.inc();
        if cfp_trace::events::capturing() {
            cfp_trace::events::record(cfp_trace::EventKind::RecoveryRung(rung));
        }
    }
}

fn flush(buf: CollectSink, sink: &mut dyn ItemsetSink) {
    for (itemset, support) in &buf.itemsets {
        sink.emit(itemset, *support);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfpGrowthMiner;
    use cfp_data::count::count_supports;
    use cfp_data::miner::CollectSink;
    use cfp_data::Miner;

    #[test]
    fn recovery_report_writes_the_degradation_section() {
        let report = RecoveryReport {
            policy: "partition".into(),
            rungs: vec![
                RungReport {
                    rung: "degrade",
                    succeeded: false,
                    partitions: 0,
                    error: Some("memory exhausted".into()),
                },
                RungReport { rung: "partition", succeeded: true, partitions: 4, error: None },
            ],
            recovered: true,
            final_partitions: 4,
            partition_peaks: vec![100, 200, 300, 400],
        };
        let d = cfp_trace::json::parse(&report.to_json().to_pretty()).unwrap();
        assert_eq!(d.get("policy").and_then(Json::as_str), Some("partition"));
        assert_eq!(d.get("recovered"), Some(&Json::Bool(true)));
        assert_eq!(d.get("final_partitions").and_then(Json::as_u64), Some(4));
        let rungs = d.get("rungs").and_then(Json::as_arr).expect("rungs array");
        assert_eq!(rungs.len(), 2);
        for rung in rungs {
            let Json::Obj(members) = rung else { panic!("rung {rung:?} is not an object") };
            let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, ["rung", "succeeded", "partitions", "error"]);
        }
        assert_eq!(rungs[0].get("rung").and_then(Json::as_str), Some("degrade"));
        assert_eq!(rungs[0].get("error").and_then(Json::as_str), Some("memory exhausted"));
        assert_eq!(rungs[1].get("partitions").and_then(Json::as_u64), Some(4));
        assert_eq!(rungs[1].get("error"), Some(&Json::Null));
        assert!(d.get("partition_peaks").is_none(), "per-partition peaks stay in memory");
    }

    fn textbook() -> TransactionDb {
        TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ])
    }

    fn reference(db: &TransactionDb, minsup: u64) -> Vec<(Vec<Item>, u64)> {
        let mut sink = CollectSink::new();
        CfpGrowthMiner::new().mine(db, minsup, &mut sink);
        sink.into_sorted()
    }

    #[test]
    fn healthy_run_reports_no_rungs() {
        let db = textbook();
        let sup = Supervisor::new(RecoveryPolicy::Partition);
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        r.expect("healthy run");
        assert!(report.rungs.is_empty());
        assert!(!report.recovered);
        assert_eq!(sink.into_sorted(), reference(&db, 2));
    }

    #[test]
    fn budget_too_small_for_monolithic_tree_recovers_via_partitioning() {
        let db = textbook();
        // Find the monolithic tree's charge, then budget below it: the
        // first attempt fails in the build phase, which one worker would
        // repeat, so the ladder goes straight to partitioned projections,
        // which fit.
        let (_, tree) = crate::growth::try_build_tree(&db, 2, None).unwrap();
        let budget = tree.arena_footprint() - 10;
        drop(tree);

        let sup = Supervisor {
            threads: 2,
            mem_budget: Some(budget),
            ..Supervisor::new(RecoveryPolicy::Partition)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        let stats = r.expect("partitioning must recover the run");
        assert!(report.recovered);
        assert_eq!(
            report.rungs.iter().map(|r| r.rung).collect::<Vec<_>>(),
            vec!["partition"],
            "a refused build skips the degrade rung"
        );
        assert!(report.final_partitions >= 2);
        for (i, peak) in report.partition_peaks.iter().enumerate() {
            assert!(peak <= &budget, "partition {i} peak {peak} over budget {budget}");
        }
        let got = sink.into_sorted();
        assert_eq!(got, reference(&db, 2), "partitioned result must be exact");
        assert_eq!(stats.itemsets, got.len() as u64);
    }

    #[test]
    fn policy_off_returns_the_original_failure_untouched() {
        let db = textbook();
        let sup = Supervisor { mem_budget: Some(16), ..Supervisor::new(RecoveryPolicy::Off) };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        let err = r.expect_err("16 bytes cannot hold the tree");
        assert_eq!(err.exit_code(), 4);
        assert!(report.rungs.is_empty());
        assert!(sink.into_sorted().is_empty(), "no partial output on failure");
    }

    /// The degrade policy climbs no rung past rung 1, and none at all
    /// when the pool refused the build: one worker would repeat it.
    #[test]
    fn degrade_policy_stops_after_one_rung() {
        let db = textbook();
        let sup = Supervisor {
            threads: 2,
            mem_budget: Some(16),
            ..Supervisor::new(RecoveryPolicy::Degrade)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        match r {
            Err(CfpError::MemoryExhausted { phase: "build", limit: 16, .. }) => {}
            other => panic!("expected the first attempt's build-phase refusal, got {other:?}"),
        }
        assert!(report.rungs.is_empty(), "no rung can address a refused build");
        assert!(!report.recovered);
        assert!(sink.into_sorted().is_empty(), "no partial output on failure");
    }

    /// Rung 1 is skipped only after a build the pool refused (as in
    /// `budget_too_small_for_monolithic_tree_recovers_via_partitioning`);
    /// every other failure one worker might not repeat still climbs it
    /// (the fault matrix climbs it on an injected allocation fault).
    #[test]
    fn a_refused_build_skips_the_degrade_rung() {
        let exhausted =
            |phase, limit| CfpError::MemoryExhausted { phase, requested: 8, footprint: 64, limit };
        assert!(!degrade_may_help(&exhausted("build", 64)), "the pool refused the build");
        assert!(degrade_may_help(&exhausted("build", 0)), "an injected fault");
        assert!(degrade_may_help(&exhausted("mine", 64)), "workers' trees outgrew the pool");
        assert!(degrade_may_help(&CfpError::WorkerPanic { worker: 1, message: "boom".into() }));
        assert!(degrade_may_help(&CfpError::WorkerTimeout { worker: 1, waited_ms: 10 }));
    }

    #[test]
    fn partitioned_equivalence_on_a_block_structured_db() {
        // Three nearly-disjoint item blocks: projections are about a
        // third of the monolithic tree, so a budget between the two
        // sizes forces exactly the partition rung to succeed.
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut db = TransactionDb::new();
        for block in 0u32..3 {
            for _ in 0..60 {
                let t: Vec<Item> =
                    (0..8).filter(|_| rng.gen_bool(0.6)).map(|i| block * 100 + i).collect();
                db.push(&t);
            }
        }
        let minsup = 3;
        let (_, tree) = crate::growth::try_build_tree(&db, minsup, None).unwrap();
        let mono = tree.arena_footprint();
        drop(tree);

        let budget = mono * 2 / 3;
        let sup = Supervisor {
            threads: 2,
            mem_budget: Some(budget),
            ..Supervisor::new(RecoveryPolicy::Partition)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, minsup, &mut sink);
        r.expect("block-structured db must partition cleanly");
        assert!(report.recovered);
        assert_eq!(report.rungs.last().unwrap().rung, "partition");
        for peak in &report.partition_peaks {
            assert!(peak <= &budget, "peak {peak} over budget {budget}");
        }
        assert_eq!(sink.into_sorted(), reference(&db, minsup));
    }

    fn spill_parent(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("cfp-sup-spill-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn assert_clean(parent: &std::path::Path) {
        let leftovers = std::fs::read_dir(parent).map(|it| it.count()).unwrap_or(0);
        assert_eq!(leftovers, 0, "no stray spill state may survive the run");
        let _ = std::fs::remove_dir_all(parent);
    }

    #[test]
    fn spill_policy_recovers_out_of_core_on_a_block_structured_db() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut db = TransactionDb::new();
        for block in 0u32..3 {
            for _ in 0..60 {
                let t: Vec<Item> =
                    (0..8).filter(|_| rng.gen_bool(0.6)).map(|i| block * 100 + i).collect();
                db.push(&t);
            }
        }
        let minsup = 3;
        let (_, tree) = crate::growth::try_build_tree(&db, minsup, None).unwrap();
        let mono = tree.arena_footprint();
        drop(tree);

        let parent = spill_parent("ladder");
        let sup = Supervisor {
            threads: 2,
            mem_budget: Some(mono * 2 / 3),
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, minsup, &mut sink);
        r.expect("the spill rung must recover the run");
        assert!(report.recovered);
        assert_eq!(
            report.rungs.iter().map(|r| r.rung).collect::<Vec<_>>(),
            vec!["spill"],
            "the spill policy replaces the partition rung; a refused build skips degrade"
        );
        assert!(report.final_partitions >= 2);
        assert_eq!(sink.into_sorted(), reference(&db, minsup), "spilled result must be exact");
        assert_clean(&parent);
    }

    #[test]
    fn mine_out_of_core_matches_the_reference_on_the_textbook_db() {
        let db = textbook();
        let parent = spill_parent("direct");
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine_out_of_core(&db, 2, &mut sink);
        let stats = r.expect("out-of-core run");
        assert!(report.recovered);
        assert_eq!(report.rungs.len(), 1);
        assert_eq!(report.rungs[0].rung, "spill");
        assert!(report.final_partitions >= 2, "the rung must actually partition");
        let got = sink.into_sorted();
        assert_eq!(got, reference(&db, 2));
        assert_eq!(stats.itemsets, got.len() as u64);
        assert_clean(&parent);
    }

    #[test]
    fn mine_out_of_core_stays_under_a_sub_monolithic_budget() {
        let db = textbook();
        // Budget below the monolithic tree but above a single projection:
        // ranges that overrun it are halved and respilled until they fit.
        let (_, tree) = crate::growth::try_build_tree(&db, 2, None).unwrap();
        let budget = tree.arena_footprint() - 10;
        drop(tree);

        let parent = spill_parent("tiny");
        let sup = Supervisor {
            mem_budget: Some(budget),
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine_out_of_core(&db, 2, &mut sink);
        r.expect("halving must make every partition fit");
        for (i, peak) in report.partition_peaks.iter().enumerate() {
            assert!(peak <= &budget, "partition {i} peak {peak} over budget {budget}");
        }
        assert_eq!(sink.into_sorted(), reference(&db, 2));
        assert_clean(&parent);
    }

    #[test]
    fn mine_out_of_core_on_an_empty_db_is_exactly_empty() {
        let parent = spill_parent("empty");
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine_out_of_core(&TransactionDb::new(), 1, &mut sink);
        let stats = r.expect("empty run");
        assert_eq!(stats.itemsets, 0);
        assert_eq!(report.final_partitions, 0);
        assert!(sink.into_sorted().is_empty());
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn spill_policy_name_round_trips() {
        let p: RecoveryPolicy = "spill".parse().unwrap();
        assert_eq!(p, RecoveryPolicy::Spill);
        assert_eq!(p.name(), "spill");
        let err = "disk".parse::<RecoveryPolicy>().unwrap_err();
        assert!(err.contains("spill"), "the error must list the new policy: {err}");
    }

    fn block_db() -> TransactionDb {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut db = TransactionDb::new();
        for block in 0u32..3 {
            for _ in 0..60 {
                let t: Vec<Item> =
                    (0..8).filter(|_| rng.gen_bool(0.6)).map(|i| block * 100 + i).collect();
                db.push(&t);
            }
        }
        db
    }

    /// One recorded `SpillParts` notification: done, remaining ranges,
    /// itemsets emitted so far.
    type Mark = (u64, Vec<(u32, u32)>, usize);

    /// Streams into a collector while recording every `SpillParts`
    /// notification.
    struct MarkingSink {
        inner: CollectSink,
        marks: Vec<Mark>,
        cancel_after: Option<(u64, cfp_fault::CancelToken)>,
    }

    impl ItemsetSink for MarkingSink {
        fn emit(&mut self, itemset: &[Item], support: u64) {
            self.inner.emit(itemset, support);
        }

        fn progress(&mut self, p: cfp_data::MineProgress<'_>) -> Result<(), CfpError> {
            if let cfp_data::MineProgress::SpillParts { done, remaining } = p {
                self.marks.push((done, remaining.to_vec(), self.inner.itemsets.len()));
                if let Some((after, token)) = &self.cancel_after {
                    if done >= *after {
                        token.cancel();
                    }
                }
            }
            Ok(())
        }
    }

    #[test]
    fn a_fired_token_stops_the_ladder_without_escalation() {
        let db = textbook();
        let token = cfp_fault::CancelToken::new();
        token.cancel();
        let sup = Supervisor {
            mem_budget: Some(16),
            cancel: Some(token),
            ..Supervisor::new(RecoveryPolicy::Partition)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        let err = r.expect_err("a cancelled run cannot complete");
        assert_eq!(err.exit_code(), 8, "interruption must win over recovery: {err}");
        assert!(report.rungs.is_empty(), "interruption must not climb the ladder");
        assert!(sink.into_sorted().is_empty());
    }

    #[test]
    fn streaming_spill_run_matches_the_buffered_one_mark_by_mark() {
        let db = block_db();
        let parent = spill_parent("stream");
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink =
            MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
        let (r, report) = sup.mine_out_of_core_resumable(&db, 3, &mut sink, None);
        let stats = r.expect("streaming run");
        assert!(report.final_partitions >= 2);
        assert_eq!(stats.itemsets, sink.inner.itemsets.len() as u64);
        assert_eq!(
            sink.marks.len() as u64,
            report.final_partitions,
            "one notification per completed partition"
        );
        let last = sink.marks.last().unwrap();
        assert_eq!(last.0, report.final_partitions);
        assert!(last.1.is_empty(), "the final notification has nothing remaining");
        assert_eq!(last.2, sink.inner.itemsets.len(), "the final mark covers all output");
        assert_eq!(sink.inner.into_sorted(), reference(&db, 3));
        assert_clean(&parent);
    }

    #[test]
    fn resume_from_every_spill_mark_completes_the_exact_stream() {
        let db = block_db();
        let parent = spill_parent("resume");
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut full =
            MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
        sup.mine_out_of_core_resumable(&db, 3, &mut full, None).0.expect("full run");
        assert!(full.marks.len() >= 2, "need at least two partitions to test resume");
        for (done, remaining, prefix_len) in &full.marks {
            let mut resumed =
                MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
            sup.mine_out_of_core_resumable(&db, 3, &mut resumed, Some((*done, remaining.clone())))
                .0
                .expect("resumed run");
            let mut joined = full.inner.itemsets[..*prefix_len].to_vec();
            joined.extend(resumed.inner.itemsets.iter().cloned());
            assert_eq!(
                joined, full.inner.itemsets,
                "prefix at mark {done} + resumed tail must equal the full stream"
            );
            if let Some(last) = resumed.marks.last() {
                assert_eq!(last.0 as usize, full.marks.len(), "done counts are global");
            }
        }
        assert_clean(&parent);
    }

    #[test]
    fn cancelled_spill_run_stops_at_a_partition_watermark_and_resumes() {
        let db = block_db();
        let parent = spill_parent("cancel");
        let token = cfp_fault::CancelToken::new();
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            cancel: Some(token.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut first = MarkingSink {
            inner: CollectSink::new(),
            marks: Vec::new(),
            cancel_after: Some((1, token)),
        };
        let (r, _) = sup.mine_out_of_core_resumable(&db, 3, &mut first, None);
        let err = r.expect_err("the token fires after the first partition");
        assert_eq!(err.exit_code(), 8, "unexpected failure: {err}");
        let (done, remaining, prefix_len) = first.marks.last().unwrap().clone();
        assert_eq!(prefix_len, first.inner.itemsets.len(), "output stops at the watermark");
        assert!(!remaining.is_empty(), "work must remain after the interruption");

        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut rest =
            MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
        sup.mine_out_of_core_resumable(&db, 3, &mut rest, Some((done, remaining)))
            .0
            .expect("resume after interruption");
        let mut joined = first.inner.itemsets;
        joined.extend(rest.inner.itemsets);
        joined.sort();
        assert_eq!(joined, reference(&db, 3), "interrupt + resume must lose nothing");
        assert_clean(&parent);
    }

    /// A Quest database, the generator of the benchmark's `quest1`, its
    /// support, and a budget under which its out-of-core run needs at
    /// least four partitions.
    fn quest_case() -> (TransactionDb, u64, u64) {
        let db = cfp_data::quest::generate(&cfp_data::quest::QuestConfig {
            num_transactions: 4000,
            num_items: 300,
            num_patterns: 200,
            ..Default::default()
        });
        let minsup = 20;
        let (_, tree) = crate::growth::try_build_tree(&db, minsup, None).unwrap();
        let budget = tree.arena_footprint() / 2;
        (db, minsup, budget)
    }

    #[test]
    fn cuts_keep_the_rest_in_mining_order() {
        let cuts = |rest, next| cut(rest, next).collect::<Vec<_>>();
        assert_eq!(cuts((3, 10), (3, 5)), [(3, 5), (5, 10)]);
        assert_eq!(cuts((0, 10), (6, 10)), [(6, 10), (0, 6)]);
        assert_eq!(cuts((3, 10), (3, 10)), [(3, 10)]);
        let c = |hi: u32, nodes: u64, mass: u64| Candidate {
            range: (0, hi),
            mass,
            inserted: nodes,
            prefixes: nodes + 1,
        };
        let candidates = [c(1, 10, 5), c(2, 100, 9), c(4, 200, 20)];
        // 10 B per node against 90% of the budget.
        assert_eq!(fit(&candidates, 1100, (100, 10), u64::MAX), (0, 1), "1000 B > 990 B");
        assert_eq!(fit(&candidates, 1112, (100, 10), u64::MAX), (0, 2), "1000 B ≤ 1000.8 B");
        assert_eq!(fit(&candidates, 2300, (100, 10), u64::MAX), (0, 4));
        assert_eq!(fit(&candidates, 2300, (100, 10), 10), (0, 2), "the mass cap binds");
        assert_eq!(fit(&candidates, 10, (100, 10), u64::MAX), (0, 1), "none fits: smallest");
    }

    /// Under a budget every range is cut to fit before it is built, from
    /// the measurements of the partition before it, so a resumed run
    /// re-cuts its tail exactly where the uninterrupted run did.
    #[test]
    fn sized_partitions_fit_the_budget_and_resume_byte_exactly() {
        let (db, minsup, budget) = quest_case();
        let parent = spill_parent("sized");
        let sup = Supervisor {
            mem_budget: Some(budget),
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let marking =
            || MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
        let mut full = marking();
        let mut tally = Tally::default();
        let counted = driver::count(&db, minsup);
        let stats =
            sup.range_loop(&db, &counted, true, &mut full, None, &mut tally).expect("sized run");
        assert!(tally.mined >= 4, "{} partitions under {budget} B", tally.mined);
        assert!(tally.retries <= 1, "{} ranges were halved", tally.retries);
        for (i, peak) in tally.peaks.iter().enumerate() {
            assert!(*peak <= budget, "partition {i} peak {peak} over budget {budget}");
        }
        let mut sorted = full.inner.itemsets.clone();
        sorted.sort();
        assert_eq!(sorted, reference(&db, minsup), "sized result must be exact");
        assert_eq!(stats.itemsets, full.inner.itemsets.len() as u64);
        for (done, remaining, prefix_len) in &full.marks {
            let mut resumed = marking();
            let resume = Some((*done, remaining.clone()));
            sup.mine_out_of_core_resumable(&db, minsup, &mut resumed, resume)
                .0
                .expect("resumed run");
            let mut joined = full.inner.itemsets[..*prefix_len].to_vec();
            joined.extend(resumed.inner.itemsets.iter().cloned());
            assert_eq!(joined, full.inner.itemsets, "resume at mark {done} must be byte-exact");
            let cuts =
                |marks: &[Mark]| marks.iter().map(|m| (m.0, m.1.clone())).collect::<Vec<_>>();
            let after: Vec<Mark> = full.marks.iter().filter(|m| m.0 > *done).cloned().collect();
            assert_eq!(cuts(&resumed.marks), cuts(&after), "resume at mark {done} cut elsewhere");
        }
        assert_clean(&parent);
    }

    #[test]
    fn single_item_range_failure_is_final() {
        let db = textbook();
        let sup = Supervisor {
            mem_budget: Some(5), // below even a root slot's charge
            ..Supervisor::new(RecoveryPolicy::Partition)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        let err = r.expect_err("5 bytes cannot hold any projection");
        assert_eq!(err.exit_code(), 4);
        assert!(!report.recovered);
        assert!(sink.into_sorted().is_empty());
    }

    /// Both rung-2 policies run one range loop, so under a budget below
    /// the monolithic tree they emit the same ordered stream in every
    /// output mode, from the same partitions at the same pool peaks: the
    /// arrays are unmetered in both placements, so the disk round trip
    /// never changes admission. Only the rung's name and where its
    /// arrays lived differ.
    #[test]
    fn partition_and_spill_policies_emit_the_same_stream() {
        let (block, textbook, (quest, quest_minsup, quest_budget)) =
            (block_db(), textbook(), quest_case());
        let mono = |db: &TransactionDb, minsup: u64| {
            crate::growth::try_build_tree(db, minsup, None).unwrap().1.arena_footprint()
        };
        let cases = [
            ("block", &block, 3, mono(&block, 3) * 2 / 3),
            ("textbook", &textbook, 2, mono(&textbook, 2) - 10),
            // Sized cuts, ascending and (closed, maximal) descending.
            ("quest", &quest, quest_minsup, quest_budget),
        ];
        let modes = [OutputMode::All, OutputMode::Closed, OutputMode::Maximal, OutputMode::TopK(4)];
        for (name, db, minsup, budget) in cases {
            for output in modes {
                let run = |policy: RecoveryPolicy| {
                    let parent = spill_parent(&format!("same-{name}-{}", policy.name()));
                    let sup = Supervisor {
                        threads: 2,
                        mem_budget: Some(budget),
                        spill_dir: Some(parent.clone()),
                        output,
                        ..Supervisor::new(policy)
                    };
                    let mut sink = CollectSink::new();
                    let (r, report) = sup.mine(db, minsup, &mut sink);
                    r.unwrap_or_else(|e| panic!("{name} {output} {}: {e}", policy.name()));
                    assert_clean(&parent);
                    (sink.itemsets, report)
                };
                let (in_ram, in_ram_report) = run(RecoveryPolicy::Partition);
                let (on_disk, on_disk_report) = run(RecoveryPolicy::Spill);
                assert!(!in_ram.is_empty(), "{name} {output}: nothing mined");
                assert_eq!(on_disk, in_ram, "{name} {output}: the streams differ");
                if output == OutputMode::All {
                    let mut sorted = in_ram.clone();
                    sorted.sort();
                    assert_eq!(sorted, reference(db, minsup), "{name}: inexact result");
                }
                assert!(in_ram_report.final_partitions >= 2, "{name} {output}: no split");
                assert_eq!(
                    on_disk_report.final_partitions, in_ram_report.final_partitions,
                    "{name} {output}: different partitions"
                );
                assert_eq!(
                    on_disk_report.partition_peaks, in_ram_report.partition_peaks,
                    "{name} {output}: different pool peaks"
                );
                let rungs = |r: &RecoveryReport| r.rungs.iter().map(|r| r.rung).collect::<Vec<_>>();
                // Every case's budget is below its tree: the build is
                // refused, so the degrade rung is skipped.
                assert_eq!(rungs(&in_ram_report), ["partition"]);
                assert_eq!(rungs(&on_disk_report), ["spill"]);
            }
        }
    }

    /// The ranges a rung-2 run mined, in order, read off its `SpillParts`
    /// marks: each mark's ranges lack exactly the range mined before it.
    fn mined_ranges(before: &[(u32, u32)], marks: &[Mark]) -> Vec<(u32, u32)> {
        let holds =
            |ranges: &[(u32, u32)], i: u32| ranges.iter().any(|&(lo, hi)| lo <= i && i < hi);
        let mut before = before.to_vec();
        let mut mined = Vec::new();
        for (_, after, _) in marks {
            let items: Vec<u32> =
                before.iter().flat_map(|&(lo, hi)| lo..hi).filter(|&i| !holds(after, i)).collect();
            let (lo, hi) = (*items.iter().min().unwrap(), items.iter().max().unwrap() + 1);
            assert_eq!(items.len() as u32, hi - lo, "a mined range is contiguous");
            mined.push((lo, hi));
            before = after.clone();
        }
        mined
    }

    /// The range loop as it ran when each partition copied its
    /// projection: every range of `ranges`, in order, copied by
    /// [`partition::project`], counted and ranked by
    /// [`ItemRecoder::ranked_last`], built and run through the driver
    /// under a fresh pool of `budget`, and reconciled as the loop does.
    /// Returns the stream and each partition's pool peak.
    fn copied_projection_loop(
        db: &TransactionDb,
        minsup: u64,
        budget: u64,
        output: OutputMode,
        ranges: &[(u32, u32)],
    ) -> (Vec<(Vec<Item>, u64)>, Vec<u64>) {
        let recoder = ItemRecoder::scan(db, minsup);
        let mut index = output.is_condensed().then(SubsumeIndex::default);
        let (mut stream, mut peaks) = (Vec::new(), Vec::new());
        for &(lo, hi) in ranges {
            let proj = partition::project(db, &recoder, lo, hi);
            let own = |item: Item| recoder.recode(item).is_some_and(|i| lo <= i && i < hi);
            let local = ItemRecoder::ranked_last(&count_supports(&proj), minsup, own);
            let pool = BudgetPool::new(budget);
            let opts = MineOpts { pool: Some(pool.clone()), output, ..Default::default() };
            let arena = opts.arena_options(Component::BuildTree);
            let tree = CfpTree::try_from_db_with(&proj, &local, arena).expect("the range fits");
            let first = local.num_items() as u32 - (hi - lo);
            let (plan, mut part) = (Plan { threads: 1, worker_timeout: None }, CollectSink::new());
            let (stats, sw) = (MineStats::default(), Stopwatch::start());
            driver::convert_and_mine(&local, tree, first, &mut part, stats, sw, plan, &opts)
                .expect("the range mines");
            peaks.push(pool.peak());
            if let Some(index) = &mut index {
                let closed = output == OutputMode::Closed;
                part.itemsets.retain(|(set, support)| {
                    let subsumed = index.subsumes(set, closed.then_some(*support));
                    if !subsumed {
                        index.insert(set, *support);
                    }
                    !subsumed
                });
            }
            stream.extend(part.itemsets);
        }
        (stream, peaks)
    }

    /// Each partition is one pass that inserts its rows straight into the
    /// tree, ranked by the supports the sizer counted, yet it emits what
    /// the loop that copied each projection emitted, at the same pool
    /// peaks: in both walks, for sized ranges and for the two kinds of
    /// range that get a counting pass of their own, a halved range (the
    /// descending walk halves ranges under this budget) and the first
    /// range of a resumed run.
    #[test]
    fn streamed_partitions_equal_the_copied_projection_loop() {
        let (db, minsup, budget) = quest_case();
        let counted = driver::count(&db, minsup);
        let n = counted.0.num_items() as u32;
        let marking =
            || MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
        for output in [OutputMode::All, OutputMode::Closed] {
            let sup = Supervisor {
                mem_budget: Some(budget),
                output,
                ..Supervisor::new(RecoveryPolicy::Partition)
            };
            let mut full = marking();
            let mut tally = Tally::default();
            sup.range_loop(&db, &counted, false, &mut full, None, &mut tally).expect("sized run");
            let ranges = mined_ranges(&[(0, n)], &full.marks);
            assert!(ranges.len() >= 4, "{output}: {ranges:?}");
            if output == OutputMode::Closed {
                assert!(tally.retries >= 1, "{output}: no range was halved");
            }
            let (stream, peaks) = copied_projection_loop(&db, minsup, budget, output, &ranges);
            assert_eq!(full.inner.itemsets, stream, "{output}: the streams differ");
            assert_eq!(tally.peaks, peaks, "{output}: the pool peaks differ");
            if output != OutputMode::All {
                continue;
            }
            for (k, (done, remaining, prefix_len)) in full.marks.iter().enumerate() {
                let resume = Some((*done, remaining.clone()));
                let mut resumed = marking();
                let mut tally = Tally::default();
                sup.range_loop(&db, &counted, false, &mut resumed, resume, &mut tally)
                    .expect("resumed run");
                assert_eq!(mined_ranges(remaining, &resumed.marks), ranges[k + 1..]);
                assert_eq!(resumed.inner.itemsets, stream[*prefix_len..], "resume at mark {done}");
                assert_eq!(tally.peaks, peaks[k + 1..], "resume at mark {done}: pool peaks");
            }
        }
    }
}
