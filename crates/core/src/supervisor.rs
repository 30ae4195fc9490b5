//! The run supervisor: graceful degradation under memory pressure.
//!
//! [`Supervisor::mine`] wraps a mining run in an escalation ladder that
//! turns [`CfpError::MemoryExhausted`] (and watchdog timeouts) into
//! completed, *exact* runs wherever possible. The rungs, in order, each
//! attempted at most once per run:
//!
//! 1. **retry** — run again with the budget enforced by one shared
//!    [`BudgetPool`] and compact-on-pressure armed, so a denied
//!    allocation first reclaims the arena's trailing free chunks.
//! 2. **degrade** — downshift to one mine-phase worker (one conditional
//!    tree live instead of `threads`), same pool and compaction.
//! 3. **partition** or **spill** — partitioned mining: split the recoded
//!    items into ranges ([`cfp_data::partition`]) and run each range's
//!    projection through the mining driver under a fresh pool of the
//!    budget, keeping each itemset in the range of its maximal item. A
//!    range that still exhausts the budget is halved and requeued; a
//!    single-item range that fails ends the run. Both policies run this
//!    one range loop and differ only in where the arrays live: under
//!    [`RecoveryPolicy::Spill`] every partition's CFP-array, and every
//!    conditional array above a quarter of the budget, round-trips
//!    through a crash-safe spill file ([`CondSpill`]) and is mined from a
//!    zero-copy view.
//!
//! Output is buffered per attempt and flushed to the caller's sink only
//! when an attempt succeeds, so the caller never sees a partial result
//! stream mixed into a complete one. Every rung emits a
//! [`Phase::Recover`] span and a [`RungReport`]; the collected
//! [`RecoveryReport`] writes itself ([`RecoveryReport::to_json`]) as the
//! `degradation` section of the `cfp-profile/3` run report and the
//! `cfp-blackbox/2` post-mortem.
//!
//! Exactness of rung 3 follows Grahne & Zhu's range projection argument,
//! spelled out in [`cfp_data::partition`]: every frequent itemset has
//! exactly one maximal item under the global support-descending recode
//! order, the projection for that item's range preserves the itemset's
//! full global support, and a max-item filter keeps each itemset in
//! exactly one range's output. The on-disk detour is a checksummed
//! identity transformation of each array.

use crate::driver::{self, Plan};
use crate::growth::{MineOpts, SubsumeIndex, TopKState};
use crate::parallel::ParallelCfpGrowthMiner;
use crate::spill::CondSpill;
use cfp_data::miner::CollectSink;
use cfp_data::partition::{project, ranges_by_mass};
use cfp_data::spill::SpillDir;
use cfp_data::{
    CfpError, Item, ItemRecoder, ItemsetSink, MineProgress, MineStats, Miner, OutputMode,
    TransactionDb,
};
use cfp_memman::BudgetPool;
use cfp_trace::hist::{maybe_now, record_since};
use cfp_trace::{span, Json, Phase};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// How far the supervisor may escalate when a run fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryPolicy {
    /// No recovery: the first failure is final (classic behaviour).
    Off,
    /// Rung 1 only: compact-and-retry under a shared pool.
    Retry,
    /// Rungs 1–2: retry, then downshift to one mine-phase worker.
    Degrade,
    /// Rungs 1–3: retry, degrade, then partitioned mining in RAM.
    Partition,
    /// Rungs 1–3 with rung 3 out of core: the same partitioned mining,
    /// but every partition's array (and every oversized conditional
    /// array) goes through a spill file and is mined from a zero-copy
    /// view. For datasets whose projections still crowd the budget in
    /// RAM.
    Spill,
}

impl RecoveryPolicy {
    /// The policy's CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Off => "off",
            RecoveryPolicy::Retry => "retry",
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
            "retry" => Ok(RecoveryPolicy::Retry),
            "degrade" => Ok(RecoveryPolicy::Degrade),
            "partition" => Ok(RecoveryPolicy::Partition),
            "spill" => Ok(RecoveryPolicy::Spill),
            other => Err(format!(
                "unknown recovery policy '{other}' (off|retry|degrade|partition|spill)"
            )),
        }
    }
}

/// One rung's outcome within a recovery ladder.
#[derive(Clone, Debug)]
pub struct RungReport {
    /// Rung name: `"retry"`, `"degrade"`, `"partition"`, or `"spill"`.
    pub rung: &'static str,
    /// Whether this rung completed the run.
    pub succeeded: bool,
    /// Bytes reclaimed by arena compaction during the rung.
    pub reclaimed_bytes: u64,
    /// Number of partitions mined (rung 3 only, else 0).
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
    /// Per-partition pool peaks of rung 3, in mining order.
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
                    ("reclaimed_bytes".into(), Json::u64(r.reclaimed_bytes)),
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
/// docs). Construct with the same knobs as [`ParallelCfpGrowthMiner`]
/// plus a [`RecoveryPolicy`].
#[derive(Clone, Debug)]
pub struct Supervisor {
    /// Worker threads for the first attempt and the retry rung.
    pub threads: usize,
    /// Enumerate single-path structures directly instead of recursing.
    pub single_path_opt: bool,
    /// Byte budget for the whole run; `None` disables the memory rungs'
    /// reason to exist but the ladder still handles worker failures.
    pub mem_budget: Option<u64>,
    /// The escalation policy.
    pub policy: RecoveryPolicy,
    /// Watchdog limit for every attempt (see
    /// [`ParallelCfpGrowthMiner::worker_timeout`]).
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
    /// What every rung emits (all, closed, maximal, or top-k). Rung 3
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
            single_path_opt: true,
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

    /// Rung 3 mines each range on one worker, under the run's watchdog.
    fn plan(&self) -> Plan {
        Plan {
            threads: 1,
            single_path_opt: self.single_path_opt,
            worker_timeout: self.worker_timeout,
        }
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

        // First attempt: the classic run, output buffered.
        let (first, buf, _) = self.attempt(db, min_support, self.threads, false);
        let mut last_err = match first {
            Ok(stats) => {
                flush(buf, sink);
                return (Ok(stats), report);
            }
            Err(e) => e,
        };
        // Rung 1 retries with compaction armed and the budget enforced by
        // one shared pool across every arena of the run; rung 2 downshifts
        // to one worker — one conditional tree live at a time instead of
        // `threads` — and is skipped when the run had one worker already
        // (it would repeat rung 1 exactly).
        let in_memory = [
            (RecoveryPolicy::Retry, cfp_trace::Rung::Retry, "retry", self.threads),
            (RecoveryPolicy::Degrade, cfp_trace::Rung::Degrade, "degrade", 1),
        ];
        for (policy, trace_rung, rung, threads) in in_memory {
            if self.policy < policy {
                return (Err(last_err), report);
            }
            if self.cancelled() || matches!(last_err, CfpError::Interrupted) {
                return (Err(CfpError::Interrupted), report);
            }
            if policy == RecoveryPolicy::Degrade && self.threads <= 1 {
                continue;
            }
            let _s = span(Phase::Recover);
            rung_started(trace_rung);
            let (r, buf, reclaimed) = self.attempt(db, min_support, threads, true);
            report.rungs.push(RungReport {
                rung,
                succeeded: r.is_ok(),
                reclaimed_bytes: reclaimed,
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

        // Rung 3. The initial partition count comes from the failure
        // itself: aim for projections of at most half the budget. Other
        // causes start at 2.
        let k0 = match last_err {
            CfpError::MemoryExhausted { footprint, limit, .. } if limit > 0 => {
                (2 * footprint).div_ceil(limit).max(2) as usize
            }
            _ => 2,
        };
        let on_disk = self.policy == RecoveryPolicy::Spill;
        let mut buf = CollectSink::new();
        let (r, report) = self.partitioned(db, min_support, k0, on_disk, &mut buf, None, report);
        if r.is_ok() {
            flush(buf, sink);
        }
        (r, report)
    }

    /// One in-memory attempt: the whole run on `threads` workers, its
    /// output buffered, under a fresh pool of the run's budget. Returns
    /// the result, the buffer, and the bytes compaction reclaimed.
    fn attempt(
        &self,
        db: &TransactionDb,
        min_support: u64,
        threads: usize,
        compact_on_pressure: bool,
    ) -> (Result<MineStats, CfpError>, CollectSink, u64) {
        let pool = self.mem_budget.map(BudgetPool::new);
        let mut buf = CollectSink::new();
        let r = ParallelCfpGrowthMiner {
            single_path_opt: self.single_path_opt,
            pool: pool.clone(),
            worker_timeout: self.worker_timeout,
            compact_on_pressure,
            cancel: self.cancel.clone(),
            output: self.output,
            ..ParallelCfpGrowthMiner::new(threads)
        }
        .try_mine(db, min_support, &mut buf);
        (r, buf, pool.map_or(0, |p| p.compact_reclaimed()))
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
    /// re-mined) and the surviving ranges to mine, in order. Because
    /// ranges are re-projected from the database, no spill files need to
    /// have survived the crash. Passing `None` starts a fresh run.
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
        self.partitioned(db, min_support, 2, true, sink, resume, report)
    }

    /// Rung 3 (see the module docs), recorded into `report`: the range
    /// loop, starting from `k0` ranges or from a `resume` point, with the
    /// arrays on disk when `on_disk`.
    #[allow(clippy::too_many_arguments)]
    fn partitioned(
        &self,
        db: &TransactionDb,
        min_support: u64,
        k0: usize,
        on_disk: bool,
        sink: &mut dyn ItemsetSink,
        resume: Option<(u64, Vec<(u32, u32)>)>,
        mut report: RecoveryReport,
    ) -> (Result<MineStats, CfpError>, RecoveryReport) {
        let _s = span(Phase::Recover);
        let (rung, trace_rung) = if on_disk {
            ("spill", cfp_trace::Rung::Spill)
        } else {
            ("partition", cfp_trace::Rung::Partition)
        };
        rung_started(trace_rung);
        let mut tally = Tally::default();
        let r = self.range_loop(db, min_support, k0, on_disk, sink, resume, &mut tally);
        report.rungs.push(RungReport {
            rung,
            succeeded: r.is_ok(),
            reclaimed_bytes: tally.reclaimed,
            partitions: tally.mined,
            error: r.as_ref().err().map(|e| e.to_string()),
        });
        if r.is_ok() {
            report.recovered = true;
            report.final_partitions = tally.mined;
            report.partition_peaks = tally.peaks;
        }
        (r, report)
    }

    /// The range loop. Each step pops a range, projects it, and runs the
    /// projection through the driver into a buffer of its own, under a
    /// fresh pool of the budget. A range that exhausts the pool drops its
    /// buffer and goes back on the front of the queue as two halves, in
    /// mining order. A completed partition is reconciled (condensed
    /// output) or offered to the top-k heap, emitted to `sink`, and
    /// followed by a [`MineProgress::SpillParts`] watermark.
    ///
    /// Condensed output mines the ranges in descending item order: the
    /// order one recursion emits in, so every cross-partition subsumer is
    /// indexed before the candidates it subsumes (a superset's maximal
    /// item is ≥ the candidate's). Subsumption inside a partition is
    /// already exact, since the projection preserves global supports.
    /// Top-k mines every partition in full and drains the winners after
    /// the last one.
    #[allow(clippy::too_many_arguments)]
    fn range_loop(
        &self,
        db: &TransactionDb,
        min_support: u64,
        k0: usize,
        on_disk: bool,
        sink: &mut dyn ItemsetSink,
        resume: Option<(u64, Vec<(u32, u32)>)>,
        tally: &mut Tally,
    ) -> Result<MineStats, CfpError> {
        let recoder = ItemRecoder::scan(db, min_support);
        let n = recoder.num_items();
        if n == 0 {
            // Nothing frequent: the empty result is exact. (A failure
            // that led here was necessarily transient — e.g. injected.)
            return Ok(MineStats::default());
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
        let (proj_output, topk) = match self.output {
            OutputMode::TopK(k) => (OutputMode::All, Some(TopKState::new(k))),
            other => (other, None),
        };
        let mut index = condensed.then(SubsumeIndex::default);
        let done0 = resume.as_ref().map_or(0, |(done, _)| *done);
        let mut queue: VecDeque<(u32, u32)> = match resume {
            Some((_, remaining)) => remaining.into(),
            None => {
                let mut q: VecDeque<(u32, u32)> = ranges_by_mass(&recoder, k0.min(n)).into();
                if condensed {
                    q.make_contiguous().reverse();
                }
                q
            }
        };

        let traced = cfp_trace::enabled();
        let mut stats = MineStats::default();
        while let Some((lo, hi)) = queue.pop_front() {
            if self.cancelled() {
                return Err(CfpError::Interrupted);
            }
            if traced {
                // The `n` of the heartbeat's `partition k/n`: grows when
                // a range is halved.
                cfp_trace::counters::CORE_SPILL_PARTITIONS
                    .record(tally.mined + 1 + queue.len() as u64);
            }
            let t0 = maybe_now();
            let proj = project(db, &recoder, lo, hi);
            record_since(&cfp_trace::hist::CORE_SPILL_PROJECT_NANOS, t0);
            let pool = self.mem_budget.map(BudgetPool::new);
            let opts = MineOpts {
                pool: pool.clone(),
                compact_on_pressure: true,
                cond_spill: cond_spill.clone(),
                cancel: self.cancel.clone(),
                output: proj_output,
                ..Default::default()
            };
            let mut part = CollectSink::new();
            let mut fsink = RangeFilterSink { inner: &mut part, recoder: &recoder, lo, hi };
            let t0 = maybe_now();
            let r = driver::run(&proj, min_support, &mut fsink, self.plan(), &opts);
            record_since(&cfp_trace::hist::CORE_SPILL_MINE_NANOS, t0);
            drop(proj);
            tally.reclaimed += pool.as_ref().map_or(0, |p| p.compact_reclaimed());
            let s = match r {
                Ok(s) => s,
                Err(CfpError::MemoryExhausted { .. }) if hi - lo > 1 => {
                    let mid = lo + (hi - lo) / 2;
                    let (first, second) =
                        if condensed { ((mid, hi), (lo, mid)) } else { ((lo, mid), (mid, hi)) };
                    queue.push_front(second);
                    queue.push_front(first);
                    continue;
                }
                Err(e) => return Err(e),
            };
            tally.mined += 1;
            tally.peaks.push(pool.map_or(s.peak_bytes, |p| p.peak()));
            stats.scan_time += s.scan_time;
            stats.build_time += s.build_time;
            stats.convert_time += s.convert_time;
            stats.mine_time += s.mine_time;
            stats.tree_nodes += s.tree_nodes;
            stats.peak_bytes = stats.peak_bytes.max(s.peak_bytes);
            stats.avg_bytes = stats.avg_bytes.max(s.avg_bytes);

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
            if let Some(state) = &topk {
                for (set, support) in part.itemsets.drain(..) {
                    state.offer(&set, support);
                }
            }
            stats.itemsets += part.itemsets.len() as u64;
            flush(part, sink);
            if traced {
                cfp_trace::counters::CORE_SPILL_PARTS_DONE.inc();
            }
            let remaining: Vec<(u32, u32)> = queue.iter().copied().collect();
            let t0 = maybe_now();
            let sent = sink.progress(MineProgress::SpillParts {
                done: done0 + tally.mined,
                remaining: &remaining,
            });
            record_since(&cfp_trace::hist::CORE_EMIT_NANOS, t0);
            sent?;
        }
        if let Some(state) = &topk {
            let winners = CollectSink { itemsets: state.drain_sorted() };
            stats.itemsets += winners.itemsets.len() as u64;
            flush(winners, sink);
        }
        if traced {
            cfp_trace::counters::CORE_PARTITIONS.record(tally.mined);
        }
        stats.worker_peaks = tally.peaks.clone();
        Ok(stats)
    }
}

/// What rung 3 did, on success or failure.
#[derive(Default)]
struct Tally {
    /// Partitions mined to completion.
    mined: u64,
    /// Bytes arena compaction reclaimed across every attempt.
    reclaimed: u64,
    /// Each mined partition's pool peak, in mining order.
    peaks: Vec<u64>,
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

/// Forwards only itemsets whose *maximal* global-recoded item falls in
/// `[lo, hi)` — the disjointness filter of rung 3.
struct RangeFilterSink<'a> {
    inner: &'a mut CollectSink,
    recoder: &'a ItemRecoder,
    lo: u32,
    hi: u32,
}

impl ItemsetSink for RangeFilterSink<'_> {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        let max = itemset.iter().filter_map(|&it| self.recoder.recode(it)).max();
        if let Some(m) = max {
            if self.lo <= m && m < self.hi {
                self.inner.emit(itemset, support);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfpGrowthMiner;
    use cfp_data::miner::CollectSink;

    #[test]
    fn recovery_report_writes_the_degradation_section() {
        let report = RecoveryReport {
            policy: "partition".into(),
            rungs: vec![
                RungReport {
                    rung: "retry",
                    succeeded: false,
                    reclaimed_bytes: 512,
                    partitions: 0,
                    error: Some("memory exhausted".into()),
                },
                RungReport {
                    rung: "partition",
                    succeeded: true,
                    reclaimed_bytes: 0,
                    partitions: 4,
                    error: None,
                },
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
        assert_eq!(rungs[0].get("rung").and_then(Json::as_str), Some("retry"));
        assert_eq!(rungs[0].get("reclaimed_bytes").and_then(Json::as_u64), Some(512));
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
        // first attempt, the retry, and the degrade rung all fail in the
        // build phase; partitioned projections fit.
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
            vec!["retry", "degrade", "partition"],
            "each rung attempted exactly once, in order"
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

    #[test]
    fn retry_policy_stops_after_one_rung() {
        let db = textbook();
        let sup = Supervisor { mem_budget: Some(16), ..Supervisor::new(RecoveryPolicy::Retry) };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        assert!(r.is_err(), "16 bytes stays impossible after compaction");
        assert_eq!(report.rungs.len(), 1);
        assert_eq!(report.rungs[0].rung, "retry");
        assert!(!report.rungs[0].succeeded);
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
            vec!["retry", "degrade", "spill"],
            "the spill policy replaces the partition rung"
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

    /// Both rung-3 policies run one range loop, so under a budget below
    /// the monolithic tree they emit the same ordered stream in every
    /// output mode, from the same partitions; only the rung's name and
    /// where its arrays lived differ.
    #[test]
    fn partition_and_spill_policies_emit_the_same_stream() {
        let (block, textbook) = (block_db(), textbook());
        let mono = |db: &TransactionDb, minsup: u64| {
            crate::growth::try_build_tree(db, minsup, None).unwrap().1.arena_footprint()
        };
        let cases = [
            ("block", &block, 3, mono(&block, 3) * 2 / 3),
            ("textbook", &textbook, 2, mono(&textbook, 2) - 10),
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
                let rungs = |r: &RecoveryReport| r.rungs.iter().map(|r| r.rung).collect::<Vec<_>>();
                assert_eq!(rungs(&in_ram_report), ["retry", "degrade", "partition"]);
                assert_eq!(rungs(&on_disk_report), ["retry", "degrade", "spill"]);
            }
        }
    }
}
