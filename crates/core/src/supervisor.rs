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
//! 3. **partition** — split the database into `k` item-range projections
//!    ([`cfp_data::partition`]), mine each sequentially under the
//!    budget, and merge the per-range results into the exact global
//!    result. A range that still exhausts the budget is split in two and
//!    requeued; a single-item range that fails ends the run.
//! 4. **spill** (replacing rung 3 under [`RecoveryPolicy::Spill`]) —
//!    out-of-core partitioned mining: each projection's CFP-array is
//!    written to a crash-safe spill file and mined back one at a time
//!    through a zero-copy view, so the budget covers only one
//!    partition's transient structures at a time.
//!
//! Output is buffered per attempt and flushed to the caller's sink only
//! when an attempt succeeds, so the caller never sees a partial result
//! stream mixed into a complete one. Every rung emits a
//! [`Phase::Recover`] span and a [`RungReport`]; the CLI serialises the
//! collected [`RecoveryReport`] as the `degradation` section of the
//! `cfp-profile/2` run report.
//!
//! Exactness of the partition rung follows Grahne & Zhu's range
//! projection argument, spelled out in [`cfp_data::partition`]: every
//! frequent itemset has exactly one maximal item under the global
//! support-descending recode order, the projection for that item's range
//! preserves the itemset's full global support, and a
//! max-item filter keeps each itemset in exactly one range's output.

use crate::driver::{self, Plan};
use crate::growth::{ArrayCharge, MineOpts, SubsumeIndex, TopKState};
use crate::parallel::ParallelCfpGrowthMiner;
use crate::spill::{load_spill_array, write_spill_array, CondSpill};
use cfp_array::convert;
use cfp_data::miner::CollectSink;
use cfp_data::partition::{project, ranges_by_mass};
use cfp_data::spill::SpillDir;
use cfp_data::{
    CfpError, Item, ItemRecoder, ItemsetSink, MineStats, Miner, OutputMode, TransactionDb,
};
use cfp_memman::{BudgetPool, Component};
use cfp_trace::{span, Phase};
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
    /// Rungs 1–3: retry, degrade, then partitioned fallback mining.
    Partition,
    /// Rungs 1–2 then out-of-core: retry, degrade, then spill partition
    /// arrays to disk and mine them back one at a time through zero-copy
    /// views. The disk-backed sibling of [`RecoveryPolicy::Partition`]
    /// for datasets whose projections still crowd the budget in RAM.
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
    /// Number of partitions mined (partition rung only, else 0).
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
    /// Per-partition pool peaks of the partition rung, in mining order.
    pub partition_peaks: Vec<u64>,
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
    /// Parent directory for the spill rung's scratch files; the system
    /// temp directory when unset. A uniquely-named subdirectory is
    /// created per run and removed on every exit path.
    pub spill_dir: Option<PathBuf>,
    /// Cooperative cancellation, polled at every rung and partition
    /// boundary and threaded into each rung's miner. A fired token stops
    /// the ladder with [`CfpError::Interrupted`] — recovery rungs never
    /// escalate past a cancellation, because the interruption is not a
    /// failure the ladder could repair.
    pub cancel: Option<cfp_fault::CancelToken>,
    /// What every rung emits (all, closed, maximal, or top-k). The
    /// partition and spill rungs stay exact in condensed modes by mining
    /// ranges in descending item order and reconciling each partition's
    /// locally-condensed output against a global subsumption index; for
    /// top-k they mine everything and select the winners at the end.
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

    /// The partitioned rungs mine each range on one worker, under the
    /// run's watchdog.
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

        // Rung 3: partitioned fallback mining — in RAM for the
        // `partition` policy, through disk for `spill`.
        let _s = span(Phase::Recover);
        let (rung, r) = if self.policy == RecoveryPolicy::Spill {
            rung_started(cfp_trace::Rung::Spill);
            ("spill", self.spill_rung(db, min_support, &last_err, None, None))
        } else {
            rung_started(cfp_trace::Rung::Partition);
            ("partition", self.partition_rung(db, min_support, &last_err))
        };
        match r {
            Ok((stats, partitions, reclaimed, peaks, buf)) => {
                report.rungs.push(RungReport {
                    rung,
                    succeeded: true,
                    reclaimed_bytes: reclaimed,
                    partitions,
                    error: None,
                });
                report.recovered = true;
                report.final_partitions = partitions;
                report.partition_peaks = peaks;
                flush(buf, sink);
                (Ok(stats), report)
            }
            Err((e, partitions, reclaimed)) => {
                report.rungs.push(RungReport {
                    rung,
                    succeeded: false,
                    reclaimed_bytes: reclaimed,
                    partitions,
                    error: Some(e.to_string()),
                });
                (Err(e), report)
            }
        }
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

    /// The partition rung: project, mine each range under the budget,
    /// filter by maximal item, and concatenate. Returns the merged
    /// stats, the number of partitions mined, compaction bytes, the
    /// per-partition pool peaks, and the buffered output.
    #[allow(clippy::type_complexity)]
    fn partition_rung(
        &self,
        db: &TransactionDb,
        min_support: u64,
        cause: &CfpError,
    ) -> Result<(MineStats, u64, u64, Vec<u64>, CollectSink), (CfpError, u64, u64)> {
        let recoder = ItemRecoder::scan(db, min_support);
        let n = recoder.num_items();
        if n == 0 {
            // Nothing frequent: the empty result is exact. (The original
            // failure was necessarily transient — e.g. injected.)
            return Ok((MineStats::default(), 0, 0, Vec::new(), CollectSink::new()));
        }
        // Initial partition count from the failure itself: aim for
        // projections of at most half the budget. For non-memory causes
        // start at 2.
        let k0 = match *cause {
            CfpError::MemoryExhausted { footprint, limit, .. } if limit > 0 => {
                (2 * footprint).div_ceil(limit).max(2) as usize
            }
            _ => 2,
        };
        let condensed = self.output.is_condensed();
        // Top-k needs the global view: mine every partition in full and
        // select the winners at the end. Condensed modes mine condensed
        // per partition and reconcile below.
        let proj_output = match self.output {
            OutputMode::TopK(_) => OutputMode::All,
            other => other,
        };
        let mut queue: VecDeque<(u32, u32)> = ranges_by_mass(&recoder, k0.min(n)).into();
        if condensed {
            // Descending item ranges reproduce the sequential top-item
            // order, so every cross-partition subsumer is buffered before
            // the candidates it subsumes (a superset's maximal item is ≥
            // the candidate's).
            queue.make_contiguous().reverse();
        }

        let mut buf = CollectSink::new();
        let mut stats = MineStats::default();
        let mut peaks: Vec<u64> = Vec::new();
        let mut reclaimed = 0u64;
        let mut mined = 0u64;
        while let Some((lo, hi)) = queue.pop_front() {
            if self.cancelled() {
                return Err((CfpError::Interrupted, mined, reclaimed));
            }
            let proj = project(db, &recoder, lo, hi);
            let pool = self.mem_budget.map(BudgetPool::new);
            let opts = MineOpts {
                pool: pool.clone(),
                compact_on_pressure: true,
                cancel: self.cancel.clone(),
                output: proj_output,
                ..Default::default()
            };
            let mut fsink = RangeFilterSink { inner: &mut buf, recoder: &recoder, lo, hi };
            let r = driver::run(&proj, min_support, &mut fsink, self.plan(), &opts);
            if let Some(p) = &pool {
                reclaimed += p.compact_reclaimed();
            }
            match r {
                Ok(s) => {
                    mined += 1;
                    peaks.push(pool.map(|p| p.peak()).unwrap_or(s.peak_bytes));
                    stats.itemsets += s.itemsets;
                    stats.scan_time += s.scan_time;
                    stats.build_time += s.build_time;
                    stats.convert_time += s.convert_time;
                    stats.mine_time += s.mine_time;
                    stats.tree_nodes += s.tree_nodes;
                    stats.peak_bytes = stats.peak_bytes.max(s.peak_bytes);
                    stats.avg_bytes = stats.avg_bytes.max(s.avg_bytes);
                }
                Err(CfpError::MemoryExhausted { .. }) if hi - lo > 1 => {
                    // Too big even projected: halve the range and requeue
                    // both parts. The failed attempt may already have
                    // buffered part of this range's output — retract it
                    // so the halves re-mine without duplication.
                    retract_range(&mut buf, &recoder, lo, hi);
                    let mid = lo + (hi - lo) / 2;
                    if condensed {
                        // Keep the queue strictly descending.
                        queue.push_front((lo, mid));
                        queue.push_front((mid, hi));
                    } else {
                        queue.push_front((mid, hi));
                        queue.push_front((lo, mid));
                    }
                }
                Err(e) => return Err((e, mined, reclaimed)),
            }
        }
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_PARTITIONS.record(mined);
        }
        finalize_output(self.output, &mut buf);
        // itemsets counted by the projection miners include filtered-out
        // emissions; the buffered (kept) count is the real one.
        stats.itemsets = buf.itemsets.len() as u64;
        stats.worker_peaks = peaks.clone();
        Ok((stats, mined, reclaimed, peaks, buf))
    }

    /// Runs the out-of-core spill rung directly, without first climbing
    /// the in-memory rungs — for callers that already know the dataset
    /// must go through disk (and for differential testing of the rung in
    /// isolation). Output, exactness, and reporting match a
    /// [`mine`](Supervisor::mine) run whose ladder ends in the spill
    /// rung.
    pub fn mine_out_of_core(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
    ) -> (Result<MineStats, CfpError>, RecoveryReport) {
        self.out_of_core_impl(db, min_support, sink, false, None)
    }

    /// The checkpointable spin on [`mine_out_of_core`]
    /// (Supervisor::mine_out_of_core): output is **streamed** to `sink`
    /// partition by partition instead of buffered for the whole run, and
    /// after each completed partition the sink receives a
    /// [`cfp_data::MineProgress::SpillParts`] notification carrying the
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
        self.out_of_core_impl(db, min_support, sink, true, resume)
    }

    #[allow(clippy::type_complexity)]
    fn out_of_core_impl(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        stream: bool,
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
        let mut report = RecoveryReport {
            policy: RecoveryPolicy::Spill.name().to_string(),
            ..Default::default()
        };
        let _s = span(Phase::Recover);
        rung_started(cfp_trace::Rung::Spill);
        let cause = CfpError::MemoryExhausted {
            phase: "build",
            requested: 0,
            footprint: 0,
            limit: self.mem_budget.unwrap_or(0),
        };
        // Each branch consumes `sink` exactly once: streaming hands it to
        // the rung, buffering flushes into it afterwards.
        let r = if stream {
            self.spill_rung(db, min_support, &cause, Some(sink), resume)
        } else {
            self.spill_rung(db, min_support, &cause, None, resume).map(
                |(stats, partitions, reclaimed, peaks, buf)| {
                    flush(buf, sink);
                    (stats, partitions, reclaimed, peaks, CollectSink::new())
                },
            )
        };
        match r {
            Ok((stats, partitions, reclaimed, peaks, _buf)) => {
                report.rungs.push(RungReport {
                    rung: "spill",
                    succeeded: true,
                    reclaimed_bytes: reclaimed,
                    partitions,
                    error: None,
                });
                report.recovered = true;
                report.final_partitions = partitions;
                report.partition_peaks = peaks;
                (Ok(stats), report)
            }
            Err((e, partitions, reclaimed)) => {
                report.rungs.push(RungReport {
                    rung: "spill",
                    succeeded: false,
                    reclaimed_bytes: reclaimed,
                    partitions,
                    error: Some(e.to_string()),
                });
                (Err(e), report)
            }
        }
    }

    /// The spill rung: out-of-core partitioned mining.
    ///
    /// **Spill phase** — each queued item range is projected, its
    /// CFP-tree built and converted under a fresh budget pool, and the
    /// resulting array written to a crash-safe spill file
    /// ([`cfp_data::spill::write_atomic`]); tree and array are dropped
    /// before the next range, so at most one partition's structures are
    /// in RAM. A range whose *tree* already busts the budget is halved
    /// and requeued, exactly like the in-memory partition rung.
    ///
    /// **Mine phase** — each spill file is loaded back as one shared
    /// buffer, charged to the pool as external [`Component::Spill`]
    /// memory, and mined zero-copy through [`CfpArray::from_bytes`]
    /// (cfp_array::CfpArray::from_bytes) with a max-item range filter.
    /// Oversized conditional arrays round-trip through the same spill
    /// directory ([`CondSpill`]). A partition whose *conditional*
    /// structures bust the budget has its buffered output discarded, its
    /// file deleted, and its halves sent back through the spill phase.
    ///
    /// Exactness is the partition rung's Grahne & Zhu argument
    /// unchanged: the on-disk detour is a checksummed identity
    /// transformation of each partition's array. All spill state lives
    /// in one [`SpillDir`] removed on every exit path; a worker panic is
    /// contained to a structured [`CfpError::WorkerPanic`].
    #[allow(clippy::type_complexity)]
    fn spill_rung(
        &self,
        db: &TransactionDb,
        min_support: u64,
        cause: &CfpError,
        mut stream: Option<&mut dyn ItemsetSink>,
        resume: Option<(u64, Vec<(u32, u32)>)>,
    ) -> Result<(MineStats, u64, u64, Vec<u64>, CollectSink), (CfpError, u64, u64)> {
        let recoder = ItemRecoder::scan(db, min_support);
        let n = recoder.num_items();
        if n == 0 {
            return Ok((MineStats::default(), 0, 0, Vec::new(), CollectSink::new()));
        }
        let condensed = self.output.is_condensed();
        let proj_output = match self.output {
            OutputMode::TopK(_) => OutputMode::All,
            other => other,
        };
        // Cross-partition reconciliation state: condensed candidates are
        // checked (then inserted) in descending-range order, so every
        // possible subsumer is already indexed; top-k offers accumulate
        // into one global heap drained after the last partition.
        let mut recon = condensed.then(SubsumeIndex::default);
        let topk_state = match self.output {
            OutputMode::TopK(k) => Some(TopKState::new(k)),
            _ => None,
        };
        let k0 = match *cause {
            CfpError::MemoryExhausted { footprint, limit, .. } if limit > 0 => {
                (2 * footprint).div_ceil(limit).max(2) as usize
            }
            _ => 2,
        };
        let done0 = resume.as_ref().map(|(done, _)| *done).unwrap_or(0);
        let parent = self.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let dir = match SpillDir::create(&parent) {
            Ok(d) => Arc::new(d),
            Err(e) => {
                return Err((
                    CfpError::Spill {
                        op: "write",
                        path: parent.display().to_string(),
                        message: e.to_string(),
                    },
                    0,
                    0,
                ))
            }
        };
        // Conditional arrays above a quarter of the budget follow the
        // partitions to disk; without a budget nothing is oversized.
        let cond_spill = self.mem_budget.map(|b| CondSpill::new(Arc::clone(&dir), (b / 4).max(1)));

        let mut ranges: VecDeque<(u32, u32)> = match resume {
            Some((_, remaining)) => remaining.into(),
            None => {
                let mut r: VecDeque<(u32, u32)> = ranges_by_mass(&recoder, k0.min(n)).into();
                if condensed {
                    // Highest ranges first: the sequential top-item order,
                    // which makes the per-partition reconcile exact.
                    r.make_contiguous().reverse();
                }
                r
            }
        };
        let mut entries: VecDeque<SpillEntry> = VecDeque::new();
        let mut buf = CollectSink::new();
        let mut stats = MineStats::default();
        let mut peaks: Vec<u64> = Vec::new();
        let mut reclaimed = 0u64;
        let mut mined = 0u64;
        let mut emitted = 0u64;
        let mut seq = 0u64;
        loop {
            // Spill phase: write every queued range's array to disk.
            while let Some((lo, hi)) = ranges.pop_front() {
                if self.cancelled() {
                    return Err((CfpError::Interrupted, mined, reclaimed));
                }
                let proj_t0 = cfp_trace::hist::maybe_now();
                let proj = project(db, &recoder, lo, hi);
                let pool = self.mem_budget.map(BudgetPool::new);
                let built = crate::growth::try_build_tree_with(
                    &proj,
                    min_support,
                    cfp_memman::ArenaOptions {
                        pool: pool.clone(),
                        compact_on_pressure: true,
                        component: Component::BuildTree,
                        ..Default::default()
                    },
                );
                if let Some(p) = &pool {
                    reclaimed += p.compact_reclaimed();
                }
                match built {
                    Ok((proj_recoder, tree)) => {
                        stats.tree_nodes += tree.num_nodes();
                        let array = convert(&tree);
                        drop(tree);
                        let globals: Arc<[Item]> = (0..proj_recoder.num_items() as u32)
                            .map(|i| proj_recoder.original(i))
                            .collect();
                        cfp_trace::hist::record_since(
                            &cfp_trace::hist::CORE_SPILL_PROJECT_NANOS,
                            proj_t0,
                        );
                        let name = format!("p{seq}.cfpa");
                        seq += 1;
                        let bytes = write_spill_array(&dir.file(&name), &array)
                            .map_err(|e| (e, mined, reclaimed))?;
                        entries.push_back(SpillEntry { name, lo, hi, globals, bytes });
                        if cfp_trace::enabled() {
                            // Live denominator for the progress
                            // heartbeat's `spill k/n` (grows when a
                            // too-big partition is halved and respilled).
                            cfp_trace::counters::CORE_SPILL_PARTITIONS.record(seq);
                        }
                    }
                    Err(CfpError::MemoryExhausted { .. }) if hi - lo > 1 => {
                        let mid = lo + (hi - lo) / 2;
                        if condensed {
                            ranges.push_front((lo, mid));
                            ranges.push_front((mid, hi));
                        } else {
                            ranges.push_front((mid, hi));
                            ranges.push_front((lo, mid));
                        }
                    }
                    Err(e) => return Err((e, mined, reclaimed)),
                }
            }
            if condensed {
                // A mine-phase halving re-enters the spill phase and
                // appends its halves behind pending entries; restore the
                // strict descending-range mining order the reconcile
                // relies on (already-mined partitions all sit above any
                // requeued half, so the global order stays descending).
                entries.make_contiguous().sort_by_key(|e| std::cmp::Reverse(e.lo));
            }
            // Mine phase: load each file back and mine it zero-copy.
            // Output goes through a per-partition buffer so a halved
            // failure simply drops its partial output, and a streaming
            // caller only ever sees whole partitions.
            while let Some(entry) = entries.pop_front() {
                if self.cancelled() {
                    return Err((CfpError::Interrupted, mined, reclaimed));
                }
                let SpillEntry { name, lo, hi, globals, bytes: _ } = &entry;
                let path = dir.file(name);
                let pool = self.mem_budget.map(BudgetPool::new);
                let opts = MineOpts {
                    pool: pool.clone(),
                    compact_on_pressure: true,
                    cond_spill: cond_spill.clone(),
                    cancel: self.cancel.clone(),
                    output: proj_output,
                    ..Default::default()
                };
                let mut part_buf = CollectSink::new();
                let mine_t0 = cfp_trace::hist::maybe_now();
                let r = load_spill_array(&path).and_then(|(array, loaded_bytes)| {
                    let _spill_charge =
                        ArrayCharge::with_component(pool.clone(), Component::Spill, loaded_bytes);
                    let mut fsink = RangeFilterSink {
                        inner: &mut part_buf,
                        recoder: &recoder,
                        lo: *lo,
                        hi: *hi,
                    };
                    // Condensed subsumption inside the partition is exact
                    // (the projection preserves global supports); cross-
                    // partition false accepts are reconciled below.
                    driver::mine(
                        Arc::new(array),
                        Arc::clone(globals),
                        min_support,
                        &mut fsink,
                        self.plan(),
                        &opts,
                    )
                });
                cfp_trace::hist::record_since(&cfp_trace::hist::CORE_SPILL_MINE_NANOS, mine_t0);
                if let Some(p) = &pool {
                    reclaimed += p.compact_reclaimed();
                }
                match r {
                    Ok(_) => {
                        dir.remove(name);
                        mined += 1;
                        if cfp_trace::enabled() {
                            cfp_trace::counters::CORE_SPILL_PARTS_DONE.inc();
                        }
                        peaks.push(pool.map(|p| p.peak()).unwrap_or(0));
                        if let Some(index) = &mut recon {
                            // Drop candidates subsumed by an earlier
                            // (higher-range) partition; survivors join
                            // the index for the partitions below.
                            let by_support = self.output == OutputMode::Closed;
                            part_buf.itemsets.retain(|(set, support)| {
                                let want = by_support.then_some(*support);
                                if index.subsumes(set, want) {
                                    return false;
                                }
                                index.insert(set, *support);
                                true
                            });
                        }
                        if let Some(state) = &topk_state {
                            // Winners drain once the global set is final.
                            for (set, support) in &part_buf.itemsets {
                                state.offer(set, *support);
                            }
                            part_buf.itemsets.clear();
                        }
                        emitted += part_buf.itemsets.len() as u64;
                        match &mut stream {
                            Some(sink) => {
                                for (itemset, support) in &part_buf.itemsets {
                                    sink.emit(itemset, *support);
                                }
                                let remaining: Vec<(u32, u32)> = entries
                                    .iter()
                                    .map(|e| (e.lo, e.hi))
                                    .chain(ranges.iter().copied())
                                    .collect();
                                let emit_t0 = cfp_trace::hist::maybe_now();
                                let sent = sink.progress(cfp_data::MineProgress::SpillParts {
                                    done: done0 + mined,
                                    remaining: &remaining,
                                });
                                cfp_trace::hist::record_since(
                                    &cfp_trace::hist::CORE_EMIT_NANOS,
                                    emit_t0,
                                );
                                if let Err(e) = sent {
                                    return Err((e, mined, reclaimed));
                                }
                            }
                            None => buf.itemsets.append(&mut part_buf.itemsets),
                        }
                    }
                    Err(CfpError::MemoryExhausted { .. }) if hi - lo > 1 => {
                        // Conditional structures still too big: drop the
                        // partial output with its buffer, drop the file,
                        // and send both halves back through the spill
                        // phase.
                        dir.remove(name);
                        let mid = lo + (hi - lo) / 2;
                        ranges.push_back((*lo, mid));
                        ranges.push_back((mid, *hi));
                    }
                    Err(e) => return Err((e, mined, reclaimed)),
                }
            }
            if ranges.is_empty() {
                break;
            }
        }
        if let Some(state) = &topk_state {
            let winners = state.drain_sorted();
            emitted += winners.len() as u64;
            match &mut stream {
                Some(sink) => {
                    for (set, support) in &winners {
                        sink.emit(set, *support);
                    }
                }
                None => buf.itemsets.extend(winners),
            }
        }
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_SPILL_PARTITIONS.record(mined);
        }
        stats.itemsets = emitted;
        stats.peak_bytes = peaks.iter().copied().max().unwrap_or(0);
        stats.worker_peaks = peaks.clone();
        Ok((stats, mined, reclaimed, peaks, buf))
    }
}

/// One partition's spill file, between the spill and mine phases.
struct SpillEntry {
    /// File name inside the run's [`SpillDir`].
    name: String,
    /// Global recoded item range `[lo, hi)` this partition covers.
    lo: u32,
    /// Exclusive upper bound of the range.
    hi: u32,
    /// The projection's local-id → original-item map, captured at build
    /// time (the database is not consulted again during the mine phase).
    globals: Arc<[Item]>,
    /// On-disk byte size (recorded for reporting; the mine phase charges
    /// the actual loaded size).
    #[allow(dead_code)]
    bytes: u64,
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

/// Post-processes a partitioned rung's buffered output for the run's
/// output mode. Condensed modes replay the buffer — accumulated in
/// descending range order — against one global subsumption index,
/// dropping candidates whose subsumer lives in an earlier (higher)
/// partition; same-partition subsumption was already handled by that
/// partition's local index. Top-k replaces the buffer with the k
/// best-supported itemsets under the deterministic (support desc, set
/// lex asc) order.
fn finalize_output(output: OutputMode, buf: &mut CollectSink) {
    match output {
        OutputMode::All => {}
        OutputMode::Closed | OutputMode::Maximal => {
            let closed = output == OutputMode::Closed;
            let mut index = SubsumeIndex::default();
            buf.itemsets.retain(|(set, support)| {
                let want = if closed { Some(*support) } else { None };
                if index.subsumes(set, want) {
                    return false;
                }
                index.insert(set, *support);
                true
            });
        }
        OutputMode::TopK(k) => {
            let state = TopKState::new(k);
            for (set, support) in &buf.itemsets {
                state.offer(set, *support);
            }
            buf.itemsets = state.drain_sorted();
        }
    }
}

/// Drops buffered itemsets whose maximal recoded item lies in `[lo, hi)`
/// — used to undo the partial output of a failed partition attempt
/// before the halved ranges re-mine it.
fn retract_range(buf: &mut CollectSink, recoder: &ItemRecoder, lo: u32, hi: u32) {
    buf.itemsets.retain(|(itemset, _)| {
        let max = itemset.iter().filter_map(|&it| recoder.recode(it)).max();
        !matches!(max, Some(m) if lo <= m && m < hi)
    });
}

/// Forwards only itemsets whose *maximal* global-recoded item falls in
/// `[lo, hi)` — the disjointness filter of the partition rung.
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
}
