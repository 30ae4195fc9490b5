//! Parallel CFP-growth: the mining driver with `threads` mine-phase
//! workers.
//!
//! The mine phase of FP-growth decomposes naturally: the recursion rooted
//! at each first-level item touches only that item's subarray and the
//! subarrays of more frequent items — all reads. The paper's related-work
//! section (§5, class 4) surveys parallel and distributed FP-growth built
//! on exactly this independence; the driver exploits it with worker
//! threads over one shared, immutable initial
//! [`CfpArray`](cfp_array::CfpArray), and emits their results in the
//! order a single recursion would — so this miner's output is
//! byte-identical to [`CfpGrowthMiner`](crate::CfpGrowthMiner)'s at any
//! thread count, and every knob means the same thing at any thread count
//! too.

use crate::driver::{self, Plan};
use crate::growth::MineOpts;
use crate::schedule::Schedule;
use cfp_data::{CfpError, ItemsetSink, MineStats, Miner, OutputMode, TransactionDb};
use cfp_memman::BudgetPool;
use std::time::Duration;

/// Multi-threaded CFP-growth over a shared initial CFP-array.
#[derive(Clone, Debug)]
pub struct ParallelCfpGrowthMiner {
    /// Number of mine-phase worker threads (0 counts as 1).
    pub threads: usize,
    /// The run's byte cap: one pool shared between the initial tree's
    /// arena and every worker's conditional trees. Exceeding it surfaces
    /// as [`CfpError::MemoryExhausted`] from [`Miner::try_mine`] (or a
    /// panic from the infallible [`Miner::mine`]); the caller keeps a
    /// clone to read the pool's peak and per-component gauges after the
    /// run.
    pub pool: Option<BudgetPool>,
    /// Watchdog limit: fail with [`CfpError::WorkerTimeout`] when no
    /// worker makes progress for this long. `None` disables it.
    pub worker_timeout: Option<Duration>,
    /// How first-level items are distributed to workers (there is one
    /// schedule).
    pub schedule: Schedule,
    /// Cooperative cancellation, polled by every worker at task
    /// boundaries and by the ordered emitter between first-level items.
    /// When it fires the run stops at the next watermark and returns
    /// [`CfpError::Interrupted`] if any item remains unmined.
    pub cancel: Option<cfp_fault::CancelToken>,
    /// Resume support: the `resume_skip` highest first-level items were
    /// fully emitted by a previous run. They are excluded from the task
    /// queue and the ordered emitter starts below them, so this run's
    /// output continues byte-exactly where the previous one stopped.
    /// In condensed modes the skipped items are still scheduled (their
    /// itemsets seed the reconcile index) but reconciled silently.
    pub resume_skip: u64,
    /// What the run emits: every frequent itemset, only closed or
    /// maximal ones, or the top-k by support. Condensed modes mine with
    /// per-task local state and reconcile at the ordered emitter, so the
    /// output stream is the same for every thread count.
    pub output: OutputMode,
}

impl ParallelCfpGrowthMiner {
    /// A parallel miner with the given worker count.
    pub fn new(threads: usize) -> Self {
        ParallelCfpGrowthMiner {
            threads,
            pool: None,
            worker_timeout: None,
            schedule: Schedule::default(),
            cancel: None,
            resume_skip: 0,
            output: OutputMode::default(),
        }
    }
}

impl Miner for ParallelCfpGrowthMiner {
    fn name(&self) -> &'static str {
        "cfp-growth-parallel"
    }

    fn mine(&self, db: &TransactionDb, min_support: u64, sink: &mut dyn ItemsetSink) -> MineStats {
        self.try_mine(db, min_support, sink).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible mine with worker containment: a panic inside any worker
    /// is caught at the thread boundary, a shared poison flag cancels the
    /// remaining workers at their next work item, and the first failure
    /// comes back as [`CfpError::WorkerPanic`],
    /// [`CfpError::MemoryExhausted`], or [`CfpError::WorkerTimeout`] —
    /// the process and the caller's sink survive (the sink may have
    /// received a partial result stream).
    fn try_mine(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
    ) -> Result<MineStats, CfpError> {
        let plan = Plan { threads: self.threads, worker_timeout: self.worker_timeout };
        let opts = MineOpts {
            pool: self.pool.clone(),
            cancel: self.cancel.clone(),
            resume_skip: self.resume_skip,
            output: self.output,
            ..Default::default()
        };
        driver::run(db, &driver::count(db, min_support), sink, plan, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfpGrowthMiner;
    use cfp_data::miner::{CollectSink, CountingSink};
    use cfp_data::{profiles, Item};
    use cfp_memman::Component;

    fn sorted(miner: &dyn Miner, db: &TransactionDb, minsup: u64) -> Vec<(Vec<Item>, u64)> {
        let mut sink = CollectSink::new();
        miner.mine(db, minsup, &mut sink);
        sink.into_sorted()
    }

    #[test]
    fn parallel_matches_sequential_on_textbook_example() {
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
        let seq = sorted(&CfpGrowthMiner::new(), &db, 2);
        for threads in [2, 3, 8] {
            assert_eq!(sorted(&ParallelCfpGrowthMiner::new(threads), &db, 2), seq, "{threads}");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_a_profile() {
        let p = profiles::by_name("retail-like").unwrap();
        let db = p.generate();
        let minsup = p.absolute_support(&db, 1);
        let mut seq = CountingSink::new();
        CfpGrowthMiner::new().mine(&db, minsup, &mut seq);
        let mut par = CountingSink::new();
        let stats = ParallelCfpGrowthMiner::new(4).mine(&db, minsup, &mut par);
        assert_eq!(
            (seq.count, seq.support_sum, seq.item_sum),
            (par.count, par.support_sum, par.item_sum)
        );
        assert_eq!(stats.itemsets, par.count);
        assert!(stats.peak_bytes > 0);
    }

    #[test]
    fn dynamic_schedule_emits_in_exact_sequential_order() {
        // Not just the same multiset: the same stream. The ordered
        // emitter replays per-item buffers in descending item order,
        // which is exactly the sequential `for item in (0..n).rev()`.
        let p = profiles::by_name("retail-like").unwrap();
        let db = p.generate();
        let minsup = p.absolute_support(&db, 2);
        let mut seq = CollectSink::new();
        CfpGrowthMiner::new().mine(&db, minsup, &mut seq);
        for threads in [2, 3, 8] {
            let mut par = CollectSink::new();
            ParallelCfpGrowthMiner::new(threads).mine(&db, minsup, &mut par);
            assert_eq!(
                par.itemsets, seq.itemsets,
                "dynamic {threads}-thread emission order diverged from sequential"
            );
        }
    }

    #[test]
    fn one_thread_matches_the_sequential_miner() {
        let db = TransactionDb::from_rows(&[vec![1, 2], vec![1, 2], vec![2, 3]]);
        let a = sorted(&ParallelCfpGrowthMiner::new(1), &db, 1);
        let b = sorted(&CfpGrowthMiner::new(), &db, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let db = TransactionDb::from_rows(&[vec![1, 2], vec![1]]);
        let got = sorted(&ParallelCfpGrowthMiner::new(64), &db, 1);
        assert_eq!(got, sorted(&CfpGrowthMiner::new(), &db, 1));
    }

    #[test]
    fn empty_database() {
        let db = TransactionDb::new();
        let mut sink = CollectSink::new();
        let stats = ParallelCfpGrowthMiner::new(4).mine(&db, 1, &mut sink);
        assert_eq!(stats.itemsets, 0);
    }

    #[test]
    fn budget_is_one_shared_pool_not_per_worker_copies() {
        // The regression this guards: the run's budget used to cap only the
        // initial build, leaving every worker's conditional trees
        // unaccounted (t workers could oversubscribe the limit t-fold).
        // With the shared pool, the initial tree AND every conditional
        // tree of every worker reserve from one limit, which the pool's
        // conditional-tree component makes observable.
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut db = TransactionDb::new();
        for _ in 0..120 {
            let t: Vec<Item> = (0..16).filter(|_| rng.gen_bool(0.7)).collect();
            db.push(&t);
        }
        let (_, tree) = crate::growth::try_build_tree(&db, 1, None).expect("uncapped build");
        let build_charge = tree.arena_footprint() - 1; // offset 0 is the null byte
        drop(tree);

        let pool = BudgetPool::new(1 << 30);
        let miner =
            ParallelCfpGrowthMiner { pool: Some(pool.clone()), ..ParallelCfpGrowthMiner::new(4) };
        let mut a = CollectSink::new();
        miner.try_mine(&db, 1, &mut a).expect("generous pool");
        let mut b = CollectSink::new();
        CfpGrowthMiner::new().mine(&db, 1, &mut b);
        assert_eq!(a.into_sorted(), b.into_sorted());

        assert!(
            pool.component_peak(Component::CondTrees) > 0,
            "conditional trees must charge the shared pool"
        );
        assert_eq!(pool.used(), 0, "every arena must release its reservation on drop/reset");
        assert!(pool.peak() >= build_charge);
        assert!(pool.peak() <= pool.limit());
    }

    #[test]
    fn dynamic_schedule_reports_per_worker_tasks_and_costs() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut db = TransactionDb::new();
        for _ in 0..200 {
            let t: Vec<Item> = (0..24).filter(|_| rng.gen_bool(0.3)).collect();
            db.push(&t);
        }
        let mut sink = CountingSink::new();
        let stats = ParallelCfpGrowthMiner::new(4).mine(&db, 1, &mut sink);
        assert_eq!(stats.worker_tasks.len(), 4);
        assert_eq!(stats.worker_costs.len(), 4);
        // Every first-level item is claimed exactly once, by someone.
        let (_, tree) = crate::growth::try_build_tree(&db, 1, None).unwrap();
        let n = tree.num_items() as u64;
        assert_eq!(stats.worker_tasks.iter().sum::<u64>(), n);
    }

    #[test]
    fn parallel_resume_skip_continues_byte_exactly() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(777);
        let mut db = TransactionDb::new();
        for _ in 0..150 {
            let t: Vec<Item> = (0..20).filter(|_| rng.gen_bool(0.4)).collect();
            db.push(&t);
        }
        for skip in [0u64, 1, 5, 13, 1000] {
            let mut seq = CollectSink::new();
            let opts = MineOpts { resume_skip: skip, ..Default::default() };
            CfpGrowthMiner::new().try_mine_with(&db, 2, &mut seq, &opts).unwrap();
            for threads in [2, 4] {
                let miner = ParallelCfpGrowthMiner {
                    resume_skip: skip,
                    ..ParallelCfpGrowthMiner::new(threads)
                };
                let mut par = CollectSink::new();
                miner.try_mine(&db, 2, &mut par).unwrap();
                assert_eq!(
                    par.itemsets, seq.itemsets,
                    "resumed parallel stream must match resumed sequential (skip={skip}, \
                     threads={threads})"
                );
            }
        }
    }

    #[test]
    fn parallel_cancel_stops_at_a_watermark_and_resume_completes() {
        use cfp_data::MineProgress;
        use cfp_fault::CancelToken;

        struct CancellingSink {
            inner: CollectSink,
            cancel: CancelToken,
            after: u64,
            watermark: u64,
        }
        impl ItemsetSink for CancellingSink {
            fn emit(&mut self, itemset: &[Item], support: u64) {
                self.inner.emit(itemset, support);
            }
            fn progress(&mut self, p: MineProgress<'_>) -> Result<(), CfpError> {
                if let MineProgress::Items { done } = p {
                    self.watermark = done;
                    if done >= self.after {
                        self.cancel.cancel();
                    }
                }
                Ok(())
            }
        }

        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(2024);
        let mut db = TransactionDb::new();
        for _ in 0..200 {
            let t: Vec<Item> = (0..24).filter(|_| rng.gen_bool(0.4)).collect();
            db.push(&t);
        }
        let mut full = CollectSink::new();
        CfpGrowthMiner::new().try_mine(&db, 2, &mut full).unwrap();

        let cancel = CancelToken::new();
        let mut first = CancellingSink {
            inner: CollectSink::new(),
            cancel: cancel.clone(),
            after: 2,
            watermark: 0,
        };
        let miner =
            ParallelCfpGrowthMiner { cancel: Some(cancel), ..ParallelCfpGrowthMiner::new(4) };
        // The cancel lands on the caller thread mid-drain; workers may in
        // principle have finished everything already, in which case the
        // run legitimately completes. Either way the watermark contract
        // must hold: emitted = the first `watermark` items' stream.
        match miner.try_mine(&db, 2, &mut first) {
            Err(CfpError::Interrupted) => {
                let watermark = first.watermark;
                assert!(watermark >= 2, "cancel fires only past the trigger");
                let resume = ParallelCfpGrowthMiner {
                    resume_skip: watermark,
                    ..ParallelCfpGrowthMiner::new(4)
                };
                let mut second = CollectSink::new();
                resume.try_mine(&db, 2, &mut second).unwrap();
                let mut joined = first.inner.itemsets;
                joined.extend(second.itemsets);
                assert_eq!(
                    joined, full.itemsets,
                    "pre-cancel + post-resume must equal the uninterrupted stream"
                );
            }
            Ok(_) => {
                assert_eq!(first.inner.itemsets, full.itemsets, "a completed run is complete");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn watchdog_is_quiet_on_healthy_runs() {
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![1, 2, 4],
            vec![1, 2],
            vec![1, 3],
        ]);
        let miner = ParallelCfpGrowthMiner {
            worker_timeout: Some(Duration::from_secs(30)),
            ..ParallelCfpGrowthMiner::new(3)
        };
        let mut sink = CollectSink::new();
        miner.try_mine(&db, 1, &mut sink).expect("healthy run must not time out");
        assert_eq!(sink.into_sorted(), sorted(&CfpGrowthMiner::new(), &db, 1));
    }
}
