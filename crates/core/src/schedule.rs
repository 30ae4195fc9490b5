//! Mine-phase scheduling: how first-level item tasks reach the workers.
//!
//! The mine phase decomposes into one independent task per first-level
//! item, but task costs are wildly skewed: a few high-support items own
//! most of the CFP-array and dominate the conditional recursion, exactly
//! the imbalance FIMI datasets exhibit. A fixed round-robin deal would
//! leave whichever worker drew the heavy items finishing last while the
//! rest idle.
//!
//! [`TaskQueue`] hands out tasks by dynamic claiming instead: items are
//! sorted heaviest-first by an O(1) cost estimate (the encoded byte length
//! of each item's subarray, straight from [`cfp_array::CfpArray::starts`])
//! and workers pull from a shared cursor. Heavy items are claimed one at a
//! time — the longest-processing-time-first greedy rule, which keeps the
//! completion-time spread within one task of optimal — while the cheap
//! tail is claimed in chunks so the cursor is not hammered once per
//! trivial item. A lone worker has nothing to balance: its queue runs in
//! emission order, so every task it mines is the one the ordered emitter
//! is waiting for.

use cfp_array::CfpArray;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How first-level items are distributed to mine-phase workers. There is
/// one schedule; the type remains so callers and the CLI can name it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Workers claim cost-sorted items from a shared queue and recycle
    /// one arena across conditional trees. Results are emitted in
    /// descending item order — byte-for-byte identical at every thread
    /// count.
    #[default]
    Dynamic,
}

impl Schedule {
    /// The flag spelling of this schedule.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Dynamic => "dynamic",
        }
    }
}

impl FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dynamic" => Ok(Schedule::Dynamic),
            other => Err(format!("unknown schedule '{other}' (expected dynamic)")),
        }
    }
}

/// Cheap items are claimed in runs of this many to amortise the cursor
/// CAS; heavy items always go one at a time.
const CHUNK: usize = 8;

/// A shared, lock-free queue of first-level item tasks, sorted
/// heaviest-first (or in emission order for a lone worker).
///
/// The queue is a sorted vector plus an atomic cursor: claiming is a
/// compare-and-swap advancing the cursor by one (heavy task) or up to
/// [`CHUNK`] (cheap tail). Nothing is ever pushed back, so ABA problems
/// cannot arise and no locks are needed.
pub(crate) struct TaskQueue {
    /// First-level items in claim order.
    order: Vec<u32>,
    /// Estimated cost of `order[i]`: the item's encoded subarray bytes.
    costs: Vec<u64>,
    /// Next unclaimed position in `order`.
    cursor: AtomicUsize,
    /// Costs strictly above this claim singly; the rest claim chunked.
    heavy_threshold: u64,
}

impl TaskQueue {
    /// Builds the queue for every first-level item of `array`.
    #[cfg(test)]
    pub fn new(array: &CfpArray) -> Self {
        Self::with_limit(array, array.num_items() as u32)
    }

    /// Builds the queue for items `0 .. max_item` only.
    #[cfg(test)]
    pub fn with_limit(array: &CfpArray, max_item: u32) -> Self {
        Self::with_items(array, 0, max_item)
    }

    /// Builds the queue for items `first .. max_item` only. Items from
    /// `max_item` up were fully emitted by a previous run (mining walks
    /// items in descending order) and must not be re-claimed; items below
    /// `first` are mined only inside the itemsets of the items above, as
    /// a partition's context items are.
    pub fn with_items(array: &CfpArray, first: u32, max_item: u32) -> Self {
        let n = (array.num_items() as u32).min(max_item);
        let mut order: Vec<u32> = (first.min(n)..n).collect();
        // Heaviest first; descending item id on ties keeps the order (and
        // therefore chunk boundaries) deterministic across runs.
        order.sort_by_key(|&item| {
            (std::cmp::Reverse(array.subarray_bytes(item)), std::cmp::Reverse(item))
        });
        let costs: Vec<u64> = order.iter().map(|&item| array.subarray_bytes(item)).collect();
        let total: u64 = costs.iter().sum();
        let heavy_threshold = if costs.is_empty() { 0 } else { total / costs.len() as u64 };
        TaskQueue { order, costs, cursor: AtomicUsize::new(0), heavy_threshold }
    }

    /// The queue `workers` workers claim items `first .. max_item` from:
    /// heaviest first ([`with_items`](Self::with_items)) to balance
    /// several workers; in emission order (descending item id) for one,
    /// which has nothing to balance and so streams every task straight
    /// through the ordered emitter instead of buffering it.
    pub fn for_workers(array: &CfpArray, first: u32, max_item: u32, workers: usize) -> Self {
        let mut queue = Self::with_items(array, first, max_item);
        if workers == 1 {
            queue.order.sort_unstable_by(|a, b| b.cmp(a));
            queue.costs = queue.order.iter().map(|&item| array.subarray_bytes(item)).collect();
        }
        queue
    }

    /// Number of item tasks in the queue.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// The item at queue position `slot`.
    pub fn item(&self, slot: usize) -> u32 {
        self.order[slot]
    }

    /// The estimated cost of the task at queue position `slot`.
    pub fn cost(&self, slot: usize) -> u64 {
        self.costs[slot]
    }

    /// Claims the next run of tasks: returns the half-open slot range
    /// `[start, start + len)`, or `None` when the queue is drained.
    ///
    /// A task costing strictly more than the mean claims alone, so a
    /// worker stuck on it cannot also hold cheap items hostage; once the
    /// cursor reaches the cheap tail, claims widen to [`CHUNK`].
    pub fn claim(&self) -> Option<(usize, usize)> {
        loop {
            let start = self.cursor.load(Ordering::Relaxed);
            if start >= self.order.len() {
                return None;
            }
            let want = if self.costs[start] > self.heavy_threshold {
                1
            } else {
                CHUNK.min(self.order.len() - start)
            };
            if self
                .cursor
                .compare_exchange_weak(start, start + want, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Some((start, want));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::TransactionDb;

    fn queue_for(rows: &[Vec<u32>], minsup: u64) -> TaskQueue {
        let (_, tree) =
            crate::growth::try_build_tree(&TransactionDb::from_rows(rows), minsup, None)
                .expect("build");
        TaskQueue::new(&cfp_array::convert(&tree))
    }

    #[test]
    fn schedule_parses_and_round_trips() {
        assert_eq!("dynamic".parse::<Schedule>().unwrap(), Schedule::Dynamic);
        assert!("static".parse::<Schedule>().is_err(), "the static schedule is gone");
        assert!("fifo".parse::<Schedule>().is_err());
        assert_eq!(Schedule::default(), Schedule::Dynamic);
        assert_eq!(Schedule::Dynamic.name().parse::<Schedule>().unwrap(), Schedule::Dynamic);
    }

    #[test]
    fn a_lone_worker_claims_in_emission_order() {
        let rows = [vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![1], vec![2, 3, 4], vec![3]];
        let (_, tree) =
            crate::growth::try_build_tree(&TransactionDb::from_rows(&rows), 1, None).unwrap();
        let array = cfp_array::convert(&tree);
        let q = TaskQueue::for_workers(&array, 0, 4, 1);
        assert_eq!(q.order, [3, 2, 1, 0], "descending item id is the emission order");
        for (slot, &item) in q.order.iter().enumerate() {
            assert_eq!(q.cost(slot), array.subarray_bytes(item));
        }
        let balanced = TaskQueue::for_workers(&array, 0, 4, 2);
        assert_eq!(balanced.order, TaskQueue::with_limit(&array, 4).order);
    }

    #[test]
    fn a_first_item_leaves_the_items_below_it_unclaimed() {
        let rows = [vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![1], vec![2, 3, 4], vec![3]];
        let (_, tree) =
            crate::growth::try_build_tree(&TransactionDb::from_rows(&rows), 1, None).unwrap();
        let array = cfp_array::convert(&tree);
        assert_eq!(TaskQueue::for_workers(&array, 2, 4, 1).order, [3, 2]);
        let mut balanced = TaskQueue::for_workers(&array, 2, 4, 2).order;
        balanced.sort_unstable();
        assert_eq!(balanced, [2, 3]);
        assert_eq!(TaskQueue::for_workers(&array, 3, 2, 1).len(), 0, "first above the limit");
    }

    #[test]
    fn queue_is_sorted_heaviest_first_and_covers_every_item() {
        let q = queue_for(
            &[vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![1], vec![2, 3, 4], vec![3]],
            1,
        );
        for w in q.costs.windows(2) {
            assert!(w[0] >= w[1], "queue not sorted by descending cost: {:?}", q.costs);
        }
        let mut items: Vec<u32> = q.order.clone();
        items.sort_unstable();
        assert_eq!(items, (0..q.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn claims_drain_the_queue_exactly_once() {
        let q = queue_for(&vec![vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]; 3], 1);
        let mut seen = vec![false; q.len()];
        while let Some((start, len)) = q.claim() {
            for (slot, claimed) in seen.iter_mut().enumerate().skip(start).take(len) {
                assert!(!*claimed, "slot {slot} claimed twice");
                *claimed = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "queue drained with unclaimed slots");
        assert!(q.claim().is_none(), "drained queue must stay drained");
    }

    #[test]
    fn limited_queue_excludes_completed_items() {
        let (_, tree) = crate::growth::try_build_tree(
            &TransactionDb::from_rows(&vec![vec![0u32, 1, 2, 3, 4, 5]; 3]),
            1,
            None,
        )
        .unwrap();
        let array = cfp_array::convert(&tree);
        let q = TaskQueue::with_limit(&array, 4);
        assert_eq!(q.len(), 4);
        let mut items: Vec<u32> = q.order.clone();
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2, 3], "items ≥ max_item are already mined");
        let q = TaskQueue::with_limit(&array, 99);
        assert_eq!(q.len(), array.num_items(), "limit clamps to the item count");
    }

    #[test]
    fn empty_array_yields_no_claims() {
        let (_, tree) = crate::growth::try_build_tree(&TransactionDb::new(), 1, None).unwrap();
        let q = TaskQueue::new(&cfp_array::convert(&tree));
        assert_eq!(q.len(), 0);
        assert!(q.claim().is_none());
    }

    #[test]
    fn concurrent_claims_partition_the_queue() {
        let q = std::sync::Arc::new(queue_for(&vec![(0..32u32).collect::<Vec<_>>(); 4], 1));
        let claimed: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let q = std::sync::Arc::clone(&q);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some((start, len)) = q.claim() {
                            mine.extend(start..start + len);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..q.len()).collect::<Vec<_>>(), "claims must partition the slots");
    }
}
