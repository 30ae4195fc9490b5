//! The first database scan: support counting and support-ordered recoding.
//!
//! FP-growth's first pass counts the support of every item; only frequent
//! items are retained, and the items of each transaction are then sorted in
//! descending order of support (§2.1). This module implements that pass and
//! the *recoding* used throughout the workspace: frequent items receive
//! dense new identifiers `0..n` assigned in descending support order (ties
//! broken by original id, so recoding is deterministic). Recoded ids have
//! two properties the compressed structures rely on:
//!
//! - sorting a transaction by descending support = sorting recoded ids
//!   ascending, and
//! - ids strictly increase along every root-to-leaf tree path, so the
//!   `Δitem` delta to the parent is always ≥ 1.

use crate::types::{Item, TransactionDb};
use cfp_metrics::HeapSize;

/// Adds one transaction to a growable support-count table (streaming
/// version of [`count_supports`]; duplicates within the transaction count
/// once).
pub fn count_transaction(transaction: &[Item], counts: &mut Vec<u64>) {
    if let Some(&max) = transaction.iter().max() {
        if counts.len() <= max as usize {
            counts.resize(max as usize + 1, 0);
        }
    }
    count_row(transaction, counts);
}

/// Counts the support of every item in `db`.
///
/// Returns a vector indexed by item id (length `max_item + 1`).
pub fn count_supports(db: &TransactionDb) -> Vec<u64> {
    let mut counts = vec![0u64; db.max_item().map_or(0, |m| m as usize + 1)];
    for t in db.iter() {
        count_row(t, &mut counts);
    }
    counts
}

/// Adds each distinct item of one transaction to `counts`, which covers
/// them all. A FIMI transaction may repeat an item; support counts
/// presence, not multiplicity. A strictly ascending row, the usual case,
/// has no repeats, so only other rows look for them, item by item.
fn count_row(transaction: &[Item], counts: &mut [u64]) {
    if transaction.windows(2).all(|w| w[0] < w[1]) {
        for &item in transaction {
            counts[item as usize] += 1;
        }
        return;
    }
    for (i, &item) in transaction.iter().enumerate() {
        if !transaction[..i].contains(&item) {
            counts[item as usize] += 1;
        }
    }
}

/// Maps frequent items to dense ids in descending support order.
#[derive(Clone, Debug)]
pub struct ItemRecoder {
    /// `old -> new + 1`; 0 means infrequent (filtered out).
    old_to_new: Vec<u32>,
    /// `new -> old`.
    new_to_old: Vec<Item>,
    /// Support per *new* id (non-increasing within each rank group).
    supports: Vec<u64>,
    min_support: u64,
}

impl ItemRecoder {
    /// Builds a recoder from per-item supports and a minimum support.
    pub fn from_supports(supports_by_item: &[u64], min_support: u64) -> Self {
        Self::ranked_last(supports_by_item, min_support, |_| false)
    }

    /// Like [`from_supports`](Self::from_supports), but the frequent items
    /// `last` picks rank after every other frequent item. Within each of
    /// the two groups the order stays descending support, ties by original
    /// id, so ids still increase along every path of a tree built with it.
    pub fn ranked_last(
        supports_by_item: &[u64],
        min_support: u64,
        last: impl Fn(Item) -> bool,
    ) -> Self {
        let mut frequent: Vec<Item> = (0..supports_by_item.len() as u32)
            .filter(|&i| supports_by_item[i as usize] >= min_support)
            .collect();
        // Group, then descending support, then ascending original id for
        // determinism.
        frequent.sort_by_key(|&i| (last(i), std::cmp::Reverse(supports_by_item[i as usize]), i));
        let mut old_to_new = vec![0u32; supports_by_item.len()];
        let mut supports = Vec::with_capacity(frequent.len());
        for (new, &old) in frequent.iter().enumerate() {
            old_to_new[old as usize] = new as u32 + 1;
            supports.push(supports_by_item[old as usize]);
        }
        ItemRecoder { old_to_new, new_to_old: frequent, supports, min_support }
    }

    /// Runs the first scan over `db` and builds the recoder.
    pub fn scan(db: &TransactionDb, min_support: u64) -> Self {
        Self::from_supports(&count_supports(db), min_support)
    }

    /// Number of frequent items.
    pub fn num_items(&self) -> usize {
        self.new_to_old.len()
    }

    /// The minimum support this recoder was built with.
    pub fn min_support(&self) -> u64 {
        self.min_support
    }

    /// New id of `old`, or `None` if the item is infrequent.
    #[inline]
    pub fn recode(&self, old: Item) -> Option<u32> {
        match self.old_to_new.get(old as usize) {
            Some(&v) if v != 0 => Some(v - 1),
            _ => None,
        }
    }

    /// Original id of a recoded item.
    #[inline]
    pub fn original(&self, new: u32) -> Item {
        self.new_to_old[new as usize]
    }

    /// Support of a recoded item.
    #[inline]
    pub fn support(&self, new: u32) -> u64 {
        self.supports[new as usize]
    }

    /// Supports indexed by new id (non-increasing, or non-increasing
    /// within each group of a [`ranked_last`](Self::ranked_last) recoder).
    pub fn supports(&self) -> &[u64] {
        &self.supports
    }

    /// Recodes a transaction into `out`: infrequent items dropped,
    /// duplicates removed, result sorted ascending (= descending support).
    pub fn recode_transaction(&self, transaction: &[Item], out: &mut Vec<u32>) {
        out.clear();
        for &item in transaction {
            if let Some(new) = self.recode(item) {
                out.push(new);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

impl HeapSize for ItemRecoder {
    fn heap_bytes(&self) -> u64 {
        self.old_to_new.heap_bytes() + self.new_to_old.heap_bytes() + self.supports.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> TransactionDb {
        // supports: 1 -> 3, 2 -> 2, 3 -> 4, 5 -> 1
        TransactionDb::from_rows(&[vec![1, 2, 3], vec![1, 3], vec![2, 3, 5], vec![3, 1]])
    }

    #[test]
    fn count_supports_ignores_duplicates_within_a_transaction() {
        let db = TransactionDb::from_rows(&[vec![4, 4, 4], vec![4]]);
        let counts = count_supports(&db);
        assert_eq!(counts[4], 2);
        // Unsorted rows, with and without repeats, and sorted ones.
        let db = TransactionDb::from_rows(&[vec![5, 1, 5, 3], vec![3, 1], vec![1, 3, 5], vec![2]]);
        assert_eq!(count_supports(&db), [0, 3, 1, 3, 0, 2]);
        let mut streamed = Vec::new();
        for t in db.iter() {
            count_transaction(t, &mut streamed);
        }
        assert_eq!(streamed, count_supports(&db));
    }

    #[test]
    fn recoder_orders_by_descending_support() {
        let r = ItemRecoder::scan(&sample_db(), 2);
        // item 3 (support 4) -> 0, item 1 (support 3) -> 1, item 2 -> 2
        assert_eq!(r.num_items(), 3);
        assert_eq!(r.recode(3), Some(0));
        assert_eq!(r.recode(1), Some(1));
        assert_eq!(r.recode(2), Some(2));
        assert_eq!(r.recode(5), None, "support 1 < minsup 2");
        assert_eq!(r.original(0), 3);
        assert_eq!(r.support(0), 4);
        assert_eq!(r.supports(), &[4, 3, 2]);
    }

    #[test]
    fn ties_break_by_original_id() {
        let db = TransactionDb::from_rows(&[vec![9, 4], vec![4, 9]]);
        let r = ItemRecoder::scan(&db, 1);
        assert_eq!(r.recode(4), Some(0));
        assert_eq!(r.recode(9), Some(1));
    }

    #[test]
    fn ranked_last_puts_the_given_items_after_the_rest() {
        // supports: 3 -> 4, 1 -> 3, 2 -> 2; item 5 (support 1) is dropped.
        let r = ItemRecoder::ranked_last(&count_supports(&sample_db()), 2, |i| i == 3 || i == 5);
        assert_eq!(r.num_items(), 3);
        assert_eq!((r.recode(1), r.recode(2), r.recode(3)), (Some(0), Some(1), Some(2)));
        assert_eq!(r.recode(5), None, "an infrequent pick stays out");
        assert_eq!(r.supports(), &[3, 2, 4]);
        // Ties inside a group still break by original id.
        let db = TransactionDb::from_rows(&[vec![9, 4, 7, 6], vec![4, 9, 6, 7]]);
        let r = ItemRecoder::ranked_last(&count_supports(&db), 1, |i| i > 5);
        let order: Vec<Item> = (0..4).map(|i| r.original(i)).collect();
        assert_eq!(order, [4, 6, 7, 9]);
    }

    #[test]
    fn recode_transaction_filters_sorts_dedups() {
        let r = ItemRecoder::scan(&sample_db(), 2);
        let mut out = Vec::new();
        r.recode_transaction(&[5, 2, 3, 2, 1], &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn recode_out_of_range_items_is_none() {
        let r = ItemRecoder::scan(&sample_db(), 2);
        assert_eq!(r.recode(1_000_000), None);
    }

    #[test]
    fn empty_db_yields_empty_recoder() {
        let r = ItemRecoder::scan(&TransactionDb::new(), 1);
        assert_eq!(r.num_items(), 0);
    }

    #[test]
    fn min_support_zero_keeps_everything_present() {
        let r = ItemRecoder::scan(&sample_db(), 1);
        assert_eq!(r.num_items(), 4);
    }
}
