//! The in-memory transaction database.
//!
//! Transactions are stored flattened: one items vector plus an offsets
//! vector, so a database of `n` transactions with `m` total item
//! occurrences costs `4m + 8(n+1)` bytes instead of `n` separate `Vec`
//! allocations. All algorithms read transactions as `&[Item]` slices.

use cfp_metrics::HeapSize;

/// An item identifier. The FIMI datasets use small integers; 32 bits cover
/// every dataset in the repository.
pub type Item = u32;

/// A flattened database of transactions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransactionDb {
    items: Vec<Item>,
    /// `offsets[i]..offsets[i+1]` delimits transaction `i`.
    offsets: Vec<usize>,
}

impl TransactionDb {
    /// An empty database.
    pub fn new() -> Self {
        TransactionDb { items: Vec::new(), offsets: vec![0] }
    }

    /// Pre-reserves space for `transactions` transactions holding
    /// `total_items` item occurrences.
    pub fn with_capacity(transactions: usize, total_items: usize) -> Self {
        let mut offsets = Vec::with_capacity(transactions + 1);
        offsets.push(0);
        TransactionDb { items: Vec::with_capacity(total_items), offsets }
    }

    /// Appends one transaction.
    pub fn push(&mut self, transaction: &[Item]) {
        self.items.extend_from_slice(transaction);
        self.offsets.push(self.items.len());
    }

    /// Removes all transactions but keeps the allocated capacity, so the
    /// database can be reused as an I/O buffer.
    pub fn clear(&mut self) {
        self.items.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the database holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Transaction `i` as a slice.
    pub fn get(&self, i: usize) -> &[Item] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates over all transactions.
    pub fn iter(&self) -> impl Iterator<Item = &[Item]> + '_ {
        self.offsets.windows(2).map(move |w| &self.items[w[0]..w[1]])
    }

    /// Total number of item occurrences across all transactions.
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Average transaction cardinality.
    pub fn avg_transaction_len(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total_items() as f64 / self.len() as f64
        }
    }

    /// Number of distinct items that occur at least once.
    pub fn distinct_items(&self) -> usize {
        let mut seen = vec![false; self.max_item().map_or(0, |m| m as usize + 1)];
        let mut n = 0;
        for &it in &self.items {
            if !seen[it as usize] {
                seen[it as usize] = true;
                n += 1;
            }
        }
        n
    }

    /// The largest item identifier present, if any.
    pub fn max_item(&self) -> Option<Item> {
        self.items.iter().copied().max()
    }

    /// Builds a database from nested vectors (test convenience).
    pub fn from_rows<R: AsRef<[Item]>>(rows: &[R]) -> Self {
        let total: usize = rows.iter().map(|r| r.as_ref().len()).sum();
        let mut db = TransactionDb::with_capacity(rows.len(), total);
        for r in rows {
            db.push(r.as_ref());
        }
        db
    }
}

impl HeapSize for TransactionDb {
    fn heap_bytes(&self) -> u64 {
        self.items.heap_bytes() + self.offsets.heap_bytes()
    }
}

impl TransactionDb {
    /// Exact bytes of the stored data (length-based, ignoring `Vec`
    /// growth slack) — what a pool-allocating implementation would use.
    pub fn data_bytes(&self) -> u64 {
        (self.items.len() * std::mem::size_of::<Item>()
            + self.offsets.len() * std::mem::size_of::<usize>()) as u64
    }
}

impl<'a> IntoIterator for &'a TransactionDb {
    type Item = &'a [Item];
    type IntoIter = Box<dyn Iterator<Item = &'a [Item]> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut db = TransactionDb::new();
        db.push(&[1, 2, 3]);
        db.push(&[]);
        db.push(&[7]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.get(0), &[1, 2, 3]);
        assert_eq!(db.get(1), &[] as &[Item]);
        assert_eq!(db.get(2), &[7]);
    }

    #[test]
    fn iter_matches_get() {
        let db = TransactionDb::from_rows(&[vec![5, 6], vec![9], vec![1, 2, 3]]);
        let collected: Vec<&[Item]> = db.iter().collect();
        assert_eq!(collected, vec![&[5, 6][..], &[9][..], &[1, 2, 3][..]]);
    }

    #[test]
    fn statistics() {
        let db = TransactionDb::from_rows(&[vec![1, 2], vec![2, 3, 4], vec![4]]);
        assert_eq!(db.total_items(), 6);
        assert_eq!(db.avg_transaction_len(), 2.0);
        assert_eq!(db.distinct_items(), 4);
        assert_eq!(db.max_item(), Some(4));
    }

    #[test]
    fn empty_db_statistics_are_safe() {
        let db = TransactionDb::new();
        assert!(db.is_empty());
        assert_eq!(db.avg_transaction_len(), 0.0);
        assert_eq!(db.distinct_items(), 0);
        assert_eq!(db.max_item(), None);
    }

    #[test]
    fn heap_bytes_counts_both_vectors() {
        let db = TransactionDb::from_rows(&[vec![1u32, 2, 3]]);
        assert!(db.heap_bytes() >= (3 * 4 + 2 * 8) as u64);
    }
}
