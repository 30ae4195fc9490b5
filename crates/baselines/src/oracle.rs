//! Brute-force oracles: frequent-itemset enumeration, and the closed and
//! maximal condensed representations filtered from a complete result.
//!
//! [`frequent_itemsets`] enumerates every subset of the (small) item
//! universe and counts its support by scanning the database. The two
//! filters compare every itemset of a result with every other. Both are
//! quadratic or worse, usable only on test-sized inputs, and therefore
//! trustworthy: there is nothing clever to get wrong. The mining engine's
//! own closed and maximal modes are checked against them.

use cfp_data::{Item, TransactionDb};
use std::collections::HashMap;

/// All frequent itemsets of `db` with their supports, sorted canonically.
///
/// # Panics
///
/// Panics if the item universe exceeds 20 items (2^20 subsets).
pub fn frequent_itemsets(db: &TransactionDb, min_support: u64) -> Vec<(Vec<Item>, u64)> {
    let max = db.max_item().map_or(0, |m| m as usize + 1);
    assert!(max <= 20, "oracle is exponential; got {max} items");
    let mut out = Vec::new();
    // Precompute transaction bitmasks (duplicates within a row collapse).
    let masks: Vec<u32> = db.iter().map(|t| t.iter().fold(0u32, |m, &i| m | (1 << i))).collect();
    for subset in 1u32..(1u32 << max) {
        let support = masks.iter().filter(|&&m| m & subset == subset).count() as u64;
        if support >= min_support {
            let items: Vec<Item> = (0..max as u32).filter(|&i| subset & (1 << i) != 0).collect();
            out.push((items, support));
        }
    }
    out.sort();
    out
}

fn is_subset(small: &[Item], big: &[Item]) -> bool {
    // Both sorted ascending.
    let mut it = big.iter();
    small.iter().all(|s| it.any(|b| b == s))
}

/// Filters a complete mining result down to the closed itemsets: those
/// with no proper superset of equal support. They preserve all support
/// information — every frequent itemset's support equals that of its
/// smallest closed superset.
///
/// Input itemsets must be sorted ascending internally (the canonical form
/// every sink in this workspace produces).
pub fn closed_itemsets(itemsets: &[(Vec<Item>, u64)]) -> Vec<(Vec<Item>, u64)> {
    // Group by support: a closure witness must have identical support.
    let mut by_support: HashMap<u64, Vec<&Vec<Item>>> = HashMap::new();
    for (items, support) in itemsets {
        by_support.entry(*support).or_default().push(items);
    }
    itemsets
        .iter()
        .filter(|(items, support)| {
            !by_support[support]
                .iter()
                .any(|other| other.len() > items.len() && is_subset(items, other))
        })
        .cloned()
        .collect()
}

/// Filters a complete mining result down to the maximal itemsets: those
/// with no frequent proper superset. They preserve only the
/// frequent/infrequent border.
pub fn maximal_itemsets(itemsets: &[(Vec<Item>, u64)]) -> Vec<(Vec<Item>, u64)> {
    itemsets
        .iter()
        .filter(|(items, _)| {
            !itemsets.iter().any(|(other, _)| other.len() > items.len() && is_subset(items, other))
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_simple_database() {
        let db = TransactionDb::from_rows(&[vec![0, 1], vec![0, 1, 2], vec![0]]);
        let got = frequent_itemsets(&db, 2);
        assert_eq!(got, vec![(vec![0], 3), (vec![0, 1], 2), (vec![1], 2)]);
    }

    #[test]
    fn duplicates_in_a_row_count_once() {
        let db = TransactionDb::from_rows(&[vec![3, 3], vec![3]]);
        assert_eq!(frequent_itemsets(&db, 2), vec![(vec![3], 2)]);
    }

    #[test]
    fn empty_db_has_no_itemsets() {
        assert!(frequent_itemsets(&TransactionDb::new(), 1).is_empty());
    }

    #[test]
    fn subset_check() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[]));
    }

    #[test]
    fn closed_keeps_support_information() {
        // db where {1} always occurs with {2}: {1} is not closed.
        let db = TransactionDb::from_rows(&[vec![1, 2], vec![1, 2, 3], vec![2, 3]]);
        let all = frequent_itemsets(&db, 1);
        let closed = closed_itemsets(&all);
        assert!(!closed.iter().any(|(i, _)| i == &vec![1]), "{{1}} closes to {{1,2}}");
        assert!(closed.iter().any(|(i, s)| i == &vec![1, 2] && *s == 2));
        // Support of any pruned itemset is recoverable from a closed
        // superset with equal support.
        for (items, support) in &all {
            assert!(
                closed.iter().any(|(c, s)| s == support && is_subset(items, c)),
                "lost support of {items:?}"
            );
        }
    }

    #[test]
    fn maximal_is_subset_of_closed() {
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 3],
            vec![4, 5],
        ]);
        let all = frequent_itemsets(&db, 1);
        let closed = closed_itemsets(&all);
        let maximal = maximal_itemsets(&all);
        assert!(maximal.len() <= closed.len());
        assert!(closed.len() <= all.len());
        for m in &maximal {
            assert!(closed.contains(m), "maximal {m:?} must be closed");
        }
        // Maximal sets here: {1,2,3} and {4,5}.
        let names: Vec<&Vec<Item>> = maximal.iter().map(|(i, _)| i).collect();
        assert!(names.contains(&&vec![1, 2, 3]));
        assert!(names.contains(&&vec![4, 5]));
        assert_eq!(maximal.len(), 2);
    }

    #[test]
    fn every_frequent_itemset_is_a_subset_of_a_maximal_one() {
        let db = TransactionDb::from_rows(&[vec![0, 1, 2], vec![0, 1], vec![3]]);
        let all = frequent_itemsets(&db, 1);
        let maximal = maximal_itemsets(&all);
        for (items, _) in &all {
            assert!(maximal.iter().any(|(m, _)| is_subset(items, m)));
        }
    }

    #[test]
    fn unique_supports_make_everything_closed() {
        // Every superset has strictly smaller support => all closed.
        let db = TransactionDb::from_rows(&[vec![1], vec![2], vec![1], vec![1, 2]]);
        let all = frequent_itemsets(&db, 1);
        let closed = closed_itemsets(&all);
        assert_eq!(closed.len(), all.len());
    }

    #[test]
    fn empty_input() {
        assert!(closed_itemsets(&[]).is_empty());
        assert!(maximal_itemsets(&[]).is_empty());
    }
}
