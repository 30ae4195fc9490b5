//! The correctness gate: an order-independent digest of `cfp-mine` output.
//!
//! Miners, thread counts and the spill path may emit the same itemsets in
//! different orders, so each FIMI output line (`items… (support)`) is
//! canonicalised — items sorted — and the lines are sorted before hashing.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Digest of one run's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Output lines (itemsets, or 1 for `--count` output).
    pub lines: u64,
    /// Hash of the sorted canonical lines.
    pub hash: u64,
}

/// Digests FIMI itemset output. Returns `None` when a line is malformed.
pub fn itemsets(text: &str) -> Option<Digest> {
    let mut canonical: Vec<(Vec<u32>, u64)> = Vec::new();
    for line in text.lines() {
        let (items, support) = line.rsplit_once(" (")?;
        let support: u64 = support.strip_suffix(')')?.parse().ok()?;
        let mut items: Vec<u32> =
            items.split_ascii_whitespace().map(str::parse).collect::<Result<_, _>>().ok()?;
        items.sort_unstable();
        canonical.push((items, support));
    }
    canonical.sort_unstable();
    let mut h = DefaultHasher::new();
    canonical.hash(&mut h);
    Some(Digest { lines: canonical.len() as u64, hash: h.finish() })
}

/// Digests `--count` output: the single itemset count.
pub fn count(text: &str) -> Option<Digest> {
    let n: u64 = text.trim().parse().ok()?;
    Some(Digest { lines: 1, hash: n })
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: &str = "3 1 (40)\n2 (50)\n1 3 7 (12)\n";

    #[test]
    fn order_of_lines_and_items_does_not_matter() {
        let a = itemsets(OUT).unwrap();
        let b = itemsets("2 (50)\n3 7 1 (12)\n1 3 (40)\n").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.lines, 3);
    }

    #[test]
    fn one_altered_line_is_caught() {
        let reference = itemsets(OUT).unwrap();
        for altered in [
            "3 1 (41)\n2 (50)\n1 3 7 (12)\n",
            "3 1 (40)\n2 (50)\n1 3 8 (12)\n",
            "3 1 (40)\n2 (50)\n1 3 (12)\n",
            "3 1 (40)\n2 (50)\n",
        ] {
            assert_ne!(itemsets(altered), Some(reference), "{altered:?}");
        }
        assert_eq!(itemsets("1 2 (x)\n"), None);
        assert_ne!(count("1965\n"), count("1964\n"));
    }
}
