//! Size statistics of the CFP-array (Figure 6(b)).
//!
//! The paper reports the average node size of the CFP-array per dataset
//! and notes that the `Δpos` field dominates. This module recomputes the
//! per-field byte breakdown by scanning the encoded triples.

use crate::CfpArray;
use cfp_encoding::varint;
use cfp_metrics::HeapSize;

/// Byte totals of each field across all nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FieldBytes {
    /// Bytes spent on `Δitem` varints.
    pub ditem: u64,
    /// Bytes spent on `Δpos` varints.
    pub dpos: u64,
    /// Bytes spent on `count` varints.
    pub count: u64,
}

impl FieldBytes {
    /// Sum over all fields.
    pub fn total(&self) -> u64 {
        self.ditem + self.dpos + self.count
    }

    /// Per-node averages `(Δitem, Δpos, count)`.
    pub fn per_node(&self, nodes: u64) -> (f64, f64, f64) {
        if nodes == 0 {
            return (0.0, 0.0, 0.0);
        }
        let n = nodes as f64;
        (self.ditem as f64 / n, self.dpos as f64 / n, self.count as f64 / n)
    }
}

/// Measures the field byte breakdown of `array`.
pub fn field_bytes(array: &CfpArray) -> FieldBytes {
    let mut out = FieldBytes::default();
    for item in 0..array.num_items() as u32 {
        for node in array.subarray(item) {
            out.ditem += varint::encoded_len(node.ditem as u64) as u64;
            out.dpos += varint::encoded_len(cfp_encoding::zigzag::encode(node.dpos)) as u64;
            out.count += varint::encoded_len(node.count) as u64;
        }
    }
    out
}

/// Bytes of a naive uncompressed CFP-array triple: three `u32` fields
/// per node (`item`, `pos`, `count`), no delta or varint coding.
pub const NAIVE_TRIPLE_BYTES: u64 = 3 * 4;

/// The full per-structure report of a CFP-array for `cfp-memstat/1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CfpArrayReport {
    /// Encoded nodes.
    pub num_nodes: u64,
    /// Per-field byte totals of the encoded triples.
    pub fields: FieldBytes,
    /// Encoded triple bytes (`fields.total()`, equals
    /// [`CfpArray::data_bytes`]).
    pub data_bytes: u64,
    /// Index bytes: the per-item subarray offsets and support table
    /// around the data buffer.
    pub index_bytes: u64,
    /// Item-pair table bytes (0 for an array without one, see
    /// [`CfpArray::pair_row`]).
    pub pair_table_bytes: u64,
    /// Total heap bytes (`data_bytes + index_bytes + pair_table_bytes`).
    pub total_bytes: u64,
    /// Bytes saved by delta+varint coding vs naive `3 × u32` triples:
    /// `NAIVE_TRIPLE_BYTES × num_nodes − data_bytes`.
    pub varint_saved: u64,
}

impl CfpArrayReport {
    /// Average encoded bytes per node (0 when empty).
    pub fn bytes_per_node(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.data_bytes as f64 / self.num_nodes as f64
        }
    }
}

/// Measures the full byte breakdown of `array`.
pub fn array_report(array: &CfpArray) -> CfpArrayReport {
    let fields = field_bytes(array);
    let data_bytes = array.data_bytes();
    let pair_table_bytes = array.pair_table_bytes();
    let total_bytes = array.heap_bytes();
    CfpArrayReport {
        num_nodes: array.num_nodes(),
        fields,
        data_bytes,
        index_bytes: total_bytes - data_bytes - pair_table_bytes,
        pair_table_bytes,
        total_bytes,
        varint_saved: (NAIVE_TRIPLE_BYTES * array.num_nodes()).saturating_sub(data_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use cfp_tree::CfpTree;

    #[test]
    fn breakdown_sums_to_data_bytes() {
        let mut t = CfpTree::new(16);
        t.insert(&[0, 1, 2, 3], 4);
        t.insert(&[0, 5, 9], 1);
        t.insert(&[2, 3], 9);
        let a = convert(&t);
        let fb = field_bytes(&a);
        assert_eq!(fb.total(), a.data_bytes());
    }

    #[test]
    fn per_node_averages_are_at_least_one_byte() {
        let mut t = CfpTree::new(8);
        t.insert(&[0, 1], 1);
        t.insert(&[0, 2], 1);
        let a = convert(&t);
        let (d, p, c) = field_bytes(&a).per_node(a.num_nodes());
        assert!(d >= 1.0 && p >= 1.0 && c >= 1.0);
    }

    #[test]
    fn report_separates_the_pair_table_from_the_index() {
        // Two items, three nodes: an 8-byte table fits 3 bytes per node.
        let mut t = CfpTree::new(2);
        t.insert(&[0, 1], 3);
        t.insert(&[1], 2);
        let a = convert(&t);
        let r = array_report(&a);
        assert_eq!(r.pair_table_bytes, 8);
        assert_eq!(r.total_bytes, r.data_bytes + r.index_bytes + r.pair_table_bytes);
        assert_eq!(r.bytes_per_node(), a.avg_node_bytes(), "per-node bytes count data only");
    }

    #[test]
    fn empty_array_breakdown_is_zero() {
        let t = CfpTree::new(2);
        let a = convert(&t);
        assert_eq!(field_bytes(&a), FieldBytes::default());
        assert_eq!(field_bytes(&a).per_node(0), (0.0, 0.0, 0.0));
    }

    #[test]
    fn report_partitions_heap_bytes_exactly() {
        let mut t = CfpTree::new(16);
        t.insert(&[0, 1, 2, 3], 4);
        t.insert(&[0, 5, 9], 1);
        t.insert(&[2, 3], 9);
        let a = convert(&t);
        let r = array_report(&a);
        assert_eq!(r.num_nodes, a.num_nodes());
        assert_eq!(r.data_bytes, a.data_bytes());
        assert_eq!(r.data_bytes, r.fields.total());
        assert_eq!(r.data_bytes + r.index_bytes, r.total_bytes);
        assert_eq!(r.total_bytes, a.heap_bytes());
        assert!(r.bytes_per_node() >= 3.0, "a triple is at least 3 varint bytes");
    }

    #[test]
    fn varint_saving_is_positive_on_small_values() {
        // Small items, positions, and counts: every field fits one
        // varint byte, so each node beats the naive 12-byte triple.
        let mut t = CfpTree::new(8);
        for i in 0..6u32 {
            t.insert(&[0, 1 + i % 5], 1 + i);
        }
        let a = convert(&t);
        let r = array_report(&a);
        assert!(r.varint_saved > 0);
        assert_eq!(r.varint_saved, NAIVE_TRIPLE_BYTES * r.num_nodes - r.data_bytes);
    }
}
