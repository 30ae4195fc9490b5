//! The CFP-array: a compressed array representation of the FP-tree for the
//! mine phase of CFP-growth (§3.4–§3.5 of the paper).
//!
//! The mine phase needs two access paths the build phase doesn't: sideways
//! traversal of all nodes of one item (the FP-tree's nodelinks) and upward
//! traversal to the root (parent pointers). The CFP-array provides both
//! without storing either pointer:
//!
//! - Nodes are laid out **clustered by item**: all nodes of item `i` form
//!   one consecutive *subarray*, and a small item index maps each item to
//!   its subarray's starting byte. Sideways traversal is a sequential scan
//!   of the subarray — the `nodelink` field is gone.
//! - Each node is the triple `(Δitem, Δpos, count)`, variable-byte
//!   encoded in that order. `Δitem` is the delta to the parent's item;
//!   `Δpos` is the delta between the node's and its parent's *local
//!   positions* (byte offsets within their subarrays), zigzag-encoded
//!   because the DFS layout cannot guarantee a sign. Upward traversal
//!   decodes two small varints and jumps — the `parent` pointer is gone
//!   too.
//! - A node without a parent (child of the root) stores `Δitem = item + 1`
//!   (the virtual root sits at item −1), which the reader recognizes
//!   because real parents would make `Δitem ≤ item`; its `Δpos` is 0.
//!
//! `count` here is the classic cumulative count, reconstructed from the
//! CFP-tree's pcounts during conversion: the mine phase has no access to a
//! node's children, so partial counts would be unusable (§3.4).
//!
//! [`convert`] implements the two-pass conversion of §3.5: the first DFS
//! computes per-item subarray sizes and node positions, the second writes
//! every triple directly to its final location, with per-subarray
//! sequential access patterns.
//!
//! A dense array also gets an **item-pair table** from the first DFS, in
//! the manner of Grahne & Zhu's FPgrowth* counting array: row `j` holds,
//! for every `k < j`, the summed count of item-`j` nodes that have `k` on
//! their prefix path ([`CfpArray::pair_row`]). That row is exactly the
//! conditional item frequencies of `j`'s pattern base, so the mine phase
//! reads it instead of walking the base. The table is built only when it
//! needs at most 3 bytes per node — the smallest an encoded triple can
//! be — so it never outweighs the data block. It lives only in memory:
//! the `CFPA` format does not carry it.
//!
//! ```
//! use cfp_array::convert;
//! use cfp_tree::CfpTree;
//!
//! let mut tree = CfpTree::new(3);
//! tree.insert(&[0, 1, 2], 5);
//! tree.insert(&[1, 2], 4);
//! let array = convert(&tree);
//!
//! // Sideways traversal without nodelinks: item 2 has two nodes.
//! assert_eq!(array.subarray_len(2), 2);
//! assert_eq!(array.item_support(2), 9);
//! // Upward traversal without parent pointers.
//! let node = array.subarray(2).next().unwrap();
//! let mut path = Vec::new();
//! array.prefix_path(2, &node, &mut path);
//! assert!(path == vec![0, 1] || path == vec![1]);
//! ```

#![warn(missing_docs)]

pub mod serialize;
pub mod stats;

use cfp_encoding::{varint, zigzag};
use cfp_metrics::HeapSize;
use cfp_tree::{CfpTree, DfsEvent, DfsIter};
use std::sync::Arc;

/// Backing storage of the encoded triples: owned by the array (the usual
/// case), or a zero-copy window into a shared buffer — a spill file read
/// into memory once and mined in place (see [`serialize`] and
/// [`CfpArray::from_bytes`](CfpArray::from_bytes)).
#[derive(Clone, Debug)]
enum Bytes {
    Owned(Vec<u8>),
    Shared { buf: Arc<[u8]>, start: usize, len: usize },
}

impl Bytes {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Owned(v) => v,
            Bytes::Shared { buf, start, len } => &buf[*start..*start + *len],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::Owned(Vec::new())
    }
}

/// A decoded CFP-array node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeView {
    /// Local byte offset of this node within its subarray.
    pub local: u64,
    /// Delta to the parent item (`item + 1` for root children).
    pub ditem: u32,
    /// Delta between this node's and its parent's local positions.
    pub dpos: i64,
    /// Cumulative count (classic FP-tree count).
    pub count: u64,
}

/// The compressed mine-phase representation of an FP-tree.
#[derive(Clone, Debug, Default)]
pub struct CfpArray {
    data: Bytes,
    /// `starts[i]` = first byte of item `i`'s subarray; `starts[n]` = len.
    starts: Vec<u64>,
    /// Per-item support (sum of counts in the subarray).
    supports: Vec<u64>,
    num_nodes: u64,
    /// The item-pair table of a dense array: the rows of
    /// [`pair_row`](CfpArray::pair_row) back to back, row `j` starting at
    /// `j(j-1)/2`.
    pairs: Option<Vec<u64>>,
}

/// The most bytes per node a pair table may take: one byte for each of
/// an encoded triple's three varints, the smallest a triple can be.
const PAIR_TABLE_BYTES_PER_NODE: u64 = 3;

/// Whether [`convert`] gives an array of `num_items` items and
/// `num_nodes` nodes a pair table: when it has a pair to count (two
/// items or more) and the table's `num_items(num_items-1)/2` `u64`
/// entries take at most [`PAIR_TABLE_BYTES_PER_NODE`] bytes per node.
fn wants_pair_table(num_items: usize, num_nodes: u64) -> bool {
    let n = num_items as u128;
    n >= 2 && n * (n - 1) / 2 * 8 <= PAIR_TABLE_BYTES_PER_NODE as u128 * num_nodes as u128
}

/// Offset of row `item` in a pair table.
#[inline]
fn pair_row_start(item: usize) -> usize {
    item * item.saturating_sub(1) / 2
}

impl CfpArray {
    /// Number of items (subarrays).
    pub fn num_items(&self) -> usize {
        self.supports.len()
    }

    /// Number of nodes across all subarrays.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Support of `item` (sum of its nodes' counts).
    pub fn item_support(&self, item: u32) -> u64 {
        self.supports[item as usize]
    }

    /// Total encoded bytes of all triples.
    pub fn data_bytes(&self) -> u64 {
        self.data.as_slice().len() as u64
    }

    /// Average encoded bytes per node (Figure 6(b)).
    pub fn avg_node_bytes(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.data_bytes() as f64 / self.num_nodes as f64
        }
    }

    /// Whether the triples live in a shared buffer (a loaded spill file)
    /// rather than an owned `Vec`. Shared bytes are attributed by the
    /// spill layer, not by this array's [`HeapSize`].
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Bytes::Shared { .. })
    }

    /// Whether the array holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.num_nodes == 0
    }

    /// The subarray byte boundaries (`starts[i]..starts[i+1]` is item
    /// `i`'s range; length `num_items + 1`).
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// The raw encoded triple bytes.
    pub fn data(&self) -> &[u8] {
        self.data.as_slice()
    }

    /// Reassembles an array from its serialized parts (see
    /// [`serialize`]); invariants are the writer's responsibility. The
    /// format carries no pair table, so the array has none.
    pub(crate) fn from_parts(
        data: Bytes,
        starts: Vec<u64>,
        supports: Vec<u64>,
        num_nodes: u64,
    ) -> Self {
        debug_assert_eq!(starts.len(), supports.len() + 1);
        debug_assert_eq!(*starts.last().unwrap_or(&0), data.as_slice().len() as u64);
        CfpArray { data, starts, supports, num_nodes, pairs: None }
    }

    /// Row `item` of the pair table, when the array has one: entry `k`
    /// is the summed count of `item`'s nodes that have item `k` on their
    /// prefix path — the conditional item frequencies of `item`'s pattern
    /// base, without walking it. `None` for arrays without a table: those
    /// of fewer than two items, those whose table would take more than 3
    /// bytes per node, and every array read from `CFPA` bytes.
    pub fn pair_row(&self, item: u32) -> Option<&[u64]> {
        let j = item as usize;
        self.pairs.as_deref().map(|t| &t[pair_row_start(j)..pair_row_start(j + 1)])
    }

    /// Heap bytes of the pair table (0 without one).
    pub(crate) fn pair_table_bytes(&self) -> u64 {
        self.pairs.as_ref().map_or(0, |t| t.heap_bytes())
    }

    /// Moves `source`'s pair table onto this array, which must hold the
    /// same nodes — as the shared view read back from the owned
    /// original's `CFPA` bytes does.
    ///
    /// # Panics
    ///
    /// Panics when the two arrays' subarray boundaries differ.
    pub fn keep_pair_table(&mut self, source: CfpArray) {
        assert!(
            self.starts == source.starts && self.num_nodes == source.num_nodes,
            "a pair table only fits the array it was counted for"
        );
        self.pairs = source.pairs;
    }

    /// Number of nodes of one item's subarray (counted by scanning).
    pub fn subarray_len(&self, item: u32) -> usize {
        self.subarray(item).count()
    }

    /// Encoded bytes of one item's subarray, straight from the `starts`
    /// boundaries — an O(1) proxy for how expensive mining the item's
    /// conditional pattern base will be (more encoded nodes ⇒ more prefix
    /// paths to walk). The dynamic mine-phase scheduler sorts item tasks
    /// heaviest-first by this estimate.
    pub fn subarray_bytes(&self, item: u32) -> u64 {
        let i = item as usize;
        self.starts[i + 1] - self.starts[i]
    }

    /// Iterates the nodes of `item`'s subarray in layout order (the
    /// sideways traversal replacing nodelinks).
    pub fn subarray(&self, item: u32) -> SubarrayIter<'_> {
        let i = item as usize;
        SubarrayIter {
            data: &self.data.as_slice()[..self.starts[i + 1] as usize],
            at: self.starts[i] as usize,
            base: self.starts[i] as usize,
        }
    }

    /// Decodes the node of `item` at local byte offset `local`.
    pub fn node_at(&self, item: u32, local: u64) -> NodeView {
        let at = (self.starts[item as usize] + local) as usize;
        let (view, _) = decode_triple(self.data.as_slice(), at, local);
        view
    }

    /// The parent of a node, or `None` for children of the root.
    pub fn parent_of(&self, item: u32, node: &NodeView) -> Option<(u32, u64)> {
        if node.ditem == item + 1 {
            return None;
        }
        debug_assert!(node.ditem >= 1 && node.ditem <= item);
        let parent_item = item - node.ditem;
        let parent_local = (node.local as i64 - node.dpos) as u64;
        Some((parent_item, parent_local))
    }

    /// Collects the items on the path from the node's parent up to the
    /// root, in ascending item order (the conditional pattern base of the
    /// node, excluding the node itself).
    pub fn prefix_path(&self, item: u32, node: &NodeView, out: &mut Vec<u32>) {
        out.clear();
        self.append_prefix_path(item, node, out);
    }

    /// [`prefix_path`](Self::prefix_path) appended to `out`: the walk up
    /// decodes only each parent's `Δitem` and `Δpos`, never its count.
    pub fn append_prefix_path(&self, item: u32, node: &NodeView, out: &mut Vec<u32>) {
        let start = out.len();
        let data = self.data.as_slice();
        let (mut item, mut ditem, mut local, mut dpos) = (item, node.ditem, node.local, node.dpos);
        while ditem != item + 1 {
            debug_assert!(ditem >= 1 && ditem <= item);
            item -= ditem;
            local = (local as i64 - dpos) as u64;
            out.push(item);
            let at = (self.starts[item as usize] + local) as usize;
            let (d, n1) = varint::read_u64_unchecked(&data[at..]);
            let (zz, _) = varint::read_u64_unchecked(&data[at + n1..]);
            ditem = d as u32;
            dpos = zigzag::decode(zz);
        }
        out[start..].reverse();
    }
}

impl HeapSize for CfpArray {
    fn heap_bytes(&self) -> u64 {
        // Shared bytes belong to the spill file's buffer, which the spill
        // layer attributes separately (once per file, not per view); only
        // owned storage counts here.
        let data = match &self.data {
            Bytes::Owned(v) => v.heap_bytes(),
            Bytes::Shared { .. } => 0,
        };
        data + self.starts.heap_bytes() + self.supports.heap_bytes() + self.pair_table_bytes()
    }
}

/// Iterator over one subarray.
pub struct SubarrayIter<'a> {
    data: &'a [u8],
    at: usize,
    base: usize,
}

impl Iterator for SubarrayIter<'_> {
    type Item = NodeView;

    fn next(&mut self) -> Option<NodeView> {
        if self.at >= self.data.len() {
            return None;
        }
        let local = (self.at - self.base) as u64;
        let (view, next) = decode_triple(self.data, self.at, local);
        self.at = next;
        Some(view)
    }
}

#[inline]
fn decode_triple(data: &[u8], at: usize, local: u64) -> (NodeView, usize) {
    let (ditem, n1) = varint::read_u64_unchecked(&data[at..]);
    let (zz, n2) = varint::read_u64_unchecked(&data[at + n1..]);
    let (count, n3) = varint::read_u64_unchecked(&data[at + n1 + n2..]);
    (NodeView { local, ditem: ditem as u32, dpos: zigzag::decode(zz), count }, at + n1 + n2 + n3)
}

/// Conversion frame: one open node on the DFS path.
struct Frame {
    item: i64,
    local: u64,
    ditem: u32,
    /// Accumulates pcount + finished children counts.
    acc: u64,
    parent_item: i64,
    parent_local: u64,
}

/// One logical node as a DFS pass leaves it, with its count known.
struct Visit {
    item: u32,
    local: u64,
    ditem: u32,
    dpos: i64,
    count: u64,
    /// Encoded triple bytes.
    size: usize,
}

/// Converts a CFP-tree into a CFP-array (two DFS passes, §3.5). The first
/// pass also counts the item-pair table of a dense tree (see
/// [`CfpArray::pair_row`]).
pub fn convert(tree: &CfpTree) -> CfpArray {
    let traced = cfp_trace::enabled();
    let started = traced.then(std::time::Instant::now);
    let n = tree.num_items();
    // Pass 1: per-item sizes, node counts and supports, and the pair
    // counts of a dense tree: each node's count goes to its item's row,
    // once per ancestor.
    let mut sizes = vec![0u64; n];
    let mut supports = vec![0u64; n];
    let mut num_nodes = 0u64;
    let mut pairs = wants_pair_table(n, tree.num_nodes()).then(|| vec![0u64; pair_row_start(n)]);
    walk(tree, |v, ancestors| {
        sizes[v.item as usize] += v.size as u64;
        supports[v.item as usize] += v.count;
        num_nodes += 1;
        if let Some(pairs) = &mut pairs {
            let row = &mut pairs[pair_row_start(v.item as usize)..];
            for a in ancestors {
                row[a.item as usize] += v.count;
            }
        }
    });

    let mut starts = Vec::with_capacity(n + 1);
    let mut acc = 0u64;
    for &s in &sizes {
        starts.push(acc);
        acc += s;
    }
    starts.push(acc);

    // Pass 2: write each triple to its final position.
    let mut data = vec![0u8; acc as usize];
    walk(tree, |v, _| {
        let mut at = (starts[v.item as usize] + v.local) as usize;
        at += varint::write_u64_into(&mut data[at..], v.ditem as u64);
        at += varint::write_u64_into(&mut data[at..], zigzag::encode(v.dpos));
        varint::write_u64_into(&mut data[at..], v.count);
    });

    if let Some(started) = started {
        use cfp_trace::counters as tc;
        tc::ARRAY_CONVERSIONS.inc();
        tc::ARRAY_NODES_CONVERTED.add(num_nodes);
        tc::ARRAY_BYTES_WRITTEN.add(data.len() as u64);
        if pairs.is_some() {
            tc::ARRAY_PAIR_TABLES.inc();
        }
        tc::ARRAY_CONVERT_NANOS.add(started.elapsed().as_nanos() as u64);
    }
    CfpArray { data: Bytes::Owned(data), starts, supports, num_nodes, pairs }
}

/// Drives one DFS pass, invoking `f(visit, ancestors)` for every logical
/// node at its post-order position (when its count is known), with the
/// node's open ancestors, root child first. Local positions are assigned
/// pre-order and are identical across passes because the traversal is
/// deterministic.
fn walk(tree: &CfpTree, mut f: impl FnMut(&Visit, &[Frame])) {
    let n = tree.num_items();
    let mut counters = vec![0u64; n];
    let mut stack: Vec<Frame> = Vec::new();
    for ev in DfsIter::new(tree) {
        match ev {
            DfsEvent::Enter { ditem, pcount } => {
                let (parent_item, parent_local) = match stack.last() {
                    Some(top) => (top.item, top.local),
                    None => (-1, 0),
                };
                let item = parent_item + ditem as i64;
                debug_assert!((0..n as i64).contains(&item), "item out of range");
                stack.push(Frame {
                    item,
                    local: counters[item as usize],
                    ditem,
                    acc: pcount as u64,
                    parent_item,
                    parent_local,
                });
            }
            DfsEvent::Leave => {
                let fr = stack.pop().expect("balanced DFS events");
                if let Some(top) = stack.last_mut() {
                    top.acc += fr.acc;
                }
                let dpos =
                    if fr.parent_item < 0 { 0 } else { fr.local as i64 - fr.parent_local as i64 };
                let size = varint::encoded_len(fr.ditem as u64)
                    + varint::encoded_len(zigzag::encode(dpos))
                    + varint::encoded_len(fr.acc);
                let visit = Visit {
                    item: fr.item as u32,
                    local: fr.local,
                    ditem: fr.ditem,
                    dpos,
                    count: fr.acc,
                    size,
                };
                f(&visit, &stack);
                counters[fr.item as usize] += size as u64;
            }
        }
    }
    debug_assert!(stack.is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::{ItemRecoder, TransactionDb};
    use cfp_fptree::FpTree;

    fn array_from(rows: &[&[u32]]) -> (CfpArray, CfpTree) {
        let max = rows.iter().flat_map(|r| r.iter()).max().copied().unwrap_or(0);
        let mut t = CfpTree::new(max as usize + 1);
        for r in rows {
            t.insert(r, 1);
        }
        (convert(&t), t)
    }

    #[test]
    fn empty_tree_converts_to_empty_array() {
        let t = CfpTree::new(3);
        let a = convert(&t);
        assert!(a.is_empty());
        assert_eq!(a.data_bytes(), 0);
        assert_eq!(a.num_items(), 3);
        assert_eq!(a.subarray_len(0), 0);
    }

    #[test]
    fn paper_figure5_shape() {
        // Figure 5's FP-tree (items renumbered 0,1,2): three subarrays,
        // counts reconstructed from pcounts.
        let mut t = CfpTree::new(3);
        t.insert(&[0, 1, 2], 5);
        t.insert(&[0, 1], 3);
        t.insert(&[1, 2], 4);
        t.insert(&[2], 2);
        let a = convert(&t);
        assert_eq!(a.num_nodes(), 6);
        assert_eq!(a.subarray_len(0), 1);
        assert_eq!(a.subarray_len(1), 2);
        assert_eq!(a.subarray_len(2), 3);
        // Item 0's single node holds count 8 (5 + 3).
        let n0 = a.subarray(0).next().unwrap();
        assert_eq!(n0.count, 8);
        assert_eq!(a.parent_of(0, &n0), None);
        // Supports: item 1 in both prefixes 0-1 (8) and 1-2 (4).
        assert_eq!(a.item_support(0), 8);
        assert_eq!(a.item_support(1), 12);
        assert_eq!(a.item_support(2), 5 + 4 + 2);
    }

    #[test]
    fn counts_match_reference_fptree() {
        let rows: Vec<Vec<u32>> =
            vec![vec![0, 1, 2, 3], vec![0, 1, 3], vec![0, 2, 3], vec![2, 3], vec![0], vec![1, 2]];
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let (a, tree) = array_from(&refs);
        let mut fp = FpTree::new(4);
        for r in &rows {
            fp.insert(r, 1);
        }
        assert_eq!(a.num_nodes(), fp.num_nodes() as u64);
        assert_eq!(a.num_nodes(), tree.num_nodes());
        for item in 0..4u32 {
            let mut ours: Vec<u64> = a.subarray(item).map(|n| n.count).collect();
            let mut theirs: Vec<u64> =
                fp.nodelinks(item).map(|i| fp.node(i).count as u64).collect();
            ours.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(ours, theirs, "item {item}");
            assert_eq!(a.item_support(item), fp.item_support(item));
        }
    }

    #[test]
    fn prefix_paths_match_reference_fptree() {
        let rows: Vec<Vec<u32>> =
            vec![vec![0, 1, 2, 3], vec![0, 1, 3], vec![0, 2, 3], vec![2, 3], vec![1, 3], vec![3]];
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let (a, _) = array_from(&refs);
        let mut fp = FpTree::new(4);
        for r in &rows {
            fp.insert(r, 1);
        }
        for item in 0..4u32 {
            let mut ours: Vec<(Vec<u32>, u64)> = a
                .subarray(item)
                .map(|n| {
                    let mut p = Vec::new();
                    a.prefix_path(item, &n, &mut p);
                    (p, n.count)
                })
                .collect();
            let mut theirs: Vec<(Vec<u32>, u64)> = fp
                .nodelinks(item)
                .map(|i| {
                    let mut p = Vec::new();
                    fp.prefix_path(i, &mut p);
                    (p, fp.node(i).count as u64)
                })
                .collect();
            ours.sort();
            theirs.sort();
            assert_eq!(ours, theirs, "item {item}");
        }
    }

    #[test]
    fn node_at_round_trips_every_node() {
        let (a, _) = array_from(&[&[0, 1, 2], &[0, 2], &[1, 2], &[2], &[0, 1]]);
        for item in 0..3u32 {
            for n in a.subarray(item) {
                assert_eq!(a.node_at(item, n.local), n);
            }
        }
    }

    #[test]
    fn root_children_are_recognized() {
        let (a, _) = array_from(&[&[2], &[0, 2]]);
        // Item 2 has two nodes: one root child, one under item 0.
        let nodes: Vec<NodeView> = a.subarray(2).collect();
        assert_eq!(nodes.len(), 2);
        let roots = nodes.iter().filter(|n| a.parent_of(2, n).is_none()).count();
        assert_eq!(roots, 1);
        assert_eq!(a.subarray(0).filter(|n| n.ditem == 1).count(), 1);
    }

    #[test]
    fn stress_counts_and_paths_against_fptree() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for trial in 0..30 {
            let n_items = rng.gen_range(1..30usize);
            let mut tree = CfpTree::new(n_items);
            let mut fp = FpTree::new(n_items);
            for _ in 0..rng.gen_range(1..100) {
                let mut txn: Vec<u32> =
                    (0..n_items as u32).filter(|_| rng.gen_bool(0.35)).collect();
                txn.dedup();
                if txn.is_empty() {
                    continue;
                }
                let w = rng.gen_range(1..3u32);
                tree.insert(&txn, w);
                fp.insert(&txn, w);
            }
            let a = convert(&tree);
            assert_eq!(a.num_nodes(), fp.num_nodes() as u64, "trial {trial}");
            for item in 0..n_items as u32 {
                let mut ours: Vec<(Vec<u32>, u64)> = a
                    .subarray(item)
                    .map(|n| {
                        let mut p = Vec::new();
                        a.prefix_path(item, &n, &mut p);
                        (p, n.count)
                    })
                    .collect();
                let mut theirs: Vec<(Vec<u32>, u64)> = fp
                    .nodelinks(item)
                    .map(|i| {
                        let mut p = Vec::new();
                        fp.prefix_path(i, &mut p);
                        (p, fp.node(i).count as u64)
                    })
                    .collect();
                ours.sort();
                theirs.sort();
                assert_eq!(ours, theirs, "trial {trial} item {item}");
            }
        }
    }

    /// `item`'s conditional item frequencies, summed from the prefix
    /// paths of its nodes.
    fn walked_row(a: &CfpArray, item: u32) -> Vec<u64> {
        let mut row = vec![0u64; item as usize];
        let mut path = Vec::new();
        for n in a.subarray(item) {
            a.prefix_path(item, &n, &mut path);
            for &k in &path {
                row[k as usize] += n.count;
            }
        }
        row
    }

    #[test]
    fn stress_pair_rows_against_prefix_paths() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xFA1125);
        let mut tables = 0;
        for trial in 0..40 {
            let n_items = rng.gen_range(2..12usize);
            // Alternate dense trees, which carry tables, with sparse ones.
            let density = if trial % 2 == 0 { 0.8 } else { 0.3 };
            let mut tree = CfpTree::new(n_items);
            for _ in 0..rng.gen_range(1..300) {
                let txn: Vec<u32> = (0..n_items as u32).filter(|_| rng.gen_bool(density)).collect();
                if !txn.is_empty() {
                    tree.insert(&txn, rng.gen_range(1..4u32));
                }
            }
            let a = convert(&tree);
            let has_table = wants_pair_table(n_items, a.num_nodes());
            for item in 0..n_items as u32 {
                match a.pair_row(item) {
                    Some(row) => assert_eq!(row, walked_row(&a, item), "trial {trial} item {item}"),
                    None => assert!(!has_table, "trial {trial} item {item}: table missing"),
                }
            }
            assert_eq!(a.pair_row(0).is_some(), has_table, "trial {trial}");
            tables += has_table as usize;
        }
        assert!((10..40).contains(&tables), "both regimes must occur: {tables} tables");
    }

    /// A 5-item tree holding every non-empty subset except the first
    /// `dropped` that end in item 4 — leaves, so each one dropped is one
    /// node fewer than the full 31.
    fn five_item_tree(dropped: usize) -> CfpTree {
        let mut tree = CfpTree::new(5);
        let mut left = dropped;
        for mask in 1..32u32 {
            let set: Vec<u32> = (0..5).filter(|i| mask >> i & 1 == 1).collect();
            if left > 0 && set.last() == Some(&4) {
                left -= 1;
                continue;
            }
            tree.insert(&set, 1);
        }
        tree
    }

    #[test]
    fn pair_table_exists_exactly_when_it_fits_three_bytes_per_node() {
        // Five items have 10 pairs, 80 table bytes: 27 nodes give 81
        // bytes of room, 26 give 78.
        for (dropped, nodes, table) in [(4, 27, true), (5, 26, false)] {
            let a = convert(&five_item_tree(dropped));
            assert_eq!(a.num_nodes(), nodes);
            assert_eq!(wants_pair_table(5, nodes), table);
            assert_eq!(a.pair_row(4).is_some(), table, "{nodes} nodes");
        }
        // Fewer than two items have no pair to count.
        assert!(!wants_pair_table(1, u64::MAX) && !wants_pair_table(0, 0));
        assert!(convert(&CfpTree::new(3)).pair_row(2).is_none());
    }

    #[test]
    fn heap_bytes_include_the_pair_table() {
        let a = convert(&five_item_tree(0));
        assert_eq!(a.pair_table_bytes(), 8 * 10);
        let index = 8 * (a.starts().len() + a.num_items()) as u64;
        assert_eq!(a.heap_bytes(), a.data_bytes() + index + a.pair_table_bytes());
    }

    #[test]
    fn conversion_is_invariant_under_physical_representation() {
        // Chains and embedded leaves are physical artifacts; the logical
        // tree — and therefore the converted array — must be identical
        // whichever representation the tree used.
        use cfp_data::rng::{Rng, StdRng};
        use cfp_tree::CfpTreeConfig;
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let configs = [
            CfpTreeConfig::default(),
            CfpTreeConfig { max_chain_len: 0, embed_leaves: true },
            CfpTreeConfig { max_chain_len: 15, embed_leaves: false },
            CfpTreeConfig { max_chain_len: 0, embed_leaves: false },
            CfpTreeConfig { max_chain_len: 3, embed_leaves: true },
        ];
        for trial in 0..15 {
            let n_items = rng.gen_range(1..25usize);
            let mut txns: Vec<(Vec<u32>, u32)> = Vec::new();
            for _ in 0..rng.gen_range(1..60) {
                let txn: Vec<u32> = (0..n_items as u32).filter(|_| rng.gen_bool(0.35)).collect();
                if !txn.is_empty() {
                    txns.push((txn, rng.gen_range(1..4)));
                }
            }
            let arrays: Vec<CfpArray> = configs
                .iter()
                .map(|&cfg| {
                    let mut t = CfpTree::with_config(n_items, cfg);
                    for (txn, w) in &txns {
                        t.insert(txn, *w);
                    }
                    convert(&t)
                })
                .collect();
            let reference = &arrays[0];
            for (a, cfg) in arrays.iter().zip(configs.iter()).skip(1) {
                assert_eq!(a.num_nodes(), reference.num_nodes(), "trial {trial} {cfg:?}");
                assert_eq!(a.data(), reference.data(), "trial {trial} {cfg:?}");
                assert_eq!(a.starts(), reference.starts(), "trial {trial} {cfg:?}");
            }
        }
    }

    #[test]
    fn from_db_pipeline() {
        let db = TransactionDb::from_rows(&[vec![5u32, 9, 11], vec![5, 9], vec![9, 11], vec![5]]);
        let recoder = ItemRecoder::scan(&db, 2);
        let tree = CfpTree::from_db(&db, &recoder);
        let a = convert(&tree);
        // recoded: 5 -> ?, 9 -> ?; both support 3; 11 support 2.
        assert_eq!(a.num_items(), 3);
        assert_eq!(a.item_support(0), 3);
        assert!(a.avg_node_bytes() >= 3.0);
    }
}
