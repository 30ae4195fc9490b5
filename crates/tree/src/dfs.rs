//! Logical depth-first traversal of the CFP-tree.
//!
//! The traversal yields the *logical* FP-tree: chain entries and embedded
//! leaves appear as ordinary nodes. Siblings are visited in ascending item
//! order (in-order over the sibling BST), which makes the traversal — and
//! everything derived from it, like the CFP-array layout — deterministic.
//!
//! Events come in balanced `Enter`/`Leave` pairs; consumers reconstruct
//! absolute items by accumulating `Δitem` along the current path (the
//! virtual root sits at item −1, so a root child with item `i` carries
//! `Δitem = i + 1`).
//!
//! Chains are walked where they lie in the arena: a chain frame holds the
//! chain's offset, the next entry's index and the entry count, each step
//! reads one entry's Δitem byte, and the last entry decodes the chain's
//! `pcount` and suffix. A standard node is decoded once, when its slot is
//! resolved, since its body and all three pointers are used. Empty slots
//! are never pushed, and a node without a left subtree is entered at
//! once instead of through a body frame.

use crate::node::{self, ChainNode, StdNode};
use crate::tree::CfpTree;
use cfp_encoding::mask::{is_chain, ChainHeader};

/// One traversal event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DfsEvent {
    /// A node is entered (pre-order position).
    Enter {
        /// Delta to the parent's item (≥ 1; relative to −1 at the root).
        ditem: u32,
        /// The node's partial count.
        pcount: u32,
    },
    /// The most recently entered unclosed node is left (post-order).
    Leave,
}

enum Frame {
    /// Resolve a non-empty raw slot value (BST in-order for allocated
    /// nodes).
    Slot(u64),
    /// Emit the body of a standard node, then its suffix subtree.
    StdBody { ditem: u32, pcount: u32, suffix: u64 },
    /// Emit entry `idx` of the `len`-entry chain at arena offset `off`,
    /// then deeper entries / the suffix.
    ChainEntry { off: u64, idx: usize, len: usize },
    /// Emit a `Leave`.
    Leave,
}

/// Iterator over the logical DFS events of a [`CfpTree`].
pub struct DfsIter<'t> {
    tree: &'t CfpTree,
    stack: Vec<Frame>,
}

impl<'t> DfsIter<'t> {
    /// Starts a traversal at the root.
    pub fn new(tree: &'t CfpTree) -> Self {
        let mut dfs = DfsIter { tree, stack: Vec::new() };
        dfs.push_slot(tree.root_value());
        dfs
    }

    /// Pushes a slot to resolve; an empty one has nothing to emit.
    fn push_slot(&mut self, raw: u64) {
        if raw != 0 {
            self.stack.push(Frame::Slot(raw));
        }
    }

    /// Enters a standard node and schedules its suffix subtree and its
    /// `Leave`.
    fn enter_std(&mut self, ditem: u32, pcount: u32, suffix: u64) -> DfsEvent {
        self.stack.push(Frame::Leave);
        self.push_slot(suffix);
        DfsEvent::Enter { ditem, pcount }
    }
}

impl Iterator for DfsIter<'_> {
    type Item = DfsEvent;

    fn next(&mut self) -> Option<DfsEvent> {
        while let Some(frame) = self.stack.pop() {
            match frame {
                Frame::Slot(raw) => {
                    if node::is_embedded(raw) {
                        let (ditem, pcount) = node::unembed(raw);
                        self.stack.push(Frame::Leave);
                        return Some(DfsEvent::Enter { ditem, pcount });
                    }
                    let buf = self.tree.arena().tail(raw);
                    if is_chain(buf[0]) {
                        let len = ChainHeader::decode(buf[0]).len;
                        self.stack.push(Frame::ChainEntry { off: raw, idx: 0, len });
                    } else {
                        let (std, _) = StdNode::decode(buf);
                        // In-order: left subtree, node body, right subtree.
                        self.push_slot(std.right);
                        if std.left == 0 {
                            return Some(self.enter_std(std.ditem, std.pcount, std.suffix));
                        }
                        self.stack.push(Frame::StdBody {
                            ditem: std.ditem,
                            pcount: std.pcount,
                            suffix: std.suffix,
                        });
                        self.stack.push(Frame::Slot(std.left));
                    }
                }
                Frame::StdBody { ditem, pcount, suffix } => {
                    return Some(self.enter_std(ditem, pcount, suffix));
                }
                Frame::ChainEntry { off, idx, len } => {
                    let buf = self.tree.arena().tail(off);
                    let ditem = buf[1 + idx] as u32;
                    self.stack.push(Frame::Leave);
                    if idx + 1 < len {
                        self.stack.push(Frame::ChainEntry { off, idx: idx + 1, len });
                        return Some(DfsEvent::Enter { ditem, pcount: 0 });
                    }
                    let (pcount, suffix) = ChainNode::decode_end(buf);
                    self.push_slot(suffix);
                    return Some(DfsEvent::Enter { ditem, pcount });
                }
                Frame::Leave => return Some(DfsEvent::Leave),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(tree: &CfpTree) -> Vec<DfsEvent> {
        DfsIter::new(tree).collect()
    }

    #[test]
    fn empty_tree_yields_no_events() {
        let t = CfpTree::new(3);
        assert!(events(&t).is_empty());
    }

    #[test]
    fn events_are_balanced() {
        let mut t = CfpTree::new(16);
        t.insert(&[0, 1, 2], 1);
        t.insert(&[0, 3], 2);
        t.insert(&[5], 1);
        let evs = events(&t);
        let mut depth = 0i64;
        for e in &evs {
            match e {
                DfsEvent::Enter { .. } => depth += 1,
                DfsEvent::Leave => {
                    depth -= 1;
                    assert!(depth >= 0);
                }
            }
        }
        assert_eq!(depth, 0);
        let enters = evs.iter().filter(|e| matches!(e, DfsEvent::Enter { .. })).count();
        assert_eq!(enters as u64, t.num_nodes());
    }

    #[test]
    fn siblings_visited_in_ascending_item_order() {
        let mut t = CfpTree::new(64);
        for item in [31u32, 5, 47, 0, 63, 22] {
            t.insert(&[item], 1);
        }
        let mut items = Vec::new();
        // All nodes are root children (depth 1), so the parent item is the
        // virtual root's −1 throughout.
        for e in events(&t) {
            if let DfsEvent::Enter { ditem, .. } = e {
                items.push(ditem - 1);
            }
        }
        assert_eq!(items, vec![0, 5, 22, 31, 47, 63]);
    }

    #[test]
    fn nesting_reflects_paths() {
        let mut t = CfpTree::new(8);
        t.insert(&[1, 2, 4], 3);
        let evs = events(&t);
        assert_eq!(
            evs,
            vec![
                DfsEvent::Enter { ditem: 2, pcount: 0 },
                DfsEvent::Enter { ditem: 1, pcount: 0 },
                DfsEvent::Enter { ditem: 2, pcount: 3 },
                DfsEvent::Leave,
                DfsEvent::Leave,
                DfsEvent::Leave,
            ]
        );
    }

    #[test]
    fn pcounts_sum_to_inserted_weight() {
        let mut t = CfpTree::new(10);
        t.insert(&[0, 1], 2);
        t.insert(&[0, 1, 2], 1);
        t.insert(&[4], 7);
        let total: u64 = events(&t)
            .iter()
            .filter_map(|e| match e {
                DfsEvent::Enter { pcount, .. } => Some(*pcount as u64),
                _ => None,
            })
            .sum();
        assert_eq!(total, t.weight_total());
    }
}
