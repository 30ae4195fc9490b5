//! Byte-level codec for ternary CFP-tree nodes.
//!
//! Three physical layouts share the arena (see the crate docs): standard
//! nodes, chain nodes, and embedded leaves. The first two are allocated
//! chunks whose first byte discriminates them (the chain tag of
//! [`cfp_encoding::mask`]); embedded leaves live inside 5-byte *slot*
//! values and are discriminated by their `0xFF` top byte.
//!
//! A **slot value** is the raw 40-bit content of a pointer field:
//!
//! - `0`: empty (no child),
//! - top byte `0xFF`: an embedded leaf (`Δitem` in the next byte, 24-bit
//!   `pcount` in the rest),
//! - anything else: the arena offset of a standard or chain node.

use cfp_encoding::mask::{is_chain, ChainHeader, NodeMask, MAX_CHAIN_LEN};
use cfp_encoding::ptr40::{read_raw40, write_raw40, EMBED_MARKER};
use cfp_encoding::{varint, zerosup};
use std::cmp::Ordering;

/// Maximum pcount storable in an embedded leaf (24 bits).
pub const EMBED_MAX_PCOUNT: u32 = (1 << 24) - 1;

/// Maximum Δitem storable in an embedded leaf or chain entry.
pub const EMBED_MAX_DITEM: u32 = 255;

// ---------------------------------------------------------------------
// Slot values
// ---------------------------------------------------------------------

/// Whether a slot value holds an embedded leaf.
#[inline]
pub fn is_embedded(raw: u64) -> bool {
    (raw >> 32) as u8 == EMBED_MARKER
}

/// Builds an embedded-leaf slot value, or `None` if the fields don't fit.
#[inline]
pub fn embed(ditem: u32, pcount: u32) -> Option<u64> {
    if (1..=EMBED_MAX_DITEM).contains(&ditem) && pcount <= EMBED_MAX_PCOUNT {
        Some(((EMBED_MARKER as u64) << 32) | ((ditem as u64) << 24) | pcount as u64)
    } else {
        None
    }
}

/// Extracts `(Δitem, pcount)` from an embedded-leaf slot value.
#[inline]
pub fn unembed(raw: u64) -> (u32, u32) {
    debug_assert!(is_embedded(raw));
    (((raw >> 24) & 0xFF) as u32, (raw & 0xFF_FFFF) as u32)
}

/// Reads the slot value stored at `buf[..5]`.
#[inline]
pub fn read_slot(buf: &[u8]) -> u64 {
    read_raw40(buf)
}

/// Writes a slot value into `buf[..5]`.
#[inline]
pub fn write_slot(buf: &mut [u8], raw: u64) {
    write_raw40(buf, raw);
}

// ---------------------------------------------------------------------
// Standard nodes
// ---------------------------------------------------------------------

/// Decoded fields of a standard node. Pointer fields hold raw slot values
/// (0 when absent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StdNode {
    /// Delta to the parent's item id (≥ 1).
    pub ditem: u32,
    /// Partial count.
    pub pcount: u32,
    /// Left sibling-BST child slot value.
    pub left: u64,
    /// Right sibling-BST child slot value.
    pub right: u64,
    /// First-child slot value.
    pub suffix: u64,
}

impl StdNode {
    /// Encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        self.mask().node_size()
    }

    fn mask(&self) -> NodeMask {
        NodeMask {
            ditem_len: zerosup::significant_bytes_min1(self.ditem),
            pcount_len: zerosup::significant_bytes(self.pcount),
            has_left: self.left != 0,
            has_right: self.right != 0,
            has_suffix: self.suffix != 0,
        }
    }

    /// Encodes the node into `buf`, returning the byte count.
    pub fn encode(&self, buf: &mut [u8]) -> usize {
        debug_assert!(self.ditem >= 1, "Δitem must be positive");
        let mask = self.mask();
        buf[0] = mask.encode();
        let mut at = 1;
        zerosup::write_bytes(&mut buf[at..], self.ditem, mask.ditem_len);
        at += mask.ditem_len;
        zerosup::write_bytes(&mut buf[at..], self.pcount, mask.pcount_len);
        at += mask.pcount_len;
        for (present, value) in [
            (mask.has_left, self.left),
            (mask.has_right, self.right),
            (mask.has_suffix, self.suffix),
        ] {
            if present {
                write_raw40(&mut buf[at..], value);
                at += 5;
            }
        }
        debug_assert_eq!(at, mask.node_size());
        at
    }

    /// Decodes a standard node, returning it and its encoded size.
    pub fn decode(buf: &[u8]) -> (StdNode, usize) {
        let mask = NodeMask::decode(buf[0]);
        let mut at = 1;
        let ditem = zerosup::read_bytes(&buf[at..], mask.ditem_len);
        at += mask.ditem_len;
        let pcount = zerosup::read_bytes(&buf[at..], mask.pcount_len);
        at += mask.pcount_len;
        let mut node = StdNode { ditem, pcount, ..Default::default() };
        if mask.has_left {
            node.left = read_raw40(&buf[at..]);
            at += 5;
        }
        if mask.has_right {
            node.right = read_raw40(&buf[at..]);
            at += 5;
        }
        if mask.has_suffix {
            node.suffix = read_raw40(&buf[at..]);
            at += 5;
        }
        (node, at)
    }
}

/// Δitem of the standard node at `buf[0]` laid out by `mask`, read in
/// place: one 4-byte load cut to `mask.ditem_len` bytes, or a bounded
/// read when fewer than four bytes follow the mask byte.
#[inline]
pub fn std_ditem(buf: &[u8], mask: NodeMask) -> u32 {
    match buf[1..].first_chunk::<4>() {
        Some(le) => u32::from_le_bytes(*le) & (u32::MAX >> (32 - 8 * mask.ditem_len)),
        None => zerosup::read_bytes(&buf[1..], mask.ditem_len),
    }
}

/// Byte offset, within a standard node laid out by `mask`, of the
/// pointer an insertion step follows when the wanted Δitem compares to
/// the node's as `toward`: `left` when it is smaller, `right` when
/// larger, `suffix` when equal. `None` when that pointer is absent.
/// Stored pointers follow Δitem and pcount in the order `left`, `right`,
/// `suffix`.
#[inline]
pub fn std_ptr_offset(mask: NodeMask, toward: Ordering) -> Option<usize> {
    let (present, before) = match toward {
        Ordering::Less => (mask.has_left, 0),
        Ordering::Greater => (mask.has_right, mask.has_left as usize),
        Ordering::Equal => (mask.has_suffix, mask.has_left as usize + mask.has_right as usize),
    };
    present.then(|| 1 + mask.ditem_len + mask.pcount_len + 5 * before)
}

// ---------------------------------------------------------------------
// Chain nodes
// ---------------------------------------------------------------------

/// Decoded fields of a chain node: up to 15 logical nodes in one chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainNode {
    /// The Δitem of each entry, top-most first. Only `len` are valid.
    pub ditems: [u8; MAX_CHAIN_LEN],
    /// Number of entries (2..=15).
    pub len: usize,
    /// pcount of the **last** entry (all earlier entries have pcount 0).
    pub pcount: u32,
    /// Slot value continuing below the last entry (0 when absent).
    pub suffix: u64,
}

impl Default for ChainNode {
    fn default() -> Self {
        ChainNode { ditems: [0; MAX_CHAIN_LEN], len: 0, pcount: 0, suffix: 0 }
    }
}

impl ChainNode {
    /// Builds a chain from a slice of entry deltas.
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `2 <= entries.len() <= 15` and every delta
    /// fits a byte.
    pub fn from_entries(entries: &[u32], pcount: u32, suffix: u64) -> Self {
        debug_assert!((2..=MAX_CHAIN_LEN).contains(&entries.len()));
        let mut ditems = [0u8; MAX_CHAIN_LEN];
        for (d, &e) in ditems.iter_mut().zip(entries) {
            debug_assert!((1..=EMBED_MAX_DITEM).contains(&e));
            *d = e as u8;
        }
        ChainNode { ditems, len: entries.len(), pcount, suffix }
    }

    /// The valid entries.
    pub fn entries(&self) -> &[u8] {
        &self.ditems[..self.len]
    }

    /// Encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        1 + self.len
            + varint::encoded_len(self.pcount as u64)
            + if self.suffix != 0 { 5 } else { 0 }
    }

    /// Encodes the chain into `buf`, returning the byte count.
    pub fn encode(&self, buf: &mut [u8]) -> usize {
        let header = ChainHeader { len: self.len, has_suffix: self.suffix != 0 };
        buf[0] = header.encode();
        buf[1..1 + self.len].copy_from_slice(self.entries());
        let mut at = 1 + self.len;
        at += varint::write_u64_into(&mut buf[at..], self.pcount as u64);
        if self.suffix != 0 {
            write_raw40(&mut buf[at..], self.suffix);
            at += 5;
        }
        debug_assert_eq!(at, self.encoded_size());
        at
    }

    /// Decodes a chain node, returning it and its encoded size.
    pub fn decode(buf: &[u8]) -> (ChainNode, usize) {
        let header = ChainHeader::decode(buf[0]);
        let mut node = ChainNode { len: header.len, ..Default::default() };
        node.ditems[..header.len].copy_from_slice(&buf[1..1 + header.len]);
        let mut at = 1 + header.len;
        let (pc, n) = varint::read_u64_unchecked(&buf[at..]);
        node.pcount = pc as u32;
        at += n;
        if header.has_suffix {
            node.suffix = read_raw40(&buf[at..]);
            at += 5;
        }
        (node, at)
    }

    /// `pcount` and suffix slot value of the chain at `buf[0]`, read
    /// without copying its entries.
    pub fn decode_end(buf: &[u8]) -> (u32, u64) {
        let header = ChainHeader::decode(buf[0]);
        let at = 1 + header.len;
        let (pcount, n) = varint::read_u64_unchecked(&buf[at..]);
        let suffix = if header.has_suffix { read_raw40(&buf[at + n..]) } else { 0 };
        (pcount as u32, suffix)
    }

    /// Byte offset of the suffix pointer within the encoded chain, or
    /// `None` when absent.
    pub fn suffix_offset(buf: &[u8]) -> Option<usize> {
        let header = ChainHeader::decode(buf[0]);
        if !header.has_suffix {
            return None;
        }
        let at = 1 + header.len;
        Some(at + varint::skip(&buf[at..]))
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// A decoded allocated node (standard or chain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node {
    /// A standard node.
    Std(StdNode),
    /// A chain node.
    Chain(ChainNode),
}

/// Decodes the node starting at `buf[0]`, returning it and its size.
pub fn decode(buf: &[u8]) -> (Node, usize) {
    if is_chain(buf[0]) {
        let (c, n) = ChainNode::decode(buf);
        (Node::Chain(c), n)
    } else {
        let (s, n) = StdNode::decode(buf);
        (Node::Std(s), n)
    }
}

/// Size in bytes of the node starting at `buf[0]` without fully decoding.
pub fn node_size(buf: &[u8]) -> usize {
    if is_chain(buf[0]) {
        let header = ChainHeader::decode(buf[0]);
        let at = 1 + header.len;
        at + varint::skip(&buf[at..]) + if header.has_suffix { 5 } else { 0 }
    } else {
        let mask = NodeMask::decode(buf[0]);
        mask.node_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_leaf_round_trip() {
        let raw = embed(7, 123_456).unwrap();
        assert!(is_embedded(raw));
        assert_eq!(unembed(raw), (7, 123_456));
        // And it survives a slot write/read.
        let mut buf = [0u8; 5];
        write_slot(&mut buf, raw);
        assert_eq!(buf[0], EMBED_MARKER);
        assert_eq!(read_slot(&buf), raw);
    }

    #[test]
    fn embed_limits() {
        assert!(embed(0, 1).is_none(), "Δitem 0 impossible");
        assert!(embed(256, 1).is_none());
        assert!(embed(255, EMBED_MAX_PCOUNT).is_some());
        assert!(embed(255, EMBED_MAX_PCOUNT + 1).is_none());
        assert!(embed(1, 0).is_some(), "pcount 0 embeds (used mid-split)");
    }

    #[test]
    fn embedded_values_never_collide_with_offsets() {
        let raw = embed(1, 0).unwrap();
        assert!(raw > cfp_encoding::ptr40::MAX_OFFSET);
    }

    #[test]
    fn figure4_node_is_seven_bytes() {
        // Figure 4: Δitem=3, pcount=0, only a suffix pointer.
        let node = StdNode { ditem: 3, pcount: 0, suffix: 0x1234, ..Default::default() };
        assert_eq!(node.encoded_size(), 7);
        let mut buf = [0u8; 24];
        let n = node.encode(&mut buf);
        assert_eq!(n, 7);
        let (back, size) = StdNode::decode(&buf);
        assert_eq!(back, node);
        assert_eq!(size, 7);
    }

    #[test]
    fn std_round_trip_extremes() {
        for node in [
            StdNode { ditem: 1, pcount: 0, ..Default::default() },
            StdNode { ditem: u32::MAX, pcount: u32::MAX, left: 1, right: 2, suffix: 3 },
            StdNode { ditem: 256, pcount: 1 << 24, left: 0, right: 0xFF_FFFF_FFFF - 1, suffix: 0 },
        ] {
            let mut buf = [0u8; 24];
            let n = node.encode(&mut buf);
            assert_eq!(n, node.encoded_size());
            assert_eq!(StdNode::decode(&buf), (node, n));
        }
    }

    #[test]
    fn std_stores_embedded_children_verbatim() {
        let child = embed(9, 42).unwrap();
        let node = StdNode { ditem: 2, pcount: 0, suffix: child, ..Default::default() };
        let mut buf = [0u8; 24];
        node.encode(&mut buf);
        let (back, _) = StdNode::decode(&buf);
        assert!(is_embedded(back.suffix));
        assert_eq!(unembed(back.suffix), (9, 42));
    }

    #[test]
    fn ptr_offsets_locate_fields() {
        let node = StdNode { ditem: 300, pcount: 7, left: 0xAA, right: 0, suffix: 0xBB };
        let mut buf = [0u8; 24];
        node.encode(&mut buf);
        let mask = NodeMask::decode(buf[0]);
        let l = std_ptr_offset(mask, Ordering::Less).unwrap();
        assert_eq!(read_raw40(&buf[l..]), 0xAA);
        assert_eq!(std_ptr_offset(mask, Ordering::Greater), None);
        let s = std_ptr_offset(mask, Ordering::Equal).unwrap();
        assert_eq!(read_raw40(&buf[s..]), 0xBB);
        // ditem 300 needs 2 bytes, pcount 7 needs 1: left at 1+2+1 = 4.
        assert_eq!(l, 4);
        assert_eq!(s, 9, "suffix follows left when right is absent");
    }

    #[test]
    fn in_place_reads_agree_with_decode_up_to_the_last_byte() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x1EA1);
        for _ in 0..2000 {
            let node = StdNode {
                ditem: (rng.gen::<u32>() >> rng.gen_range(0u32..32)).max(1),
                pcount: rng.gen::<u32>() >> rng.gen_range(0u32..32),
                left: rng.gen_range(0u64..3),
                right: rng.gen_range(0u64..3),
                suffix: rng.gen_range(0u64..3),
            };
            let mut buf = [0xA5u8; 24];
            let n = node.encode(&mut buf);
            // Exactly the node's bytes, as when it ends the arena (a node
            // under five bytes takes the bounded read), and the node
            // followed by other bytes.
            for buf in [&buf[..n], &buf[..]] {
                let mask = NodeMask::decode(buf[0]);
                assert_eq!(std_ditem(buf, mask), node.ditem, "{node:?}");
                for (toward, value) in [
                    (Ordering::Less, node.left),
                    (Ordering::Greater, node.right),
                    (Ordering::Equal, node.suffix),
                ] {
                    let at = std_ptr_offset(mask, toward);
                    assert_eq!(at.map(|at| read_raw40(&buf[at..])), (value != 0).then_some(value));
                }
            }

            let len = rng.gen_range(2..MAX_CHAIN_LEN + 1);
            let entries: Vec<u32> = (0..len).map(|_| rng.gen_range(1u32..256)).collect();
            let chain = ChainNode::from_entries(&entries, node.pcount, node.suffix);
            let mut buf = [0u8; 32];
            let n = chain.encode(&mut buf);
            assert_eq!(ChainNode::decode_end(&buf[..n]), (chain.pcount, chain.suffix));
        }
    }

    #[test]
    fn chain_round_trip() {
        let chain = ChainNode::from_entries(&[1, 2, 255, 1], 70000, 0xDEAD);
        let mut buf = [0u8; 32];
        let n = chain.encode(&mut buf);
        assert_eq!(n, chain.encoded_size());
        assert_eq!(ChainNode::decode(&buf), (chain, n));
        assert_eq!(ChainNode::suffix_offset(&buf), Some(n - 5));
    }

    #[test]
    fn chain_without_suffix() {
        let chain = ChainNode::from_entries(&[5, 5], 1, 0);
        let mut buf = [0u8; 32];
        let n = chain.encode(&mut buf);
        assert_eq!(n, 1 + 2 + 1, "header + 2 entries + 1-byte pcount");
        assert_eq!(ChainNode::suffix_offset(&buf), None);
        assert_eq!(ChainNode::decode(&buf).0, chain);
    }

    #[test]
    fn chain_max_size_fits_arena_chunks() {
        let entries = [255u32; MAX_CHAIN_LEN];
        let chain = ChainNode::from_entries(&entries, u32::MAX, 0x1234);
        // header 1 + 15 entries + 5-byte varint + 5-byte suffix = 26.
        assert_eq!(chain.encoded_size(), 26);
        assert!(chain.encoded_size() <= cfp_memman::MAX_CHUNK);
    }

    /// Seeded sweep over standard nodes, chain nodes and embedded
    /// leaves: every field combination round-trips, and `node_size`
    /// agrees with the encoder.
    #[test]
    fn seeded_nodes_round_trip() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x0DE5);
        let ptr = |rng: &mut StdRng| -> u64 {
            if rng.gen_bool(0.3) {
                0
            } else {
                rng.gen_range(1u64..1 << 39)
            }
        };
        for _ in 0..2000 {
            let node = StdNode {
                ditem: (rng.gen::<u32>() >> rng.gen_range(0u32..32)).max(1),
                pcount: rng.gen::<u32>() >> rng.gen_range(0u32..32),
                left: ptr(&mut rng),
                right: ptr(&mut rng),
                suffix: ptr(&mut rng),
            };
            let mut buf = [0u8; 24];
            let n = node.encode(&mut buf);
            assert_eq!(n, node.encoded_size(), "{node:?}");
            assert_eq!(StdNode::decode(&buf), (node, n));
            assert_eq!(node_size(&buf), n);

            let len = rng.gen_range(2..MAX_CHAIN_LEN + 1);
            let entries: Vec<u32> = (0..len).map(|_| rng.gen_range(1u32..256)).collect();
            let chain = ChainNode::from_entries(&entries, node.pcount, ptr(&mut rng));
            let mut buf = [0u8; 32];
            let n = chain.encode(&mut buf);
            assert_eq!(n, chain.encoded_size(), "{entries:?}");
            assert_eq!(ChainNode::decode(&buf), (chain, n));
            assert_eq!(node_size(&buf), n);

            let (ditem, pcount) =
                (rng.gen_range(1u32..256), rng.gen_range(0..EMBED_MAX_PCOUNT + 1));
            let raw = embed(ditem, pcount).unwrap();
            assert!(is_embedded(raw));
            assert_eq!(unembed(raw), (ditem, pcount));
        }
    }

    #[test]
    fn dispatch_distinguishes_kinds() {
        let mut buf = [0u8; 32];
        let std = StdNode { ditem: 4, pcount: 2, ..Default::default() };
        std.encode(&mut buf);
        assert!(matches!(decode(&buf).0, Node::Std(s) if s == std));
        assert_eq!(node_size(&buf), std.encoded_size());

        let chain = ChainNode::from_entries(&[1, 1, 1], 0, 0);
        chain.encode(&mut buf);
        assert!(matches!(decode(&buf).0, Node::Chain(c) if c == chain));
        assert_eq!(node_size(&buf), chain.encoded_size());
    }
}
