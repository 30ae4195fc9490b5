//! The compression-mask byte of ternary CFP-tree nodes (§3.3).
//!
//! Every standard node starts with one byte that encodes how the rest of
//! the node is laid out:
//!
//! ```text
//! bit 7        bit 6   bit 5   bits 4..2     bits 1..0
//! suffix?      right?  left?   pcount mask   Δitem mask
//! ```
//!
//! - The 2-bit `Δitem` mask stores `stored_bytes - 1` (1..=4 bytes follow;
//!   `Δitem` is never 0, so at least one byte is always present).
//! - The 3-bit `pcount` mask stores the number of bytes that follow
//!   (0..=4); `pcount` is 0 for most nodes, which then contribute no bytes
//!   at all.
//! - Three presence bits implement null suppression for the `left`,
//!   `right`, and `suffix` pointers: a pointer is stored (5 bytes) only
//!   when the corresponding bit is set.
//!
//! A 4-byte value can never need more than 4 stored bytes, so the 3-bit
//! pcount mask has three unused values (5, 6, 7). We use `0b111` as the
//! discriminator for **chain nodes**: when bits 4..2 read `0b111` the byte
//! is a [`ChainHeader`] instead, with the chain length in the remaining
//! bits (the paper caps chains at 15 entries):
//!
//! ```text
//! bit 7        bits 6..5           bits 4..2    bits 1..0
//! suffix?      high 2 of len-2     0b111        low 2 of len-2
//! ```

/// Value of the 3-bit pcount field that marks a chain node.
pub const CHAIN_TAG: u8 = 0b111;

/// Maximum number of entries in a single chain node (§4.1).
pub const MAX_CHAIN_LEN: usize = 15;

/// Minimum number of entries for a chain node to be worthwhile.
pub const MIN_CHAIN_LEN: usize = 2;

/// Decoded layout byte of a standard ternary CFP-tree node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeMask {
    /// Stored bytes of the Δitem field (1..=4).
    pub ditem_len: usize,
    /// Stored bytes of the pcount field (0..=4).
    pub pcount_len: usize,
    /// Whether a 5-byte left pointer follows.
    pub has_left: bool,
    /// Whether a 5-byte right pointer follows.
    pub has_right: bool,
    /// Whether a 5-byte suffix pointer follows.
    pub has_suffix: bool,
}

impl NodeMask {
    /// Packs the mask into its byte representation.
    #[inline]
    pub fn encode(self) -> u8 {
        debug_assert!((1..=4).contains(&self.ditem_len));
        debug_assert!(self.pcount_len <= 4);
        (self.ditem_len as u8 - 1)
            | ((self.pcount_len as u8) << 2)
            | ((self.has_left as u8) << 5)
            | ((self.has_right as u8) << 6)
            | ((self.has_suffix as u8) << 7)
    }

    /// Unpacks a mask byte.
    ///
    /// The caller must have established that `byte` is not a chain header
    /// (see [`is_chain`]); debug builds assert it.
    #[inline]
    pub fn decode(byte: u8) -> Self {
        debug_assert!(!is_chain(byte), "chain header decoded as standard mask");
        NodeMask {
            ditem_len: ((byte & 0b11) + 1) as usize,
            pcount_len: ((byte >> 2) & 0b111) as usize,
            has_left: byte & (1 << 5) != 0,
            has_right: byte & (1 << 6) != 0,
            has_suffix: byte & (1 << 7) != 0,
        }
    }

    /// Total encoded size of a node with this layout, in bytes.
    #[inline]
    pub fn node_size(self) -> usize {
        1 + self.ditem_len
            + self.pcount_len
            + 5 * (self.has_left as usize + self.has_right as usize + self.has_suffix as usize)
    }
}

/// Whether a first byte marks a chain node rather than a standard node.
#[inline]
pub fn is_chain(byte: u8) -> bool {
    (byte >> 2) & 0b111 == CHAIN_TAG
}

/// Decoded header byte of a chain node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainHeader {
    /// Number of entries in the chain (2..=15).
    pub len: usize,
    /// Whether a 5-byte suffix pointer ends the node.
    pub has_suffix: bool,
}

impl ChainHeader {
    /// Packs the header into its byte representation.
    #[inline]
    pub fn encode(self) -> u8 {
        debug_assert!((MIN_CHAIN_LEN..=MAX_CHAIN_LEN).contains(&self.len));
        let l = (self.len - MIN_CHAIN_LEN) as u8;
        (l & 0b11) | (CHAIN_TAG << 2) | ((l >> 2) << 5) | ((self.has_suffix as u8) << 7)
    }

    /// Unpacks a chain header byte.
    #[inline]
    pub fn decode(byte: u8) -> Self {
        debug_assert!(is_chain(byte));
        let l = (byte & 0b11) | (((byte >> 5) & 0b11) << 2);
        ChainHeader { len: l as usize + MIN_CHAIN_LEN, has_suffix: byte & (1 << 7) != 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure4_example() {
        // Figure 4: Δitem = 3 (one stored byte, mask bits 11 meaning three
        // leading zero bytes), pcount = 0 (no bytes), pointers 0/0/suffix.
        // The node compresses to 7 bytes: mask + 1 Δitem byte + 5-byte
        // suffix pointer.
        let m = NodeMask {
            ditem_len: 1,
            pcount_len: 0,
            has_left: false,
            has_right: false,
            has_suffix: true,
        };
        assert_eq!(m.node_size(), 7);
        assert_eq!(NodeMask::decode(m.encode()), m);
        assert!(!is_chain(m.encode()));
    }

    #[test]
    fn smallest_standard_node_is_three_bytes() {
        // §3.3: mask + one Δitem byte + one pcount byte, no pointers.
        let m = NodeMask {
            ditem_len: 1,
            pcount_len: 1,
            has_left: false,
            has_right: false,
            has_suffix: true,
        };
        let leaf = NodeMask { has_suffix: false, ..m };
        assert_eq!(leaf.node_size(), 3);
    }

    #[test]
    fn largest_standard_node_is_24_bytes() {
        // Appendix A: node footprints range from 7 to 24 bytes.
        let m = NodeMask {
            ditem_len: 4,
            pcount_len: 4,
            has_left: true,
            has_right: true,
            has_suffix: true,
        };
        assert_eq!(m.node_size(), 24);
    }

    #[test]
    fn standard_masks_never_collide_with_chain_tag() {
        for ditem_len in 1..=4 {
            for pcount_len in 0..=4 {
                for bits in 0..8u8 {
                    let m = NodeMask {
                        ditem_len,
                        pcount_len,
                        has_left: bits & 1 != 0,
                        has_right: bits & 2 != 0,
                        has_suffix: bits & 4 != 0,
                    };
                    let b = m.encode();
                    assert!(!is_chain(b), "mask {m:?} encodes as chain byte {b:#010b}");
                    assert_eq!(NodeMask::decode(b), m);
                }
            }
        }
    }

    #[test]
    fn chain_header_round_trips_all_lengths() {
        for len in MIN_CHAIN_LEN..=MAX_CHAIN_LEN {
            for has_suffix in [false, true] {
                let h = ChainHeader { len, has_suffix };
                let b = h.encode();
                assert!(is_chain(b), "chain {h:?} not recognized");
                assert_eq!(ChainHeader::decode(b), h);
            }
        }
    }

    #[test]
    fn embed_marker_byte_is_a_chain_pattern() {
        // 0xFF never appears as a first byte of an allocated node because
        // it would decode as a chain of maximum length with suffix; the
        // slot-level embedded-leaf marker never reaches node decoding.
        assert!(is_chain(0xFF));
    }
}
