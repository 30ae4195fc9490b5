//! Leading-zero-byte suppression for 32-bit integers (§2.3).
//!
//! Westmann-style "small integer" compression: the leading (most
//! significant) zero bytes of a value are dropped and their number is
//! recorded in a small compression mask stored elsewhere (in the CFP-tree,
//! inside the node's first byte — see [`crate::mask`]).
//!
//! Two variants exist:
//!
//! - **3-bit mask** ([`significant_bytes`] ∈ 0..=4): can express that *all
//!   four* bytes were suppressed, i.e. the value is 0 and occupies no bytes
//!   at all. Used for `pcount`, which is 0 for the vast majority of CFP-tree
//!   nodes (Table 2: ~97% on webdocs).
//! - **2-bit mask** ([`significant_bytes_min1`] ∈ 1..=4): always stores at
//!   least the low byte, even when it is zero. Used for `Δitem`, which is
//!   never 0 (support-ordered item ids strictly increase along every path).
//!
//! Bytes are written least-significant first; only the count of suppressed
//! bytes travels in the mask.

/// Number of significant (stored) bytes under the 3-bit-mask variant: 0..=4.
#[inline]
pub fn significant_bytes(v: u32) -> usize {
    4 - v.leading_zeros() as usize / 8
}

/// Number of stored bytes under the 2-bit-mask variant: 1..=4.
#[inline]
pub fn significant_bytes_min1(v: u32) -> usize {
    significant_bytes(v).max(1)
}

/// Writes the `n` low bytes of `v` (LSB first) into `buf[..n]`.
///
/// `n` must come from [`significant_bytes`] / [`significant_bytes_min1`]
/// for the value to round-trip.
#[inline]
pub fn write_bytes(buf: &mut [u8], v: u32, n: usize) {
    let le = v.to_le_bytes();
    buf[..n].copy_from_slice(&le[..n]);
}

/// Appends the `n` low bytes of `v` to `out`.
#[inline]
pub fn push_bytes(out: &mut Vec<u8>, v: u32, n: usize) {
    out.extend_from_slice(&v.to_le_bytes()[..n]);
}

/// Reads a value stored as `n` low bytes (LSB first) from `buf[..n]`.
#[inline]
pub fn read_bytes(buf: &[u8], n: usize) -> u32 {
    debug_assert!(n <= 4);
    let mut le = [0u8; 4];
    le[..n].copy_from_slice(&buf[..n]);
    u32::from_le_bytes(le)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn significant_bytes_boundaries() {
        assert_eq!(significant_bytes(0), 0);
        assert_eq!(significant_bytes(1), 1);
        assert_eq!(significant_bytes(0xFF), 1);
        assert_eq!(significant_bytes(0x100), 2);
        assert_eq!(significant_bytes(0xFFFF), 2);
        assert_eq!(significant_bytes(0x1_0000), 3);
        assert_eq!(significant_bytes(0xFF_FFFF), 3);
        assert_eq!(significant_bytes(0x100_0000), 4);
        assert_eq!(significant_bytes(u32::MAX), 4);
    }

    #[test]
    fn min1_variant_always_stores_a_byte() {
        assert_eq!(significant_bytes_min1(0), 1);
        assert_eq!(significant_bytes_min1(1), 1);
        assert_eq!(significant_bytes_min1(0x100), 2);
    }

    #[test]
    fn paper_example_0x90_stores_one_byte() {
        // §2.3: hexadecimal 00000090 keeps a single non-zero byte under
        // leading-zero suppression (the 3-bit mask says 3 bytes dropped).
        let v = 0x90u32;
        let n = significant_bytes(v);
        assert_eq!(n, 1);
        let mut buf = [0u8; 4];
        write_bytes(&mut buf, v, n);
        assert_eq!(buf[0], 0x90);
        assert_eq!(read_bytes(&buf, n), v);
    }

    #[test]
    fn zero_value_occupies_nothing_in_3bit_variant() {
        let n = significant_bytes(0);
        assert_eq!(n, 0);
        assert_eq!(read_bytes(&[], 0), 0);
    }

    #[test]
    fn push_bytes_appends_exactly_n() {
        let mut out = vec![0xEE];
        push_bytes(&mut out, 0x0102_0304, 4);
        assert_eq!(out, vec![0xEE, 0x04, 0x03, 0x02, 0x01]);
    }
}
