//! Variable-byte (varint128 / 7-bit) encoding.
//!
//! An integer is split into 7-bit groups stored little-endian-first; the
//! high bit of each byte is a continuation flag (1 = another byte follows).
//! Values below 128 take a single byte, which the paper exploits: `Δitem`
//! and `count` in the CFP-array almost always fit in one byte.

/// Maximum encoded length of a `u64` (⌈64/7⌉ bytes).
pub const MAX_LEN_U64: usize = 10;

/// Maximum encoded length of a `u32` (⌈32/7⌉ bytes).
pub const MAX_LEN_U32: usize = 5;

/// Number of bytes [`write_u64`] produces for `v`.
#[inline]
pub fn encoded_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    let bits = 64 - v.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Appends the varint encoding of `v` to `out`, returning the byte count.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        n += 1;
        if v == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Encodes `v` into `buf`, which must hold at least [`encoded_len`]`(v)`
/// bytes. Returns the byte count.
#[inline]
pub fn write_u64_into(buf: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            return n + 1;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

/// Decodes a varint from the start of `buf`.
///
/// Returns the value and the number of bytes consumed, or `None` if `buf`
/// ends mid-value or the encoding overflows 64 bits.
#[inline]
pub fn read_u64(buf: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        let payload = (byte & 0x7F) as u64;
        // The 10th byte of a u64 varint may only contribute its low bit.
        if shift == 63 && payload > 1 {
            return None;
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// Decodes a varint known to be valid (panics on malformed input in debug
/// builds; used on buffers this library produced itself).
#[inline]
pub fn read_u64_unchecked(buf: &[u8]) -> (u64, usize) {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    let mut i = 0;
    loop {
        let byte = buf[i];
        value |= ((byte & 0x7F) as u64) << shift;
        i += 1;
        if byte & 0x80 == 0 {
            return (value, i);
        }
        shift += 7;
    }
}

/// Number of bytes of the varint starting at `buf[0]`, without decoding it.
///
/// Variable-byte encoding cannot look up a value's length without scanning
/// the continuation bits (§2.3); this is the scan.
#[inline]
pub fn skip(buf: &[u8]) -> usize {
    let mut i = 0;
    while buf[i] & 0x80 != 0 {
        i += 1;
    }
    i + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_0x90_takes_two_bytes() {
        // §2.3: hexadecimal 00000090 encodes as 10010000 00000001
        // (low group first with continuation bit set).
        let mut out = Vec::new();
        write_u64(&mut out, 0x90);
        assert_eq!(out, vec![0b1001_0000, 0b0000_0001]);
        assert_eq!(read_u64(&out), Some((0x90, 2)));
    }

    #[test]
    fn boundary_lengths() {
        assert_eq!(encoded_len(0), 1);
        assert_eq!(encoded_len(127), 1);
        assert_eq!(encoded_len(128), 2);
        assert_eq!(encoded_len(16_383), 2);
        assert_eq!(encoded_len(16_384), 3);
        assert_eq!(encoded_len(u32::MAX as u64), 5);
        assert_eq!(encoded_len(u64::MAX), 10);
    }

    #[test]
    fn round_trip_selected_values() {
        for v in [0u64, 1, 127, 128, 255, 300, 1 << 20, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            let n = write_u64(&mut out, v);
            assert_eq!(n, out.len());
            assert_eq!(n, encoded_len(v));
            assert_eq!(read_u64(&out), Some((v, n)));
            assert_eq!(read_u64_unchecked(&out), (v, n));
            assert_eq!(skip(&out), n);
        }
    }

    #[test]
    fn write_into_matches_vec_writer() {
        for v in [0u64, 5, 129, 99999, u64::MAX] {
            let mut vec_out = Vec::new();
            write_u64(&mut vec_out, v);
            let mut buf = [0u8; MAX_LEN_U64];
            let n = write_u64_into(&mut buf, v);
            assert_eq!(&buf[..n], &vec_out[..]);
        }
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut out = Vec::new();
        write_u64(&mut out, u64::MAX);
        for cut in 0..out.len() {
            assert_eq!(read_u64(&out[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn overlong_encoding_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let bad = [0x80u8; 11];
        assert_eq!(read_u64(&bad), None);
    }

    #[test]
    fn overflowing_tenth_byte_rejected() {
        // 9 continuation bytes then a final byte with more than the low bit.
        let mut bad = vec![0x80u8; 9];
        bad.push(0x02);
        assert_eq!(read_u64(&bad), None);
    }
}
