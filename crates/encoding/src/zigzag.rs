//! Zigzag mapping between signed and unsigned integers.
//!
//! Maps 0, -1, 1, -2, 2, … to 0, 1, 2, 3, 4, … so that values of small
//! magnitude — positive *or* negative — stay small and therefore short
//! under variable-byte encoding. Used for the CFP-array's `Δpos` field,
//! whose sign the DFS layout cannot guarantee (see crate docs).

/// Maps a signed value to its zigzag-encoded unsigned form.
#[inline]
pub fn encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`encode`].
#[inline]
pub fn decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_interleave() {
        assert_eq!(encode(0), 0);
        assert_eq!(encode(-1), 1);
        assert_eq!(encode(1), 2);
        assert_eq!(encode(-2), 3);
        assert_eq!(encode(2), 4);
    }

    #[test]
    fn extremes_round_trip() {
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(decode(encode(v)), v);
        }
        assert_eq!(encode(i64::MAX), u64::MAX - 1);
        assert_eq!(encode(i64::MIN), u64::MAX);
    }
}
