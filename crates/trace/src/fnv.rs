//! FNV-1a, the checksum of every persisted format in the workspace: the
//! `CFPA` v2 array files, `cfp-ckpt/1` manifests and `cfp-blackbox/1`
//! post-mortems. It sits here, at the bottom of the crate graph, so all
//! of them share one copy.

/// The 64-bit FNV-1a offset basis: the hash of no bytes, and the seed of
/// a fresh [`fnv1a`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues the 64-bit FNV-1a `hash` over `bytes`. Calls chain:
/// `fnv1a(fnv1a(FNV_OFFSET, a), b)` is the hash of `a` followed by `b`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"a"), b"b"), fnv1a(FNV_OFFSET, b"ab"));
    }
}
