//! Randomized round-trip properties for every encoding primitive.
//!
//! Each codec in `cfp-encoding` is driven through explicit boundary
//! values (power-of-two edges, type extremes, format markers) plus a
//! seeded random sweep whose magnitudes are spread across the full bit
//! range (`next >> gen_range(0..64)`), so short and long encodings are
//! both exercised. Everything is deterministic: a failure reproduces
//! from the fixed seeds compiled into this file.

use cfp_data::rng::{Rng, StdRng};
use cfp_encoding::mask::{self, ChainHeader};
use cfp_encoding::{ptr40, varint, zerosup, zigzag, NodeMask, Ptr40};

const SEED: u64 = 0xC0DEC;
const RANDOM_VALUES: usize = 1000;

/// Boundary values around every varint length step, plus random values
/// with uniformly distributed bit widths.
fn u64_corpus() -> Vec<u64> {
    let mut values = vec![0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX];
    for k in [7u32, 14, 21, 28, 35, 42, 49, 56, 63] {
        let edge = 1u64 << k;
        values.extend([edge - 1, edge, edge + 1]);
    }
    let mut rng = StdRng::seed_from_u64(SEED);
    for _ in 0..RANDOM_VALUES {
        values.push(rng.gen::<u64>() >> rng.gen_range(0..64));
    }
    values
}

#[test]
fn varint_round_trips_and_all_paths_agree() {
    for v in u64_corpus() {
        let len = varint::encoded_len(v);
        assert!((1..=varint::MAX_LEN_U64).contains(&len), "encoded_len({v}) = {len} out of range");

        let mut vec_buf = Vec::new();
        assert_eq!(varint::write_u64(&mut vec_buf, v), len);
        assert_eq!(vec_buf.len(), len);

        let mut arr_buf = [0u8; varint::MAX_LEN_U64];
        assert_eq!(varint::write_u64_into(&mut arr_buf, v), len);
        assert_eq!(&arr_buf[..len], &vec_buf[..], "write paths disagree for {v}");

        assert_eq!(varint::read_u64(&vec_buf), Some((v, len)));
        assert_eq!(varint::read_u64_unchecked(&vec_buf), (v, len));
        assert_eq!(varint::skip(&vec_buf), len);

        // Every strict prefix is an incomplete encoding.
        for cut in 0..len {
            assert_eq!(varint::read_u64(&vec_buf[..cut]), None, "truncated read of {v} at {cut}");
        }

        if v <= u32::MAX as u64 {
            assert!(len <= varint::MAX_LEN_U32, "u32 value {v} took {len} bytes");
        }
    }
}

#[test]
fn varint_skip_stops_at_the_end_of_each_encoding() {
    for v in u64_corpus() {
        let mut buf = Vec::new();
        let len = varint::write_u64(&mut buf, v);
        // Trailing bytes that would continue the varint if skip overran.
        buf.extend_from_slice(&[0xAB, 0xCD]);
        assert_eq!(varint::skip(&buf), len, "skip of {v}");
        assert_eq!(varint::read_u64(&buf), Some((v, len)));
    }
}

#[test]
fn varint_length_is_monotone_in_value() {
    let mut values = u64_corpus();
    values.sort_unstable();
    for pair in values.windows(2) {
        assert!(varint::encoded_len(pair[0]) <= varint::encoded_len(pair[1]));
    }
}

#[test]
fn zigzag_round_trips_and_keeps_small_magnitudes_small() {
    let mut corpus = vec![0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
    corpus.extend(u64_corpus().into_iter().map(|v| v as i64));
    for v in corpus {
        let encoded = zigzag::encode(v);
        assert_eq!(zigzag::decode(encoded), v, "zigzag round trip of {v}");
        // The defining property: |v| in [-2^k, 2^k) maps below 2^(k+1),
        // so small magnitudes get short varints regardless of sign.
        assert_eq!(encoded, v.unsigned_abs().wrapping_mul(2).wrapping_sub(u64::from(v < 0)));

        // Composition with varint — the on-disk form of signed fields.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, encoded);
        let (back, _) = varint::read_u64(&buf).expect("complete encoding");
        assert_eq!(zigzag::decode(back), v);
    }
}

#[test]
fn zerosup_widths_and_round_trips() {
    assert_eq!(zerosup::significant_bytes(0), 0);
    assert_eq!(zerosup::significant_bytes_min1(0), 1);
    for (v, bytes) in [
        (0xFFu32, 1),
        (0x100, 2),
        (0xFFFF, 2),
        (0x1_0000, 3),
        (0xFF_FFFF, 3),
        (0x100_0000, 4),
        (u32::MAX, 4),
    ] {
        assert_eq!(zerosup::significant_bytes(v), bytes, "width of {v:#x}");
    }

    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let mut corpus = vec![0u32, 1, 0xFF, 0x100, 0xFFFF, 0x1_0000, 0xFF_FFFF, 0x100_0000, u32::MAX];
    for _ in 0..RANDOM_VALUES {
        corpus.push(rng.gen::<u32>() >> rng.gen_range(0..32));
    }
    for v in corpus {
        let n = zerosup::significant_bytes_min1(v);
        assert_eq!(n, zerosup::significant_bytes(v).max(1));

        let mut fixed = [0u8; 4];
        zerosup::write_bytes(&mut fixed[..n], v, n);
        assert_eq!(zerosup::read_bytes(&fixed[..n], n), v, "slice round trip of {v:#x}");

        let mut out = Vec::new();
        zerosup::push_bytes(&mut out, v, n);
        assert_eq!(out.len(), n);
        assert_eq!(&out[..], &fixed[..n], "push/write disagree for {v:#x}");

        // Widening to the full 4 bytes must decode identically.
        let mut wide = [0u8; 4];
        zerosup::write_bytes(&mut wide, v, 4);
        assert_eq!(zerosup::read_bytes(&wide, 4), v);
    }
}

#[test]
fn ptr40_round_trips_and_never_collides_with_the_embed_marker() {
    assert!(Ptr40::NULL.is_null());
    assert!(!Ptr40::new(1).is_null());
    assert_eq!(Ptr40::new(ptr40::MAX_OFFSET).offset(), ptr40::MAX_OFFSET);

    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let mut corpus = vec![1u64, 2, 0xFFFF_FFFF, 0x1_0000_0000, ptr40::MAX_OFFSET];
    for _ in 0..RANDOM_VALUES {
        corpus.push(1 + (rng.gen::<u64>() >> rng.gen_range(24..64)) % ptr40::MAX_OFFSET);
    }
    for offset in corpus {
        let ptr = Ptr40::new(offset);
        assert_eq!(ptr.offset(), offset);

        let mut buf = [0u8; ptr40::PTR_BYTES];
        ptr.write(&mut buf);
        // Valid offsets stay below 0xFF << 32, so the top (big-endian
        // first) byte can never alias the embedded-suffix marker.
        assert_ne!(buf[0], ptr40::EMBED_MARKER, "offset {offset:#x} aliases the marker");
        assert_eq!(Ptr40::read(&buf).offset(), offset, "5-byte round trip of {offset:#x}");
    }
}

#[test]
fn raw40_round_trips_the_full_40_bit_range() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let mut corpus = vec![0u64, 1, (1u64 << 40) - 1, 0xFF_0000_0000];
    for _ in 0..RANDOM_VALUES {
        corpus.push((rng.gen::<u64>() >> rng.gen_range(24..64)) & ((1u64 << 40) - 1));
    }
    for v in corpus {
        let mut buf = [0u8; ptr40::PTR_BYTES];
        ptr40::write_raw40(&mut buf, v);
        assert_eq!(ptr40::read_raw40(&buf), v, "raw40 round trip of {v:#x}");
    }
}

#[test]
fn node_mask_round_trips_exhaustively() {
    // The whole NodeMask space is tiny — enumerate it instead of
    // sampling.
    for ditem_len in 1usize..=4 {
        for pcount_len in 0usize..=4 {
            for bits in 0u8..8 {
                let m = NodeMask {
                    ditem_len,
                    pcount_len,
                    has_left: bits & 1 != 0,
                    has_right: bits & 2 != 0,
                    has_suffix: bits & 4 != 0,
                };
                let byte = m.encode();
                assert!(!mask::is_chain(byte), "{m:?} encodes into the chain tag space");
                assert_eq!(NodeMask::decode(byte), m, "mask round trip of {byte:#04x}");
                let ptrs =
                    usize::from(m.has_left) + usize::from(m.has_right) + usize::from(m.has_suffix);
                assert_eq!(m.node_size(), 1 + ditem_len + pcount_len + ptr40::PTR_BYTES * ptrs);
            }
        }
    }
}

#[test]
fn chain_headers_round_trip_and_partition_the_byte_space() {
    for len in mask::MIN_CHAIN_LEN..=mask::MAX_CHAIN_LEN {
        for has_suffix in [false, true] {
            let h = ChainHeader { len, has_suffix };
            let byte = h.encode();
            assert!(mask::is_chain(byte), "chain header {h:?} not tagged as chain");
            assert_eq!(ChainHeader::decode(byte), h);
        }
    }
    // The embedded-suffix marker sits inside the chain tag space.
    assert!(mask::is_chain(ptr40::EMBED_MARKER));

    // Every byte is classified one way or the other, and the node-mask
    // encoder never produces a chain-tagged byte (checked exhaustively
    // above); count the split to pin the format down.
    let chain_bytes = (0u8..=255).filter(|&b| mask::is_chain(b)).count();
    assert_eq!(chain_bytes, 32, "chain tag must claim exactly the (b>>2)&7 == 7 quarter-page");
}
