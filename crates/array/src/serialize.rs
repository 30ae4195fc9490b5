//! On-disk serialization of the CFP-array.
//!
//! The paper's out-of-core discussion (§1, §5 class 3) notes that when a
//! structure must spill, the CFP-array's compactness and sequential
//! subarray layout keep the spill cheap. This module gives the CFP-array
//! a durable byte format so it can be written once and mined later (or by
//! another process) without rebuilding the tree:
//!
//! ```text
//! "CFPA" | version u8 | checksum u64-LE
//!       | varint num_items | varint num_nodes
//!       | varint subarray_size[i] for each item      (starts as deltas)
//!       | varint support[i] for each item
//!       | varint data_len | raw triple bytes
//! ```
//!
//! The checksum is FNV-1a over every byte after the checksum field, so a
//! torn or bit-flipped file is detected before any of its contents are
//! trusted. Everything else is varint-encoded with the same codec the
//! array itself uses, so the header overhead is a few bytes per item.
//!
//! The reader treats its input as hostile: no length field is used to
//! size an allocation before the corresponding bytes have actually been
//! read, every count is bounds-checked, and any inconsistency is a clean
//! `InvalidData` error — never a panic or an over-allocation. This is
//! what lets the out-of-core spill rung mine files that crossed a disk
//! full of injected faults.
//!
//! [`CfpArray::from_bytes`] is the zero-copy entry point: it validates a
//! whole in-memory file and returns an array whose triple bytes *borrow*
//! the shared buffer instead of copying it, so a loaded spill partition
//! costs one buffer, not two.

use crate::{Bytes, CfpArray};
use cfp_encoding::varint;
use cfp_trace::fnv::{fnv1a, FNV_OFFSET};
use std::io::{self, Read, Write};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CFPA";
const VERSION: u8 = 2;
/// Bytes before the checksummed region: magic, version, checksum itself.
const PREFIX_LEN: usize = 4 + 1 + 8;
/// Items are `u32`, so a header claiming more is corrupt by definition.
const MAX_ITEMS: u64 = u32::MAX as u64;
/// Chunk size for reading untrusted payloads: allocation grows with bytes
/// actually read, never with a length field alone.
const READ_CHUNK: usize = 64 * 1024;

/// Computes FNV-1a over everything it reads, so the checksum check costs
/// no second pass over the payload.
struct HashingReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader { inner, hash: FNV_OFFSET }
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash = fnv1a(self.hash, &buf[..n]);
        Ok(n)
    }
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn write_varint(w: &mut impl Write, v: u64) -> io::Result<()> {
    let mut buf = [0u8; varint::MAX_LEN_U64];
    let n = varint::write_u64_into(&mut buf, v);
    w.write_all(&buf[..n])
}

fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 || (shift == 63 && byte[0] & 0x7F > 1) {
            return Err(bad("varint overflow"));
        }
        value |= ((byte[0] & 0x7F) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// The header varints: everything between the checksum and the raw
/// triple bytes, in write order.
fn encode_header(a: &CfpArray) -> Vec<u8> {
    let mut h = Vec::with_capacity(2 * a.num_items() + 16);
    write_varint(&mut h, a.num_items() as u64).expect("Vec write");
    write_varint(&mut h, a.num_nodes()).expect("Vec write");
    for i in 0..a.num_items() {
        write_varint(&mut h, a.starts()[i + 1] - a.starts()[i]).expect("Vec write");
    }
    for i in 0..a.num_items() as u32 {
        write_varint(&mut h, a.item_support(i)).expect("Vec write");
    }
    write_varint(&mut h, a.data_bytes()).expect("Vec write");
    h
}

/// The decoded header fields plus the cumulative subarray boundaries.
struct Header {
    starts: Vec<u64>,
    supports: Vec<u64>,
    num_nodes: u64,
    data_len: u64,
}

/// Reads and cross-checks the header varints from `r` (which sits just
/// past the checksum field). All counts are validated against each other
/// before any of them sizes an allocation.
fn read_header(r: &mut impl Read) -> io::Result<Header> {
    let num_items = read_varint(r)?;
    if num_items > MAX_ITEMS {
        return Err(bad(format!("item count {num_items} exceeds the u32 item space")));
    }
    let num_items = num_items as usize;
    let num_nodes = read_varint(r)?;
    // Growth by push: a truncated file runs out of bytes long before the
    // claimed count can force a large allocation.
    let mut starts = Vec::new();
    starts.push(0u64);
    let mut acc = 0u64;
    for _ in 0..num_items {
        acc = acc.checked_add(read_varint(r)?).ok_or_else(|| bad("subarray size overflow"))?;
        starts.push(acc);
    }
    let mut supports = Vec::new();
    for _ in 0..num_items {
        supports.push(read_varint(r)?);
    }
    let data_len = read_varint(r)?;
    if data_len != acc {
        return Err(bad("data length disagrees with subarray sizes"));
    }
    // Every encoded triple is at least three one-byte varints.
    if num_nodes.checked_mul(3).is_none_or(|min| min > data_len) {
        return Err(bad(format!("{num_nodes} nodes cannot fit in {data_len} data bytes")));
    }
    Ok(Header { starts, supports, num_nodes, data_len })
}

/// Validates the fixed prefix (magic + version) and returns the declared
/// checksum.
fn read_prefix(r: &mut impl Read) -> io::Result<u64> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a CFPA file"));
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(bad(format!("unsupported CFPA version {}", version[0])));
    }
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    Ok(u64::from_le_bytes(sum))
}

impl CfpArray {
    /// Writes the array in the durable `CFPA` format.
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        let header = encode_header(self);
        let checksum = fnv1a(fnv1a(FNV_OFFSET, &header), self.data());
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&checksum.to_le_bytes())?;
        w.write_all(&header)?;
        w.write_all(self.data())?;
        w.flush()
    }

    /// Reads an array written by [`write_to`](Self::write_to), verifying
    /// the checksum over everything it consumes. Reads exactly one
    /// array's bytes, so the format can be embedded in a larger stream.
    pub fn read_from(r: impl Read) -> io::Result<CfpArray> {
        let mut r = r;
        let declared = read_prefix(&mut r)?;
        let mut r = HashingReader::new(r);
        let header = read_header(&mut r)?;
        let mut data = Vec::new();
        let mut remaining = header.data_len as usize;
        let mut chunk = [0u8; READ_CHUNK];
        while remaining > 0 {
            let want = remaining.min(READ_CHUNK);
            r.read_exact(&mut chunk[..want])?;
            data.extend_from_slice(&chunk[..want]);
            remaining -= want;
        }
        if r.hash != declared {
            return Err(bad("CFPA checksum mismatch (torn or corrupt file)"));
        }
        Ok(CfpArray::from_parts(
            Bytes::Owned(data),
            header.starts,
            header.supports,
            header.num_nodes,
        ))
    }

    /// Validates a whole in-memory `CFPA` file and returns an array whose
    /// triple bytes *borrow* `buf` — the zero-copy path the out-of-core
    /// spill rung mines loaded partitions through. Unlike
    /// [`read_from`](Self::read_from), the buffer must contain exactly
    /// one array: trailing bytes fail the checksum.
    pub fn from_bytes(buf: Arc<[u8]>) -> io::Result<CfpArray> {
        let mut r: &[u8] = &buf;
        let declared = read_prefix(&mut r)?;
        if fnv1a(FNV_OFFSET, r) != declared {
            return Err(bad("CFPA checksum mismatch (torn or corrupt file)"));
        }
        let after_prefix = r.len();
        let header = read_header(&mut r)?;
        if r.len() as u64 != header.data_len {
            // The checksum already rules out trailing garbage; this only
            // fires on a length/payload disagreement inside a file whose
            // checksum was forged to match.
            return Err(bad("data length disagrees with file size"));
        }
        let start = PREFIX_LEN + (after_prefix - r.len());
        let data = Bytes::Shared { buf, start, len: header.data_len as usize };
        Ok(CfpArray::from_parts(data, header.starts, header.supports, header.num_nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_tree::CfpTree;

    fn sample_array() -> CfpArray {
        let mut t = CfpTree::new(8);
        t.insert(&[0, 1, 2, 3], 5);
        t.insert(&[0, 1, 4], 2);
        t.insert(&[2, 3], 7);
        t.insert(&[7], 1);
        crate::convert(&t)
    }

    fn assert_same(a: &CfpArray, b: &CfpArray) {
        assert_eq!(b.num_items(), a.num_items());
        assert_eq!(b.num_nodes(), a.num_nodes());
        assert_eq!(b.data_bytes(), a.data_bytes());
        for item in 0..a.num_items() as u32 {
            assert_eq!(b.item_support(item), a.item_support(item));
            let av: Vec<_> = a.subarray(item).collect();
            let bv: Vec<_> = b.subarray(item).collect();
            assert_eq!(av, bv, "item {item}");
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let a = sample_array();
        let mut bytes = Vec::new();
        a.write_to(&mut bytes).unwrap();
        let b = CfpArray::read_from(bytes.as_slice()).unwrap();
        assert_same(&a, &b);
        assert!(!b.is_shared());
    }

    #[test]
    fn from_bytes_round_trips_without_copying() {
        let a = sample_array();
        let mut bytes = Vec::new();
        a.write_to(&mut bytes).unwrap();
        let buf: Arc<[u8]> = bytes.into();
        let b = CfpArray::from_bytes(Arc::clone(&buf)).unwrap();
        assert_same(&a, &b);
        assert!(b.is_shared());
        // The view borrows the file buffer: its data slice lives inside it.
        let file = buf.as_ptr() as usize;
        let data = b.data().as_ptr() as usize;
        assert!(data >= file && data + b.data().len() <= file + buf.len());
        // An owned copy decoded from the same file differs from the view
        // only in owning its data bytes; the view must not count them.
        let owned = {
            let mut again = Vec::new();
            a.write_to(&mut again).unwrap();
            CfpArray::read_from(again.as_slice()).unwrap()
        };
        use cfp_metrics::HeapSize;
        assert!(
            b.heap_bytes() + b.data_bytes() <= owned.heap_bytes(),
            "shared data bytes must not be counted as owned heap"
        );
    }

    #[test]
    fn pair_tables_stay_out_of_the_format() {
        // Two items, three nodes: an 8-byte table fits 3 bytes per node.
        let mut t = CfpTree::new(2);
        t.insert(&[0, 1], 3);
        t.insert(&[1], 2);
        let a = crate::convert(&t);
        assert_eq!(a.pair_row(1), Some(&[3u64][..]));
        let mut with = Vec::new();
        a.write_to(&mut with).unwrap();
        let mut without = Vec::new();
        CfpArray { pairs: None, ..a.clone() }.write_to(&mut without).unwrap();
        assert_eq!(with, without, "the table must not change the CFPA bytes");

        let read = CfpArray::read_from(with.as_slice()).unwrap();
        let mut view = CfpArray::from_bytes(with.into()).unwrap();
        for b in [&read, &view] {
            assert_eq!(b.pair_row(1), None);
            assert_eq!(b.pair_table_bytes(), 0);
        }
        view.keep_pair_table(a.clone());
        assert_eq!(view.pair_row(1), a.pair_row(1));
    }

    #[test]
    fn empty_array_round_trips() {
        let t = CfpTree::new(3);
        let a = crate::convert(&t);
        let mut bytes = Vec::new();
        a.write_to(&mut bytes).unwrap();
        let b = CfpArray::read_from(bytes.as_slice()).unwrap();
        assert_eq!(b.num_items(), 3);
        assert!(b.is_empty());
        let c = CfpArray::from_bytes(bytes.into()).unwrap();
        assert_eq!(c.num_items(), 3);
        assert!(c.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let err =
            CfpArray::read_from(&b"NOPE\x02\x00\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = Vec::new();
        sample_array().write_to(&mut bytes).unwrap();
        bytes[4] = 99;
        assert!(CfpArray::read_from(bytes.as_slice()).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let mut bytes = Vec::new();
        sample_array().write_to(&mut bytes).unwrap();
        for cut in 0..bytes.len() {
            assert!(CfpArray::read_from(&bytes[..cut]).is_err(), "cut at {cut} must fail");
            let arc: Arc<[u8]> = bytes[..cut].to_vec().into();
            assert!(CfpArray::from_bytes(arc).is_err(), "cut at {cut} must fail (from_bytes)");
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // The fuzz obligation of the spill rung: no mutation of a valid
        // file may load. Magic/version/checksum bytes self-protect; every
        // byte after them is covered by the checksum.
        let mut bytes = Vec::new();
        sample_array().write_to(&mut bytes).unwrap();
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut m = bytes.clone();
                m[i] ^= flip;
                assert!(
                    CfpArray::read_from(m.as_slice()).is_err(),
                    "flip 0x{flip:02x} at byte {i} must be rejected"
                );
                let arc: Arc<[u8]> = m.into();
                assert!(
                    CfpArray::from_bytes(arc).is_err(),
                    "flip 0x{flip:02x} at byte {i} must be rejected (from_bytes)"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected_by_from_bytes() {
        let mut bytes = Vec::new();
        sample_array().write_to(&mut bytes).unwrap();
        bytes.push(0);
        assert!(CfpArray::from_bytes(bytes.into()).is_err());
    }

    #[test]
    fn huge_claimed_counts_do_not_allocate() {
        // A header claiming u64::MAX items must fail on the item-space
        // cap, and a huge data length must fail on missing bytes — in
        // both cases without sizing a buffer from the claim.
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC);
        forged.push(VERSION);
        let mut payload = Vec::new();
        write_varint(&mut payload, u64::MAX).unwrap();
        forged.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
        forged.extend_from_slice(&payload);
        let err = CfpArray::read_from(forged.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Claims 1 item with a 2^40-byte subarray but supplies no data.
        let mut payload = Vec::new();
        write_varint(&mut payload, 1).unwrap(); // num_items
        write_varint(&mut payload, 1).unwrap(); // num_nodes
        write_varint(&mut payload, 1u64 << 40).unwrap(); // subarray size
        write_varint(&mut payload, 1).unwrap(); // support
        write_varint(&mut payload, 1u64 << 40).unwrap(); // data_len
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC);
        forged.push(VERSION);
        forged.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
        forged.extend_from_slice(&payload);
        assert!(CfpArray::read_from(forged.as_slice()).is_err());
        assert!(CfpArray::from_bytes(forged.into()).is_err());
    }

    #[test]
    fn node_count_must_fit_in_data_bytes() {
        // Forge a checksum-valid header whose node count cannot fit.
        let a = sample_array();
        let mut payload = encode_header(&a);
        // Rewrite num_nodes (second varint) to an absurd value; rebuild
        // the header around it.
        let mut forged_header = Vec::new();
        write_varint(&mut forged_header, a.num_items() as u64).unwrap();
        write_varint(&mut forged_header, u64::MAX / 2).unwrap();
        let mut r: &[u8] = &payload;
        let _ = read_varint(&mut r).unwrap();
        let _ = read_varint(&mut r).unwrap();
        forged_header.extend_from_slice(r);
        payload = forged_header;
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC);
        forged.push(VERSION);
        let checksum = fnv1a(fnv1a(FNV_OFFSET, &payload), a.data());
        forged.extend_from_slice(&checksum.to_le_bytes());
        forged.extend_from_slice(&payload);
        forged.extend_from_slice(a.data());
        let err = CfpArray::read_from(forged.as_slice()).unwrap_err();
        assert!(err.to_string().contains("cannot fit"), "{err}");
    }

    #[test]
    fn header_overhead_is_small() {
        let a = sample_array();
        let mut bytes = Vec::new();
        a.write_to(&mut bytes).unwrap();
        assert!(
            bytes.len() as u64
                <= a.data_bytes() + PREFIX_LEN as u64 + 2 + 3 * a.num_items() as u64 + 10
        );
    }
}
