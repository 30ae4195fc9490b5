//! Persistable mining images: a converted CFP-array plus the item mapping
//! needed to mine it later (or elsewhere).
//!
//! A [`MiningImage`] captures everything the mine phase needs after the
//! two database scans: the compressed array, the recoded-to-original item
//! mapping, and the minimum support the image was built with. Because the
//! CFP-array is 8–10× smaller than an FP-tree, shipping or caching images
//! is correspondingly cheap — build once on the machine that can see the
//! data, mine many times with different sinks or support levels (any
//! support ≥ the build support is valid: items below it are simply absent).
//!
//! The `CFPI` v2 file is the magic, a version byte, an FNV-1a checksum
//! over the header that follows (the build support and the item
//! mapping, as varints), the header, and the embedded `CFPA` v2 array,
//! which carries its own checksum. A file that fails either checksum, or
//! any other version, is rejected with [`io::ErrorKind::InvalidData`].

use crate::growth::{CfpGrowthMiner, MineOpts};
use cfp_array::{convert, CfpArray};
use cfp_data::{Item, ItemRecoder, ItemsetSink, MineStats, TransactionDb};
use cfp_encoding::varint;
use cfp_metrics::{HeapSize, MemGauge, Stopwatch};
use cfp_trace::fnv::{fnv1a, FNV_OFFSET};
use cfp_tree::CfpTree;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CFPI";
const VERSION: u8 = 2;

/// A converted, ready-to-mine CFP-array with its item mapping.
#[derive(Clone, Debug)]
pub struct MiningImage {
    /// Shared with the mine-phase workers while the image is mined.
    array: Arc<CfpArray>,
    /// Recoded id -> original item id.
    globals: Arc<[Item]>,
    /// Minimum support the image was built with.
    min_support: u64,
}

impl MiningImage {
    /// Builds an image from a database (scan + build + convert).
    pub fn build(db: &TransactionDb, min_support: u64) -> Self {
        let recoder = ItemRecoder::scan(db, min_support);
        let tree = CfpTree::from_db(db, &recoder);
        let array = convert(&tree);
        let globals = (0..recoder.num_items() as u32).map(|i| recoder.original(i)).collect();
        MiningImage { array: Arc::new(array), globals, min_support }
    }

    /// The compressed array.
    pub fn array(&self) -> &CfpArray {
        &self.array
    }

    /// The minimum support the image was built with.
    pub fn min_support(&self) -> u64 {
        self.min_support
    }

    /// Mines the image with `min_support >= self.min_support()`.
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is below the build support (itemsets
    /// between the two thresholds were discarded at build time and cannot
    /// be recovered from the image).
    pub fn mine(&self, min_support: u64, sink: &mut dyn ItemsetSink) -> MineStats {
        assert!(
            min_support >= self.min_support,
            "image was built at support {}, cannot mine at {min_support}",
            self.min_support
        );
        let mut stats = MineStats::default();
        let mut sw = Stopwatch::start();
        let array_gauge = MemGauge::new();
        array_gauge.alloc(self.array.heap_bytes());
        let mined = crate::driver::mine(
            Arc::clone(&self.array),
            Arc::clone(&self.globals),
            min_support,
            sink,
            CfpGrowthMiner::new().plan(),
            &MineOpts::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        stats.mine_time = sw.lap();
        mined.record(&mut stats, &array_gauge);
        stats.tree_nodes = self.array.num_nodes();
        stats
    }

    /// Serializes the image (see the module docs for the layout).
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        let mut header = Vec::with_capacity(2 + self.globals.len() * 3);
        let mut buf = [0u8; varint::MAX_LEN_U64];
        let ids = self.globals.iter().map(|&g| g as u64);
        for v in [self.min_support, self.globals.len() as u64].into_iter().chain(ids) {
            let n = varint::write_u64_into(&mut buf, v);
            header.extend_from_slice(&buf[..n]);
        }
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&fnv1a(FNV_OFFSET, &header).to_le_bytes())?;
        w.write_all(&header)?;
        self.array.write_to(w)
    }

    /// Deserializes an image written by [`write_to`](Self::write_to),
    /// verifying the header checksum before trusting the header.
    pub fn read_from(mut r: impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a CFPI file"));
        }
        let mut version = [0u8; 1];
        r.read_exact(&mut version)?;
        if version[0] != VERSION {
            return Err(bad(format!(
                "unsupported CFPI version {} (expected {VERSION})",
                version[0]
            )));
        }
        let mut declared = [0u8; 8];
        r.read_exact(&mut declared)?;
        let mut header = Vec::new();
        let min_support = read_varint(&mut r, &mut header)?;
        let n = read_varint(&mut r, &mut header)?;
        let mut globals: Vec<Item> = Vec::new();
        for _ in 0..n {
            let id = read_varint(&mut r, &mut header)?;
            globals.push(u32::try_from(id).map_err(|_| bad("item id exceeds u32"))?);
        }
        if fnv1a(FNV_OFFSET, &header) != u64::from_le_bytes(declared) {
            return Err(bad("CFPI header checksum mismatch (torn or corrupt file)"));
        }
        let array = CfpArray::read_from(r)?;
        if array.num_items() != globals.len() {
            return Err(bad("item mapping disagrees with array"));
        }
        Ok(MiningImage { array: Arc::new(array), globals: globals.into(), min_support })
    }

    /// Convenience: save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.write_to(std::io::BufWriter::new(std::fs::File::create(path)?))
    }

    /// Convenience: load from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::read_from(std::io::BufReader::new(std::fs::File::open(path)?))
    }
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads one varint, appending its bytes to `seen` for the checksum.
fn read_varint(r: &mut impl Read, seen: &mut Vec<u8>) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        seen.push(byte[0]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::miner::{CollectSink, Miner};

    fn sample_db() -> TransactionDb {
        TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ])
    }

    #[test]
    fn image_mining_matches_direct_mining() {
        let db = sample_db();
        let image = MiningImage::build(&db, 2);
        let mut a = CollectSink::new();
        image.mine(2, &mut a);
        let mut b = CollectSink::new();
        CfpGrowthMiner::new().mine(&db, 2, &mut b);
        assert_eq!(a.into_sorted(), b.into_sorted());
    }

    #[test]
    fn image_supports_higher_thresholds() {
        let db = sample_db();
        let image = MiningImage::build(&db, 2);
        let mut a = CollectSink::new();
        image.mine(4, &mut a);
        let mut b = CollectSink::new();
        CfpGrowthMiner::new().mine(&db, 4, &mut b);
        assert_eq!(a.into_sorted(), b.into_sorted());
    }

    #[test]
    #[should_panic(expected = "cannot mine")]
    fn lower_threshold_is_rejected() {
        let image = MiningImage::build(&sample_db(), 3);
        let mut sink = CollectSink::new();
        image.mine(1, &mut sink);
    }

    #[test]
    fn serialization_round_trip_and_mine() {
        let db = sample_db();
        let image = MiningImage::build(&db, 2);
        let mut bytes = Vec::new();
        image.write_to(&mut bytes).unwrap();
        let loaded = MiningImage::read_from(bytes.as_slice()).unwrap();
        assert_eq!(loaded.min_support(), 2);
        let mut a = CollectSink::new();
        loaded.mine(2, &mut a);
        let mut b = CollectSink::new();
        image.mine(2, &mut b);
        assert_eq!(a.into_sorted(), b.into_sorted());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cfp_image");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.cfpi");
        let image = MiningImage::build(&sample_db(), 2);
        image.save(&path).unwrap();
        let loaded = MiningImage::load(&path).unwrap();
        assert_eq!(loaded.array().num_nodes(), image.array().num_nodes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_header_rejected() {
        assert!(MiningImage::read_from(&b"XXXX"[..]).is_err());
        assert!(MiningImage::read_from(&b"CFPI\x63"[..]).is_err());
    }

    #[test]
    fn version_1_images_are_rejected() {
        let mut bytes = Vec::new();
        MiningImage::build(&sample_db(), 2).write_to(&mut bytes).unwrap();
        bytes[4] = 1;
        let err = MiningImage::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn every_bit_flip_of_a_saved_image_is_rejected() {
        let mut bytes = Vec::new();
        MiningImage::build(&sample_db(), 2).write_to(&mut bytes).unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                MiningImage::read_from(flipped.as_slice()).is_err(),
                "a flip of bit {bit} of {} loaded",
                bytes.len() * 8
            );
        }
    }
}
