//! Out-of-core glue: CFP-arrays on spill files.
//!
//! [`CondSpill`] is the whole out-of-core placement. Armed through
//! [`MineOpts::cond_spill`](crate::MineOpts::cond_spill), it sends the
//! driver's first-level array and every oversized conditional array of
//! the recursion through disk, using the crash-safe file discipline of
//! [`cfp_data::spill`] and the checksummed on-disk layout of
//! [`CfpArray::write_to`]. The supervisor's `spill` policy arms it for
//! each partition of its range loop. This module owns the translation
//! between the two layers: raw [`std::io::Error`]s become
//! structured [`CfpError::Spill`] errors naming the failing operation
//! (`"write"`, `"read"`, or `"map"`) and the file involved, so the CLI
//! can map every injected or real I/O fault to one documented exit code.

use cfp_array::CfpArray;
use cfp_data::spill::{read_back, write_atomic};
use cfp_data::CfpError;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn spill_err(op: &'static str, path: &Path, e: io::Error) -> CfpError {
    CfpError::Spill { op, path: path.display().to_string(), message: e.to_string() }
}

/// Writes `array` to `path` with the atomic write-fsync-rename protocol
/// and returns the file's byte size. Failures (ENOSPC, short writes,
/// injected faults) come back as [`CfpError::Spill`] with `op: "write"`.
pub(crate) fn write_spill_array(path: &Path, array: &CfpArray) -> Result<u64, CfpError> {
    let _t = cfp_trace::hist::timer(&cfp_trace::hist::DATA_SPILL_WRITE_NANOS);
    write_atomic(path, |w| array.write_to(w)).map_err(|e| spill_err("write", path, e))
}

/// Loads a spill file back as a zero-copy [`CfpArray`] view over one
/// shared buffer, returning the array and the buffer's byte size. A
/// failing read maps to `op: "read"`; a checksum or schema mismatch in
/// the loaded bytes — a torn or corrupt file — maps to `op: "map"`.
pub(crate) fn load_spill_array(path: &Path) -> Result<(CfpArray, u64), CfpError> {
    let _t = cfp_trace::hist::timer(&cfp_trace::hist::DATA_SPILL_LOAD_NANOS);
    let buf = read_back(path).map_err(|e| spill_err("read", path, e))?;
    let bytes = buf.len() as u64;
    let array = CfpArray::from_bytes(buf).map_err(|e| spill_err("map", path, e))?;
    Ok((array, bytes))
}

/// Out-of-core mining, threaded through the driver and the mine phase via
/// [`MineOpts`](crate::growth::MineOpts).
///
/// When set, the first-level CFP-array, and any conditional CFP-array
/// whose data block reaches `threshold` bytes, makes a checksummed
/// write, fsync and read round trip through a crash-safe spill file and
/// is replaced by a view over one shared buffer. Arrays are unmetered
/// charges whether owned or shared, so the round trip never changes what
/// the budget pool admits; a disk fault surfaces as [`CfpError::Spill`].
/// The supervisor's spill policy arms this with a quarter of the budget
/// as the threshold (no conditional array spills without a budget).
#[derive(Clone, Debug)]
pub struct CondSpill {
    dir: Arc<cfp_data::spill::SpillDir>,
    /// The data bytes from which a conditional array spills.
    pub(crate) threshold: u64,
    seq: Arc<AtomicU64>,
}

impl CondSpill {
    /// Arms conditional spilling into `dir` for arrays of `threshold`
    /// data bytes or more.
    pub fn new(dir: Arc<cfp_data::spill::SpillDir>, threshold: u64) -> Self {
        CondSpill { dir, threshold, seq: Arc::new(AtomicU64::new(0)) }
    }

    /// Round-trips `array` through a uniquely-named spill file and
    /// returns the shared-buffer view, which keeps `array`'s pair table
    /// (the file format carries none). The file is removed as soon as
    /// the view holds the bytes — conditional spills are scratch state,
    /// and the checksum has already proven the round trip intact.
    pub(crate) fn round_trip(&self, array: CfpArray) -> Result<CfpArray, CfpError> {
        let name = format!("cond-{}.cfpa", self.seq.fetch_add(1, Ordering::Relaxed));
        let path = self.dir.file(&name);
        write_spill_array(&path, &array)?;
        let loaded = load_spill_array(&path);
        self.dir.remove(&name);
        let (mut view, _) = loaded?;
        view.keep_pair_table(array);
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::spill::SpillDir;
    use cfp_data::TransactionDb;

    fn sample_array() -> CfpArray {
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ]);
        let (_, tree) = crate::growth::try_build_tree(&db, 2, None).unwrap();
        cfp_array::convert(&tree)
    }

    #[test]
    fn write_then_load_round_trips_as_a_shared_view() {
        let parent = std::env::temp_dir().join(format!("cfp-core-spill-{}", std::process::id()));
        let dir = SpillDir::create(&parent).unwrap();
        let array = sample_array();
        let path = dir.file("p0.cfpa");
        let written = write_spill_array(&path, &array).unwrap();
        let (view, bytes) = load_spill_array(&path).unwrap();
        assert_eq!(written, bytes);
        assert!(view.is_shared());
        assert_eq!(view.num_items(), array.num_items());
        assert_eq!(view.data(), array.data());
        drop(dir);
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn missing_file_maps_to_a_structured_spill_error() {
        let path = std::env::temp_dir().join("cfp-core-spill-definitely-missing.cfpa");
        let err = load_spill_array(&path).unwrap_err();
        assert_eq!(err.exit_code(), 7);
        match err {
            CfpError::Spill { op, path: p, .. } => {
                assert_eq!(op, "read");
                assert!(p.contains("definitely-missing"));
            }
            other => panic!("expected Spill, got {other}"),
        }
    }

    #[test]
    fn corrupt_file_maps_to_a_map_error() {
        let parent = std::env::temp_dir().join(format!("cfp-core-spill-c-{}", std::process::id()));
        let dir = SpillDir::create(&parent).unwrap();
        let array = sample_array();
        let path = dir.file("p0.cfpa");
        write_spill_array(&path, &array).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_spill_array(&path).unwrap_err();
        match err {
            CfpError::Spill { op, .. } => assert_eq!(op, "map"),
            other => panic!("expected Spill, got {other}"),
        }
        drop(dir);
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn cond_spill_round_trip_removes_the_file_and_shares_the_buffer() {
        let parent = std::env::temp_dir().join(format!("cfp-core-spill-r-{}", std::process::id()));
        let dir = Arc::new(SpillDir::create(&parent).unwrap());
        let cs = CondSpill::new(Arc::clone(&dir), 1);
        let array = sample_array();
        let view = cs.round_trip(array.clone()).unwrap();
        assert!(view.is_shared());
        assert_eq!(view.data(), array.data());
        assert_eq!(
            std::fs::read_dir(dir.path()).unwrap().count(),
            0,
            "the round-trip file must not outlive the load"
        );
        drop(view);
        drop(cs);
        drop(dir);
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn cond_spill_round_trip_keeps_the_pair_table() {
        let parent = std::env::temp_dir().join(format!("cfp-core-spill-t-{}", std::process::id()));
        let dir = Arc::new(SpillDir::create(&parent).unwrap());
        // Two items, three nodes: dense enough for a pair table.
        let mut tree = cfp_tree::CfpTree::new(2);
        tree.insert(&[0, 1], 3);
        tree.insert(&[1], 2);
        let array = cfp_array::convert(&tree);
        assert_eq!(array.pair_row(1), Some(&[3u64][..]));
        let view = CondSpill::new(Arc::clone(&dir), 1).round_trip(array).unwrap();
        assert!(view.is_shared());
        assert_eq!(view.pair_row(1), Some(&[3u64][..]), "the view must keep the table");
        drop(dir);
        let _ = std::fs::remove_dir_all(&parent);
    }
}
