//! Crash-safe spill files for the out-of-core recovery rung.
//!
//! When a dataset does not fit the memory budget even partitioned, the
//! supervisor's `spill` rung projects partitions to disk and mines them
//! back one at a time (the paper's §5 class-3 "structure on disk"
//! scenario). This module owns the raw file discipline that makes that
//! safe:
//!
//! - **Atomic visibility**: a spill file is written through
//!   [`cfp_trace::write_atomic`] — a `.tmp` sibling, fsynced and
//!   atomically renamed into place. A reader can therefore never observe
//!   a torn file under its final name; whatever survives a crash
//!   mid-write is a `.tmp` that the next cleanup removes.
//! - **RAII cleanup**: all spill state lives in one [`SpillDir`] whose
//!   `Drop` removes the directory recursively — on success, on error
//!   returns, and on unwind from a panicking worker alike.
//! - **Bounded retries**: transient I/O errors (`Interrupted`,
//!   `WouldBlock`, `TimedOut`) are retried a few times with a short
//!   backoff; permanent ones (ENOSPC above all) escalate immediately.
//! - **Failpoints**: `data.spill.write` injects a disk-full (first call)
//!   or a short write mid-file (later calls), `data.spill.read` injects
//!   a read failure, and `data.spill.map` corrupts the loaded bytes so
//!   the checksum layer above must catch the torn read. All three are
//!   compiled out without the `fault` feature.

use cfp_trace::counters as tc;
use cfp_trace::Phase;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Attempts per spill operation: the first try plus two retries.
pub const RETRY_ATTEMPTS: u32 = 3;

/// Backoff before retry `k` (1-based): `k * RETRY_BACKOFF`.
const RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// Buffered-writer capacity; also the granularity at which the write
/// failpoint can tear a file.
const WRITE_BUF: usize = 64 * 1024;

/// Distinguishes concurrently-created spill directories of one process.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// An owned directory holding every spill file of one mining run.
///
/// Created as a uniquely-named subdirectory of the requested parent, and
/// removed — recursively, with everything in it — when the guard drops.
/// Keeping cleanup in `Drop` is what guarantees "no stray temp state on
/// any exit path": early `?` returns, panics unwinding through the spill
/// rung, and plain success all funnel through the same removal.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Creates a fresh spill directory under `parent` (which is created
    /// too if missing).
    pub fn create(parent: &Path) -> io::Result<SpillDir> {
        fs::create_dir_all(parent)?;
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("cfp-spill-{}-{}", std::process::id(), seq));
        fs::create_dir(&path)?;
        Ok(SpillDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The path a spill file named `name` lives at inside this directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// Removes `name` (ignoring a file that is already gone, e.g. after
    /// a failed write cleaned up behind itself).
    pub fn remove(&self, name: &str) {
        let _ = fs::remove_file(self.file(name));
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Counts bytes reaching the underlying file and hosts the
/// `data.spill.write` failpoint. Sits *under* the `BufWriter`, so the
/// failpoint counts real file writes (one per buffer flush), and a fired
/// fault can leave a genuinely short file: half the offending buffer is
/// written before the error is returned, exactly the torn state a real
/// ENOSPC mid-flush produces.
struct FaultWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // Cap each underlying write at the buffer size. `BufWriter`
        // bypasses its buffer for larger writes, which would collapse a
        // whole payload into one failpoint call; capping keeps the fault
        // granularity (and the torn-file shapes it can produce) stable.
        let buf = &buf[..buf.len().min(WRITE_BUF)];
        if cfp_fault::should_fail("data.spill.write") {
            let half = buf.len() / 2;
            self.inner.write_all(&buf[..half])?;
            self.written += half as u64;
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected disk-full (failpoint data.spill.write)",
            ));
        }
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Whether an I/O failure is worth retrying: scheduler noise and
/// timeouts are; disk-full, permission, and corruption are not.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op` up to [`RETRY_ATTEMPTS`] times, backing off briefly between
/// attempts, retrying only [transient](is_transient) failures. The last
/// error escalates to the caller. Counts nothing: the spill operations
/// below count their retries, a checkpoint commit does not.
pub fn with_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < RETRY_ATTEMPTS && is_transient(&e) => {
                std::thread::sleep(RETRY_BACKOFF * attempt);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// [`with_retry`] for a spill operation: each retry counts in
/// `data.spill_retries`.
fn spill_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut first = true;
    with_retry(|| {
        if !std::mem::take(&mut first) && cfp_trace::enabled() {
            tc::DATA_SPILL_RETRIES.inc();
        }
        op()
    })
}

/// Writes one spill file crash-safely through [`cfp_trace::write_atomic`]
/// and returns its byte size: `payload` streams into `<path>.tmp` through
/// the failpoint writer, the file is fsynced, then atomically renamed to
/// `path`. On any failure the temporary is removed, so a fault never
/// leaves a stray or half-visible file. Transient errors retry the whole
/// protocol (the payload closure must be re-runnable); permanent ones
/// escalate after cleanup.
pub fn write_atomic(
    path: &Path,
    mut payload: impl FnMut(&mut dyn Write) -> io::Result<()>,
) -> io::Result<u64> {
    let _span = cfp_trace::span(Phase::Spill);
    let bytes = spill_retry(|| {
        cfp_trace::write_atomic(path, |file| {
            let mut w =
                BufWriter::with_capacity(WRITE_BUF, FaultWriter { inner: file, written: 0 });
            payload(&mut w)?;
            let mut fw = w.into_inner().map_err(io::IntoInnerError::into_error)?;
            fw.flush()?;
            Ok(fw.written)
        })
    })?;
    if cfp_trace::enabled() {
        tc::DATA_SPILL_FILES.inc();
        tc::DATA_SPILL_BYTES_WRITTEN.add(bytes);
        if cfp_trace::events::capturing() {
            cfp_trace::events::record(cfp_trace::EventKind::SpillIo { bytes, write: true });
        }
    }
    Ok(bytes)
}

/// Reads a whole spill file back into a shared buffer (the zero-copy
/// substrate `CfpArray::from_bytes` mines through). Transient read
/// errors retry; the `data.spill.read` failpoint injects a permanent
/// one, and `data.spill.map` flips a byte of the loaded image to prove
/// the caller's checksum catches torn reads.
pub fn read_back(path: &Path) -> io::Result<Arc<[u8]>> {
    let _span = cfp_trace::span(Phase::Spill);
    let mut buf = spill_retry(|| {
        if cfp_fault::should_fail("data.spill.read") {
            return Err(io::Error::other("injected read failure (failpoint data.spill.read)"));
        }
        let mut file = File::open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        Ok(buf)
    })?;
    if cfp_fault::should_fail("data.spill.map") && !buf.is_empty() {
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
    }
    if cfp_trace::enabled() {
        tc::DATA_SPILL_BYTES_READ.add(buf.len() as u64);
        if cfp_trace::events::capturing() {
            cfp_trace::events::record(cfp_trace::EventKind::SpillIo {
                bytes: buf.len() as u64,
                write: false,
            });
        }
    }
    Ok(buf.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The fault registry is process-global, so any test exercising
    /// `write_atomic`/`read_back` (armed or not) serialises through this
    /// lock — a plain test must never observe a sibling's failpoint.
    static IO_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        IO_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn unique_parent(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfp-spill-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let parent = unique_parent("drop");
        let path = {
            let dir = SpillDir::create(&parent).unwrap();
            fs::write(dir.file("p0.cfpa"), b"payload").unwrap();
            assert!(dir.path().is_dir());
            dir.path().to_path_buf()
        };
        assert!(!path.exists(), "drop must remove the directory and its files");
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn spill_dir_is_removed_when_a_worker_panics() {
        let parent = unique_parent("panic");
        let parent2 = parent.clone();
        let path = std::sync::Arc::new(std::sync::Mutex::new(PathBuf::new()));
        let path2 = std::sync::Arc::clone(&path);
        let result = std::panic::catch_unwind(move || {
            let dir = SpillDir::create(&parent2).unwrap();
            fs::write(dir.file("p0.cfpa"), b"payload").unwrap();
            *path2.lock().unwrap() = dir.path().to_path_buf();
            panic!("worker died mid-spill");
        });
        assert!(result.is_err());
        let path = path.lock().unwrap().clone();
        assert!(!path.exists(), "unwind must remove the directory");
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_tmp() {
        let _g = lock();
        let parent = unique_parent("atomic");
        let dir = SpillDir::create(&parent).unwrap();
        let target = dir.file("p0.cfpa");
        let bytes = write_atomic(&target, |w| w.write_all(b"hello spill")).unwrap();
        assert_eq!(bytes, 11);
        assert_eq!(fs::read(&target).unwrap(), b"hello spill");
        let names: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["p0.cfpa"], "no .tmp sibling may survive a successful write");
        drop(dir);
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn failed_payload_removes_the_tmp_file() {
        let _g = lock();
        let parent = unique_parent("fail");
        let dir = SpillDir::create(&parent).unwrap();
        let target = dir.file("p0.cfpa");
        let err = write_atomic(&target, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!target.exists());
        assert_eq!(
            fs::read_dir(dir.path()).unwrap().count(),
            0,
            "a failed write must leave the directory empty"
        );
        drop(dir);
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn read_back_round_trips() {
        let _g = lock();
        let parent = unique_parent("read");
        let dir = SpillDir::create(&parent).unwrap();
        let target = dir.file("p0.cfpa");
        write_atomic(&target, |w| w.write_all(&[7u8; 1000])).unwrap();
        let buf = read_back(&target).unwrap();
        assert_eq!(&buf[..], &[7u8; 1000][..]);
        drop(dir);
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn retry_recovers_from_transient_errors_only() {
        let mut calls = 0;
        let out = with_retry(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls, 3, "two transient failures then success");

        let mut calls = 0;
        let err = with_retry(|| -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(calls, 1, "permanent errors must not retry");

        let mut calls = 0;
        let err = with_retry(|| -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::TimedOut, "slow disk"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(calls as u32, RETRY_ATTEMPTS, "transient errors retry up to the cap");
    }

    #[cfg(feature = "fault")]
    mod fault {
        use super::*;
        use cfp_fault::FaultMode;
        use std::sync::MutexGuard;

        fn lock() -> MutexGuard<'static, ()> {
            let g = super::lock();
            cfp_fault::clear_all();
            g
        }

        #[test]
        fn injected_disk_full_fails_write_and_cleans_up() {
            let _g = lock();
            let parent = unique_parent("enospc");
            let dir = SpillDir::create(&parent).unwrap();
            let target = dir.file("p0.cfpa");
            cfp_fault::configure("data.spill.write", FaultMode::Nth(1));
            let err = write_atomic(&target, |w| w.write_all(&[1u8; 256 * 1024])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
            assert!(!target.exists());
            assert_eq!(fs::read_dir(dir.path()).unwrap().count(), 0);
            cfp_fault::clear_all();
            // The site is disarmed now: the same write succeeds.
            assert!(write_atomic(&target, |w| w.write_all(&[1u8; 256 * 1024])).is_ok());
            drop(dir);
            let _ = fs::remove_dir_all(&parent);
        }

        #[test]
        fn short_write_mid_file_is_cleaned_up() {
            let _g = lock();
            let parent = unique_parent("short");
            let dir = SpillDir::create(&parent).unwrap();
            let target = dir.file("p0.cfpa");
            // A 256 KiB payload flushes four 64 KiB buffers; failing the
            // third tears the file mid-partition.
            cfp_fault::configure("data.spill.write", FaultMode::Nth(3));
            let err = write_atomic(&target, |w| w.write_all(&[2u8; 256 * 1024])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
            assert!(!target.exists(), "a torn file must never reach its final name");
            assert_eq!(fs::read_dir(dir.path()).unwrap().count(), 0);
            cfp_fault::clear_all();
            drop(dir);
            let _ = fs::remove_dir_all(&parent);
        }

        #[test]
        fn injected_read_failure_surfaces() {
            let _g = lock();
            let parent = unique_parent("readfail");
            let dir = SpillDir::create(&parent).unwrap();
            let target = dir.file("p0.cfpa");
            write_atomic(&target, |w| w.write_all(b"fine")).unwrap();
            cfp_fault::configure("data.spill.read", FaultMode::Always);
            assert!(read_back(&target).is_err());
            cfp_fault::clear_all();
            assert_eq!(&read_back(&target).unwrap()[..], b"fine");
            drop(dir);
            let _ = fs::remove_dir_all(&parent);
        }

        #[test]
        fn injected_torn_read_corrupts_the_buffer() {
            let _g = lock();
            let parent = unique_parent("torn");
            let dir = SpillDir::create(&parent).unwrap();
            let target = dir.file("p0.cfpa");
            write_atomic(&target, |w| w.write_all(&[3u8; 100])).unwrap();
            cfp_fault::configure("data.spill.map", FaultMode::Always);
            let buf = read_back(&target).unwrap();
            assert_eq!(buf.iter().filter(|&&b| b != 3).count(), 1, "exactly one byte flipped");
            cfp_fault::clear_all();
            drop(dir);
            let _ = fs::remove_dir_all(&parent);
        }
    }
}
