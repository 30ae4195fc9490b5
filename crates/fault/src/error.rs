//! The unified error type of the mining pipeline.

use std::fmt;
use std::io;

/// Everything that can go wrong between reading a dataset and emitting
/// the last itemset.
///
/// Every phase of the pipeline reports through this one enum so callers
/// (the CLI above all) can map failures to stable exit codes and
/// diagnostics. Variants deliberately carry enough context to name the
/// failing phase and quantify the resource that ran out.
#[derive(Debug)]
pub enum CfpError {
    /// An operating-system I/O failure (open, read, write).
    Io(io::Error),
    /// A malformed input line rejected under
    /// `ParsePolicy::Strict`; `line` is 1-based.
    Parse {
        /// 1-based input line the bad token was found on.
        line: u64,
        /// What was wrong with it.
        message: String,
    },
    /// An arena allocation could not be satisfied: the run's budget pool
    /// has no room left, the 40-bit address space is exhausted, or a
    /// failpoint injected the condition.
    MemoryExhausted {
        /// Pipeline phase that hit the wall (`"build"`, `"mine"`, …;
        /// empty until a phase attaches itself via
        /// [`with_phase`](CfpError::with_phase)).
        phase: &'static str,
        /// Bytes the failing allocation asked for.
        requested: u64,
        /// Arena bytes already carved when the allocation failed.
        footprint: u64,
        /// The configured budget in bytes (0 = no budget; the 40-bit
        /// address space ran out instead).
        limit: u64,
    },
    /// A worker thread of the parallel miner panicked or lost its
    /// result channel; the remaining workers were cancelled and the
    /// process kept running.
    WorkerPanic {
        /// Index of the failing worker.
        worker: usize,
        /// The panic payload (or channel diagnostic), stringified.
        message: String,
    },
    /// The watchdog saw no progress (no result batches, no heartbeat
    /// advance) from a parallel worker for the configured timeout; the
    /// siblings were cancelled via the poison flag and the run reported
    /// a structured error instead of hanging.
    WorkerTimeout {
        /// Index of the stalled worker.
        worker: usize,
        /// Milliseconds the watchdog waited without seeing progress.
        waited_ms: u64,
    },
    /// A spill-file operation of the out-of-core rung failed permanently
    /// (after bounded retries for transient kinds): ENOSPC or a short
    /// write while spilling a partition, a read error while loading one
    /// back, or a checksum/schema mismatch mapping the loaded bytes.
    Spill {
        /// The failing operation: `"write"`, `"read"`, or `"map"`.
        op: &'static str,
        /// The spill file (or directory) involved.
        path: String,
        /// The underlying failure, stringified.
        message: String,
    },
    /// The run was stopped cooperatively at a task boundary: SIGINT or
    /// SIGTERM arrived, or the `--deadline` wall-clock budget expired.
    /// Buffered output has been flushed and (when checkpointing is
    /// armed) a manifest committed, so the run is exactly resumable.
    Interrupted,
    /// A checkpoint manifest could not be written, or an existing one
    /// was rejected on resume: torn/truncated JSON, a checksum or schema
    /// mismatch, or a config fingerprint that does not match the
    /// current run. Resuming from a wrong manifest would silently remine
    /// wrong, so this is a hard structured error.
    Checkpoint {
        /// The manifest file (or directory) involved.
        path: String,
        /// What was wrong with it.
        message: String,
    },
    /// A shared state directory (`--spill-dir`, `--checkpoint-dir`) is
    /// locked by another live process; running two miners against the
    /// same directory would clobber each other's files.
    Locked {
        /// The lock file holding the claim.
        path: String,
        /// PID of the (live) process owning the lock.
        pid: u32,
    },
}

/// Exit code for command-line usage errors (bad flags, missing
/// arguments). Kept here so the code space is defined in one place.
pub const EXIT_USAGE: i32 = 2;

impl CfpError {
    /// The process exit code the CLI maps this error to.
    ///
    /// The space is documented in the README: 0 success, 1 I/O error,
    /// 2 usage error ([`EXIT_USAGE`]), 3 malformed input, 4 memory
    /// exhausted, 5 worker panic, 6 worker timeout, 7 spill failure,
    /// 8 interrupted (resumable), 9 checkpoint invalid, 10 directory
    /// locked by another run.
    pub fn exit_code(&self) -> i32 {
        match self {
            CfpError::Io(_) => 1,
            CfpError::Parse { .. } => 3,
            CfpError::MemoryExhausted { .. } => 4,
            CfpError::WorkerPanic { .. } => 5,
            CfpError::WorkerTimeout { .. } => 6,
            CfpError::Spill { .. } => 7,
            CfpError::Interrupted => 8,
            CfpError::Checkpoint { .. } => 9,
            CfpError::Locked { .. } => 10,
        }
    }

    /// Names the pipeline phase on a [`MemoryExhausted`]
    /// (CfpError::MemoryExhausted) error; other variants pass through
    /// unchanged. An already-named phase is kept (the innermost frame
    /// knows best).
    pub fn with_phase(self, phase: &'static str) -> CfpError {
        match self {
            CfpError::MemoryExhausted { phase: "", requested, footprint, limit } => {
                CfpError::MemoryExhausted { phase, requested, footprint, limit }
            }
            other => other,
        }
    }
}

impl fmt::Display for CfpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfpError::Io(e) => write!(f, "I/O error: {e}"),
            CfpError::Parse { line, message } => {
                write!(f, "malformed input at line {line}: {message}")
            }
            CfpError::MemoryExhausted { phase, requested, footprint, limit } => {
                let phase = if phase.is_empty() { "alloc" } else { phase };
                write!(
                    f,
                    "memory exhausted in {phase} phase: {requested} bytes requested, \
                     {footprint} bytes carved"
                )?;
                if *limit > 0 {
                    write!(f, ", budget {limit} bytes")?;
                }
                Ok(())
            }
            CfpError::WorkerPanic { worker, message } => {
                write!(f, "worker {worker} failed: {message}")
            }
            CfpError::WorkerTimeout { worker, waited_ms } => {
                write!(
                    f,
                    "worker {worker} stalled: no progress for {waited_ms} ms; siblings cancelled"
                )
            }
            CfpError::Spill { op, path, message } => {
                write!(f, "spill {op} failed at {path}: {message}")
            }
            CfpError::Interrupted => {
                write!(f, "interrupted at a task boundary; output is resumable")
            }
            CfpError::Checkpoint { path, message } => {
                write!(f, "checkpoint rejected at {path}: {message}")
            }
            CfpError::Locked { path, pid } => {
                write!(f, "directory locked by running process {pid} (lock file {path})")
            }
        }
    }
}

impl std::error::Error for CfpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CfpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CfpError {
    fn from(e: io::Error) -> Self {
        CfpError::Io(e)
    }
}

/// Lossy back-conversion for APIs whose signature predates [`CfpError`]
/// (`fimi::read` and friends return `io::Result`).
impl From<CfpError> for io::Error {
    fn from(e: CfpError) -> Self {
        match e {
            CfpError::Io(e) => e,
            CfpError::Parse { .. } => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
            CfpError::MemoryExhausted { .. } => {
                io::Error::new(io::ErrorKind::OutOfMemory, e.to_string())
            }
            CfpError::WorkerPanic { .. } => io::Error::other(e.to_string()),
            CfpError::WorkerTimeout { .. } => {
                io::Error::new(io::ErrorKind::TimedOut, e.to_string())
            }
            CfpError::Spill { .. } => io::Error::other(e.to_string()),
            CfpError::Interrupted => io::Error::new(io::ErrorKind::Interrupted, e.to_string()),
            CfpError::Checkpoint { .. } => {
                io::Error::new(io::ErrorKind::InvalidData, e.to_string())
            }
            CfpError::Locked { .. } => io::Error::new(io::ErrorKind::WouldBlock, e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        let errs = [
            CfpError::Io(io::Error::other("x")),
            CfpError::Parse { line: 1, message: "x".into() },
            CfpError::MemoryExhausted { phase: "build", requested: 1, footprint: 2, limit: 3 },
            CfpError::WorkerPanic { worker: 0, message: "x".into() },
            CfpError::WorkerTimeout { worker: 0, waited_ms: 100 },
            CfpError::Spill { op: "write", path: "/tmp/p0.cfpa".into(), message: "x".into() },
            CfpError::Interrupted,
            CfpError::Checkpoint { path: "/ckpt/manifest.json".into(), message: "x".into() },
            CfpError::Locked { path: "/ckpt/cfp.lock".into(), pid: 1234 },
        ];
        let mut codes: Vec<i32> = errs.iter().map(CfpError::exit_code).collect();
        codes.push(EXIT_USAGE);
        codes.push(0); // success
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len(), "exit codes must not collide: {codes:?}");
        assert_eq!(codes, vec![1, 3, 4, 5, 6, 7, 8, 9, 10, 2, 0]);
    }

    #[test]
    fn with_phase_fills_only_empty_phase() {
        let e = CfpError::MemoryExhausted { phase: "", requested: 8, footprint: 64, limit: 0 };
        match e.with_phase("build") {
            CfpError::MemoryExhausted { phase, .. } => assert_eq!(phase, "build"),
            other => panic!("{other:?}"),
        }
        let e = CfpError::MemoryExhausted { phase: "mine", requested: 8, footprint: 64, limit: 0 };
        match e.with_phase("build") {
            CfpError::MemoryExhausted { phase, .. } => assert_eq!(phase, "mine"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn display_names_the_phase_and_budget() {
        let e = CfpError::MemoryExhausted {
            phase: "build",
            requested: 24,
            footprint: 960,
            limit: 1024,
        };
        let s = e.to_string();
        assert!(s.contains("build"), "{s}");
        assert!(s.contains("1024"), "{s}");
        let e = CfpError::Parse { line: 17, message: "bad item \"x\"".into() };
        assert!(e.to_string().contains("line 17"));
        let e = CfpError::WorkerTimeout { worker: 3, waited_ms: 750 };
        let s = e.to_string();
        assert!(s.contains("worker 3") && s.contains("750"), "{s}");
        let e = CfpError::Spill {
            op: "write",
            path: "/spill/p3.cfpa".into(),
            message: "No space left on device".into(),
        };
        let s = e.to_string();
        assert!(s.contains("write") && s.contains("p3.cfpa") && s.contains("space"), "{s}");
        let e = CfpError::Checkpoint { path: "/c/manifest.json".into(), message: "torn".into() };
        let s = e.to_string();
        assert!(s.contains("manifest.json") && s.contains("torn"), "{s}");
        let e = CfpError::Locked { path: "/c/cfp.lock".into(), pid: 77 };
        let s = e.to_string();
        assert!(s.contains("cfp.lock") && s.contains("77"), "{s}");
        assert!(CfpError::Interrupted.to_string().contains("resumable"));
    }

    #[test]
    fn io_round_trip_preserves_kind() {
        let e = CfpError::from(io::Error::new(io::ErrorKind::BrokenPipe, "pipe"));
        let back: io::Error = e.into();
        assert_eq!(back.kind(), io::ErrorKind::BrokenPipe);
    }
}
