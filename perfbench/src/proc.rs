//! Timing one child process: wall clock from spawn to reap, plus the
//! child's own CPU time and peak RSS from `wait4`'s resource usage.
//!
//! The standard library exposes neither `wait4` nor `getrusage`, and the
//! benchmark takes no dependencies, so both are declared here against the
//! C library that `std` already links on Linux.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

fn secs(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// What one child run cost.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// User plus system CPU of the child, seconds.
    pub cpu_s: f64,
    /// Peak resident set of the child, MiB.
    pub peak_rss_mib: f64,
    /// Whether the child exited with status 0.
    pub ok: bool,
}

/// Runs `program args…` with stdout redirected into `stdout_path` and
/// stderr discarded, and waits for it.
///
/// Linux carries the spawning process's peak RSS into the child's
/// `ru_maxrss` across `exec`, so the caller must keep its own peak below
/// the child's (the harness never holds a database while timing).
pub fn run(program: &Path, args: &[String], stdout_path: &Path) -> std::io::Result<Usage> {
    let out = File::create(stdout_path)?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `child.id()` is a child of this process that nothing else
    // waits for (the `Child` handle is never waited on), and both out
    // pointers are valid for writes for the duration of the call.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // A normal exit has the low seven bits clear and the code in bits 8..16.
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Usage {
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mib: usage.maxrss as f64 / 1024.0,
        ok,
    })
}

/// User plus system CPU this process has used so far, seconds.
pub fn self_cpu_s() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: RUSAGE_SELF (0) is always valid and `usage` is valid for
    // writes; the call cannot fail with these arguments.
    unsafe { getrusage(0, &mut usage) };
    secs(&usage.utime) + secs(&usage.stime)
}
