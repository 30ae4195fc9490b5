//! A live progress heartbeat on stderr.
//!
//! `--progress` runs can take minutes on large datasets with no output
//! until the end; [`ProgressMeter`] is a background thread that reads the
//! metric registry at a fixed interval and paints one status line —
//! current phase, first-level items mined, itemsets/s rate, steal count,
//! resume watermark and partition progress (when active: partitions
//! done and the share of the item domain they cover), and the budget
//! pool's high-water mark. It writes to stderr only, so stdout
//! (the mining output) stays byte-identical.
//!
//! On a TTY the line repaints in place with a carriage return; when
//! stderr is redirected the meter instead appends a full line, rate
//! limited and only when something changed, so log files are not flooded.

use crate::counters::{
    CORE_FIRST_LEVEL_ITEMS, CORE_ITEMS_MINED, CORE_PARTITION_ITEMS, CORE_PARTITION_ITEMS_DONE,
    CORE_PATTERNS, CORE_RESUME_WATERMARK, CORE_SPILL_PARTS_DONE, CORE_TASKS_STOLEN,
    MEMMAN_POOL_PEAK,
};
use crate::span;
use std::io::{IsTerminal, Write};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Minimum spacing of full-line updates when stderr is not a terminal.
const LOG_SPACING: Duration = Duration::from_secs(1);

/// Per-meter state for the itemsets/s rate: the previous tick's pattern
/// count and timestamp.
struct RateState {
    last_patterns: u64,
    last_at: Instant,
}

fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1_000_000.0 {
        format!("{:.1}M/s", per_sec / 1_000_000.0)
    } else if per_sec >= 1_000.0 {
        format!("{:.1}k/s", per_sec / 1_000.0)
    } else {
        format!("{per_sec:.0}/s")
    }
}

fn status_line(rate: &mut RateState) -> String {
    let phase = span::current_phase().map(|p| p.name()).unwrap_or("starting");
    let mined = CORE_ITEMS_MINED.get();
    let total = CORE_FIRST_LEVEL_ITEMS.get();
    let steals = CORE_TASKS_STOLEN.get();
    let mut line = format!("[{phase}] items {mined}/{total}");

    let patterns = CORE_PATTERNS.get();
    let dt = rate.last_at.elapsed().as_secs_f64();
    if dt > 0.0 {
        let per_sec = patterns.saturating_sub(rate.last_patterns) as f64 / dt;
        line.push_str(&format!("  {} sets", fmt_rate(per_sec)));
    }
    rate.last_patterns = patterns;
    rate.last_at = Instant::now();

    line.push_str(&format!("  steals {steals}"));

    let resume = CORE_RESUME_WATERMARK.get();
    if resume > 0 {
        line.push_str(&format!("  resumed @{resume}"));
    }
    // Ranges are cut as the run goes, so the partition count has no
    // total; the covered share of the item domain does.
    let items = CORE_PARTITION_ITEMS.get();
    if items > 0 {
        line.push_str(&format!(
            "  partition {}, items {}/{items}",
            CORE_SPILL_PARTS_DONE.get(),
            CORE_PARTITION_ITEMS_DONE.get()
        ));
    }
    let pool_peak = MEMMAN_POOL_PEAK.get();
    if pool_peak > 0 {
        line.push_str(&format!("  pool peak {:.1} MiB", pool_peak as f64 / (1024.0 * 1024.0)));
    }
    line
}

/// The running heartbeat thread; call [`stop`](Self::stop) before writing
/// final results so the status line does not interleave with them.
#[derive(Debug)]
pub struct ProgressMeter {
    stop_tx: Sender<()>,
    handle: JoinHandle<()>,
}

impl ProgressMeter {
    /// Starts repainting every `interval`. Requires
    /// [`crate::set_enabled`]`(true)` to show anything useful — the meter
    /// only reads the registry, it does not enable recording.
    pub fn start(interval: Duration) -> Self {
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("cfp-progress".into())
            .spawn(move || {
                let tty = std::io::stderr().is_terminal();
                let mut last_line = String::new();
                let mut last_emit: Option<Instant> = None;
                let mut rate =
                    RateState { last_patterns: CORE_PATTERNS.get(), last_at: Instant::now() };
                loop {
                    let stopping = match stop_rx.recv_timeout(interval) {
                        Err(RecvTimeoutError::Timeout) => false,
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => true,
                    };
                    let line = status_line(&mut rate);
                    let mut err = std::io::stderr().lock();
                    if tty {
                        // Repaint in place; clear to end of line in case
                        // the new status is shorter.
                        let _ = write!(err, "\r{line}\x1b[K");
                        if stopping {
                            let _ = writeln!(err);
                        }
                        let _ = err.flush();
                    } else if line != last_line
                        && (stopping || last_emit.is_none_or(|at| at.elapsed() >= LOG_SPACING))
                    {
                        let _ = writeln!(err, "{line}");
                        last_emit = Some(Instant::now());
                    }
                    last_line = line;
                    if stopping {
                        return;
                    }
                }
            })
            .expect("spawn progress thread");
        ProgressMeter { stop_tx, handle }
    }

    /// Paints one final status line and joins the thread.
    pub fn stop(self) {
        let _ = self.stop_tx.send(());
        let _ = self.handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_ticks_and_stops_cleanly() {
        let meter = ProgressMeter::start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        meter.stop();
    }

    #[test]
    fn status_line_reflects_registry_values() {
        // No reset here (other tests share the registry); the line only
        // needs to contain whatever the counters currently read.
        let mut rate = RateState { last_patterns: 0, last_at: Instant::now() };
        std::thread::sleep(Duration::from_millis(2));
        CORE_PARTITION_ITEMS.record(1508);
        CORE_PARTITION_ITEMS_DONE.record(448);
        let line = status_line(&mut rate);
        assert!(line.contains("items"), "{line}");
        assert!(line.contains("steals"), "{line}");
        assert!(line.contains("sets"), "{line}");
        // A partitioned run shows partitions done and the covered share
        // of the item domain, not a partition total.
        let partitions = format!(
            "  partition {}, items {}/{}",
            CORE_SPILL_PARTS_DONE.get(),
            CORE_PARTITION_ITEMS_DONE.get(),
            CORE_PARTITION_ITEMS.get()
        );
        assert!(line.contains(&partitions), "{line}");
    }

    #[test]
    fn rate_formatting_scales() {
        assert_eq!(fmt_rate(12.0), "12/s");
        assert_eq!(fmt_rate(12_345.0), "12.3k/s");
        assert_eq!(fmt_rate(3_456_789.0), "3.5M/s");
    }
}
