//! A shareable current/peak memory gauge.
//!
//! Mining algorithms in this workspace account for their memory explicitly:
//! every data structure they create or drop reports its exact byte footprint
//! to a [`MemGauge`]. The gauge records the running total and the peak, which
//! is the quantity plotted in Figures 7(b), 7(d), and 8(b) of the paper.
//!
//! The gauge is an `Arc` over atomics, so deeply recursive code (the mine
//! phase builds thousands of conditional trees) can clone a handle instead
//! of threading `&mut` borrows through every call, and every worker thread
//! of one run can charge the same gauge: its peak is then the run's real
//! concurrent high-water.
//!
//! When tracing is enabled (`cfp_trace::set_enabled(true)`), every gauge
//! additionally mirrors its movements into the global
//! `cfp_trace::counters::MEM_CURRENT_BYTES` gauge (the sum of all live
//! gauges across the process, which the background memory sampler reads)
//! and records its own new value into `MEM_PEAK_BYTES`, so a process that
//! mines once reports exactly its run's peak there.

use cfp_trace::counters::{MEM_CURRENT_BYTES, MEM_PEAK_BYTES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Every field is a statistic that publishes no other data: relaxed
// atomics suffice.
#[derive(Debug, Default)]
struct Inner {
    current: AtomicU64,
    peak: AtomicU64,
    /// Sum of `current` observed at every `checkpoint` call, for averages.
    sample_sum: AtomicU64,
    sample_count: AtomicU64,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // A gauge dropped with bytes still accounted (its owner structure
        // is going away wholesale) must release them from the global
        // mirror, or dead runs would inflate later samples.
        let cur = *self.current.get_mut();
        if cur > 0 && cfp_trace::enabled() {
            MEM_CURRENT_BYTES.sub(cur);
        }
    }
}

/// Tracks current and peak logical memory usage in bytes.
///
/// Cloning produces a handle to the same underlying counters, which any
/// thread may charge.
#[derive(Clone, Debug, Default)]
pub struct MemGauge {
    inner: Arc<Inner>,
}

impl MemGauge {
    /// Creates a gauge with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `bytes` additional bytes are now in use.
    pub fn alloc(&self, bytes: u64) {
        let cur = self.inner.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.peak.fetch_max(cur, Ordering::Relaxed);
        if cfp_trace::enabled() {
            MEM_CURRENT_BYTES.add(bytes);
            MEM_PEAK_BYTES.record(cur);
        }
    }

    /// Records that `bytes` bytes have been released.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more bytes are freed than were allocated;
    /// release builds saturate at zero.
    pub fn free(&self, bytes: u64) {
        // The closure never declines, so both arms carry the old value.
        let cur = self
            .inner
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| Some(c.saturating_sub(bytes)))
            .unwrap_or_else(|c| c);
        debug_assert!(bytes <= cur, "MemGauge::free({bytes}) exceeds current usage {cur}");
        if cfp_trace::enabled() {
            MEM_CURRENT_BYTES.sub(bytes.min(cur));
        }
    }

    /// Currently accounted bytes.
    pub fn current(&self) -> u64 {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// Highest value `current` has reached.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Samples `current` for the running average (the paper reports average
    /// memory consumption of CFP-growth in Figure 7(d)).
    pub fn checkpoint(&self) {
        self.inner.sample_sum.fetch_add(self.current(), Ordering::Relaxed);
        self.inner.sample_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Average of all checkpointed samples, or 0 with no samples.
    pub fn average(&self) -> u64 {
        let sum = self.inner.sample_sum.load(Ordering::Relaxed);
        sum.checked_div(self.inner.sample_count.load(Ordering::Relaxed)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_tracks_current_and_peak() {
        let g = MemGauge::new();
        g.alloc(100);
        g.alloc(50);
        assert_eq!(g.current(), 150);
        assert_eq!(g.peak(), 150);
        g.free(120);
        assert_eq!(g.current(), 30);
        assert_eq!(g.peak(), 150);
        g.alloc(10);
        assert_eq!(g.peak(), 150, "peak only moves upward");
    }

    #[test]
    fn clones_share_state() {
        let g = MemGauge::new();
        let h = g.clone();
        g.alloc(7);
        h.alloc(3);
        assert_eq!(g.current(), 10);
        assert_eq!(h.peak(), 10);
    }

    /// Two threads charging one gauge: the peak is what they held
    /// together, not either thread's own high-water.
    #[test]
    fn clones_on_two_threads_report_the_concurrent_high_water() {
        use std::sync::Barrier;
        let g = MemGauge::new();
        let both_live = Barrier::new(2);
        std::thread::scope(|s| {
            for bytes in [100, 50] {
                let (g, both_live) = (g.clone(), &both_live);
                s.spawn(move || {
                    g.alloc(bytes);
                    both_live.wait();
                    g.free(bytes);
                });
            }
        });
        assert_eq!(g.peak(), 150);
        assert_eq!(g.current(), 0);
    }

    #[test]
    fn average_over_checkpoints() {
        let g = MemGauge::new();
        g.alloc(10);
        g.checkpoint();
        g.alloc(30);
        g.checkpoint();
        assert_eq!(g.average(), 25);
    }

    #[test]
    #[should_panic(expected = "exceeds current usage")]
    #[cfg(debug_assertions)]
    fn over_free_panics_in_debug() {
        let g = MemGauge::new();
        g.alloc(1);
        g.free(2);
    }
}
