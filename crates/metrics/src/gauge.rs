//! A shareable current/peak memory gauge.
//!
//! Mining algorithms in this workspace account for their memory explicitly:
//! every data structure they create or drop reports its exact byte footprint
//! to a [`MemGauge`]. The gauge records the running total and the peak, which
//! is the quantity plotted in Figures 7(b), 7(d), and 8(b) of the paper.
//!
//! The gauge is a cheap `Rc<Cell>` pair so that deeply recursive code (the
//! mine phase builds thousands of conditional trees) can clone a handle
//! instead of threading `&mut` borrows through every call.
//!
//! When tracing is enabled (`cfp_trace::set_enabled(true)`), every gauge
//! additionally mirrors its movements into the global
//! `cfp_trace::counters::MEM_CURRENT_BYTES` / `MEM_PEAK_BYTES` atomics.
//! `MemGauge` itself is `Rc`-based and not `Send`, so the mirror is what
//! the background memory sampler reads: the sum of all live gauges across
//! the process.

use cfp_trace::counters::{MEM_CURRENT_BYTES, MEM_PEAK_BYTES};
use std::cell::Cell;
use std::rc::Rc;

#[derive(Debug, Default)]
struct Inner {
    current: Cell<u64>,
    peak: Cell<u64>,
    /// Sum of `current` observed at every `checkpoint` call, for averages.
    sample_sum: Cell<u64>,
    sample_count: Cell<u64>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // A gauge dropped with bytes still accounted (its owner structure
        // is going away wholesale) must release them from the global
        // mirror, or dead runs would inflate later samples.
        let cur = self.current.get();
        if cur > 0 && cfp_trace::enabled() {
            MEM_CURRENT_BYTES.sub(cur);
        }
    }
}

/// Tracks current and peak logical memory usage in bytes.
///
/// Cloning produces a handle to the same underlying counters.
#[derive(Clone, Debug, Default)]
pub struct MemGauge {
    inner: Rc<Inner>,
}

impl MemGauge {
    /// Creates a gauge with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `bytes` additional bytes are now in use.
    pub fn alloc(&self, bytes: u64) {
        let cur = self.inner.current.get() + bytes;
        self.inner.current.set(cur);
        if cur > self.inner.peak.get() {
            self.inner.peak.set(cur);
        }
        if cfp_trace::enabled() {
            MEM_CURRENT_BYTES.add(bytes);
            MEM_PEAK_BYTES.record(MEM_CURRENT_BYTES.get());
        }
    }

    /// Records that `bytes` bytes have been released.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more bytes are freed than were allocated;
    /// release builds saturate at zero.
    pub fn free(&self, bytes: u64) {
        let cur = self.inner.current.get();
        debug_assert!(bytes <= cur, "MemGauge::free({bytes}) exceeds current usage {cur}");
        self.inner.current.set(cur.saturating_sub(bytes));
        if cfp_trace::enabled() {
            MEM_CURRENT_BYTES.sub(bytes.min(cur));
        }
    }

    /// Adjusts the gauge to reflect that a structure changed size.
    pub fn resize(&self, old_bytes: u64, new_bytes: u64) {
        if new_bytes >= old_bytes {
            self.alloc(new_bytes - old_bytes);
        } else {
            self.free(old_bytes - new_bytes);
        }
    }

    /// Currently accounted bytes.
    pub fn current(&self) -> u64 {
        self.inner.current.get()
    }

    /// Highest value `current` has reached since the last [`reset`](Self::reset).
    pub fn peak(&self) -> u64 {
        self.inner.peak.get()
    }

    /// Samples `current` for the running average (the paper reports average
    /// memory consumption of CFP-growth in Figure 7(d)).
    pub fn checkpoint(&self) {
        self.inner.sample_sum.set(self.inner.sample_sum.get() + self.inner.current.get());
        self.inner.sample_count.set(self.inner.sample_count.get() + 1);
    }

    /// Average of all checkpointed samples, or 0 with no samples.
    pub fn average(&self) -> u64 {
        self.inner.sample_sum.get().checked_div(self.inner.sample_count.get()).unwrap_or(0)
    }

    /// The sum and the number of checkpointed samples, so averages of
    /// several gauges (one per thread) can be merged exactly.
    pub fn samples(&self) -> (u64, u64) {
        (self.inner.sample_sum.get(), self.inner.sample_count.get())
    }

    /// Clears every counter.
    pub fn reset(&self) {
        if cfp_trace::enabled() {
            MEM_CURRENT_BYTES.sub(self.inner.current.get());
        }
        self.inner.current.set(0);
        self.inner.peak.set(0);
        self.inner.sample_sum.set(0);
        self.inner.sample_count.set(0);
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

    #[test]
    fn resize_moves_in_both_directions() {
        let g = MemGauge::new();
        g.alloc(100);
        g.resize(100, 160);
        assert_eq!(g.current(), 160);
        g.resize(160, 40);
        assert_eq!(g.current(), 40);
        assert_eq!(g.peak(), 160);
    }

    #[test]
    fn average_over_checkpoints() {
        let g = MemGauge::new();
        g.alloc(10);
        g.checkpoint();
        g.alloc(30);
        g.checkpoint();
        assert_eq!(g.average(), 25);
        assert_eq!(g.samples(), (50, 2));
    }

    #[test]
    fn reset_clears_all() {
        let g = MemGauge::new();
        g.alloc(10);
        g.checkpoint();
        g.reset();
        assert_eq!(g.current(), 0);
        assert_eq!(g.peak(), 0);
        assert_eq!(g.average(), 0);
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
