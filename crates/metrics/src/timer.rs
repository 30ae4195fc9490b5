//! A restartable stopwatch for the build / convert / mine phases of the
//! algorithms.

use std::time::{Duration, Instant};

/// A restartable stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Elapsed time since start (or the last [`lap`](Self::lap)).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Returns the elapsed time and restarts the watch.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.start;
        self.start = now;
        d
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_positive_time() {
        let sw = Stopwatch::start();
        std::hint::black_box(0);
        assert!(sw.elapsed() >= Duration::ZERO);
    }

    #[test]
    fn lap_restarts() {
        let mut sw = Stopwatch::start();
        let first = sw.lap();
        let second = sw.elapsed();
        assert!(first >= Duration::ZERO);
        assert!(second <= first + Duration::from_secs(1));
    }
}
