//! Measurement utilities shared by every crate in the CFP-growth workspace.
//!
//! The paper's central claim is about *memory*: the CFP-tree and CFP-array
//! shrink FP-growth's working set by roughly an order of magnitude. To verify
//! that claim we need exact, allocator-independent accounting of how many
//! bytes each data structure occupies, the peak across a whole mining run,
//! and per-field statistics such as the leading-zero-byte histograms of
//! Tables 1 and 2. This crate provides those primitives:
//!
//! - [`MemGauge`]: a shareable current/peak byte counter threaded through an
//!   algorithm's phases.
//! - [`HeapSize`]: a trait reporting the exact heap footprint of a structure.
//! - [`LeadingZeroHistogram`]: per-field distribution of leading zero bytes
//!   in 32-bit values (Tables 1 and 2).
//! - [`Stopwatch`]: simple phase timing; the miners keep each phase's
//!   time in their `MineStats`.
//! - [`fmt_bytes`] / [`fmt_count`]: human-readable formatting for reports.

#![warn(missing_docs)]

pub mod gauge;
pub mod heapsize;
pub mod hist;
pub mod timer;

pub use gauge::MemGauge;
pub use heapsize::HeapSize;
pub use hist::LeadingZeroHistogram;
pub use timer::Stopwatch;

/// Formats a byte count with a binary-prefixed unit (`1.50 MiB`).
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

/// Formats a count with thousands separators (`1,234,567`).
pub fn fmt_count(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_small_values_stay_in_bytes() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(1023), "1023 B");
    }

    #[test]
    fn fmt_bytes_scales_units() {
        assert_eq!(fmt_bytes(1024), "1.00 KiB");
        assert_eq!(fmt_bytes(1536), "1.50 KiB");
        assert_eq!(fmt_bytes(1024 * 1024), "1.00 MiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.00 GiB");
    }

    #[test]
    fn fmt_count_inserts_separators() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }
}
