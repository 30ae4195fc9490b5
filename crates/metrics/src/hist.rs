//! Leading-zero-byte histograms (Tables 1 and 2 of the paper).
//!
//! The effectiveness of leading-zero-byte suppression depends entirely on
//! how many of the four bytes of a 32-bit field are zero. Tables 1 and 2
//! report, for every node field of the FP-tree and the CFP-tree, the
//! fraction of nodes whose field has 0, 1, 2, 3, or 4 leading zero bytes
//! (4 leading zero bytes means the value is 0). [`LeadingZeroHistogram`]
//! accumulates those distributions. They are field analytics of a built
//! structure, not run telemetry: a run's distributions are the trace
//! registry's log-linear histograms.

/// Number of leading zero *bytes* in a 32-bit value (0..=4).
///
/// A value of 0 has 4 leading zero bytes; a value >= 2^24 has none.
pub fn leading_zero_bytes(v: u32) -> usize {
    (v.leading_zeros() / 8) as usize
}

/// Distribution of leading-zero-byte counts over many 32-bit samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LeadingZeroHistogram {
    buckets: [u64; 5],
}

impl LeadingZeroHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one 32-bit sample.
    pub fn record(&mut self, value: u32) {
        self.buckets[leading_zero_bytes(value)] += 1;
    }

    /// Adds `n` samples of the same value at once.
    pub fn record_n(&mut self, value: u32, n: u64) {
        self.buckets[leading_zero_bytes(value)] += n;
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Raw bucket counts, indexed by number of leading zero bytes.
    pub fn buckets(&self) -> &[u64; 5] {
        &self.buckets
    }

    /// Fraction of samples in each bucket (all zero when empty).
    pub fn fractions(&self) -> [f64; 5] {
        let total = self.total();
        if total == 0 {
            return [0.0; 5];
        }
        let mut out = [0.0; 5];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = *b as f64 / total as f64;
        }
        out
    }

    /// Formats the buckets in the paper's table style (`0% <1% 2% 98% 0%`).
    pub fn paper_row(&self) -> String {
        self.fractions()
            .iter()
            .map(|&f| {
                let pct = f * 100.0;
                if pct == 0.0 {
                    "0%".to_string()
                } else if pct < 1.0 {
                    "<1%".to_string()
                } else if pct > 99.0 && pct < 100.0 {
                    ">99%".to_string()
                } else {
                    format!("{:.0}%", pct)
                }
            })
            .collect::<Vec<_>>()
            .join("\t")
    }

    /// Average number of leading zero bytes per sample.
    pub fn mean_zero_bytes(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self.buckets.iter().enumerate().map(|(i, &c)| i as u64 * c).sum();
        weighted as f64 / total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_zero_bytes_boundaries() {
        assert_eq!(leading_zero_bytes(0), 4);
        assert_eq!(leading_zero_bytes(1), 3);
        assert_eq!(leading_zero_bytes(0xFF), 3);
        assert_eq!(leading_zero_bytes(0x100), 2);
        assert_eq!(leading_zero_bytes(0xFFFF), 2);
        assert_eq!(leading_zero_bytes(0x1_0000), 1);
        assert_eq!(leading_zero_bytes(0xFF_FFFF), 1);
        assert_eq!(leading_zero_bytes(0x100_0000), 0);
        assert_eq!(leading_zero_bytes(u32::MAX), 0);
    }

    #[test]
    fn record_buckets_correctly() {
        let mut h = LeadingZeroHistogram::new();
        h.record(0);
        h.record(0);
        h.record(5);
        h.record(0x1234_5678);
        assert_eq!(h.buckets(), &[1, 0, 0, 1, 2]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = LeadingZeroHistogram::new();
        for v in [0u32, 1, 300, 70000, 0x2000_0000] {
            h.record(v);
        }
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LeadingZeroHistogram::new();
        assert_eq!(h.fractions(), [0.0; 5]);
        assert_eq!(h.mean_zero_bytes(), 0.0);
    }

    #[test]
    fn mean_zero_bytes_weighted() {
        let mut h = LeadingZeroHistogram::new();
        h.record_n(0, 3); // 4 zero bytes each
        h.record_n(0x100_0000, 1); // 0 zero bytes
        assert!((h.mean_zero_bytes() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_buckets() {
        let mut a = LeadingZeroHistogram::new();
        a.record(0);
        let mut b = LeadingZeroHistogram::new();
        b.record(1);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.buckets()[4], 1);
        assert_eq!(a.buckets()[3], 1);
    }

    #[test]
    fn paper_row_formats_edges() {
        let mut h = LeadingZeroHistogram::new();
        h.record_n(0, 98);
        h.record_n(0x100_0000, 2);
        let row = h.paper_row();
        assert!(row.starts_with("2%"), "row was {row}");
        assert!(row.ends_with("98%"), "row was {row}");
    }
}
