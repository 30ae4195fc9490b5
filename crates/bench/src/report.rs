//! Plain-text table rendering for experiment reports, plus traced runs
//! producing machine-readable `cfp-profile/3` documents.

use cfp_data::miner::CountingSink;
use cfp_data::{Miner, TransactionDb};
use cfp_trace::{MemSampler, RunReport};
use std::time::{Duration, Instant};

/// Runs `miner` once with tracing enabled and returns the machine-readable
/// run report ([`cfp_trace::report::SCHEMA`]). The global registry is reset
/// first so the report covers exactly this run; the previous trace-enabled
/// state is restored afterwards.
pub fn profile_run(
    miner: &dyn Miner,
    db: &TransactionDb,
    dataset: &str,
    min_support: u64,
    threads: u64,
) -> RunReport {
    let was_enabled = cfp_trace::enabled();
    cfp_trace::set_enabled(true);
    cfp_trace::reset();
    let sampler = MemSampler::start(Duration::from_millis(10));
    let started = Instant::now();
    let mut sink = CountingSink::new();
    let stats = miner.mine(db, min_support, &mut sink);
    let wall_nanos = started.elapsed().as_nanos() as u64;
    let samples = sampler.stop();
    let report = RunReport::capture(
        dataset,
        db.len() as u64,
        min_support,
        miner.name(),
        threads,
        stats.itemsets,
        wall_nanos,
        samples,
    );
    cfp_trace::set_enabled(was_enabled);
    report
}

/// A titled table with aligned columns.
#[derive(Clone, Debug)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; short rows are padded with empty cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with padded columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len().max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = width.saturating_sub(cell.chars().count());
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

impl Table {
    /// Renders the table as CSV (headers + rows; cells quoted when they
    /// contain commas or quotes).
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| cell(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a byte count in MiB with 2 decimals.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["short".into(), "1".into()]);
        t.push_row(vec!["a-much-longer-name".into(), "23456".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows share the column start of the second column.
        let col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1'), Some(col));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.push_row(vec!["only-one".into()]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn csv_escapes_and_emits_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1,5".into(), "plain".into()]);
        t.push_row(vec!["quote\"inside".into(), "2".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "\"1,5\",plain");
        assert_eq!(lines[2], "\"quote\"\"inside\",2");
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(mib(3 * 1024 * 1024), "3.00");
    }

    #[test]
    fn profile_run_produces_a_populated_report() {
        let db = crate::bench_quest(400);
        let miner = cfp_core::CfpGrowthMiner::new();
        let report = profile_run(&miner, &db, "bench-quest-400", 15, 1);
        assert_eq!(report.dataset, "bench-quest-400");
        assert_eq!(report.transactions, 400);
        assert!(report.itemsets > 0);
        assert!(report.wall_nanos > 0);
        assert!(report.samples.len() >= 2);
        // Count/build/convert/mine all ran under tracing (read is the
        // CLI's file pass; recover and spill belong to the supervisor's
        // escalation ladder; all three stay zero here).
        for p in &report.snapshot.phases {
            if !matches!(p.name, "read" | "recover" | "spill") {
                assert!(p.count > 0, "phase {} not recorded", p.name);
            }
        }
        assert!(report.snapshot.counter("core.conditional_trees") > 0, "conditional trees counted");
        assert!(!cfp_trace::enabled(), "previous enabled state restored");
    }
}
