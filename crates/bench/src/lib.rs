//! The reproduction harness regenerating every table and figure of the
//! paper's evaluation (§4). Performance regressions are measured by the
//! standalone `perfbench/` package, not here.
//!
//! Each experiment is a pure function returning a [`report::Table`]; the
//! `cfp-repro` binary prints them, and `EXPERIMENTS.md` records the
//! measured numbers next to the paper's. Datasets come from
//! [`cfp_data::profiles`] — laptop-scale generators matching the shape of
//! the paper's workloads (see DESIGN.md for the substitution rationale).
//!
//! | experiment | function | paper content |
//! |---|---|---|
//! | Table 1 | [`experiments::table1`] | FP-tree field zero bytes |
//! | Table 2 | [`experiments::table2`] | CFP-tree field zero bytes |
//! | Table 3 | [`experiments::table3`] | dataset summary |
//! | Fig. 6(a) | [`experiments::fig6a`] | ternary CFP-tree node size |
//! | Fig. 6(b) | [`experiments::fig6b`] | CFP-array node size |
//! | Fig. 7 | [`experiments::fig7_sweep`] | build/convert/total time & memory vs. tree size |
//! | Fig. 8 | [`experiments::fig8`] | all algorithms on Quest1/Quest2 |

pub mod experiments;
pub mod report;

use cfp_data::miner::CountingSink;
use cfp_data::{MineStats, Miner, TransactionDb};

/// Runs a miner with a counting sink and returns its statistics.
pub fn run_miner(miner: &dyn Miner, db: &TransactionDb, min_support: u64) -> MineStats {
    let mut sink = CountingSink::new();
    miner.mine(db, min_support, &mut sink)
}

/// A small Quest dataset for quick runs and tests (fast to build).
pub fn bench_quest(transactions: usize) -> TransactionDb {
    let cfg = cfp_data::quest::QuestConfig {
        num_transactions: transactions,
        avg_transaction_len: 12.0,
        avg_pattern_len: 4.0,
        num_patterns: 500,
        num_items: 800,
        correlation: 0.25,
        seed: 0xBE7C4,
    };
    cfp_data::quest::generate(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_core::CfpGrowthMiner;

    #[test]
    fn run_miner_returns_consistent_stats() {
        let db = bench_quest(500);
        let stats = run_miner(&CfpGrowthMiner::new(), &db, 15);
        assert!(stats.itemsets > 0);
        assert!(stats.peak_bytes > 0);
    }

    #[test]
    fn bench_quest_is_deterministic() {
        assert_eq!(bench_quest(200), bench_quest(200));
    }
}
