//! Baseline frequent-itemset miners the paper compares CFP-growth against
//! (§4.4–§4.5), re-implemented from their algorithmic descriptions.
//!
//! All miners implement [`cfp_data::Miner`] and produce identical itemsets
//! with identical supports — cross-checked against each other and against
//! a brute-force [`oracle`] in the test suites. They differ exactly where
//! the paper says they should: memory footprint and its growth as minimum
//! support falls. The [`oracle`] also filters a complete result down to
//! its closed and maximal itemsets, the yardstick for the engine's
//! condensed output modes.
//!
//! | module | models | character |
//! |---|---|---|
//! | [`apriori`] | classic Apriori | level-wise candidates in a trie |
//! | [`eclat`] | Eclat | vertical tid-list intersections |
//! | [`lcm`] | LCM (ver. 2) | backtracking with occurrence deliver; memory ∝ transactions |
//! | [`nonordfp`] | nonordfp | FP-tree build, flat item-clustered count/parent arrays for mining |
//! | [`projection`] | FP-growth-Tiny / FP-array | pattern-base projection mining without conditional trees |
//!
//! The classic FP-growth baseline itself lives in
//! [`cfp_fptree::FpGrowthMiner`]; [`all_miners`] returns the full roster.
//!
//! Where the original systems are closed-source or their engineering is
//! orthogonal to the paper's claims, the re-implementations are simplified
//! but keep the *memory character* the evaluation relies on: e.g. our
//! LCM-style miner materializes occurrence lists whose size scales with the
//! transaction count (the reason LCM "breaks down much earlier" on Quest2),
//! and our FP-array-style miner retains the full recoded dataset in memory
//! (the reason FP-array "always requires more than the available main
//! memory"). CT-pro and AFOPT are approximated by their closest structural
//! cousins in this roster (the projection miners), and the benchmark
//! harness labels them accordingly.

#![warn(missing_docs)]

pub mod apriori;
pub mod eclat;
pub mod lcm;
pub mod nonordfp;
pub mod oracle;
pub mod projection;

pub use apriori::AprioriMiner;
pub use eclat::EclatMiner;
pub use lcm::LcmStyleMiner;
pub use nonordfp::NonordFpMiner;
pub use projection::{FpArrayStyleMiner, TinyStyleMiner};

use cfp_data::Miner;

/// Every miner in the workspace, CFP-growth's competitors and CFP-growth's
/// own baseline FP-growth included.
pub fn all_miners() -> Vec<Box<dyn Miner>> {
    vec![
        Box::new(cfp_fptree::FpGrowthMiner::new()),
        Box::new(AprioriMiner::new()),
        Box::new(EclatMiner::new()),
        Box::new(LcmStyleMiner::new()),
        Box::new(NonordFpMiner::new()),
        Box::new(TinyStyleMiner::new()),
        Box::new(FpArrayStyleMiner::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_unique_names() {
        let miners = all_miners();
        let mut names: Vec<_> = miners.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), miners.len());
    }
}
