//! Market-basket analysis on a retail-shaped dataset: the "customers who
//! bought this also bought …" use case from the paper's introduction.
//!
//! Generates a sparse retail-like dataset, mines the top associations with
//! CFP-growth, counts the maximal itemsets with the engine's maximal output
//! mode, and derives simple association rules (confidence = support of the
//! pair over support of the antecedent).
//!
//! ```text
//! cargo run --release -p cfp-examples --bin market_basket
//! ```

use cfp_core::{CfpGrowthMiner, CollectSink, CountingSink, MineOpts, Miner, OutputMode};
use cfp_data::profiles;
use cfp_rules::RuleMiner;

fn main() {
    let profile = profiles::by_name("retail-like").expect("built-in profile");
    let db = profile.generate();
    let min_support = profile.absolute_support(&db, 1);
    println!(
        "dataset: {} transactions, {} distinct items, avg length {:.1}",
        db.len(),
        db.distinct_items(),
        db.avg_transaction_len()
    );
    println!("mining with minimum support {min_support}…");

    let mut sink = CollectSink::new();
    let stats = CfpGrowthMiner::new().mine(&db, min_support, &mut sink);
    let itemsets = sink.into_sorted();
    println!(
        "{} frequent itemsets in {:.2?} (peak memory {})\n",
        stats.itemsets,
        stats.total_time(),
        cfp_metrics::fmt_bytes(stats.peak_bytes)
    );

    // A condensed view of the result, mined inside the recursion.
    let mut maximal = CountingSink::new();
    let opts = MineOpts { output: OutputMode::Maximal, ..Default::default() };
    CfpGrowthMiner::new()
        .try_mine_with(&db, min_support, &mut maximal, &opts)
        .expect("an unbudgeted run cannot fail");
    println!("condensed: {} maximal itemsets describe the frequent border\n", maximal.count);

    // Association rules ("customers who bought ... also bought ...").
    let rule_miner = RuleMiner::new(&itemsets, db.len() as u64);
    let rules = rule_miner.rules_by_confidence(0.5);
    println!("top association rules (antecedent => consequent):");
    for r in rules.iter().take(15) {
        println!(
            "  {:?} => {:?}   support {:>5}   confidence {:>5.1}%   lift {:.2}",
            r.antecedent,
            r.consequent,
            r.support,
            r.confidence * 100.0,
            r.lift
        );
    }
    if rules.is_empty() {
        println!("  (no rules at this support/confidence level)");
    }
}
