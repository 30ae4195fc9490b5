//! Sink behaviour across miners and determinism of the whole stack.

use cfp_core::{CfpGrowthMiner, LengthHistogramSink, Miner, TopKSink};
use cfp_data::{profiles, TransactionDb};
use cfp_fptree::FpGrowthMiner;
use cfp_integration::mine_sorted;

fn sample_db() -> TransactionDb {
    profiles::by_name("retail-like").unwrap().generate()
}

#[test]
fn topk_agrees_between_cfp_and_fp() {
    let db = sample_db();
    let minsup = 300;
    let mut a = TopKSink::new(25);
    CfpGrowthMiner::new().mine(&db, minsup, &mut a);
    let mut b = TopKSink::new(25);
    FpGrowthMiner::new().mine(&db, minsup, &mut b);
    let (a, b) = (a.into_sorted(), b.into_sorted());
    assert_eq!(a.len(), 25);
    // Supports must match pairwise (itemsets may tie arbitrarily).
    let sa: Vec<u64> = a.iter().map(|(_, s)| *s).collect();
    let sb: Vec<u64> = b.iter().map(|(_, s)| *s).collect();
    assert_eq!(sa, sb);
    // And supports are non-increasing.
    assert!(sa.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn length_histogram_agrees_between_cfp_and_fp() {
    let db = sample_db();
    let mut a = LengthHistogramSink::new();
    CfpGrowthMiner::new().mine(&db, 240, &mut a);
    let mut b = LengthHistogramSink::new();
    FpGrowthMiner::new().mine(&db, 240, &mut b);
    assert_eq!(a.buckets, b.buckets);
    assert!(a.buckets.len() >= 3, "should find itemsets of cardinality >= 2");
}

#[test]
fn mining_is_deterministic_across_runs() {
    let db = sample_db();
    let m = CfpGrowthMiner::new();
    let first = mine_sorted(&m, &db, 400);
    for _ in 0..3 {
        assert_eq!(mine_sorted(&m, &db, 400), first);
    }
}

#[test]
fn lower_support_is_a_superset() {
    let db = sample_db();
    let m = CfpGrowthMiner::new();
    let loose = mine_sorted(&m, &db, 200);
    let strict = mine_sorted(&m, &db, 500);
    // Every itemset at the strict level appears identically at the loose
    // level (anti-monotonicity of support).
    let mut j = 0;
    for pair in &strict {
        while j < loose.len() && &loose[j] != pair {
            j += 1;
        }
        assert!(j < loose.len(), "missing {pair:?} at lower support");
    }
    assert!(loose.len() > strict.len());
}

#[test]
fn support_counts_are_exact_at_every_level() {
    // Spot-verify supports reported by CFP-growth against direct scans.
    let db = sample_db();
    let m = CfpGrowthMiner::new();
    let got = mine_sorted(&m, &db, 600);
    assert!(!got.is_empty());
    for (itemset, support) in got.iter().step_by(17) {
        let actual = db.iter().filter(|t| itemset.iter().all(|i| t.contains(i))).count() as u64;
        assert_eq!(actual, *support, "itemset {itemset:?}");
    }
}
