//! Cross-algorithm mining equivalence: every miner in the workspace must
//! produce exactly the same frequent itemsets with the same supports.

use cfp_baselines::oracle;
use cfp_data::rng::{Rng, StdRng};
use cfp_data::TransactionDb;
use cfp_integration::{fingerprint, full_roster, mine_sorted};

#[test]
fn all_miners_match_oracle_on_textbook_example() {
    let db = TransactionDb::from_rows(&[
        vec![1, 2, 5],
        vec![2, 4],
        vec![2, 3],
        vec![1, 2, 4],
        vec![1, 3],
        vec![2, 3],
        vec![1, 3],
        vec![1, 2, 3, 5],
        vec![1, 2, 3],
    ]);
    for minsup in 1..=4 {
        let expect = oracle::frequent_itemsets(&db, minsup);
        for m in full_roster() {
            assert_eq!(
                mine_sorted(m.as_ref(), &db, minsup),
                expect,
                "{} at minsup {minsup}",
                m.name()
            );
        }
    }
}

#[test]
fn all_miners_handle_degenerate_inputs() {
    let cases: Vec<TransactionDb> = vec![
        TransactionDb::new(),
        TransactionDb::from_rows(&[vec![0u32]]),
        TransactionDb::from_rows(&[vec![], vec![], vec![]]),
        TransactionDb::from_rows(&[vec![7u32, 7, 7]]),
        TransactionDb::from_rows(&vec![vec![0u32, 1, 2]; 5]),
        // Sparse ids far apart.
        TransactionDb::from_rows(&[vec![5u32, 100_000], vec![100_000]]),
    ];
    for (i, db) in cases.iter().enumerate() {
        for minsup in [1u64, 2, 10] {
            let reference = mine_sorted(full_roster()[0].as_ref(), db, minsup);
            for m in full_roster().iter().skip(1) {
                assert_eq!(
                    mine_sorted(m.as_ref(), db, minsup),
                    reference,
                    "case {i} minsup {minsup} miner {}",
                    m.name()
                );
            }
        }
    }
}

#[test]
fn all_miners_agree_on_profiles_at_high_support() {
    for name in ["retail-like", "kosarak-like", "quest1"] {
        let p = cfp_data::profiles::by_name(name).unwrap();
        let db = p.generate();
        let minsup = p.absolute_support(&db, 0);
        let roster = full_roster();
        let reference = fingerprint(roster[0].as_ref(), &db, minsup);
        assert!(reference.0 > 0, "{name}: no itemsets at high support");
        for m in roster.iter().skip(1) {
            assert_eq!(fingerprint(m.as_ref(), &db, minsup), reference, "{name} vs {}", m.name());
        }
    }
}

/// Seeded small databases (up to 40 rows over 9 items): every miner
/// equals the brute-force oracle.
#[test]
fn all_miners_match_oracle_on_seeded_random_databases() {
    let mut rng = StdRng::seed_from_u64(0xE001);
    for case in 0..24 {
        let rows: Vec<Vec<u32>> = (0..rng.gen_range(1..40))
            .map(|_| {
                let mut row: Vec<u32> =
                    (0..rng.gen_range(0..7)).map(|_| rng.gen_range(0..9)).collect();
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect();
        let minsup = rng.gen_range(1..5);
        let db = TransactionDb::from_rows(&rows);
        let expect = oracle::frequent_itemsets(&db, minsup);
        for m in full_roster() {
            assert_eq!(
                mine_sorted(m.as_ref(), &db, minsup),
                expect,
                "case {case}: miner {} at minsup {minsup}",
                m.name()
            );
        }
    }
}
