//! Which regime counts each conditional pattern base. A dense database's
//! arrays carry item-pair tables, whose rows replace the frequency walk;
//! a sparse many-item database's arrays carry none, so every base is
//! walked once and the walk recorded. Both regimes must mine exactly what
//! FP-growth mines. The trace registry is process-global, so this test
//! binary holds this one test alone.

use cfp_core::{CfpGrowthMiner, CollectSink, Item, Miner, TransactionDb};
use cfp_data::rng::{Rng, StdRng};
use cfp_fptree::FpGrowthMiner;
use cfp_trace::counters::{ARRAY_PAIR_TABLES, CORE_CONDITIONAL_TREES, CORE_PAIR_ROWS};
use cfp_trace::hist::CORE_COND_TREE_BYTES;

/// `rows` seeded rows over `items` items, each item present with
/// probability `density`.
fn random_db(seed: u64, rows: usize, items: u32, density: f64) -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = TransactionDb::new();
    for _ in 0..rows {
        let row: Vec<Item> = (0..items).filter(|_| rng.gen_bool(density)).collect();
        db.push(&row);
    }
    db
}

/// Counters of one traced run.
struct Regimes {
    /// `array.pair_tables`: conversions that counted a pair table.
    tables: u64,
    /// `core.pair_rows`: bases counted from a pair-table row.
    rows: u64,
    /// `core.conditional_trees`: bases counted either way.
    bases: u64,
    /// Conditional trees built from a base.
    built: u64,
}

/// Mines `db` with tracing on, checks the output against FP-growth, and
/// returns the run's regime counters.
fn mine_traced(db: &TransactionDb, min_support: u64) -> Regimes {
    cfp_trace::reset();
    cfp_trace::set_enabled(true);
    let mut got = CollectSink::new();
    CfpGrowthMiner::new().mine(db, min_support, &mut got);
    cfp_trace::set_enabled(false);
    let mut want = CollectSink::new();
    FpGrowthMiner::new().mine(db, min_support, &mut want);
    assert_eq!(got.into_sorted(), want.into_sorted(), "cfp-growth disagrees with FP-growth");
    Regimes {
        tables: ARRAY_PAIR_TABLES.get(),
        rows: CORE_PAIR_ROWS.get(),
        bases: CORE_CONDITIONAL_TREES.get(),
        built: CORE_COND_TREE_BYTES.count(),
    }
}

#[test]
#[cfg_attr(not(feature = "trace"), ignore = "tracing is compiled out")]
fn dense_bases_read_pair_rows_and_sparse_bases_walk() {
    // A dense block: 16 items in about 80% of 300 rows.
    let dense = mine_traced(&random_db(7, 300, 16, 0.8), 150);
    assert!(dense.tables > 0, "no dense array counted a pair table");
    assert!(dense.rows > 0 && dense.rows <= dense.bases);
    assert!(dense.built > 0);

    // Sparse: 1000 items, about 8 to a row. Even a sparse run can meet a
    // small dense conditional array (two items, all three paths present
    // fit an 8-byte table); at this density none arises, so every base is
    // walked and recorded, and the trees are built from the recording.
    let sparse = mine_traced(&random_db(11, 1000, 1000, 0.008), 3);
    assert_eq!((sparse.tables, sparse.rows), (0, 0), "a sparse base was counted from a row");
    assert!(sparse.bases > 900 && sparse.built > 0);
}
