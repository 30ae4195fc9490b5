//! Seeded trees of several shapes, shared by the golden digests of the
//! tree (`tests/golden.rs`) and of its CFP-array (`cfp-array`'s
//! `tests/golden.rs`).
//!
//! Together the shapes reach every branch of the insertion walk:
//! sibling BSTs descended to the left and to the right; missing `left`,
//! `right` and `suffix` pointers attached; rows that end at a standard
//! node with `pcount` crossing 255→256, 65535→65536 and 2^24−1→2^24;
//! chains matched in full, split by a divergence and split by a row
//! ending inside them; embedded leaves unembedded by a sibling, by a
//! descendant and by a `pcount` above 2^24−1; and two-byte Δitems.

use cfp_data::rng::{Rng, StdRng};
use cfp_tree::node::EMBED_MAX_PCOUNT;
use cfp_tree::{CfpTree, CfpTreeConfig};

/// Every shape, by name.
pub fn shapes() -> Vec<(&'static str, CfpTree)> {
    vec![
        ("sparse", build(2000, &sparse_rows(), CfpTreeConfig::default())),
        ("skewed", build(400, &skewed_rows(), CfpTreeConfig::default())),
        ("chains", build(60, &chain_rows(), CfpTreeConfig::default())),
        ("counts", build(400, &count_rows(), CfpTreeConfig::default())),
        ("dense", build(24, &dense_rows(), CfpTreeConfig::default())),
        (
            "short-chains-no-embed",
            build(400, &skewed_rows(), CfpTreeConfig { max_chain_len: 4, embed_leaves: false }),
        ),
    ]
}

fn build(num_items: usize, rows: &[(Vec<u32>, u32)], config: CfpTreeConfig) -> CfpTree {
    let mut tree = CfpTree::with_config(num_items, config);
    for (row, weight) in rows {
        tree.insert(row, *weight);
    }
    tree
}

/// Sorts and deduplicates a drawn row.
fn ascending(mut row: Vec<u32>) -> Vec<u32> {
    row.sort_unstable();
    row.dedup();
    row
}

/// Uniform rows over 2000 items: most Δitems take two bytes.
fn sparse_rows() -> Vec<(Vec<u32>, u32)> {
    let mut rng = StdRng::seed_from_u64(0x5BA5);
    (0..1500)
        .map(|_| {
            let len = rng.gen_range(1..10usize);
            let row = ascending((0..len).map(|_| rng.gen_range(0..2000u32)).collect());
            (row, rng.gen_range(1..4u32))
        })
        .collect()
}

/// Zipf-like rows over 400 items, as on clickstream data: low ids
/// dominate, so every level holds a deep sibling BST.
fn skewed_rows() -> Vec<(Vec<u32>, u32)> {
    let mut rng = StdRng::seed_from_u64(0x2F1F);
    (0..3000)
        .map(|_| {
            let len = rng.gen_range(1..12usize);
            let row = ascending(
                (0..len)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        (400.0 * u * u * u) as u32
                    })
                    .collect(),
            );
            (row, rng.gen_range(1..3u32))
        })
        .collect()
}

/// Rows holding each of 24 items with probability 0.55: few items over
/// many nodes, so the CFP-array gets an item-pair table.
fn dense_rows() -> Vec<(Vec<u32>, u32)> {
    let mut rng = StdRng::seed_from_u64(0xDE25);
    (0..400)
        .filter_map(|_| {
            let row: Vec<u32> = (0..24u32).filter(|_| rng.gen_bool(0.55)).collect();
            (!row.is_empty()).then(|| (row, rng.gen_range(1..3u32)))
        })
        .collect()
}

/// Rows sharing one long run: prefixes of it (rows ending mid-chain),
/// prefixes with divergent tails (chain splits), the whole run extended
/// (suffix attached below a chain) and sparse rows.
fn chain_rows() -> Vec<(Vec<u32>, u32)> {
    let mut rng = StdRng::seed_from_u64(0xC4A1);
    let base: Vec<u32> = (0..40).collect();
    (0..600)
        .map(|_| {
            let row = match rng.gen_range(0..4) {
                0 => base[..rng.gen_range(1..=base.len())].to_vec(),
                1 => {
                    let cut = rng.gen_range(0..base.len());
                    let mut row = base[..cut].to_vec();
                    let mut next = cut as u32 + rng.gen_range(1..20u32);
                    while row.len() < cut + rng.gen_range(1..5usize) && next < 60 {
                        row.push(next);
                        next += rng.gen_range(1..6u32);
                    }
                    if row.is_empty() {
                        vec![0]
                    } else {
                        row
                    }
                }
                2 => {
                    let mut row = base.clone();
                    let mut next = 40u32;
                    for _ in 0..rng.gen_range(1..10) {
                        if next >= 60 {
                            break;
                        }
                        row.push(next);
                        next += rng.gen_range(1..3u32);
                    }
                    row
                }
                _ => {
                    let row: Vec<u32> = (0..60u32).filter(|_| rng.gen_bool(0.15)).collect();
                    if row.is_empty() {
                        vec![rng.gen_range(0..60u32)]
                    } else {
                        row
                    }
                }
            };
            (row, rng.gen_range(1..3u32))
        })
        .collect()
}

/// Hand-placed rows whose weights carry `pcount` across every stored
/// width, plus each way an embedded leaf is unembedded.
fn count_rows() -> Vec<(Vec<u32>, u32)> {
    vec![
        // An embedded root child, unembedded by a sibling to its left.
        (vec![3], 1),
        (vec![1], 1),
        // Node 0 becomes a standard node (its child is 300 away, too far
        // for a chain or an embedded leaf), then ends rows with weights
        // that carry its pcount across 255→256 and 65535→65536.
        (vec![0, 300], 1),
        (vec![0], 254),
        (vec![0], 1),
        (vec![0], 1),
        (vec![0], 65279),
        (vec![0], 1),
        // A standard leaf whose pcount crosses 2^24−1→2^24.
        (vec![0, 300], EMBED_MAX_PCOUNT - 1),
        (vec![0, 300], 1),
        // An embedded leaf unembedded by its pcount, then by a descendant.
        (vec![5], EMBED_MAX_PCOUNT),
        (vec![5], 1),
        (vec![7], 2),
        (vec![7, 8], 1),
        (vec![7, 8, 9], 1),
        // Siblings to the right of 3, then rows descending through the
        // BST to the left and to the right and ending at its nodes.
        (vec![9, 20], 1),
        (vec![12], 1),
        (vec![1, 2], 1),
        (vec![3], 3),
        (vec![12], 256),
        (vec![9, 20, 21, 22], 1),
        (vec![9, 20, 21, 40], 1),
        (vec![9, 20, 21], 1),
    ]
}
