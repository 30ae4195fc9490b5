//! Golden digests of seeded trees: the arena bytes, the node counts and
//! the DFS event stream of every shape in `shapes` are pinned to FNV-1a
//! digests, so a change to how insertion or the DFS reads nodes that
//! moves a single byte, allocation or event fails here.

mod shapes;

use cfp_trace::fnv::{fnv1a, FNV_OFFSET};
use cfp_tree::{CfpTree, DfsEvent, DfsIter};

/// FNV-1a of every DFS event: an `Enter` as `1`, Δitem and pcount
/// (little-endian), a `Leave` as `0`.
fn dfs_digest(tree: &CfpTree) -> u64 {
    DfsIter::new(tree).fold(FNV_OFFSET, |h, ev| match ev {
        DfsEvent::Enter { ditem, pcount } => {
            let h = fnv1a(h, &[1]);
            fnv1a(fnv1a(h, &ditem.to_le_bytes()), &pcount.to_le_bytes())
        }
        DfsEvent::Leave => fnv1a(h, &[0]),
    })
}

/// `(arena digest, logical nodes, live arena bytes, DFS digest)`.
type Fingerprint = (u64, u64, u64, u64);

fn fingerprint(tree: &CfpTree) -> Fingerprint {
    let arena = tree.arena().bytes(0, tree.arena_footprint() as usize);
    (fnv1a(FNV_OFFSET, arena), tree.num_nodes(), tree.arena_used(), dfs_digest(tree))
}

#[test]
fn seeded_trees_keep_their_bytes_and_events() {
    let expected: &[(&str, Fingerprint)] = &[
        ("sparse", (0x0f66_9c40_4b7f_a822, 6925, 43592, 0x8050_590b_7eb4_e26d)),
        ("skewed", (0xb852_8de8_9a04_c1a2, 11485, 42317, 0xcf00_5eb1_a60c_a331)),
        ("chains", (0xc77d_fad0_8473_4afe, 1640, 5661, 0x1456_1870_5abf_e375)),
        ("counts", (0x66fe_07ce_386b_f0db, 15, 116, 0x3063_c94a_b5e1_db83)),
        ("dense", (0x1366_3791_01f5_3593, 3523, 9154, 0x2e0d_1ce6_201a_ef57)),
        ("short-chains-no-embed", (0x063f_6edc_b84c_99d9, 11485, 54218, 0xcf00_5eb1_a60c_a331)),
    ];
    let shapes = shapes::shapes();
    assert_eq!(shapes.len(), expected.len());
    for ((name, tree), (want_name, want)) in shapes.iter().zip(expected) {
        assert_eq!(name, want_name);
        tree.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = fingerprint(tree);
        assert_eq!(got, *want, "{name}: (arena, nodes, used, dfs) = {got:#x?}");
    }
}
