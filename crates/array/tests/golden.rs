//! Golden digests of converted trees: the data block, the subarray
//! starts, the item supports and any item-pair table of `convert`'s
//! CFP-array for each of the tree crate's seeded shapes are pinned to
//! FNV-1a digests.

#[path = "../../tree/tests/shapes/mod.rs"]
mod shapes;

use cfp_array::{convert, CfpArray};
use cfp_trace::fnv::{fnv1a, FNV_OFFSET};

fn words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()))
}

/// `(data digest, starts digest, supports digest, pair-table digest)`;
/// the last is 0 when the array has no table.
type Fingerprint = (u64, u64, u64, u64);

fn fingerprint(array: &CfpArray) -> Fingerprint {
    let items = 0..array.num_items() as u32;
    let pairs = match array.pair_row(0) {
        Some(_) => words(items.clone().flat_map(|i| array.pair_row(i).unwrap().to_vec())),
        None => 0,
    };
    (
        fnv1a(FNV_OFFSET, array.data()),
        words(array.starts().iter().copied()),
        words(items.map(|i| array.item_support(i))),
        pairs,
    )
}

#[test]
fn seeded_trees_convert_to_the_same_arrays() {
    let expected: &[(&str, Fingerprint)] = &[
        ("sparse", (0xc13a_4ce0_d19e_220b, 0x198f_8871_d4a1_2fa0, 0x9751_da8f_eb9e_bac5, 0)),
        ("skewed", (0x1a76_abb0_788f_eca9, 0x30bc_c136_7331_9ec3, 0x9c2d_8111_f541_6737, 0)),
        ("chains", (0x8f7f_955c_ae3e_704e, 0x9cd2_8a72_d03d_610f, 0x0369_a514_18df_fa22, 0)),
        ("counts", (0xf470_f732_b00e_0bb3, 0x4135_e4e6_2200_a3e7, 0xbb92_4364_67bf_60a6, 0)),
        (
            "dense",
            (
                0x6783_e87b_370b_19c8,
                0x3f67_0b57_d313_0dcb,
                0x9930_928d_1636_e73a,
                0xf074_df29_f36f_5f7a,
            ),
        ),
        (
            "short-chains-no-embed",
            (0x1a76_abb0_788f_eca9, 0x30bc_c136_7331_9ec3, 0x9c2d_8111_f541_6737, 0),
        ),
    ];
    let shapes = shapes::shapes();
    assert_eq!(shapes.len(), expected.len());
    for ((name, tree), (want_name, want)) in shapes.iter().zip(expected) {
        assert_eq!(name, want_name);
        let array = convert(tree);
        assert_eq!(array.num_nodes(), tree.num_nodes(), "{name}");
        let got = fingerprint(&array);
        assert_eq!(got, *want, "{name}: (data, starts, supports, pairs) = {got:#x?}");
    }
}
