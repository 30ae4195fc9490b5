//! Item-range partitioning of a transaction database for fallback
//! mining under a memory budget.
//!
//! When the monolithic CFP-tree does not fit, Grahne & Zhu's partitioning
//! scheme (PAPERS.md, "Mining Frequent Itemsets from Secondary Memory")
//! still yields *exact* results: split the frequent items — in the global
//! support-descending recode order — into disjoint ranges `[lo, hi)`, and
//! for each range build the projection
//!
//! > `DB_j = { t ∩ items(0..hi) : t ∈ DB, t contains an item in [lo, hi) }`
//!
//! Mining from `DB_j` exactly the itemsets whose *maximum* global-recoded
//! item falls in `[lo, hi)` gives every such itemset its exact global
//! support: a transaction contains the itemset iff it contains the
//! itemset's maximum item (which is in the range, so the transaction is
//! in `DB_j`) and all its other items (all recoded below `hi`, so the
//! projection kept them). Each itemset has exactly one maximum item and
//! therefore belongs to exactly one range — the union over ranges is the
//! exact global result, merged by concatenation.
//!
//! Support mass alone does not size a range. A projection also carries
//! every row's *context* items, the items ranked before the range, so
//! later ranges project far more than their own mass: on the Quest
//! workload of the benchmark (support 400, 1508 frequent items) the
//! equal-mass ranges `[0, 517)` and `[517, 1508)` project 0.64 M and
//! 1.27 M items. [`ranges_by_mass`] only splits a run that has no budget
//! to size against; under a budget a [`Sizer`] estimates each candidate
//! range's tree during the pass that builds the range before it, and
//! hands the cut range's projected supports ([`Sizer::supports`]) to the
//! pass that builds it. [`projected_supports`] counts a range no sizer
//! measured. Neither copies a projection: [`project`] is the definition
//! of `DB_j` that both are tested against.

use crate::count::ItemRecoder;
use crate::types::{Item, TransactionDb};

/// Splits the recoded item domain `[0, num_items)` into `k` contiguous
/// ranges `(lo, hi)` of roughly equal support mass.
///
/// `k` is clamped to `[1, num_items]`; the returned ranges are disjoint,
/// non-empty, and cover the whole domain in order. Returns an empty
/// vector when the recoder holds no frequent items.
pub fn ranges_by_mass(recoder: &ItemRecoder, k: usize) -> Vec<(u32, u32)> {
    let n = recoder.num_items();
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let total: u64 = recoder.supports().iter().sum();
    let mut ranges = Vec::with_capacity(k);
    let mut cum = 0u64;
    let mut lo = 0usize;
    for j in 0..k {
        // Leave at least one item for each of the remaining ranges.
        let max_hi = n - (k - 1 - j);
        let goal = (j as u64 + 1) * total / k as u64;
        cum += recoder.support(lo as u32);
        let mut hi = lo + 1;
        while hi < max_hi && cum < goal {
            cum += recoder.support(hi as u32);
            hi += 1;
        }
        if j == k - 1 {
            hi = n;
        }
        ranges.push((lo as u32, hi as u32));
        lo = hi;
    }
    ranges
}

/// The items of a recoded `row` (ascending, as
/// [`ItemRecoder::recode_transaction`] leaves it) that the projection
/// onto `range` keeps: its items below the range's end, or none when the
/// row holds no item of the range. The kept items are a prefix of the
/// row, and the row enters iff the last of them is in the range.
pub fn kept(row: &[u32], (lo, hi): (u32, u32)) -> &[u32] {
    let kept = row.partition_point(|&i| i < hi);
    if kept == 0 || row[kept - 1] < lo {
        return &[];
    }
    &row[..kept]
}

/// Builds the projection `DB_j` of `db` for the recoded item range
/// `[lo, hi)` under `recoder`'s global order.
///
/// A transaction enters the projection iff it contains a frequent item
/// whose recoded id is in `[lo, hi)`; of its items, those recoded below
/// `hi` are kept (mapped back to *original* ids, so the projection is a
/// self-contained database any miner can run on). Infrequent items are
/// dropped — they cannot appear in any frequent itemset, and any item of
/// a globally frequent itemset is also frequent within the projection
/// (its projected support is at least the itemset's global support).
pub fn project(db: &TransactionDb, recoder: &ItemRecoder, lo: u32, hi: u32) -> TransactionDb {
    let mut out = TransactionDb::new();
    let mut recoded: Vec<u32> = Vec::new();
    let mut items: Vec<Item> = Vec::new();
    for t in db.iter() {
        recoder.recode_transaction(t, &mut recoded);
        items.clear();
        items.extend(kept(&recoded, (lo, hi)).iter().map(|&i| recoder.original(i)));
        if items.is_empty() {
            continue;
        }
        items.sort_unstable();
        out.push(&items);
    }
    out
}

/// The support inside the projection onto `range` of every recoded item
/// below the range's end, indexed by recoded id: one counting pass over
/// `db` that copies nothing, for a range no [`Sizer`] measured.
pub fn projected_supports(
    db: &TransactionDb,
    recoder: &ItemRecoder,
    range: (u32, u32),
) -> Vec<u64> {
    let mut supports = vec![0u64; range.1 as usize];
    let mut recoded = Vec::new();
    for t in db.iter() {
        recoder.recode_transaction(t, &mut recoded);
        for &i in kept(&recoded, range) {
            supports[i as usize] += 1;
        }
    }
    supports
}

/// The order a partitioned run mines its ranges in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Walk {
    /// Ascending item order: the uncut rest of the domain is `(lo, n)`
    /// and the next range is cut from its start.
    Up,
    /// Descending item order (condensed output): the uncut rest is
    /// `(0, hi)` and the next range is cut from its end.
    Down,
}

/// Most candidate ranges one [`Sizer`] estimates.
const CANDIDATES: usize = 64;

/// Registers of each distinct-prefix sketch.
const REGISTERS: usize = 256;

/// One candidate range for the next partition, with its size estimates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The range `(lo, hi)`.
    pub range: (u32, u32),
    /// Its support mass: the summed supports of its items.
    pub mass: u64,
    /// Item occurrences its projection's tree inserts: the range items'
    /// supports plus the occurrences of every context item that stays
    /// frequent inside the projection. Exact, and never below the tree's
    /// node count.
    pub inserted: u64,
    /// Distinct prefixes of its projected rows in recoded order, counted
    /// by a HyperLogLog sketch: one node per prefix when rows share long
    /// prefixes.
    pub prefixes: u64,
}

impl Candidate {
    /// The node estimate: the smaller of the two bounds.
    pub fn nodes(&self) -> u64 {
        self.inserted.min(self.prefixes)
    }
}

/// Sizes the ranges the next partition could cut from the uncut `rest`
/// of the item domain, from the rows of one pass over the database.
///
/// The candidates share `rest`'s first item ([`Walk::Up`]) or last item
/// ([`Walk::Down`]) and grow geometrically in item count, so the cut
/// resolves to a fixed share of a range's length at any scale. Each row
/// *joins* the smallest candidate whose projection takes it and every
/// larger one, found in a per-item table of the smallest candidate
/// holding each item of `rest`. Two tables record the rows by the
/// candidate they join: a context-item × candidate count table, which
/// gives each candidate's inserted items and its context items'
/// projected supports exactly, and one distinct-prefix sketch per
/// candidate, merged by register max into each larger candidate's.
#[derive(Clone, Debug)]
pub struct Sizer {
    walk: Walk,
    rest: (u32, u32),
    min_support: u64,
    /// The candidate ranges, smallest first.
    ranges: Vec<(u32, u32)>,
    /// `smallest[i - rest.0]`: the first candidate holding item `i`.
    smallest: Vec<u8>,
    /// Items below this are context for at least one candidate.
    context: u32,
    /// `counts[c * ranges.len() + k]`: rows joining candidate `k` that
    /// hold context item `c`.
    counts: Vec<u32>,
    /// Per candidate, the registers of the prefixes that join there.
    sketches: Vec<[u8; REGISTERS]>,
}

impl Sizer {
    /// A sizer for the next range cut from `rest` (non-empty), walking in
    /// `walk`'s direction over `recoder`'s items.
    pub fn new(recoder: &ItemRecoder, rest: (u32, u32), walk: Walk) -> Self {
        let (lo, hi) = rest;
        debug_assert!(lo < hi && hi as usize <= recoder.num_items(), "{rest:?}");
        let ranges: Vec<(u32, u32)> = steps(hi - lo)
            .into_iter()
            .map(|d| match walk {
                Walk::Up => (lo, lo + d),
                Walk::Down => (hi - d, hi),
            })
            .collect();
        let context = match walk {
            Walk::Up => lo,
            Walk::Down => hi - 1,
        };
        // Each candidate holds the items of the one before it and the next
        // ones from the cut end: filled in order of distance from that
        // end, then laid out in item order.
        let mut smallest = Vec::with_capacity((hi - lo) as usize);
        for (k, &(start, end)) in ranges.iter().enumerate() {
            smallest.resize((end - start) as usize, k as u8);
        }
        if walk == Walk::Down {
            smallest.reverse();
        }
        Sizer {
            walk,
            rest,
            min_support: recoder.min_support(),
            counts: vec![0; context as usize * ranges.len()],
            sketches: vec![[0; REGISTERS]; ranges.len()],
            ranges,
            smallest,
            context,
        }
    }

    /// The first candidate holding `item`, an item of the rest.
    #[inline]
    fn smallest(&self, item: u32) -> usize {
        usize::from(self.smallest[(item - self.rest.0) as usize])
    }

    /// Records one recoded row (ascending ids, as
    /// [`ItemRecoder::recode_transaction`] leaves it).
    pub fn observe(&mut self, row: &[u32]) {
        let m = self.ranges.len();
        let (lo, hi) = self.rest;
        let kept = row.partition_point(|&i| i < hi);
        match self.walk {
            Walk::Up => {
                // The row joins the first candidate holding its first
                // item of `rest`; items from there on join candidates by
                // their own position.
                let at = row.partition_point(|&i| i < lo);
                if at == kept {
                    return;
                }
                let join = self.smallest(row[at]);
                for &c in &row[..at] {
                    self.counts[c as usize * m + join] += 1;
                }
                let mut h = PREFIX_SEED;
                for &i in &row[..kept] {
                    h = prefix_hash(h, i);
                    let k = if i < lo { join } else { self.smallest(i) };
                    add(&mut self.sketches[k], h);
                }
            }
            Walk::Down => {
                // The row joins the first candidate reaching down to its
                // last item below `hi`, with all of its items below `hi`.
                if kept == 0 || row[kept - 1] < lo {
                    return;
                }
                let join = self.smallest(row[kept - 1]);
                let start = self.ranges[join].0;
                let mut h = PREFIX_SEED;
                for &i in &row[..kept] {
                    if i < start {
                        self.counts[i as usize * m + join] += 1;
                    }
                    h = prefix_hash(h, i);
                    add(&mut self.sketches[join], h);
                }
            }
        }
    }

    /// Records every row of `db`: the sizing pass of a range no
    /// partition's pass precedes.
    pub fn scan(&mut self, db: &TransactionDb, recoder: &ItemRecoder) {
        let mut recoded = Vec::new();
        for t in db.iter() {
            recoder.recode_transaction(t, &mut recoded);
            self.observe(&recoded);
        }
    }

    /// The candidates, smallest first, with their estimates.
    pub fn candidates(&self, recoder: &ItemRecoder) -> Vec<Candidate> {
        let m = self.ranges.len();
        let mut running = vec![0u64; self.context as usize];
        let mut sketch = [0u8; REGISTERS];
        let mut mass = 0u64;
        let mut prev = match self.walk {
            Walk::Up => (self.rest.0, self.rest.0),
            Walk::Down => (self.rest.1, self.rest.1),
        };
        let mut out = Vec::with_capacity(m);
        for (k, &range) in self.ranges.iter().enumerate() {
            let added = match self.walk {
                Walk::Up => prev.1..range.1,
                Walk::Down => range.0..prev.0,
            };
            mass += added.map(|i| recoder.support(i)).sum::<u64>();
            prev = range;
            for (c, total) in running.iter_mut().enumerate() {
                *total += u64::from(self.counts[c * m + k]);
            }
            let context = match self.walk {
                Walk::Up => self.rest.0,
                Walk::Down => range.0,
            };
            let frequent: u64 =
                running[..context as usize].iter().filter(|&&n| n >= self.min_support).sum();
            for (r, &s) in sketch.iter_mut().zip(&self.sketches[k]) {
                *r = (*r).max(s);
            }
            out.push(Candidate {
                range,
                mass,
                inserted: mass + frequent,
                prefixes: estimate(&sketch),
            });
        }
        out
    }

    /// The support inside the projection onto `range`, one of the
    /// candidates, of every recoded item below its end, indexed by
    /// recoded id; `None` for a range that is not a candidate. A context
    /// item's support sums its count table row over the candidates the
    /// range holds, as [`candidates`](Self::candidates) does; a range
    /// item's is its global support, since every row holding it is in
    /// the projection.
    pub fn supports(&self, recoder: &ItemRecoder, range: (u32, u32)) -> Option<Vec<u64>> {
        let k = self.ranges.iter().position(|&r| r == range)?;
        let m = self.ranges.len();
        let mut out: Vec<u64> = self
            .counts
            .chunks_exact(m)
            .take(range.0 as usize)
            .map(|row| row[..=k].iter().map(|&n| u64::from(n)).sum())
            .collect();
        out.extend((range.0..range.1).map(|i| recoder.support(i)));
        Some(out)
    }
}

/// Up to [`CANDIDATES`] strictly increasing offsets in `1..=len`, ending
/// at `len`: every offset while they are small, then a fixed ratio — the
/// smallest of 9/8, 5/4, 3/2 and 2 that reaches `len` in time. Integer
/// arithmetic, so a resumed run cuts where the original did.
fn steps(len: u32) -> Vec<u32> {
    for shift in [3u32, 2, 1, 0] {
        let mut out = Vec::with_capacity(CANDIDATES);
        let mut d = 0u32;
        while d < len && out.len() < CANDIDATES {
            d = d.saturating_add((d >> shift).max(1)).min(len);
            out.push(d);
        }
        if d == len {
            return out;
        }
    }
    unreachable!("doubling reaches any u32 within {CANDIDATES} steps")
}

/// The hash of the empty prefix.
const PREFIX_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// The hash of a prefix extended by `item`: splitmix64's finaliser over
/// the previous prefix's hash and the item.
fn prefix_hash(prefix: u64, item: u32) -> u64 {
    let mut z = prefix ^ (u64::from(item) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adds a hash to a HyperLogLog sketch: the top 8 bits pick the register,
/// which keeps the longest run of leading zeros (plus one) of the rest.
fn add(sketch: &mut [u8; REGISTERS], h: u64) {
    let rank = ((h << 8) | 0x80).leading_zeros() as u8 + 1;
    let r = &mut sketch[(h >> 56) as usize];
    *r = (*r).max(rank);
}

/// The sketch's distinct-count estimate, with linear counting while
/// registers are still empty.
fn estimate(sketch: &[u8; REGISTERS]) -> u64 {
    let m = REGISTERS as f64;
    let sum: f64 = sketch.iter().map(|&r| 1.0 / (1u64 << r) as f64).sum();
    let zeros = sketch.iter().filter(|&&r| r == 0).count();
    let raw = 0.7213 / (1.0 + 1.079 / m) * m * m / sum;
    let e = if raw <= 2.5 * m && zeros > 0 { m * ln(m / zeros as f64) } else { raw };
    (e + 0.5) as u64
}

/// `ln(x)` for `x ≥ 1` in plain arithmetic: halve into `[1, 2)`, then
/// sum the `atanh` series, whose ratio is at most 1/9 there. It keeps
/// libm out of `cfp-mine` (mapping it adds about 0.3 MiB to the resident
/// set of every run) and rounds alike on every platform.
fn ln(mut x: f64) -> f64 {
    let mut halvings = 0u32;
    while x >= 2.0 {
        x /= 2.0;
        halvings += 1;
    }
    let z = (x - 1.0) / (x + 1.0);
    let (mut power, mut sum) = (z, 0.0);
    for k in 0..20 {
        sum += power / f64::from(2 * k + 1);
        power *= z * z;
    }
    f64::from(halvings) * std::f64::consts::LN_2 + 2.0 * sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_supports;

    /// The textbook dataset used across the workspace (items 1..=5).
    fn textbook() -> TransactionDb {
        TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ])
    }

    #[test]
    fn ranges_cover_the_domain_disjointly() {
        let db = textbook();
        let recoder = ItemRecoder::scan(&db, 2);
        let n = recoder.num_items() as u32;
        for k in 1..=n as usize + 3 {
            let ranges = ranges_by_mass(&recoder, k);
            assert_eq!(ranges.len(), k.min(n as usize), "k={k}");
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must tile the domain");
                assert!(w[0].0 < w[0].1, "ranges must be non-empty");
            }
        }
    }

    #[test]
    fn ranges_balance_support_mass() {
        // Heavily skewed supports: one dominant item, many light ones.
        let mut rows = Vec::new();
        for i in 0..40u32 {
            rows.push(vec![0, 100 + i]); // item 0 in every transaction
            rows.push(vec![100 + i]);
        }
        let db = TransactionDb::from_rows(&rows);
        let recoder = ItemRecoder::scan(&db, 2);
        let ranges = ranges_by_mass(&recoder, 2);
        assert_eq!(ranges.len(), 2);
        // Ranges are balanced by mass, not item count: the first range
        // (led by the dominant item) must hold far fewer items than the
        // second, and the two masses must come out nearly equal.
        let mass = |(lo, hi): (u32, u32)| -> u64 { (lo..hi).map(|i| recoder.support(i)).sum() };
        let (m0, m1) = (mass(ranges[0]), mass(ranges[1]));
        assert!(ranges[0].1 - ranges[0].0 < ranges[1].1 - ranges[1].0, "{ranges:?}");
        let max_support = recoder.support(0);
        assert!(m0.abs_diff(m1) <= max_support, "masses {m0} vs {m1} out of balance");
    }

    #[test]
    fn empty_recoder_yields_no_ranges() {
        let db = TransactionDb::from_rows(&[vec![1], vec![2]]);
        let recoder = ItemRecoder::scan(&db, 5); // nothing frequent
        assert!(ranges_by_mass(&recoder, 4).is_empty());
    }

    #[test]
    fn projection_keeps_context_below_hi_and_filters_rows() {
        let db = textbook();
        let recoder = ItemRecoder::scan(&db, 2);
        let n = recoder.num_items() as u32;
        // The last range: rows must contain one of its items; all
        // frequent items are kept as context (hi == n).
        let lo = n - 1;
        let proj = project(&db, &recoder, lo, n);
        let rare_original = recoder.original(n - 1);
        for t in proj.iter() {
            assert!(t.contains(&rare_original), "{t:?} lacks the range item");
        }
        // Every projected transaction is a subset of some original one.
        assert!(proj.len() <= db.len());

        // The first range keeps only items recoded below its hi.
        let (lo0, hi0) = (0u32, 1u32);
        let proj0 = project(&db, &recoder, lo0, hi0);
        let top_original = recoder.original(0);
        for t in proj0.iter() {
            assert_eq!(t, &[top_original], "only the top item fits below hi=1");
        }
        // The top item is in 7 of the 9 textbook transactions (item 2
        // or item 1, both support 7 — whichever recodes first).
        assert_eq!(proj0.len(), 7);
    }

    fn quest(rows: usize) -> TransactionDb {
        crate::quest::generate(&crate::quest::QuestConfig {
            num_transactions: rows,
            num_items: 300,
            num_patterns: 200,
            ..Default::default()
        })
    }

    /// The rests a run sizes: the whole domain (the first range's pass)
    /// and a later one, in both directions.
    fn rests(n: u32) -> [((u32, u32), Walk); 4] {
        [
            ((0, n), Walk::Up),
            ((n / 3, n), Walk::Up),
            ((0, n), Walk::Down),
            ((0, 2 * n / 3), Walk::Down),
        ]
    }

    #[test]
    fn candidates_grow_from_the_cut_end_to_the_whole_rest() {
        for len in [1, 2, 7, 64, 65, 1000, 1508, 100_000, u32::MAX] {
            let d = steps(len);
            assert!(d.len() <= CANDIDATES && d[0] == 1 && *d.last().unwrap() == len, "{len}");
            assert!(d.windows(2).all(|w| w[0] < w[1]), "{len}: {d:?}");
        }
        assert_eq!(steps(16), (1..=16).collect::<Vec<_>>(), "small rests try every end");
        let db = quest(2000);
        let recoder = ItemRecoder::scan(&db, 20);
        let n = recoder.num_items() as u32;
        for (rest, walk) in rests(n) {
            let sizer = Sizer::new(&recoder, rest, walk);
            let ranges: Vec<_> = sizer.candidates(&recoder).iter().map(|c| c.range).collect();
            for w in ranges.windows(2) {
                match walk {
                    Walk::Up => assert!(w[0].0 == rest.0 && w[0].1 < w[1].1, "{ranges:?}"),
                    Walk::Down => assert!(w[0].1 == rest.1 && w[1].0 < w[0].0, "{ranges:?}"),
                }
            }
            assert_eq!(*ranges.last().unwrap(), rest);
        }
    }

    #[test]
    fn plain_ln_matches_the_library_ln() {
        for x in [1.0, 1.5, 2.0, 2.5, 3.0, 7.3, 64.0, 100.0, 255.9, 256.0] {
            let (got, want): (f64, f64) = (ln(x), x.ln());
            assert!((got - want).abs() <= 1e-12 * want.max(1.0), "ln({x}) = {got}, not {want}");
        }
    }

    /// Each candidate's inserted items, and the projected supports the
    /// pass that builds it ranks its items by, equal a count over the
    /// copied projection; so do the supports of a range's own counting
    /// pass.
    #[test]
    fn sized_inserted_items_equal_a_brute_force_count() {
        let db = quest(3000);
        let min_support = 15;
        let recoder = ItemRecoder::scan(&db, min_support);
        let n = recoder.num_items() as u32;
        assert!(n > 100, "{n} frequent items");
        for (rest, walk) in rests(n) {
            let mut sizer = Sizer::new(&recoder, rest, walk);
            sizer.scan(&db, &recoder);
            for c in sizer.candidates(&recoder) {
                let (lo, hi) = c.range;
                let supports = count_supports(&project(&db, &recoder, lo, hi));
                let inserted: u64 = supports.iter().filter(|&&s| s >= min_support).sum();
                assert_eq!(c.inserted, inserted, "{walk:?} {rest:?} candidate {lo}..{hi}");
                let mass: u64 = (lo..hi).map(|i| recoder.support(i)).sum();
                assert_eq!(c.mass, mass);
                assert!(c.nodes() <= c.inserted);
                let recoded: Vec<u64> = (0..hi)
                    .map(|i| supports.get(recoder.original(i) as usize).copied().unwrap_or(0))
                    .collect();
                let sized = sizer.supports(&recoder, c.range);
                assert_eq!(
                    sized.as_ref(),
                    Some(&recoded),
                    "{walk:?} {rest:?} candidate {lo}..{hi}"
                );
                assert_eq!(projected_supports(&db, &recoder, c.range), recoded);
            }
            let beside = match walk {
                Walk::Up => (rest.0 + 1, rest.1),
                Walk::Down => (rest.0, rest.1 - 1),
            };
            assert_eq!(sizer.supports(&recoder, beside), None, "not a candidate");
        }
    }

    #[test]
    fn the_candidate_table_agrees_with_a_search_over_the_candidates() {
        let db = quest(2000);
        let recoder = ItemRecoder::scan(&db, 20);
        let n = recoder.num_items() as u32;
        for (rest, walk) in
            rests(n).into_iter().chain([((n - 5, n), Walk::Up), ((0, 1), Walk::Down)])
        {
            let sizer = Sizer::new(&recoder, rest, walk);
            assert_eq!(sizer.smallest.len(), (rest.1 - rest.0) as usize);
            for i in rest.0..rest.1 {
                let searched = match walk {
                    Walk::Up => sizer.ranges.partition_point(|r| r.1 <= i),
                    Walk::Down => sizer.ranges.partition_point(|r| r.0 > i),
                };
                assert_eq!(sizer.smallest(i), searched, "{walk:?} {rest:?} item {i}");
                let (lo, hi) = sizer.ranges[searched];
                assert!(lo <= i && i < hi, "{walk:?} {rest:?}: {i} outside {lo}..{hi}");
            }
        }
    }

    #[test]
    fn distinct_prefix_estimate_is_within_fifteen_percent() {
        let db = quest(10_000);
        let recoder = ItemRecoder::scan(&db, 40);
        let n = recoder.num_items() as u32;
        let mut recoded = Vec::new();
        for (rest, walk) in rests(n) {
            let mut sizer = Sizer::new(&recoder, rest, walk);
            sizer.scan(&db, &recoder);
            let candidates = sizer.candidates(&recoder);
            // A few candidates across the range of sizes, the whole rest
            // among them.
            for c in candidates.iter().rev().step_by(8) {
                let (lo, hi) = c.range;
                let mut prefixes = std::collections::HashSet::new();
                for t in project(&db, &recoder, lo, hi).iter() {
                    recoder.recode_transaction(t, &mut recoded);
                    for len in 1..=recoded.len() {
                        prefixes.insert(recoded[..len].to_vec());
                    }
                }
                let exact = prefixes.len() as f64;
                let error = (c.prefixes as f64 - exact).abs() / exact;
                assert!(error <= 0.15, "{walk:?} {lo}..{hi}: {} vs {exact}", c.prefixes);
            }
        }
    }

    #[test]
    fn projections_drop_infrequent_items() {
        let db = TransactionDb::from_rows(&[vec![1, 2, 99], vec![1, 2], vec![1, 2]]);
        let recoder = ItemRecoder::scan(&db, 2);
        let n = recoder.num_items() as u32;
        let proj = project(&db, &recoder, 0, n);
        for t in proj.iter() {
            assert!(!t.contains(&99), "infrequent item must not survive projection");
        }
        assert_eq!(proj.len(), 3);
    }
}
