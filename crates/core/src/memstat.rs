//! Assembles the `cfp-memstat/1` space-domain report.
//!
//! The data model lives in [`cfp_trace::memstat`] (so the trace crate
//! can fold summaries into `cfp-profile/5` documents without depending
//! on the mining layers); *assembling* a report needs the pool, the
//! tree, the array, and the analytics passes at once, which only this
//! crate can see. [`collect_memstat`] runs a post-mining analytics pass:
//! it rebuilds the initial CFP-tree and CFP-array from the database —
//! charging the same [`BudgetPool`] the mining run used, so the audit
//! reconciles against live accounting — and measures both structures
//! while they are alive.
//!
//! The FP-tree baseline figures come from a different crate
//! (`cfp-fptree` is not a dependency of `cfp-core`), so callers pass
//! them in as a plain [`FpBaselineBytes`] value; the CLI, the one
//! caller, computes it with `cfp_fptree::analysis::baselines`.

use crate::growth::{try_build_tree_with, ArrayCharge};
use cfp_array::convert;
use cfp_data::{CfpError, TransactionDb};
use cfp_memman::{ArenaOptions, BudgetPool, Component};
use cfp_metrics::HeapSize;
use cfp_trace::hist::{CORE_COND_TREE_BYTES, CORE_PATTERN_BASE_SIZE, CORE_RECURSION_DEPTH};
use cfp_trace::memstat::{
    rss_bytes, Attribution, Audit, ComponentRow, CompressionRow, DistRow, MemStatReport,
    SavingsRow, StructureReport,
};
use cfp_trace::Histogram;

/// Arena capacity slack the audit tolerates: the backing `Vec` grows
/// geometrically (at most doubling), so OS-reserved capacity may exceed
/// carved bytes by a factor of [`SLACK_FACTOR`], plus [`SLACK_FLOOR`]
/// absolute bytes for tiny arenas whose first allocation dominates.
pub const SLACK_FACTOR: u64 = 2;
/// Absolute slack floor in bytes (see [`SLACK_FACTOR`]).
pub const SLACK_FLOOR: u64 = 4096;

/// FP-tree baseline byte figures for the compression table, computed by
/// the caller from `cfp_fptree::analysis::baselines` on the same counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpBaselineBytes {
    /// Logical FP-tree nodes.
    pub nodes: u64,
    /// Exact bytes of the in-memory FP-tree layout (28-byte nodes).
    pub in_memory_bytes: u64,
    /// The paper's §4.2 baseline convention: 40 bytes per node.
    pub paper_bytes: u64,
    /// Estimated bytes of the nonordfp array representation.
    pub nonordfp_bytes: u64,
}

/// Run identification carried into the report header.
#[derive(Clone, Copy, Debug)]
pub struct MemStatRun<'a> {
    /// Dataset path or profile name.
    pub dataset: &'a str,
    /// Algorithm name as selected by the caller.
    pub algorithm: &'a str,
    /// Worker threads (1 = sequential).
    pub threads: u64,
}

/// Builds the full `cfp-memstat/1` report for `db` at `min_support`.
///
/// `pool` should be the pool the mining run charged (its per-component
/// peaks and pool peak then describe the real run); a fresh unlimited
/// pool also works and describes the analytics pass alone. The analytics
/// pass is observational: it never affects mining output (the pool
/// charge is metered but the pool is the caller's — an unlimited pool
/// admits everything).
pub fn collect_memstat(
    db: &TransactionDb,
    min_support: u64,
    run: &MemStatRun<'_>,
    pool: &BudgetPool,
    baselines: Option<FpBaselineBytes>,
) -> Result<MemStatReport, CfpError> {
    // Analytics pass: rebuild the initial structures so they can be
    // measured while alive. Charged to the same components as the real
    // run, so the audit below exercises live accounting.
    let (_recoder, tree) = try_build_tree_with(
        db,
        min_support,
        ArenaOptions { pool: Some(pool.clone()), component: Component::BuildTree },
    )?;
    let tr = cfp_tree::analysis::tree_report(&tree);
    let array = convert(&tree);
    let _charge = ArrayCharge::new(Some(pool.clone()), array.heap_bytes());
    let ar = cfp_array::stats::array_report(&array);

    // Audit while the tree arena and the array charge are both live.
    let snap = pool.snapshot();
    let arena_carved = tree.arena().footprint().saturating_sub(1);
    let arena_reserved = tree.arena().reserved();
    let audit = Audit {
        components_total: snap.components_total(),
        accounted: snap.accounted(),
        reconciled: snap.components_total() == snap.accounted(),
        arena_carved,
        arena_reserved,
        reserved_slack: arena_reserved as f64 / arena_carved.max(1) as f64,
        within_slack: arena_reserved <= SLACK_FACTOR * arena_carved + SLACK_FLOOR,
        rss_bytes: rss_bytes(),
    };
    let attribution = Attribution {
        limit: (snap.limit != u64::MAX).then_some(snap.limit),
        pool_used: snap.used,
        pool_peak: snap.peak,
        external_used: snap.external_used,
        components: snap
            .components
            .iter()
            .map(|&(name, live, peak)| ComponentRow { component: name.into(), live, peak })
            .collect(),
    };

    let transactions = db.len() as u64;
    let per_txn = |bytes: u64| -> f64 {
        if transactions == 0 {
            0.0
        } else {
            bytes as f64 / transactions as f64
        }
    };

    // Per-structure breakdowns. Histogram buckets flatten into detail
    // rows (non-empty buckets only) so distributions survive the JSON
    // round trip without a dedicated schema section per structure.
    let mut tree_detail: Vec<(String, u64)> = vec![
        ("standard_nodes".into(), tr.breakdown.standard),
        ("chain_nodes".into(), tr.breakdown.chain_nodes),
        ("chain_entries".into(), tr.breakdown.chain_entries),
        ("embedded_leaves".into(), tr.breakdown.embedded),
        ("header_bytes".into(), tr.header_bytes),
        ("payload_bytes".into(), tr.field_bytes),
        ("stored_ptr_bytes".into(), 5 * tr.stored_ptr_fields),
        ("encoded_bytes".into(), tr.encoded_bytes),
        ("chunk_rounding_bytes".into(), tr.chunk_rounding),
        ("root_fanout".into(), tr.root_fanout),
    ];
    for (i, &n) in tr.ptr_mask_hist.iter().enumerate() {
        if n > 0 {
            tree_detail.push((format!("ptr_mask_{i}"), n));
        }
    }
    for (len, &n) in tr.chain_len_hist.iter().enumerate() {
        if n > 0 {
            tree_detail.push((format!("chain_len_{len}"), n));
        }
    }
    for (fanout, &n) in tr.fanout_hist.iter().enumerate() {
        if n > 0 {
            let last = tr.fanout_hist.len() - 1;
            let key = if fanout == last {
                format!("fanout_{fanout}plus")
            } else {
                format!("fanout_{fanout}")
            };
            tree_detail.push((key, n));
        }
    }
    let structures = vec![
        StructureReport {
            name: "cfp-tree".into(),
            logical_nodes: tr.logical_nodes(),
            bytes: tr.arena_used,
            bytes_per_node: tr.bytes_per_node(),
            bytes_per_transaction: per_txn(tr.arena_used),
            detail: tree_detail,
        },
        StructureReport {
            name: "cfp-array".into(),
            logical_nodes: ar.num_nodes,
            bytes: ar.total_bytes,
            bytes_per_node: ar.bytes_per_node(),
            bytes_per_transaction: per_txn(ar.total_bytes),
            detail: vec![
                ("data_bytes".into(), ar.data_bytes),
                ("index_bytes".into(), ar.index_bytes),
                ("pair_table_bytes".into(), ar.pair_table_bytes),
                ("ditem_bytes".into(), ar.fields.ditem),
                ("dpos_bytes".into(), ar.fields.dpos),
                ("count_bytes".into(), ar.fields.count),
            ],
        },
    ];

    // Compression table: every representation of the same counts,
    // relative to the in-memory FP-tree baseline.
    let mut compression = Vec::new();
    if let Some(fp) = baselines {
        let ratio = |bytes: u64| -> f64 {
            if fp.in_memory_bytes == 0 {
                0.0
            } else {
                bytes as f64 / fp.in_memory_bytes as f64
            }
        };
        compression.push(CompressionRow {
            representation: "fp-tree".into(),
            bytes: fp.in_memory_bytes,
            ratio_vs_fptree: ratio(fp.in_memory_bytes),
        });
        compression.push(CompressionRow {
            representation: "fp-tree-paper-40b".into(),
            bytes: fp.paper_bytes,
            ratio_vs_fptree: ratio(fp.paper_bytes),
        });
        compression.push(CompressionRow {
            representation: "nonordfp-est".into(),
            bytes: fp.nonordfp_bytes,
            ratio_vs_fptree: ratio(fp.nonordfp_bytes),
        });
        compression.push(CompressionRow {
            representation: "cfp-tree".into(),
            bytes: tr.arena_used,
            ratio_vs_fptree: ratio(tr.arena_used),
        });
        compression.push(CompressionRow {
            representation: "cfp-array".into(),
            bytes: ar.total_bytes,
            ratio_vs_fptree: ratio(ar.total_bytes),
        });
    }

    // The exact-sum savings ladder (see cfp_tree::analysis): positive
    // rows are bytes a trick saved, negative rows are encoding
    // overheads, and the residual is pinned to zero by construction.
    // Chain/embedding memos overlap the suppression rows and sit
    // outside the sum; the array varint row belongs to the CFP-array.
    let savings = vec![
        SavingsRow { name: "naive-baseline".into(), bytes: tr.naive_bytes as i64 },
        SavingsRow { name: "ptr40".into(), bytes: tr.ptr40_saved as i64 },
        SavingsRow { name: "null-suppression".into(), bytes: tr.null_suppression_saved as i64 },
        SavingsRow { name: "zero-suppression".into(), bytes: tr.zero_suppression_saved as i64 },
        SavingsRow { name: "header-overhead".into(), bytes: -(tr.header_bytes as i64) },
        SavingsRow { name: "chunk-rounding-overhead".into(), bytes: -(tr.chunk_rounding as i64) },
        SavingsRow { name: "root-slot-overhead".into(), bytes: -(cfp_memman::MIN_CHUNK as i64) },
        SavingsRow { name: "identity-residual".into(), bytes: tr.identity_residual() },
        SavingsRow { name: "chain-packing-memo".into(), bytes: tr.chain_memo_saved as i64 },
        SavingsRow { name: "embedding-memo".into(), bytes: tr.embed_memo_saved as i64 },
        SavingsRow { name: "array-varint".into(), bytes: ar.varint_saved as i64 },
    ];

    // Mine-phase distributions from the trace registry (empty when the
    // run was not traced — a report without a mining run has zero
    // counts, which consumers treat as "not recorded").
    let dist = |name: &str, h: &Histogram| {
        let s = h.snapshot();
        DistRow {
            name: name.into(),
            count: s.count,
            p50: s.percentile(0.50),
            p95: s.percentile(0.95),
            max: s.max,
        }
    };
    let distributions = vec![
        dist("cond_tree_bytes", &CORE_COND_TREE_BYTES),
        dist("recursion_depth", &CORE_RECURSION_DEPTH),
        dist("pattern_base_size", &CORE_PATTERN_BASE_SIZE),
    ];

    Ok(MemStatReport {
        dataset: run.dataset.to_string(),
        transactions,
        support: min_support,
        algorithm: run.algorithm.to_string(),
        threads: run.threads,
        attribution,
        audit,
        structures,
        compression,
        savings,
        distributions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::profiles;

    fn fp_baselines(db: &TransactionDb, min_support: u64) -> FpBaselineBytes {
        let recoder = cfp_data::ItemRecoder::scan(db, min_support);
        let fp = cfp_fptree::FpTree::from_db(db, &recoder);
        let b = cfp_fptree::analysis::baselines(&fp);
        FpBaselineBytes {
            nodes: b.nodes,
            in_memory_bytes: b.in_memory_bytes,
            paper_bytes: b.paper_bytes,
            nonordfp_bytes: b.nonordfp_bytes,
        }
    }

    #[test]
    fn report_audit_reconciles_and_components_attribute() {
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![1, 2, 4],
            vec![1, 2],
            vec![1, 3],
        ]);
        let pool = BudgetPool::unlimited();
        let run = MemStatRun { dataset: "inline", algorithm: "cfp", threads: 1 };
        let report = collect_memstat(&db, 2, &run, &pool, None).unwrap();
        assert!(report.audit.reconciled, "{:?}", report.audit);
        assert!(report.audit.within_slack, "{:?}", report.audit);
        assert_eq!(report.audit.components_total, report.audit.accounted);
        // The analytics pass is over: nothing is live any more, but the
        // build-tree component recorded its peak.
        assert_eq!(pool.used(), 0);
        assert!(pool.component_peak(Component::BuildTree) > 0);
        assert!(pool.component_peak(Component::CondArrays) > 0);
        // The savings ladder is exact.
        let residual = report.savings.iter().find(|r| r.name == "identity-residual").unwrap().bytes;
        assert_eq!(residual, 0);
        // And the document is valid JSON that reads back as written.
        let text = report.to_json().to_pretty();
        assert_eq!(cfp_trace::json::parse(&text).unwrap(), report.to_json());
    }

    #[test]
    fn compression_table_beats_the_fptree_baseline_on_a_committed_dataset() {
        // The paper-shaped claim, reproduced on a committed dataset
        // profile rather than asserted: the CFP-tree is strictly smaller
        // than the FP-tree built from the same counts.
        let profile = profiles::by_name("retail-like").unwrap();
        let db = profile.generate();
        let min_support = profile.absolute_support(&db, 0);
        let pool = BudgetPool::unlimited();
        let run = MemStatRun { dataset: "retail-like", algorithm: "cfp", threads: 1 };
        let baselines = fp_baselines(&db, min_support);
        let report = collect_memstat(&db, min_support, &run, &pool, Some(baselines)).unwrap();
        let row = |name: &str| {
            report.compression.iter().find(|r| r.representation == name).unwrap_or_else(|| {
                panic!("missing compression row {name}: {:?}", report.compression)
            })
        };
        let fp = row("fp-tree");
        let cfp = row("cfp-tree");
        assert!(fp.bytes > 0 && cfp.bytes > 0);
        assert!(cfp.bytes < fp.bytes, "cfp {} vs fp {}", cfp.bytes, fp.bytes);
        assert!(cfp.ratio_vs_fptree < 1.0);
        assert!((fp.ratio_vs_fptree - 1.0).abs() < 1e-12);
        // The savings are itemized, not asserted: the positive ladder
        // rows sum (net of overheads) to exactly the naive-to-arena gap.
        let s = |name: &str| report.savings.iter().find(|r| r.name == name).unwrap().bytes;
        assert!(s("ptr40") > 0 && s("null-suppression") > 0 && s("zero-suppression") > 0);
        assert_eq!(s("identity-residual"), 0);
    }

    #[test]
    fn empty_database_produces_a_reconciled_report() {
        let db = TransactionDb::from_rows::<Vec<u32>>(&[]);
        let pool = BudgetPool::unlimited();
        let run = MemStatRun { dataset: "empty", algorithm: "cfp", threads: 1 };
        let report = collect_memstat(&db, 1, &run, &pool, None).unwrap();
        assert!(report.audit.reconciled);
        assert_eq!(report.transactions, 0);
        let tree = &report.structures[0];
        assert_eq!(tree.logical_nodes, 0);
        assert_eq!(tree.bytes_per_transaction, 0.0);
    }
}
