//! The versioned space-domain report (`cfp-memstat/1`).
//!
//! `cfp-mine --mem-report out.json` serialises a [`MemStatReport`] —
//! one JSON document answering the questions the
//! paper's memory claims raise: *where did the bytes go* (per-component
//! attribution through the budget pool), *does the accounting reconcile*
//! (the audit section), *how is each structure built* (per-structure
//! node/byte breakdowns), *what did each §2.3 encoding trick save*
//! (itemized savings ladder), and *how does the CFP representation
//! compare against FP-tree baselines built from the same counts* (the
//! compression table).
//!
//! Like `cfp-profile`, the document is self-describing via its `schema`
//! field and hand-rolled on the [`Json`] value type — no dependencies.
//! This module holds only the data model and its writer: no code reads
//! a memstat document, or the [`MemSummary`] block a profile carries,
//! back. `cfp_core::collect_memstat` assembles a report from a live run,
//! and the CLI is its one caller.

use crate::json::Json;

/// Schema identifier of the memstat document layout.
pub const SCHEMA: &str = "cfp-memstat/1";

/// One per-component attribution row: live and high-water bytes a
/// pipeline component holds through the budget pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentRow {
    /// Component label (`"build-tree"`, `"cond-trees"`, ...).
    pub component: String,
    /// Bytes the component holds at capture time.
    pub live: u64,
    /// High-water bytes over the run.
    pub peak: u64,
}

/// The `attribution` section: the budget pool's view of who holds what.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Pool byte limit; `None` for an unlimited pool.
    pub limit: Option<u64>,
    /// Metered bytes reserved at capture time (arena carved bytes).
    pub pool_used: u64,
    /// High-water mark of metered bytes.
    pub pool_peak: u64,
    /// Unmetered bytes charged at capture time (flat buffers tracked
    /// for attribution only — they never affect admission).
    pub external_used: u64,
    /// Per-component rows, in registry order.
    pub components: Vec<ComponentRow>,
}

/// The `audit` section: does the tracked accounting reconcile against
/// the pool, the arena, and (on Linux) the process RSS?
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Audit {
    /// Sum of per-component live bytes.
    pub components_total: u64,
    /// Pool-accounted bytes (`pool_used + external_used`). The audit
    /// requires `components_total == accounted` *exactly*.
    pub accounted: u64,
    /// Whether the exact per-component identity held.
    pub reconciled: bool,
    /// Carved bytes of the audited arena (`footprint() - 1`; the burned
    /// null byte is excluded so this matches the pool reservation).
    pub arena_carved: u64,
    /// Bytes the arena's backing `Vec` has reserved from the OS
    /// allocator. May exceed `arena_carved` by the documented slack
    /// bound (geometric growth reserves at most 2x ahead).
    pub arena_reserved: u64,
    /// `arena_reserved / max(arena_carved, 1)` — must stay within the
    /// slack bound for the audit to pass.
    pub reserved_slack: f64,
    /// Whether `arena_reserved <= slack_bound * arena_carved` (plus a
    /// small absolute floor for tiny arenas).
    pub within_slack: bool,
    /// Process resident-set bytes from `/proc/self/status` (Linux);
    /// informational only — never part of the pass/fail verdict.
    pub rss_bytes: Option<u64>,
}

/// One per-structure report: how many logical nodes a representation
/// holds and what they cost, with free-form named detail rows (node
/// kinds, field bytes, index bytes, ...).
#[derive(Clone, Debug, PartialEq)]
pub struct StructureReport {
    /// Structure name (`"cfp-tree"`, `"cfp-array"`, `"fp-tree"`, ...).
    pub name: String,
    /// Logical FP-tree nodes the structure represents.
    pub logical_nodes: u64,
    /// Total bytes of the structure.
    pub bytes: u64,
    /// `bytes / logical_nodes` (0 when empty).
    pub bytes_per_node: f64,
    /// `bytes / transactions` (0 when unknown).
    pub bytes_per_transaction: f64,
    /// Named detail rows, in display order.
    pub detail: Vec<(String, u64)>,
}

/// One row of the compression-ratio table: a representation built from
/// the same item counts, its bytes, and its size relative to the
/// in-memory FP-tree baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressionRow {
    /// Representation name (`"fp-tree"`, `"cfp-tree"`, ...).
    pub representation: String,
    /// Total bytes of this representation.
    pub bytes: u64,
    /// `bytes / fp-tree bytes` — below 1.0 means smaller than the
    /// baseline.
    pub ratio_vs_fptree: f64,
}

/// One itemized savings row: bytes a single encoding trick avoided (or,
/// for overhead rows, added) relative to a naive pointer-based node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavingsRow {
    /// Trick or overhead name (`"ptr40"`, `"null-suppression"`, ...).
    pub name: String,
    /// Bytes saved (positive) or added (overhead rows).
    pub bytes: i64,
}

/// One mine-phase distribution summary, read from the registry
/// [`Histogram`](crate::Histogram) of the same name: the count and
/// maximum are exact, the percentiles within 6.25% (see [`crate::hist`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DistRow {
    /// Distribution name (`"recursion_depth"`, `"cond_tree_bytes"`,
    /// `"pattern_base_size"`).
    pub name: String,
    /// Recorded samples.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// Largest recorded value.
    pub max: u64,
}

/// Everything `--mem-report` writes about one mining run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemStatReport {
    /// Dataset path or profile name.
    pub dataset: String,
    /// Transactions mined.
    pub transactions: u64,
    /// Absolute minimum support used.
    pub support: u64,
    /// Algorithm name as selected on the command line.
    pub algorithm: String,
    /// Worker threads (1 = sequential).
    pub threads: u64,
    /// The budget pool's attribution section.
    pub attribution: Attribution,
    /// The reconciliation audit.
    pub audit: Audit,
    /// Per-structure breakdowns.
    pub structures: Vec<StructureReport>,
    /// The compression-ratio table vs the FP-tree baseline.
    pub compression: Vec<CompressionRow>,
    /// The itemized savings ladder.
    pub savings: Vec<SavingsRow>,
    /// Mine-phase distribution summaries.
    pub distributions: Vec<DistRow>,
}

/// Compact per-component summary folded into `cfp-profile/5` reports,
/// so a time-domain consumer sees memory without parsing a full memstat
/// document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSummary {
    /// High-water mark of metered pool bytes.
    pub pool_peak: u64,
    /// Whether the attribution audit reconciled exactly.
    pub reconciled: bool,
    /// `(component, peak_bytes)` rows, in registry order.
    pub component_peaks: Vec<(String, u64)>,
}

impl MemSummary {
    /// Serialises the summary block (the profile's `memstat` member).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("pool_peak".into(), Json::u64(self.pool_peak)),
            ("reconciled".into(), Json::Bool(self.reconciled)),
            (
                "component_peaks".into(),
                Json::Obj(
                    self.component_peaks
                        .iter()
                        .map(|(name, peak)| (name.clone(), Json::u64(*peak)))
                        .collect(),
                ),
            ),
        ])
    }
}

impl MemStatReport {
    /// Serialises to the `cfp-memstat/1` JSON document.
    pub fn to_json(&self) -> Json {
        let run = Json::Obj(vec![
            ("dataset".into(), Json::str(self.dataset.clone())),
            ("transactions".into(), Json::u64(self.transactions)),
            ("support".into(), Json::u64(self.support)),
            ("algorithm".into(), Json::str(self.algorithm.clone())),
            ("threads".into(), Json::u64(self.threads)),
        ]);
        let a = &self.attribution;
        let attribution = Json::Obj(vec![
            ("limit".into(), a.limit.map_or(Json::Null, Json::u64)),
            ("pool_used".into(), Json::u64(a.pool_used)),
            ("pool_peak".into(), Json::u64(a.pool_peak)),
            ("external_used".into(), Json::u64(a.external_used)),
            (
                "components".into(),
                Json::Arr(
                    a.components
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("component".into(), Json::str(c.component.clone())),
                                ("live".into(), Json::u64(c.live)),
                                ("peak".into(), Json::u64(c.peak)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let au = &self.audit;
        let audit = Json::Obj(vec![
            ("components_total".into(), Json::u64(au.components_total)),
            ("accounted".into(), Json::u64(au.accounted)),
            ("reconciled".into(), Json::Bool(au.reconciled)),
            ("arena_carved".into(), Json::u64(au.arena_carved)),
            ("arena_reserved".into(), Json::u64(au.arena_reserved)),
            ("reserved_slack".into(), Json::Num(au.reserved_slack)),
            ("within_slack".into(), Json::Bool(au.within_slack)),
            ("rss_bytes".into(), au.rss_bytes.map_or(Json::Null, Json::u64)),
        ]);
        let structures = Json::Arr(
            self.structures
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(s.name.clone())),
                        ("logical_nodes".into(), Json::u64(s.logical_nodes)),
                        ("bytes".into(), Json::u64(s.bytes)),
                        ("bytes_per_node".into(), Json::Num(s.bytes_per_node)),
                        ("bytes_per_transaction".into(), Json::Num(s.bytes_per_transaction)),
                        (
                            "detail".into(),
                            Json::Obj(
                                s.detail.iter().map(|(k, v)| (k.clone(), Json::u64(*v))).collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let compression = Json::Arr(
            self.compression
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("representation".into(), Json::str(r.representation.clone())),
                        ("bytes".into(), Json::u64(r.bytes)),
                        ("ratio_vs_fptree".into(), Json::Num(r.ratio_vs_fptree)),
                    ])
                })
                .collect(),
        );
        let savings = Json::Obj(
            self.savings.iter().map(|r| (r.name.clone(), Json::Num(r.bytes as f64))).collect(),
        );
        let distributions = Json::Obj(
            self.distributions
                .iter()
                .map(|d| {
                    (
                        d.name.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::u64(d.count)),
                            ("p50".into(), Json::u64(d.p50)),
                            ("p95".into(), Json::u64(d.p95)),
                            ("max".into(), Json::u64(d.max)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("run".into(), run),
            ("attribution".into(), attribution),
            ("audit".into(), audit),
            ("structures".into(), structures),
            ("compression".into(), compression),
            ("savings".into(), savings),
            ("distributions".into(), distributions),
        ])
    }

    /// The compact summary folded into profile reports.
    pub fn summary(&self) -> MemSummary {
        MemSummary {
            pool_peak: self.attribution.pool_peak,
            reconciled: self.audit.reconciled,
            component_peaks: self
                .attribution
                .components
                .iter()
                .map(|c| (c.component.clone(), c.peak))
                .collect(),
        }
    }
}

/// Resident-set bytes of the current process from `/proc/self/status`
/// (`VmRSS`). Returns `None` off Linux or when the file is unreadable.
/// Informational only: RSS includes code, stacks, and allocator slack,
/// so the audit never gates on it.
pub fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_report() -> MemStatReport {
        MemStatReport {
            dataset: "retail-like".into(),
            transactions: 1000,
            support: 20,
            algorithm: "cfp".into(),
            threads: 1,
            attribution: Attribution {
                limit: None,
                pool_used: 4096,
                pool_peak: 9000,
                external_used: 512,
                components: vec![
                    ComponentRow { component: "build-tree".into(), live: 4096, peak: 8000 },
                    ComponentRow { component: "cond-arrays".into(), live: 512, peak: 1500 },
                ],
            },
            audit: Audit {
                components_total: 4608,
                accounted: 4608,
                reconciled: true,
                arena_carved: 4096,
                arena_reserved: 8192,
                reserved_slack: 2.0,
                within_slack: true,
                rss_bytes: Some(10 << 20),
            },
            structures: vec![StructureReport {
                name: "cfp-tree".into(),
                logical_nodes: 900,
                bytes: 4096,
                bytes_per_node: 4.55,
                bytes_per_transaction: 4.1,
                detail: vec![("standard".into(), 500), ("embedded".into(), 100)],
            }],
            compression: vec![
                CompressionRow {
                    representation: "fp-tree".into(),
                    bytes: 25200,
                    ratio_vs_fptree: 1.0,
                },
                CompressionRow {
                    representation: "cfp-tree".into(),
                    bytes: 4096,
                    ratio_vs_fptree: 0.16,
                },
            ],
            savings: vec![
                SavingsRow { name: "ptr40".into(), bytes: 8100 },
                SavingsRow { name: "mask-overhead".into(), bytes: -900 },
            ],
            distributions: vec![DistRow {
                name: "recursion_depth".into(),
                count: 120,
                p50: 3,
                p95: 7,
                max: 15,
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report.to_json().to_pretty();
        let doc = json::parse(&text).expect("memstat must be valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc, report.to_json(), "the document parses back to what was written");
        let audit = doc.get("audit").expect("audit section");
        assert_eq!(audit.get("reconciled"), Some(&Json::Bool(true)));
        assert_eq!(audit.get("rss_bytes").and_then(Json::as_u64), Some(10 << 20));
        let savings = doc.get("savings").expect("savings section");
        assert_eq!(savings.get("mask-overhead").and_then(Json::as_f64), Some(-900.0));
    }

    #[test]
    fn summary_extracts_component_peaks() {
        let sum = sample_report().summary();
        assert_eq!(sum.pool_peak, 9000);
        assert!(sum.reconciled);
        assert_eq!(
            sum.component_peaks,
            vec![("build-tree".into(), 8000), ("cond-arrays".into(), 1500)]
        );
    }

    #[test]
    fn rss_bytes_reports_on_linux() {
        #[cfg(target_os = "linux")]
        assert!(rss_bytes().unwrap_or(0) > 0, "a running process has nonzero RSS");
        // Elsewhere: must not panic.
        let _ = rss_bytes();
    }
}
