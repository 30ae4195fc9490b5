//! Benchmark snapshots and regression comparison.
//!
//! `cfp-repro bench` distils a traced run ([`crate::report::profile_run`])
//! into a small `cfp-bench/1` JSON document — phase wall times, peak
//! bytes, steal count, itemsets — written as `results/BENCH_<name>.json`.
//! `cfp-repro compare old.json new.json` diffs two such snapshots and
//! exits non-zero when the candidate regressed past a percentage
//! threshold, so CI can keep a baseline file and catch performance
//! regressions without any external tooling.

use cfp_trace::json::{self, Json};
use cfp_trace::{MemSummary, RunReport};
use std::path::Path;

/// Schema identifier of the snapshot layout.
pub const SCHEMA: &str = "cfp-bench/1";

/// Phases shorter than this in the baseline are skipped by [`compare`]:
/// their relative timing is scheduler noise, not signal.
pub const PHASE_FLOOR_NANOS: u64 = 1_000_000;

/// One benchmark run, reduced to the numbers worth diffing.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSnapshot {
    /// Benchmark name (also names the `BENCH_<name>.json` file).
    pub name: String,
    /// Dataset profile the benchmark mined.
    pub dataset: String,
    /// Absolute minimum support.
    pub min_support: u64,
    /// Worker threads.
    pub threads: u64,
    /// Frequent itemsets found — a correctness check, not a perf number.
    pub itemsets: u64,
    /// End-to-end wall time.
    pub wall_nanos: u64,
    /// Accumulated `(phase, nanos)` wall times, in pipeline order.
    pub phases: Vec<(String, u64)>,
    /// Peak tracked bytes.
    pub peak_bytes: u64,
    /// Dynamic-schedule steals during the mine phase.
    pub steals: u64,
    /// Condensed-mode pruning counters (`core.closed_pruned`,
    /// `core.maximal_pruned`, `core.topk_pruned`), present only when the
    /// run pruned anything — all-itemsets benchmarks (and snapshots
    /// taken before this field existed) omit the block entirely.
    pub pruning: Vec<(String, u64)>,
    /// Per-component memory attribution (absent in snapshots taken
    /// before the memstat report existed — old files must keep parsing).
    pub memstat: Option<MemSummary>,
}

/// The pruning counters a snapshot pins, in registry order.
const PRUNING_COUNTERS: [&str; 3] =
    ["core.closed_pruned", "core.maximal_pruned", "core.topk_pruned"];

impl BenchSnapshot {
    /// Reduces a traced run report to a snapshot.
    pub fn from_report(name: &str, report: &RunReport) -> Self {
        let registry = &report.snapshot;
        let mut pruning: Vec<(String, u64)> =
            PRUNING_COUNTERS.iter().map(|&n| (n.to_string(), registry.counter(n))).collect();
        if pruning.iter().all(|&(_, v)| v == 0) {
            pruning.clear();
        }
        BenchSnapshot {
            name: name.to_string(),
            dataset: report.dataset.clone(),
            min_support: report.support,
            threads: report.threads,
            itemsets: report.itemsets,
            wall_nanos: report.wall_nanos,
            phases: registry.phases.iter().map(|p| (p.name.to_string(), p.nanos)).collect(),
            peak_bytes: registry.counter("mem.peak_bytes"),
            steals: registry.counter("core.tasks_stolen"),
            pruning,
            memstat: report.memstat.clone(),
        }
    }

    /// Attaches a memory-attribution summary (builder style).
    pub fn with_memstat(mut self, summary: MemSummary) -> Self {
        self.memstat = Some(summary);
        self
    }

    /// Serialises to the `cfp-bench/1` JSON document.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("name".into(), Json::str(self.name.clone())),
            ("dataset".into(), Json::str(self.dataset.clone())),
            ("min_support".into(), Json::u64(self.min_support)),
            ("threads".into(), Json::u64(self.threads)),
            ("itemsets".into(), Json::u64(self.itemsets)),
            ("wall_nanos".into(), Json::u64(self.wall_nanos)),
            (
                "phases".into(),
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|(name, nanos)| (name.clone(), Json::u64(*nanos)))
                        .collect(),
                ),
            ),
            ("peak_bytes".into(), Json::u64(self.peak_bytes)),
            ("steals".into(), Json::u64(self.steals)),
        ];
        if !self.pruning.is_empty() {
            fields.push((
                "pruning".into(),
                Json::Obj(
                    self.pruning.iter().map(|(name, v)| (name.clone(), Json::u64(*v))).collect(),
                ),
            ));
        }
        if let Some(m) = &self.memstat {
            fields.push(("memstat".into(), m.to_json()));
        }
        Json::Obj(fields)
    }

    /// Parses a snapshot document, checking the schema first.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("<missing>");
        if schema != SCHEMA {
            return Err(format!("unsupported snapshot schema {schema:?} (want {SCHEMA:?})"));
        }
        let str_field = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("snapshot field {name:?} missing or not a string"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("snapshot field {name:?} missing or not an integer"))
        };
        let phases = match doc.get("phases") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|nanos| (name.clone(), nanos))
                        .ok_or_else(|| format!("phase {name:?} is not an integer"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("snapshot field \"phases\" missing or not an object".into()),
        };
        // Optional, like memstat: absent in all-itemsets runs and in
        // snapshots written before condensed mining existed.
        let pruning = match doc.get("pruning") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|n| (name.clone(), n))
                        .ok_or_else(|| format!("pruning counter {name:?} is not an integer"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        Ok(BenchSnapshot {
            name: str_field("name")?,
            dataset: str_field("dataset")?,
            min_support: u64_field("min_support")?,
            threads: u64_field("threads")?,
            itemsets: u64_field("itemsets")?,
            wall_nanos: u64_field("wall_nanos")?,
            phases,
            peak_bytes: u64_field("peak_bytes")?,
            steals: u64_field("steals")?,
            pruning,
            memstat: doc.get("memstat").map(MemSummary::from_json),
        })
    }

    /// Loads and parses a snapshot file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&doc)
    }
}

/// One metric's change between two snapshots, produced by [`compare`].
#[derive(Clone, Debug)]
pub struct Delta {
    /// Metric name (`"wall_nanos"`, `"peak_bytes"`, `"phase mine"`, ...).
    pub metric: String,
    /// Baseline value.
    pub baseline: u64,
    /// Candidate value.
    pub candidate: u64,
    /// Signed percentage change relative to the baseline.
    pub change_pct: f64,
    /// Whether the change exceeds the caller's regression threshold.
    pub regressed: bool,
}

fn delta(metric: &str, baseline: u64, candidate: u64, threshold_pct: f64) -> Delta {
    let change_pct = if baseline == 0 {
        if candidate == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (candidate as f64 - baseline as f64) / baseline as f64 * 100.0
    };
    Delta {
        metric: metric.to_string(),
        baseline,
        candidate,
        change_pct,
        regressed: change_pct > threshold_pct,
    }
}

/// Diffs `candidate` against `baseline`: wall time, peak bytes, and every
/// phase at least [`PHASE_FLOOR_NANOS`] long in the baseline, each flagged
/// when it grew more than `threshold_pct` percent. An itemsets mismatch is
/// always flagged — a benchmark that mines a different result is not
/// comparable, it is broken.
///
/// When both snapshots carry a memstat summary, the pool peak and every
/// baseline component peak are diffed too, so a memory regression in one
/// component fails CI even if the total stays flat. A candidate whose
/// audit did not reconcile is always flagged — its numbers cannot be
/// trusted. Snapshots without memstat (pre-attribution files) skip the
/// memory deltas rather than erroring.
pub fn compare(
    baseline: &BenchSnapshot,
    candidate: &BenchSnapshot,
    threshold_pct: f64,
) -> Vec<Delta> {
    let mut deltas = Vec::new();
    let mut itemsets = delta("itemsets", baseline.itemsets, candidate.itemsets, threshold_pct);
    itemsets.regressed = baseline.itemsets != candidate.itemsets;
    deltas.push(itemsets);
    deltas.push(delta("wall_nanos", baseline.wall_nanos, candidate.wall_nanos, threshold_pct));
    deltas.push(delta("peak_bytes", baseline.peak_bytes, candidate.peak_bytes, threshold_pct));
    for (name, base_nanos) in &baseline.phases {
        if *base_nanos < PHASE_FLOOR_NANOS {
            continue;
        }
        let cand_nanos =
            candidate.phases.iter().find(|(n, _)| n == name).map(|&(_, nanos)| nanos).unwrap_or(0);
        deltas.push(delta(&format!("phase {name}"), *base_nanos, cand_nanos, threshold_pct));
    }
    // Pruning counters are correctness numbers like itemsets: for the same
    // dataset and mode the miner must prune the same sets, so any drift is
    // flagged regardless of the percentage threshold. Snapshots without
    // the block (all-itemsets runs, pre-condensed baselines) skip these
    // rows entirely.
    if !baseline.pruning.is_empty() && !candidate.pruning.is_empty() {
        for (name, base_pruned) in &baseline.pruning {
            let cand_pruned =
                candidate.pruning.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0);
            let mut row = delta(&format!("pruning {name}"), *base_pruned, cand_pruned, 0.0);
            row.regressed = *base_pruned != cand_pruned;
            deltas.push(row);
        }
    }
    if let (Some(base_mem), Some(cand_mem)) = (&baseline.memstat, &candidate.memstat) {
        deltas.push(delta("mem pool_peak", base_mem.pool_peak, cand_mem.pool_peak, threshold_pct));
        for (name, base_peak) in &base_mem.component_peaks {
            let cand_peak = cand_mem
                .component_peaks
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, peak)| peak)
                .unwrap_or(0);
            deltas.push(delta(&format!("mem {name}"), *base_peak, cand_peak, threshold_pct));
        }
        if !cand_mem.reconciled {
            deltas.push(Delta {
                metric: "mem reconciled".into(),
                baseline: base_mem.reconciled as u64,
                candidate: 0,
                change_pct: -100.0,
                regressed: true,
            });
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_trace::Snapshot;

    fn snapshot(wall: u64, peak: u64, mine_nanos: u64) -> BenchSnapshot {
        BenchSnapshot {
            name: "quest1-seq".into(),
            dataset: "quest1".into(),
            min_support: 40,
            threads: 1,
            itemsets: 1234,
            wall_nanos: wall,
            phases: vec![
                ("read".into(), 0),
                ("build".into(), 30_000_000),
                ("mine".into(), mine_nanos),
            ],
            peak_bytes: peak,
            steals: 0,
            pruning: vec![],
            memstat: None,
        }
    }

    fn pruning(closed: u64, maximal: u64, topk: u64) -> Vec<(String, u64)> {
        vec![
            ("core.closed_pruned".into(), closed),
            ("core.maximal_pruned".into(), maximal),
            ("core.topk_pruned".into(), topk),
        ]
    }

    fn mem(pool_peak: u64, tree_peak: u64, arrays_peak: u64) -> MemSummary {
        MemSummary {
            pool_peak,
            reconciled: true,
            component_peaks: vec![
                ("build-tree".into(), tree_peak),
                ("cond-arrays".into(), arrays_peak),
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = snapshot(100_000_000, 5 << 20, 60_000_000);
        let text = snap.to_json().to_pretty();
        let parsed = BenchSnapshot::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn snapshot_with_memstat_round_trips_and_emits_the_block() {
        let snap = snapshot(100_000_000, 5 << 20, 60_000_000).with_memstat(mem(9000, 8000, 1500));
        let text = snap.to_json().to_pretty();
        assert!(text.contains("\"memstat\""), "{text}");
        let parsed = BenchSnapshot::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, snap);
        // A snapshot without the summary omits the key entirely.
        let bare = snapshot(1, 1, 1).to_json().to_pretty();
        assert!(!bare.contains("memstat"), "{bare}");
    }

    #[test]
    fn unknown_fields_and_absent_memstat_are_tolerated() {
        // Forward compatibility: a snapshot written by a newer build with
        // extra fields — or an older one without memstat — must parse.
        let mut doc = snapshot(100, 200, 300).to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.push(("future_field".into(), Json::str("ignored")));
            fields.push(("another".into(), Json::Obj(vec![("x".into(), Json::u64(1))])));
        }
        let parsed = BenchSnapshot::from_json(&doc).unwrap();
        assert_eq!(parsed, snapshot(100, 200, 300));
        assert_eq!(parsed.memstat, None);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc = json::parse(r#"{"schema": "cfp-bench/9"}"#).unwrap();
        let err = BenchSnapshot::from_json(&doc).unwrap_err();
        assert!(err.contains("cfp-bench/9"), "{err}");
    }

    #[test]
    fn identical_snapshots_do_not_regress() {
        let snap = snapshot(100_000_000, 5 << 20, 60_000_000);
        assert!(compare(&snap, &snap, 10.0).iter().all(|d| !d.regressed));
    }

    #[test]
    fn slowdown_past_the_threshold_regresses() {
        let base = snapshot(100_000_000, 5 << 20, 60_000_000);
        let slow = snapshot(150_000_000, 5 << 20, 95_000_000);
        let deltas = compare(&base, &slow, 25.0);
        let wall = deltas.iter().find(|d| d.metric == "wall_nanos").unwrap();
        assert!(wall.regressed, "{wall:?}");
        assert!((wall.change_pct - 50.0).abs() < 1e-9);
        let mine = deltas.iter().find(|d| d.metric == "phase mine").unwrap();
        assert!(mine.regressed, "{mine:?}");
        // Improvements and in-threshold moves pass.
        assert!(compare(&base, &snapshot(110_000_000, 5 << 20, 62_000_000), 25.0)
            .iter()
            .all(|d| !d.regressed));
        assert!(compare(&slow, &base, 25.0).iter().all(|d| !d.regressed), "speedup flagged");
    }

    #[test]
    fn component_memory_regression_is_flagged() {
        let base = snapshot(100, 100, 100).with_memstat(mem(9000, 8000, 1000));
        // Total pool peak flat, but one component doubled: still flagged.
        let mut grown = base.clone();
        grown.memstat = Some(mem(9000, 8000, 2500));
        let deltas = compare(&base, &grown, 25.0);
        let arrays = deltas.iter().find(|d| d.metric == "mem cond-arrays").unwrap();
        assert!(arrays.regressed, "{arrays:?}");
        let pool = deltas.iter().find(|d| d.metric == "mem pool_peak").unwrap();
        assert!(!pool.regressed, "{pool:?}");
        // In-threshold memory moves pass.
        let mut ok = base.clone();
        ok.memstat = Some(mem(9100, 8100, 1100));
        assert!(compare(&base, &ok, 25.0).iter().all(|d| !d.regressed));
    }

    #[test]
    fn unreconciled_candidate_always_regresses() {
        let base = snapshot(100, 100, 100).with_memstat(mem(9000, 8000, 1000));
        let mut broken = base.clone();
        if let Some(m) = &mut broken.memstat {
            m.reconciled = false;
        }
        let deltas = compare(&base, &broken, 1_000_000.0);
        assert!(deltas.iter().any(|d| d.metric == "mem reconciled" && d.regressed), "{deltas:?}");
    }

    #[test]
    fn memoryless_snapshots_skip_memory_deltas() {
        // An old baseline without memstat compares cleanly against a new
        // candidate that has one (and vice versa) — no memory rows.
        let old = snapshot(100, 100, 100);
        let new = snapshot(100, 100, 100).with_memstat(mem(9000, 8000, 1000));
        for (a, b) in [(&old, &new), (&new, &old)] {
            let deltas = compare(a, b, 25.0);
            assert!(deltas.iter().all(|d| !d.metric.starts_with("mem ")), "{deltas:?}");
            assert!(deltas.iter().all(|d| !d.regressed));
        }
    }

    #[test]
    fn pruning_counters_round_trip_and_are_omitted_when_empty() {
        let mut snap = snapshot(100, 200, 300);
        snap.pruning = pruning(42, 7, 0);
        let text = snap.to_json().to_pretty();
        assert!(text.contains("\"pruning\""), "{text}");
        assert!(text.contains("core.closed_pruned"), "{text}");
        let parsed = BenchSnapshot::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, snap);
        // An all-itemsets snapshot omits the block, and a document without
        // it (an old baseline) parses back to the empty vec.
        let bare = snapshot(100, 200, 300);
        let bare_text = bare.to_json().to_pretty();
        assert!(!bare_text.contains("pruning"), "{bare_text}");
        let reparsed = BenchSnapshot::from_json(&json::parse(&bare_text).unwrap()).unwrap();
        assert!(reparsed.pruning.is_empty());
    }

    #[test]
    fn from_report_surfaces_nonzero_pruning_counters() {
        let mut report = RunReport {
            dataset: "kosarak-like".into(),
            transactions: 1000,
            support: 8,
            algorithm: "cfp-growth-closed".into(),
            threads: 1,
            schedule: None,
            itemsets: 77,
            wall_nanos: 5_000,
            snapshot: Snapshot {
                counters: vec![("core.closed_pruned", 55), ("core.patterns", 77)],
                ..Snapshot::default()
            },
            samples: vec![],
            degradation: None,
            events: None,
            memstat: None,
        };
        let snap = BenchSnapshot::from_report("kosarak-closed", &report);
        assert_eq!(snap.pruning, pruning(55, 0, 0));
        // All-zero pruning (an all-itemsets run) keeps the block out.
        report.snapshot.counters = vec![("core.patterns", 77)];
        let bare = BenchSnapshot::from_report("kosarak-seq", &report);
        assert!(bare.pruning.is_empty());
    }

    #[test]
    fn pruning_drift_always_regresses() {
        let mut base = snapshot(100, 100, 100);
        base.pruning = pruning(42, 0, 0);
        let mut drifted = base.clone();
        drifted.pruning = pruning(41, 0, 0);
        let deltas = compare(&base, &drifted, 1_000_000.0);
        let row = deltas.iter().find(|d| d.metric == "pruning core.closed_pruned").unwrap();
        assert!(row.regressed, "{row:?}");
        // Identical pruning passes, and snapshots without the block skip
        // the rows entirely (old baseline vs new candidate).
        assert!(compare(&base, &base, 10.0).iter().all(|d| !d.regressed));
        let old = snapshot(100, 100, 100);
        let deltas = compare(&old, &base, 10.0);
        assert!(deltas.iter().all(|d| !d.metric.starts_with("pruning ")), "{deltas:?}");
    }

    #[test]
    fn itemsets_mismatch_always_regresses() {
        let base = snapshot(100, 100, 100);
        let mut wrong = base.clone();
        wrong.itemsets += 1;
        let deltas = compare(&base, &wrong, 1_000_000.0);
        assert!(deltas.iter().any(|d| d.metric == "itemsets" && d.regressed));
    }

    #[test]
    fn sub_floor_phases_are_ignored() {
        let base = snapshot(100_000_000, 5 << 20, 60_000_000);
        let mut noisy = base.clone();
        // "read" is 0ns in the baseline: even a huge relative change in a
        // sub-millisecond phase must not flag.
        noisy.phases[0].1 = 900_000;
        let deltas = compare(&base, &noisy, 10.0);
        assert!(!deltas.iter().any(|d| d.metric == "phase read"), "{deltas:?}");
    }

    #[test]
    fn from_report_extracts_steals_from_the_counters() {
        // Built as a literal rather than via RunReport::capture so this
        // test does not touch the global counter registry (which other
        // tests in this binary reset concurrently).
        let report = RunReport {
            dataset: "kosarak-like".into(),
            transactions: 1000,
            support: 8,
            algorithm: "cfp-growth-parallel".into(),
            threads: 4,
            schedule: Some("dynamic".into()),
            itemsets: 77,
            wall_nanos: 5_000,
            snapshot: Snapshot {
                phases: vec![cfp_trace::span::PhaseSpan { name: "mine", nanos: 4_000, count: 4 }],
                counters: vec![
                    ("core.tasks_stolen", 2),
                    ("core.workers", 4),
                    ("mem.peak_bytes", 9_000),
                ],
                ..Snapshot::default()
            },
            samples: vec![],
            degradation: None,
            events: None,
            memstat: None,
        };
        let snap = BenchSnapshot::from_report("kosarak-par4", &report);
        assert_eq!(snap.steals, 2);
        assert_eq!(snap.itemsets, 77);
        assert_eq!(snap.threads, 4);
        assert_eq!(snap.phases, vec![("mine".to_string(), 4_000)]);
        assert_eq!(snap.peak_bytes, 9_000, "the peak is the mem.peak_bytes counter");
        assert!(snap.pruning.is_empty());
    }
}
