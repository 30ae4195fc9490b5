//! The versioned machine-readable run report.
//!
//! `cfp-mine --profile out.json` (and `cfp-bench`'s per-run profiles)
//! serialise a [`RunReport`] — one JSON document per mining run: the run
//! parameters, the registry [`Snapshot`] every telemetry document embeds
//! (phases, counters, bucket histograms, latency summaries), and the
//! memory time series. The document is self-describing via its `schema`
//! field; consumers must check it before reading anything else.

use crate::events::EventsSummary;
use crate::json::Json;
use crate::memstat::MemSummary;
use crate::sampler::Sample;
use crate::snapshot::Snapshot;

/// Schema identifier of the current report layout. `/3` embeds the
/// shared registry [`Snapshot`] (adding the `hists` latency summaries)
/// and drops `memory.peak_bytes`/`memory.final_bytes`, which restated
/// the `mem.peak_bytes`/`mem.current_bytes` counters.
pub const SCHEMA: &str = "cfp-profile/3";

/// Everything `--profile` writes about one mining run.
#[derive(Clone, Debug)]
pub struct RunReport {
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
    /// Mine-phase schedule of a cfp run (`"dynamic"`); absent for
    /// non-cfp algorithms.
    pub schedule: Option<String>,
    /// Frequent itemsets found.
    pub itemsets: u64,
    /// End-to-end wall time of the run in nanoseconds.
    pub wall_nanos: u64,
    /// The registry at the end of the run.
    pub snapshot: Snapshot,
    /// Memory time series (at least two samples: start and stop).
    pub samples: Vec<Sample>,
    /// The supervisor's recovery report (`RecoveryReport::to_json` in
    /// `cfp-core`), present only for runs that climbed the ladder.
    pub degradation: Option<Json>,
    /// Event-timeline summary (usually [`crate::events::summarize`]).
    pub events: Option<EventsSummary>,
    /// Per-component memory summary (usually
    /// [`MemStatReport::summary`](crate::memstat::MemStatReport::summary);
    /// see the `cfp-memstat/1` document for the full space-domain report).
    pub memstat: Option<MemSummary>,
}

impl RunReport {
    /// Snapshots the global registry into a report. Run metadata
    /// (`dataset`, `support`, ...) comes from the caller, which sets the
    /// optional sections (`schedule`, `degradation`, `events`, `memstat`)
    /// it has.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        dataset: impl Into<String>,
        transactions: u64,
        support: u64,
        algorithm: impl Into<String>,
        threads: u64,
        itemsets: u64,
        wall_nanos: u64,
        samples: Vec<Sample>,
    ) -> Self {
        RunReport {
            dataset: dataset.into(),
            transactions,
            support,
            algorithm: algorithm.into(),
            threads,
            itemsets,
            wall_nanos,
            schedule: None,
            snapshot: Snapshot::capture(),
            samples,
            degradation: None,
            events: None,
            memstat: None,
        }
    }

    /// Serialises to the `cfp-profile/3` JSON document.
    pub fn to_json(&self) -> Json {
        let mut run_fields = vec![
            ("dataset".into(), Json::str(self.dataset.clone())),
            ("transactions".into(), Json::u64(self.transactions)),
            ("support".into(), Json::u64(self.support)),
            ("algorithm".into(), Json::str(self.algorithm.clone())),
            ("threads".into(), Json::u64(self.threads)),
        ];
        if let Some(s) = &self.schedule {
            run_fields.push(("schedule".into(), Json::str(s.clone())));
        }
        run_fields.push(("itemsets".into(), Json::u64(self.itemsets)));
        run_fields.push(("wall_nanos".into(), Json::u64(self.wall_nanos)));
        let samples = Json::Arr(
            self.samples
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("at_ms".into(), Json::u64(s.at_ms)),
                        ("mem_current".into(), Json::u64(s.mem_current)),
                        ("mem_peak".into(), Json::u64(s.mem_peak)),
                        ("arena_used".into(), Json::u64(s.arena_used)),
                        ("arena_footprint".into(), Json::u64(s.arena_footprint)),
                    ])
                })
                .collect(),
        );
        let mut doc =
            vec![("schema".into(), Json::str(SCHEMA)), ("run".into(), Json::Obj(run_fields))];
        doc.extend(self.snapshot.members());
        doc.push(("memory".into(), Json::Obj(vec![("samples".into(), samples)])));
        if let Some(m) = &self.memstat {
            doc.push(("memstat".into(), m.to_json()));
        }
        if let Some(e) = &self.events {
            doc.push((
                "events".into(),
                Json::Obj(vec![
                    ("tracks".into(), Json::u64(e.tracks)),
                    ("recorded".into(), Json::u64(e.recorded)),
                    ("dropped_events".into(), Json::u64(e.dropped_events)),
                    (
                        "by_kind".into(),
                        Json::Obj(
                            e.by_kind
                                .iter()
                                .map(|&(name, count)| (name.to_string(), Json::u64(count)))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(d) = &self.degradation {
            doc.push(("degradation".into(), d.clone()));
        }
        Json::Obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample(at_ms: u64, current: u64) -> Sample {
        Sample {
            at_ms,
            mem_current: current,
            mem_peak: current,
            arena_used: current / 2,
            arena_footprint: current,
        }
    }

    #[test]
    fn report_serialises_and_parses_with_schema() {
        let report = RunReport::capture(
            "retail-like",
            30_000,
            240,
            "cfp",
            1,
            9_000,
            1_234_567,
            vec![sample(0, 100), sample(10, 4096)],
        );
        let text = report.to_json().to_pretty();
        let doc = json::parse(&text).expect("report must be valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let run = doc.get("run").expect("run object");
        assert_eq!(run.get("support").and_then(Json::as_u64), Some(240));
        assert_eq!(run.get("algorithm").and_then(Json::as_str), Some("cfp"));
        let phases = doc.get("phases").and_then(Json::as_arr).expect("phases");
        assert_eq!(phases.len(), 7, "one entry per pipeline phase");
        assert_eq!(
            phases[0].get("name").and_then(Json::as_str),
            Some("read"),
            "phases stay in pipeline order"
        );
        let memory = doc.get("memory").expect("memory");
        let samples = memory.get("samples").and_then(Json::as_arr).expect("memory.samples");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].get("arena_footprint").and_then(Json::as_u64), Some(4096));
        assert!(memory.get("peak_bytes").is_none(), "the peak is the mem.peak_bytes counter");
    }

    #[test]
    fn schedule_field_is_absent_by_default_and_round_trips() {
        let base = RunReport::capture("d", 1, 1, "cfp", 4, 0, 1, vec![]);
        let doc = json::parse(&base.to_json().to_compact()).unwrap();
        assert!(doc.get("run").unwrap().get("schedule").is_none());

        let with = RunReport { schedule: Some("dynamic".into()), ..base };
        let doc = json::parse(&with.to_json().to_pretty()).unwrap();
        let run = doc.get("run").expect("run object");
        assert_eq!(run.get("schedule").and_then(Json::as_str), Some("dynamic"));
        assert_eq!(run.get("threads").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn histograms_are_sparse_pairs() {
        crate::counters::TREE_MASK_BYTES.record(0x0F);
        let report = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&report.to_json().to_compact()).unwrap();
        let mask = doc
            .get("histograms")
            .and_then(|h| h.get("tree.mask_bytes"))
            .and_then(Json::as_arr)
            .expect("mask histogram");
        assert!(mask
            .iter()
            .any(|pair| pair.as_arr().map(|p| p[0].as_u64() == Some(0x0F)) == Some(true)));
        crate::counters::TREE_MASK_BYTES.reset();
    }

    #[test]
    fn counters_appear_by_name() {
        let report = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&report.to_json().to_compact()).unwrap();
        let counters = doc.get("counters").expect("counters object");
        assert!(counters.get("memman.allocs").is_some());
        assert!(counters.get("core.conditional_trees").is_some());
        assert!(doc.get("hists").is_some(), "latency summaries ride along");
    }

    #[test]
    fn events_section_is_absent_by_default_and_round_trips() {
        let base = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&base.to_json().to_compact()).unwrap();
        assert!(doc.get("events").is_none(), "no events block unless attached");

        let events = EventsSummary {
            tracks: 4,
            recorded: 1000,
            dropped_events: 12,
            by_kind: vec![("phase_begin", 6), ("task_claim", 982)],
        };
        let with = RunReport { events: Some(events), ..base };
        let doc = json::parse(&with.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("cfp-profile/3"));
        let events = doc.get("events").expect("events section");
        assert_eq!(events.get("tracks").and_then(Json::as_u64), Some(4));
        assert_eq!(events.get("dropped_events").and_then(Json::as_u64), Some(12));
        let by_kind = events.get("by_kind").expect("by_kind map");
        assert_eq!(by_kind.get("task_claim").and_then(Json::as_u64), Some(982));
    }

    #[test]
    fn memstat_section_is_absent_by_default_and_round_trips() {
        let base = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&base.to_json().to_compact()).unwrap();
        assert!(doc.get("memstat").is_none(), "no memstat block unless attached");

        let memstat = MemSummary {
            pool_peak: 62213,
            reconciled: true,
            component_peaks: vec![("build-tree".into(), 50000), ("cond-trees".into(), 9000)],
        };
        let with = RunReport { memstat: Some(memstat), ..base };
        let doc = json::parse(&with.to_json().to_pretty()).unwrap();
        let m = doc.get("memstat").expect("memstat section");
        assert_eq!(m.get("pool_peak").and_then(Json::as_u64), Some(62213));
        assert_eq!(m.get("reconciled"), Some(&Json::Bool(true)));
        let peaks = m.get("component_peaks").expect("component_peaks map");
        assert_eq!(peaks.get("cond-trees").and_then(Json::as_u64), Some(9000));
    }

    #[test]
    fn degradation_section_is_absent_by_default_and_round_trips() {
        let base = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&base.to_json().to_compact()).unwrap();
        assert!(doc.get("degradation").is_none(), "healthy runs carry no degradation");

        let section = Json::Obj(vec![
            ("policy".into(), Json::str("partition")),
            ("recovered".into(), Json::Bool(true)),
        ]);
        let degraded = RunReport { degradation: Some(section.clone()), ..base };
        let doc = json::parse(&degraded.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("degradation"), Some(&section), "embedded as given");
    }
}
