//! One capture of the telemetry registry, embedded by every telemetry
//! document.
//!
//! The run report (`cfp-profile/5`), each metrics record
//! (`cfp-metrics/3`, JSONL and Prometheus text) and the flight
//! recorder's post-mortem (`cfp-blackbox/4`) all carry a [`Snapshot`]:
//! the phase spans, the counter registry and the histogram summaries,
//! read by one [`Snapshot::capture`] and written by
//! [`Snapshot::members`] (JSON) or [`Snapshot::to_prometheus`] (text
//! exposition). The documents differ only in what they wrap around it,
//! so they cannot disagree on a name, a shape or a unit.

use crate::counters;
use crate::hist::{self, HistSummary};
use crate::json::Json;
use crate::metrics::prom_name;
use crate::span::{self, PhaseSpan};

/// A point-in-time copy of every registry metric.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Accumulated spans of every phase, in pipeline order (unentered
    /// phases included, with zero counts).
    pub phases: Vec<PhaseSpan>,
    /// Counters, gauges and max-gauges, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Summaries of the non-empty histograms, sorted by name.
    pub hists: Vec<HistSummary>,
}

impl Snapshot {
    /// Reads the phase spans, the counter registry and the histograms.
    pub fn capture() -> Self {
        Snapshot {
            phases: span::phase_snapshot(),
            counters: counters::snapshot(),
            hists: hist::summaries(),
        }
    }

    /// The value of counter `name`, 0 when the snapshot has none.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|&&(n, _)| n == name).map_or(0, |&(_, v)| v)
    }

    /// The snapshot as the three top-level members every telemetry
    /// document carries: `phases`, `counters` and `hists`.
    pub fn members(&self) -> Vec<(String, Json)> {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".into(), Json::str(p.name)),
                    ("nanos".into(), Json::u64(p.nanos)),
                    ("count".into(), Json::u64(p.count)),
                ])
            })
            .collect();
        let counters =
            self.counters.iter().map(|&(name, v)| (name.to_string(), Json::u64(v))).collect();
        let hists = self
            .hists
            .iter()
            .map(|h| {
                let fields = [
                    ("count", h.count),
                    ("sum", h.sum),
                    ("max", h.max),
                    ("p50", h.p50),
                    ("p90", h.p90),
                    ("p99", h.p99),
                    ("p999", h.p999),
                ];
                let fields = fields.iter().map(|&(k, v)| (k.to_string(), Json::u64(v))).collect();
                (h.name.to_string(), Json::Obj(fields))
            })
            .collect();
        vec![
            ("phases".into(), Json::Arr(phases)),
            ("counters".into(), Json::Obj(counters)),
            ("hists".into(), Json::Obj(hists)),
        ]
    }

    /// The snapshot as Prometheus text exposition samples: phase spans
    /// as `cfp_phase_nanos` / `cfp_phase_spans` with a `phase` label,
    /// counters as gauges, and histograms as summaries with a `_max`
    /// gauge.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (family, spans) in [("cfp_phase_nanos", false), ("cfp_phase_spans", true)] {
            out.push_str(&format!("# TYPE {family} counter\n"));
            for p in &self.phases {
                let value = if spans { p.count } else { p.nanos };
                out.push_str(&format!("{family}{{phase=\"{}\"}} {value}\n", p.name));
            }
        }
        for &(name, value) in &self.counters {
            let pname = prom_name(name);
            out.push_str(&format!("# TYPE {pname} gauge\n{pname} {value}\n"));
        }
        for h in &self.hists {
            let pname = prom_name(h.name);
            out.push_str(&format!("# TYPE {pname} summary\n"));
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99), ("0.999", h.p999)] {
                out.push_str(&format!("{pname}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{pname}_sum {}\n", h.sum));
            out.push_str(&format!("{pname}_count {}\n", h.count));
            out.push_str(&format!("# TYPE {pname}_max gauge\n{pname}_max {}\n", h.max));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            phases: vec![
                PhaseSpan { name: "build", nanos: 2_000, count: 1 },
                PhaseSpan { name: "spill", nanos: 0, count: 0 },
            ],
            counters: vec![("core.patterns_emitted", 13), ("mem.peak_bytes", 4096)],
            hists: vec![
                HistSummary {
                    name: "core.ckpt_commit_nanos",
                    count: 2,
                    sum: 300,
                    max: 200,
                    p50: 100,
                    p90: 200,
                    p99: 200,
                    p999: 200,
                },
                HistSummary {
                    name: "core.recursion_depth",
                    count: 5,
                    sum: 9,
                    max: 3,
                    p50: 2,
                    p90: 3,
                    p99: 3,
                    p999: 3,
                },
            ],
        }
    }

    #[test]
    fn members_carry_every_section_in_order() {
        let doc = Json::Obj(sample().members());
        let phases = doc.get("phases").and_then(Json::as_arr).expect("phases");
        assert_eq!(phases.len(), 2, "unentered phases stay in the document");
        assert_eq!(phases[1].get("count").and_then(Json::as_u64), Some(0));
        let counters = doc.get("counters").expect("counters");
        assert_eq!(counters.get("mem.peak_bytes").and_then(Json::as_u64), Some(4096));
        let commit = doc.get("hists").and_then(|h| h.get("core.ckpt_commit_nanos")).unwrap();
        assert_eq!(commit.get("p90").and_then(Json::as_u64), Some(200));
        let depth = doc.get("hists").and_then(|h| h.get("core.recursion_depth")).unwrap();
        assert_eq!(
            depth.to_compact(),
            r#"{"count":5,"sum":9,"max":3,"p50":2,"p90":3,"p99":3,"p999":3}"#
        );
        let Json::Obj(members) = doc else { unreachable!() };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["phases", "counters", "hists"]);
    }

    #[test]
    fn counter_lookup_defaults_to_zero() {
        let s = sample();
        assert_eq!(s.counter("mem.peak_bytes"), 4096);
        assert_eq!(s.counter("no.such.counter"), 0);
    }

    #[test]
    fn prometheus_text_covers_every_section() {
        let text = sample().to_prometheus();
        for line in [
            "cfp_phase_nanos{phase=\"build\"} 2000",
            "cfp_phase_spans{phase=\"spill\"} 0",
            "cfp_core_patterns_emitted 13",
            "cfp_core_ckpt_commit_nanos{quantile=\"0.9\"} 200",
            "cfp_core_ckpt_commit_nanos_count 2",
            "cfp_core_ckpt_commit_nanos_max 200",
            "# TYPE cfp_core_recursion_depth summary",
            "cfp_core_recursion_depth{quantile=\"0.5\"} 2",
            "cfp_core_recursion_depth_max 3",
        ] {
            assert!(text.lines().any(|l| l == line), "{line} missing from\n{text}");
        }
        assert!(!text.contains("bucket="), "no bucket gauges are exported");
    }
}
