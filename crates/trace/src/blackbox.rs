//! The flight recorder: checksummed `cfp-blackbox/1` post-mortem
//! reports dumped when a run dies.
//!
//! The richest diagnostic state of a failing run — the per-thread event
//! ring buffers, the counter registry, the latency histograms — normally
//! evaporates with the process. When `--blackbox <dir>` is armed, the
//! CLI captures a [`BlackboxReport`] on any error exit (stable exit
//! codes 3–10), on a main-thread panic, or after a recovery-rung
//! escalation fails, and writes it atomically to `<dir>/blackbox.json`.
//!
//! The document is self-describing and tamper-evident:
//!
//! ```json
//! { "schema": "cfp-blackbox/1",
//!   "checksum": "fnv1a64:<16 hex digits over the compact body>",
//!   "body": { "error": ..., "exit_code": ..., "context": {...},
//!             "phases": [...], "counters": {...}, "hists": {...},
//!             "memory": {...}, "memstat": {...}?, "degradation": {...}?,
//!             "tracks": [ { "name", "tid", "recorded", "dropped",
//!                           "events": [{ "t_nanos", "kind", "detail" }] } ] } }
//! ```
//!
//! [`load`] verifies the checksum by re-serializing the body compactly,
//! and [`render`] pretty-prints a report for `cfp-repro postmortem`.

use std::fs;
use std::path::{Path, PathBuf};

use crate::counters;
use crate::events::{self, Event, EventKind, TrackDump};
use crate::fnv::{fnv1a, FNV_OFFSET};
use crate::hist::{self, HistSummary};
use crate::json::Json;
use crate::memstat::MemSummary;
use crate::report::DegradationReport;
use crate::span::{self, PhaseSpan};

/// Schema identifier of the post-mortem document.
pub const SCHEMA: &str = "cfp-blackbox/1";

/// Events kept per track: the newest `LAST_EVENTS_PER_TRACK` survive
/// into the report (the rings already drop oldest-first, this just
/// bounds the document size for huge ring capacities).
pub const LAST_EVENTS_PER_TRACK: usize = 256;

/// Everything the flight recorder captures about a dying run.
pub struct BlackboxReport {
    /// The error chain as the user would have seen it on stderr.
    pub error: String,
    /// Stable exit code the process is about to die with.
    pub exit_code: i64,
    /// Run identity: dataset, algorithm, threads, support, ...
    pub context: Vec<(String, String)>,
    /// Accumulated phase spans at capture time.
    pub phases: Vec<PhaseSpan>,
    /// Full counter/gauge registry.
    pub counters: Vec<(&'static str, u64)>,
    /// Non-empty latency histogram summaries.
    pub hists: Vec<HistSummary>,
    /// Per-thread ring-buffer dumps, truncated to the newest
    /// [`LAST_EVENTS_PER_TRACK`] events each.
    pub tracks: Vec<TrackDump>,
    /// Space-domain summary, when the run had a metered pool.
    pub memstat: Option<MemSummary>,
    /// Recovery-ladder activity, when the supervisor ran.
    pub degradation: Option<DegradationReport>,
}

impl BlackboxReport {
    /// Drain the live instrumentation state into a report. Stops event
    /// capture first so the drained rings are quiescent.
    pub fn capture(
        error: impl Into<String>,
        exit_code: i64,
        context: Vec<(String, String)>,
        memstat: Option<MemSummary>,
        degradation: Option<DegradationReport>,
    ) -> Self {
        events::set_capture(false);
        let mut tracks = events::drain();
        for t in &mut tracks {
            if t.events.len() > LAST_EVENTS_PER_TRACK {
                let skip = t.events.len() - LAST_EVENTS_PER_TRACK;
                t.events.drain(..skip);
            }
        }
        BlackboxReport {
            error: error.into(),
            exit_code,
            context,
            phases: span::phase_snapshot(),
            counters: counters::snapshot(),
            hists: hist::summaries(),
            tracks,
            memstat,
            degradation,
        }
    }

    fn body_json(&self) -> Json {
        let context = self.context.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect();
        let phases = self
            .phases
            .iter()
            .filter(|p| p.count > 0)
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
                (
                    h.name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::u64(h.count)),
                        ("sum".into(), Json::u64(h.sum)),
                        ("max".into(), Json::u64(h.max)),
                        ("p50".into(), Json::u64(h.p50)),
                        ("p90".into(), Json::u64(h.p90)),
                        ("p99".into(), Json::u64(h.p99)),
                        ("p999".into(), Json::u64(h.p999)),
                    ]),
                )
            })
            .collect();
        let lookup = |name: &str| {
            self.counters.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
        };
        let memory = Json::Obj(vec![
            ("footprint_bytes".into(), Json::u64(lookup("memman.footprint_bytes"))),
            ("peak_bytes".into(), Json::u64(lookup("memman.peak_footprint_bytes"))),
            ("pool_peak_bytes".into(), Json::u64(lookup("memman.pool_peak_bytes"))),
        ]);
        let tracks = self.tracks.iter().map(track_json).collect();

        let mut body = vec![
            ("error".into(), Json::str(self.error.clone())),
            ("exit_code".into(), Json::Num(self.exit_code as f64)),
            ("context".into(), Json::Obj(context)),
            ("phases".into(), Json::Arr(phases)),
            ("counters".into(), Json::Obj(counters)),
            ("hists".into(), Json::Obj(hists)),
            ("memory".into(), memory),
        ];
        if let Some(m) = &self.memstat {
            body.push(("memstat".into(), m.to_json()));
        }
        if let Some(d) = &self.degradation {
            body.push(("degradation".into(), degradation_json(d)));
        }
        body.push(("tracks".into(), Json::Arr(tracks)));
        Json::Obj(body)
    }

    /// The full checksummed document.
    pub fn to_json(&self) -> Json {
        let body = self.body_json();
        let sum = fnv1a(FNV_OFFSET, body.to_compact().as_bytes());
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("checksum".into(), Json::str(format!("fnv1a64:{sum:016x}"))),
            ("body".into(), body),
        ])
    }

    /// Atomically write the report to `dir/blackbox.json`, creating
    /// `dir` if needed. Returns the report path.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join("blackbox.json");
        let text = format!("{}\n", self.to_json().to_pretty());
        crate::metrics::write_atomic_small(&path, text.as_bytes())?;
        Ok(path)
    }
}

fn track_json(t: &TrackDump) -> Json {
    let events = t
        .events
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("t_nanos".into(), Json::u64(e.t_nanos)),
                ("kind".into(), Json::str(e.kind.name())),
                ("detail".into(), Json::str(event_detail(e))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::str(t.name.clone())),
        ("tid".into(), Json::u64(t.tid as u64)),
        ("recorded".into(), Json::u64(t.recorded)),
        ("dropped".into(), Json::u64(t.dropped)),
        ("events".into(), Json::Arr(events)),
    ])
}

fn degradation_json(d: &DegradationReport) -> Json {
    let rungs = d
        .rungs
        .iter()
        .map(|r| {
            let mut o = vec![
                ("rung".into(), Json::str(r.rung.clone())),
                ("succeeded".into(), Json::Bool(r.succeeded)),
                ("reclaimed_bytes".into(), Json::u64(r.reclaimed_bytes)),
                ("partitions".into(), Json::u64(r.partitions)),
            ];
            if let Some(e) = &r.error {
                o.push(("error".into(), Json::str(e.clone())));
            }
            Json::Obj(o)
        })
        .collect();
    Json::Obj(vec![
        ("policy".into(), Json::str(d.policy.clone())),
        ("recovered".into(), Json::Bool(d.recovered)),
        ("final_partitions".into(), Json::u64(d.final_partitions)),
        ("rungs".into(), Json::Arr(rungs)),
    ])
}

/// Human-readable one-liner for an event, used in the report and the
/// postmortem rendering.
fn event_detail(e: &Event) -> String {
    match e.kind {
        EventKind::PhaseBegin(p) => format!("enter {}", p.name()),
        EventKind::PhaseEnd(p) => format!("exit {}", p.name()),
        EventKind::TaskClaim { item, cost, stolen } => {
            format!("item {item} cost {cost}{}", if stolen { " (stolen)" } else { "" })
        }
        EventKind::RecEnter { item, depth, pattern_base } => {
            format!("item {item} depth {depth} base {pattern_base}")
        }
        EventKind::RecExit { item } => format!("item {item}"),
        EventKind::ArenaPressure { requested } => format!("requested {requested} B"),
        EventKind::ArenaCompact { reclaimed } => format!("reclaimed {reclaimed} B"),
        EventKind::ArenaReset => String::new(),
        EventKind::RecoveryRung(r) => r.name().to_string(),
        EventKind::BufferSwap { rows } => format!("{rows} rows"),
        EventKind::SpillIo { bytes, write } => {
            format!("{} {bytes} B", if write { "write" } else { "read" })
        }
    }
}

/// Verify a parsed document's schema and checksum; returns the `body`
/// on success.
pub fn verify(doc: &Json) -> Result<&Json, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unsupported schema {s:?} (expected {SCHEMA:?})")),
        None => return Err("missing schema field".into()),
    }
    let declared = doc.get("checksum").and_then(Json::as_str).ok_or("missing checksum field")?;
    let body = doc.get("body").ok_or("missing body field")?;
    let actual = format!("fnv1a64:{:016x}", fnv1a(FNV_OFFSET, body.to_compact().as_bytes()));
    if declared != actual {
        return Err(format!(
            "checksum mismatch: document says {declared}, body hashes to {actual}"
        ));
    }
    Ok(body)
}

/// Read, parse, and verify a blackbox report file; returns the body.
pub fn load(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let body = verify(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(body.clone())
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.3}ms", nanos as f64 / 1e6)
}

/// Pretty-print a verified report body for `cfp-repro postmortem`.
pub fn render(body: &Json) -> String {
    let mut out = String::new();
    let error = body.get("error").and_then(Json::as_str).unwrap_or("?");
    let code = body.get("exit_code").and_then(Json::as_u64).unwrap_or(0);
    out.push_str(&format!("{SCHEMA} post-mortem\n"));
    out.push_str(&format!("error     : {error}\n"));
    out.push_str(&format!("exit code : {code}\n"));

    if let Some(Json::Obj(ctx)) = body.get("context") {
        for (k, v) in ctx {
            let v = v.as_str().map(String::from).unwrap_or_else(|| v.to_compact());
            out.push_str(&format!("context   : {k} = {v}\n"));
        }
    }

    if let Some(Json::Arr(phases)) = body.get("phases") {
        if !phases.is_empty() {
            out.push_str("\nphases:\n");
            for p in phases {
                let name = p.get("name").and_then(Json::as_str).unwrap_or("?");
                let nanos = p.get("nanos").and_then(Json::as_u64).unwrap_or(0);
                let count = p.get("count").and_then(Json::as_u64).unwrap_or(0);
                out.push_str(&format!("  {name:<10} {:>12}  x{count}\n", fmt_ms(nanos)));
            }
        }
    }

    if let Some(Json::Obj(hists)) = body.get("hists") {
        if !hists.is_empty() {
            out.push_str("\nlatency histograms (nanos):\n");
            for (name, h) in hists {
                let g = |k: &str| h.get(k).and_then(Json::as_u64).unwrap_or(0);
                out.push_str(&format!(
                    "  {name:<26} n={:<8} p50={:<10} p99={:<10} p99.9={:<10} max={}\n",
                    g("count"),
                    g("p50"),
                    g("p99"),
                    g("p999"),
                    g("max"),
                ));
            }
        }
    }

    if let Some(mem) = body.get("memory") {
        let g = |k: &str| mem.get(k).and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "\nmemory: footprint {} B, peak {} B, pool peak {} B\n",
            g("footprint_bytes"),
            g("peak_bytes"),
            g("pool_peak_bytes"),
        ));
    }

    if let Some(d) = body.get("degradation") {
        let policy = d.get("policy").and_then(Json::as_str).unwrap_or("?");
        let recovered = matches!(d.get("recovered"), Some(Json::Bool(true)));
        out.push_str(&format!("\ndegradation: policy {policy}, recovered: {recovered}\n"));
        if let Some(Json::Arr(rungs)) = d.get("rungs") {
            for r in rungs {
                let name = r.get("rung").and_then(Json::as_str).unwrap_or("?");
                let ok = matches!(r.get("succeeded"), Some(Json::Bool(true)));
                let err = r.get("error").and_then(Json::as_str).unwrap_or("");
                out.push_str(&format!(
                    "  rung {name:<10} {}{}{}\n",
                    if ok { "succeeded" } else { "failed" },
                    if err.is_empty() { "" } else { ": " },
                    err
                ));
            }
        }
    }

    if let Some(Json::Obj(counters)) = body.get("counters") {
        let nonzero: Vec<_> =
            counters.iter().filter(|(_, v)| v.as_u64().unwrap_or(0) != 0).collect();
        if nonzero.is_empty() {
            // A crash before the first increment is itself a finding —
            // say so rather than dropping the section.
            out.push_str(&format!(
                "\ncounters (non-zero): none of {} registered\n",
                counters.len()
            ));
        } else {
            out.push_str("\ncounters (non-zero):\n");
            for (name, v) in nonzero {
                out.push_str(&format!("  {name:<28} {}\n", v.as_u64().unwrap_or(0)));
            }
        }
    }

    if let Some(Json::Arr(tracks)) = body.get("tracks") {
        for t in tracks {
            let name = t.get("name").and_then(Json::as_str).unwrap_or("?");
            let recorded = t.get("recorded").and_then(Json::as_u64).unwrap_or(0);
            let dropped = t.get("dropped").and_then(Json::as_u64).unwrap_or(0);
            let events = match t.get("events") {
                Some(Json::Arr(e)) => e.as_slice(),
                _ => &[],
            };
            out.push_str(&format!(
                "\ntrack {name} (recorded {recorded}, dropped {dropped}; last {} events):\n",
                events.len()
            ));
            for e in events {
                let t_nanos = e.get("t_nanos").and_then(Json::as_u64).unwrap_or(0);
                let kind = e.get("kind").and_then(Json::as_str).unwrap_or("?");
                let detail = e.get("detail").and_then(Json::as_str).unwrap_or("");
                out.push_str(&format!("  +{:>14} {kind:<14} {detail}\n", fmt_ms(t_nanos)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BlackboxReport {
        BlackboxReport {
            error: "memory exhausted: test".into(),
            exit_code: 4,
            context: vec![("dataset".into(), "baskets.dat".into())],
            phases: vec![],
            counters: vec![("core.items_mined", 17)],
            hists: vec![],
            tracks: vec![],
            memstat: None,
            degradation: None,
        }
    }

    #[test]
    fn round_trip_verifies() {
        let doc = sample_report().to_json();
        let parsed = crate::json::parse(&doc.to_pretty()).expect("parse");
        let body = verify(&parsed).expect("verify");
        assert_eq!(body.get("error").and_then(Json::as_str), Some("memory exhausted: test"));
        assert_eq!(body.get("exit_code").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn tampering_breaks_the_checksum() {
        let doc = sample_report().to_json();
        let tampered = doc.to_pretty().replace("\"exit_code\": 4", "\"exit_code\": 5");
        let parsed = crate::json::parse(&tampered).expect("parse");
        let err = verify(&parsed).expect_err("tamper must fail");
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn render_mentions_the_error_and_counters() {
        let doc = sample_report().to_json();
        let body = verify(&doc).expect("verify");
        let text = render(body);
        assert!(text.contains("memory exhausted: test"));
        assert!(text.contains("core.items_mined"));
        assert!(text.contains("cfp-blackbox/1 post-mortem"));
    }
}
