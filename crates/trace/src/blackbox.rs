//! The flight recorder: checksummed `cfp-blackbox/2` post-mortem
//! reports dumped when a run dies.
//!
//! The richest diagnostic state of a failing run — the per-thread event
//! ring buffers, the counter registry, the latency histograms — normally
//! evaporates with the process. When `--blackbox <dir>` is armed, the
//! CLI captures a [`BlackboxReport`] on any error exit (stable exit
//! codes 3–10), on a main-thread panic, or after a recovery-rung
//! escalation fails, and writes it atomically to `<dir>/blackbox.json`.
//!
//! The document embeds the same registry [`Snapshot`] as a run report
//! and is sealed with the workspace's one JSON checksum envelope
//! ([`crate::fnv::seal`]):
//!
//! ```json
//! { "schema": "cfp-blackbox/2", "error": ..., "exit_code": ...,
//!   "context": {...}, "phases": [...], "counters": {...},
//!   "histograms": {...}, "hists": {...}, "memstat": {...}?,
//!   "degradation": {...}?,
//!   "tracks": [ { "name", "tid", "recorded", "dropped",
//!                 "events": [{ "t_nanos", "kind", "detail" }] } ],
//!   "checksum": "fnv1a:<16 hex digits over the other members>" }
//! ```
//!
//! [`load`] verifies the schema and the checksum, and [`render`]
//! pretty-prints a report for `cfp-repro postmortem`.

use std::fs;
use std::path::{Path, PathBuf};

use crate::events::{self, Event, EventKind, TrackDump};
use crate::fnv;
use crate::json::Json;
use crate::memstat::MemSummary;
use crate::snapshot::Snapshot;

/// Schema identifier of the post-mortem document.
pub const SCHEMA: &str = "cfp-blackbox/2";

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
    /// The registry at capture time.
    pub snapshot: Snapshot,
    /// Per-thread ring-buffer dumps, truncated to the newest
    /// [`LAST_EVENTS_PER_TRACK`] events each.
    pub tracks: Vec<TrackDump>,
    /// Space-domain summary, when the run had a metered pool.
    pub memstat: Option<MemSummary>,
    /// The supervisor's recovery report (`RecoveryReport::to_json` in
    /// `cfp-core`), when the supervisor climbed its ladder.
    pub degradation: Option<Json>,
}

impl BlackboxReport {
    /// Drain the live instrumentation state into a report. Stops event
    /// capture first so the drained rings are quiescent.
    pub fn capture(
        error: impl Into<String>,
        exit_code: i64,
        context: Vec<(String, String)>,
        memstat: Option<MemSummary>,
        degradation: Option<Json>,
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
            snapshot: Snapshot::capture(),
            tracks,
            memstat,
            degradation,
        }
    }

    /// The full checksummed document.
    pub fn to_json(&self) -> Json {
        let context = self.context.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect();
        let mut doc = vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("error".into(), Json::str(self.error.clone())),
            ("exit_code".into(), Json::Num(self.exit_code as f64)),
            ("context".into(), Json::Obj(context)),
        ];
        doc.extend(self.snapshot.members());
        if let Some(m) = &self.memstat {
            doc.push(("memstat".into(), m.to_json()));
        }
        if let Some(d) = &self.degradation {
            doc.push(("degradation".into(), d.clone()));
        }
        doc.push(("tracks".into(), Json::Arr(self.tracks.iter().map(track_json).collect())));
        fnv::seal(Json::Obj(doc))
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

/// Verify a parsed document's schema and checksum.
pub fn verify(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unsupported schema {s:?} (expected {SCHEMA:?})")),
        None => return Err("missing schema field".into()),
    }
    fnv::verify(doc)
}

/// Read, parse, and verify a blackbox report file.
pub fn load(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    verify(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.3}ms", nanos as f64 / 1e6)
}

/// Pretty-print a verified report for `cfp-repro postmortem`.
pub fn render(doc: &Json) -> String {
    let mut out = String::new();
    let error = doc.get("error").and_then(Json::as_str).unwrap_or("?");
    let code = doc.get("exit_code").and_then(Json::as_u64).unwrap_or(0);
    out.push_str(&format!("{SCHEMA} post-mortem\n"));
    out.push_str(&format!("error     : {error}\n"));
    out.push_str(&format!("exit code : {code}\n"));

    if let Some(Json::Obj(ctx)) = doc.get("context") {
        for (k, v) in ctx {
            let v = v.as_str().map(String::from).unwrap_or_else(|| v.to_compact());
            out.push_str(&format!("context   : {k} = {v}\n"));
        }
    }

    let count = |p: &Json| p.get("count").and_then(Json::as_u64).unwrap_or(0);
    if let Some(Json::Arr(phases)) = doc.get("phases") {
        if phases.iter().any(|p| count(p) > 0) {
            out.push_str("\nphases:\n");
            for p in phases.iter().filter(|p| count(p) > 0) {
                let name = p.get("name").and_then(Json::as_str).unwrap_or("?");
                let nanos = p.get("nanos").and_then(Json::as_u64).unwrap_or(0);
                out.push_str(&format!("  {name:<10} {:>12}  x{}\n", fmt_ms(nanos), count(p)));
            }
        }
    }

    if let Some(Json::Obj(hists)) = doc.get("hists") {
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

    if let Some(counters) = doc.get("counters") {
        let g = |k: &str| counters.get(k).and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "\nmemory: footprint {} B, peak {} B, pool peak {} B\n",
            g("memman.footprint_bytes"),
            g("memman.peak_footprint_bytes"),
            g("memman.pool_peak_bytes"),
        ));
    }

    if let Some(d) = doc.get("degradation") {
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

    if let Some(Json::Obj(counters)) = doc.get("counters") {
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

    if let Some(Json::Arr(tracks)) = doc.get("tracks") {
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
            snapshot: Snapshot {
                counters: vec![("core.items_mined", 17), ("memman.peak_footprint_bytes", 4096)],
                ..Snapshot::default()
            },
            tracks: vec![],
            memstat: None,
            degradation: None,
        }
    }

    #[test]
    fn round_trip_verifies() {
        let doc = sample_report().to_json();
        let parsed = crate::json::parse(&doc.to_pretty()).expect("parse");
        verify(&parsed).expect("verify");
        assert_eq!(parsed.get("error").and_then(Json::as_str), Some("memory exhausted: test"));
        assert_eq!(parsed.get("exit_code").and_then(Json::as_u64), Some(4));
        let sum = parsed.get("checksum").and_then(Json::as_str).unwrap();
        assert!(sum.starts_with("fnv1a:") && sum.len() == 6 + 16, "{sum}");
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
        verify(&doc).expect("verify");
        let text = render(&doc);
        assert!(text.contains("memory exhausted: test"));
        assert!(text.contains("core.items_mined"));
        assert!(text.contains("cfp-blackbox/2 post-mortem"));
        assert!(text.contains("peak 4096 B"), "memory is read from the counters: {text}");
    }
}
