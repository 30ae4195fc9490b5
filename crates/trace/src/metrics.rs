//! Live metrics export: periodic registry [`Snapshot`]s, serialized as
//! Prometheus text exposition format and as a versioned `cfp-metrics/2`
//! JSONL stream.
//!
//! The [`MetricsExporter`] runs a background thread (same shape as the
//! `--progress` meter): every `--metrics-every` interval it captures a
//! [`MetricsSnapshot`] and
//!
//! * rewrites `<path>` with the full Prometheus exposition via a local
//!   write-to-temp + fsync + rename, so a scraper never observes a torn
//!   file, and
//! * appends one self-contained JSON line to `<path>.jsonl` (schema
//!   [`SCHEMA`]), giving a replayable time series of the whole registry.
//!
//! `cfp-trace` sits at the bottom of the crate graph (it has zero
//! dependencies), so the atomic-write helper here is a deliberate,
//! minimal sibling of `cfp_data::spill::write_atomic` rather than a
//! reuse of it.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::snapshot::Snapshot;

/// Schema tag carried by every JSONL record. `/2` embeds the shared
/// registry [`Snapshot`], adding `phases` and `histograms`.
pub const SCHEMA: &str = "cfp-metrics/2";

/// One numbered, timestamped registry [`Snapshot`].
pub struct MetricsSnapshot {
    /// Monotone sequence number within the exporter's lifetime.
    pub seq: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub at_ms: u64,
    /// The registry at capture time.
    pub snapshot: Snapshot,
}

impl MetricsSnapshot {
    /// Capture the current registry state.
    pub fn capture(seq: u64) -> Self {
        let at_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        MetricsSnapshot { seq, at_ms, snapshot: Snapshot::capture() }
    }

    /// One `cfp-metrics/2` record (callers emit `to_compact()` + `\n`).
    pub fn to_json(&self) -> Json {
        let mut doc = vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("seq".into(), Json::u64(self.seq)),
            ("at_ms".into(), Json::u64(self.at_ms)),
        ];
        doc.extend(self.snapshot.members());
        Json::Obj(doc)
    }

    /// Full Prometheus text exposition. `labels` become the label set of
    /// a constant `cfp_run_info` gauge identifying the run.
    pub fn to_prometheus(&self, labels: &[(String, String)]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP cfp_run_info constant 1; labels identify the run\n");
        out.push_str("# TYPE cfp_run_info gauge\n");
        out.push_str("cfp_run_info{");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&prom_name_part(k));
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push_str("} 1\n");
        out.push_str(&self.snapshot.to_prometheus());
        out
    }
}

/// Registry name → Prometheus metric name: `cfp_` prefix, every
/// non-alphanumeric byte mapped to `_` (`core.mine_task_nanos` →
/// `cfp_core_mine_task_nanos`).
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("cfp_");
    out.push_str(&prom_name_part(name));
    out
}

fn prom_name_part(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Escape a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the two-character sequence), per the text exposition format.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target.
pub(crate) fn write_atomic_small(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name =
        path.file_name().ok_or_else(|| std::io::Error::other("metrics path has no file name"))?;
    let tmp_name = format!(".{}.tmp", file_name.to_string_lossy());
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Background exporter; see the module docs for the file layout.
pub struct MetricsExporter {
    stop: Sender<()>,
    handle: Option<JoinHandle<()>>,
    prom_path: PathBuf,
}

impl MetricsExporter {
    /// Start exporting every `every` to `path` (Prometheus) and
    /// `path.jsonl` (JSONL stream). A final snapshot is always written on
    /// [`stop`](Self::stop), so even sub-interval runs export once.
    pub fn start(path: PathBuf, every: Duration, labels: Vec<(String, String)>) -> Self {
        let (stop, rx) = mpsc::channel::<()>();
        let prom_path = path.clone();
        let handle = std::thread::Builder::new()
            .name("cfp-metrics".into())
            .spawn(move || {
                let jsonl_path = jsonl_path_for(&path);
                let mut seq = 0u64;
                let mut warned = false;
                loop {
                    let stopping = match rx.recv_timeout(every) {
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => true,
                        Err(RecvTimeoutError::Timeout) => false,
                    };
                    seq += 1;
                    let snap = MetricsSnapshot::capture(seq);
                    let prom = snap.to_prometheus(&labels);
                    if let Err(e) = write_atomic_small(&path, prom.as_bytes()) {
                        if !warned {
                            eprintln!(
                                "cfp-trace: metrics export to {} failed: {e}",
                                path.display()
                            );
                            warned = true;
                        }
                    }
                    let line = format!("{}\n", snap.to_json().to_compact());
                    if let Err(e) = append_line(&jsonl_path, line.as_bytes()) {
                        if !warned {
                            eprintln!(
                                "cfp-trace: metrics export to {} failed: {e}",
                                jsonl_path.display()
                            );
                            warned = true;
                        }
                    }
                    if stopping {
                        return;
                    }
                }
            })
            .expect("spawn cfp-metrics thread");
        MetricsExporter { stop, handle: Some(handle), prom_path }
    }

    /// Flush a final snapshot and join the exporter thread.
    pub fn stop(self) -> PathBuf {
        // Dropping `self` on return flushes the snapshot and joins.
        self.prom_path.clone()
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The JSONL companion of a Prometheus export path (`metrics.prom` →
/// `metrics.prom.jsonl`).
pub fn jsonl_path_for(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".jsonl");
    PathBuf::from(s)
}

fn append_line(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = fs::OpenOptions::new().create(true).append(true).open(path)?;
    // One write call per record keeps each line self-contained even if
    // the process dies mid-run; readers skip a torn final line.
    f.write_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("core.mine_task_nanos"), "cfp_core_mine_task_nanos");
        assert_eq!(prom_name("a-b c"), "cfp_a_b_c");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label_value(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label_value("x\ny"), "x\\ny");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn snapshot_json_carries_schema() {
        let snap = MetricsSnapshot::capture(7);
        let doc = snap.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(7));
        let parsed = crate::json::parse(&doc.to_compact()).expect("round-trip");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
    }

    #[test]
    fn prometheus_lines_are_well_formed() {
        let snap = MetricsSnapshot::capture(1);
        let labels = vec![("dataset".to_string(), "a\"b".to_string())];
        let text = snap.to_prometheus(&labels);
        assert!(text.contains("cfp_run_info{dataset=\"a\\\"b\"} 1"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(name.starts_with("cfp_"), "bad name in {line}");
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line}"));
        }
    }
}
