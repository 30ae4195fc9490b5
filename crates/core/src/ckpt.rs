//! Versioned checkpoint manifests for crash-safe resume.
//!
//! A checkpointed run periodically commits a tiny `cfp-ckpt/1` manifest
//! describing an exact watermark of its output stream: how many resume
//! units (top-level items for a monolithic run, partitions for an
//! out-of-core one) are fully emitted, and how many output bytes the
//! current run segment produced up to that watermark. Because CFP-growth
//! emits top-level items in a deterministic order (descending recoded
//! item id; spill partitions in queue order), truncating the output file
//! to the recorded byte count and re-running with the completed units
//! skipped yields a byte stream identical to an uninterrupted run.
//!
//! The manifest is hand-rolled JSON (the workspace builds without
//! network access, so no serde) written through
//! [`cfp_data::spill::write_atomic`] — tmp → fsync → rename — and
//! sealed with the workspace's JSON checksum envelope
//! ([`cfp_trace::fnv::seal`]: a `checksum` member, FNV-1a over the
//! compact serialisation of the other members), so a torn or
//! bit-flipped manifest is *rejected with a structured error*
//! ([`CfpError::Checkpoint`]), never trusted and never a panic. A
//! config fingerprint (input path, minimum support, and an FNV over the
//! support-ordered item counts) guards against resuming one dataset's
//! watermark into a different run.

use cfp_data::spill::write_atomic;
use cfp_data::{CfpError, ItemRecoder};
use cfp_trace::fnv::{self, fnv1a, FNV_OFFSET};
use cfp_trace::json::{parse, Json};
use std::path::{Path, PathBuf};

/// The manifest format tag; bump on any incompatible schema change.
pub const FORMAT: &str = "cfp-ckpt/1";

/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "ckpt.json";

/// Where a run's manifest lives under its checkpoint directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

/// The resumable position recorded by a manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptProgress {
    /// Monolithic mining: `items_done` top-level items fully emitted
    /// (items `n-1, n-2, …, n-items_done` in recoded order).
    Mono {
        /// Completed top-level items.
        items_done: u64,
    },
    /// Out-of-core mining: `parts_done` spill partitions fully emitted;
    /// `remaining` holds the unmined `(lo, hi)` recoded item ranges in
    /// the exact order the spill rung will process them.
    Spill {
        /// Completed spill partitions.
        parts_done: u64,
        /// Unmined ranges, in processing order.
        remaining: Vec<(u32, u32)>,
    },
}

impl CkptProgress {
    /// The manifest spelling of this mode.
    pub fn mode(&self) -> &'static str {
        match self {
            CkptProgress::Mono { .. } => "mono",
            CkptProgress::Spill { .. } => "spill",
        }
    }

    /// Completed resume units, whatever the mode.
    pub fn done(&self) -> u64 {
        match self {
            CkptProgress::Mono { items_done } => *items_done,
            CkptProgress::Spill { parts_done, .. } => *parts_done,
        }
    }
}

/// One committed checkpoint: config fingerprint + output watermark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The input path of the checkpointed run, as given on its command
    /// line (fingerprint, compared verbatim on resume).
    pub input: String,
    /// The run's minimum support (fingerprint).
    pub min_support: u64,
    /// FNV-1a fingerprint over the support-ordered item counts — see
    /// [`counts_fingerprint`]. Catches a changed input file even when
    /// its path did not change.
    pub counts: String,
    /// Frequent items after recoding (informational; implied by
    /// `counts`).
    pub num_items: u64,
    /// The run's output mode spelling (`all`, `closed`, `maximal`,
    /// `topk:N`) — a fingerprint: condensed modes carry reconcile state
    /// that is not captured by the watermark, so a resume must mine the
    /// same mode it checkpointed under.
    pub output: String,
    /// The resumable position.
    pub progress: CkptProgress,
    /// Output bytes durably written at the watermark, *cumulative*
    /// across all resume segments appended to the same output file.
    /// Recovery truncates the output file to exactly this length before
    /// re-running with `--resume`.
    pub output_bytes: u64,
    /// Itemsets emitted at the watermark, cumulative across segments
    /// (informational).
    pub itemsets: u64,
}

/// Fingerprints a scan result: FNV-1a over the item count followed by
/// every support in recoded order and its original item id. Two runs
/// see the same fingerprint iff the frequent-item universe — and hence
/// the whole deterministic emission order — is identical.
pub fn counts_fingerprint(recoder: &ItemRecoder) -> String {
    let mut bytes = Vec::with_capacity(8 + recoder.num_items() * 12);
    bytes.extend_from_slice(&(recoder.num_items() as u64).to_le_bytes());
    for (new, &support) in recoder.supports().iter().enumerate() {
        bytes.extend_from_slice(&support.to_le_bytes());
        bytes.extend_from_slice(&recoder.original(new as u32).to_le_bytes());
    }
    format!("fnv1a:{:016x}", fnv1a(FNV_OFFSET, &bytes))
}

fn ckpt_err(path: &Path, message: impl Into<String>) -> CfpError {
    CfpError::Checkpoint { path: path.display().to_string(), message: message.into() }
}

impl Manifest {
    /// The manifest as JSON, before it is sealed.
    fn body(&self) -> Json {
        let progress = match &self.progress {
            CkptProgress::Mono { items_done } => Json::Obj(vec![
                ("mode".into(), Json::str("mono")),
                ("items_done".into(), Json::u64(*items_done)),
            ]),
            CkptProgress::Spill { parts_done, remaining } => Json::Obj(vec![
                ("mode".into(), Json::str("spill")),
                ("parts_done".into(), Json::u64(*parts_done)),
                (
                    "remaining".into(),
                    Json::Arr(
                        remaining
                            .iter()
                            .map(|&(lo, hi)| {
                                Json::Arr(vec![Json::u64(lo as u64), Json::u64(hi as u64)])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        Json::Obj(vec![
            ("format".into(), Json::str(FORMAT)),
            (
                "config".into(),
                Json::Obj(vec![
                    ("input".into(), Json::str(&self.input)),
                    ("min_support".into(), Json::u64(self.min_support)),
                    ("counts".into(), Json::str(&self.counts)),
                    ("num_items".into(), Json::u64(self.num_items)),
                    ("output".into(), Json::str(&self.output)),
                ]),
            ),
            ("progress".into(), progress),
            ("output_bytes".into(), Json::u64(self.output_bytes)),
            ("itemsets".into(), Json::u64(self.itemsets)),
        ])
    }

    /// The manifest as checksummed JSON text, ready to write.
    pub fn to_json_text(&self) -> String {
        fnv::seal(self.body()).to_pretty()
    }

    fn from_json(doc: &Json, path: &Path) -> Result<Manifest, CfpError> {
        let err = |m: &str| ckpt_err(path, m);
        // Verify the checksum first: a manifest that fails it may lie
        // about anything else.
        fnv::verify(doc).map_err(|e| err(&format!("{e} (torn or corrupted manifest)")))?;
        let format = doc.get("format").and_then(Json::as_str).unwrap_or("");
        if format != FORMAT {
            return Err(err(&format!("unsupported format '{format}' (expected '{FORMAT}')")));
        }
        let config = doc.get("config").ok_or_else(|| err("missing config member"))?;
        let input = config
            .get("input")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing config.input"))?
            .to_string();
        let min_support = config
            .get("min_support")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("missing config.min_support"))?;
        let counts = config
            .get("counts")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing config.counts"))?
            .to_string();
        let num_items = config
            .get("num_items")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("missing config.num_items"))?;
        // Manifests written before the output-mode fingerprint existed
        // could only have come from full-output runs.
        let output = config.get("output").and_then(Json::as_str).unwrap_or("all").to_string();
        let prog = doc.get("progress").ok_or_else(|| err("missing progress member"))?;
        let progress = match prog.get("mode").and_then(Json::as_str) {
            Some("mono") => CkptProgress::Mono {
                items_done: prog
                    .get("items_done")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| err("missing progress.items_done"))?,
            },
            Some("spill") => {
                let parts_done = prog
                    .get("parts_done")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| err("missing progress.parts_done"))?;
                let ranges = prog
                    .get("remaining")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| err("missing progress.remaining"))?;
                let mut remaining = Vec::with_capacity(ranges.len());
                for r in ranges {
                    let pair = r.as_arr().filter(|p| p.len() == 2);
                    let (lo, hi) = match pair {
                        Some(p) => (p[0].as_u64(), p[1].as_u64()),
                        None => (None, None),
                    };
                    match (lo, hi) {
                        (Some(lo), Some(hi)) if lo < hi && hi <= u32::MAX as u64 => {
                            remaining.push((lo as u32, hi as u32));
                        }
                        _ => return Err(err("malformed progress.remaining range")),
                    }
                }
                CkptProgress::Spill { parts_done, remaining }
            }
            _ => return Err(err("missing or unknown progress.mode")),
        };
        let output_bytes = doc
            .get("output_bytes")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("missing output_bytes"))?;
        let itemsets =
            doc.get("itemsets").and_then(Json::as_u64).ok_or_else(|| err("missing itemsets"))?;
        Ok(Manifest {
            input,
            min_support,
            counts,
            num_items,
            output,
            progress,
            output_bytes,
            itemsets,
        })
    }

    /// Rejects a resume whose current run does not match the manifest's
    /// config fingerprint. `input` and `min_support` come from the
    /// command line; `counts` from [`counts_fingerprint`] over the fresh
    /// scan.
    pub fn ensure_matches(
        &self,
        dir: &Path,
        input: &str,
        min_support: u64,
        counts: &str,
        output: &str,
    ) -> Result<(), CfpError> {
        let path = manifest_path(dir);
        if self.input != input {
            return Err(ckpt_err(
                &path,
                format!("input mismatch: checkpointed '{}', resuming '{input}'", self.input),
            ));
        }
        if self.min_support != min_support {
            return Err(ckpt_err(
                &path,
                format!(
                    "min_support mismatch: checkpointed {}, resuming {min_support}",
                    self.min_support
                ),
            ));
        }
        if self.counts != counts {
            return Err(ckpt_err(
                &path,
                format!(
                    "item-count fingerprint mismatch: checkpointed {}, input now scans to \
                     {counts} (the input file changed)",
                    self.counts
                ),
            ));
        }
        if self.output != output {
            return Err(ckpt_err(
                &path,
                format!(
                    "output mismatch: checkpointed --output={}, resuming --output={output}",
                    self.output
                ),
            ));
        }
        Ok(())
    }
}

/// Commits `manifest` into `dir` crash-safely (tmp → fsync → rename via
/// [`write_atomic`]) and returns its byte size. The `core.ckpt.write`
/// failpoint injects a permanent write failure here.
pub fn save(dir: &Path, manifest: &Manifest) -> Result<u64, CfpError> {
    let _t = cfp_trace::hist::timer(&cfp_trace::hist::CORE_CKPT_COMMIT_NANOS);
    let path = manifest_path(dir);
    if cfp_fault::should_fail("core.ckpt.write") {
        return Err(ckpt_err(
            &path,
            "injected checkpoint write failure (failpoint core.ckpt.write)",
        ));
    }
    let text = manifest.to_json_text();
    let bytes = write_atomic(&path, |w| w.write_all(text.as_bytes()))
        .map_err(|e| ckpt_err(&path, e.to_string()))?;
    if cfp_trace::enabled() {
        cfp_trace::counters::CORE_CKPT_COMMITS.inc();
        cfp_trace::counters::CORE_CKPT_BYTES.add(bytes);
    }
    Ok(bytes)
}

/// Loads the manifest from `dir`. `Ok(None)` when no manifest exists
/// (a fresh run); a present-but-invalid manifest — torn, bit-flipped,
/// wrong format, missing members — is a structured
/// [`CfpError::Checkpoint`], never a panic and never silently ignored.
pub fn load(dir: &Path) -> Result<Option<Manifest>, CfpError> {
    let path = manifest_path(dir);
    let text = match std::fs::read(&path) {
        Ok(bytes) => {
            String::from_utf8(bytes).map_err(|_| ckpt_err(&path, "manifest is not valid UTF-8"))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ckpt_err(&path, e.to_string())),
    };
    let doc = parse(&text).map_err(|e| ckpt_err(&path, format!("JSON parse error: {e}")))?;
    Manifest::from_json(&doc, &path).map(Some)
}

/// Removes the manifest after a run completes, so a later run in the
/// same directory starts fresh. Removal failures are ignored: a stale
/// manifest is rejected by its config fingerprint at worst.
pub fn clear(dir: &Path) {
    let _ = std::fs::remove_file(manifest_path(dir));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::TransactionDb;

    fn ckpt_dir(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("cfp-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample() -> Manifest {
        Manifest {
            input: "data/kosarak.dat".into(),
            min_support: 42,
            counts: "fnv1a:00deadbeef001234".into(),
            num_items: 991,
            output: "all".into(),
            progress: CkptProgress::Spill {
                parts_done: 3,
                remaining: vec![(0, 7), (7, 19), (19, 991)],
            },
            output_bytes: 123_456_789,
            itemsets: 4_040,
        }
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = ckpt_dir("roundtrip");
        let m = sample();
        let bytes = save(&dir, &m).expect("save");
        assert!(bytes > 0);
        let back = load(&dir).expect("load").expect("present");
        assert_eq!(back, m);
        let mono = Manifest { progress: CkptProgress::Mono { items_done: 17 }, ..m };
        save(&dir, &mono).expect("overwrite");
        assert_eq!(load(&dir).unwrap().unwrap(), mono);
        clear(&dir);
        assert_eq!(load(&dir).unwrap(), None, "cleared manifest reads as fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest written before the checksum moved into the shared
    /// envelope, byte for byte: it still loads, and the same manifest is
    /// still written as exactly these bytes.
    const COMMITTED_MANIFEST: &str = r#"{
  "format": "cfp-ckpt/1",
  "config": {
    "input": "data/kosarak.dat",
    "min_support": 42,
    "counts": "fnv1a:00deadbeef001234",
    "num_items": 991,
    "output": "all"
  },
  "progress": {
    "mode": "spill",
    "parts_done": 3,
    "remaining": [
      [
        0,
        7
      ],
      [
        7,
        19
      ],
      [
        19,
        991
      ]
    ]
  },
  "output_bytes": 123456789,
  "itemsets": 4040,
  "checksum": "fnv1a:690c7c7186f771db"
}
"#;

    #[test]
    fn committed_manifest_bytes_load_and_are_rewritten_identically() {
        let dir = ckpt_dir("committed");
        std::fs::write(manifest_path(&dir), COMMITTED_MANIFEST).unwrap();
        assert_eq!(load(&dir).expect("load").expect("present"), sample());
        assert_eq!(sample().to_json_text(), COMMITTED_MANIFEST);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_manifest_is_a_fresh_run_not_an_error() {
        let dir = ckpt_dir("absent");
        assert_eq!(load(&dir).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_is_rejected_with_a_structured_error() {
        let dir = ckpt_dir("trunc");
        save(&dir, &sample()).unwrap();
        let path = manifest_path(&dir);
        let full = std::fs::read(&path).unwrap();
        let m = sample();
        for len in 0..full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            // Never a panic and never a wrong watermark: either a
            // structured rejection, or — when only insignificant
            // trailing whitespace was cut — the exact manifest.
            match load(&dir) {
                Err(e) => assert_eq!(e.exit_code(), 9, "truncation to {len}: wrong error {e}"),
                Ok(back) => {
                    assert_eq!(back.as_ref(), Some(&m), "truncation to {len} changed the data");
                    assert!(
                        full[len..].iter().all(|b| b.is_ascii_whitespace()),
                        "truncation to {len} dropped significant bytes yet was accepted"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_byte_flip_is_rejected_or_harmless() {
        let dir = ckpt_dir("flip");
        let m = sample();
        save(&dir, &m).unwrap();
        let path = manifest_path(&dir);
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut flipped = full.clone();
            flipped[i] ^= 0xFF;
            std::fs::write(&path, &flipped).unwrap();
            // Never a panic; either a structured rejection or — only if
            // the flip was semantically invisible — the exact manifest.
            match load(&dir) {
                Err(e) => assert_eq!(e.exit_code(), 9, "flip at {i}: wrong error {e}"),
                Ok(back) => assert_eq!(back.as_ref(), Some(&m), "flip at {i} changed the data"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_fingerprint_mismatches_are_named() {
        let dir = ckpt_dir("config");
        let m = sample();
        assert!(m.ensure_matches(&dir, "data/kosarak.dat", 42, &m.counts, "all").is_ok());
        let e = m.ensure_matches(&dir, "other.dat", 42, &m.counts, "all").unwrap_err();
        assert!(e.to_string().contains("input mismatch"), "{e}");
        let e = m.ensure_matches(&dir, "data/kosarak.dat", 41, &m.counts, "all").unwrap_err();
        assert!(e.to_string().contains("min_support mismatch"), "{e}");
        let e = m.ensure_matches(&dir, "data/kosarak.dat", 42, "fnv1a:0", "all").unwrap_err();
        assert!(e.to_string().contains("fingerprint mismatch"), "{e}");
        assert_eq!(e.exit_code(), 9);
        let e = m.ensure_matches(&dir, "data/kosarak.dat", 42, &m.counts, "closed").unwrap_err();
        assert!(e.to_string().contains("output mismatch"), "{e}");
        assert_eq!(e.exit_code(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counts_fingerprint_tracks_the_frequent_universe() {
        let db1 = TransactionDb::from_rows(&[vec![1, 2, 3], vec![1, 2], vec![1]]);
        let db2 = TransactionDb::from_rows(&[vec![1, 2, 3], vec![1, 2], vec![2]]);
        let a = counts_fingerprint(&ItemRecoder::scan(&db1, 1));
        let b = counts_fingerprint(&ItemRecoder::scan(&db2, 1));
        let a2 = counts_fingerprint(&ItemRecoder::scan(&db1, 1));
        assert_eq!(a, a2, "fingerprint is deterministic");
        assert_ne!(a, b, "different supports give different fingerprints");
        assert!(a.starts_with("fnv1a:") && a.len() == 6 + 16);
    }
}
