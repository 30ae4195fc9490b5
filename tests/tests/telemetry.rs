//! Telemetry integration tests: histogram accuracy against an exact
//! oracle, merge algebra, Prometheus exposition robustness, the
//! flight-recorder round trip, and one registry snapshot serialising
//! identically in every telemetry document.
//!
//! The histogram tests are the documented accuracy contract of
//! `cfp_trace::hist`: values below 2^SUB_BITS are recorded exactly, and
//! every reported percentile of a larger distribution is within one
//! sub-bucket (relative error ≤ 2^-SUB_BITS = 6.25%) of the exact
//! order-statistic computed from a sorted copy of the same samples.

use cfp_trace::hist::{self, LatencyHisto};
use cfp_trace::{blackbox, json, metrics, Json, RunReport, Snapshot};

/// xorshift64* — a tiny seeded generator so distributions are
/// reproducible without pulling in a rand crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The exact rank-based percentile the histogram approximates:
/// `sorted[ceil(q*n) - 1]` on the sorted samples.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Asserts every tracked quantile of `samples` is within the log-linear
/// error bound of the exact oracle.
fn check_against_oracle(samples: &[u64], what: &str) {
    let h = LatencyHisto::new("test.oracle");
    for &s in samples {
        h.record(s);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let snap = h.snapshot();
    assert_eq!(snap.count, samples.len() as u64, "{what}: count");
    assert_eq!(snap.max, *sorted.last().unwrap(), "{what}: max is exact");
    for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
        let approx = snap.percentile(q);
        let exact = exact_percentile(&sorted, q);
        if exact < 1 << hist::SUB_BITS {
            assert_eq!(approx, exact, "{what}: p{q} below 2^SUB_BITS must be exact");
        } else {
            // One sub-bucket of slack on either side: the reported value
            // is the midpoint of the bucket holding the exact rank.
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            let bound = 1.0 / (1 << hist::SUB_BITS) as f64;
            assert!(
                rel <= bound,
                "{what}: p{q} off by {:.2}% (> {:.2}%): approx {approx}, exact {exact}",
                rel * 100.0,
                bound * 100.0
            );
        }
    }
}

#[test]
fn percentiles_track_the_exact_oracle_on_seeded_distributions() {
    let mut rng = Rng(0x0005_eed1);
    // Uniform over a wide range.
    let uniform: Vec<u64> = (0..10_000).map(|_| rng.next() % 1_000_000).collect();
    check_against_oracle(&uniform, "uniform");

    // Log-uniform (heavy dynamic range, like latencies): 2^(0..40).
    let log_uniform: Vec<u64> = (0..10_000).map(|_| 1u64 << (rng.next() % 40)).collect();
    check_against_oracle(&log_uniform, "log-uniform");

    // Bimodal: a fast path around 500ns and a slow path around 2ms.
    let bimodal: Vec<u64> = (0..10_000)
        .map(|_| {
            if rng.next().is_multiple_of(10) {
                2_000_000 + rng.next() % 100_000
            } else {
                500 + rng.next() % 100
            }
        })
        .collect();
    check_against_oracle(&bimodal, "bimodal");

    // Constant distribution: every percentile is the constant.
    check_against_oracle(&vec![42_000; 1_000], "constant");

    // All-small values: exact path.
    let small: Vec<u64> = (0..1_000).map(|_| rng.next() % 16).collect();
    check_against_oracle(&small, "small-exact");
}

#[test]
fn merge_is_associative_and_order_independent() {
    let mut rng = Rng(0x0005_eed2);
    let chunks: Vec<Vec<u64>> =
        (0..4).map(|_| (0..2_500).map(|_| rng.next() % 10_000_000).collect()).collect();

    // One histogram fed everything, in order.
    let all = LatencyHisto::new("test.all");
    for chunk in &chunks {
        for &s in chunk {
            all.record(s);
        }
    }

    // Per-chunk histograms merged left-to-right ((a+b)+c)+d ...
    let left = LatencyHisto::new("test.left");
    // ... and in reverse order d+(c+(b+a)) via snapshots.
    let right = LatencyHisto::new("test.right");
    for chunk in &chunks {
        let part = LatencyHisto::new("test.part");
        for &s in chunk {
            part.record(s);
        }
        left.merge_from(&part);
    }
    for chunk in chunks.iter().rev() {
        let part = LatencyHisto::new("test.part");
        for &s in chunk {
            part.record(s);
        }
        right.merge_snapshot(&part.snapshot());
    }

    let (a, b, c) = (all.snapshot(), left.snapshot(), right.snapshot());
    assert_eq!(a.count, b.count);
    assert_eq!(a.sum, b.sum);
    assert_eq!(a.max, b.max);
    assert_eq!(a.buckets, b.buckets, "merge must be bucket-exact");
    assert_eq!(b.buckets, c.buckets, "merge order must not matter");
    for q in [0.5, 0.9, 0.99, 0.999] {
        assert_eq!(a.percentile(q), b.percentile(q));
        assert_eq!(b.percentile(q), c.percentile(q));
    }
}

#[test]
fn bucket_bounds_bracket_every_magnitude() {
    // Walk the full u64 range by powers of two with offsets; every value
    // must land in a bucket whose [lo, hi] range contains it.
    for shift in 0..64u32 {
        for &off in &[0u64, 1, 7] {
            let v = (1u64 << shift).saturating_add(off);
            let i = hist::bucket_index(v);
            assert!(
                hist::bucket_lo(i) <= v && v <= hist::bucket_hi(i),
                "value {v} (bucket {i}): [{}, {}]",
                hist::bucket_lo(i),
                hist::bucket_hi(i)
            );
        }
    }
    assert_eq!(hist::bucket_index(u64::MAX), hist::NUM_BUCKETS - 1);
}

#[test]
fn prometheus_output_survives_hostile_label_values() {
    // Fuzz the label-value escaper with every byte pattern that matters
    // to the text exposition format, plus random ASCII garbage.
    let hostile = [
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "new\nline",
        "all\\three\"\n\\",
        "", // empty value is legal
        "trailing\\",
        "\n\n\n",
    ];
    let labels: Vec<(String, String)> =
        hostile.iter().enumerate().map(|(i, v)| (format!("label_{i}"), v.to_string())).collect();
    let snap = metrics::MetricsSnapshot::capture(1);
    let text = snap.to_prometheus(&labels);
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        // Every sample line must be `name{labels} value` or `name value`,
        // with no raw newline having split a label value into a bogus line.
        let (series, value) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("no value separator: {line:?}"));
        assert!(value.parse::<f64>().is_ok(), "sample value does not parse as a number: {line:?}");
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line:?}"
        );
        if let Some(rest) = series.get(name_end..) {
            if !rest.is_empty() {
                assert!(rest.starts_with('{') && rest.ends_with('}'), "bad label block: {line:?}");
            }
        }
    }

    // Seeded random ASCII fuzz of the escaper itself: unescaping the
    // escaped form must give back the input.
    let mut rng = Rng(0x0005_eed3);
    for _ in 0..500 {
        let len = (rng.next() % 24) as usize;
        let raw: String = (0..len)
            .map(|_| {
                // Bias toward the three escaped characters.
                match rng.next() % 6 {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    _ => (b' ' + (rng.next() % 95) as u8) as char,
                }
            })
            .collect();
        let escaped = metrics::escape_label_value(&raw);
        assert!(!escaped.contains('\n'), "raw newline leaked: {escaped:?}");
        let unescaped = escaped
            .replace("\\\\", "\u{0}")
            .replace("\\\"", "\"")
            .replace("\\n", "\n")
            .replace('\u{0}', "\\");
        assert_eq!(unescaped, raw, "escape not invertible for {raw:?}");
    }
}

#[test]
fn metrics_snapshot_json_carries_schema_and_histograms() {
    hist::CORE_MINE_TASK_NANOS.record(1_000);
    let snap = metrics::MetricsSnapshot::capture(3);
    let doc = json::parse(&snap.to_json().to_pretty()).expect("snapshot JSON parses");
    assert_eq!(doc.get("schema").and_then(|j| j.as_str()), Some(metrics::SCHEMA));
    assert_eq!(doc.get("seq").and_then(|j| j.as_u64()), Some(3));
    for member in ["phases", "counters", "histograms", "hists"] {
        assert!(doc.get(member).is_some(), "{member} missing");
    }
}

#[test]
fn blackbox_round_trips_with_a_valid_checksum_and_renders() {
    let report = blackbox::BlackboxReport::capture(
        "memory budget exhausted (integration test)",
        4,
        vec![("dataset".into(), "kosarak-like".into())],
        None,
        None,
    );
    let doc = report.to_json();
    let reparsed = json::parse(&doc.to_pretty()).expect("blackbox JSON parses");
    blackbox::verify(&reparsed).expect("checksum verifies");
    let rendered = blackbox::render(&reparsed);
    assert!(rendered.contains("memory budget exhausted"), "{rendered}");
    assert!(rendered.contains("exit code"), "{rendered}");

    // A flipped byte in the body must break verification.
    let tampered = doc.to_pretty().replace("exhausted", "exhAusted");
    let tampered = json::parse(&tampered).unwrap();
    assert!(blackbox::verify(&tampered).is_err(), "tampering went undetected");
}

/// The run report, a metrics record and a post-mortem built around one
/// registry snapshot carry byte-identical `phases`, `counters`,
/// `histograms` and `hists` members: one serialiser writes all three.
#[test]
fn one_snapshot_serialises_identically_in_all_three_documents() {
    let emit = LatencyHisto::new("core.emit_nanos");
    emit.record(1_500);
    let snapshot = Snapshot {
        phases: cfp_trace::span::phase_snapshot(),
        counters: vec![("core.patterns_emitted", 13), ("mem.peak_bytes", 4096)],
        histograms: vec![("core.recursion_depth", vec![0, 5, 2])],
        hists: vec![emit.summary()],
    };
    let profile = RunReport {
        dataset: "d".into(),
        transactions: 9,
        support: 2,
        algorithm: "cfp".into(),
        threads: 1,
        schedule: None,
        itemsets: 13,
        wall_nanos: 1,
        snapshot: snapshot.clone(),
        samples: vec![],
        degradation: None,
        events: None,
        memstat: None,
    }
    .to_json();
    let record =
        metrics::MetricsSnapshot { seq: 1, at_ms: 2, snapshot: snapshot.clone() }.to_json();
    let postmortem = blackbox::BlackboxReport {
        error: "e".into(),
        exit_code: 4,
        context: vec![],
        snapshot,
        tracks: vec![],
        memstat: None,
        degradation: None,
    }
    .to_json();
    for member in ["phases", "counters", "histograms", "hists"] {
        let text = |doc: &Json| doc.get(member).expect(member).to_compact();
        assert_eq!(text(&profile), text(&record), "{member}: profile vs metrics record");
        assert_eq!(text(&profile), text(&postmortem), "{member}: profile vs post-mortem");
    }
}
