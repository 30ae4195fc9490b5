//! End-to-end tests of the `cfp-mine` binary.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cfp-mine")
}

/// Writes a dataset several tests share: through a temporary file and a
/// rename, so a test reading the file while another rewrites it always
/// sees a complete copy.
fn write_shared(path: &std::path::Path, text: &str) {
    let unique = format!("{}-{:?}.tmp", std::process::id(), std::thread::current().id());
    let tmp = path.with_extension(unique);
    std::fs::write(&tmp, text).unwrap();
    std::fs::rename(&tmp, path).unwrap();
}

fn write_sample() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sample.dat");
    write_shared(&path, "1 2 5\n2 4\n2 3\n1 2 4\n1 3\n2 3\n1 3\n1 2 3 5\n1 2 3\n");
    path
}

#[test]
fn mines_and_prints_fimi_output() {
    let path = write_sample();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2"])
        .output()
        .expect("run cfp-mine");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The textbook example has 13 frequent itemsets at support 2:
    // 5 singletons, 6 pairs, and the triples {1,2,3} and {1,2,5}.
    assert_eq!(stdout.lines().count(), 13, "{stdout}");
    assert!(stdout.lines().any(|l| l == "2 (7)"), "{stdout}");
    assert!(stdout.lines().any(|l| l == "1 2 5 (2)"), "{stdout}");
}

#[test]
fn count_mode_and_percentage_support() {
    let path = write_sample();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "25%", "--count"])
        .output()
        .unwrap();
    assert!(out.status.success());
    // 25% of 9 rounds up to support 3.
    let count: u64 = String::from_utf8(out.stdout).unwrap().trim().parse().unwrap();
    assert!(count > 0);
}

#[test]
fn algorithms_agree() {
    let path = write_sample();
    let mut counts = Vec::new();
    for alg in ["cfp", "fp", "apriori", "eclat", "lcm", "nonordfp", "tiny", "fparray"] {
        let out = Command::new(bin())
            .args([path.to_str().unwrap(), "--support", "2", "--algorithm", alg, "--count"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{alg}: {}", String::from_utf8_lossy(&out.stderr));
        counts.push(String::from_utf8(out.stdout).unwrap().trim().to_string());
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

/// The dynamic schedule's determinism contract, end to end: a parallel
/// run must print byte-for-byte what the sequential run prints, with no
/// sorting anywhere.
#[test]
fn dynamic_schedule_output_is_byte_identical_to_sequential() {
    let path = write_sample();
    let sequential = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--threads", "1"])
        .output()
        .unwrap();
    assert!(sequential.status.success());
    for threads in ["2", "4"] {
        let parallel = Command::new(bin())
            .args([
                path.to_str().unwrap(),
                "--support",
                "2",
                "--threads",
                threads,
                "--schedule",
                "dynamic",
            ])
            .output()
            .unwrap();
        assert!(parallel.status.success(), "{}", String::from_utf8_lossy(&parallel.stderr));
        assert_eq!(parallel.stdout, sequential.stdout, "--threads {threads} diverged");
    }
}

/// Every unknown schedule is a usage error — including `static`, whose
/// round-robin deal is gone.
#[test]
fn bad_schedule_exits_2_with_usage_text() {
    for schedule in ["fifo", "static"] {
        let out = Command::new(bin())
            .args(["sample.dat", "--support", "2", "--schedule", schedule])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{schedule}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown schedule"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

/// One driver runs every thread count, so a profile's pipeline phases
/// mean the same thing at any `--threads`: read, count, build and
/// convert are each entered once with non-zero time, and the mine phase
/// once per worker.
#[test]
fn profile_phases_mean_the_same_at_any_thread_count() {
    use cfp_trace::{json, Json};

    let path = write_sample();
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    for threads in [1u64, 2] {
        let report_path = dir.join(format!("phases-{threads}.json"));
        let out = Command::new(bin())
            .args([path.to_str().unwrap(), "--support", "2", "--count"])
            .args(["--threads", &threads.to_string(), "--profile", report_path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let doc = json::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        let phases = doc.get("phases").and_then(Json::as_arr).expect("phases");
        for name in ["read", "count", "build", "convert", "mine"] {
            let phase = phases
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("phase {name} missing"));
            let expected = if name == "mine" { threads } else { 1 };
            let count = phase.get("count").and_then(Json::as_u64);
            assert_eq!(count, Some(expected), "--threads {threads} {name}: {phase:?}");
            let nanos = phase.get("nanos").and_then(Json::as_u64).unwrap();
            assert!(nanos > 0, "--threads {threads} {name} recorded no time: {phase:?}");
        }
        std::fs::remove_file(&report_path).ok();
    }
}

#[test]
fn top_k_orders_by_support() {
    let path = write_sample();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--top", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let supports: Vec<u64> = stdout
        .lines()
        .map(|l| {
            l.rsplit_once('(').and_then(|(_, s)| s.trim_end_matches(')').parse().ok()).unwrap()
        })
        .collect();
    assert_eq!(supports.len(), 3);
    assert!(supports.windows(2).all(|w| w[0] >= w[1]), "{supports:?}");
}

#[test]
fn rules_and_condensed_modes_run() {
    let path = write_sample();
    for extra in [&["--rules", "0.6"][..], &["--closed"][..], &["--maximal"][..]] {
        let mut args = vec![path.to_str().unwrap(), "--support", "2"];
        args.extend_from_slice(extra);
        let out = Command::new(bin()).args(&args).output().unwrap();
        assert!(out.status.success(), "{extra:?}");
        assert!(!out.stdout.is_empty(), "{extra:?} produced no output");
    }
}

/// No condensed flag is silently dropped. On cfp the legacy aliases mean
/// exactly their `--output` mode, also under `--count` and `--rules`;
/// every combination that would drop a flag is a usage error (exit 2).
#[test]
fn condensed_flags_are_never_silently_dropped() {
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("condensed-flags.dat");
    write_shared(&path, "1 2\n1 2\n1\n");
    let run = |extra: &[&str]| {
        let out = Command::new(bin())
            .args([path.to_str().unwrap(), "--support", "2"])
            .args(extra)
            .output()
            .unwrap();
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    // Frequent: {1}:3, {2}:2, {1 2}:2. Closed: {1}, {1 2}. Maximal: {1 2}.
    for (alias, output, expected) in [
        (&["--count", "--closed"][..], &["--output", "closed", "--count"][..], "2\n"),
        (&["--count", "--maximal"][..], &["--output", "maximal", "--count"][..], "1\n"),
        (&["--top", "1", "--count"][..], &["--output", "topk:1", "--count"][..], "1\n"),
    ] {
        assert_eq!(run(alias), (Some(0), expected.to_string()), "{alias:?}");
        assert_eq!(run(alias), run(output), "{alias:?} must mean {output:?}");
    }
    for dropped in [
        &["--rules", "0.5", "--closed"][..],
        &["--rules", "0.5", "--output", "closed"][..],
        &["--top", "5", "--closed"][..],
        &["--closed", "--maximal"][..],
        &["--algorithm", "fp", "--rules", "0.5", "--top", "1"][..],
        &["--algorithm", "fp", "--count", "--closed"][..],
    ] {
        assert_eq!(run(dropped).0, Some(2), "{dropped:?} must be a usage error");
    }
    // The baselines keep their post-hoc filters on their own.
    assert_eq!(run(&["--algorithm", "fp", "--maximal"]), (Some(0), "1 2 (2)\n".to_string()));
}

/// Malformed `--output` values are usage errors: exit 2, a diagnostic
/// naming the output mode, and the usage text.
#[test]
fn bad_output_mode_exits_2_with_usage_text() {
    for bad in ["topk:0", "topk:x", "topk:", "frequent"] {
        let out = Command::new(bin())
            .args(["sample.dat", "--support", "2", "--output", bad])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("output mode"), "{bad}: {stderr}");
        assert!(stderr.contains("usage:"), "{bad}: {stderr}");
    }
}

/// The engine's condensed modes agree with the post-hoc baseline path
/// end to end, the legacy flags alias onto the engine (byte-identical
/// commands), and each mode is byte-identical across thread counts.
#[test]
fn output_modes_are_deterministic_across_schedules_and_threads() {
    let path = write_skewed();
    let p = path.to_str().unwrap();
    let sorted = |bytes: &[u8]| {
        let mut lines: Vec<String> =
            String::from_utf8_lossy(bytes).lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    let run = |extra: &[&str]| {
        let mut args = vec![p, "--support", "20"];
        args.extend_from_slice(extra);
        let out = Command::new(bin()).args(&args).output().unwrap();
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };

    let full = run(&[]);
    for (mode, legacy) in [
        ("closed", &["--closed"][..]),
        ("maximal", &["--maximal"][..]),
        ("topk:25", &["--top", "25"][..]),
    ] {
        let output = format!("--output={mode}");
        let seq = run(&[&output]);
        assert_ne!(seq, full, "{mode} must actually condense the skewed dataset");
        assert_eq!(run(legacy), seq, "legacy {legacy:?} must alias --output={mode}");
        // The post-hoc oracle on a baseline algorithm yields the same set.
        let oracle = if mode == "topk:25" {
            run(&["--algorithm=lcm", "--top", "25"])
        } else {
            run(&["--algorithm=lcm", &format!("--{mode}")])
        };
        assert_eq!(sorted(&seq), sorted(&oracle), "{mode} diverges from the post-hoc oracle");

        for threads in ["2", "4"] {
            let par = run(&[&output, "--threads", threads, "--schedule=dynamic"]);
            assert_eq!(par, seq, "{mode} dynamic x{threads} is not byte-identical");
        }
    }

    // topk:N returns exactly N lines when the full set is larger.
    let top = run(&["--output=topk:25"]);
    assert_eq!(String::from_utf8_lossy(&top).lines().count(), 25);
}

/// Condensed output survives the recovery ladder: with a budget that
/// kills the monolithic build, `--recover=spill` must still produce
/// exactly the unconstrained condensed set.
#[test]
fn condensed_output_under_spill_recovery_matches_unconstrained() {
    let path = write_sample();
    let db = cfp_core::TransactionDb::from_rows(&[
        vec![1, 2, 5],
        vec![2, 4],
        vec![2, 3],
        vec![1, 2, 4],
        vec![1, 3],
        vec![2, 3],
        vec![1, 3],
        vec![1, 2, 3, 5],
        vec![1, 2, 3],
    ]);
    let budget = (cfp_core::build_tree(&db, 2).1.arena_footprint() - 10).to_string();
    let sorted = |bytes: &[u8]| {
        let mut lines: Vec<String> =
            String::from_utf8_lossy(bytes).lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    for mode in ["closed", "maximal", "topk:4"] {
        let output = format!("--output={mode}");
        let plain = Command::new(bin())
            .args([path.to_str().unwrap(), "--support", "2", &output])
            .output()
            .unwrap();
        assert!(plain.status.success(), "{mode}: {}", String::from_utf8_lossy(&plain.stderr));
        let recovered = Command::new(bin())
            .args([
                path.to_str().unwrap(),
                "--support",
                "2",
                &output,
                "--mem-budget",
                &budget,
                "--recover=spill",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&recovered.stderr);
        assert_eq!(recovered.status.code(), Some(0), "{mode}: {stderr}");
        assert!(stderr.contains("recovered via"), "{mode}: {stderr}");
        assert_eq!(
            sorted(&recovered.stdout),
            sorted(&plain.stdout),
            "{mode}: recovery changed the condensed set"
        );
    }
}

#[test]
fn image_round_trip_via_cli() {
    let path = write_sample();
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    let image = dir.join("sample.cfpi");
    let out = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "2",
            "--count",
            "--image",
            image.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(image.exists());
    std::fs::remove_file(&image).ok();
}

/// Arming the live-telemetry surfaces must not change a single output
/// byte: `--metrics-out` + `--blackbox` together, sequentially and on 4
/// threads, against bare runs. A clean run must also leave no blackbox
/// dump behind, while the metrics files must exist and carry their
/// schemas.
#[test]
fn metrics_and_blackbox_leave_output_byte_identical() {
    let path = write_sample();
    let dir = std::env::temp_dir().join(format!("cfp_cli_telemetry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.prom");
    let blackbox = dir.join("bb");
    for threads in ["1", "4"] {
        let bare = Command::new(bin())
            .args([path.to_str().unwrap(), "--support", "2", "--threads", threads])
            .output()
            .unwrap();
        assert!(bare.status.success(), "{}", String::from_utf8_lossy(&bare.stderr));
        let armed = Command::new(bin())
            .args([
                path.to_str().unwrap(),
                "--support",
                "2",
                "--threads",
                threads,
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--metrics-every",
                "50ms",
                "--blackbox",
                blackbox.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(armed.status.success(), "{}", String::from_utf8_lossy(&armed.stderr));
        assert_eq!(armed.stdout, bare.stdout, "--threads {threads} output diverged when armed");
    }
    assert!(!blackbox.join("blackbox.json").exists(), "clean run must not leave a blackbox dump");
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(prom.contains("cfp_run_info"), "{prom}");
    let jsonl = std::fs::read_to_string(dir.join("metrics.prom.jsonl")).unwrap();
    let last = jsonl.lines().last().expect("at least one JSONL record");
    assert!(last.contains("\"schema\":\"cfp-metrics/2\""), "{last}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One run with both `--profile` and `--metrics-out`: the profile and the
/// last JSONL record embed the same registry snapshot, so they carry the
/// same phase names and the same counter, bucket-histogram and
/// latency-summary names.
#[test]
fn profile_and_metrics_record_share_one_snapshot() {
    use cfp_trace::{json, Json};

    let path = write_sample();
    let dir = std::env::temp_dir().join(format!("cfp_cli_snapshot_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (profile, metrics) = (dir.join("run.json"), dir.join("metrics.prom"));
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--threads", "2"])
        .args(["--profile", profile.to_str().unwrap()])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let profile = json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
    let jsonl = std::fs::read_to_string(dir.join("metrics.prom.jsonl")).unwrap();
    let record = json::parse(jsonl.lines().last().expect("a JSONL record")).unwrap();
    let phase_names = |doc: &Json| -> Vec<String> {
        let phases = doc.get("phases").and_then(Json::as_arr).expect("phases");
        phases.iter().map(|p| p.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
    };
    assert_eq!(phase_names(&profile), phase_names(&record));
    for member in ["counters", "histograms", "hists"] {
        let keys = |doc: &Json| match doc.get(member) {
            Some(Json::Obj(m)) => m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("{member} is not an object: {other:?}"),
        };
        assert_eq!(keys(&profile), keys(&record), "{member}");
    }
    let hists = profile.get("hists").expect("hists");
    assert!(hists.get("core.mine_task_nanos").is_some(), "the profile carries percentiles");
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden test for the machine-readable run report: `--profile` must emit
/// a valid `cfp-profile/3` document whose structure downstream tooling can
/// rely on. Parsed with the same zero-dependency parser shipped in
/// `cfp-trace`, so writer and reader are exercised together.
#[test]
fn profile_report_is_valid_and_complete() {
    use cfp_trace::{json, Json};

    let path = write_sample();
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    let report_path = dir.join("profile.json");
    let out = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "2",
            "--count",
            "--profile",
            report_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&report_path).unwrap();
    let doc = json::parse(&text).expect("profile must be valid JSON");

    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("cfp-profile/3"));

    let run = doc.get("run").expect("run object");
    assert_eq!(run.get("transactions").and_then(Json::as_u64), Some(9));
    assert_eq!(run.get("support").and_then(Json::as_u64), Some(2));
    assert_eq!(run.get("algorithm").and_then(Json::as_str), Some("cfp"));
    assert_eq!(run.get("itemsets").and_then(Json::as_u64), Some(13));
    let wall = run.get("wall_nanos").and_then(Json::as_u64).unwrap();
    assert!(wall > 0);

    // All pipeline phases present, in order. The five classic phases are
    // each entered exactly once on a healthy run; the recover and spill
    // phases exist in the schema but stay unentered. Their summed wall time
    // fits inside the end-to-end wall time.
    let phases = doc.get("phases").and_then(Json::as_arr).expect("phases");
    let names: Vec<&str> = phases.iter().filter_map(|p| p.get("name")?.as_str()).collect();
    assert_eq!(names, ["read", "count", "build", "convert", "mine", "recover", "spill"]);
    let mut phase_sum = 0;
    for p in phases {
        let name = p.get("name").and_then(Json::as_str).unwrap();
        let expected = if matches!(name, "recover" | "spill") { 0 } else { 1 };
        assert_eq!(p.get("count").and_then(Json::as_u64), Some(expected), "{p:?}");
        let nanos = p.get("nanos").and_then(Json::as_u64).unwrap();
        assert_eq!(nanos > 0, expected > 0, "{p:?}");
        phase_sum += nanos;
    }
    assert!(phase_sum <= wall, "phases ({phase_sum}) exceed wall time ({wall})");
    // A healthy run must not carry a degradation section.
    assert!(doc.get("degradation").is_none(), "healthy run grew a degradation section");

    // The counters that must be non-zero for any CFP run on this dataset.
    let counters = doc.get("counters").expect("counters object");
    for name in [
        "memman.allocs",
        "memman.bump_allocs",
        "tree.standard_nodes",
        "array.conversions",
        "core.conditional_trees",
        "core.patterns_emitted",
    ] {
        let v = counters.get(name).and_then(Json::as_u64).unwrap_or_else(|| {
            panic!("counter {name} missing");
        });
        assert!(v > 0, "counter {name} is zero");
    }
    assert_eq!(counters.get("core.patterns_emitted").and_then(Json::as_u64), Some(13));

    // Memory: the peak counter dominates the current one, and the time
    // series has the guaranteed start and stop samples.
    let peak = counters.get("mem.peak_bytes").and_then(Json::as_u64).unwrap();
    let current = counters.get("mem.current_bytes").and_then(Json::as_u64).unwrap();
    assert!(peak >= current);
    assert!(peak > 0, "MemGauge mirror never recorded");
    let memory = doc.get("memory").expect("memory object");
    let samples = memory.get("samples").and_then(Json::as_arr).unwrap();
    assert!(samples.len() >= 2, "need at least start+stop samples");
    for s in samples {
        for field in ["at_ms", "mem_current", "mem_peak", "arena_used", "arena_footprint"] {
            assert!(s.get(field).and_then(Json::as_u64).is_some(), "{field} missing");
        }
    }

    // The events summary block. Without `--trace-out` the
    // timeline is not captured, so it reports an empty capture rather
    // than being absent.
    let events = doc.get("events").expect("the profile carries an events block");
    assert_eq!(events.get("tracks").and_then(Json::as_u64), Some(0));
    assert_eq!(events.get("recorded").and_then(Json::as_u64), Some(0));
    assert_eq!(events.get("dropped_events").and_then(Json::as_u64), Some(0));

    std::fs::remove_file(&report_path).ok();
}

/// A deterministic skewed dataset (geometric-ish item frequencies): the
/// head items appear in almost every row, the tail rarely. The cost
/// imbalance across first-level items is what makes the dynamic scheduler
/// steal, so the timeline tests below can demand steal events.
fn write_skewed() -> std::path::PathBuf {
    write_skewed_rows("skewed.dat", 2000)
}

/// `rows` rows of the [`write_skewed`] shape, in `cfp_cli_tests/<name>`.
fn write_skewed_rows(name: &str, rows: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut text = String::new();
    for _ in 0..rows {
        let mut row = Vec::new();
        for i in 0..48u32 {
            if next() < 0.9 / (i as f64 + 1.0) {
                row.push(i.to_string());
            }
        }
        if !row.is_empty() {
            text.push_str(&row.join(" "));
            text.push('\n');
        }
    }
    write_shared(&path, &text);
    path
}

/// The tentpole e2e: `--trace-out` must produce Chrome trace-event JSON
/// that the in-repo parser accepts, with one named track per worker
/// (each carrying at least one event), steal instants on a skewed
/// dataset, recursion slices, and counter tracks from the memory
/// sampler.
#[test]
fn trace_out_is_a_valid_chrome_trace_with_per_worker_tracks() {
    use cfp_trace::{json, Json};

    let path = write_skewed();
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    let trace_path = dir.join("timeline.json");
    let out = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "20",
            "--threads",
            "4",
            "--count",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = json::parse(&text).expect("trace must be valid JSON");
    let events = doc.as_arr().expect("array-of-events form");

    // One thread_name metadata record per track; every worker is named.
    let mut tid_by_name = std::collections::HashMap::new();
    for e in events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("M")) {
        let name = e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str).unwrap();
        let tid = e.get("tid").and_then(Json::as_u64).unwrap();
        tid_by_name.insert(name.to_string(), tid);
    }
    for worker in ["worker-0", "worker-1", "worker-2", "worker-3"] {
        let tid = *tid_by_name.get(worker).unwrap_or_else(|| panic!("missing track {worker}"));
        let on_track = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) != Some("M")
                    && e.get("tid").and_then(Json::as_u64) == Some(tid)
            })
            .count();
        assert!(on_track >= 1, "track {worker} carries no events");
    }

    let name_count = |name: &str| {
        events.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some(name)).count()
    };
    assert!(name_count("steal") > 0, "skewed data must produce steal instants");
    assert!(
        events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("X")
            && e.get("cat").and_then(Json::as_str) == Some("mine")),
        "recursion slices missing"
    );
    // Counter tracks mirrored from the memory sampler series.
    assert!(
        events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("C")
            && e.get("name").and_then(Json::as_str) == Some("mem.peak_bytes")),
        "counter tracks missing"
    );
    std::fs::remove_file(&trace_path).ok();
}

/// Recovery rung transitions land on the timeline: a budget too small
/// for the monolithic tree under `--recover=partition` emits `rung`
/// instants for each attempted rung.
#[test]
fn recovery_rungs_appear_on_the_event_timeline() {
    use cfp_trace::{json, Json};

    let path = write_sample();
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    let trace_path = dir.join("recovery_timeline.json");
    let db = cfp_core::TransactionDb::from_rows(&[
        vec![1, 2, 5],
        vec![2, 4],
        vec![2, 3],
        vec![1, 2, 4],
        vec![1, 3],
        vec![2, 3],
        vec![1, 3],
        vec![1, 2, 3, 5],
        vec![1, 2, 3],
    ]);
    let budget = (cfp_core::build_tree(&db, 2).1.arena_footprint() - 10).to_string();
    let out = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "2",
            "--count",
            "--mem-budget",
            &budget,
            "--recover=partition",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = json::parse(&text).expect("trace must be valid JSON");
    let rungs: Vec<&str> = doc
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("recover"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(rungs, ["rung retry", "rung partition"], "threads=1 skips the degrade rung");
    std::fs::remove_file(&trace_path).ok();
}

/// `--flame-out` writes folded stacks: `mine;i<a>;i<b> <self-nanos>`
/// lines, sorted, with at least one nested path on a dataset this dense.
#[test]
fn flame_out_folded_stacks_are_well_formed() {
    let path = write_skewed();
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    let flame_path = dir.join("stacks.folded");
    let out = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "20",
            "--threads",
            "2",
            "--count",
            "--flame-out",
            flame_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&flame_path).unwrap();
    assert!(!text.is_empty(), "flame output is empty");
    for line in text.lines() {
        let (stack, nanos) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        assert!(stack.starts_with("mine"), "{line:?}");
        nanos.parse::<u64>().unwrap_or_else(|_| panic!("bad self-time in {line:?}"));
    }
    assert!(text.lines().any(|l| l.contains(';')), "no nested stacks in:\n{text}");
    std::fs::remove_file(&flame_path).ok();
}

/// The observability bargain: turning everything on (timeline capture,
/// flame export, progress meter, profiling) must not change the mining
/// output by a single byte.
#[test]
fn mining_output_is_byte_identical_with_tracing_on() {
    let path = write_skewed();
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    let plain = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "20", "--threads", "4"])
        .output()
        .unwrap();
    assert!(plain.status.success());
    let traced = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "20",
            "--threads",
            "4",
            "--trace-out",
            dir.join("ident_trace.json").to_str().unwrap(),
            "--flame-out",
            dir.join("ident_stacks.folded").to_str().unwrap(),
            "--profile",
            dir.join("ident_profile.json").to_str().unwrap(),
            "--progress",
        ])
        .output()
        .unwrap();
    assert!(traced.status.success(), "{}", String::from_utf8_lossy(&traced.stderr));
    assert_eq!(traced.stdout, plain.stdout, "tracing changed the mining output");
    for f in ["ident_trace.json", "ident_stacks.folded", "ident_profile.json"] {
        std::fs::remove_file(dir.join(f)).ok();
    }
}

#[test]
fn missing_input_fails_cleanly() {
    let out = Command::new(bin()).args(["/nonexistent.dat", "--support", "2"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn bad_usage_exits_2_with_usage_text() {
    for args in [
        &[][..],
        &["--support", "2"][..], // no input
        &["sample.dat"][..],     // no support
        &["sample.dat", "--support", "2", "--bogus"][..],
        &["sample.dat", "--support", "2", "--mem-budget", "lots"][..],
    ] {
        let out = Command::new(bin()).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
    // An unknown algorithm is only detected after the input is read.
    let path = write_sample();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--algorithm", "quantum"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown algorithm"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// A downstream consumer closing the pipe early (`cfp-mine ... | head`)
/// is not an error: the process must exit 0 without a panic message.
#[test]
fn broken_pipe_exits_zero_and_quiet() {
    use std::io::Read;
    use std::process::Stdio;

    // One 16-item transaction at support 1 yields 2^16 - 1 = 65535
    // itemsets — several megabytes of output, far beyond the 64 KiB pipe
    // buffer, so the miner is guaranteed to hit EPIPE after we hang up.
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.dat");
    let row: Vec<String> = (1..=16).map(|i| i.to_string()).collect();
    std::fs::write(&path, format!("{}\n", row.join(" "))).unwrap();

    let mut child = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Read a token amount, then hang up while the miner is still writing.
    let mut stdout = child.stdout.take().unwrap();
    let mut first = [0u8; 64];
    stdout.read_exact(&mut first).unwrap();
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panic"), "{stderr}");
}

#[test]
fn tiny_mem_budget_exits_4_naming_the_build_phase() {
    let path = write_sample();
    for threads in ["1", "4"] {
        let out = Command::new(bin())
            .args([
                path.to_str().unwrap(),
                "--support",
                "2",
                "--mem-budget",
                "16",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(4), "{threads} threads");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("memory exhausted"), "{stderr}");
        assert!(stderr.contains("build"), "diagnostic must name the phase: {stderr}");
    }
}

#[test]
fn generous_mem_budget_mines_normally() {
    let path = write_sample();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--mem-budget", "1g", "--count"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "13");
}

#[test]
fn mem_budget_below_arena_floor_exits_2() {
    let path = write_sample();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--mem-budget", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("below the arena's minimum carve"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// `--recover=off` must be indistinguishable from not asking for recovery
/// at all: same exit code, byte-for-byte identical stderr. Scripts keying
/// off the PR 2 failure contract keep working.
#[test]
fn recover_off_reproduces_the_plain_failure_byte_for_byte() {
    let path = write_sample();
    let plain = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--mem-budget", "16"])
        .output()
        .unwrap();
    let off = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--mem-budget", "16", "--recover=off"])
        .output()
        .unwrap();
    assert_eq!(plain.status.code(), Some(4));
    assert_eq!(off.status.code(), Some(4));
    assert_eq!(plain.stderr, off.stderr, "stderr must match byte for byte");
    assert_eq!(plain.stdout, off.stdout);
}

/// The tentpole e2e: a budget too small for the monolithic tree, mined to
/// completion under `--recover=partition`, must produce exactly the output
/// of an unconstrained run (order-normalized) and record the degradation
/// in the profile report.
#[test]
fn partitioned_recovery_matches_unconstrained_output() {
    use cfp_trace::{json, Json};

    let path = write_sample();
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    let report_path = dir.join("degraded.json");

    // Learn the monolithic tree's charge from the same rows the file
    // holds, then budget just below it: build must fail, partitions fit.
    let db = cfp_core::TransactionDb::from_rows(&[
        vec![1, 2, 5],
        vec![2, 4],
        vec![2, 3],
        vec![1, 2, 4],
        vec![1, 3],
        vec![2, 3],
        vec![1, 3],
        vec![1, 2, 3, 5],
        vec![1, 2, 3],
    ]);
    let budget = (cfp_core::build_tree(&db, 2).1.arena_footprint() - 10).to_string();

    let baseline =
        Command::new(bin()).args([path.to_str().unwrap(), "--support", "2"]).output().unwrap();
    assert!(baseline.status.success());

    let degraded = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "2",
            "--mem-budget",
            &budget,
            "--recover=partition",
            "--profile",
            report_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert_eq!(degraded.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("recovered via partition"), "{stderr}");

    let sorted = |bytes: &[u8]| {
        let mut lines: Vec<String> =
            String::from_utf8_lossy(bytes).lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    assert_eq!(sorted(&degraded.stdout), sorted(&baseline.stdout));

    // The profile must carry the degradation section: which rungs ran,
    // that the run recovered, and how many partitions the fallback used.
    let text = std::fs::read_to_string(&report_path).unwrap();
    let doc = json::parse(&text).expect("profile must be valid JSON");
    let deg = doc.get("degradation").expect("degradation section");
    assert_eq!(deg.get("policy").and_then(Json::as_str), Some("partition"));
    assert_eq!(deg.get("recovered"), Some(&Json::Bool(true)));
    let partitions = deg.get("final_partitions").and_then(Json::as_u64).unwrap();
    assert!(partitions >= 2, "expected a real split, got {partitions}");
    let rungs = deg.get("rungs").and_then(Json::as_arr).expect("rungs array");
    let names: Vec<&str> = rungs.iter().filter_map(|r| r.get("rung")?.as_str()).collect();
    assert_eq!(names, ["retry", "partition"], "threads=1 skips the degrade rung");
    let last = rungs.last().unwrap();
    assert_eq!(last.get("succeeded"), Some(&Json::Bool(true)));

    std::fs::remove_file(&report_path).ok();
}

fn write_damaged_sample() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("damaged.dat");
    std::fs::write(&path, "1 2\n1 4294967296 2\n1 2\n").unwrap();
    path
}

#[test]
fn malformed_input_exits_3_citing_the_line() {
    let path = write_damaged_sample();
    let out =
        Command::new(bin()).args([path.to_str().unwrap(), "--support", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("4294967296"), "{stderr}");
}

#[test]
fn skip_bad_lines_mines_the_rest_and_warns() {
    let path = write_damaged_sample();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--skip-bad-lines", "--count"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("skipped 1 malformed line"), "{stderr}");
    // The two surviving transactions are both {1, 2}: itemsets 1, 2, 1 2.
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
}

/// `--mem-report` is observational: the mining output must be
/// byte-identical with the flag on, sequentially and in parallel.
#[test]
fn mining_output_is_byte_identical_with_mem_report_on() {
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    for (path, threads, report) in
        [(write_sample(), "1", "memstat_seq.json"), (write_skewed(), "4", "memstat_par.json")]
    {
        let support = if threads == "1" { "2" } else { "20" };
        let plain = Command::new(bin())
            .args([path.to_str().unwrap(), "--support", support, "--threads", threads])
            .output()
            .unwrap();
        assert!(plain.status.success());
        let reported = Command::new(bin())
            .args([
                path.to_str().unwrap(),
                "--support",
                support,
                "--threads",
                threads,
                "--mem-report",
                dir.join(report).to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(reported.status.success(), "{}", String::from_utf8_lossy(&reported.stderr));
        assert_eq!(
            reported.stdout, plain.stdout,
            "--mem-report changed output ({threads} threads)"
        );
        std::fs::remove_file(dir.join(report)).ok();
    }
}

/// The memstat document itself: valid JSON, a reconciled audit, the
/// paper-shaped compression claim, an exact savings ladder, and the
/// mine-phase distributions all present.
#[test]
fn mem_report_is_valid_and_audit_reconciles() {
    use cfp_trace::{json, Json};

    let path = write_sample();
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    let report_path = dir.join("memstat_full.json");
    let profile_path = dir.join("memstat_profile.json");
    let out = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "2",
            "--count",
            "--mem-report",
            report_path.to_str().unwrap(),
            "--profile",
            profile_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&report_path).unwrap();
    let doc = json::parse(&text).expect("memstat must be valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("cfp-memstat/1"));

    // Audit: the per-component identity holds exactly and the arena
    // capacity sits within the documented slack bound.
    let audit = doc.get("audit").expect("audit section");
    assert_eq!(audit.get("reconciled"), Some(&Json::Bool(true)), "{audit:?}");
    assert_eq!(audit.get("within_slack"), Some(&Json::Bool(true)), "{audit:?}");
    assert_eq!(
        audit.get("components_total").and_then(Json::as_u64),
        audit.get("accounted").and_then(Json::as_u64),
    );
    // RSS is informational but present on Linux.
    #[cfg(target_os = "linux")]
    assert!(audit.get("rss_bytes").and_then(Json::as_u64).unwrap_or(0) > 0);

    // Attribution: the mining run charged the build-tree and
    // cond-arrays components; nothing is live after the run.
    let attribution = doc.get("attribution").expect("attribution section");
    let components = attribution.get("components").and_then(Json::as_arr).unwrap();
    let peak_of = |name: &str| {
        components
            .iter()
            .find(|c| c.get("component").and_then(Json::as_str) == Some(name))
            .and_then(|c| c.get("peak"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert!(peak_of("build-tree") > 0);
    assert!(peak_of("cond-arrays") > 0);

    // Compression: the CFP-tree beats the FP-tree built from the same
    // counts — the paper's claim, measured.
    let compression = doc.get("compression").and_then(Json::as_arr).unwrap();
    let bytes_of = |name: &str| {
        compression
            .iter()
            .find(|r| r.get("representation").and_then(Json::as_str) == Some(name))
            .and_then(|r| r.get("bytes"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert!(bytes_of("cfp-tree") < bytes_of("fp-tree"), "{compression:?}");

    // Savings ladder: itemized and exact.
    let savings = doc.get("savings").expect("savings section");
    assert_eq!(savings.get("identity-residual").and_then(Json::as_f64), Some(0.0), "{savings:?}");
    assert!(savings.get("ptr40").and_then(Json::as_f64).unwrap() > 0.0);

    // Distributions recorded during the traced mine phase.
    let dist = doc.get("distributions").expect("distributions section");
    let count = dist.get("cond_tree_bytes").and_then(|d| d.get("count")).and_then(Json::as_u64);
    assert!(count.unwrap() > 0, "{dist:?}");

    // And the profile folded the summary in.
    let profile = json::parse(&std::fs::read_to_string(&profile_path).unwrap()).unwrap();
    let memstat = profile.get("memstat").expect("profile carries the memstat summary");
    assert_eq!(memstat.get("reconciled"), Some(&Json::Bool(true)));
    assert!(memstat.get("pool_peak").and_then(Json::as_u64).unwrap() > 0);

    std::fs::remove_file(&report_path).ok();
    std::fs::remove_file(&profile_path).ok();
}

/// A per-test scratch area for checkpoint state, cleaned before use so
/// stale manifests from a failed earlier run cannot leak in.
fn ckpt_scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cfp_cli_ckpt_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Checkpointing is free when nothing interrupts: the output matches a
/// plain run byte for byte, the manifest is cleared on completion, and
/// no temp files are left behind.
#[test]
fn checkpointed_run_matches_plain_output_and_clears_its_manifest() {
    let path = write_skewed();
    let scratch = ckpt_scratch("clean");
    let ck = scratch.join("ck");
    let plain = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "20", "--threads", "4"])
        .output()
        .unwrap();
    assert!(plain.status.success());
    let checked = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "20",
            "--threads",
            "4",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(checked.status.success(), "{}", String::from_utf8_lossy(&checked.stderr));
    assert_eq!(checked.stdout, plain.stdout, "checkpointing changed the mining output");
    assert!(!ck.join("ckpt.json").exists(), "completed run must clear its manifest");
    for entry in std::fs::read_dir(&ck).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(!name.ends_with(".tmp"), "stray temp file {name}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// An out-of-core run reports its work like an in-memory one: every
/// partition goes through the mining driver, so the profile carries
/// `count`, `build` and `convert` spans and `--stats` sums real phase
/// times. A `--checkpoint-dir` run takes the direct out-of-core path.
#[test]
fn out_of_core_runs_report_their_work() {
    use cfp_trace::{json, Json};

    let path = write_skewed_rows("skewed-20k.dat", 20_000);
    let scratch = ckpt_scratch("ooc-report");
    let (ck, sp, report) = (scratch.join("ck"), scratch.join("sp"), scratch.join("run.json"));
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "200", "--recover=spill"])
        .args(["--mem-budget", "64000", "--spill-dir", sp.to_str().unwrap()])
        .args(["--checkpoint-dir", ck.to_str().unwrap(), "--stats"])
        .args(["--profile", report.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");

    let doc = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let deg = doc.get("degradation").expect("degradation section");
    assert_eq!(deg.get("policy").and_then(Json::as_str), Some("spill"));
    let partitions = deg.get("final_partitions").and_then(Json::as_u64).unwrap();
    assert!(partitions >= 2, "expected a real split, got {partitions}");
    let phases = doc.get("phases").and_then(Json::as_arr).expect("phases");
    for name in ["count", "build", "convert"] {
        let phase = phases
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("phase {name} missing"));
        let count = phase.get("count").and_then(Json::as_u64).unwrap();
        assert!(count >= 1, "out-of-core run recorded no {name} span: {phase:?}");
    }

    let line = stderr.lines().find(|l| l.starts_with("itemsets ")).expect("--stats line");
    let build: f64 = line
        .split("  build ")
        .nth(1)
        .and_then(|rest| rest.split('s').next())
        .and_then(|secs| secs.parse().ok())
        .unwrap_or_else(|| panic!("no build time in {line:?}"));
    assert!(build > 0.0, "--stats summed no build time: {line}");
    let leftovers = std::fs::read_dir(&sp).map(|it| it.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "the spill dir must be empty after the run");
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The deadline interrupt–resume loop: repeatedly run with a small
/// wall-clock budget, appending each segment's stdout to one file, until
/// a segment completes. The assembled file must be byte-identical to an
/// uninterrupted run — the tentpole's exactness contract, end to end.
#[test]
fn deadline_interrupt_resume_loop_reproduces_the_uninterrupted_stream() {
    use std::process::Stdio;

    let path = write_skewed();
    let scratch = ckpt_scratch("deadline");
    let ck = scratch.join("ck");
    let assembled = scratch.join("assembled.out");

    let full = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "20", "--checkpoint-dir", ck.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));

    let mut deadline = 0.01f64;
    let mut interrupted = 0u32;
    for round in 0.. {
        assert!(round < 40, "resume loop did not converge");
        let out_file =
            std::fs::OpenOptions::new().create(true).append(true).open(&assembled).unwrap();
        let out = Command::new(bin())
            .args([
                path.to_str().unwrap(),
                "--support",
                "20",
                "--checkpoint-dir",
                ck.to_str().unwrap(),
                "--checkpoint-every",
                "1",
                "--resume",
                "--deadline",
                &format!("{deadline}"),
            ])
            .stdout(Stdio::from(out_file))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        match out.status.code() {
            Some(0) => break,
            Some(8) => {
                interrupted += 1;
                // A graceful exit 8 leaves the output exactly at the
                // committed watermark: file length == manifest
                // output_bytes (cumulative across segments).
                if ck.join("ckpt.json").exists() {
                    use cfp_trace::{json, Json};
                    let doc = json::parse(&std::fs::read_to_string(ck.join("ckpt.json")).unwrap())
                        .unwrap();
                    assert_eq!(doc.get("format").and_then(Json::as_str), Some("cfp-ckpt/1"));
                    let watermark = doc.get("output_bytes").and_then(Json::as_u64).unwrap();
                    let len = std::fs::metadata(&assembled).unwrap().len();
                    assert_eq!(len, watermark, "graceful stop must flush to the watermark");
                }
                // Grow the budget so the loop always converges, while
                // the early rounds interrupt mid-stream.
                deadline *= 1.6;
            }
            code => panic!("unexpected exit {code:?}: {stderr}"),
        }
    }
    let joined = std::fs::read(&assembled).unwrap();
    assert_eq!(joined, full.stdout, "assembled segments diverge from the uninterrupted run");
    assert!(!ck.join("ckpt.json").exists(), "completed resume must clear the manifest");
    // The loop is only meaningful if at least one round actually stopped
    // early; with the starting budget of 10ms that is effectively
    // guaranteed on any machine.
    assert!(interrupted > 0, "no segment was ever interrupted — deadline too generous");
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The interrupt–resume loop in closed mode: a checkpointed
/// `--output=closed` run stopped and resumed across wall-clock budget
/// segments must assemble byte for byte into the uninterrupted closed
/// stream. The resumed segments re-derive the closure reconcile state
/// for the skipped prefix silently, so this exercises the quiet-replay
/// machinery end to end (parallel dynamic schedule included).
#[test]
fn closed_mode_interrupt_resume_reproduces_the_uninterrupted_stream() {
    use std::process::Stdio;

    let path = write_skewed();
    let scratch = ckpt_scratch("closed_deadline");
    let ck = scratch.join("ck");
    let assembled = scratch.join("assembled.out");

    let full = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "20",
            "--output=closed",
            "--threads",
            "4",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));

    let mut deadline = 0.01f64;
    let mut interrupted = 0u32;
    for round in 0.. {
        assert!(round < 40, "resume loop did not converge");
        let out_file =
            std::fs::OpenOptions::new().create(true).append(true).open(&assembled).unwrap();
        let out = Command::new(bin())
            .args([
                path.to_str().unwrap(),
                "--support",
                "20",
                "--output=closed",
                "--threads",
                "4",
                "--checkpoint-dir",
                ck.to_str().unwrap(),
                "--checkpoint-every",
                "1",
                "--resume",
                "--deadline",
                &format!("{deadline}"),
            ])
            .stdout(Stdio::from(out_file))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        match out.status.code() {
            Some(0) => break,
            Some(8) => {
                interrupted += 1;
                deadline *= 1.6;
            }
            code => panic!("unexpected exit {code:?}: {stderr}"),
        }
    }
    let joined = std::fs::read(&assembled).unwrap();
    assert_eq!(
        joined, full.stdout,
        "assembled closed segments diverge from the uninterrupted closed run"
    );
    assert!(!ck.join("ckpt.json").exists(), "completed resume must clear the manifest");
    assert!(interrupted > 0, "no segment was ever interrupted — deadline too generous");
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The manifest fingerprints its output mode: resuming a closed-mode
/// checkpoint without `--output=closed` is a structured exit 9 naming
/// the mismatch, and with the matching mode it proceeds.
#[test]
fn resume_under_a_different_output_mode_exits_9() {
    let path = write_sample();
    let scratch = ckpt_scratch("output_mismatch");
    let ck = scratch.join("ck");
    std::fs::create_dir_all(&ck).unwrap();
    let db = cfp_core::TransactionDb::from_rows(&[
        vec![1, 2, 5],
        vec![2, 4],
        vec![2, 3],
        vec![1, 2, 4],
        vec![1, 3],
        vec![2, 3],
        vec![1, 3],
        vec![1, 2, 3, 5],
        vec![1, 2, 3],
    ]);
    let recoder = cfp_core::ItemRecoder::scan(&db, 2);
    cfp_core::ckpt::save(
        &ck,
        &cfp_core::Manifest {
            input: path.to_str().unwrap().to_string(),
            min_support: 2,
            counts: cfp_core::ckpt::counts_fingerprint(&recoder),
            num_items: recoder.num_items() as u64,
            output: "closed".into(),
            progress: cfp_core::CkptProgress::Mono { items_done: 1 },
            output_bytes: 0,
            itemsets: 0,
        },
    )
    .unwrap();
    let resume_with = |extra: &[&str]| {
        let mut args = vec![
            path.to_str().unwrap(),
            "--support",
            "2",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
            "--resume",
        ];
        args.extend_from_slice(extra);
        Command::new(bin()).args(&args).output().unwrap()
    };
    let out = resume_with(&[]);
    assert_eq!(out.status.code(), Some(9));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("output mismatch"), "{stderr}");

    let out = resume_with(&["--output=closed"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&scratch);
}

/// SIGTERM lands mid-mine: the process exits with code 8, the committed
/// manifest is checksum-valid (it round-trips through the strict
/// loader), the flushed output sits exactly at its watermark, and no
/// temp files survive.
#[test]
fn sigterm_mid_mine_exits_8_with_a_committed_valid_manifest() {
    use std::process::Stdio;

    // A dataset heavy enough that the run is reliably still mining when
    // the signal arrives (mining takes several seconds).
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sigterm_heavy.dat");
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut text = String::new();
    for _ in 0..6000 {
        let mut row = Vec::new();
        for i in 0..72u32 {
            if next() < 0.9 / (i as f64 / 4.0 + 1.0) {
                row.push(i.to_string());
            }
        }
        if !row.is_empty() {
            text.push_str(&row.join(" "));
            text.push('\n');
        }
    }
    std::fs::write(&path, text).unwrap();

    let scratch = ckpt_scratch("sigterm");
    let ck = scratch.join("ck");
    let seg1 = scratch.join("seg1.out");
    let child = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "4",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ])
        .stdout(Stdio::from(std::fs::File::create(&seg1).unwrap()))
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Signal once the first periodic manifest is committed, so the run is
    // mining with progress behind it however loaded the machine is (a
    // fixed delay could land in the build phase, before any watermark).
    let first_commit = std::time::Instant::now();
    while !cfp_core::ckpt::manifest_path(&ck).exists() {
        assert!(first_commit.elapsed().as_secs() < 60, "no checkpoint committed within 60 s");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let term = Command::new("kill").args(["-TERM", &child.id().to_string()]).status().unwrap();
    assert!(term.success(), "kill -TERM failed");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(8), "{stderr}");
    assert!(stderr.contains("resumable watermark"), "{stderr}");

    // The manifest must be present, checksum-valid, and point exactly at
    // the flushed output length.
    let manifest = cfp_core::ckpt::load(&ck)
        .expect("manifest must be valid")
        .expect("SIGTERM mid-mine must leave a committed manifest");
    assert_eq!(manifest.output_bytes, std::fs::metadata(&seg1).unwrap().len());
    assert!(manifest.progress.done() > 0, "watermark must show progress");
    for entry in std::fs::read_dir(&ck).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(!name.ends_with(".tmp"), "stray temp file {name}");
    }

    // Resume (in parallel, exercising cross-thread-count resume) and
    // verify the concatenation against an uninterrupted run.
    let seg2 = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "4",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
            "--resume",
            "--threads",
            "4",
        ])
        .output()
        .unwrap();
    assert!(seg2.status.success(), "{}", String::from_utf8_lossy(&seg2.stderr));
    let full =
        Command::new(bin()).args([path.to_str().unwrap(), "--support", "4"]).output().unwrap();
    assert!(full.status.success());
    let mut joined = std::fs::read(&seg1).unwrap();
    joined.extend_from_slice(&seg2.stdout);
    assert_eq!(joined, full.stdout, "kill + resume diverged from the uninterrupted run");
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Resuming against a manifest from a different run is rejected with
/// exit 9 and a diagnostic naming the mismatch.
#[test]
fn resume_with_mismatched_config_exits_9() {
    let path = write_sample();
    let scratch = ckpt_scratch("mismatch");
    let ck = scratch.join("ck");
    std::fs::create_dir_all(&ck).unwrap();
    cfp_core::ckpt::save(
        &ck,
        &cfp_core::Manifest {
            input: path.to_str().unwrap().to_string(),
            min_support: 2,
            counts: "fnv1a:0000000000000000".into(),
            num_items: 5,
            output: "all".into(),
            progress: cfp_core::CkptProgress::Mono { items_done: 2 },
            output_bytes: 0,
            itemsets: 0,
        },
    )
    .unwrap();
    let out = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "2",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(9));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fingerprint mismatch"), "{stderr}");
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A torn (truncated) or bit-flipped manifest is a structured exit 9 —
/// never a panic, never silently trusted.
#[test]
fn torn_or_corrupted_manifest_exits_9() {
    let path = write_sample();
    let scratch = ckpt_scratch("torn");
    let ck = scratch.join("ck");
    std::fs::create_dir_all(&ck).unwrap();
    let manifest = cfp_core::Manifest {
        input: path.to_str().unwrap().to_string(),
        min_support: 2,
        counts: "fnv1a:1111111111111111".into(),
        num_items: 5,
        output: "all".into(),
        progress: cfp_core::CkptProgress::Mono { items_done: 1 },
        output_bytes: 10,
        itemsets: 1,
    };
    cfp_core::ckpt::save(&ck, &manifest).unwrap();
    let manifest_path = ck.join("ckpt.json");
    let full = std::fs::read(&manifest_path).unwrap();

    let mut torn = full.clone();
    torn.truncate(full.len() / 2);
    let mut flipped = full.clone();
    let mid = full.len() / 2;
    flipped[mid] ^= 0xFF;
    for damaged in [torn, flipped] {
        std::fs::write(&manifest_path, &damaged).unwrap();
        let out = Command::new(bin())
            .args([
                path.to_str().unwrap(),
                "--support",
                "2",
                "--checkpoint-dir",
                ck.to_str().unwrap(),
                "--resume",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(9), "{stderr}");
        assert!(!stderr.contains("panic"), "{stderr}");
        assert!(stderr.contains("checkpoint"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The state-directory lockfile: a live owner blocks with exit 10, a
/// stale lock from a dead process is reclaimed transparently.
#[test]
fn locked_checkpoint_dir_exits_10_and_stale_locks_are_reclaimed() {
    let path = write_sample();
    let scratch = ckpt_scratch("lock");
    let ck = scratch.join("ck");
    std::fs::create_dir_all(&ck).unwrap();

    // PID 1 is always alive: the directory is genuinely owned.
    std::fs::write(ck.join("cfp.lock"), "1\n").unwrap();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--checkpoint-dir", ck.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(10), "{stderr}");
    assert!(stderr.contains("locked"), "{stderr}");
    assert!(out.stdout.is_empty(), "a locked run must not mine");

    // A lock naming a dead PID is stale: reclaimed, run succeeds.
    std::fs::write(ck.join("cfp.lock"), "3999999\n").unwrap();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--checkpoint-dir", ck.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A structured failure exits through `std::process::exit`, which runs
/// no destructors: the state-directory locks must still be released, or
/// every failed run would leave `cfp.lock` behind.
#[test]
fn structured_exits_release_state_dir_locks() {
    let path = write_sample();
    let scratch = ckpt_scratch("exit-lock");
    let (ck, sp) = (scratch.join("ck"), scratch.join("sp"));
    let ck_arg = ck.to_str().unwrap();

    // Exit 4: the budget cannot hold the tree.
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--mem-budget", "64"])
        .args(["--checkpoint-dir", ck_arg])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(!ck.join("cfp.lock").exists(), "exit 4 left the checkpoint dir locked");

    // Exit 10 on the spill dir, after the checkpoint dir was claimed:
    // the claimed lock goes, the live owner's stays.
    std::fs::create_dir_all(&sp).unwrap();
    std::fs::write(sp.join("cfp.lock"), "1\n").unwrap();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--recover", "spill"])
        .args(["--checkpoint-dir", ck_arg, "--spill-dir", sp.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(10), "{stderr}");
    assert!(!ck.join("cfp.lock").exists(), "exit 10 left the checkpoint dir locked");
    assert_eq!(std::fs::read_to_string(sp.join("cfp.lock")).unwrap(), "1\n");
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The `core.ckpt.write` failpoint: a permanently failing manifest
/// commit aborts the run with the structured checkpoint error (exit 9)
/// instead of mining on with silently absent crash safety. Skipped
/// when the binary was built without the `fault` feature.
#[test]
fn failing_checkpoint_commit_exits_9_under_the_failpoint() {
    let path = write_skewed();
    let scratch = ckpt_scratch("failpoint");
    let ck = scratch.join("ck");
    let out = Command::new(bin())
        .args([
            path.to_str().unwrap(),
            "--support",
            "20",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ])
        .env("CFP_FAULT", "core.ckpt.write=always")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !cfg!(feature = "fault") {
        // Binary built without failpoints: CFP_FAULT is silently
        // ignored and the run must simply complete.
        assert!(out.status.success(), "{stderr}");
        let _ = std::fs::remove_dir_all(&scratch);
        return;
    }
    assert_eq!(out.status.code(), Some(9), "{stderr}");
    assert!(stderr.contains("core.ckpt.write"), "{stderr}");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn mem_report_requires_the_cfp_algorithm() {
    let path = write_sample();
    let out = Command::new(bin())
        .args([path.to_str().unwrap(), "--support", "2", "--algorithm", "fp", "--mem-report", "x"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--mem-report"), "{stderr}");
}
