//! The fault matrix: every injected failure class in the
//! read → count → build → convert → mine pipeline must surface as a
//! structured [`CfpError`] with its documented exit code — never as a
//! process-killing panic (`should_panic` is deliberately absent here).
//!
//! Compiled only with the `fault` feature, which arms the cfp-fault
//! failpoints in every layer:
//! `cargo test -p cfp-integration --features fault`.

#![cfg(feature = "fault")]

use cfp_core::growth::try_build_tree;
use cfp_core::{CfpGrowthMiner, CountingSink, ParallelCfpGrowthMiner, RecoveryPolicy, Supervisor};
use cfp_data::double_buffer::DoubleBufferedReader;
use cfp_data::{fimi, CfpError, ItemRecoder, Miner, ParsePolicy, TransactionDb};
use cfp_fault::{clear_all, configure, fired, FaultMode};
use cfp_tree::CfpTree;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The failpoint registry is process-global, so every test in this binary
/// serialises through one lock and disarms on entry and exit.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn armed() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear_all();
    guard
}

fn textbook_db() -> TransactionDb {
    TransactionDb::from_rows(&[
        vec![1, 2, 5],
        vec![2, 4],
        vec![2, 3],
        vec![1, 2, 4],
        vec![1, 3],
        vec![2, 3],
        vec![1, 3],
        vec![1, 2, 3, 5],
        vec![1, 2, 3],
    ])
}

/// Class 1 — allocation failure inside the arena ("memman.alloc"):
/// the tree builder reports structured memory exhaustion naming the
/// build phase; with the site disarmed the same build succeeds.
#[test]
fn injected_alloc_failure_fails_the_build_structurally() {
    let _g = armed();
    let db = textbook_db();
    let recoder = ItemRecoder::scan(&db, 2);

    configure("memman.alloc", FaultMode::Nth(1));
    let err = CfpTree::try_from_db(&db, &recoder).expect_err("armed build must fail");
    assert_eq!(fired("memman.alloc"), 1);
    match &err {
        CfpError::MemoryExhausted { phase, .. } => assert_eq!(*phase, "build"),
        other => panic!("expected MemoryExhausted, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 4);

    clear_all();
    let tree = CfpTree::try_from_db(&db, &recoder).expect("disarmed build succeeds");
    assert!(tree.num_nodes() > 0);
}

/// Class 1, later in the build — the failure can strike mid-insert, not
/// just on the first allocation, and is still contained.
#[test]
fn injected_alloc_failure_mid_build_is_still_structured() {
    let _g = armed();
    let db = textbook_db();
    let recoder = ItemRecoder::scan(&db, 2);

    configure("memman.alloc", FaultMode::AfterN(4));
    let err = CfpTree::try_from_db(&db, &recoder).expect_err("armed build must fail");
    assert!(matches!(err, CfpError::MemoryExhausted { phase: "build", .. }), "{err:?}");
    clear_all();
}

/// Class 2 — a real budget overrun (no failpoint): `try_mine` under a
/// 16-byte cap reports exhaustion citing the phase and the limit, and
/// the identical uncapped retry mines normally.
#[test]
fn budget_overrun_reports_limit_and_uncapped_retry_succeeds() {
    let _g = armed();
    let db = textbook_db();

    let capped = CfpGrowthMiner { single_path_opt: true, mem_budget: Some(16) };
    let mut sink = CountingSink::new();
    let err = capped.try_mine(&db, 2, &mut sink).expect_err("16 bytes cannot hold the tree");
    match &err {
        CfpError::MemoryExhausted { phase, limit, .. } => {
            assert_eq!(*phase, "build");
            assert_eq!(*limit, 16);
        }
        other => panic!("expected MemoryExhausted, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 4);

    let uncapped = CfpGrowthMiner { single_path_opt: true, mem_budget: None };
    let mut sink = CountingSink::new();
    let stats = uncapped.try_mine(&db, 2, &mut sink).expect("uncapped retry");
    assert_eq!(sink.count, 13);
    assert_eq!(stats.itemsets, 13);
}

/// Class 3 — a worker panic inside parallel mining ("core.worker"):
/// contained at the thread boundary, reported as `WorkerPanic`, and the
/// process stays healthy enough to rerun the same mine successfully.
#[test]
fn injected_worker_panic_is_contained_and_structured() {
    let _g = armed();
    let db = textbook_db();
    let miner = ParallelCfpGrowthMiner::new(4);

    configure("core.worker", FaultMode::Nth(1));
    let mut sink = CountingSink::new();
    let err = miner.try_mine(&db, 2, &mut sink).expect_err("armed worker must fail");
    assert_eq!(fired("core.worker"), 1);
    match &err {
        CfpError::WorkerPanic { worker, message } => {
            assert!(*worker < 4, "worker index {worker} out of range");
            assert!(message.contains("injected worker fault"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 5);

    clear_all();
    let mut sink = CountingSink::new();
    miner.try_mine(&db, 2, &mut sink).expect("disarmed retry");
    assert_eq!(sink.count, 13);
}

/// Class 3, every worker poisoned: even when the failpoint keeps firing
/// in all workers, exactly one structured error comes back (the poison
/// flag cancels the rest) and nothing escapes as a panic.
#[test]
fn all_workers_failing_still_yields_one_structured_error() {
    let _g = armed();
    let db = textbook_db();
    let miner = ParallelCfpGrowthMiner::new(4);

    configure("core.worker", FaultMode::Always);
    let mut sink = CountingSink::new();
    let err = miner.try_mine(&db, 2, &mut sink).expect_err("all workers fail");
    assert!(matches!(err, CfpError::WorkerPanic { .. }), "{err:?}");
    clear_all();
}

/// Class 4 — an I/O failure mid-stream ("data.read"): the double-buffered
/// reader delivers every chunk parsed before the fault, then surfaces the
/// error through `next_chunk` instead of panicking the reader thread.
#[test]
fn injected_read_failure_delivers_earlier_chunks_then_errors() {
    let _g = armed();
    let mut text = String::new();
    for i in 0..10 {
        text.push_str(&format!("{} {}\n", i, i + 100));
    }

    // Fire on the 5th line read: chunks of 2 mean two full chunks
    // (transactions 0..4) are already in flight when the fault strikes.
    configure("data.read", FaultMode::Nth(5));
    let mut rdr = DoubleBufferedReader::with_policy(
        std::io::Cursor::new(text.into_bytes()),
        2,
        ParsePolicy::Strict,
    );
    let mut delivered = 0;
    let err = loop {
        match rdr.next_chunk() {
            Ok(Some(chunk)) => {
                delivered += chunk.len();
                rdr.recycle(chunk);
            }
            Ok(None) => panic!("stream must end in the injected error"),
            Err(e) => break e,
        }
    };
    assert_eq!(delivered, 4, "chunks before the fault are still delivered");
    assert!(err.to_string().contains("injected I/O failure"), "{err}");
    assert_eq!(fired("data.read"), 1);
    clear_all();
}

/// Class 5 — malformed input (no failpoint needed): strict parsing cites
/// the offending line with exit code 3; skip parsing mines the remainder
/// and accounts for the damage.
#[test]
fn malformed_input_is_structured_in_both_policies() {
    let _g = armed();
    let text = "1 2\n1 notanitem 2\n1 2\n";

    let err = fimi::read_with_policy(text.as_bytes(), ParsePolicy::Strict)
        .expect_err("strict must reject");
    match &err {
        CfpError::Parse { line, message } => {
            assert_eq!(*line, 2);
            assert!(message.contains("notanitem"), "{message}");
        }
        other => panic!("expected Parse, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 3);

    let (db, stats) = fimi::read_with_policy(text.as_bytes(), ParsePolicy::Skip).expect("skip");
    assert_eq!(db.len(), 2);
    assert_eq!(stats.skipped_lines, 1);
    assert_eq!(stats.bad_tokens, 1);

    // The surviving transactions still mine end to end.
    let mut sink = CountingSink::new();
    let (recoder, tree) = try_build_tree(&db, 2, None).expect("build");
    assert!(tree.num_nodes() > 0);
    CfpGrowthMiner::new().try_mine(&db, 2, &mut sink).expect("mine");
    assert_eq!(sink.count, 3); // {1}, {2}, {1 2}
    assert_eq!(recoder.num_items(), 2);
}

/// Class 6 — the recovery ladder under a fault that never clears: every
/// rung is attempted at most once, in order, and when the whole ladder
/// fails the supervisor returns the final structured error instead of
/// looping forever.
#[test]
fn persistent_alloc_fault_climbs_each_rung_exactly_once() {
    let _g = armed();
    let db = textbook_db();

    configure("memman.alloc", FaultMode::Always);
    let supervisor = Supervisor {
        threads: 4,
        mem_budget: Some(1 << 20),
        ..Supervisor::new(RecoveryPolicy::Partition)
    };
    let mut sink = CountingSink::new();
    let (result, report) = supervisor.mine(&db, 2, &mut sink);
    let err = result.expect_err("nothing can allocate while the site is armed");
    assert_eq!(err.exit_code(), 4, "{err:?}");
    assert!(!report.recovered);
    let rungs: Vec<&str> = report.rungs.iter().map(|r| r.rung).collect();
    assert_eq!(rungs, ["retry", "degrade", "partition"], "each rung once, in order");
    assert!(report.rungs.iter().all(|r| !r.succeeded));
    assert_eq!(sink.count, 0, "failed attempts must not leak output to the caller");

    // Disarmed, the identical supervisor mines healthily with no rungs.
    clear_all();
    let mut sink = CountingSink::new();
    let (result, report) = supervisor.mine(&db, 2, &mut sink);
    result.expect("disarmed retry");
    assert!(report.rungs.is_empty());
    assert_eq!(sink.count, 13);
}

/// Class 7 — a wedged worker ("core.worker.stall"): the watchdog detects
/// the missing heartbeat, cancels the siblings, and reports a structured
/// timeout naming the worker — promptly, not at some OS-level deadline.
/// A one-worker run has the same watchdog as a four-worker one.
#[test]
fn stalled_worker_trips_the_watchdog_and_cancels_siblings() {
    let _g = armed();
    let db = textbook_db();
    for threads in [1, 4] {
        let miner = ParallelCfpGrowthMiner {
            worker_timeout: Some(Duration::from_millis(250)),
            ..ParallelCfpGrowthMiner::new(threads)
        };

        configure("core.worker.stall", FaultMode::Nth(1));
        let mut sink = CountingSink::new();
        let start = Instant::now();
        let err = miner.try_mine(&db, 2, &mut sink).expect_err("stall must trip the watchdog");
        let elapsed = start.elapsed();
        match &err {
            CfpError::WorkerTimeout { worker, waited_ms } => {
                assert!(*worker < threads, "worker index {worker} out of range");
                assert!(*waited_ms > 0, "waited_ms must report the stall window");
            }
            other => panic!("expected WorkerTimeout at {threads} worker(s), got {other:?}"),
        }
        assert_eq!(err.exit_code(), 6);
        assert!(
            elapsed < Duration::from_secs(10),
            "siblings must be cancelled promptly: {elapsed:?}"
        );

        // Disarmed, the same watchdog-equipped miner completes healthily.
        clear_all();
        let mut sink = CountingSink::new();
        miner.try_mine(&db, 2, &mut sink).expect("disarmed retry");
        assert_eq!(sink.count, 13);
    }
}

/// A unique spill parent directory for one test, plus the supervisor
/// that spills into it. Each spill-rung test asserts the parent is left
/// empty — the per-run subdirectory must vanish on every exit path.
fn spill_setup(tag: &str) -> (std::path::PathBuf, Supervisor) {
    let parent = std::env::temp_dir().join(format!("cfp-fault-spill-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&parent);
    let sup =
        Supervisor { spill_dir: Some(parent.clone()), ..Supervisor::new(RecoveryPolicy::Spill) };
    (parent, sup)
}

fn assert_spill_dir_clean(parent: &std::path::Path) {
    let leftovers = std::fs::read_dir(parent).map(|it| it.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "spill parent {parent:?} must hold no stray temp state");
    let _ = std::fs::remove_dir_all(parent);
}

/// Class 8 — ENOSPC on the very first spill write ("data.spill.write"):
/// the out-of-core rung fails as a structured `Spill` error with exit
/// code 7 naming the write, and no temp file survives. Disarmed, the
/// identical run mines the exact result.
#[test]
fn injected_enospc_on_first_spill_write_is_structured_and_clean() {
    let _g = armed();
    let db = textbook_db();
    let (parent, sup) = spill_setup("enospc");

    configure("data.spill.write", FaultMode::Nth(1));
    let mut sink = CountingSink::new();
    let (result, report) = sup.mine_out_of_core(&db, 2, &mut sink);
    let err = result.expect_err("disk-full must fail the spill rung");
    assert_eq!(fired("data.spill.write"), 1);
    match &err {
        CfpError::Spill { op, message, .. } => {
            assert_eq!(*op, "write");
            assert!(message.contains("injected disk-full"), "{message}");
        }
        other => panic!("expected Spill, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 7);
    assert!(!report.recovered);
    assert_eq!(sink.count, 0, "no partial output on failure");
    assert_spill_dir_clean(&parent);

    clear_all();
    let (parent, sup) = spill_setup("enospc-ok");
    let mut sink = CountingSink::new();
    let (result, _) = sup.mine_out_of_core(&db, 2, &mut sink);
    result.expect("disarmed spill run");
    assert_eq!(sink.count, 13);
    assert_spill_dir_clean(&parent);
}

/// Class 8 — a short write striking a later partition mid-run: already
/// spilled files do not rescue the run, the error is still structured,
/// and the whole spill directory (including the good files) is removed.
#[test]
fn short_write_mid_partition_is_structured_and_clean() {
    let _g = armed();
    let db = textbook_db();
    let (parent, sup) = spill_setup("short");

    configure("data.spill.write", FaultMode::Nth(2));
    let mut sink = CountingSink::new();
    let (result, _) = sup.mine_out_of_core(&db, 2, &mut sink);
    let err = result.expect_err("second partition's write must fail");
    assert!(matches!(err, CfpError::Spill { op: "write", .. }), "{err:?}");
    assert_eq!(err.exit_code(), 7);
    assert_eq!(sink.count, 0);
    assert_spill_dir_clean(&parent);
    clear_all();
}

/// Class 8 — a read failure while loading a partition back
/// ("data.spill.read"): structured `Spill { op: "read" }`, exit code 7,
/// clean directory.
#[test]
fn injected_spill_read_failure_is_structured_and_clean() {
    let _g = armed();
    let db = textbook_db();
    let (parent, sup) = spill_setup("read");

    configure("data.spill.read", FaultMode::Nth(1));
    let mut sink = CountingSink::new();
    let (result, _) = sup.mine_out_of_core(&db, 2, &mut sink);
    let err = result.expect_err("read fault must fail the mine phase");
    match &err {
        CfpError::Spill { op, message, .. } => {
            assert_eq!(*op, "read");
            assert!(message.contains("injected read failure"), "{message}");
        }
        other => panic!("expected Spill, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 7);
    assert_spill_dir_clean(&parent);
    clear_all();
}

/// Class 8 — a torn read ("data.spill.map" flips one loaded byte): the
/// format checksum catches the corruption and maps it to
/// `Spill { op: "map" }` instead of mining garbage.
#[test]
fn torn_spill_read_is_caught_by_the_checksum() {
    let _g = armed();
    let db = textbook_db();
    let (parent, sup) = spill_setup("torn");

    configure("data.spill.map", FaultMode::Always);
    let mut sink = CountingSink::new();
    let (result, _) = sup.mine_out_of_core(&db, 2, &mut sink);
    let err = result.expect_err("corrupt bytes must not mine");
    match &err {
        CfpError::Spill { op, message, .. } => {
            assert_eq!(*op, "map");
            assert!(message.contains("checksum"), "{message}");
        }
        other => panic!("expected Spill, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 7);
    assert_spill_dir_clean(&parent);
    clear_all();
}

/// Class 8 — a worker panic inside the spill rung's mine phase
/// ("core.worker"): contained as `WorkerPanic` (exit code 5) and the
/// RAII guard still removes the spill directory on the unwind path.
#[test]
fn worker_panic_in_the_spill_rung_still_cleans_the_directory() {
    let _g = armed();
    let db = textbook_db();
    let (parent, sup) = spill_setup("panic");

    configure("core.worker", FaultMode::Nth(1));
    let mut sink = CountingSink::new();
    let (result, _) = sup.mine_out_of_core(&db, 2, &mut sink);
    let err = result.expect_err("armed worker must fail");
    assert!(matches!(err, CfpError::WorkerPanic { .. }), "{err:?}");
    assert_eq!(err.exit_code(), 5);
    assert_spill_dir_clean(&parent);
    clear_all();
}

/// Class 9 — a failing manifest commit ("core.ckpt.write"): a
/// checkpointing sink that propagates the commit failure through
/// `progress()` aborts the run with the structured `Checkpoint` error
/// (exit code 9) — mining never continues with silently absent crash
/// safety — and with the site disarmed the same save succeeds.
#[test]
fn injected_checkpoint_write_failure_aborts_structurally() {
    use cfp_core::{ckpt, CkptProgress, Manifest};

    let _g = armed();
    let db = textbook_db();
    let dir = std::env::temp_dir().join(format!("cfp-fault-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    /// Commits a manifest at every watermark, surfacing save failures
    /// through `progress()` exactly as the CLI's checkpoint sink does.
    struct CommitSink {
        inner: CountingSink,
        dir: std::path::PathBuf,
    }
    impl cfp_data::ItemsetSink for CommitSink {
        fn emit(&mut self, itemset: &[cfp_data::Item], support: u64) {
            self.inner.emit(itemset, support);
        }
        fn progress(&mut self, progress: cfp_data::MineProgress<'_>) -> Result<(), CfpError> {
            let cfp_data::MineProgress::Items { done } = progress else { return Ok(()) };
            ckpt::save(
                &self.dir,
                &Manifest {
                    input: "textbook".into(),
                    min_support: 2,
                    counts: "fnv1a:0".into(),
                    num_items: 5,
                    output: "all".into(),
                    progress: CkptProgress::Mono { items_done: done },
                    output_bytes: 0,
                    itemsets: self.inner.count,
                },
            )
            .map(|_| ())
        }
    }

    configure("core.ckpt.write", FaultMode::Nth(1));
    let mut sink = CommitSink { inner: CountingSink::new(), dir: dir.clone() };
    let err = CfpGrowthMiner::new()
        .try_mine(&db, 2, &mut sink)
        .expect_err("armed manifest commit must abort the run");
    assert_eq!(fired("core.ckpt.write"), 1);
    assert!(matches!(err, CfpError::Checkpoint { .. }), "{err:?}");
    assert_eq!(err.exit_code(), 9);
    // A fired write failure must not leave a torn manifest behind: the
    // atomic protocol fails before the rename.
    assert!(ckpt::load(&dir).unwrap_or(None).is_none(), "a failed commit left a manifest behind");

    clear_all();
    let mut sink = CommitSink { inner: CountingSink::new(), dir: dir.clone() };
    CfpGrowthMiner::new().try_mine(&db, 2, &mut sink).expect("disarmed commit must succeed");
    assert!(ckpt::load(&dir).unwrap().is_some(), "disarmed run must have committed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cross-class: an armed-but-never-fired probabilistic site (p = 0) must
/// not perturb mining at all — the fault harness itself is inert until a
/// trigger actually fires.
#[test]
fn armed_but_silent_sites_do_not_change_results() {
    let _g = armed();
    let db = textbook_db();

    let mut baseline = CountingSink::new();
    CfpGrowthMiner::new().try_mine(&db, 2, &mut baseline).expect("baseline");

    for site in ["memman.alloc", "core.worker", "data.read"] {
        configure(site, FaultMode::Probability { p: 0.0, seed: 7 });
    }
    let mut armed_run = CountingSink::new();
    ParallelCfpGrowthMiner::new(3)
        .try_mine(&db, 2, &mut armed_run)
        .expect("silent sites must not fail the run");
    assert_eq!(armed_run.count, baseline.count);
    clear_all();
}
