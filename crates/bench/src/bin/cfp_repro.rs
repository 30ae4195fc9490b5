//! `cfp-repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! cfp-repro [--csv DIR] <experiment> [...]
//!   table1 table2 table3      field statistics and dataset summary
//!   fig6a fig6b               node-size measurements
//!   fig7                      Quest1 sweep: 7(a)-7(d) from one run
//!   fig8a                     Quest1, all algorithms (time + memory)
//!   fig8d                     Quest2, all algorithms (time + memory)
//!   summary                   headline compression ratios
//!   ablation                  chain/embedding techniques toggled off
//!   capacity                  in-core capacity at a 64 MiB budget (§4.4)
//!   parallel                  mine-phase scaling with worker threads
//!   skew                      round-robin deal vs dynamic scheduling on
//!                             a skewed dataset; with --csv also writes
//!                             the dynamic run's cfp-profile/3 JSON
//!   profile                   traced CFP run on Quest1, written as a
//!                             cfp-profile/3 JSON document
//!   all                       everything above
//!
//! cfp-repro bench [--out DIR]
//!   Runs the fixed benchmark set and writes one cfp-bench/1 snapshot
//!   per benchmark as DIR/BENCH_<name>.json (default DIR: results/).
//!   Every run is armed with an attribution pool, so snapshots carry a
//!   per-component memory summary alongside the timings.
//!
//! cfp-repro compare BASELINE CANDIDATE [--threshold PCT]
//!   Diffs two snapshot files and exits 1 when the candidate regressed
//!   more than PCT percent (default 25) on wall time, peak bytes, any
//!   phase, the pool peak or any attribution component — or mined a
//!   different itemset count, or failed its memory audit.
//!
//! cfp-repro ckpt-trim OUTPUT CKPT_DIR
//!   Prepares a crashed checkpointed run's output file for `--resume`:
//!   truncates OUTPUT to the durable watermark recorded in CKPT_DIR's
//!   manifest (to zero when no manifest was committed), discarding any
//!   bytes written past the last commit. Rejects an invalid manifest
//!   with exit 9 and an output file shorter than its watermark with
//!   exit 9 (the stream lost committed bytes; resume would be wrong).
//!
//! cfp-repro ckpt-info CKPT_DIR
//!   Prints the validated manifest JSON, or fails with its structured
//!   error (exit 9 on a torn/corrupt manifest, 1 when none exists).
//!
//! cfp-repro postmortem BLACKBOX
//!   Verifies a `cfp-blackbox/2` flight-recorder dump's checksum and
//!   renders it as a readable report: the fatal error and exit code,
//!   run context, phase times, latency percentiles, memory state,
//!   degradation rungs, counters, and the last events per thread.
//!   BLACKBOX is the blackbox.json file or the directory holding it.
//!   Exits 1 when the file is unreadable, corrupt, or mis-checksummed.
//!
//! cfp-repro inspect [--out PATH] [--support N] PROFILE
//!   Mines a synthetic dataset profile sequentially with an attribution
//!   pool and emits the cfp-memstat/1 document (stdout by default):
//!   per-component peaks, the reconciliation audit, structure
//!   analytics, the compression table against FP-tree baselines, and
//!   the mine-phase distributions. N is an absolute support; the
//!   default is the profile's high-support level.
//! ```
//!
//! With `--csv DIR`, every produced table is additionally written to
//! `DIR/<table-id>.csv` for external plotting.
//!
//! Environment: `CFP_BUDGET_SECS` (default 20) bounds a single algorithm
//! run in fig8 sweeps; slower algorithms are skipped at lower supports.

use cfp_bench::experiments::{self, QuestSet};
use cfp_bench::report::Table;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `bench` and `compare` are subcommands with their own flags, not
    // experiments; dispatch them before --csv handling.
    match args.first().map(String::as_str) {
        Some("bench") => run_bench(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some("inspect") => run_inspect(&args[1..]),
        Some("ckpt-trim") => run_ckpt_trim(&args[1..]),
        Some("ckpt-info") => run_ckpt_info(&args[1..]),
        Some("postmortem") => run_postmortem(&args[1..]),
        _ => {}
    }
    let mut csv_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        if pos + 1 >= args.len() {
            eprintln!("--csv requires a directory");
            std::process::exit(2);
        }
        csv_dir = Some(PathBuf::from(args.remove(pos + 1)));
        args.remove(pos);
    }
    if args.is_empty() {
        eprintln!(
            "usage: cfp-repro [--csv DIR] <table1|table2|table3|fig6a|fig6b|fig7|fig8a|fig8d|summary|ablation|capacity|parallel|skew|profile|all> ...\n       cfp-repro bench [--out DIR]\n       cfp-repro compare BASELINE CANDIDATE [--threshold PCT]\n       cfp-repro inspect [--out PATH] [--support N] PROFILE\n       cfp-repro ckpt-trim OUTPUT CKPT_DIR\n       cfp-repro ckpt-info CKPT_DIR\n       cfp-repro postmortem BLACKBOX"
        );
        std::process::exit(2);
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    for arg in &args {
        run(arg, csv_dir.as_deref());
    }
}

fn emit(id: &str, table: &Table, csv_dir: Option<&std::path::Path>) {
    println!("{}", table.render());
    if let Some(dir) = csv_dir {
        let path = dir.join(format!("{id}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn run(name: &str, csv_dir: Option<&std::path::Path>) {
    let start = Instant::now();
    match name {
        "table1" => emit("table1", &experiments::table1(), csv_dir),
        "table2" => emit("table2", &experiments::table2(), csv_dir),
        "table3" => emit("table3", &experiments::table3(), csv_dir),
        "fig6a" => emit("fig6a", &experiments::fig6a(), csv_dir),
        "fig6b" => emit("fig6b", &experiments::fig6b(), csv_dir),
        "fig7" => {
            let rows = experiments::fig7_sweep(None);
            emit("fig7a", &experiments::fig7a(&rows), csv_dir);
            emit("fig7b", &experiments::fig7b(&rows), csv_dir);
            emit("fig7c", &experiments::fig7c(&rows), csv_dir);
            emit("fig7d", &experiments::fig7d(&rows), csv_dir);
        }
        "fig8a" => {
            let (t, m) = experiments::fig8(QuestSet::Quest1, None);
            emit("fig8a_time", &t, csv_dir);
            emit("fig8b_memory", &m, csv_dir);
        }
        "fig8d" => {
            let (t, m) = experiments::fig8(QuestSet::Quest2, None);
            emit("fig8d_time", &t, csv_dir);
            emit("fig8d_memory", &m, csv_dir);
        }
        "summary" => emit("summary", &experiments::compression_summary(), csv_dir),
        "ablation" => emit("ablation", &experiments::ablation(), csv_dir),
        "capacity" => emit("capacity", &experiments::capacity(64 * 1024 * 1024), csv_dir),
        "parallel" => emit("parallel", &experiments::parallel_scaling(), csv_dir),
        "skew" => {
            emit("skew", &experiments::skew(), csv_dir);
            // A cfp-profile/3 document of the dynamic run, so the steal
            // and arena-reset counters are inspectable machine-readably.
            let p = cfp_data::profiles::by_name("kosarak-like").expect("profile exists");
            let db = p.generate();
            let minsup = p.absolute_support(&db, 2);
            let miner = cfp_core::ParallelCfpGrowthMiner::new(4);
            let schedule = cfp_core::Schedule::Dynamic.name();
            let mut report = cfp_bench::report::profile_run(&miner, &db, "kosarak-like", minsup, 4);
            report.schedule = Some(schedule.into());
            let name = format!("profile_skew_{schedule}.json");
            let path = csv_dir.map(|d| d.join(&name)).unwrap_or_else(|| PathBuf::from(&name));
            if let Err(e) = std::fs::write(&path, report.to_json().to_pretty()) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!(
                "profile: kosarak-like {schedule} schedule  itemsets {}  -> {}",
                report.itemsets,
                path.display()
            );
        }
        "profile" => {
            let db = cfp_data::profiles::by_name("quest1").expect("profile exists").generate();
            let minsup = ((db.len() as f64 * 0.02).ceil() as u64).max(1);
            let miner = cfp_core::CfpGrowthMiner::new();
            let report = cfp_bench::report::profile_run(&miner, &db, "quest1", minsup, 1);
            let path = csv_dir
                .map(|d| d.join("profile_quest1.json"))
                .unwrap_or_else(|| PathBuf::from("profile_quest1.json"));
            if let Err(e) = std::fs::write(&path, report.to_json().to_pretty()) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!(
                "profile: quest1 minsup {minsup}  itemsets {}  wall {:.3}s  -> {}",
                report.itemsets,
                report.wall_nanos as f64 / 1e9,
                path.display()
            );
        }
        "all" => {
            for e in [
                "table1", "table2", "table3", "fig6a", "fig6b", "fig7", "fig8a", "fig8d",
                "summary", "ablation", "capacity", "parallel", "skew", "profile",
            ] {
                run(e, csv_dir);
            }
            return;
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }
    eprintln!("[{name} took {:.1}s]", start.elapsed().as_secs_f64());
}

/// Arms the sequential miner with an attribution pool: every arena the
/// run carves is charged to the pool's per-component gauges, while the
/// unlimited budget keeps admission — and therefore the mined output —
/// identical to an unpooled run.
struct PooledMiner {
    inner: cfp_core::CfpGrowthMiner,
    pool: cfp_memman::BudgetPool,
}

impl cfp_data::Miner for PooledMiner {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mine(
        &self,
        db: &cfp_data::TransactionDb,
        min_support: u64,
        sink: &mut dyn cfp_data::ItemsetSink,
    ) -> cfp_data::MineStats {
        let opts = cfp_core::MineOpts { pool: Some(self.pool.clone()), ..Default::default() };
        self.inner
            .try_mine_with(db, min_support, sink, &opts)
            .expect("an unlimited attribution pool admits every reservation")
    }
}

/// FP-tree baselines for the compression table, built from the same
/// item counts the CFP structures use.
fn fp_baselines(db: &cfp_data::TransactionDb, min_support: u64) -> cfp_core::FpBaselineBytes {
    let recoder = cfp_core::ItemRecoder::scan(db, min_support);
    let fp = cfp_fptree::FpTree::from_db(db, &recoder);
    let b = cfp_fptree::analysis::baselines(&fp);
    cfp_core::FpBaselineBytes {
        nodes: b.nodes,
        in_memory_bytes: b.in_memory_bytes,
        paper_bytes: b.paper_bytes,
        nonordfp_bytes: b.nonordfp_bytes,
    }
}

/// One entry of the fixed benchmark set `cfp-repro bench` snapshots.
/// A parallel CFP run that also commits `cfp-ckpt/1` manifests at its
/// progress boundaries — the checkpointed benchmark. Output goes to the
/// harness's counting sink (no stdout), so the snapshot's wall-time
/// delta against the identical uncheckpointed run isolates the cost of
/// the commit protocol itself.
struct CkptMiner {
    inner: cfp_core::ParallelCfpGrowthMiner,
    dataset: &'static str,
    dir: PathBuf,
    every: u64,
}

/// Forwards emissions and commits a manifest every `every` completed
/// resume units.
struct CkptAdapter<'a> {
    inner: &'a mut dyn cfp_data::ItemsetSink,
    dir: &'a std::path::Path,
    every: u64,
    template: cfp_core::Manifest,
    emitted: u64,
    last: u64,
}

impl cfp_data::ItemsetSink for CkptAdapter<'_> {
    fn emit(&mut self, itemset: &[u32], support: u64) {
        self.emitted += 1;
        self.inner.emit(itemset, support);
    }

    fn progress(&mut self, p: cfp_data::MineProgress<'_>) -> Result<(), cfp_data::CfpError> {
        let snapshot = match p {
            cfp_data::MineProgress::Items { done } => {
                cfp_core::CkptProgress::Mono { items_done: done }
            }
            cfp_data::MineProgress::SpillParts { done, remaining } => {
                cfp_core::CkptProgress::Spill { parts_done: done, remaining: remaining.to_vec() }
            }
        };
        let done = snapshot.done();
        if done >= self.last + self.every {
            let manifest = cfp_core::Manifest {
                progress: snapshot,
                itemsets: self.emitted,
                ..self.template.clone()
            };
            cfp_core::ckpt::save(self.dir, &manifest)?;
            self.last = done;
        }
        Ok(())
    }
}

impl cfp_data::Miner for CkptMiner {
    fn name(&self) -> &'static str {
        "cfp-parallel-ckpt"
    }

    fn mine(
        &self,
        db: &cfp_data::TransactionDb,
        min_support: u64,
        sink: &mut dyn cfp_data::ItemsetSink,
    ) -> cfp_data::MineStats {
        self.try_mine(db, min_support, sink).expect("checkpointed bench run failed")
    }

    fn try_mine(
        &self,
        db: &cfp_data::TransactionDb,
        min_support: u64,
        sink: &mut dyn cfp_data::ItemsetSink,
    ) -> Result<cfp_data::MineStats, cfp_data::CfpError> {
        std::fs::create_dir_all(&self.dir)?;
        let recoder = cfp_data::ItemRecoder::scan(db, min_support);
        let template = cfp_core::Manifest {
            input: self.dataset.to_string(),
            min_support,
            counts: cfp_core::ckpt::counts_fingerprint(&recoder),
            num_items: recoder.num_items() as u64,
            output: "all".to_string(),
            progress: cfp_core::CkptProgress::Mono { items_done: 0 },
            output_bytes: 0,
            itemsets: 0,
        };
        let mut adapter = CkptAdapter {
            inner: sink,
            dir: &self.dir,
            every: self.every,
            template,
            emitted: 0,
            last: 0,
        };
        let stats = self.inner.try_mine(db, min_support, &mut adapter)?;
        cfp_core::ckpt::clear(&self.dir);
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(stats)
    }
}

struct Bench {
    name: &'static str,
    miner: Box<dyn cfp_data::Miner>,
    dataset: &'static str,
    minsup: u64,
    threads: u64,
    /// The attribution pool the miner above is armed with; read back
    /// after the run for the snapshot's memory summary.
    pool: cfp_memman::BudgetPool,
}

/// The fixed benchmark set: one sequential, one parallel-with-steals,
/// and one dense workload, all deterministic.
fn bench_set() -> Vec<Bench> {
    let quest1 = cfp_data::profiles::by_name("quest1").expect("profile exists");
    let kosarak = cfp_data::profiles::by_name("kosarak-like").expect("profile exists");
    let connect = cfp_data::profiles::by_name("connect-like").expect("profile exists");
    let q_db = quest1.generate();
    let k_db = kosarak.generate();
    let c_db = connect.generate();
    let q_pool = cfp_memman::BudgetPool::unlimited();
    let k_pool = cfp_memman::BudgetPool::unlimited();
    let kc_pool = cfp_memman::BudgetPool::unlimited();
    let kcl_pool = cfp_memman::BudgetPool::unlimited();
    let c_pool = cfp_memman::BudgetPool::unlimited();
    vec![
        Bench {
            name: "quest1-seq",
            miner: Box::new(PooledMiner {
                inner: cfp_core::CfpGrowthMiner::new(),
                pool: q_pool.clone(),
            }),
            dataset: "quest1",
            minsup: ((q_db.len() as f64 * 0.02).ceil() as u64).max(1),
            threads: 1,
            pool: q_pool,
        },
        Bench {
            name: "kosarak-par4",
            miner: Box::new(cfp_core::ParallelCfpGrowthMiner {
                schedule: cfp_core::Schedule::Dynamic,
                pool: Some(k_pool.clone()),
                ..cfp_core::ParallelCfpGrowthMiner::new(4)
            }),
            dataset: "kosarak-like",
            minsup: kosarak.absolute_support(&k_db, 2),
            threads: 4,
            pool: k_pool,
        },
        Bench {
            // kosarak-par4 with the checkpoint commit protocol armed:
            // the wall-time delta between the two snapshots is the
            // price of crash safety (manifest commits at watermark
            // boundaries), pinned by results/BENCH_kosarak-ckpt.json.
            name: "kosarak-ckpt",
            miner: Box::new(CkptMiner {
                inner: cfp_core::ParallelCfpGrowthMiner {
                    schedule: cfp_core::Schedule::Dynamic,
                    pool: Some(kc_pool.clone()),
                    ..cfp_core::ParallelCfpGrowthMiner::new(4)
                },
                dataset: "kosarak-like",
                dir: std::env::temp_dir().join(format!("cfp-bench-ckpt-{}", std::process::id())),
                every: 32,
            }),
            dataset: "kosarak-like",
            minsup: kosarak.absolute_support(&k_db, 2),
            threads: 4,
            pool: kc_pool,
        },
        Bench {
            // kosarak-par4 in first-class closed mode: the wall-time
            // delta against kosarak-par4 prices the in-recursion
            // closure checks plus the ordered-emitter reconcile, pinned
            // by results/BENCH_kosarak-closed.json.
            name: "kosarak-closed",
            miner: Box::new(cfp_core::ParallelCfpGrowthMiner {
                schedule: cfp_core::Schedule::Dynamic,
                pool: Some(kcl_pool.clone()),
                output: cfp_core::OutputMode::Closed,
                ..cfp_core::ParallelCfpGrowthMiner::new(4)
            }),
            dataset: "kosarak-like",
            minsup: kosarak.absolute_support(&k_db, 2),
            threads: 4,
            pool: kcl_pool,
        },
        Bench {
            name: "connect-seq",
            miner: Box::new(PooledMiner {
                inner: cfp_core::CfpGrowthMiner::new(),
                pool: c_pool.clone(),
            }),
            dataset: "connect-like",
            minsup: connect.absolute_support(&c_db, 0),
            threads: 1,
            pool: c_pool,
        },
    ]
}

/// `cfp-repro ckpt-trim OUTPUT CKPT_DIR` — truncate a crashed run's
/// output file to its manifest's durable watermark so `--resume` can
/// append to it byte-exactly. A crash (SIGKILL, power loss) can leave
/// auto-flushed bytes past the last committed manifest; those are
/// exactly the bytes a resumed run will re-emit, so they must go.
fn run_ckpt_trim(args: &[String]) -> ! {
    let [output, dir] = args else {
        eprintln!("usage: cfp-repro ckpt-trim OUTPUT CKPT_DIR");
        std::process::exit(2);
    };
    let watermark = match cfp_core::ckpt::load(std::path::Path::new(dir)) {
        Ok(Some(m)) => {
            println!(
                "manifest: {} unit(s) done ({} mode), watermark {} byte(s)",
                m.progress.done(),
                m.progress.mode(),
                m.output_bytes
            );
            m.output_bytes
        }
        // No commit ever happened: everything in the file is
        // uncommitted and the fresh run re-emits it all.
        Ok(None) => {
            println!("no manifest in {dir}; trimming {output} to 0 bytes");
            0
        }
        Err(e) => {
            eprintln!("cfp-repro: {e}");
            std::process::exit(e.exit_code());
        }
    };
    let file =
        match std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(output) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cfp-repro: cannot open {output}: {e}");
                std::process::exit(1);
            }
        };
    let len = file.metadata().map(|m| m.len()).unwrap_or(0);
    if len < watermark {
        eprintln!(
            "cfp-repro: {output} holds {len} byte(s) but the manifest committed {watermark}: \
             the output lost durable bytes, resume would corrupt the stream"
        );
        std::process::exit(9);
    }
    if let Err(e) = file.set_len(watermark) {
        eprintln!("cfp-repro: cannot truncate {output}: {e}");
        std::process::exit(1);
    }
    println!("trimmed {output}: {len} -> {watermark} byte(s)");
    std::process::exit(0);
}

/// `cfp-repro ckpt-info CKPT_DIR` — print the validated manifest.
fn run_ckpt_info(args: &[String]) -> ! {
    let [dir] = args else {
        eprintln!("usage: cfp-repro ckpt-info CKPT_DIR");
        std::process::exit(2);
    };
    match cfp_core::ckpt::load(std::path::Path::new(dir)) {
        Ok(Some(m)) => {
            print!("{}", m.to_json_text());
            std::process::exit(0);
        }
        Ok(None) => {
            eprintln!("cfp-repro: no checkpoint manifest in {dir}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("cfp-repro: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

/// `cfp-repro postmortem BLACKBOX` — verify and render a flight-recorder
/// dump. Accepts the blackbox.json file itself or the `--blackbox`
/// directory that contains it.
fn run_postmortem(args: &[String]) -> ! {
    let [path] = args else {
        eprintln!("usage: cfp-repro postmortem BLACKBOX");
        std::process::exit(2);
    };
    let mut path = PathBuf::from(path);
    if path.is_dir() {
        path = path.join("blackbox.json");
    }
    match cfp_trace::blackbox::load(&path) {
        Ok(doc) => {
            print!("{}", cfp_trace::blackbox::render(&doc));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("cfp-repro: {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// `cfp-repro bench [--out DIR]` — snapshot the fixed benchmark set.
fn run_bench(args: &[String]) -> ! {
    let mut out_dir = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown bench argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    for Bench { name, miner, dataset, minsup, threads, pool } in bench_set() {
        let db = cfp_data::profiles::by_name(dataset).expect("profile exists").generate();
        let report = cfp_bench::report::profile_run(miner.as_ref(), &db, dataset, minsup, threads);
        // A post-run analytics pass over the same pool: the snapshot
        // carries per-component peaks and the reconciliation verdict.
        let run = cfp_core::MemStatRun { dataset, algorithm: miner.name(), threads };
        let memstat =
            cfp_core::collect_memstat(&db, minsup, &run, &pool, Some(fp_baselines(&db, minsup)))
                .unwrap_or_else(|e| {
                    eprintln!("bench {name}: memory attribution failed: {e}");
                    std::process::exit(1);
                });
        let snap = cfp_bench::snapshot::BenchSnapshot::from_report(name, &report)
            .with_memstat(memstat.summary());
        let path = out_dir.join(format!("BENCH_{name}.json"));
        if let Err(e) = std::fs::write(&path, snap.to_json().to_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "bench: {name}  itemsets {}  wall {:.3}s  peak {} MiB  steals {}  audit {}  -> {}",
            snap.itemsets,
            snap.wall_nanos as f64 / 1e9,
            cfp_bench::report::mib(snap.peak_bytes),
            snap.steals,
            if snap.memstat.as_ref().is_some_and(|m| m.reconciled) { "ok" } else { "FAILED" },
            path.display()
        );
    }
    std::process::exit(0);
}

/// `cfp-repro inspect [--out PATH] [--support N] PROFILE` — mine one
/// profile with an attribution pool and emit the cfp-memstat/1 report.
fn run_inspect(args: &[String]) -> ! {
    let mut out: Option<PathBuf> = None;
    let mut support: Option<u64> = None;
    let mut profile_name: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            "--support" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => support = Some(n),
                _ => {
                    eprintln!("--support requires a positive absolute count");
                    std::process::exit(2);
                }
            },
            other if profile_name.is_none() && !other.starts_with('-') => {
                profile_name = Some(other.to_string());
            }
            other => {
                eprintln!("unknown inspect argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let Some(name) = profile_name else {
        eprintln!("usage: cfp-repro inspect [--out PATH] [--support N] PROFILE");
        std::process::exit(2);
    };
    let Some(profile) = cfp_data::profiles::by_name(&name) else {
        let known: Vec<&str> = cfp_data::profiles::all().iter().map(|p| p.name).collect();
        eprintln!("unknown profile {name:?}; known profiles: {}", known.join(", "));
        std::process::exit(2);
    };
    let db = profile.generate();
    let minsup = support.unwrap_or_else(|| profile.absolute_support(&db, 0));
    // Mine with the pool armed so the mine-phase histograms and the
    // cond-tree/cond-array components are populated, then run the
    // analytics pass over the same pool.
    let pool = cfp_memman::BudgetPool::unlimited();
    let miner = PooledMiner { inner: cfp_core::CfpGrowthMiner::new(), pool: pool.clone() };
    let report = cfp_bench::report::profile_run(&miner, &db, &name, minsup, 1);
    let run = cfp_core::MemStatRun { dataset: &name, algorithm: "cfp", threads: 1 };
    let memstat =
        cfp_core::collect_memstat(&db, minsup, &run, &pool, Some(fp_baselines(&db, minsup)))
            .unwrap_or_else(|e| {
                eprintln!("inspect {name}: memory attribution failed: {e}");
                std::process::exit(1);
            });
    eprintln!(
        "inspect: {name}  minsup {minsup}  itemsets {}  pool peak {} MiB  audit {}",
        report.itemsets,
        cfp_bench::report::mib(memstat.summary().pool_peak),
        if memstat.audit.reconciled { "ok" } else { "FAILED" },
    );
    let text = memstat.to_json().to_pretty();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("inspect: report -> {}", path.display());
        }
        None => println!("{text}"),
    }
    std::process::exit(if memstat.audit.reconciled { 0 } else { 1 });
}

/// `cfp-repro compare BASELINE CANDIDATE [--threshold PCT]` — exits 1 on
/// regression.
fn run_compare(args: &[String]) -> ! {
    let mut threshold_pct = 25.0;
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) => threshold_pct = pct,
                None => {
                    eprintln!("--threshold requires a percentage");
                    std::process::exit(2);
                }
            },
            _ => files.push(arg),
        }
    }
    let [baseline_path, candidate_path] = files[..] else {
        eprintln!("usage: cfp-repro compare BASELINE CANDIDATE [--threshold PCT]");
        std::process::exit(2);
    };
    let load = |path: &str| {
        cfp_bench::snapshot::BenchSnapshot::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        })
    };
    let baseline = load(baseline_path);
    let candidate = load(candidate_path);
    if baseline.name != candidate.name {
        eprintln!(
            "warning: comparing different benchmarks ({:?} vs {:?})",
            baseline.name, candidate.name
        );
    }
    println!("compare: {} (threshold {threshold_pct}%)", baseline.name);
    let deltas = cfp_bench::snapshot::compare(&baseline, &candidate, threshold_pct);
    let mut regressed = false;
    for d in &deltas {
        let flag = if d.regressed { "  REGRESSED" } else { "" };
        println!(
            "  {:<16} {:>14} -> {:>14}  {:>+8.1}%{flag}",
            d.metric, d.baseline, d.candidate, d.change_pct
        );
        regressed |= d.regressed;
    }
    if regressed {
        eprintln!("compare: regression past {threshold_pct}% threshold");
        std::process::exit(1);
    }
    println!("compare: ok");
    std::process::exit(0);
}
