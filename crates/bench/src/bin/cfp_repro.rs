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
//!                             a skewed dataset
//!   all                       everything above
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
//!   Verifies a `cfp-blackbox/4` flight-recorder dump's checksum and
//!   renders it as a readable report: the fatal error and exit code,
//!   run context, phase times, histogram percentiles, memory state,
//!   degradation rungs, counters, and the last events per thread.
//!   BLACKBOX is the blackbox.json file or the directory holding it.
//!   Exits 1 when the file is unreadable, corrupt, or mis-checksummed.
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
    // The checkpoint and post-mortem tools are subcommands with their own
    // arguments, not experiments; dispatch them before --csv handling.
    match args.first().map(String::as_str) {
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
            "usage: cfp-repro [--csv DIR] <table1|table2|table3|fig6a|fig6b|fig7|fig8a|fig8d|summary|ablation|capacity|parallel|skew|all> ...\n       cfp-repro ckpt-trim OUTPUT CKPT_DIR\n       cfp-repro ckpt-info CKPT_DIR\n       cfp-repro postmortem BLACKBOX"
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
        "skew" => emit("skew", &experiments::skew(), csv_dir),
        "all" => {
            for e in [
                "table1", "table2", "table3", "fig6a", "fig6b", "fig7", "fig8a", "fig8d",
                "summary", "ablation", "capacity", "parallel", "skew",
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
