//! `cfp-mine` — frequent-itemset mining from the command line.
//!
//! A FIMI-repository-style interface over the whole workspace: point it at
//! a FIMI-format file, pick a support threshold (absolute count or
//! percentage), and choose an algorithm, an output mode, and optional
//! post-processing.
//!
//! ```text
//! cfp-mine <input.dat> --support <N | P%> [options]
//!
//!   --algorithm NAME   cfp (default), fp, apriori, eclat, lcm,
//!                      nonordfp, tiny, fparray
//!   --threads N        mine-phase workers for CFP-growth (default 1);
//!                      output is byte-identical at every count (cfp
//!                      only above 1)
//!   --schedule dynamic the mine-phase schedule (the only one: workers
//!                      claim from a shared cost-sorted queue)
//!   --mem-budget B     cap the whole run at B bytes — one budget pool
//!                      shared by the initial tree and every conditional
//!                      tree (k/m/g suffixes allowed; cfp only)
//!   --skip-bad-lines   drop malformed input lines instead of failing
//!   --output MODE      what the cfp engine mines: all (default; every
//!                      frequent itemset), closed, maximal, or topk:N
//!                      (the N highest-support itemsets). Condensed
//!                      modes run inside the CFP-growth recursion —
//!                      closure/maximality/top-k-bound pruning, not a
//!                      post-hoc filter — and stream in the same
//!                      deterministic order as all-mode (topk prints
//!                      support-descending at the end). With --count,
//!                      counts what the mode selects. cfp only
//!   --count            print only the number of itemsets
//!   --rules CONF       print association rules with confidence ≥ CONF
//!                      (a fraction from 0 to 1)
//!   --stats            print phase times and peak memory to stderr
//!   --profile PATH     enable tracing and write a cfp-profile/5 JSON
//!                      run report to PATH: the registry snapshot
//!                      (phase spans, counters, histogram summaries),
//!                      the memory time series and the event summary
//!   --trace-out PATH   capture the event timeline and write Chrome
//!                      trace-event JSON (open in Perfetto or
//!                      chrome://tracing; one track per worker plus
//!                      memory counter tracks)
//!   --flame-out PATH   write folded flamegraph stacks of the
//!                      conditional-tree descent (flamegraph.pl /
//!                      speedscope input)
//!   --progress         live status heartbeat on stderr (phase, items
//!                      mined, steals, budget-pool peak)
//!   --mem-report PATH  write a cfp-memstat/1 JSON memory report
//!                      (per-component attribution, reconciliation
//!                      audit, per-structure analytics, compression
//!                      table vs FP-tree baselines; cfp only, with
//!                      --recover off). The mining run charges an
//!                      attribution pool and a post-run analytics pass
//!                      measures the structures; mining output is
//!                      byte-identical with the flag on
//!   --metrics-out PATH export the registry snapshot every
//!                      --metrics-every interval (default 1s): Prometheus
//!                      text rewritten at PATH, one cfp-metrics/3 JSON
//!                      record appended to PATH.jsonl
//!   --blackbox DIR     on an exit of 3–10 or a panic, write a
//!                      checksummed cfp-blackbox/4 post-mortem (the
//!                      registry snapshot plus each thread's last
//!                      events) to DIR/blackbox.json
//!   --recover POLICY   escalation ladder on failure: off (default),
//!                      degrade (rerun on one mine-phase worker; needs
//!                      --threads > 1 and a build that fit the budget,
//!                      else it fails like off),
//!                      partition (… then item-range partitioned
//!                      mining), spill (the same partitions, with their
//!                      arrays round-tripped through crash-safe disk
//!                      files; cfp only)
//!   --spill-dir PATH   parent directory for the spill rung's scratch
//!                      files (default: the system temp directory; a
//!                      per-run subdirectory is created and removed on
//!                      every exit path; requires --recover=spill)
//!   --worker-timeout S watchdog: fail the run when no mine-phase worker
//!                      makes progress for S seconds (at any --threads;
//!                      cfp only)
//!   --checkpoint-dir P crash-safe checkpointing: periodically commit a
//!                      cfp-ckpt/1 manifest into P recording an exact
//!                      output watermark. The directory is guarded by a
//!                      PID lockfile. Requires the cfp algorithm,
//!                      streaming output (--output all, closed, or
//!                      maximal; no --count, topk, or --rules), and
//!                      --recover off or spill (condensed modes:
//!                      --recover off only)
//!   --checkpoint-every N  commit the manifest every N completed
//!                      top-level items (default 32; spill partitions
//!                      always commit per partition)
//!   --resume           continue from the manifest in --checkpoint-dir:
//!                      completed units are skipped, so appending this
//!                      run's stdout to the previous (truncated) output
//!                      reproduces an uninterrupted run byte for byte
//!   --deadline S       cooperative wall-clock budget: stop gracefully
//!                      at the next resumable boundary after S seconds
//!                      and exit 8 (cfp only)
//! ```
//!
//! Flags also accept the `--flag=value` spelling. A cfp-only flag with
//! another algorithm is a usage error, reported before the input is read.
//! Itemsets print in FIMI output format: space-separated items followed by
//! the absolute support in parentheses, e.g. `3 17 29 (1250)`.
//!
//! # Exit codes
//!
//! The process maps every failure to a stable code (see
//! `CfpError::exit_code`): 0 success (including a closed output pipe),
//! 1 I/O error, 2 usage error, 3 malformed input, 4 memory budget
//! exhausted, 5 worker panic, 6 worker timeout, 7 spill failure (a
//! spill-file write, read, or checksum validation failed permanently
//! during `--recover=spill`), 8 interrupted (SIGINT/SIGTERM or
//! `--deadline` stopped the run at a resumable boundary; buffered
//! output was flushed and, under `--checkpoint-dir`, a manifest was
//! committed), 9 invalid checkpoint (torn, corrupted, or
//! config-mismatched manifest on `--resume`, or a checkpoint commit
//! failed), 10 state directory locked by another live process.
//! `--recover=off` leaves all of these exactly as they were; other
//! policies only change the outcome when a recovery rung actually
//! completes the run.

use cfp_core::{
    CollectSink, CountingSink, ItemsetSink, MineStats, Miner, OutputMode, ParallelCfpGrowthMiner,
    RecoveryPolicy, RecoveryReport, Schedule, Supervisor, TransactionDb,
};
use cfp_data::{CfpError, ParsePolicy};
use cfp_fault::{CancelToken, EXIT_USAGE};
use cfp_memman::BudgetPool;
use cfp_rules::RuleMiner;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Duration;

#[derive(Debug)]
struct Options {
    input: String,
    support: SupportSpec,
    algorithm: String,
    threads: usize,
    mem_budget: Option<u64>,
    skip_bad_lines: bool,
    output: OutputMode,
    count_only: bool,
    rules: Option<f64>,
    stats: bool,
    profile: Option<String>,
    trace_out: Option<String>,
    flame_out: Option<String>,
    progress: bool,
    mem_report: Option<String>,
    metrics_out: Option<String>,
    metrics_every: Duration,
    blackbox: Option<String>,
    recover: RecoveryPolicy,
    spill_dir: Option<String>,
    worker_timeout: Option<Duration>,
    checkpoint_dir: Option<String>,
    checkpoint_every: u64,
    resume: bool,
    deadline: Option<Duration>,
}

#[derive(Debug)]
enum SupportSpec {
    Absolute(u64),
    Relative(f64),
}

fn print_usage() {
    eprintln!("usage: cfp-mine <input.dat> --support <N | P%> [options]");
    eprintln!("  --algorithm cfp|fp|apriori|eclat|lcm|nonordfp|tiny|fparray");
    eprintln!("  --threads N | --schedule dynamic | --mem-budget BYTES[k|m|g]");
    eprintln!("  --skip-bad-lines");
    eprintln!("  --output all|closed|maximal|topk:N");
    eprintln!("  --count | --rules CONF | --stats | --profile PATH");
    eprintln!("  --trace-out PATH | --flame-out PATH | --progress | --mem-report PATH");
    eprintln!("  --metrics-out PATH [--metrics-every DUR] | --blackbox DIR");
    eprintln!("  --recover off|degrade|partition|spill | --spill-dir PATH");
    eprintln!("  --worker-timeout SECONDS");
    eprintln!("  --checkpoint-dir PATH | --checkpoint-every N | --resume | --deadline SECONDS");
}

/// Parses a duration with an optional `ms`/`s`/`m` suffix (bare numbers
/// are seconds), e.g. `250ms`, `1.5s`, `2m`.
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (digits, scale) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1e-3)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1.0)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = digits.parse().map_err(|_| format!("bad duration {s:?}"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("duration {s:?} must be positive"));
    }
    Ok(Duration::from_secs_f64(v * scale))
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive), e.g. `64m` = 67108864.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, shift) = match s.to_ascii_lowercase().as_str() {
        t if t.ends_with('k') => (&s[..s.len() - 1], 10),
        t if t.ends_with('m') => (&s[..s.len() - 1], 20),
        t if t.ends_with('g') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.parse().map_err(|_| format!("bad byte count {s:?}"))?;
    n.checked_shl(shift)
        .filter(|&v| v >> shift == n)
        .ok_or_else(|| format!("byte count {s:?} overflows"))
}

/// Parses the argument list (without the program name). Returns a
/// description of the first problem instead of exiting, so main owns the
/// process exit and tests can exercise every path in-process.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        input: String::new(),
        support: SupportSpec::Absolute(0),
        algorithm: "cfp".into(),
        threads: 1,
        mem_budget: None,
        skip_bad_lines: false,
        output: OutputMode::All,
        count_only: false,
        rules: None,
        stats: false,
        profile: None,
        trace_out: None,
        flame_out: None,
        progress: false,
        mem_report: None,
        metrics_out: None,
        metrics_every: Duration::from_secs(1),
        blackbox: None,
        recover: RecoveryPolicy::Off,
        spill_dir: None,
        worker_timeout: None,
        checkpoint_dir: None,
        checkpoint_every: 32,
        resume: false,
        deadline: None,
    };
    let mut checkpoint_every_given = false;
    let mut metrics_every_given = false;
    // Accept `--flag=value` as well as `--flag value`.
    let args: Vec<String> = args
        .iter()
        .flat_map(|a| match a.strip_prefix("--").and_then(|r| r.split_once('=')) {
            Some((flag, val)) => vec![format!("--{flag}"), val.to_string()],
            None => vec![a.clone()],
        })
        .collect();
    let mut support_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--support" => {
                let v = value(arg)?;
                opts.support = if let Some(pct) = v.strip_suffix('%') {
                    let p: f64 = pct.parse().map_err(|_| format!("bad percentage {v:?}"))?;
                    if !p.is_finite() || p < 0.0 {
                        return Err(format!("support {v:?} must be a finite percentage ≥ 0"));
                    }
                    SupportSpec::Relative(p / 100.0)
                } else {
                    SupportSpec::Absolute(v.parse().map_err(|_| format!("bad support {v:?}"))?)
                };
                support_given = true;
            }
            "--algorithm" => opts.algorithm = value(arg)?,
            "--threads" => {
                opts.threads = value(arg)?.parse().map_err(|_| "bad thread count".to_string())?;
            }
            "--schedule" => {
                value(arg)?.parse::<Schedule>()?;
            }
            "--mem-budget" => opts.mem_budget = Some(parse_bytes(&value(arg)?)?),
            "--skip-bad-lines" => opts.skip_bad_lines = true,
            "--output" => opts.output = value(arg)?.parse()?,
            "--count" => opts.count_only = true,
            "--rules" => {
                let v = value(arg)?;
                let conf: f64 = v.parse().map_err(|_| "bad confidence".to_string())?;
                // NaN is outside every range.
                if !(0.0..=1.0).contains(&conf) {
                    return Err(format!("confidence {v:?} must be between 0 and 1"));
                }
                opts.rules = Some(conf);
            }
            "--stats" => opts.stats = true,
            "--profile" => opts.profile = Some(value(arg)?),
            "--trace-out" => opts.trace_out = Some(value(arg)?),
            "--flame-out" => opts.flame_out = Some(value(arg)?),
            "--progress" => opts.progress = true,
            "--mem-report" => opts.mem_report = Some(value(arg)?),
            "--metrics-out" => opts.metrics_out = Some(value(arg)?),
            "--metrics-every" => {
                opts.metrics_every = parse_duration(&value(arg)?)?;
                metrics_every_given = true;
            }
            "--blackbox" => opts.blackbox = Some(value(arg)?),
            "--recover" => opts.recover = value(arg)?.parse()?,
            "--spill-dir" => opts.spill_dir = Some(value(arg)?),
            "--worker-timeout" => {
                let secs: f64 =
                    value(arg)?.parse().map_err(|_| "bad worker timeout".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("worker timeout must be a positive number of seconds".to_string());
                }
                opts.worker_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value(arg)?),
            "--checkpoint-every" => {
                opts.checkpoint_every =
                    value(arg)?.parse().map_err(|_| "bad checkpoint interval".to_string())?;
                if opts.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be at least 1".to_string());
                }
                checkpoint_every_given = true;
            }
            "--resume" => opts.resume = true,
            "--deadline" => {
                let secs: f64 = value(arg)?.parse().map_err(|_| "bad deadline".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("deadline must be a positive number of seconds".to_string());
                }
                opts.deadline = Some(Duration::from_secs_f64(secs));
            }
            other if !other.starts_with('-') && opts.input.is_empty() => {
                opts.input = other.to_string();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.input.is_empty() {
        return Err("no input file given".to_string());
    }
    if !support_given {
        return Err("no --support given".to_string());
    }
    // A budget below the arena's initial carve (the root slot, one
    // minimum-size chunk) can never admit even an empty tree: reject it
    // up front as a usage error instead of failing every attempt.
    if let Some(b) = opts.mem_budget {
        if b < cfp_memman::MIN_CHUNK as u64 {
            return Err(format!(
                "--mem-budget {b} is below the arena's minimum carve of {} bytes",
                cfp_memman::MIN_CHUNK
            ));
        }
    }
    // The flags that configure the cfp engine mean nothing to the
    // baselines: reject them up front rather than drop them.
    if opts.algorithm != "cfp" {
        let cfp_only = [
            ("--output", opts.output != OutputMode::All),
            ("--threads", opts.threads > 1),
            ("--mem-budget", opts.mem_budget.is_some()),
            ("--mem-report", opts.mem_report.is_some()),
            ("--recover", opts.recover != RecoveryPolicy::Off),
            ("--worker-timeout", opts.worker_timeout.is_some()),
            ("--checkpoint-dir", opts.checkpoint_dir.is_some()),
            ("--deadline", opts.deadline.is_some()),
        ];
        if let Some((flag, _)) = cfp_only.iter().find(|(_, given)| *given) {
            return Err(format!(
                "{flag} only applies to the cfp algorithm, not {:?}",
                opts.algorithm
            ));
        }
    }
    if opts.rules.is_some() && opts.output != OutputMode::All {
        return Err(format!(
            "--rules needs the full frequent set; it cannot be combined with --output={}",
            opts.output
        ));
    }
    if opts.spill_dir.is_some() && opts.recover != RecoveryPolicy::Spill {
        return Err("--spill-dir requires --recover=spill".to_string());
    }
    if metrics_every_given && opts.metrics_out.is_none() {
        return Err("--metrics-every requires --metrics-out".to_string());
    }
    // The recovery supervisor's attempts never charge the attribution
    // pool, so its report would read zero peaks.
    if opts.mem_report.is_some() && opts.recover != RecoveryPolicy::Off {
        return Err("--mem-report requires --recover=off".to_string());
    }
    // Checkpointing promises an exact output watermark, which only the
    // deterministic plain-streaming CFP pipeline provides.
    if opts.checkpoint_dir.is_some() {
        if opts.count_only || opts.rules.is_some() || matches!(opts.output, OutputMode::TopK(_)) {
            return Err("--checkpoint-dir requires streaming output (no --count, \
                 --output=topk, or --rules)"
                .to_string());
        }
        if !matches!(opts.recover, RecoveryPolicy::Off | RecoveryPolicy::Spill) {
            return Err("--checkpoint-dir requires --recover off or spill (the other rungs \
                 re-emit output without a resumable watermark)"
                .to_string());
        }
        if opts.output.is_condensed() && opts.recover != RecoveryPolicy::Off {
            return Err(format!(
                "--checkpoint-dir with --output={} requires --recover=off (spill partitions \
                 cannot rebuild the cross-partition reconcile state at a mid-run watermark)",
                opts.output
            ));
        }
        if opts.mem_report.is_some() {
            return Err("--checkpoint-dir cannot be combined with --mem-report".to_string());
        }
    } else {
        if opts.resume {
            return Err("--resume requires --checkpoint-dir".to_string());
        }
        if checkpoint_every_given {
            return Err("--checkpoint-every requires --checkpoint-dir".to_string());
        }
    }
    Ok(opts)
}

/// How the run executes: a plain miner, or the recovery supervisor
/// wrapping the cfp one (`--recover` other than `off`).
enum Runner {
    Plain(Box<dyn Miner>),
    Supervised(Supervisor),
}

impl Runner {
    /// Runs the mining phase; a supervised run also yields its
    /// [`RecoveryReport`] for the profile's degradation section.
    fn mine(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        degradation: &mut Option<RecoveryReport>,
    ) -> Result<MineStats, CfpError> {
        match self {
            Runner::Plain(m) => m.try_mine(db, min_support, sink),
            Runner::Supervised(s) => {
                let (r, report) = s.mine(db, min_support, sink);
                supervised_outcome(r, report, degradation)
            }
        }
    }
}

/// Builds the attribution pool a `--mem-report` run charges. Admission
/// must be byte-identical to a run without the flag, so it is exactly the
/// pool [`cfp_miner`] would have created from `--mem-budget` itself.
fn attribution_pool(opts: &Options) -> BudgetPool {
    opts.mem_budget.map_or_else(BudgetPool::unlimited, BudgetPool::new)
}

/// The cfp engine as `opts` configure it, resuming past `resume_skip`
/// first-level items. It charges `pool` (the `--mem-report` attribution
/// pool) when given, else a pool of `--mem-budget`.
fn cfp_miner(
    opts: &Options,
    pool: Option<&BudgetPool>,
    cancel: Option<&CancelToken>,
    resume_skip: u64,
) -> ParallelCfpGrowthMiner {
    ParallelCfpGrowthMiner {
        pool: pool.cloned().or_else(|| opts.mem_budget.map(BudgetPool::new)),
        worker_timeout: opts.worker_timeout,
        cancel: cancel.cloned(),
        resume_skip,
        output: opts.output,
        ..ParallelCfpGrowthMiner::new(opts.threads)
    }
}

/// The recovery supervisor of a `--recover` run, as `opts` configure it.
fn supervisor(opts: &Options, cancel: Option<&CancelToken>) -> Supervisor {
    Supervisor {
        threads: opts.threads,
        mem_budget: opts.mem_budget,
        worker_timeout: opts.worker_timeout,
        spill_dir: opts.spill_dir.as_ref().map(std::path::PathBuf::from),
        cancel: cancel.cloned(),
        output: opts.output,
        ..Supervisor::new(opts.recover)
    }
}

fn runner_by_name(
    opts: &Options,
    pool: Option<&BudgetPool>,
    cancel: Option<&CancelToken>,
) -> Result<Runner, String> {
    // `parse_args` rejects --recover on the baselines.
    if opts.recover != RecoveryPolicy::Off {
        return Ok(Runner::Supervised(supervisor(opts, cancel)));
    }
    Ok(Runner::Plain(match opts.algorithm.as_str() {
        "cfp" => Box::new(cfp_miner(opts, pool, cancel, 0)),
        "fp" => Box::new(cfp_fptree::FpGrowthMiner::new()),
        "apriori" => Box::new(cfp_baselines::AprioriMiner::new()),
        "eclat" => Box::new(cfp_baselines::EclatMiner::new()),
        "lcm" => Box::new(cfp_baselines::LcmStyleMiner::new()),
        "nonordfp" => Box::new(cfp_baselines::NonordFpMiner::new()),
        "tiny" => Box::new(cfp_baselines::TinyStyleMiner::new()),
        "fparray" => Box::new(cfp_baselines::FpArrayStyleMiner::new()),
        other => return Err(format!("unknown algorithm {other:?}")),
    }))
}

/// Exits with the documented code for a failed output write. A broken
/// pipe is the downstream consumer (`head`, `grep -q`, a closed pager)
/// losing interest — that is success, reported quietly, matching the
/// behaviour of well-mannered Unix filters.
fn exit_for_write_error(e: &io::Error) -> ! {
    if e.kind() == io::ErrorKind::BrokenPipe {
        exit(0);
    }
    eprintln!("cfp-mine: cannot write output: {e}");
    exit(1);
}

/// One itemset in FIMI output format: space-separated items followed by
/// the support in parentheses, newline-terminated.
fn fimi_line(itemset: &[u32], support: u64) -> String {
    let mut line = String::with_capacity(itemset.len() * 7 + 12);
    for (i, item) in itemset.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        line.push_str(&item.to_string());
    }
    line.push_str(&format!(" ({support})\n"));
    line
}

/// Streams itemsets straight to a writer in FIMI output format.
///
/// Write failures are recorded, not panicked on; after the first failure
/// further output is discarded (mining continues so stats stay
/// meaningful) and main exits through [`exit_for_write_error`].
struct PrintSink<W: Write> {
    out: W,
    count: u64,
    err: Option<io::Error>,
}

impl<W: Write> ItemsetSink for PrintSink<W> {
    fn emit(&mut self, itemset: &[u32], support: u64) {
        self.count += 1;
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(fimi_line(itemset, support).as_bytes()) {
            self.err = Some(e);
        }
    }
}

/// Counts the bytes that actually reached the inner writer — under a
/// `BufWriter` this advances on flush, so at commit time `written` is
/// exactly the output watermark a manifest may record as durable.
struct CountingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Best-effort durability for stdout before a manifest commit: when
/// stdout is a regular file (`cfp-mine … > out.dat`), fsync it so the
/// manifest never records a watermark ahead of what survives a crash.
/// Pipes and ttys reject the sync; that is fine — they have no
/// post-crash contents to resume against.
fn sync_stdout() {
    #[cfg(unix)]
    {
        use std::os::unix::io::FromRawFd;
        // ManuallyDrop: fd 1 must stay open after the sync.
        let f = std::mem::ManuallyDrop::new(unsafe { std::fs::File::from_raw_fd(1) });
        let _ = f.sync_all();
    }
}

/// The checkpointing output sink (`--checkpoint-dir`): streams FIMI
/// lines like [`PrintSink`] and, at the resumable boundaries the miner
/// announces through [`ItemsetSink::progress`], commits a `cfp-ckpt/1`
/// manifest. The commit protocol orders durability correctly: flush the
/// line buffer, fsync stdout, then atomically write the manifest — so a
/// committed manifest never names bytes that were not durably written
/// first.
struct CheckpointSink<'a> {
    out: io::BufWriter<CountingWriter<io::StdoutLock<'a>>>,
    err: Option<io::Error>,
    dir: std::path::PathBuf,
    /// Commit cadence in completed top-level items; spill partitions
    /// always commit.
    every: u64,
    /// Config fingerprint stamped into every manifest; the miner's count
    /// fills `counts` and `num_items` ([`ItemsetSink::counted`]).
    input: String,
    min_support: u64,
    counts: String,
    num_items: u64,
    output: String,
    /// The manifest a `--resume` run continues from, checked against the
    /// miner's count before the first itemset.
    resumed: Option<cfp_core::Manifest>,
    /// Output bytes and itemsets carried over from the segment(s) this
    /// run resumed; manifests record cumulative totals so a crashed
    /// appended-to output file can be truncated to `output_bytes`.
    base_bytes: u64,
    base_itemsets: u64,
    /// Itemsets emitted by this segment.
    emitted: u64,
    /// The most recent watermark the miner announced, committed or not.
    latest: Option<(cfp_core::CkptProgress, u64)>,
    /// Resume units covered by the last committed manifest.
    last_committed: u64,
}

impl CheckpointSink<'_> {
    /// Flushes output and commits the latest watermark, the whole commit
    /// timed by `core.ckpt_commit_nanos`. An error from the manifest
    /// write (e.g. the `core.ckpt.write` failpoint) is structured and
    /// aborts the run through [`ItemsetSink::progress`].
    fn commit(&mut self) -> Result<(), CfpError> {
        let Some((progress, itemsets)) = self.latest.clone() else {
            return Ok(());
        };
        if self.err.is_some() {
            // Output is no longer reaching the stream; a manifest
            // claiming otherwise would corrupt a later resume.
            return Ok(());
        }
        let _t = cfp_trace::hist::timer(&cfp_trace::hist::CORE_CKPT_COMMIT_NANOS);
        if let Err(e) = self.out.flush() {
            self.err = Some(e);
            return Ok(());
        }
        sync_stdout();
        let manifest = cfp_core::Manifest {
            input: self.input.clone(),
            min_support: self.min_support,
            counts: self.counts.clone(),
            num_items: self.num_items,
            output: self.output.clone(),
            progress,
            output_bytes: self.base_bytes + self.out.get_ref().written,
            itemsets: self.base_itemsets + itemsets,
        };
        cfp_core::ckpt::save(&self.dir, &manifest)?;
        self.last_committed = manifest.progress.done();
        Ok(())
    }
}

impl ItemsetSink for CheckpointSink<'_> {
    fn emit(&mut self, itemset: &[u32], support: u64) {
        self.emitted += 1;
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(fimi_line(itemset, support).as_bytes()) {
            self.err = Some(e);
        }
    }

    fn progress(&mut self, progress: cfp_data::MineProgress<'_>) -> Result<(), CfpError> {
        let (snapshot, force) = match progress {
            cfp_data::MineProgress::Items { done } => {
                (cfp_core::CkptProgress::Mono { items_done: done }, false)
            }
            cfp_data::MineProgress::SpillParts { done, remaining } => (
                cfp_core::CkptProgress::Spill { parts_done: done, remaining: remaining.to_vec() },
                true,
            ),
        };
        let done = snapshot.done();
        self.latest = Some((snapshot, self.emitted));
        if force || done >= self.last_committed + self.every {
            self.commit()?;
        }
        Ok(())
    }

    /// Fingerprints the miner's count for the manifests and, on
    /// `--resume`, rejects a manifest whose config or watermark does not
    /// fit it (exit 9) before anything is emitted.
    fn counted(&mut self, recoder: &cfp_core::ItemRecoder) -> Result<(), CfpError> {
        use cfp_core::{ckpt, CkptProgress};
        self.counts = ckpt::counts_fingerprint(recoder);
        self.num_items = recoder.num_items() as u64;
        let Some(m) = self.resumed.take() else {
            return Ok(());
        };
        m.ensure_matches(&self.dir, &self.input, self.min_support, &self.counts, &self.output)?;
        let n = self.num_items;
        let outside = match &m.progress {
            CkptProgress::Mono { items_done } => (*items_done > n).then(|| {
                format!("watermark of {items_done} item(s) exceeds the {n}-item universe")
            }),
            CkptProgress::Spill { remaining, .. } => remaining
                .iter()
                .find(|r| r.1 as u64 > n)
                .map(|(lo, hi)| format!("range {lo}..{hi} exceeds the {n}-item universe")),
        };
        if let Some(message) = outside {
            let path = ckpt::manifest_path(&self.dir).display().to_string();
            return Err(CfpError::Checkpoint { path, message });
        }
        eprintln!(
            "resuming from checkpoint: {} unit(s) done, {} output byte(s) committed",
            m.progress.done(),
            m.output_bytes
        );
        Ok(())
    }
}

fn report_stats(stats: &MineStats, n_itemsets: u64) {
    eprintln!(
        "itemsets {}  scan {:.3}s  build {:.3}s  convert {:.3}s  mine {:.3}s  peak {}",
        n_itemsets,
        stats.scan_time.as_secs_f64(),
        stats.build_time.as_secs_f64(),
        stats.convert_time.as_secs_f64(),
        stats.mine_time.as_secs_f64(),
        cfp_metrics::fmt_bytes(stats.peak_bytes),
    );
}

/// With tracing enabled (`--profile`), `--stats` additionally dumps the
/// counter registry so the headline numbers are inspectable without
/// opening the JSON report.
fn report_trace_stats() {
    use cfp_trace::counters as tc;
    let allocs = tc::MEMMAN_ALLOCS.get();
    let hits = tc::MEMMAN_QUEUE_HITS.get();
    let hit_pct = if allocs > 0 { 100.0 * hits as f64 / allocs as f64 } else { 0.0 };
    eprintln!(
        "arena  allocs {allocs}  frees {}  queue-hit {hit_pct:.1}%  pool peak {}",
        tc::MEMMAN_FREES.get(),
        cfp_metrics::fmt_bytes(tc::MEMMAN_POOL_PEAK.get()),
    );
    eprintln!(
        "tree   standard {}  chain {}  embedded {}  splits {}  unembeds {}",
        tc::TREE_STANDARD_NODES.get(),
        tc::TREE_CHAIN_NODES.get(),
        tc::TREE_EMBEDDED_LEAVES.get(),
        tc::TREE_CHAIN_SPLITS.get(),
        tc::TREE_UNEMBEDS.get(),
    );
    eprintln!(
        "mine   conditional trees {}  single-path shortcuts {}  max depth {}  patterns {}",
        tc::CORE_CONDITIONAL_TREES.get(),
        tc::CORE_SINGLE_PATH_SHORTCUTS.get(),
        cfp_trace::hist::CORE_RECURSION_DEPTH.snapshot().max,
        tc::CORE_PATTERNS.get(),
    );
}

/// `--blackbox` arming state: the report directory plus the run-identity
/// context, set once before mining starts so any dying path can dump.
struct BlackboxArm {
    dir: std::path::PathBuf,
    context: Vec<(String, String)>,
}

static BLACKBOX_ARM: std::sync::OnceLock<BlackboxArm> = std::sync::OnceLock::new();
/// Degradation state stashed for the flight recorder: the recovery
/// report lives in locals the exit paths cannot reach, so supervised
/// runs deposit its `degradation` section here as soon as the supervisor
/// returns.
static BLACKBOX_DEGRADATION: std::sync::Mutex<Option<cfp_trace::Json>> =
    std::sync::Mutex::new(None);

/// Makes a supervised run's ladder activity visible to a later blackbox
/// dump. No-op unless `--blackbox` is armed.
fn stash_blackbox_degradation(report: &RecoveryReport) {
    if BLACKBOX_ARM.get().is_some() && !report.rungs.is_empty() {
        *BLACKBOX_DEGRADATION.lock().unwrap() = Some(report.to_json());
    }
}

/// Files a supervised run's recovery report for the profile and the
/// flight recorder and passes its result on. A failed run first says on
/// stderr, one line per failed rung, how far each rung got, ahead of the
/// error line the caller prints.
fn supervised_outcome(
    r: Result<MineStats, CfpError>,
    report: RecoveryReport,
    degradation: &mut Option<RecoveryReport>,
) -> Result<MineStats, CfpError> {
    if r.is_err() {
        for line in failed_rungs(&report) {
            eprintln!("cfp-mine: {line}");
        }
    }
    stash_blackbox_degradation(&report);
    *degradation = Some(report);
    r
}

/// One line per failed rung of `report`: the rung, the partitions a
/// partitioned rung mined before it stopped, and its error.
fn failed_rungs(report: &RecoveryReport) -> Vec<String> {
    report
        .rungs
        .iter()
        .filter(|r| !r.succeeded)
        .map(|r| {
            let after = match r.rung {
                "degrade" => String::new(),
                _ => format!(" after {} partition(s)", r.partitions),
            };
            format!(
                "rung {} failed{after}: {}",
                r.rung,
                r.error.as_deref().unwrap_or("unknown error")
            )
        })
        .collect()
}

/// Exit code reported in a blackbox dump for a main-thread panic (the
/// process code the Rust runtime uses for unwound panics).
const PANIC_EXIT_CODE: i32 = 101;

/// Dumps a `cfp-blackbox/4` post-mortem if `--blackbox` is armed and the
/// exit code is one the flight recorder covers: the structured pipeline
/// failures (3–10) and panics. Usage (2) and plain I/O (1) exits carry
/// no mining state worth a report.
fn dump_blackbox(error: &str, code: i32) {
    let Some(arm) = BLACKBOX_ARM.get() else { return };
    if !(3..=10).contains(&code) && code != PANIC_EXIT_CODE {
        return;
    }
    let degradation = BLACKBOX_DEGRADATION.lock().unwrap().take();
    let report =
        cfp_trace::BlackboxReport::capture(error, code as i64, arm.context.clone(), degradation);
    match report.write(&arm.dir) {
        Ok(path) => eprintln!("cfp-mine: blackbox report written to {}", path.display()),
        Err(e) => eprintln!("cfp-mine: cannot write blackbox report: {e}"),
    }
}

/// The state-directory locks this run holds. `std::process::exit` runs
/// no destructors, so [`exit`] releases them first; a return or unwind
/// out of `main` releases them through [`ReleaseDirLocks`].
static DIR_LOCKS: Mutex<Vec<cfp_data::DirLock>> = Mutex::new(Vec::new());

/// Removes the lock files of every held state directory.
fn release_dir_locks() {
    DIR_LOCKS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Releases the state-directory locks when dropped.
struct ReleaseDirLocks;

impl Drop for ReleaseDirLocks {
    fn drop(&mut self) {
        release_dir_locks();
    }
}

/// Exits the process with `code` after releasing the state-directory
/// locks, so no exit path leaves a `cfp.lock` behind.
fn exit(code: i32) -> ! {
    release_dir_locks();
    std::process::exit(code)
}

/// Reports a pipeline failure and exits with its documented code. The
/// diagnostic names the failing phase (the `Display` of
/// `CfpError::MemoryExhausted` includes it). When `--blackbox` is armed
/// this is also the flight recorder's dump point: every structured
/// mining failure funnels through here.
fn exit_for_mine_error(e: CfpError) -> ! {
    eprintln!("cfp-mine: {e}");
    dump_blackbox(&e.to_string(), e.exit_code());
    exit(e.exit_code());
}

/// Runs a `--checkpoint-dir` mining run end to end: resolve the resume
/// watermark from the manifest (if `--resume`), mine through a
/// [`CheckpointSink`], which checks the manifest against the miner's
/// count, and handle the three outcomes — completed (manifest cleared),
/// interrupted at a watermark (final manifest committed, exit 8), or
/// failed (structured exit). Exits the process on every error path;
/// returns the run's stats on success.
fn run_checkpointed(
    opts: &Options,
    db: &TransactionDb,
    min_support: u64,
    cancel: Option<&CancelToken>,
    degradation: &mut Option<RecoveryReport>,
) -> MineStats {
    use cfp_core::{ckpt, CkptProgress};
    let dir = std::path::Path::new(opts.checkpoint_dir.as_deref().expect("checkpoint dir set"));
    let spill_mode = opts.recover == RecoveryPolicy::Spill;

    let mut resume_skip = 0u64;
    let mut spill_resume: Option<(u64, Vec<(u32, u32)>)> = None;
    let mut resumed = None;
    if opts.resume {
        match ckpt::load(dir) {
            // No manifest is a fresh start, not an error: the previous
            // run may have died before its first commit, or completed
            // and cleared it.
            Ok(None) => eprintln!("no checkpoint manifest in {}; starting fresh", dir.display()),
            Ok(Some(m)) => {
                match (&m.progress, spill_mode) {
                    (CkptProgress::Mono { items_done }, false) => resume_skip = *items_done,
                    (CkptProgress::Spill { parts_done, remaining }, true) => {
                        spill_resume = Some((*parts_done, remaining.clone()));
                    }
                    (p, _) => exit_for_mine_error(CfpError::Checkpoint {
                        path: ckpt::manifest_path(dir).display().to_string(),
                        message: format!(
                            "manifest records a '{}' run; resume it with the matching \
                             --recover policy",
                            p.mode()
                        ),
                    }),
                }
                resumed = Some(m);
            }
            Err(e) => exit_for_mine_error(e),
        }
    }
    if cfp_trace::enabled() {
        // Surface the resume point in the --progress heartbeat and the
        // metrics export (first-level items for mono runs, partitions
        // for spill runs; 0 = started fresh).
        let watermark = resume_skip.max(spill_resume.as_ref().map_or(0, |(done, _)| *done));
        cfp_trace::counters::CORE_RESUME_WATERMARK.record(watermark);
    }

    let stdout = std::io::stdout();
    let mut sink = CheckpointSink {
        out: io::BufWriter::new(CountingWriter { inner: stdout.lock(), written: 0 }),
        err: None,
        dir: dir.to_path_buf(),
        every: opts.checkpoint_every,
        input: opts.input.clone(),
        min_support,
        counts: String::new(),
        num_items: 0,
        output: opts.output.to_string(),
        base_bytes: resumed.as_ref().map_or(0, |m| m.output_bytes),
        base_itemsets: resumed.as_ref().map_or(0, |m| m.itemsets),
        resumed,
        emitted: 0,
        latest: None,
        last_committed: resume_skip.max(spill_resume.as_ref().map_or(0, |(done, _)| *done)),
    };

    let result = if spill_mode {
        // Checkpointed spill runs go straight out of core: only the
        // streaming spill rung produces partition watermarks, so the
        // in-memory rungs (whose output has no committed prefix) are
        // skipped deliberately.
        let (r, report) = supervisor(opts, cancel).mine_out_of_core_resumable(
            db,
            min_support,
            &mut sink,
            spill_resume,
        );
        supervised_outcome(r, report, degradation)
    } else {
        cfp_miner(opts, None, cancel, resume_skip).try_mine(db, min_support, &mut sink)
    };

    match result {
        Ok(stats) => {
            let flushed = sink.out.flush();
            if let Some(e) = sink.err {
                exit_for_write_error(&e);
            }
            if let Err(e) = flushed {
                exit_for_write_error(&e);
            }
            ckpt::clear(dir);
            stats
        }
        Err(CfpError::Interrupted) => {
            // The miner stopped exactly at the watermark in `latest`
            // (nothing is emitted between a boundary notification and
            // the Interrupted return), so committing it makes the next
            // `--resume` continue byte-exactly. A failed final commit
            // only costs re-mining back to the previous manifest.
            if let Err(e) = sink.commit() {
                eprintln!("cfp-mine: warning: final checkpoint commit failed: {e}");
            }
            if let Some(e) = sink.err {
                exit_for_write_error(&e);
            }
            let done =
                sink.latest.as_ref().map_or(sink.last_committed, |(progress, _)| progress.done());
            eprintln!(
                "cfp-mine: interrupted at a resumable watermark ({done} unit(s) done); run \
                 again with --resume to continue"
            );
            exit(CfpError::Interrupted.exit_code());
        }
        Err(e) => exit_for_mine_error(e),
    }
}

fn main() {
    // Arm failpoints from CFP_FAULT when the `fault` feature is
    // compiled in; a guaranteed no-op otherwise.
    cfp_fault::configure_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("cfp-mine: {msg}");
            print_usage();
            exit(EXIT_USAGE);
        }
    };
    // Shared state directories are single-owner: claim their PID locks
    // before any work, failing fast with exit 10 when another live run
    // already holds one. Stale locks from crashed runs are reclaimed.
    // Every exit path from here on releases them.
    let _release = ReleaseDirLocks;
    let mut state_dirs: Vec<&String> = Vec::new();
    state_dirs.extend(opts.checkpoint_dir.as_ref());
    state_dirs.extend(opts.spill_dir.as_ref());
    state_dirs.dedup();
    for dir in state_dirs {
        let lock = cfp_data::DirLock::acquire(std::path::Path::new(dir))
            .unwrap_or_else(|e| exit_for_mine_error(e));
        DIR_LOCKS.lock().unwrap_or_else(|e| e.into_inner()).push(lock);
    }
    let profiling = opts.profile.is_some();
    let tracing = opts.trace_out.is_some() || opts.flame_out.is_some();
    // --mem-report needs the registry live for its distribution rows
    // (the mine-phase histograms); the registry is observational and
    // never changes output. --metrics-out and --blackbox read the same
    // registry, so they arm it too.
    if profiling
        || tracing
        || opts.progress
        || opts.mem_report.is_some()
        || opts.metrics_out.is_some()
        || opts.blackbox.is_some()
    {
        cfp_trace::set_enabled(true);
    }
    if tracing || opts.blackbox.is_some() {
        // Event capture is gated separately from the counters so plain
        // `--profile` runs do not pay the per-event ring-buffer cost;
        // the flight recorder needs the rings for its last-N events.
        cfp_trace::events::set_capture(true);
        cfp_trace::events::name_thread("main");
    }
    if let Some(dir) = &opts.blackbox {
        // Create the directory up front: a run dying of ENOSPC or a
        // panic should not also have to mkdir on the way down.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cfp-mine: cannot create blackbox directory {dir}: {e}");
            exit(1);
        }
        let context = vec![
            ("dataset".to_string(), opts.input.clone()),
            ("algorithm".to_string(), opts.algorithm.clone()),
            ("threads".to_string(), opts.threads.max(1).to_string()),
            ("output".to_string(), opts.output.to_string()),
            ("recover".to_string(), format!("{:?}", opts.recover).to_lowercase()),
        ];
        let _ = BLACKBOX_ARM.set(BlackboxArm { dir: std::path::PathBuf::from(dir), context });
        // A main-thread panic bypasses every structured exit path; hook
        // it so the flight recorder still fires (worker panics are
        // caught and arrive as CfpError::WorkerPanic instead).
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            default_hook(info);
            dump_blackbox(&format!("panic: {info}"), PANIC_EXIT_CODE);
        }));
    }
    let metrics = opts.metrics_out.as_ref().map(|path| {
        let labels = vec![
            ("dataset".to_string(), opts.input.clone()),
            ("algorithm".to_string(), opts.algorithm.clone()),
            ("threads".to_string(), opts.threads.max(1).to_string()),
        ];
        cfp_trace::MetricsExporter::start(
            std::path::PathBuf::from(path),
            opts.metrics_every,
            labels,
        )
    });
    let run_started = std::time::Instant::now();
    let sampler = (profiling || opts.trace_out.is_some())
        .then(|| cfp_trace::MemSampler::start(std::time::Duration::from_millis(10)));
    let meter = opts
        .progress
        .then(|| cfp_trace::ProgressMeter::start(std::time::Duration::from_millis(200)));

    let policy = if opts.skip_bad_lines { ParsePolicy::Skip } else { ParsePolicy::Strict };
    let db: TransactionDb = {
        let _s = cfp_trace::span(cfp_trace::Phase::Read);
        match cfp_data::fimi::read_file_with_policy(&opts.input, policy) {
            Ok((db, stats)) => {
                if stats.skipped_lines > 0 {
                    eprintln!(
                        "warning: skipped {} malformed line(s) ({} bad token(s)) in {}",
                        stats.skipped_lines, stats.bad_tokens, opts.input
                    );
                }
                db
            }
            Err(CfpError::Io(e)) => {
                eprintln!("cannot read {}: {e}", opts.input);
                exit(1);
            }
            Err(e) => {
                eprintln!("cfp-mine: {}: {e}", opts.input);
                dump_blackbox(&format!("{}: {e}", opts.input), e.exit_code());
                exit(e.exit_code());
            }
        }
    };
    let min_support = match opts.support {
        SupportSpec::Absolute(n) => n.max(1),
        SupportSpec::Relative(f) => ((db.len() as f64 * f).ceil() as u64).max(1),
    };
    eprintln!(
        "{}: {} transactions, {} distinct items; minimum support {min_support}",
        opts.input,
        db.len(),
        db.distinct_items()
    );

    // Cooperative cancellation: a checkpointed or deadlined run stops at
    // the next resumable boundary on SIGINT/SIGTERM or when its
    // wall-clock budget expires, instead of dying mid-stream. Signal
    // handlers are installed only here, so plain runs keep the default
    // kill-me-now semantics.
    let cancel = (opts.checkpoint_dir.is_some() || opts.deadline.is_some()).then(|| {
        let mut token = CancelToken::new();
        if let Some(budget) = opts.deadline {
            token = token.with_deadline(budget);
        }
        if cfp_fault::install_signal_handlers() {
            token = token.observing_signals();
        }
        token
    });

    // The attribution pool exists only when --mem-report asked for it;
    // the mining run charges it so per-component peaks describe the
    // real run, and the post-run analytics pass audits against it.
    let mem_pool = opts.mem_report.as_ref().map(|_| attribution_pool(&opts));
    let runner = match runner_by_name(&opts, mem_pool.as_ref(), cancel.as_ref()) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("cfp-mine: {msg}");
            print_usage();
            exit(EXIT_USAGE);
        }
    };
    let mut degradation: Option<RecoveryReport> = None;

    let stats = if opts.checkpoint_dir.is_some() {
        run_checkpointed(&opts, &db, min_support, cancel.as_ref(), &mut degradation)
    } else if opts.count_only {
        let mut sink = CountingSink::new();
        let stats = runner
            .mine(&db, min_support, &mut sink, &mut degradation)
            .unwrap_or_else(|e| exit_for_mine_error(e));
        if let Err(e) = writeln!(std::io::stdout(), "{}", sink.count) {
            exit_for_write_error(&e);
        }
        stats
    } else if let Some(conf) = opts.rules {
        let mut sink = CollectSink::new();
        let stats = runner
            .mine(&db, min_support, &mut sink, &mut degradation)
            .unwrap_or_else(|e| exit_for_mine_error(e));
        let all = sink.into_sorted();
        let rules = RuleMiner::new(&all, db.len() as u64).rules_by_confidence(conf);
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        for r in &rules {
            if let Err(e) = writeln!(
                out,
                "{:?} => {:?}  support {}  confidence {:.3}  lift {:.3}",
                r.antecedent, r.consequent, r.support, r.confidence, r.lift
            ) {
                exit_for_write_error(&e);
            }
        }
        if let Err(e) = out.flush() {
            exit_for_write_error(&e);
        }
        eprintln!("{} rules", rules.len());
        stats
    } else {
        let stdout = std::io::stdout();
        let mut sink =
            PrintSink { out: std::io::BufWriter::new(stdout.lock()), count: 0, err: None };
        let stats = match runner.mine(&db, min_support, &mut sink, &mut degradation) {
            Ok(stats) => stats,
            Err(e) => {
                // A failed run — notably a `--deadline` interruption —
                // still flushes the complete lines emitted before the
                // stop, so a graceful exit 8 loses no buffered output.
                let _ = sink.out.flush();
                exit_for_mine_error(e)
            }
        };
        let flushed = sink.out.flush();
        if let Some(e) = sink.err {
            exit_for_write_error(&e);
        }
        if let Err(e) = flushed {
            exit_for_write_error(&e);
        }
        stats
    };
    let wall_nanos = run_started.elapsed().as_nanos() as u64;
    let samples = sampler.map(cfp_trace::MemSampler::stop).unwrap_or_default();
    if let Some(meter) = meter {
        meter.stop();
    }
    if let Some(exporter) = metrics {
        // Flushes one final snapshot, so even runs shorter than the
        // interval leave a complete export behind.
        let path = exporter.stop();
        eprintln!("metrics written to {} (and {}.jsonl)", path.display(), path.display());
    }
    // Freeze the timeline before any export reads it; the tracks are
    // shared by the Chrome export, the flame export, and the profile
    // report's events summary.
    let tracks = if tracing {
        cfp_trace::events::set_capture(false);
        cfp_trace::events::drain()
    } else {
        Vec::new()
    };
    if let Some(path) = &opts.trace_out {
        let json = cfp_trace::chrome::chrome_trace(&tracks, &samples);
        if let Err(e) = std::fs::write(path, json.to_pretty()) {
            eprintln!("cannot write trace {path}: {e}");
            exit(1);
        }
        eprintln!("trace written to {path} ({} tracks)", tracks.len());
    }
    if let Some(path) = &opts.flame_out {
        if let Err(e) = std::fs::write(path, cfp_trace::flame::folded_stacks(&tracks)) {
            eprintln!("cannot write flamegraph stacks {path}: {e}");
            exit(1);
        }
        eprintln!("flamegraph stacks written to {path}");
    }

    if opts.stats {
        report_stats(&stats, stats.itemsets);
        if profiling {
            report_trace_stats();
        }
    }
    let mut memstat_summary: Option<cfp_trace::MemSummary> = None;
    if let Some(path) = &opts.mem_report {
        let pool = mem_pool.as_ref().expect("pool exists whenever --mem-report is given");
        // FP-tree baselines for the compression table, built from the
        // same counts the CFP structures use.
        let recoder = cfp_core::ItemRecoder::scan(&db, min_support);
        let fp = cfp_fptree::FpTree::from_db(&db, &recoder);
        let b = cfp_fptree::analysis::baselines(&fp);
        drop(fp);
        let baselines = cfp_core::FpBaselineBytes {
            nodes: b.nodes,
            in_memory_bytes: b.in_memory_bytes,
            paper_bytes: b.paper_bytes,
            nonordfp_bytes: b.nonordfp_bytes,
        };
        let run = cfp_core::MemStatRun {
            dataset: &opts.input,
            algorithm: &opts.algorithm,
            threads: opts.threads.max(1) as u64,
        };
        match cfp_core::collect_memstat(&db, min_support, &run, pool, Some(baselines)) {
            Ok(report) => {
                memstat_summary = Some(report.summary());
                if let Err(e) = std::fs::write(path, report.to_json().to_pretty()) {
                    eprintln!("cannot write memory report {path}: {e}");
                    exit(1);
                }
                eprintln!("memory report written to {path}");
            }
            Err(e) => {
                eprintln!("cfp-mine: memory report failed: {e}");
                exit(e.exit_code());
            }
        }
    }
    if let Some(d) = degradation.as_ref().filter(|d| d.recovered) {
        let winner = d.rungs.last().map(|r| r.rung).unwrap_or("?");
        eprintln!(
            "recovered via {winner} after {} rung(s){}",
            d.rungs.len(),
            if d.final_partitions > 0 {
                format!(" ({} partitions)", d.final_partitions)
            } else {
                String::new()
            }
        );
    }
    if let Some(path) = &opts.profile {
        let mut report = cfp_trace::RunReport::capture(
            opts.input.clone(),
            db.len() as u64,
            min_support,
            opts.algorithm.clone(),
            opts.threads.max(1) as u64,
            stats.itemsets,
            wall_nanos,
            samples,
        );
        if opts.algorithm == "cfp" {
            report.schedule = Some(Schedule::Dynamic.name().into());
        }
        // A supervised run that needed its ladder records what happened;
        // healthy runs carry no degradation section.
        report.degradation =
            degradation.as_ref().filter(|d| !d.rungs.is_empty()).map(RecoveryReport::to_json);
        report.events = Some(cfp_trace::events::summarize(&tracks));
        // Fold the memory summary in when --mem-report also ran, so
        // profile consumers can diff memory without the full document.
        report.memstat = memstat_summary;
        if let Err(e) = std::fs::write(path, report.to_json().to_pretty()) {
            eprintln!("cannot write profile {path}: {e}");
            exit(1);
        }
        eprintln!("profile written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("4096"), Ok(4096));
        assert_eq!(parse_bytes("4k"), Ok(4096));
        assert_eq!(parse_bytes("64M"), Ok(64 << 20));
        assert_eq!(parse_bytes("2g"), Ok(2 << 30));
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("x").is_err());
        assert!(parse_bytes("12q").is_err());
        assert!(parse_bytes("99999999999999999999g").is_err());
    }

    #[test]
    fn parse_args_happy_path() {
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--threads",
            "4",
            "--mem-budget",
            "1m",
            "--skip-bad-lines",
        ]))
        .unwrap();
        assert_eq!(o.input, "in.dat");
        assert!(matches!(o.support, SupportSpec::Absolute(2)));
        assert_eq!(o.threads, 4);
        assert_eq!(o.mem_budget, Some(1 << 20));
        assert!(o.skip_bad_lines);
    }

    #[test]
    fn parse_args_reports_problems_instead_of_exiting() {
        assert!(parse_args(&args(&[])).unwrap_err().contains("no input"));
        assert!(parse_args(&args(&["in.dat"])).unwrap_err().contains("--support"));
        assert!(parse_args(&args(&["in.dat", "--support"])).unwrap_err().contains("missing value"));
        assert!(parse_args(&args(&["in.dat", "--support", "x"]))
            .unwrap_err()
            .contains("bad support"));
        for pct in ["-5%", "nan%", "inf%"] {
            assert!(parse_args(&args(&["in.dat", "--support", pct]))
                .unwrap_err()
                .contains("finite percentage"));
        }
        for conf in ["-3", "nan", "1.5"] {
            assert!(parse_args(&args(&["in.dat", "--support", "2", "--rules", conf]))
                .unwrap_err()
                .contains("between 0 and 1"));
        }
        assert!(parse_args(&args(&["in.dat", "--support", "2", "--bogus"]))
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse_args(&args(&["in.dat", "--support", "2", "--mem-budget", "huge"]))
            .unwrap_err()
            .contains("bad byte count"));
    }

    #[test]
    fn parse_args_schedule() {
        assert!(parse_args(&args(&["in.dat", "--support", "2", "--schedule=dynamic"])).is_ok());
        for gone in ["static", "fifo"] {
            assert!(parse_args(&args(&["in.dat", "--support", "2", "--schedule", gone]))
                .unwrap_err()
                .contains("unknown schedule"));
        }
    }

    #[test]
    fn parse_args_spill_flags() {
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--recover=spill",
            "--spill-dir",
            "/tmp/scratch",
        ]))
        .unwrap();
        assert_eq!(o.recover, RecoveryPolicy::Spill);
        assert_eq!(o.spill_dir.as_deref(), Some("/tmp/scratch"));

        // --spill-dir is meaningless outside the spill policy.
        let err =
            parse_args(&args(&["in.dat", "--support", "2", "--spill-dir", "/tmp/s"])).unwrap_err();
        assert!(err.contains("--recover=spill"), "{err}");
        let err = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--recover=partition",
            "--spill-dir",
            "/tmp/s",
        ]))
        .unwrap_err();
        assert!(err.contains("--recover=spill"), "{err}");

        // The parse error lists every policy; `retry` is not one.
        let err =
            parse_args(&args(&["in.dat", "--support", "2", "--recover", "disk"])).unwrap_err();
        assert!(err.contains("spill"), "{err}");
        let err =
            parse_args(&args(&["in.dat", "--support", "2", "--recover", "retry"])).unwrap_err();
        assert!(err.contains("unknown recovery policy 'retry'"), "{err}");
        assert!(err.contains("(off|degrade|partition|spill)"), "{err}");

        // --recover=spill applies to the cfp algorithm only.
        let err = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--algorithm",
            "apriori",
            "--recover=spill",
        ]))
        .unwrap_err();
        assert!(err.contains("--recover"), "{err}");
    }

    #[test]
    fn parse_args_checkpoint_flags() {
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "7",
            "--resume",
            "--deadline",
            "1.5",
        ]))
        .unwrap();
        assert_eq!(o.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(o.checkpoint_every, 7);
        assert!(o.resume);
        assert_eq!(o.deadline, Some(Duration::from_secs_f64(1.5)));

        // Defaults: every 32 items, no resume, no deadline.
        let o =
            parse_args(&args(&["in.dat", "--support", "2", "--checkpoint-dir=/tmp/ck"])).unwrap();
        assert_eq!(o.checkpoint_every, 32);
        assert!(!o.resume);
        assert_eq!(o.deadline, None);

        // The checkpointed spill mode parses too.
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--recover=spill",
            "--spill-dir=/tmp/sp",
        ]))
        .unwrap();
        assert_eq!(o.recover, RecoveryPolicy::Spill);
    }

    #[test]
    fn parse_args_checkpoint_validations() {
        let err = parse_args(&args(&["in.dat", "--support", "2", "--resume"])).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = parse_args(&args(&["in.dat", "--support", "2", "--checkpoint-every", "4"]))
            .unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--checkpoint-every",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        for bad in [
            &["--checkpoint-dir=/tmp/ck", "--count"][..],
            &["--checkpoint-dir=/tmp/ck", "--output=topk:5"][..],
            &["--checkpoint-dir=/tmp/ck", "--rules", "0.5"][..],
            &["--checkpoint-dir=/tmp/ck", "--schedule=static"][..],
            &["--checkpoint-dir=/tmp/ck", "--recover=partition"][..],
            &["--checkpoint-dir=/tmp/ck", "--mem-report", "m.json"][..],
            &["--recover=partition", "--mem-report", "m.json"][..],
            &["--checkpoint-dir=/tmp/ck", "--algorithm", "fp"][..],
            &["--deadline", "5", "--algorithm", "eclat"][..],
            &["--deadline", "0"][..],
            &["--deadline", "-3"][..],
        ] {
            let mut a = vec!["in.dat", "--support", "2"];
            a.extend_from_slice(bad);
            assert!(parse_args(&args(&a)).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_args_output_modes() {
        let o = parse_args(&args(&["in.dat", "--support", "2", "--output", "closed"])).unwrap();
        assert_eq!(o.output, OutputMode::Closed);
        let o = parse_args(&args(&["in.dat", "--support", "2", "--output=maximal"])).unwrap();
        assert_eq!(o.output, OutputMode::Maximal);
        let o = parse_args(&args(&["in.dat", "--support", "2", "--output=topk:12"])).unwrap();
        assert_eq!(o.output, OutputMode::TopK(12));
        let o = parse_args(&args(&["in.dat", "--support", "2"])).unwrap();
        assert_eq!(o.output, OutputMode::All);

        // Malformed modes are usage errors.
        for bad in ["topk:0", "topk:x", "topk:", "frequent", ""] {
            let err =
                parse_args(&args(&["in.dat", "--support", "2", "--output", bad])).unwrap_err();
            assert!(err.contains("output mode"), "{bad:?}: {err}");
        }

        // --output is the one condensed selector: the flags it replaced
        // are unknown arguments.
        for gone in [&["--closed"][..], &["--maximal"][..], &["--top", "7"][..]] {
            let mut a = vec!["in.dat", "--support", "2"];
            a.extend_from_slice(gone);
            let err = parse_args(&args(&a)).unwrap_err();
            assert!(err.contains("unknown argument"), "{gone:?}: {err}");
        }
        // The engine mines the modes; the baselines reject them.
        let err =
            parse_args(&args(&["in.dat", "--support", "2", "--algorithm=lcm", "--output=closed"]))
                .unwrap_err();
        assert!(err.contains("cfp"), "{err}");

        // --rules needs the full set.
        let err =
            parse_args(&args(&["in.dat", "--support", "2", "--output=topk:3", "--rules", "0.5"]))
                .unwrap_err();
        assert!(err.contains("--rules"), "{err}");
        // --count counts what the mode selects.
        let o = parse_args(&args(&["in.dat", "--support", "2", "--count", "--output", "topk:3"]))
            .unwrap();
        assert_eq!(o.output, OutputMode::TopK(3));
        assert!(o.count_only);

        // No run saves its CFP-array: `--image` is an unknown argument.
        for gone in [&["--image", "y.cfpi"][..], &["--image=y.cfpi"][..]] {
            let mut a = vec!["in.dat", "--support", "2"];
            a.extend_from_slice(gone);
            let err = parse_args(&args(&a)).unwrap_err();
            assert!(err.contains("unknown argument \"--image\""), "{gone:?}: {err}");
        }

        // Checkpointing streams closed/maximal but only on the off rung,
        // and never top-k (no watermark over a heap).
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--output=closed",
        ]))
        .unwrap();
        assert_eq!(o.output, OutputMode::Closed);
        let err = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--output=maximal",
            "--recover=spill",
        ]))
        .unwrap_err();
        assert!(err.contains("--recover=off"), "{err}");
        let err = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--output=topk:5",
        ]))
        .unwrap_err();
        assert!(err.contains("streaming"), "{err}");
    }

    #[test]
    fn parse_args_relative_support() {
        let o = parse_args(&args(&["x.dat", "--support", "2.5%"])).unwrap();
        match o.support {
            SupportSpec::Relative(f) => assert!((f - 0.025).abs() < 1e-12),
            SupportSpec::Absolute(_) => panic!("expected relative"),
        }
    }
}
