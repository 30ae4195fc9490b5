//! `perfbench` — the repository's repeatable benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Builds `cfp-mine` from the checkout, generates the workload's FIMI file
//! from the seed, and then either
//!
//! - `--trace 0`: times the real `cfp-mine` process end to end (file on
//!   disk to itemsets on stdout, tracing off) against `--algorithm fp` on
//!   the same file, for `S` seconds, checking every run's output; or
//! - `--trace 1`: runs the traced pass, which times the public call of
//!   each layer in-process on the same database and reads the
//!   `cfp-trace` counters, repeating until `S` seconds have passed.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit). `--smoke` shrinks the
//! inputs twentyfold and makes one repetition. See `perfbench/README.md`.

mod digest;
mod gen;
mod layers;
mod proc;
mod spans;

use cfp_data::TransactionDb;
use cfp_trace::json::Json;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::{Duration, Instant};

/// How a workload's input is generated.
#[derive(Clone, Copy)]
enum Input {
    /// The `quest1` profile: Quest, 100k rows, avg len 14, 2000 items.
    Quest1,
    /// kosarak-shaped Zipf rows (s = 1.4, 8000 items, avg len 8.1),
    /// 500k rows; seed 0 extends the `kosarak-like` profile.
    Clickstream,
    /// The `connect-like` profile: 20k rows × 43 dense attributes.
    Connect,
}

/// Minimum support as `cfp-mine --support` takes it.
#[derive(Clone, Copy)]
enum Support {
    Absolute(u64),
    Percent(u32),
}

pub struct Workload {
    name: &'static str,
    input: Input,
    support: Support,
    /// Extra `cfp-mine` flags of the timed cfp command.
    flags: &'static [&'static str],
    /// `--count` output instead of itemsets.
    count_only: bool,
    /// Mine out of core under `--mem-budget` with checkpoints.
    spill: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "quest1-fig7",
        input: Input::Quest1,
        support: Support::Absolute(150),
        flags: &[],
        count_only: false,
        spill: false,
    },
    Workload {
        name: "clickstream",
        input: Input::Clickstream,
        support: Support::Percent(1),
        flags: &["--count"],
        count_only: true,
        spill: false,
    },
    Workload {
        name: "connect-dense-par2",
        input: Input::Connect,
        support: Support::Percent(80),
        flags: &["--threads", "2", "--schedule", "dynamic"],
        count_only: false,
        spill: false,
    },
    Workload {
        name: "quest1-spill",
        input: Input::Quest1,
        support: Support::Absolute(400),
        flags: &[],
        count_only: false,
        spill: true,
    },
];

/// Input size: the real workload, or the smoke run's twentieth of it.
#[derive(Clone, Copy)]
pub struct Scale {
    divisor: usize,
}

impl Scale {
    const FULL: Scale = Scale { divisor: 1 };
    const SMOKE: Scale = Scale { divisor: 20 };

    pub fn is_smoke(self) -> bool {
        self.divisor > 1
    }

    fn rows(self, n: usize) -> usize {
        n / self.divisor
    }

    /// The out-of-core budget, shrunk with the input so the smoke run
    /// still spills into several partitions.
    pub fn spill_budget(self) -> u64 {
        (1 << 20) / self.divisor as u64
    }
}

impl Workload {
    fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn generate(&self, seed: u64, scale: Scale) -> TransactionDb {
        match self.input {
            Input::Quest1 => {
                let config = cfp_data::profiles::quest1_config();
                let rows = scale.rows(config.num_transactions);
                gen::quest(&cfp_data::quest::QuestConfig { num_transactions: rows, ..config }, seed)
            }
            Input::Clickstream => {
                gen::zipf_rows(scale.rows(500_000), 8_000, 1.4, 8.1, gen::derive(103, seed))
            }
            Input::Connect => {
                gen::dense_attributes(scale.rows(20_000), 43, 3, 0.08, gen::derive(102, seed))
            }
        }
    }

    fn support_arg(&self, scale: Scale) -> String {
        match self.support {
            Support::Absolute(n) => (n / scale.divisor as u64).max(1).to_string(),
            Support::Percent(p) => format!("{p}%"),
        }
    }

    /// The absolute support `cfp-mine` derives for `rows` transactions.
    pub fn min_support(&self, rows: usize, scale: Scale) -> u64 {
        match self.support {
            Support::Absolute(n) => (n / scale.divisor as u64).max(1),
            Support::Percent(p) => ((rows as u64 * p as u64).div_ceil(100)).max(1),
        }
    }

    /// The timed cfp command at `support`.
    pub fn cfp_args(&self, file: &Path, support: &str, work: &Path, scale: Scale) -> Vec<String> {
        let mut args = vec![file.display().to_string(), "--support".into(), support.into()];
        args.extend(self.flags.iter().map(|f| f.to_string()));
        if self.spill {
            args.extend([
                "--mem-budget".into(),
                scale.spill_budget().to_string(),
                "--recover".into(),
                "spill".into(),
                "--spill-dir".into(),
                work.join("spill").display().to_string(),
                "--checkpoint-dir".into(),
                work.join("ckpt").display().to_string(),
            ]);
        }
        args
    }

    /// The fp-growth yardstick on the same file and support.
    fn fp_args(&self, file: &Path, support: &str) -> Vec<String> {
        let mut args = vec![
            file.display().to_string(),
            "--support".into(),
            support.into(),
            "--algorithm".into(),
            "fp".into(),
        ];
        if self.count_only {
            args.push("--count".into());
        }
        args
    }

    /// The command whose output every timed run must match: fp on the
    /// same file, or the in-memory cfp run for the spill workload.
    fn reference_args(&self, file: &Path, support: &str) -> Vec<String> {
        if self.spill {
            vec![file.display().to_string(), "--support".into(), support.into()]
        } else {
            self.fp_args(file, support)
        }
    }

    fn digest(&self, path: &Path) -> Option<digest::Digest> {
        let text = std::fs::read_to_string(path).ok()?;
        if self.count_only {
            digest::count(&text)
        } else {
            digest::itemsets(&text)
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// Internal: only generate the input into this file and exit.
    write_input: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::FULL;
    let mut write_input = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::by_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("--seed takes an integer")),
            "--seconds" => {
                seconds = value().parse().unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => scale = Scale::SMOKE,
            "--write-input" => write_input = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Args { workload, seed, seconds, trace, scale, write_input }
}

/// The checkout this benchmark lives in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Builds `cfp-mine` (release, default features) into the target
/// directory cargo uses for this checkout and returns its path.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir().map_err(|e| e.to_string())?.join(dir),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "cfp-mine", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cfp-mine failed ({status})"));
    }
    Ok(target.join("release").join("cfp-mine"))
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The outcome a run prints as its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]);
                (m.name.to_string(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::u64(self.attempted)),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Timed samples of one command.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    rss: Vec<f64>,
}

impl Samples {
    fn push(&mut self, u: proc::Usage) {
        self.wall.push(u.wall_s);
        self.cpu.push(u.cpu_s);
        self.rss.push(u.peak_rss_mib);
    }
}

/// Recreates the spill workload's scratch directories, so no run sees
/// another's leftovers.
fn fresh_dirs(w: &Workload, work: &Path) -> Result<(), String> {
    if w.spill {
        for dir in ["spill", "ckpt"] {
            let dir = work.join(dir);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    Ok(())
}

/// Runs one command and checks its output against `expect`; `Ok(None)`
/// is a failed run (non-zero exit or wrong output), whose timing is
/// dropped.
fn checked_run(
    w: &Workload,
    bin: &Path,
    args: &[String],
    work: &Path,
    expect: digest::Digest,
) -> Result<Option<proc::Usage>, String> {
    fresh_dirs(w, work)?;
    let out = work.join("stdout.txt");
    let usage = proc::run(bin, args, &out).map_err(|e| format!("cannot run cfp-mine: {e}"))?;
    let good = usage.ok && w.digest(&out) == Some(expect);
    if !good {
        eprintln!("perfbench: run failed or output differs: cfp-mine {}", args.join(" "));
    }
    Ok(good.then_some(usage))
}

/// The end-to-end measurement (`--trace 0`).
fn end_to_end(
    w: &Workload,
    bin: &Path,
    file: &Path,
    rows: usize,
    work: &Path,
    args: &Args,
) -> Result<Outcome, String> {
    let support = w.support_arg(args.scale);
    let out = work.join("stdout.txt");
    let reference_args = w.reference_args(file, &support);
    let reference = proc::run(bin, &reference_args, &out).map_err(|e| e.to_string())?;
    let expect = w
        .digest(&out)
        .filter(|_| reference.ok)
        .ok_or_else(|| format!("reference run failed: cfp-mine {}", reference_args.join(" ")))?;
    eprintln!("perfbench: reference output: {} line(s)", expect.lines);

    let smoke = args.scale.is_smoke();
    // Set-up runs are short (tens of milliseconds on the small inputs),
    // so take at least seven and keep going for about two seconds.
    let (min_setup, min_rounds) = if smoke { (1, 1) } else { (7, 3) };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tally = |r: Option<proc::Usage>| {
        attempted += 1;
        failed += r.is_none() as u64;
        r
    };

    // Set-up: the same command with a support above every item's count,
    // so it reads, parses and counts, and finds nothing frequent.
    let above_all = (rows + 1).to_string();
    let setup_args = w.cfp_args(file, &above_all, work, args.scale);
    let setup_expect = if w.count_only {
        digest::count("0").expect("literal count")
    } else {
        digest::itemsets("").expect("empty output")
    };
    let mut setup = Vec::new();
    let setup_until = Instant::now() + Duration::from_secs(2);
    for rep in 0..31 {
        if rep >= min_setup && (smoke || Instant::now() >= setup_until) {
            break;
        }
        if let Some(u) = tally(checked_run(w, bin, &setup_args, work, setup_expect)?) {
            setup.push(u.wall_s);
        }
    }

    let cfp_args = w.cfp_args(file, &support, work, args.scale);
    let fp_args = w.fp_args(file, &support);
    let mut cfp = Samples::default();
    let mut fp = Samples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    while rounds < min_rounds || Instant::now() < deadline {
        rounds += 1;
        if let Some(u) = tally(checked_run(w, bin, &cfp_args, work, expect)?) {
            cfp.push(u);
        }
        if let Some(u) = tally(checked_run(w, bin, &fp_args, work, expect)?) {
            fp.push(u);
        }
        if smoke {
            break;
        }
    }
    if cfp.wall.is_empty() || fp.wall.is_empty() || setup.is_empty() {
        return Err("every run of a command failed".into());
    }
    let (cfp_cpu, fp_cpu) = (median(&cfp.cpu), median(&fp.cpu));
    eprintln!(
        "perfbench: {} cfp run(s): wall {:.4}s cpu {:.4}s rss {:.2}MiB | {} fp run(s): wall \
         {:.4}s cpu {:.4}s rss {:.2}MiB | {} set-up run(s): {:.4}s | error_rate {}",
        cfp.wall.len(),
        median(&cfp.wall),
        cfp_cpu,
        median(&cfp.rss),
        fp.wall.len(),
        median(&fp.wall),
        fp_cpu,
        median(&fp.rss),
        setup.len(),
        median(&setup),
        failed as f64 / attempted as f64,
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("wall_s", median(&cfp.wall), "s"),
            metric("cpu_s", cfp_cpu, "s"),
            metric("peak_rss_mib", median(&cfp.rss), "MiB"),
            metric("setup_s", median(&setup), "s"),
            metric("cfp_fp_ratio", cfp_cpu / fp_cpu, "ratio"),
            metric("success_rate", 1.0 - failed as f64 / attempted as f64, "fraction"),
        ],
    })
}

/// Lines of a file, read through a small fixed buffer.
fn count_lines(path: &Path) -> std::io::Result<usize> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 16];
    let mut lines = 0;
    loop {
        match std::io::Read::read(&mut file, &mut buf)? {
            0 => return Ok(lines),
            n => lines += buf[..n].iter().filter(|&&b| b == b'\n').count(),
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let root = repo_root();
    let bin = build_cli(&root)?;
    let work = bin
        .parent()
        .expect("binary has a directory")
        .join("perfbench-work")
        .join(format!("{}-{}", w.name, args.seed));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    // A child process generates the input: a spawned child inherits its
    // parent's peak RSS as the floor of its own `ru_maxrss`, so this
    // process must never hold a database while it times cfp-mine.
    let file = work.join("input.dat");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(std::env::args().skip(1))
        .arg("--write-input")
        .arg(&file)
        .status()
        .map_err(|e| format!("cannot generate the input: {e}"))?;
    if !status.success() {
        return Err(format!("generating the input failed ({status})"));
    }
    let bytes = std::fs::metadata(&file).map_err(|e| e.to_string())?.len();
    let outcome = if args.trace {
        let (db, _) = cfp_data::fimi::read_file_with_policy(&file, cfp_data::ParsePolicy::Strict)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        eprintln!("perfbench: {} seed {}: {} rows, {bytes} bytes", w.name, args.seed, db.len());
        layers::traced_pass(w, &db, &bin, &file, &work, args.seed, args.seconds, args.scale)?
    } else {
        let rows = count_lines(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        eprintln!("perfbench: {} seed {}: {rows} rows, {bytes} bytes", w.name, args.seed);
        end_to_end(w, &bin, &file, rows, &work, args)?
    };
    let _ = std::fs::remove_file(&file);
    Ok(outcome)
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.write_input {
        let db = args.workload.generate(args.seed, args.scale);
        if let Err(e) = cfp_data::fimi::write_file(&db, path) {
            eprintln!("perfbench: {}: {e}", path.display());
            exit(1);
        }
        return;
    }
    match run(&args) {
        Ok(outcome) => println!("{}", outcome.to_json().to_compact()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}
