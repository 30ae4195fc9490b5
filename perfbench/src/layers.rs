//! The traced pass (`--trace 1`): per-layer metrics.
//!
//! Each metric times one public call of a layer from outside, on the
//! workload's generated database, inside a harness span; counts come from
//! the `cfp-trace` registry with tracing switched on. The suite repeats
//! until the run's seconds are spent (at least once); timings are
//! medians over the repetitions, and the exact counts must repeat.

use crate::spans::Spans;
use crate::{median, metric, proc, Outcome, Scale, Workload};
use cfp_array::CfpArray;
use cfp_core::{
    ckpt, CfpGrowthMiner, CkptProgress, Manifest, MineOpts, ParallelCfpGrowthMiner, RecoveryPolicy,
    Schedule, Supervisor,
};
use cfp_data::miner::CountingSink;
use cfp_data::rng::{Rng, StdRng};
use cfp_data::{CfpError, Item, ItemRecoder, ItemsetSink, MineProgress, Miner, TransactionDb};
use cfp_encoding::{varint, zigzag};
use cfp_memman::{Arena, ArenaOptions, BudgetPool, Component};
use cfp_trace::counters as tc;
use cfp_tree::CfpTree;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Formats every itemset the way `cfp-mine` prints it and times the
/// formatting, so the emit layer has its own number.
#[derive(Default)]
struct EmitSink {
    buf: Vec<u8>,
    count: u64,
    nanos: u64,
}

impl ItemsetSink for EmitSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        let start = Instant::now();
        self.buf.clear();
        for (i, item) in itemset.iter().enumerate() {
            if i > 0 {
                self.buf.push(b' ');
            }
            self.buf.extend_from_slice(item.to_string().as_bytes());
        }
        self.buf.extend_from_slice(format!(" ({support})\n").as_bytes());
        black_box(&self.buf);
        self.count += 1;
        self.nanos += start.elapsed().as_nanos() as u64;
    }
}

/// Commits a checkpoint manifest at every spill-partition boundary, as
/// `cfp-mine --checkpoint-dir` does, timing each `ckpt::save`.
struct CkptSink<'a> {
    dir: &'a Path,
    template: Manifest,
    emitted: u64,
    commits: Vec<f64>,
}

impl ItemsetSink for CkptSink<'_> {
    fn emit(&mut self, _itemset: &[Item], _support: u64) {
        self.emitted += 1;
    }

    fn progress(&mut self, p: MineProgress<'_>) -> Result<(), CfpError> {
        let progress = match p {
            MineProgress::Items { done } => CkptProgress::Mono { items_done: done },
            MineProgress::SpillParts { done, remaining } => {
                CkptProgress::Spill { parts_done: done, remaining: remaining.to_vec() }
            }
        };
        let manifest = Manifest { progress, itemsets: self.emitted, ..self.template.clone() };
        let start = Instant::now();
        ckpt::save(self.dir, &manifest)?;
        self.commits.push(start.elapsed().as_secs_f64());
        Ok(())
    }
}

/// Seeded alloc/free mix over every chunk size: 60% allocations, 40%
/// frees of a random live chunk. Returns (operations, seconds).
fn arena_mix(seed: u64, ops: usize) -> (u64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let plan: Vec<(bool, usize, u64)> = (0..ops)
        .map(|_| {
            let size = rng.gen_range(cfp_memman::MIN_CHUNK..=cfp_memman::MAX_CHUNK);
            (rng.gen_bool(0.6), size, rng.next_u64())
        })
        .collect();
    let mut arena = Arena::new();
    let mut live: Vec<(u64, usize)> = Vec::with_capacity(ops);
    let start = Instant::now();
    for &(alloc, size, pick) in &plan {
        if alloc || live.is_empty() {
            live.push((arena.alloc(size), size));
        } else {
            let (off, size) = live.swap_remove((pick % live.len() as u64) as usize);
            arena.free(off, size);
        }
    }
    black_box(&live);
    (ops as u64, start.elapsed().as_secs_f64())
}

/// Per-layer values of one repetition of the suite.
#[derive(Default)]
struct Pass {
    timings: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    /// Itemset totals of every miner the pass ran; all must agree.
    itemsets: Vec<(&'static str, u64)>,
}

struct Ctx<'a> {
    w: &'a Workload,
    db: &'a TransactionDb,
    file: &'a Path,
    file_bytes: f64,
    min_support: u64,
    work: &'a Path,
    seed: u64,
    scale: Scale,
}

fn one_pass(cx: &Ctx, spans: &mut Spans) -> Result<Pass, String> {
    let mut p = Pass::default();
    let db = cx.db;
    let rows = db.len() as f64;
    spans.enter("pass");

    // cfp-data: whole-file and double-buffered reading, then counting.
    let (read, secs) = spans.time("data.read", || {
        cfp_data::fimi::read_file_with_policy(cx.file, cfp_data::ParsePolicy::Strict)
    });
    let (read_db, _) = read.map_err(|e| format!("read: {e}"))?;
    if read_db.len() != db.len() {
        return Err("the file read back has a different row count".into());
    }
    drop(read_db);
    p.timings.insert("data.read_mbps", cx.file_bytes / 1e6 / secs);
    let file = std::fs::File::open(cx.file).map_err(|e| e.to_string())?;
    let mut streamed = 0u64;
    let (res, secs) = spans.time("data.stream_read", || {
        cfp_data::double_buffer::DoubleBufferedReader::new(file)
            .for_each_transaction(|t| streamed += t.len() as u64)
    });
    res.map_err(|e| format!("stream read: {e}"))?;
    black_box(streamed);
    p.timings.insert("data.stream_read_mbps", cx.file_bytes / 1e6 / secs);
    let (recoder, secs) = spans.time("data.count", || ItemRecoder::scan(db, cx.min_support));
    p.timings.insert("data.count_s", secs);

    // cfp-memman: the seeded alloc/free mix.
    let ((ops, secs), _) = spans.time("memman.arena_mix", || arena_mix(cx.seed, 1 << 21));
    p.timings.insert("memman.alloc_ns", secs * 1e9 / ops as f64);

    // cfp-tree: the initial build.
    cfp_trace::reset();
    let opts = ArenaOptions { component: Component::BuildTree, ..Default::default() };
    let (tree, secs) = spans.time("tree.build", || CfpTree::try_from_db_with(db, &recoder, opts));
    let tree = tree.map_err(|e| format!("tree build: {e}"))?;
    let nodes = tree.num_nodes() as f64;
    p.timings.insert("tree.build_s", secs);
    p.timings.insert("tree.insert_ns", secs * 1e9 / rows);
    p.counts.insert("tree.nodes", nodes);
    p.counts.insert("tree.bytes_per_node", tree.avg_node_bytes());
    p.counts.insert("tree.chain_splits", tc::TREE_CHAIN_SPLITS.get() as f64);

    // cfp-array: convert, then walk every subarray.
    let (array, secs) = spans.time("array.convert", || cfp_array::convert(&tree));
    drop(tree);
    p.timings.insert("array.convert_s", secs);
    p.timings.insert("array.convert_ns_per_node", secs * 1e9 / nodes);
    p.counts.insert("array.bytes_per_node", array.avg_node_bytes());
    let mut triples: Vec<u8> = Vec::new();
    let (walked, secs) = spans.time("array.scan", || {
        let mut walked = 0u64;
        for item in 0..array.num_items() as u32 {
            for node in array.subarray(item) {
                black_box(node);
                walked += 1;
            }
        }
        walked
    });
    p.timings.insert("array.scan_ns_per_node", secs * 1e9 / walked.max(1) as f64);
    for item in 0..array.num_items() as u32 {
        for node in array.subarray(item) {
            varint::write_u64(&mut triples, node.ditem as u64);
            varint::write_u64(&mut triples, zigzag::encode(node.dpos));
            varint::write_u64(&mut triples, node.count);
        }
    }

    // cfp-array serialize: CFPA write and read-back.
    let mut image: Vec<u8> = Vec::new();
    let (res, secs) = spans.time("array.write", || array.write_to(&mut image));
    res.map_err(|e| format!("array write: {e}"))?;
    p.timings.insert("array.write_mbps", image.len() as f64 / 1e6 / secs);
    let (back, secs) = spans.time("array.read", || CfpArray::read_from(&image[..]));
    let back = back.map_err(|e| format!("array read: {e}"))?;
    if back.num_nodes() != array.num_nodes() {
        return Err("the CFPA image read back has a different node count".into());
    }
    p.timings.insert("array.read_mbps", image.len() as f64 / 1e6 / secs);
    drop((back, image, array));

    // cfp-encoding: decode the workload's triples, eight sweeps.
    let (sum, secs) = spans.time("encoding.varint_decode", || {
        let mut sum = 0u64;
        for _ in 0..8 {
            let mut at = 0;
            while at < triples.len() {
                let (v, n) = varint::read_u64_unchecked(&triples[at..]);
                sum = sum.wrapping_add(v);
                at += n;
            }
        }
        sum
    });
    black_box(sum);
    p.timings.insert("encoding.varint_decode_mbps", 8.0 * triples.len() as f64 / 1e6 / secs);

    // cfp-core growth with an unlimited attribution pool (memman counts
    // and the pool peak come from this run).
    cfp_trace::reset();
    let pool = BudgetPool::unlimited();
    let mut sink = EmitSink::default();
    let opts = MineOpts { pool: Some(pool.clone()), ..Default::default() };
    let (stats, _) = spans.time("core.mine", || {
        CfpGrowthMiner::new().try_mine_with(db, cx.min_support, &mut sink, &opts)
    });
    let stats = stats.map_err(|e| format!("cfp mine: {e}"))?;
    let cond_trees = tc::CORE_CONDITIONAL_TREES.get();
    let mine_s = stats.mine_time.as_secs_f64();
    p.timings.insert("core.mine_s", mine_s);
    p.timings.insert("core.mine_ns_per_cond_tree", mine_s * 1e9 / cond_trees.max(1) as f64);
    p.timings.insert("core.emit_s", sink.nanos as f64 * 1e-9);
    p.counts.insert("core.conditional_trees", cond_trees as f64);
    p.counts.insert("core.single_path_shortcuts", tc::CORE_SINGLE_PATH_SHORTCUTS.get() as f64);
    p.counts.insert("core.patterns_emitted", tc::CORE_PATTERNS.get() as f64);
    let allocs = tc::MEMMAN_ALLOCS.get();
    p.counts.insert("memman.allocs", allocs as f64);
    p.counts.insert(
        "memman.queue_hit_ratio",
        tc::MEMMAN_QUEUE_HITS.get() as f64 / allocs.max(1) as f64,
    );
    p.counts.insert("memman.pool_peak_mib", pool.peak() as f64 / MIB);
    p.itemsets.push(("cfp", sink.count));

    // cfp-core parallel, two workers.
    cfp_trace::reset();
    let mut counted = CountingSink::new();
    let cpu0 = proc::self_cpu_s();
    let miner =
        ParallelCfpGrowthMiner { schedule: Schedule::Dynamic, ..ParallelCfpGrowthMiner::new(2) };
    let (res, wall) = spans.time("par.mine", || miner.try_mine(db, cx.min_support, &mut counted));
    let cpu = proc::self_cpu_s() - cpu0;
    res.map_err(|e| format!("parallel mine: {e}"))?;
    p.timings.insert("par.mine_s", wall);
    p.timings.insert("par.mine_cpu_s", cpu);
    p.timings.insert("par.efficiency", cpu / (wall * 2.0));
    p.counts.insert("core.tasks_stolen", tc::CORE_TASKS_STOLEN.get() as f64);
    p.itemsets.push(("parallel", counted.count));

    // cfp-core supervisor: the out-of-core spill rung with a checkpoint
    // commit at every partition.
    cfp_trace::reset();
    let (spill_dir, ckpt_dir) = (cx.work.join("layer-spill"), cx.work.join("layer-ckpt"));
    for dir in [&spill_dir, &ckpt_dir] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let supervisor = Supervisor {
        mem_budget: Some(cx.scale.spill_budget()),
        spill_dir: Some(spill_dir.clone()),
        ..Supervisor::new(RecoveryPolicy::Spill)
    };
    let mut ckpt_sink = CkptSink {
        dir: &ckpt_dir,
        template: Manifest {
            input: cx.file.display().to_string(),
            min_support: cx.min_support,
            counts: ckpt::counts_fingerprint(&recoder),
            num_items: recoder.num_items() as u64,
            output: "all".into(),
            progress: CkptProgress::Mono { items_done: 0 },
            output_bytes: 0,
            itemsets: 0,
        },
        emitted: 0,
        commits: Vec::new(),
    };
    let ((res, report), secs) = spans.time("spill.recover", || {
        supervisor.mine_out_of_core_resumable(db, cx.min_support, &mut ckpt_sink, None)
    });
    res.map_err(|e| format!("spill mine: {e}"))?;
    let commits = &ckpt_sink.commits;
    p.timings.insert("spill.recover_s", secs);
    p.timings
        .insert("ckpt.commit_ms", if commits.is_empty() { 0.0 } else { median(commits) * 1e3 });
    p.timings.insert("ckpt.share", commits.iter().sum::<f64>() / secs);
    p.counts.insert("spill.partitions", report.final_partitions as f64);
    p.counts.insert(
        "spill.write_amplification",
        tc::DATA_SPILL_BYTES_WRITTEN.get() as f64 / cx.file_bytes,
    );
    p.itemsets.push(("spill", ckpt_sink.emitted));
    for dir in [&spill_dir, &ckpt_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    // cfp-fptree yardstick.
    let (fp, secs) = spans.time("fptree.build", || cfp_fptree::FpTree::from_db(db, &recoder));
    drop(fp);
    p.timings.insert("fptree.build_s", secs);
    let mut counted = CountingSink::new();
    let (stats, _) = spans.time("fptree.mine", || {
        cfp_fptree::FpGrowthMiner::new().try_mine(db, cx.min_support, &mut counted)
    });
    let stats = stats.map_err(|e| format!("fp mine: {e}"))?;
    p.timings.insert("fptree.mine_s", stats.mine_time.as_secs_f64());
    p.itemsets.push(("fp", counted.count));

    spans.exit();
    Ok(p)
}

/// `cfp-mine --profile` against the untraced command, alternating.
fn trace_overhead(
    cx: &Ctx,
    bin: &Path,
    spans: &mut Spans,
    plain: &mut Vec<f64>,
    profiled: &mut Vec<f64>,
) -> Result<(), String> {
    let support = cx.w.support_arg(cx.scale);
    let args = cx.w.cfp_args(cx.file, &support, cx.work, cx.scale);
    let mut with_profile = args.clone();
    with_profile.extend(["--profile".into(), cx.work.join("profile.json").display().to_string()]);
    let out = cx.work.join("stdout.txt");
    for (args, into) in [(&args, &mut *plain), (&with_profile, &mut *profiled)] {
        crate::fresh_dirs(cx.w, cx.work)?;
        spans.enter("cli.run");
        let usage = proc::run(bin, args, &out).map_err(|e| e.to_string())?;
        spans.exit();
        if !usage.ok {
            return Err(format!("cfp-mine failed: {}", args.join(" ")));
        }
        into.push(usage.wall_s);
    }
    Ok(())
}

const EXACT: [&str; 5] = [
    "tree.nodes",
    "array.bytes_per_node",
    "core.conditional_trees",
    "core.patterns_emitted",
    "spill.partitions",
];

/// Runs the traced pass and returns every per-layer metric.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    w: &Workload,
    db: &TransactionDb,
    bin: &Path,
    file: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Outcome, String> {
    let file_bytes = std::fs::metadata(file).map_err(|e| e.to_string())?.len() as f64;
    let cx = Ctx {
        w,
        db,
        file,
        file_bytes,
        min_support: w.min_support(db.len(), scale),
        work,
        seed,
        scale,
    };
    cfp_trace::set_enabled(true);
    let mut spans = Spans::new();
    let mut passes: Vec<Pass> = Vec::new();
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    // Half the time goes to layer passes, the rest to CLI pairs for the
    // tracing overhead (at least three, as one pair is too noisy).
    let start = Instant::now();
    let smoke = scale.is_smoke();
    while passes.is_empty() || (!smoke && start.elapsed().as_secs_f64() < seconds / 2.0) {
        passes.push(one_pass(&cx, &mut spans)?);
    }
    while plain.is_empty()
        || (!smoke && (plain.len() < 3 || start.elapsed() < Duration::from_secs_f64(seconds)))
    {
        trace_overhead(&cx, bin, &mut spans, &mut plain, &mut profiled)?;
    }
    cfp_trace::set_enabled(false);

    let span_file = work.join("spans.json");
    std::fs::write(&span_file, spans.to_json(w.name, seed).to_pretty())
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    eprintln!(
        "perfbench: {} pass(es), {} span(s) -> {}",
        passes.len(),
        spans.len(),
        span_file.display()
    );

    // Correctness: every miner agrees on the itemset count in every pass,
    // and the exact counts repeat from pass to pass.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let first = &passes[0];
    for pass in &passes {
        for &(miner, n) in &pass.itemsets {
            attempted += 1;
            if n != first.itemsets[0].1 {
                failed += 1;
                eprintln!("perfbench: {miner} mined {n} itemsets, cfp {}", first.itemsets[0].1);
            }
        }
        for name in EXACT {
            attempted += 1;
            if pass.counts[name] != first.counts[name] {
                failed += 1;
                eprintln!("perfbench: {name} changed between passes");
            }
        }
    }

    let timing = |name: &str| median(&passes.iter().map(|p| p.timings[name]).collect::<Vec<_>>());
    let count = |name: &str| first.counts[name];
    let ratio_build =
        (timing("tree.build_s") + timing("array.convert_s")) / timing("fptree.build_s");
    let ratio_mine = timing("core.mine_s") / timing("fptree.mine_s");
    let overhead_pct = (median(&profiled) / median(&plain) - 1.0) * 100.0;
    let metrics = vec![
        metric("data.read_mbps", timing("data.read_mbps"), "MB/s"),
        metric("data.stream_read_mbps", timing("data.stream_read_mbps"), "MB/s"),
        metric("data.count_s", timing("data.count_s"), "s"),
        metric("memman.alloc_ns", timing("memman.alloc_ns"), "ns"),
        metric("memman.allocs", count("memman.allocs"), "count"),
        metric("memman.queue_hit_ratio", count("memman.queue_hit_ratio"), "ratio"),
        metric("memman.pool_peak_mib", count("memman.pool_peak_mib"), "MiB"),
        metric("tree.build_s", timing("tree.build_s"), "s"),
        metric("tree.insert_ns", timing("tree.insert_ns"), "ns"),
        metric("tree.nodes", count("tree.nodes"), "count"),
        metric("tree.bytes_per_node", count("tree.bytes_per_node"), "B"),
        metric("tree.chain_splits", count("tree.chain_splits"), "count"),
        metric("array.convert_s", timing("array.convert_s"), "s"),
        metric("array.convert_ns_per_node", timing("array.convert_ns_per_node"), "ns"),
        metric("array.bytes_per_node", count("array.bytes_per_node"), "B"),
        metric("array.scan_ns_per_node", timing("array.scan_ns_per_node"), "ns"),
        metric("array.write_mbps", timing("array.write_mbps"), "MB/s"),
        metric("array.read_mbps", timing("array.read_mbps"), "MB/s"),
        metric("encoding.varint_decode_mbps", timing("encoding.varint_decode_mbps"), "MB/s"),
        metric("core.mine_s", timing("core.mine_s"), "s"),
        metric("core.mine_ns_per_cond_tree", timing("core.mine_ns_per_cond_tree"), "ns"),
        metric("core.conditional_trees", count("core.conditional_trees"), "count"),
        metric("core.single_path_shortcuts", count("core.single_path_shortcuts"), "count"),
        metric("core.patterns_emitted", count("core.patterns_emitted"), "count"),
        metric("core.emit_s", timing("core.emit_s"), "s"),
        metric("par.mine_s", timing("par.mine_s"), "s"),
        metric("par.mine_cpu_s", timing("par.mine_cpu_s"), "s"),
        metric("par.efficiency", timing("par.efficiency"), "ratio"),
        metric(
            "core.tasks_stolen",
            median(&passes.iter().map(|p| p.counts["core.tasks_stolen"]).collect::<Vec<_>>()),
            "count",
        ),
        metric("spill.recover_s", timing("spill.recover_s"), "s"),
        metric("spill.partitions", count("spill.partitions"), "count"),
        metric("spill.write_amplification", count("spill.write_amplification"), "ratio"),
        metric("ckpt.commit_ms", timing("ckpt.commit_ms"), "ms"),
        metric("ckpt.share", timing("ckpt.share"), "fraction"),
        metric("fptree.build_s", timing("fptree.build_s"), "s"),
        metric("fptree.mine_s", timing("fptree.mine_s"), "s"),
        metric("ratio.build", ratio_build, "ratio"),
        metric("ratio.mine", ratio_mine, "ratio"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ];
    for m in &metrics {
        eprintln!("perfbench:   {:<30} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "perfbench:   trace.overhead_pct base: untraced wall median {:.4}s ({} runs), --profile {:.4}s ({} runs)",
        median(&plain),
        plain.len(),
        median(&profiled),
        profiled.len()
    );
    Ok(Outcome { attempted, failed, metrics })
}
