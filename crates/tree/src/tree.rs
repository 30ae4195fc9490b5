//! The CFP-tree data structure and its insertion algorithm.
//!
//! All nodes live in a [`cfp_memman::Arena`]; a node is referenced by the
//! 40-bit *slot value* stored in its parent (see [`crate::node`]). The
//! tree keeps one 5-byte root slot inside the arena, so the insertion walk
//! treats the root like any other pointer field.
//!
//! Insertion follows the transaction's strictly ascending recoded items
//! down the tree. At each step the current slot resolves to one of
//!
//! - **empty** → the remaining items become a fresh branch (embedded leaf,
//!   standard node, or chain, built bottom-up),
//! - **embedded leaf** → matched in place when possible, otherwise
//!   *unembedded* into a standard node so a sibling or child can attach,
//! - **standard node** → binary-search-tree navigation among siblings via
//!   `left`/`right`, descent via `suffix`; attaching a new pointer or
//!   growing `pcount` past a byte boundary re-encodes the node through the
//!   memory manager (grow/shrink in Appendix A),
//! - **chain node** → entries are matched one by one; any structural
//!   change inside the chain (divergence, mid-chain transaction end)
//!   splits it into prefix chain / pivot standard node / remainder chain,
//!   exactly the "chain nodes may be split" behaviour of §4.1.

use crate::node::{
    self, embed, is_embedded, unembed, ChainNode, PtrField, StdNode, EMBED_MAX_DITEM,
};
use cfp_data::{ItemRecoder, TransactionDb};
use cfp_encoding::mask::{is_chain, MAX_CHAIN_LEN};
use cfp_fault::CfpError;
use cfp_memman::{AllocError, Arena, ArenaOptions};
use cfp_metrics::HeapSize;
use cfp_trace::counters as tc;

/// Tuning knobs of the physical representation, mainly for ablation
/// studies of the paper's design choices (leading-zero suppression and
/// pointer null-suppression are inherent to the node format and cannot be
/// disabled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CfpTreeConfig {
    /// Maximum entries per chain node; values < 2 disable chains.
    /// The paper restricts chains to 15 entries (§4.1).
    pub max_chain_len: usize,
    /// Whether small leaves are embedded into their parents' pointer
    /// fields (§3.3).
    pub embed_leaves: bool,
}

impl Default for CfpTreeConfig {
    fn default() -> Self {
        CfpTreeConfig { max_chain_len: MAX_CHAIN_LEN, embed_leaves: true }
    }
}

/// A compressed prefix tree over recoded items `0..num_items`.
#[derive(Debug)]
pub struct CfpTree {
    arena: Arena,
    root_slot: u64,
    config: CfpTreeConfig,
    num_items: u32,
    /// Logical FP-tree nodes (chain entries and embedded leaves count one
    /// each) — the denominator of the paper's bytes-per-node metric.
    num_nodes: u64,
    /// Total inserted weight (= sum of all pcounts).
    weight_total: u64,
    /// Support of each item within this tree.
    item_supports: Vec<u64>,
}

/// Outcome of one step through a chain node.
enum ChainStep {
    /// The insertion finished inside the chain.
    Done,
    /// All entries matched; continue at this slot (the chain's suffix).
    Descend(u64),
}

impl CfpTree {
    /// Creates an empty tree over `num_items` recoded items.
    pub fn new(num_items: usize) -> Self {
        Self::with_config(num_items, CfpTreeConfig::default())
    }

    /// Creates an empty tree with explicit representation knobs.
    pub fn with_config(num_items: usize, config: CfpTreeConfig) -> Self {
        Self::try_with_options(num_items, config, ArenaOptions::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an empty tree whose arena is configured by `opts`: a
    /// shared [`cfp_memman::BudgetPool`] (so several trees — e.g.
    /// per-worker conditional trees — answer to one limit) and
    /// compact-on-pressure retry. Once the pool is exhausted,
    /// [`try_insert`](Self::try_insert) reports
    /// [`CfpError::MemoryExhausted`] instead of panicking. The recovery
    /// ladder threads these down from the run supervisor.
    pub fn try_with_options(
        num_items: usize,
        config: CfpTreeConfig,
        opts: ArenaOptions,
    ) -> Result<Self, CfpError> {
        assert!(
            config.max_chain_len <= MAX_CHAIN_LEN,
            "chain length {} exceeds the 4-bit header limit {MAX_CHAIN_LEN}",
            config.max_chain_len
        );
        let mut arena = Arena::with_options(opts);
        let root_slot = arena.try_alloc(5).map_err(|e| CfpError::from(e).with_phase("build"))?;
        arena.bytes_mut(root_slot, 5).fill(0);
        Ok(CfpTree {
            arena,
            root_slot,
            config,
            num_items: num_items as u32,
            num_nodes: 0,
            weight_total: 0,
            item_supports: vec![0; num_items],
        })
    }

    /// Creates an empty tree inside a recycled `arena` instead of a fresh
    /// one, keeping the arena's budget/pool wiring and — crucially — its
    /// already-reserved `Vec` capacity. This is the mine-phase recycling
    /// path: a worker builds one conditional tree, converts it, takes the
    /// arena back via [`into_arena`](Self::into_arena), resets it, and
    /// hands it here for the next conditional tree, avoiding a fresh heap
    /// allocation per first-level item.
    ///
    /// The arena must be empty (freshly created or [`cfp_memman::Arena::reset`]);
    /// stale contents would corrupt node decoding.
    pub fn try_with_arena(
        num_items: usize,
        config: CfpTreeConfig,
        mut arena: Arena,
    ) -> Result<Self, CfpError> {
        assert!(
            config.max_chain_len <= MAX_CHAIN_LEN,
            "chain length {} exceeds the 4-bit header limit {MAX_CHAIN_LEN}",
            config.max_chain_len
        );
        assert!(arena.live_allocs() == 0 && arena.footprint() == 1, "recycled arena not empty");
        let root_slot = arena.try_alloc(5).map_err(|e| CfpError::from(e).with_phase("build"))?;
        arena.bytes_mut(root_slot, 5).fill(0);
        Ok(CfpTree {
            arena,
            root_slot,
            config,
            num_items: num_items as u32,
            num_nodes: 0,
            weight_total: 0,
            item_supports: vec![0; num_items],
        })
    }

    /// Consumes the tree and returns its arena for recycling (see
    /// [`try_with_arena`](Self::try_with_arena)). The caller is expected to
    /// [`cfp_memman::Arena::reset`] it before reuse.
    pub fn into_arena(self) -> Arena {
        self.arena
    }

    /// The representation configuration of this tree.
    pub fn config(&self) -> CfpTreeConfig {
        self.config
    }

    /// Builds the initial CFP-tree from a database (second scan of
    /// CFP-growth): recodes each transaction and inserts it with weight 1.
    pub fn from_db(db: &TransactionDb, recoder: &ItemRecoder) -> Self {
        Self::try_from_db(db, recoder).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`from_db`](Self::from_db): reports an exhausted address
    /// space (or an injected allocation failure) as
    /// [`CfpError::MemoryExhausted`] with the phase set to `"build"`.
    pub fn try_from_db(db: &TransactionDb, recoder: &ItemRecoder) -> Result<Self, CfpError> {
        Self::try_from_db_with(db, recoder, ArenaOptions::default())
    }

    /// [`try_from_db`](Self::try_from_db) with full [`ArenaOptions`]: the
    /// build respects a shared [`cfp_memman::BudgetPool`] and may
    /// compact under pressure. Exhaustion leaves the process (though not
    /// the partial tree) fully usable.
    pub fn try_from_db_with(
        db: &TransactionDb,
        recoder: &ItemRecoder,
        opts: ArenaOptions,
    ) -> Result<Self, CfpError> {
        let mut tree =
            CfpTree::try_with_options(recoder.num_items(), CfpTreeConfig::default(), opts)?;
        let mut buf = Vec::new();
        for t in db.iter() {
            recoder.recode_transaction(t, &mut buf);
            tree.try_insert(&buf, 1).map_err(|e| CfpError::from(e).with_phase("build"))?;
        }
        Ok(tree)
    }

    /// Number of items this tree was created for.
    pub fn num_items(&self) -> usize {
        self.num_items as usize
    }

    /// Number of logical FP-tree nodes.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Total inserted weight (equals the sum of all pcounts).
    pub fn weight_total(&self) -> u64 {
        self.weight_total
    }

    /// Support of `item` within this tree.
    pub fn item_support(&self, item: u32) -> u64 {
        self.item_supports[item as usize]
    }

    /// Per-item supports.
    pub fn item_supports(&self) -> &[u64] {
        &self.item_supports
    }

    /// Whether no transaction has been inserted.
    pub fn is_empty(&self) -> bool {
        self.root_value() == 0
    }

    /// The slot value of the root's child structure (0 when empty).
    pub fn root_value(&self) -> u64 {
        node::read_slot(self.arena.bytes(self.root_slot, 5))
    }

    /// Read-only access to the arena (for DFS and conversion).
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Live node bytes in the arena (the paper's compressed tree size).
    pub fn arena_used(&self) -> u64 {
        self.arena.used()
    }

    /// Total carved arena bytes including freed fragments.
    pub fn arena_footprint(&self) -> u64 {
        self.arena.footprint()
    }

    /// Average physical bytes per logical node.
    pub fn avg_node_bytes(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.arena_used() as f64 / self.num_nodes as f64
        }
    }

    /// Checks every structural invariant of the physical representation:
    /// Δitem positivity, chain-length bounds, embedded-leaf field ranges,
    /// reconstructed absolute items staying inside the item universe, and
    /// the logical node count matching [`num_nodes`](Self::num_nodes).
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        // (slot value, parent absolute item)
        let mut stack: Vec<(u64, i64)> = vec![(self.root_value(), -1)];
        let mut logical = 0u64;
        while let Some((raw, parent_item)) = stack.pop() {
            if raw == 0 {
                continue;
            }
            if is_embedded(raw) {
                let (d, _p) = unembed(raw);
                if !(1..=EMBED_MAX_DITEM).contains(&d) {
                    return Err(format!("embedded Δitem {d} out of range"));
                }
                let item = parent_item + d as i64;
                if item >= self.num_items as i64 {
                    return Err(format!("embedded item {item} outside universe"));
                }
                logical += 1;
                continue;
            }
            let buf = self.arena.tail(raw);
            if is_chain(buf[0]) {
                let (chain, _) = ChainNode::decode(buf);
                if !(2..=MAX_CHAIN_LEN).contains(&chain.len) {
                    return Err(format!("chain length {} out of range", chain.len));
                }
                let mut item = parent_item;
                for &e in chain.entries() {
                    if e == 0 {
                        return Err("chain entry Δitem 0".into());
                    }
                    item += e as i64;
                }
                if item >= self.num_items as i64 {
                    return Err(format!("chain tail item {item} outside universe"));
                }
                if chain.pcount == 0 && chain.suffix == 0 {
                    return Err("chain with neither pcount nor suffix".into());
                }
                logical += chain.len as u64;
                stack.push((chain.suffix, item));
            } else {
                let (std, _) = StdNode::decode(buf);
                if std.ditem == 0 {
                    return Err("standard node with Δitem 0".into());
                }
                let item = parent_item + std.ditem as i64;
                if item >= self.num_items as i64 {
                    return Err(format!("standard item {item} outside universe"));
                }
                logical += 1;
                stack.push((std.suffix, item));
                // Siblings share this node's parent.
                stack.push((std.left, parent_item));
                stack.push((std.right, parent_item));
            }
        }
        if logical != self.num_nodes {
            return Err(format!("walked {logical} logical nodes, counter says {}", self.num_nodes));
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Insertion
    // -----------------------------------------------------------------

    /// Inserts a transaction of strictly ascending recoded items with the
    /// given weight (weights > 1 arise when conditional trees are built
    /// from counted prefix paths). Panics on arena exhaustion; see
    /// [`try_insert`](Self::try_insert) for the fallible variant.
    pub fn insert(&mut self, items: &[u32], weight: u32) {
        if let Err(e) = self.try_insert(items, weight) {
            panic!("{e}");
        }
    }

    /// Fallible [`insert`](Self::insert): returns an [`AllocError`] when
    /// the arena's 40-bit address space or its budget pool runs out
    /// mid-insertion.
    ///
    /// **A tree that returned `Err` is poisoned**: the interrupted
    /// insertion may have updated supports and weights without attaching
    /// the branch, so the only safe operation afterwards is dropping the
    /// tree. The arena itself stays consistent — failure never corrupts
    /// previously inserted nodes, so read-only inspection (stats,
    /// `validate` of counters aside) remains possible for diagnostics.
    pub fn try_insert(&mut self, items: &[u32], weight: u32) -> Result<(), AllocError> {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "items must ascend");
        if items.is_empty() || weight == 0 {
            return Ok(());
        }
        for &it in items {
            self.item_supports[it as usize] += weight as u64;
        }
        self.weight_total += weight as u64;

        let mut slot = self.root_slot;
        let mut prev: i64 = -1;
        let mut pos = 0usize;
        loop {
            let want = (items[pos] as i64 - prev) as u32;
            let raw = node::read_slot(self.arena.bytes(slot, 5));
            if raw == 0 {
                let value = self.make_branch(&items[pos..], prev, weight)?;
                self.set_slot(slot, value);
                return Ok(());
            }
            if is_embedded(raw) {
                let (ed, ep) = unembed(raw);
                if ed == want {
                    if pos + 1 == items.len() {
                        // The transaction ends at the embedded leaf.
                        let np = ep.checked_add(weight).expect("pcount overflow");
                        match embed(ed, np) {
                            Some(v) => self.set_slot(slot, v),
                            None => {
                                // pcount outgrew the 24-bit embed field.
                                if cfp_trace::enabled() {
                                    tc::TREE_UNEMBEDS.inc();
                                }
                                let off = self.alloc_std(StdNode {
                                    ditem: ed,
                                    pcount: np,
                                    ..Default::default()
                                })?;
                                self.set_slot(slot, off);
                            }
                        }
                        return Ok(());
                    }
                    // Descend below the leaf: unembed with the remainder
                    // attached as suffix.
                    if cfp_trace::enabled() {
                        tc::TREE_UNEMBEDS.inc();
                    }
                    let child = self.make_branch(&items[pos + 1..], items[pos] as i64, weight)?;
                    let off = self.alloc_std(StdNode {
                        ditem: ed,
                        pcount: ep,
                        suffix: child,
                        ..Default::default()
                    })?;
                    self.set_slot(slot, off);
                    return Ok(());
                }
                // Sibling needed: unembed into a standard node and retry
                // the slot, which now holds a pointer.
                if cfp_trace::enabled() {
                    tc::TREE_UNEMBEDS.inc();
                }
                let off =
                    self.alloc_std(StdNode { ditem: ed, pcount: ep, ..Default::default() })?;
                self.set_slot(slot, off);
                continue;
            }

            // `raw` is an arena offset.
            let off = raw;
            if is_chain(self.arena.byte(off)) {
                match self.step_chain(slot, off, items, &mut pos, &mut prev, weight)? {
                    ChainStep::Done => return Ok(()),
                    ChainStep::Descend(next_slot) => {
                        slot = next_slot;
                        continue;
                    }
                }
            }

            let (std, size) = StdNode::decode(self.arena.tail(off));
            match want.cmp(&std.ditem) {
                std::cmp::Ordering::Equal => {
                    prev = items[pos] as i64;
                    pos += 1;
                    if pos == items.len() {
                        self.bump_std_pcount(slot, off, std, size, weight)?;
                        return Ok(());
                    }
                    if std.suffix != 0 {
                        let field =
                            node::std_ptr_offset(self.arena.bytes(off, size), PtrField::Suffix)
                                .expect("suffix present");
                        slot = off + field as u64;
                        continue;
                    }
                    let child = self.make_branch(&items[pos..], prev, weight)?;
                    let updated = StdNode { suffix: child, ..std };
                    self.rewrite_std(slot, off, size, updated)?;
                    return Ok(());
                }
                std::cmp::Ordering::Less => {
                    if std.left != 0 {
                        let field =
                            node::std_ptr_offset(self.arena.bytes(off, size), PtrField::Left)
                                .expect("left present");
                        slot = off + field as u64;
                        continue;
                    }
                    let child = self.make_branch(&items[pos..], prev, weight)?;
                    let updated = StdNode { left: child, ..std };
                    self.rewrite_std(slot, off, size, updated)?;
                    return Ok(());
                }
                std::cmp::Ordering::Greater => {
                    if std.right != 0 {
                        let field =
                            node::std_ptr_offset(self.arena.bytes(off, size), PtrField::Right)
                                .expect("right present");
                        slot = off + field as u64;
                        continue;
                    }
                    let child = self.make_branch(&items[pos..], prev, weight)?;
                    let updated = StdNode { right: child, ..std };
                    self.rewrite_std(slot, off, size, updated)?;
                    return Ok(());
                }
            }
        }
    }

    /// Walks `items[pos..]` through the chain node at `off`. Any
    /// structural change is applied and [`ChainStep::Done`] returned;
    /// matching all entries returns the suffix slot to continue from.
    fn step_chain(
        &mut self,
        slot: u64,
        off: u64,
        items: &[u32],
        pos: &mut usize,
        prev: &mut i64,
        weight: u32,
    ) -> Result<ChainStep, AllocError> {
        let (chain, size) = ChainNode::decode(self.arena.tail(off));
        let mut j = 0usize;
        loop {
            let want = (items[*pos] as i64 - *prev) as u32;
            let dj = chain.ditems[j] as u32;
            if want != dj {
                return self
                    .split_chain_diverge(slot, off, size, &chain, j, items, *pos, *prev, weight);
            }
            *prev = items[*pos] as i64;
            *pos += 1;
            let last = j + 1 == chain.len;
            if *pos == items.len() {
                // Transaction ends at entry j.
                if last {
                    let updated = ChainNode {
                        pcount: chain.pcount.checked_add(weight).expect("pcount overflow"),
                        ..chain
                    };
                    self.rewrite_chain(slot, off, size, updated)?;
                } else {
                    // Split: entries[..=j] end the transaction; the rest
                    // keeps the old trailing pcount and suffix.
                    if cfp_trace::enabled() {
                        tc::TREE_CHAIN_SPLITS.inc();
                    }
                    let rem = self.part_value(
                        &chain.ditems[j + 1..chain.len],
                        chain.pcount,
                        chain.suffix,
                    )?;
                    let pre = self.part_value(&chain.ditems[..=j], weight, rem)?;
                    self.arena.free(off, size);
                    self.set_slot(slot, pre);
                }
                return Ok(ChainStep::Done);
            }
            if last {
                if chain.suffix != 0 {
                    let field = ChainNode::suffix_offset(self.arena.bytes(off, size))
                        .expect("suffix present");
                    return Ok(ChainStep::Descend(off + field as u64));
                }
                // Attach the remainder below the chain.
                let child = self.make_branch(&items[*pos..], *prev, weight)?;
                let updated = ChainNode { suffix: child, ..chain };
                self.rewrite_chain(slot, off, size, updated)?;
                return Ok(ChainStep::Done);
            }
            j += 1;
        }
    }

    /// Splits the chain at a diverging entry `j`: entries before `j`
    /// become a prefix part, entry `j` becomes a standard node holding
    /// both the old continuation and the new branch as BST children.
    #[allow(clippy::too_many_arguments)]
    fn split_chain_diverge(
        &mut self,
        slot: u64,
        off: u64,
        size: usize,
        chain: &ChainNode,
        j: usize,
        items: &[u32],
        pos: usize,
        prev: i64,
        weight: u32,
    ) -> Result<ChainStep, AllocError> {
        if cfp_trace::enabled() {
            tc::TREE_CHAIN_SPLITS.inc();
        }
        let dj = chain.ditems[j] as u32;
        let want = (items[pos] as i64 - prev) as u32;
        let last = j + 1 == chain.len;
        let (pivot_pcount, pivot_suffix) = if last {
            (chain.pcount, chain.suffix)
        } else {
            let rem =
                self.part_value(&chain.ditems[j + 1..chain.len], chain.pcount, chain.suffix)?;
            (0, rem)
        };
        let branch = self.make_branch(&items[pos..], prev, weight)?;
        let mut pivot =
            StdNode { ditem: dj, pcount: pivot_pcount, suffix: pivot_suffix, ..Default::default() };
        if want < dj {
            pivot.left = branch;
        } else {
            pivot.right = branch;
        }
        let pivot_off = self.alloc_std(pivot)?;
        let head =
            if j == 0 { pivot_off } else { self.part_value_ptr(&chain.ditems[..j], 0, pivot_off)? };
        self.arena.free(off, size);
        self.set_slot(slot, head);
        Ok(ChainStep::Done)
    }

    /// Builds the slot value for a run of chain entries (1..=14 of them)
    /// carrying a trailing `pcount` and `suffix`. Single entries embed
    /// when possible; longer runs become chain nodes.
    fn part_value(&mut self, entries: &[u8], pcount: u32, suffix: u64) -> Result<u64, AllocError> {
        debug_assert!(!entries.is_empty());
        if entries.len() == 1 {
            let d = entries[0] as u32;
            if suffix == 0 && self.config.embed_leaves {
                if let Some(e) = embed(d, pcount) {
                    if cfp_trace::enabled() {
                        tc::TREE_EMBEDDED_LEAVES.inc();
                    }
                    return Ok(e);
                }
            }
            return self.alloc_std(StdNode { ditem: d, pcount, suffix, ..Default::default() });
        }
        let entries_u32: Vec<u32> = entries.iter().map(|&b| b as u32).collect();
        let chain = ChainNode::from_entries(&entries_u32, pcount, suffix);
        self.alloc_chain(chain)
    }

    /// Like [`part_value`](Self::part_value) but never embeds (the part
    /// must stay addressable as a prefix wrapping a pivot pointer).
    fn part_value_ptr(
        &mut self,
        entries: &[u8],
        pcount: u32,
        suffix: u64,
    ) -> Result<u64, AllocError> {
        debug_assert!(!entries.is_empty());
        if entries.len() == 1 {
            let d = entries[0] as u32;
            return self.alloc_std(StdNode { ditem: d, pcount, suffix, ..Default::default() });
        }
        let entries_u32: Vec<u32> = entries.iter().map(|&b| b as u32).collect();
        self.alloc_chain(ChainNode::from_entries(&entries_u32, pcount, suffix))
    }

    /// Builds a fresh branch for `items` (relative to the item `prev`)
    /// ending with `pcount = weight`, and returns its slot value. Runs of
    /// small deltas become chains; a single final small node embeds.
    fn make_branch(&mut self, items: &[u32], prev: i64, weight: u32) -> Result<u64, AllocError> {
        debug_assert!(!items.is_empty());
        let d0 = (items[0] as i64 - prev) as u32;
        if items.len() == 1 {
            self.num_nodes += 1;
            if self.config.embed_leaves {
                if let Some(e) = embed(d0, weight) {
                    if cfp_trace::enabled() {
                        tc::TREE_EMBEDDED_LEAVES.inc();
                    }
                    return Ok(e);
                }
            }
            return self.alloc_std(StdNode { ditem: d0, pcount: weight, ..Default::default() });
        }
        if d0 <= EMBED_MAX_DITEM && self.config.max_chain_len >= 2 {
            // Extend the run while deltas stay single-byte.
            let mut run = 1usize;
            while run < items.len() && run < self.config.max_chain_len {
                let d = items[run] - items[run - 1];
                if d > EMBED_MAX_DITEM {
                    break;
                }
                run += 1;
            }
            if run >= 2 {
                let mut deltas = [0u32; MAX_CHAIN_LEN];
                deltas[0] = d0;
                for k in 1..run {
                    deltas[k] = items[k] - items[k - 1];
                }
                self.num_nodes += run as u64;
                if run == items.len() {
                    return self.alloc_chain(ChainNode::from_entries(&deltas[..run], weight, 0));
                }
                let child = self.make_branch(&items[run..], items[run - 1] as i64, weight)?;
                return self.alloc_chain(ChainNode::from_entries(&deltas[..run], 0, child));
            }
        }
        let child = self.make_branch(&items[1..], items[0] as i64, weight)?;
        self.num_nodes += 1;
        self.alloc_std(StdNode { ditem: d0, pcount: 0, suffix: child, ..Default::default() })
    }

    // -----------------------------------------------------------------
    // Low-level arena helpers
    // -----------------------------------------------------------------

    fn set_slot(&mut self, slot: u64, raw: u64) {
        node::write_slot(self.arena.bytes_mut(slot, 5), raw);
    }

    fn alloc_std(&mut self, std: StdNode) -> Result<u64, AllocError> {
        let size = std.encoded_size();
        let off = self.arena.try_alloc(size)?;
        std.encode(self.arena.bytes_mut(off, size));
        if cfp_trace::enabled() {
            tc::TREE_STANDARD_NODES.inc();
            // First byte of a standard node is its compression mask.
            tc::TREE_MASK_BYTES.record(self.arena.byte(off) as usize);
        }
        Ok(off)
    }

    fn alloc_chain(&mut self, chain: ChainNode) -> Result<u64, AllocError> {
        let size = chain.encoded_size();
        let off = self.arena.try_alloc(size)?;
        chain.encode(self.arena.bytes_mut(off, size));
        if cfp_trace::enabled() {
            tc::TREE_CHAIN_NODES.inc();
        }
        Ok(off)
    }

    fn rewrite_std(
        &mut self,
        slot: u64,
        off: u64,
        old_size: usize,
        updated: StdNode,
    ) -> Result<(), AllocError> {
        let new_size = updated.encoded_size();
        if new_size == old_size {
            updated.encode(self.arena.bytes_mut(off, old_size));
            return Ok(());
        }
        let new_off = self.arena.try_alloc(new_size)?;
        updated.encode(self.arena.bytes_mut(new_off, new_size));
        self.arena.free(off, old_size);
        self.set_slot(slot, new_off);
        Ok(())
    }

    fn rewrite_chain(
        &mut self,
        slot: u64,
        off: u64,
        old_size: usize,
        updated: ChainNode,
    ) -> Result<(), AllocError> {
        let new_size = updated.encoded_size();
        if new_size == old_size {
            updated.encode(self.arena.bytes_mut(off, old_size));
            return Ok(());
        }
        let new_off = self.arena.try_alloc(new_size)?;
        updated.encode(self.arena.bytes_mut(new_off, new_size));
        self.arena.free(off, old_size);
        self.set_slot(slot, new_off);
        Ok(())
    }

    fn bump_std_pcount(
        &mut self,
        slot: u64,
        off: u64,
        std: StdNode,
        size: usize,
        weight: u32,
    ) -> Result<(), AllocError> {
        let updated =
            StdNode { pcount: std.pcount.checked_add(weight).expect("pcount overflow"), ..std };
        self.rewrite_std(slot, off, size, updated)
    }
}

impl HeapSize for CfpTree {
    fn heap_bytes(&self) -> u64 {
        self.arena.footprint() + self.item_supports.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::{DfsEvent, DfsIter};
    use std::collections::BTreeMap;

    /// Reconstructs the multiset of inserted (transaction, weight) pairs
    /// from the tree: every node with pcount > 0 marks a transaction end.
    fn reconstruct(tree: &CfpTree) -> BTreeMap<Vec<u32>, u64> {
        let mut out = BTreeMap::new();
        let mut path: Vec<u32> = Vec::new();
        let mut item: i64 = -1;
        for ev in DfsIter::new(tree) {
            match ev {
                DfsEvent::Enter { ditem, pcount } => {
                    item += ditem as i64;
                    path.push(item as u32);
                    if pcount > 0 {
                        *out.entry(path.clone()).or_default() += pcount as u64;
                    }
                }
                DfsEvent::Leave => {
                    path.pop().expect("balanced events");
                    item = path.last().map_or(-1, |&v| v as i64);
                }
            }
        }
        out
    }

    fn tree_from(rows: &[&[u32]]) -> CfpTree {
        let max = rows.iter().flat_map(|r| r.iter()).max().copied().unwrap_or(0);
        let mut t = CfpTree::new(max as usize + 1);
        for r in rows {
            t.insert(r, 1);
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t = CfpTree::new(4);
        assert!(t.is_empty());
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.weight_total(), 0);
        assert!(reconstruct(&t).is_empty());
    }

    #[test]
    fn single_transaction_embeds_or_chains() {
        let t = tree_from(&[&[0]]);
        assert_eq!(t.num_nodes(), 1);
        assert!(is_embedded(t.root_value()), "lone small leaf should embed");
        assert_eq!(reconstruct(&t), BTreeMap::from([(vec![0], 1)]));

        let t = tree_from(&[&[0, 1, 2, 3]]);
        assert_eq!(t.num_nodes(), 4);
        assert!(!is_embedded(t.root_value()));
        assert!(is_chain(t.arena().byte(t.root_value())), "run of 4 should chain");
        assert_eq!(reconstruct(&t), BTreeMap::from([(vec![0, 1, 2, 3], 1)]));
    }

    #[test]
    fn repeated_transaction_bumps_pcount_only() {
        let mut t = CfpTree::new(4);
        for _ in 0..5 {
            t.insert(&[0, 1, 2], 1);
        }
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.weight_total(), 5);
        assert_eq!(reconstruct(&t), BTreeMap::from([(vec![0, 1, 2], 5)]));
    }

    #[test]
    fn prefix_end_splits_chain() {
        let mut t = CfpTree::new(8);
        t.insert(&[0, 1, 2, 3, 4], 1);
        t.insert(&[0, 1], 1); // ends mid-chain
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(reconstruct(&t), BTreeMap::from([(vec![0, 1, 2, 3, 4], 1), (vec![0, 1], 1)]));
    }

    #[test]
    fn divergence_splits_chain_into_bst() {
        let mut t = CfpTree::new(8);
        t.insert(&[0, 1, 2], 1);
        t.insert(&[0, 5, 6], 1); // diverges at depth 1
        t.insert(&[0, 1, 7], 1); // diverges at depth 2
        assert_eq!(
            reconstruct(&t),
            BTreeMap::from([(vec![0, 1, 2], 1), (vec![0, 5, 6], 1), (vec![0, 1, 7], 1)])
        );
        assert_eq!(t.num_nodes(), 6, "nodes 0,1,2,7 plus 5,6 under shared prefix 0");
    }

    #[test]
    fn sibling_bst_orders_many_children() {
        let mut t = CfpTree::new(64);
        for item in [31u32, 5, 47, 0, 63, 22, 9, 40] {
            t.insert(&[item], 1);
        }
        let rec = reconstruct(&t);
        assert_eq!(rec.len(), 8);
        for item in [31u32, 5, 47, 0, 63, 22, 9, 40] {
            assert_eq!(rec[&vec![item]], 1);
        }
    }

    #[test]
    fn extending_a_leaf_descends() {
        let mut t = CfpTree::new(8);
        t.insert(&[0], 1);
        t.insert(&[0, 1], 1); // embedded leaf gains a child
        t.insert(&[0, 1, 2], 1);
        assert_eq!(
            reconstruct(&t),
            BTreeMap::from([(vec![0], 1), (vec![0, 1], 1), (vec![0, 1, 2], 1)])
        );
        assert_eq!(t.num_nodes(), 3);
    }

    #[test]
    fn large_deltas_force_standard_nodes() {
        // Delta 1000 exceeds the single-byte chain/embed limit.
        let mut t = CfpTree::new(3000);
        t.insert(&[100, 1100, 2100], 1);
        assert_eq!(reconstruct(&t), BTreeMap::from([(vec![100, 1100, 2100], 1)]));
        assert_eq!(t.num_nodes(), 3);
    }

    #[test]
    fn long_runs_split_across_chain_nodes() {
        let items: Vec<u32> = (0..40).collect();
        let mut t = CfpTree::new(40);
        t.insert(&items, 1);
        assert_eq!(t.num_nodes(), 40);
        assert_eq!(reconstruct(&t), BTreeMap::from([(items, 1)]));
    }

    #[test]
    fn weights_accumulate() {
        let mut t = CfpTree::new(4);
        t.insert(&[0, 2], 3);
        t.insert(&[0, 2], 4);
        t.insert(&[0], 2);
        assert_eq!(t.weight_total(), 9);
        assert_eq!(t.item_support(0), 9);
        assert_eq!(t.item_support(2), 7);
        assert_eq!(reconstruct(&t), BTreeMap::from([(vec![0, 2], 7), (vec![0], 2)]));
    }

    #[test]
    fn embedded_pcount_overflow_unembeds() {
        let mut t = CfpTree::new(2);
        t.insert(&[1], node::EMBED_MAX_PCOUNT);
        assert!(is_embedded(t.root_value()));
        t.insert(&[1], 1);
        assert!(!is_embedded(t.root_value()), "2^24 pcount must unembed");
        assert_eq!(reconstruct(&t), BTreeMap::from([(vec![1], node::EMBED_MAX_PCOUNT as u64 + 1)]));
    }

    #[test]
    fn from_db_matches_manual_inserts() {
        let db =
            TransactionDb::from_rows(&[vec![10u32, 20, 30], vec![10, 30], vec![20, 30], vec![30]]);
        let recoder = ItemRecoder::scan(&db, 2);
        let t = CfpTree::from_db(&db, &recoder);
        // item 30 (support 4) -> 0, 10 -> 1, 20 -> 2.
        assert_eq!(t.weight_total(), 4);
        assert_eq!(t.item_support(0), 4);
        let rec = reconstruct(&t);
        assert_eq!(rec[&vec![0u32, 1, 2]], 1);
        assert_eq!(rec[&vec![0u32]], 1);
    }

    #[test]
    fn stress_against_reference_multiset() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(4242);
        for trial in 0..50 {
            let n_items = rng.gen_range(1..40);
            let mut t = CfpTree::new(n_items);
            let mut expect: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
            let mut supports = vec![0u64; n_items];
            for _ in 0..rng.gen_range(1..80) {
                let mut txn: Vec<u32> = (0..n_items as u32).filter(|_| rng.gen_bool(0.3)).collect();
                txn.sort_unstable();
                txn.dedup();
                if txn.is_empty() {
                    continue;
                }
                let w = rng.gen_range(1..4u32);
                t.insert(&txn, w);
                for &i in &txn {
                    supports[i as usize] += w as u64;
                }
                *expect.entry(txn).or_default() += w as u64;
            }
            assert_eq!(reconstruct(&t), expect, "trial {trial}");
            t.validate().unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            for (i, &s) in supports.iter().enumerate() {
                assert_eq!(t.item_support(i as u32), s, "trial {trial} item {i}");
            }
            assert!(t.arena().live_allocs() < 10_000);
        }
    }

    #[test]
    fn chain_torture() {
        // Long-run transactions with aggressive shared prefixes, forcing
        // every chain case: full traversal, mid-chain transaction ends,
        // divergence at every entry position, suffix attachment, and
        // splits of splits.
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xC4A1);
        for trial in 0..40 {
            let n_items = 60usize;
            let mut t = CfpTree::new(n_items);
            let mut expect: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
            // A base long run shared by many transactions.
            let base: Vec<u32> = (0..40).collect();
            for _ in 0..rng.gen_range(2..25) {
                let txn: Vec<u32> = match rng.gen_range(0..4) {
                    // Prefix of the base run (mid-chain end).
                    0 => base[..rng.gen_range(1..=base.len())].to_vec(),
                    // Base prefix + divergent tail (mid-chain split).
                    1 => {
                        let cut = rng.gen_range(0..base.len());
                        let mut v = base[..cut].to_vec();
                        let mut next = cut as u32 + rng.gen_range(1..20);
                        while v.len() < cut + rng.gen_range(1..5) && (next as usize) < n_items {
                            v.push(next);
                            next += rng.gen_range(1..6);
                        }
                        if v.is_empty() {
                            vec![0]
                        } else {
                            v
                        }
                    }
                    // Base + extension below the chain (suffix attach).
                    2 => {
                        let mut v = base.clone();
                        let mut next = 40u32;
                        for _ in 0..rng.gen_range(1..10) {
                            if (next as usize) >= n_items {
                                break;
                            }
                            v.push(next);
                            next += rng.gen_range(1..3);
                        }
                        v
                    }
                    // Random sparse transaction.
                    _ => {
                        let mut v: Vec<u32> =
                            (0..n_items as u32).filter(|_| rng.gen_bool(0.15)).collect();
                        if v.is_empty() {
                            v.push(rng.gen_range(0..n_items as u32));
                        }
                        v
                    }
                };
                let w = rng.gen_range(1..3u32);
                t.insert(&txn, w);
                *expect.entry(txn).or_default() += w as u64;
            }
            assert_eq!(reconstruct(&t), expect, "trial {trial}");
            t.validate().unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert_eq!(t.weight_total(), expect.values().sum::<u64>(), "trial {trial}");
        }
    }

    #[test]
    fn ablation_configs_preserve_logical_structure() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(77);
        let configs = [
            CfpTreeConfig::default(),
            CfpTreeConfig { max_chain_len: 0, embed_leaves: true },
            CfpTreeConfig { max_chain_len: 15, embed_leaves: false },
            CfpTreeConfig { max_chain_len: 0, embed_leaves: false },
            CfpTreeConfig { max_chain_len: 4, embed_leaves: true },
        ];
        for trial in 0..10 {
            let n_items = rng.gen_range(2..30usize);
            let mut txns: Vec<(Vec<u32>, u32)> = Vec::new();
            for _ in 0..rng.gen_range(1..60) {
                let txn: Vec<u32> = (0..n_items as u32).filter(|_| rng.gen_bool(0.3)).collect();
                if !txn.is_empty() {
                    txns.push((txn, rng.gen_range(1..3)));
                }
            }
            let mut reference = None;
            for cfg in configs {
                let mut t = CfpTree::with_config(n_items, cfg);
                for (txn, w) in &txns {
                    t.insert(txn, *w);
                }
                let rec = reconstruct(&t);
                match &reference {
                    None => reference = Some(rec),
                    Some(r) => assert_eq!(&rec, r, "trial {trial} config {cfg:?}"),
                }
            }
        }
    }

    #[test]
    fn disabling_techniques_costs_memory() {
        let build = |cfg: CfpTreeConfig| {
            let mut t = CfpTree::with_config(40, cfg);
            let base: Vec<u32> = (0..20).collect();
            for tail in 20..40u32 {
                let mut txn = base.clone();
                txn.push(tail);
                t.insert(&txn, 1);
            }
            t.arena_used()
        };
        let full = build(CfpTreeConfig::default());
        let no_chains = build(CfpTreeConfig { max_chain_len: 0, embed_leaves: true });
        let no_embed = build(CfpTreeConfig { max_chain_len: 15, embed_leaves: false });
        assert!(no_chains > full, "chains must save memory on long runs");
        assert!(no_embed >= full, "embedding never costs memory");
    }

    /// Arena options drawing from a pool of `limit` bytes.
    fn pooled(limit: u64) -> ArenaOptions {
        ArenaOptions { pool: Some(cfp_memman::BudgetPool::new(limit)), ..Default::default() }
    }

    #[test]
    fn budgeted_build_fails_structured_and_unbudgeted_retry_succeeds() {
        let db = TransactionDb::from_rows(&[
            vec![1u32, 2, 3, 4, 5],
            vec![1, 2, 3, 6, 7],
            vec![2, 3, 8, 9, 10],
            vec![1, 4, 6, 8, 10],
        ]);
        let recoder = ItemRecoder::scan(&db, 1);
        let err = CfpTree::try_from_db_with(&db, &recoder, pooled(16))
            .expect_err("16 bytes cannot hold this tree");
        match err {
            CfpError::MemoryExhausted { phase, limit, .. } => {
                assert_eq!(phase, "build");
                assert_eq!(limit, 16);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The failure is recoverable: a budget-free retry works.
        let t = CfpTree::try_from_db(&db, &recoder).expect("unbudgeted build");
        assert_eq!(t.weight_total(), 4);
        t.validate().expect("valid tree after retry");
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let db = TransactionDb::from_rows(&[vec![1u32, 2, 3], vec![1, 2], vec![3]]);
        let recoder = ItemRecoder::scan(&db, 1);
        let capped =
            CfpTree::try_from_db_with(&db, &recoder, pooled(1 << 20)).expect("1 MiB is plenty");
        let free = CfpTree::from_db(&db, &recoder);
        assert_eq!(capped.arena_used(), free.arena_used());
        assert_eq!(reconstruct(&capped), reconstruct(&free));
    }

    #[test]
    fn compression_beats_fptree_on_shared_prefixes() {
        let mut t = CfpTree::new(32);
        let base: Vec<u32> = (0..20).collect();
        for tail in 20..32u32 {
            let mut txn = base.clone();
            txn.push(tail);
            t.insert(&txn, 1);
        }
        let per_node = t.avg_node_bytes();
        assert!(per_node < 8.0, "avg node bytes {per_node} should be far below 28");
    }
}
