//! Randomized stress testing of the arena allocator against a shadow
//! model.
//!
//! A seeded driver runs thousands of alloc/free/move
//! operations against an [`Arena`] while a `BTreeMap` shadow (deterministic iteration keeps the op stream reproducible) records
//! every live chunk's offset, size, and expected contents. After every
//! operation the shadow contents are re-verified; periodically the
//! structural invariants are checked:
//!
//! - live chunks never overlap (intervals use the rounded chunk size),
//! - no live offset reaches [`ptr40::MAX_OFFSET`] (the 0xFF top-byte
//!   range is reserved for the embedded-suffix marker),
//! - the free queues account for exactly the bytes `free_bytes()`
//!   claims (walking every per-size queue),
//! - `live_allocs()` matches the shadow's population.
//!
//! The same arena is then `reset()` and reused for a second full pass,
//! covering the PR's recycling path: a recycled arena must behave
//! exactly like a fresh one while keeping its buffer capacity.

use cfp_data::rng::{Rng, StdRng};
use cfp_encoding::ptr40;
use cfp_memman::{Arena, MAX_CHUNK, MIN_CHUNK};
use std::collections::BTreeMap;

const OPS_PER_PASS: usize = 2000;
const SEEDS: [u64; 8] = [0, 1, 2, 3, 0xA11, 0xBEEF, 0xD15EA5E, 0xFEED];

/// Shadow record of one live allocation: requested size plus the exact
/// bytes the arena must still hold for it.
struct Shadow {
    size: usize,
    contents: Vec<u8>,
}

fn fill_pattern(rng: &mut StdRng, size: usize) -> Vec<u8> {
    (0..size).map(|_| rng.gen::<u8>()).collect()
}

fn check_contents(arena: &Arena, shadow: &BTreeMap<u64, Shadow>) {
    for (&offset, entry) in shadow {
        assert_eq!(
            arena.bytes(offset, entry.size),
            &entry.contents[..],
            "contents of chunk at {offset} (size {}) corrupted",
            entry.size
        );
    }
}

fn check_invariants(arena: &Arena, shadow: &BTreeMap<u64, Shadow>) {
    assert_eq!(arena.live_allocs(), shadow.len() as u64);

    // No overlap between live chunks, measured over the rounded chunk
    // extent the allocator actually reserves.
    let mut intervals: Vec<(u64, u64)> =
        shadow.iter().map(|(&off, e)| (off, off + e.size.max(MIN_CHUNK) as u64)).collect();
    intervals.sort_unstable();
    for pair in intervals.windows(2) {
        assert!(
            pair[0].1 <= pair[1].0,
            "live chunks overlap: [{}, {}) and [{}, {})",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }

    // Offsets must stay clear of the embedded-marker range (top byte
    // 0xFF of a 40-bit pointer). A stress arena is far too small to get
    // near it, but the invariant is what Ptr40::new enforces.
    for &off in shadow.keys() {
        assert!(off != 0 && off <= ptr40::MAX_OFFSET, "offset {off:#x} outside pointer range");
    }

    // Walking every free queue must account for exactly the bytes the
    // arena reports as free: footprint = burned null byte + live
    // (rounded) + queued free chunks, with nothing lost or double
    // counted.
    let queued: u64 =
        (MIN_CHUNK..=MAX_CHUNK).map(|size| (arena.free_chunks(size) * size) as u64).sum();
    assert_eq!(queued, arena.free_bytes(), "free queues disagree with free_bytes()");
    let live_rounded: u64 = shadow.values().map(|e| e.size.max(MIN_CHUNK) as u64).sum();
    assert_eq!(arena.used(), live_rounded, "used() disagrees with shadow live bytes");
    assert_eq!(arena.footprint(), 1 + live_rounded + queued, "footprint unaccounted for");
}

/// One full randomized pass against `arena`, leaving it empty again.
fn stress_pass(arena: &mut Arena, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow: BTreeMap<u64, Shadow> = BTreeMap::new();

    for op in 0..OPS_PER_PASS {
        let roll = rng.gen_range(0u32..100);
        if roll < 55 || shadow.is_empty() {
            // Alloc, biased so the population keeps growing.
            let size = rng.gen_range(1usize..=MAX_CHUNK);
            let offset = arena.alloc(size);
            let contents = fill_pattern(&mut rng, size);
            arena.bytes_mut(offset, size).copy_from_slice(&contents);
            let prev = shadow.insert(offset, Shadow { size, contents });
            assert!(prev.is_none(), "alloc returned live offset {offset}");
        } else if roll < 80 {
            // Free a random live chunk. The allocator stores its
            // free-queue next pointer in the first bytes of the freed
            // chunk, so the shadow entry is dropped, not kept.
            let idx = rng.gen_range(0..shadow.len());
            let offset = *shadow.keys().nth(idx).unwrap();
            let entry = shadow.remove(&offset).unwrap();
            arena.free(offset, entry.size);
        } else {
            // Move a random live chunk to a new size the way the CFP-tree
            // moves a node that changed size: carve the new chunk, write
            // it (the common prefix plus a regrown tail), free the old.
            let idx = rng.gen_range(0..shadow.len());
            let offset = *shadow.keys().nth(idx).unwrap();
            let entry = shadow.remove(&offset).unwrap();
            let new_size = rng.gen_range(1usize..=MAX_CHUNK);
            let new_offset = arena.alloc(new_size);
            let kept = entry.size.min(new_size);
            let mut contents = entry.contents[..kept].to_vec();
            contents.extend(fill_pattern(&mut rng, new_size - kept));
            arena.bytes_mut(new_offset, new_size).copy_from_slice(&contents);
            arena.free(offset, entry.size);
            let prev = shadow.insert(new_offset, Shadow { size: new_size, contents });
            assert!(prev.is_none(), "alloc returned live offset {new_offset}");
        }

        if op % 64 == 0 {
            check_invariants(arena, &shadow);
            check_contents(arena, &shadow);
        }
    }

    check_invariants(arena, &shadow);
    check_contents(arena, &shadow);

    // Drain everything through the normal path before handing the arena
    // back, so the free queues (not just reset) get the full workout.
    for (offset, entry) in std::mem::take(&mut shadow) {
        arena.free(offset, entry.size);
    }
    assert_eq!(arena.live_allocs(), 0);
    assert_eq!(arena.used(), 0);
}

#[test]
fn arena_matches_shadow_model_across_seeds() {
    for seed in SEEDS {
        let mut arena = Arena::new();
        stress_pass(&mut arena, seed);
    }
}

#[test]
fn recycled_arena_behaves_like_a_fresh_one() {
    for seed in SEEDS {
        let mut arena = Arena::new();
        stress_pass(&mut arena, seed);

        let capacity_before = arena.footprint();
        arena.reset();
        assert_eq!(arena.footprint(), 1, "reset must drop back to the burned null byte");

        // Second pass on the recycled arena, different op stream.
        stress_pass(&mut arena, seed ^ 0x5EED);
        assert!(
            arena.footprint() > 1 && capacity_before > 1,
            "both passes must have exercised the arena"
        );
    }
}

/// `reset()` with live allocations must invalidate them wholesale — the
/// recycling path in the miner resets between conditional trees without
/// freeing node by node.
#[test]
fn reset_discards_live_allocations_and_allows_reuse() {
    let mut arena = Arena::new();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..200 {
        let size = rng.gen_range(1usize..=MAX_CHUNK);
        arena.alloc(size);
    }
    assert_eq!(arena.live_allocs(), 200);
    arena.reset();
    assert_eq!(arena.live_allocs(), 0);
    assert_eq!(arena.used(), 0);
    assert_eq!(arena.free_bytes(), 0);
    // And it allocates again from offset 1 as a fresh arena would.
    assert_eq!(arena.alloc(8), 1);
}
