//! Randomized property tests of the cache hierarchy: dirty-word
//! conservation against a flat reference model, inclusion maintenance, and
//! histogram consistency.
//!
//! Formerly driven by proptest; now deterministic seeded sweeps over the
//! in-repo [`mem_model::rng`] PRNG so the suite builds and runs offline.

use std::collections::HashMap;

use cache_sim::{CacheConfig, CacheHierarchy, HierarchyConfig};
use mem_model::rng::Rng;
use mem_model::{PhysAddr, WordMask};

#[derive(Debug, Clone)]
struct AccessSpec {
    line: u64,
    store_bits: Option<u8>,
}

fn random_accesses(rng: &mut Rng) -> Vec<AccessSpec> {
    let len = rng.random_range(1usize..400);
    (0..len)
        .map(|_| AccessSpec {
            line: rng.random_range(0u64..4096),
            store_bits: rng
                .random_bool(0.5)
                .then(|| rng.random_range(1u16..256) as u8),
        })
        .collect()
}

fn tiny_hierarchy(cores: usize, dbi: bool) -> CacheHierarchy {
    CacheHierarchy::new(HierarchyConfig {
        l1: CacheConfig {
            size_bytes: 512,
            ways: 2,
            latency_cycles: 2,
        },
        l2: CacheConfig {
            size_bytes: 4096,
            ways: 4,
            latency_cycles: 20,
        },
        cores,
        dbi,
        prefetch_next_line: false,
    })
}

/// Dirty-word conservation: every word ever dirtied is accounted for by
/// exactly the union of (a) words written back to memory and (b) words
/// still dirty somewhere in the hierarchy at flush time. No dirty word is
/// lost, none is invented.
#[test]
fn dirty_words_are_conserved() {
    let mut rng = Rng::seed_from_u64(0x6469_7274);
    for case in 0..64 {
        let stream = random_accesses(&mut rng);
        let dbi = case % 2 == 0;
        let mut h = tiny_hierarchy(1, dbi);
        // Ground truth: union of all dirty masks per line.
        let mut truth: HashMap<u64, WordMask> = HashMap::new();
        // Observed: accumulated writeback masks per line.
        let mut written_back: HashMap<u64, WordMask> = HashMap::new();

        let record = |wbs: &[(PhysAddr, WordMask)], written_back: &mut HashMap<u64, WordMask>| {
            for (addr, mask) in wbs {
                let entry = written_back
                    .entry(addr.line_number())
                    .or_insert(WordMask::EMPTY);
                *entry |= *mask;
            }
        };

        for spec in &stream {
            let addr = PhysAddr::from_line_number(spec.line);
            let store = spec.store_bits.map(WordMask::from_bits);
            if let Some(mask) = store {
                let entry = truth.entry(spec.line).or_insert(WordMask::EMPTY);
                *entry |= mask;
            }
            let access = h.access(0, addr, store);
            record(&access.writebacks, &mut written_back);
        }
        let final_wbs = h.flush();
        record(&final_wbs, &mut written_back);

        for (line, mask) in &truth {
            let observed = written_back.get(line).copied().unwrap_or(WordMask::EMPTY);
            assert!(
                mask.is_subset_of(observed),
                "line {line}: dirtied {mask} but only {observed} written back"
            );
        }
        // Nothing written back that was never dirtied.
        for (line, observed) in &written_back {
            let truth_mask = truth.get(line).copied().unwrap_or(WordMask::EMPTY);
            assert!(
                observed.is_subset_of(truth_mask),
                "line {line}: wrote back {observed}, only {truth_mask} was dirtied"
            );
        }
    }
}

/// The Figure 3 histogram counts exactly the demand (non-DBI) dirty
/// writebacks, and its buckets match the emitted mask widths.
#[test]
fn eviction_histogram_is_consistent() {
    let mut rng = Rng::seed_from_u64(0x6869_7374);
    for _ in 0..64 {
        let stream = random_accesses(&mut rng);
        let mut h = tiny_hierarchy(1, false);
        let mut emitted = 0u64;
        for spec in &stream {
            let addr = PhysAddr::from_line_number(spec.line);
            let access = h.access(0, addr, spec.store_bits.map(WordMask::from_bits));
            emitted += access.writebacks.len() as u64;
        }
        let hist_total: u64 = h.stats().evict_dirty_hist.iter().sum();
        assert_eq!(hist_total, emitted);
        assert_eq!(h.stats().writebacks, emitted);
    }
}

/// The cache agrees with a straightforward reference LRU model on
/// residency after any access/fill sequence.
#[test]
fn lru_matches_reference_model() {
    use cache_sim::{Cache, CacheConfig};
    let mut rng = Rng::seed_from_u64(0x6c72_7531);
    for _ in 0..64 {
        let stream = random_accesses(&mut rng);
        let config = CacheConfig {
            size_bytes: 1024,
            ways: 4,
            latency_cycles: 1,
        };
        let sets = config.sets() as u64;
        let mut cache = Cache::new(config);
        // Reference: per-set vector ordered least- to most-recently used.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        for spec in &stream {
            let line = spec.line;
            let set = (line % sets) as usize;
            let addr = PhysAddr::from_line_number(line);
            let hit = cache.access(addr);
            let model_hit = model[set].contains(&line);
            assert_eq!(hit, model_hit, "hit status diverged for line {line}");
            if model_hit {
                // Move to MRU position.
                model[set].retain(|&l| l != line);
                model[set].push(line);
            } else {
                let victim = cache.fill(addr);
                if model[set].len() == 4 {
                    let expected_victim = model[set].remove(0);
                    assert_eq!(
                        victim.map(|v| v.addr.line_number()),
                        Some(expected_victim),
                        "victim diverged"
                    );
                } else {
                    assert!(victim.is_none(), "unexpected eviction from non-full set");
                }
                model[set].push(line);
            }
        }
        // Final residency agrees exactly.
        for (set, lines) in model.iter().enumerate() {
            for &line in lines {
                assert!(
                    cache.contains(PhysAddr::from_line_number(line)),
                    "set {set}"
                );
            }
        }
        assert_eq!(cache.len(), model.iter().map(Vec::len).sum::<usize>());
    }
}

/// Multi-core accesses to disjoint address ranges never interfere with
/// each other's dirty state.
#[test]
fn disjoint_cores_do_not_interfere() {
    let mut rng = Rng::seed_from_u64(0x636f_7265);
    for _ in 0..32 {
        let stream_a = random_accesses(&mut rng);
        let stream_b = random_accesses(&mut rng);
        let mut shared = tiny_hierarchy(2, false);
        let mut solo = tiny_hierarchy(1, false);
        // Core 1's lines are offset far away from core 0's, still within
        // the address span the tiny caches' tags cover.
        const OFFSET: u64 = 1 << 30;
        let span = (OFFSET + 4096) * mem_model::LINE_BYTES;
        assert_eq!(shared.config().check_addr_span(span), Ok(()));
        let mut shared_wbs: Vec<(PhysAddr, WordMask)> = Vec::new();
        let mut solo_wbs: Vec<(PhysAddr, WordMask)> = Vec::new();
        let max_len = stream_a.len().max(stream_b.len());
        for i in 0..max_len {
            if let Some(spec) = stream_a.get(i) {
                let addr = PhysAddr::from_line_number(spec.line);
                let store = spec.store_bits.map(WordMask::from_bits);
                shared_wbs.extend(shared.access(0, addr, store).writebacks);
                solo_wbs.extend(solo.access(0, addr, store).writebacks);
            }
            if let Some(spec) = stream_b.get(i) {
                let addr = PhysAddr::from_line_number(spec.line + OFFSET);
                // Core 1's fills can evict core 0's lines from the shared
                // L2; those writebacks surface here and must be kept.
                shared_wbs.extend(
                    shared
                        .access(1, addr, spec.store_bits.map(WordMask::from_bits))
                        .writebacks,
                );
            }
        }
        shared_wbs.extend(shared.flush());
        solo_wbs.extend(solo.flush());
        // Core 0's writebacks in the shared system (restricted to its range)
        // carry exactly the masks the solo system produced per line: the L2
        // is shared so eviction *timing* differs, but no dirty word of core
        // 0 may leak or be lost.
        let collapse = |wbs: &[(PhysAddr, WordMask)], below: u64| {
            let mut m: HashMap<u64, WordMask> = HashMap::new();
            for (a, w) in wbs {
                if a.line_number() < below {
                    let e = m.entry(a.line_number()).or_insert(WordMask::EMPTY);
                    *e |= *w;
                }
            }
            m
        };
        let shared_map = collapse(&shared_wbs, OFFSET / 2);
        let solo_map = collapse(&solo_wbs, OFFSET / 2);
        assert_eq!(shared_map, solo_map);
    }
}
