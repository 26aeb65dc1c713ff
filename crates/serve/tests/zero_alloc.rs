//! Steady-state zero-allocation regression tests.
//!
//! The serving hot path — cache lookup, per-request feasibility rescue,
//! deterministic deploy, metrics — must not touch the heap once warm, and
//! neither may cache eviction. These tests bracket warm serving with the
//! obs counting-allocator probe (`alloc-probe` feature, enabled through this
//! crate's dev-dependencies) and assert the per-thread allocation delta is
//! exactly zero. If the probe is compiled out the tests skip rather than
//! report a vacuous pass.

mod common;

use common::{deep_model, same_cell_pair, NanFeatures};
use heteromap::HeteroMap;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::Dataset;
use heteromap_graph::GraphStats;
use heteromap_model::{IVector, MConfig, Workload};
use heteromap_serve::{
    CachedPrediction, InsertOutcome, PredKey, ServeConfig, ServeEngine, ServeMode, ServeSource,
    ShardedCache,
};

fn combos() -> Vec<(Workload, GraphStats)> {
    let mut out = Vec::new();
    for &w in &Workload::all() {
        for &d in &Dataset::all() {
            out.push((w, d.stats()));
        }
    }
    out
}

fn assert_steady_state_alloc_free(engine: &ServeEngine, what: &str) {
    let requests = combos();
    // Warm-up: populate the cache and grow every lazy buffer (thread-local
    // scratches, metrics, hash maps) to steady-state size.
    for _ in 0..2 {
        for &(w, stats) in &requests {
            engine.schedule_stats(w, stats);
        }
    }

    let before = heteromap_obs::thread_alloc_count();
    for _ in 0..3 {
        for &(w, stats) in &requests {
            let served = engine.schedule_stats(w, stats);
            assert_eq!(served.source, ServeSource::CacheHit, "{what}: warm = hit");
        }
    }
    let after = heteromap_obs::thread_alloc_count();
    assert_eq!(
        after - before,
        0,
        "{what}: steady-state cached serving allocated {} times",
        after - before
    );
}

#[test]
fn cached_steady_state_is_allocation_free() {
    if !heteromap_obs::probe_enabled() {
        eprintln!("alloc-probe feature off; skipping");
        return;
    }
    let engine = ServeEngine::new(
        HeteroMap::with_decision_tree(),
        ServeConfig::with_mode(ServeMode::Cached),
    );
    assert_steady_state_alloc_free(&engine, "cached/decision-tree");
}

#[test]
fn batched_steady_state_is_allocation_free() {
    // Batched mode's steady state is the same hit path; this guards the
    // mode dispatch itself against accidental allocation.
    if !heteromap_obs::probe_enabled() {
        eprintln!("alloc-probe feature off; skipping");
        return;
    }
    let engine = ServeEngine::new(
        HeteroMap::with_trained_deep(20, 5),
        ServeConfig::with_mode(ServeMode::CachedBatched),
    );
    assert_steady_state_alloc_free(&engine, "batched/deep");
}

#[test]
fn uncached_neural_inference_is_allocation_free_once_warm() {
    // The inference kernel itself (flat ping-pong arena + thread-local
    // scratch) must also run without heap traffic after the first call.
    if !heteromap_obs::probe_enabled() {
        eprintln!("alloc-probe feature off; skipping");
        return;
    }
    let engine = ServeEngine::new(
        HeteroMap::with_trained_deep(20, 5),
        ServeConfig::with_mode(ServeMode::Uncached),
    );
    let requests = combos();
    for &(w, stats) in &requests {
        engine.schedule_stats(w, stats);
    }
    let before = heteromap_obs::thread_alloc_count();
    for &(w, stats) in &requests {
        let served = engine.schedule_stats(w, stats);
        assert!(matches!(served.source, ServeSource::Computed { .. }));
    }
    let after = heteromap_obs::thread_alloc_count();
    assert_eq!(
        after - before,
        0,
        "uncached warm inference allocated {} times",
        after - before
    );
}

#[test]
fn warm_cache_eviction_is_allocation_free() {
    // CLOCK overwrites the victim slot in place and purges index tombstones
    // without reallocating. 716 entries per shard run each shard's index at
    // ~70% load, where removals leave tombstones and the purge path runs.
    if !heteromap_obs::probe_enabled() {
        eprintln!("alloc-probe feature off; skipping");
        return;
    }
    let capacity = 2 * 716;
    let cache = ShardedCache::new(2, capacity);
    let b = Workload::Bfs.b_vector();
    let keys: Vec<PredKey> = (0..12 * capacity as u64 + 4_096)
        .map(|s| {
            let stats = GraphStats::from_known(s + 1, 8 * (s + 1), 5, 4);
            PredKey::new(&b, &IVector::from_normalized([0.1, 0.2, 0.3, 0.4], stats))
        })
        .collect();
    let value = CachedPrediction {
        config: MConfig::gpu_default(),
        fallbacks: 0,
    };
    let mut keys = keys.into_iter();
    // Fill every shard, then warm with one round of evictions.
    while cache.len() < capacity {
        cache.insert(keys.next().unwrap(), value, 0);
    }
    for key in keys.by_ref().take(capacity) {
        assert_eq!(cache.insert(key, value, 0), InsertOutcome::InsertedEvicting);
    }

    let before = heteromap_obs::thread_alloc_count();
    let mut evicted = 0;
    for key in keys.by_ref().take(10 * capacity) {
        evicted += usize::from(cache.insert(key, value, 0) == InsertOutcome::InsertedEvicting);
    }
    let after = heteromap_obs::thread_alloc_count();
    assert_eq!(evicted, 10 * capacity, "every measured insert evicts");
    assert_eq!(
        after - before,
        0,
        "warm evicting inserts allocated {} times",
        after - before
    );
}

#[test]
fn unseen_stats_in_a_cached_cell_are_served_allocation_free() {
    // Feature-only predictors share one entry per `(B, I)` cell, so a graph
    // never seen before hits the entry another graph in its cell inserted;
    // the feasibility chain then runs on the new graph's own statistics.
    // The NaN predictor makes that chain fall back to the decision tree on
    // every request.
    if !heteromap_obs::probe_enabled() {
        eprintln!("alloc-probe feature off; skipping");
        return;
    }
    let (seed_stats, _) = same_cell_pair();
    // Same cell as `seed_stats`: a few more edges move no grid value.
    let unseen: Vec<GraphStats> = (1..=64)
        .map(|k| GraphStats {
            edges: seed_stats.edges + k,
            ..seed_stats
        })
        .collect();
    let model = |name| match name {
        "deep" => deep_model(),
        _ => HeteroMap::new(MultiAcceleratorSystem::primary(), Box::new(NanFeatures)),
    };
    for name in ["deep", "nan"] {
        for mode in [ServeMode::Cached, ServeMode::CachedBatched] {
            let engine = ServeEngine::new(model(name), ServeConfig::with_mode(mode));
            for _ in 0..2 {
                engine.schedule_stats(Workload::Dfs, seed_stats);
            }
            let before = heteromap_obs::thread_alloc_count();
            for &stats in &unseen {
                let served = engine.schedule_stats(Workload::Dfs, stats);
                assert_eq!(served.source, ServeSource::CacheHit, "{name}/{mode:?}");
            }
            let after = heteromap_obs::thread_alloc_count();
            assert_eq!(
                after - before,
                0,
                "{name}/{mode:?}: serving unseen stats from a cached cell allocated {} times",
                after - before
            );
            assert_eq!(engine.cache_len(), 1, "{name}/{mode:?}: one cell");
        }
    }
}
