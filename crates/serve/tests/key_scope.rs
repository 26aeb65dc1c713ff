//! Cache-key scope and per-request rescue.
//!
//! The cache keys on exactly what the installed predictor reads: the full
//! key (17 variables plus raw graph statistics) for the decision tree, the
//! 17 variables alone for predictors whose `reads_raw_stats()` is false.
//! The feasibility chain runs per request, so a hit on an entry another
//! graph in the same cell inserted still falls back on its own statistics.
//! Every served config must equal `HeteroMap::predict_config`.

mod common;

use common::{deep_nn, same_cell_pair, NanFeatures};
use heteromap::{DeployOptions, HeteroMap};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::GraphStats;
use heteromap_model::{MConfig, Workload};
use heteromap_predict::Predictor;
use heteromap_serve::{ServeConfig, ServeEngine, ServeMode, ServeSource};
use proptest::prelude::*;
use std::sync::OnceLock;

fn engine(predictor: Box<dyn Predictor + Send + Sync>, mode: ServeMode) -> ServeEngine {
    let model = HeteroMap::new(MultiAcceleratorSystem::primary(), predictor);
    ServeEngine::new(model, ServeConfig::with_mode(mode))
}

/// `HeteroMap::predict_config` for one request: the answer serving must give.
fn expected(engine: &ServeEngine, w: Workload, stats: GraphStats) -> (MConfig, u32) {
    engine.with_model(|m| m.predict_config(&w.b_vector(), &m.ivector(&stats)))
}

#[test]
fn pair_shares_a_cell_and_the_tree_separates_it() {
    let (sparse, dense) = same_cell_pair();
    let hm = HeteroMap::with_decision_tree();
    let (a, b) = (hm.ivector(&sparse), hm.ivector(&dense));
    assert_eq!(a.as_array(), b.as_array(), "one grid cell");
    assert_ne!(a.raw(), b.raw());
    let w = Workload::Dfs.b_vector();
    assert_ne!(
        hm.predict_config(&w, &a).0.accelerator,
        hm.predict_config(&w, &b).0.accelerator,
        "the pair must exercise the tree's raw-density rule"
    );
}

#[test]
fn decision_tree_engine_keys_on_raw_stats() {
    let e = ServeEngine::new(
        HeteroMap::with_decision_tree(),
        ServeConfig::with_mode(ServeMode::Cached),
    );
    let (sparse, dense) = same_cell_pair();
    for stats in [sparse, dense] {
        let served = e.schedule_stats(Workload::Dfs, stats);
        assert_eq!(served.source, ServeSource::Computed { batched: false });
        assert_eq!(
            served.placement.config,
            expected(&e, Workload::Dfs, stats).0
        );
    }
    let snap = e.metrics().snapshot();
    assert_eq!((snap.cache_misses, snap.cache_hits), (2, 0));
    assert_eq!(e.cache_len(), 2);
}

#[test]
fn deep_engine_shares_one_entry_per_cell() {
    let e = engine(Box::new(deep_nn()), ServeMode::Cached);
    let (sparse, dense) = same_cell_pair();
    let first = e.schedule_stats(Workload::Dfs, sparse);
    let second = e.schedule_stats(Workload::Dfs, dense);
    assert_eq!(first.source, ServeSource::Computed { batched: false });
    assert_eq!(second.source, ServeSource::CacheHit, "same cell, one entry");
    for (served, stats) in [(&first, sparse), (&second, dense)] {
        assert_eq!(
            served.placement.config,
            expected(&e, Workload::Dfs, stats).0
        );
    }
    let snap = e.metrics().snapshot();
    assert_eq!((snap.cache_misses, snap.cache_hits), (1, 1));
    assert_eq!(e.cache_len(), 1);
}

#[test]
fn rescue_runs_per_request_on_its_own_raw_stats() {
    let e = engine(Box::new(NanFeatures), ServeMode::Cached);
    let (sparse, dense) = same_cell_pair();
    let first = e.schedule_stats(Workload::Dfs, sparse);
    // Hits the NaN entry the sparse graph inserted.
    let second = e.schedule_stats(Workload::Dfs, dense);
    assert_eq!(first.source, ServeSource::Computed { batched: false });
    assert_eq!(second.source, ServeSource::CacheHit);
    for (served, stats) in [(&first, sparse), (&second, dense)] {
        let (config, fallbacks) = expected(&e, Workload::Dfs, stats);
        assert_eq!(fallbacks, 1, "the decision tree rescues a NaN prediction");
        assert_eq!(served.placement.config, config);
        assert_eq!(served.placement.attempts.predictor_fallbacks, fallbacks);
    }
    assert_ne!(
        first.placement.config.accelerator, second.placement.config.accelerator,
        "the rescue read each request's own density"
    );

    // The shedding paths rescue per request too.
    let ctx = WorkloadContext::for_workload(Workload::Dfs, dense);
    let stale = e.serve_stale(&ctx, DeployOptions::default()).unwrap();
    assert_eq!(stale.placement.config, second.placement.config);
    assert_eq!(stale.placement.attempts.predictor_fallbacks, 1);
    let peeked = e.peek_cached(&ctx).unwrap();
    assert_eq!(
        (peeked.config, peeked.fallbacks),
        expected(&e, Workload::Dfs, dense)
    );
}

/// One engine per (predictor, mode): the feature-only Deep network, the
/// feature-only NaN predictor and the full-key decision tree, each
/// uncached, cached and cached-batched. Shared across proptest cases so
/// later cases also hit entries earlier ones inserted.
fn engines() -> &'static [ServeEngine] {
    static ENGINES: OnceLock<Vec<ServeEngine>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let modes = [
            ServeMode::Uncached,
            ServeMode::Cached,
            ServeMode::CachedBatched,
        ];
        let mut out = Vec::new();
        for mode in modes {
            out.push(engine(Box::new(deep_nn()), mode));
            out.push(engine(Box::new(NanFeatures), mode));
            out.push(ServeEngine::new(
                HeteroMap::with_decision_tree(),
                ServeConfig::with_mode(mode),
            ));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random pairs of graphs, often in one cell (the second differs from
    /// the first by a few edges): every mode serves `predict_config`'s
    /// answer for each request's own statistics.
    #[test]
    fn every_mode_serves_predict_config(
        vertices in 1_000u64..100_000_000,
        avg_degree in 1u64..200,
        max_degree in 1u64..3_000_000,
        diameter in 1u64..2_622,
        extra_edges in 0u64..2_000,
        workload in 0usize..9,
    ) {
        let all = Workload::all();
        let w = all[workload % all.len()];
        let a = GraphStats::from_known(vertices, vertices * avg_degree, max_degree, diameter);
        let b = GraphStats::from_known(vertices, vertices * avg_degree + extra_edges, max_degree, diameter);
        for e in engines() {
            for stats in [a, b, a, b] {
                let served = e.schedule_stats(w, stats);
                let (config, fallbacks) = expected(e, w, stats);
                prop_assert_eq!(served.placement.config, config);
                prop_assert_eq!(served.placement.attempts.predictor_fallbacks, fallbacks);
            }
        }
    }
}
