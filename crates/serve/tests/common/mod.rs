//! Fixtures shared by the serving integration tests.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use heteromap::HeteroMap;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::GraphStats;
use heteromap_model::{BVector, IVector, MConfig, M_DIM};
use heteromap_predict::nn::TrainConfig;
use heteromap_predict::predictor::Objective;
use heteromap_predict::{NeuralPredictor, Predictor, Trainer};
use std::sync::OnceLock;

/// A small Deep.128 network, trained once per test binary (training
/// dominates test time) and cloned out bit-exactly. It still has real
/// `inference_flops`, so overhead charging is observable.
pub fn deep_nn() -> NeuralPredictor {
    static TRAINED: OnceLock<NeuralPredictor> = OnceLock::new();
    TRAINED
        .get_or_init(|| {
            let system = MultiAcceleratorSystem::primary();
            let trainer = Trainer::new(system).with_objective(Objective::Performance);
            let db = trainer.generate_database(40, 9);
            let config = TrainConfig {
                hidden: 128,
                seed: 9,
                ..TrainConfig::default()
            };
            NeuralPredictor::train(&db, config)
        })
        .clone()
}

/// A deep-NN HeteroMap over the shared trained predictor.
pub fn deep_model() -> HeteroMap {
    HeteroMap::new(MultiAcceleratorSystem::primary(), Box::new(deep_nn()))
}

/// A predictor that reads only the 17 `(B, I)` variables and whose every
/// output is infeasible (all NaN), so each served request falls down the
/// feasibility chain to the decision tree.
pub struct NanFeatures;

impl Predictor for NanFeatures {
    fn name(&self) -> &str {
        "NaN features"
    }

    fn predict(&self, _b: &BVector, _i: &IVector) -> MConfig {
        MConfig::from_array([f64::NAN; M_DIM])
    }

    fn reads_raw_stats(&self) -> bool {
        false
    }
}

/// Two graphs in one `I` grid cell with different raw statistics: average
/// degree 15 vs 17, either side of the decision tree's density threshold
/// for push-pop workloads, so for DFS the tree places them differently.
pub fn same_cell_pair() -> (GraphStats, GraphStats) {
    (
        GraphStats::from_known(1_000_000, 15_000_000, 5_000, 20),
        GraphStats::from_known(1_000_000, 17_000_000, 5_000, 20),
    )
}
