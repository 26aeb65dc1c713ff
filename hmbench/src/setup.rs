//! The set-up every workload shares: train the Deep.128 predictor from a
//! fixed seed (database generation with the default tuner, then the fit).

use crate::common::host_cpus;
use heteromap::HeteroMap;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_predict::nn::TrainConfig;
use heteromap_predict::{NeuralPredictor, Trainer};
use std::time::Instant;

/// Training seed. It is fixed, not the workload seed: every workload and
/// every run serves the same model, so decision quality repeats exactly.
pub const TRAIN_SEED: u64 = 42;

/// A trained predictor plus the time each training phase took.
#[derive(Debug, Clone)]
pub struct Trained {
    pub nn: NeuralPredictor,
    pub dbgen_s: f64,
    pub fit_s: f64,
    pub oracle_evals: u64,
}

impl Trained {
    pub fn train(samples: usize) -> Self {
        let trainer = Trainer::new(MultiAcceleratorSystem::primary());
        let start = Instant::now();
        let db = trainer.generate_database_parallel(samples, TRAIN_SEED, host_cpus());
        let dbgen_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let nn = NeuralPredictor::train(
            &db,
            TrainConfig {
                hidden: 128,
                seed: TRAIN_SEED,
                ..TrainConfig::default()
            },
        );
        let fit_s = start.elapsed().as_secs_f64();
        Trained {
            nn,
            dbgen_s,
            fit_s,
            oracle_evals: db.tuning_evaluations(),
        }
    }

    pub fn heteromap(&self) -> HeteroMap {
        HeteroMap::new(MultiAcceleratorSystem::primary(), Box::new(self.nn.clone()))
    }
}
