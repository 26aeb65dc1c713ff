//! Adaptive-library baseline (Table IV's "Adaptive Library", after
//! Rinnegan): profiles performance, then predicts with a simple model
//! equation whose output "is directly proportional to only the data
//! movement and accelerator utilization parameters given by a
//! programmer/profiler".

use crate::predictor::{Predictor, TrainingSet};
use heteromap_model::{Accelerator, BVector, IVector, MConfig, M_DIM};
use serde::{Deserialize, Serialize};

/// The adaptive-library predictor.
///
/// Training is pure profiling: it averages the optimal configurations seen
/// per accelerator. Prediction scores the two accelerators with a linear
/// data-movement/utilization equation and returns the stored profile for
/// the winner — deliberately ignoring the non-linear structure the paper
/// shows such schemes miss (Table IV: 56.5% accuracy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveLibrary {
    gpu_profile: MConfig,
    multicore_profile: MConfig,
}

impl AdaptiveLibrary {
    /// Profiles the training database.
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty.
    pub fn train(set: &TrainingSet) -> Self {
        assert!(!set.is_empty(), "cannot profile an empty set");
        let mean_for = |accel: Accelerator, fallback: MConfig| -> MConfig {
            let mut sum = [0.0; M_DIM];
            let mut n = 0usize;
            for s in set.samples() {
                if s.optimal.accelerator == accel {
                    for (acc, v) in sum.iter_mut().zip(s.optimal.as_array().iter()) {
                        *acc += v;
                    }
                    n += 1;
                }
            }
            if n == 0 {
                return fallback;
            }
            for v in sum.iter_mut() {
                *v /= n as f64;
            }
            let mut cfg = MConfig::from_array(sum);
            cfg.accelerator = accel;
            cfg
        };
        AdaptiveLibrary {
            gpu_profile: mean_for(Accelerator::Gpu, MConfig::gpu_default()),
            multicore_profile: mean_for(Accelerator::Multicore, MConfig::multicore_default()),
        }
    }

    /// The linear utilization/data-movement score: positive favours the GPU.
    fn gpu_affinity(b: &BVector, i: &IVector) -> f64 {
        // Utilization proxy: parallel phases fill GPU lanes; data-movement
        // proxy: shared/indirect data favours the multicore's caches.
        let utilization = b.parallel_phase_fraction() + 0.5 * i.i1();
        let data_movement = b.get(9) * 0.3 + b.get(10) + b.get(8) + 0.5 * b.get(12);
        utilization - data_movement
    }
}

impl Predictor for AdaptiveLibrary {
    fn name(&self) -> &str {
        "Adaptive Library"
    }

    fn predict(&self, b: &BVector, i: &IVector) -> MConfig {
        if Self::gpu_affinity(b, i) >= 0.0 {
            self.gpu_profile
        } else {
            self.multicore_profile
        }
    }

    fn reads_raw_stats(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::TrainingSample;
    use heteromap_graph::GraphStats;
    use heteromap_model::workload::IterationModel;
    use heteromap_model::Workload;

    fn set_with(optimals: &[MConfig]) -> TrainingSet {
        let mut set = TrainingSet::new();
        let stats = GraphStats::from_known(100, 500, 10, 5);
        for (k, &optimal) in optimals.iter().enumerate() {
            set.push(TrainingSample {
                b: Workload::Bfs.b_vector(),
                i: IVector::from_normalized([0.1 * k as f64, 0.2, 0.1, 0.1], stats),
                stats,
                iteration_model: IterationModel::Fixed(1),
                work_per_edge: 1.0,
                optimal,
                optimal_cost: 1.0,
            });
        }
        set
    }

    #[test]
    fn profiles_mean_configuration() {
        let mut a = MConfig::gpu_default();
        a.global_threads = 0.2;
        let mut b = MConfig::gpu_default();
        b.global_threads = 0.8;
        let lib = AdaptiveLibrary::train(&set_with(&[a, b]));
        assert!((lib.gpu_profile.global_threads - 0.5).abs() < 1e-9);
    }

    #[test]
    fn parallel_workloads_score_gpu() {
        let lib = AdaptiveLibrary::train(&set_with(&[MConfig::gpu_default()]));
        let stats = GraphStats::from_known(100, 500, 10, 5);
        let i = IVector::from_normalized([0.2, 0.2, 0.1, 0.1], stats);
        let cfg = lib.predict(&Workload::Bfs.b_vector(), &i);
        assert_eq!(cfg.accelerator, Accelerator::Gpu);
        let cfg = lib.predict(&Workload::SsspDelta.b_vector(), &i);
        assert_eq!(cfg.accelerator, Accelerator::Multicore);
    }

    #[test]
    fn missing_class_falls_back_to_default() {
        let lib = AdaptiveLibrary::train(&set_with(&[MConfig::gpu_default()]));
        assert_eq!(lib.multicore_profile, MConfig::multicore_default());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_set_panics() {
        let _ = AdaptiveLibrary::train(&TrainingSet::new());
    }
}
