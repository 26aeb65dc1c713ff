//! Nearest-neighbour database predictor.
//!
//! The paper's offline phase "creates a profiler database of B, I, M tuples
//! residing in the CPU file system, which is indexed using B, I tuples to
//! get M solutions" (§V). Before any learning, that database *is* a
//! predictor: return the stored optimum of the closest profiled
//! combination. This baseline is not in Table IV, but it bounds what pure
//! memorization achieves versus the generalizing learners.

use crate::predictor::{features, Predictor, TrainingSet};
use heteromap_model::{BVector, IVector, MConfig, BI_DIM, M_DIM};
use serde::{Deserialize, Serialize};

/// k-nearest-neighbour lookup over the profiler database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnnPredictor {
    k: usize,
    points: Vec<([f64; BI_DIM], [f64; M_DIM])>,
}

impl KnnPredictor {
    /// Builds a k-NN predictor over `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty or `k == 0`.
    pub fn new(set: &TrainingSet, k: usize) -> Self {
        assert!(!set.is_empty(), "cannot index an empty database");
        assert!(k > 0, "k must be positive");
        KnnPredictor {
            k,
            points: set
                .samples()
                .iter()
                .map(|s| (features(&s.b, &s.i), s.optimal.as_array()))
                .collect(),
        }
    }

    /// Number of neighbours consulted.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of indexed database rows.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl Predictor for KnnPredictor {
    fn name(&self) -> &str {
        "Database k-NN"
    }

    fn predict(&self, b: &BVector, i: &IVector) -> MConfig {
        let q = features(b, i);
        // Partial selection of the k closest rows.
        let mut dists: Vec<(f64, usize)> = self
            .points
            .iter()
            .enumerate()
            .map(|(idx, (p, _))| {
                let d: f64 = p.iter().zip(q.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, idx)
            })
            .collect();
        let k = self.k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0).expect("distances are finite")
        });
        // Average the k nearest optima (componentwise; M1 majority falls
        // out of the 0.5 decode threshold).
        let mut mean = [0.0; M_DIM];
        for &(_, idx) in &dists[..k] {
            for (m, v) in mean.iter_mut().zip(self.points[idx].1.iter()) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= k as f64;
        }
        MConfig::from_array(mean)
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
    use heteromap_model::{Accelerator, Workload};

    fn set() -> TrainingSet {
        let mut set = TrainingSet::new();
        let stats = GraphStats::from_known(1000, 5000, 20, 8);
        for k in 0..20 {
            let gpu = k < 10;
            set.push(TrainingSample {
                b: if gpu {
                    Workload::Bfs.b_vector()
                } else {
                    Workload::TriangleCount.b_vector()
                },
                i: IVector::from_normalized([k as f64 / 20.0, 0.3, 0.2, 0.1], stats),
                stats,
                iteration_model: IterationModel::Fixed(1),
                work_per_edge: 1.0,
                optimal: if gpu {
                    MConfig::gpu_default()
                } else {
                    MConfig::multicore_default()
                },
                optimal_cost: 1.0,
            });
        }
        set
    }

    #[test]
    fn exact_query_returns_stored_optimum() {
        let db = set();
        let knn = KnnPredictor::new(&db, 1);
        let s = &db.samples()[3];
        assert_eq!(knn.predict(&s.b, &s.i), s.optimal);
    }

    #[test]
    fn k3_majority_still_separates_classes() {
        let db = set();
        let knn = KnnPredictor::new(&db, 3);
        let s_gpu = &db.samples()[5];
        let s_mc = &db.samples()[15];
        assert_eq!(
            knn.predict(&s_gpu.b, &s_gpu.i).accelerator,
            Accelerator::Gpu
        );
        assert_eq!(
            knn.predict(&s_mc.b, &s_mc.i).accelerator,
            Accelerator::Multicore
        );
    }

    #[test]
    fn k_larger_than_database_is_clamped() {
        let db = set();
        let knn = KnnPredictor::new(&db, 100);
        let s = &db.samples()[0];
        let _ = knn.predict(&s.b, &s.i); // must not panic
        assert_eq!(knn.len(), 20);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = KnnPredictor::new(&set(), 0);
    }
}
