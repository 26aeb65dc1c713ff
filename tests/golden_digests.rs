//! Golden digests for the deterministic round drivers.
//!
//! Chaos, fleet and dynamic-graph runs chain every request's resolution
//! into one seeded digest, and the thread-count tests only prove that a
//! digest agrees with itself. These tests pin the values: a change to the
//! seed hash (`heteromap_model::seed`), to a fault/cost draw, or to any
//! thread-invariant round semantics fails here by name instead of silently
//! moving every committed experiment.
//!
//! The chaos and fleet values are the `--smoke` digests recorded in
//! `BENCH_chaos.json` and `BENCH_fleet.json`.

use heteromap::HeteroMap;
use heteromap_chaos::{ChaosPlan, ChaosRunner};
use heteromap_dyngraph::{DeltaBatch, DynGraph, DynRunner, DynRunnerConfig};
use heteromap_fleet::{Cluster, FleetSim, FleetTrace, Placer};
use heteromap_graph::gen::Densifying;
use heteromap_model::Workload;

/// `(intensity, resilient, baseline)` digests of `exp_chaos_resilience --smoke`.
const CHAOS_SMOKE: [(f64, u64, u64); 4] = [
    (0.0, 0x7cf9_76ee_c800_3487, 0x7cf9_76ee_c800_3487),
    (0.1, 0x455c_fb98_fff6_234f, 0x5a7c_0610_6192_e848),
    (0.3, 0xcd38_6fd0_8b20_10d5, 0x6338_10d1_df69_7e37),
    (0.5, 0xcd38_6fd0_8b20_10d5, 0x6338_10d1_df69_7e37),
];

/// `(intensity, [random, round-robin, greedy, evolution])` digests of
/// `exp_fleet_schedule --smoke`.
const FLEET_SMOKE: [(f64, [u64; 4]); 3] = [
    (
        0.0,
        [
            0x027a_0630_aa0b_2475,
            0x2b4c_0c28_70cf_eba5,
            0x013d_00eb_7e26_6872,
            0xe13c_06b1_938f_afb1,
        ],
    ),
    (
        0.2,
        [
            0xb8de_3044_5489_7efc,
            0x9d36_b390_fe93_8268,
            0xad63_1fb0_05ad_60b0,
            0xad63_1fb0_05ad_60b0,
        ],
    ),
    (
        0.4,
        [
            0xb8de_3044_5489_7efc,
            0x9d36_b390_fe93_8268,
            0xad63_1fb0_05ad_60b0,
            0xad63_1fb0_05ad_60b0,
        ],
    ),
];

/// `(adaptive, static)` digests of the small densifying LabelProp run below.
const DYN_SMALL: (u64, u64) = (0x7f15_9b3f_86d5_ea5f, 0xf1cc_455d_b4f9_3883);

#[test]
fn chaos_smoke_digests_match_the_committed_bench() {
    for (intensity, resilient, baseline) in CHAOS_SMOKE {
        let plan = ChaosPlan::smoke(42, intensity);
        for (mode, want) in [(true, resilient), (false, baseline)] {
            let got = ChaosRunner::new(plan, mode).run(2).digest;
            assert_eq!(
                got, want,
                "chaos intensity {intensity} resilient={mode}: {got:#018x} != {want:#018x}"
            );
        }
    }
}

#[test]
fn fleet_smoke_digests_match_the_committed_bench() {
    assert_eq!(
        Placer::ALL,
        [
            Placer::Random,
            Placer::RoundRobin,
            Placer::Greedy,
            Placer::Evolution
        ]
    );
    for (intensity, digests) in FLEET_SMOKE {
        for (placer, want) in Placer::ALL.into_iter().zip(digests) {
            let sim = FleetSim::new(
                FleetTrace::smoke(42, intensity),
                Cluster::uniform(1),
                placer,
            );
            let got = sim.run(2).digest;
            assert_eq!(
                got, want,
                "fleet intensity {intensity} {placer}: {got:#018x} != {want:#018x}"
            );
        }
    }
}

#[test]
fn small_dyngraph_digests_are_pinned() {
    let hm = HeteroMap::with_decision_tree();
    let gen = Densifying::new(200, 6, 900);
    let mut trace = vec![DeltaBatch::from_edges(&gen.batch(19, 0))];
    trace.extend((0..2).map(|_| DeltaBatch::new()));
    trace.extend((1..gen.batches()).map(|i| DeltaBatch::from_edges(&gen.batch(19, i))));
    trace.extend((0..2).map(|_| DeltaBatch::new()));
    let run = |adaptive: bool| {
        let mut graph = DynGraph::new(gen.vertices());
        let config = DynRunnerConfig {
            threads: 2,
            kernel_iterations: 1,
            adaptive,
            ..Default::default()
        };
        DynRunner::new(&hm, Workload::LabelProp)
            .with_config(config)
            .run(&mut graph, &trace)
    };
    let (adaptive, static_) = (run(true), run(false));
    assert!(adaptive.repredictions > 0, "the trace must re-predict");
    assert_eq!(
        (adaptive.digest, static_.digest),
        DYN_SMALL,
        "dyngraph (adaptive, static): ({:#018x}, {:#018x})",
        adaptive.digest,
        static_.digest
    );
}
