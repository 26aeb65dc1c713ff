//! **Dynamic-graph adaptive acceptance**: a densifying trace driven
//! through `heteromap-dyngraph`'s phase loop, hard-gating that mid-run
//! re-prediction + live migration beats a static one-shot deployment.
//!
//! The trace has two injected phase changes over a LabelProp workload:
//!
//! 1. **Densification** — hub-attachment batches push the average degree
//!    past the decision tree's density refinement (`avg_deg > 5.76`) and
//!    collapse the path skeleton's diameter, so the quantized `I4` (and
//!    the frontier-density drift detector) force a re-prediction that
//!    migrates GPU → multicore. The dense FP-heavy phase is exactly where
//!    the GTX 750 Ti pays its double-precision penalty and misses its 2 MB
//!    L2, while the working set still fits the Phi's aggregate cache.
//! 2. **Mega-hub formation** — single-hub batches spike the maximum
//!    degree, moving the quantized `I3` and the per-worker utilization
//!    signal (degree-skew starves the unlucky lane), forcing a second
//!    re-prediction within the burst window.
//!
//! Hard gates (process exits non-zero):
//!
//! * adaptive **strictly beats** static makespan (§V-A overheads charged);
//! * **100%** of injected phase changes are detected (a re-prediction
//!   fires inside each burst window);
//! * **zero** re-predictions in calm phases (constant statistics must
//!   keep the detectors quiet);
//! * the run actually flips accelerators (GPU first epoch, multicore
//!   last) — the makespan gate must not pass vacuously;
//! * run digests are **bit-identical** at 1, 4 and 16 host threads, for
//!   the adaptive and the static mode alike;
//! * the re-prediction/migration events are visible in `obs::metrics`
//!   (`dyn_repredictions_total` / `dyn_migrations_total`, the series the
//!   Prometheus golden test freezes).
//!
//! Writes `BENCH_dyn.json`. Pass `--smoke` for the CI-sized run.

use heteromap::HeteroMap;
use heteromap_bench::stable_digest_runs;
use heteromap_dyngraph::{DeltaBatch, DynGraph, DynRunReport, DynRunner, DynRunnerConfig};
use heteromap_graph::datasets::LiteratureMaxima;
use heteromap_graph::gen::Densifying;
use heteromap_model::Workload;
use heteromap_obs::json::{self, num};
use heteromap_obs::metrics::drift::{Direction, DriftConfig};
use heteromap_obs::metrics::{global, prometheus_text, SeriesValue};

/// Thread budgets every digest must agree across.
const THREADS: [usize; 3] = [1, 4, 16];
/// Seed for the densification batches.
const DENSIFY_SEED: u64 = 23;
/// Seed for the mega-hub batches (decorrelated from densification).
const HUB_SEED: u64 = 61;

/// Trace geometry: calm / densify-burst / calm / hub-burst / calm.
struct TraceSpec {
    vertices: usize,
    calm: usize,
    densify_batches: usize,
    densify_edges: usize,
    hub_batches: usize,
    hub_edges: usize,
    /// Epochs past a burst's end still credited to it (a drift raise on a
    /// burst's last epoch is consumed one epoch later).
    slack: usize,
    kernel_iterations: u32,
}

impl TraceSpec {
    fn new(smoke: bool) -> Self {
        if smoke {
            TraceSpec {
                vertices: 16_000,
                calm: 3,
                densify_batches: 4,
                densify_edges: 45_000,
                hub_batches: 2,
                hub_edges: 6_000,
                slack: 2,
                kernel_iterations: 2,
            }
        } else {
            TraceSpec {
                vertices: 32_000,
                calm: 4,
                densify_batches: 5,
                densify_edges: 80_000,
                hub_batches: 3,
                hub_edges: 9_000,
                slack: 2,
                kernel_iterations: 3,
            }
        }
    }

    /// Calm epochs after the last burst: twice the inter-phase calm, so
    /// the dense steady state — where the migrated placement earns back
    /// its overhead — dominates the makespan comparison.
    fn tail(&self) -> usize {
        2 * self.calm
    }

    fn epochs(&self) -> usize {
        2 * self.calm + self.tail() + self.densify_batches + self.hub_batches
    }

    /// `[start, end)` epoch windows of the two injected phase changes.
    fn burst_windows(&self) -> [(usize, usize); 2] {
        let b1 = self.calm;
        let b2 = self.calm + self.densify_batches + self.calm;
        [
            (b1, b1 + self.densify_batches + self.slack),
            (b2, b2 + self.hub_batches + self.slack),
        ]
    }
}

/// The initial (sparse path skeleton) graph plus the delta trace.
fn build_trace(spec: &TraceSpec) -> (DynGraph, Vec<DeltaBatch>) {
    let densify = Densifying::new(spec.vertices, spec.densify_batches + 1, spec.densify_edges);
    let hubs =
        Densifying::new(spec.vertices, spec.hub_batches + 1, spec.hub_edges).with_hub_pool(1);

    let mut graph = DynGraph::new(spec.vertices);
    graph.apply(&DeltaBatch::from_edges(&densify.batch(DENSIFY_SEED, 0)));

    let calm = |trace: &mut Vec<DeltaBatch>| {
        for _ in 0..spec.calm {
            trace.push(DeltaBatch::new());
        }
    };
    let mut trace = Vec::with_capacity(spec.epochs());
    calm(&mut trace);
    for i in 1..=spec.densify_batches {
        trace.push(DeltaBatch::from_edges(&densify.batch(DENSIFY_SEED, i)));
    }
    calm(&mut trace);
    for i in 1..=spec.hub_batches {
        trace.push(DeltaBatch::from_edges(&hubs.batch(HUB_SEED, i)));
    }
    for _ in 0..spec.tail() {
        trace.push(DeltaBatch::new());
    }
    (graph, trace)
}

/// Bench-local maxima scaled to the trace (the library defaults are the
/// paper's Table I maxima, under which this trace's quantized I-variables
/// would all sit at 0.0): vertex and edge headroom keep `I1 < 0.5` and
/// `I2 < 0.8` (the tree's GPU overrides), while the diameter and
/// max-degree maxima are pinned to the trace's own extremes so `I4`
/// swings on densification and `I3` on hub formation.
fn trace_maxima(spec: &TraceSpec) -> (LiteratureMaxima, DynGraph, Vec<DeltaBatch>) {
    let (initial, trace) = build_trace(spec);
    let initial_stats = initial.stats();
    let mut shadow = initial.clone();
    for batch in &trace {
        shadow.apply(batch);
    }
    let final_stats = shadow.stats();
    let maxima = LiteratureMaxima {
        vertices: 8 * spec.vertices as u64,
        edges: 64 * final_stats.edges,
        max_degree: 2 * final_stats.max_degree,
        diameter: initial_stats.diameter,
    };
    (maxima, initial, trace)
}

/// Detector tuning scaled to this trace's signals. The frontier-density
/// series lives at O(10) with O(5) burst jumps, so the band floor is 1.0:
/// far above calm-phase noise (exactly 0 — calm epochs mutate nothing),
/// far below a densification jump. The utilization series lives in
/// [0, 1] with ~0.2 hub-skew drops, so its floor is 0.1.
fn runner_config(spec: &TraceSpec, threads: usize, adaptive: bool) -> DynRunnerConfig {
    DynRunnerConfig {
        threads,
        kernel_iterations: spec.kernel_iterations,
        adaptive,
        frontier_drift: DriftConfig {
            min_band: 1.0,
            ph_delta: 0.25,
            ph_lambda: 2.0,
            ..DriftConfig::upward()
        },
        utilization_drift: DriftConfig {
            min_band: 0.1,
            ph_delta: 0.05,
            ph_lambda: 0.5,
            direction: Direction::Down,
            ..DriftConfig::downward()
        },
        ..DynRunnerConfig::default()
    }
}

/// Sum of a counter's values across all label sets of `name`.
fn counter_total(name: &str) -> u64 {
    global()
        .snapshot()
        .into_iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            SeriesValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

fn main() {
    let args = heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let smoke = args.iter().any(|a| a == "--smoke");
    let spec = TraceSpec::new(smoke);
    let (maxima, initial, trace) = trace_maxima(&spec);
    let windows = spec.burst_windows();
    let hm = HeteroMap::with_decision_tree().with_maxima(maxima);

    println!(
        "Dynamic adaptive acceptance: {} vertices, {} epochs \
         (bursts at {:?}), LabelProp x{} sweeps{}\n",
        spec.vertices,
        trace.len(),
        windows,
        spec.kernel_iterations,
        if smoke { " [smoke]" } else { "" },
    );

    // Run the matrix with metrics enabled so the re-prediction/migration
    // events land on the global hub (gated recorders, same counters the
    // golden exposition test freezes).
    heteromap_obs::set_metrics_enabled(true);
    let repred_before = counter_total("dyn_repredictions_total");
    let migr_before = counter_total("dyn_migrations_total");
    let run = |threads: usize, adaptive: bool| -> DynRunReport {
        let mut graph = initial.clone();
        DynRunner::new(&hm, Workload::LabelProp)
            .with_config(runner_config(&spec, threads, adaptive))
            .run(&mut graph, &trace)
    };
    // Gate 4 holds here: every digest is bit-identical across THREADS and
    // a rerun, or `stable_digest_runs` exits non-zero.
    let adaptive_runs = stable_digest_runs("adaptive", &THREADS, |t| run(t, true), |r| r.digest);
    let static_runs = stable_digest_runs("static", &THREADS, |t| run(t, false), |r| r.digest);
    heteromap_obs::set_metrics_enabled(false);
    let repred_delta = counter_total("dyn_repredictions_total") - repred_before;
    let migr_delta = counter_total("dyn_migrations_total") - migr_before;

    let adaptive = &adaptive_runs[0];
    let static_ = &static_runs[0];

    // ---- Per-epoch picture (reference run) ---------------------------
    let mut table = heteromap_bench::TextTable::new([
        "epoch", "edges", "avg_deg", "max_deg", "diam", "accel", "ms", "event",
    ]);
    for e in &adaptive.epochs {
        let event = match (e.repredicted, e.migrated) {
            (_, true) => "repredict+migrate",
            (true, false) => "repredict",
            _ => "",
        };
        table.row([
            e.epoch.to_string(),
            e.stats.edges.to_string(),
            format!("{:.1}", e.stats.average_degree()),
            e.stats.max_degree.to_string(),
            e.stats.diameter.to_string(),
            format!("{:?}", e.accelerator).to_lowercase(),
            format!("{:.2}", e.time_ms),
            event.into(),
        ]);
    }
    println!("{}", table.render());

    // ---- Gate 1: adaptive strictly beats static ----------------------
    let speedup = static_.makespan_ms / adaptive.makespan_ms;
    println!(
        "makespan: adaptive {:.2} ms vs static {:.2} ms ({speedup:.2}x)",
        adaptive.makespan_ms, static_.makespan_ms
    );
    assert!(
        adaptive.makespan_ms < static_.makespan_ms,
        "GATE: adaptive ({:.3} ms) must strictly beat static ({:.3} ms)",
        adaptive.makespan_ms,
        static_.makespan_ms
    );

    // ---- Gate 2: the flip actually happened --------------------------
    let first = adaptive.epochs.first().expect("non-empty trace");
    let last = adaptive.epochs.last().expect("non-empty trace");
    assert_eq!(
        format!("{:?}", first.accelerator),
        "Gpu",
        "GATE: the sparse phase must deploy on the GPU"
    );
    assert_eq!(
        format!("{:?}", last.accelerator),
        "Multicore",
        "GATE: the dense phase must migrate to the multicore"
    );
    assert!(
        adaptive.migrations >= 1,
        "GATE: the adaptive run must live-migrate at least once"
    );
    assert!(
        static_.repredictions == 0 && static_.migrations == 0,
        "GATE: the static baseline must never re-predict"
    );

    // ---- Gate 3: 100% burst detection, zero calm false positives -----
    let fired = adaptive.reprediction_epochs();
    let detected = windows
        .iter()
        .filter(|&&(lo, hi)| fired.iter().any(|&e| e >= lo && e < hi))
        .count();
    let calm_false: Vec<usize> = fired
        .iter()
        .copied()
        .filter(|&e| !windows.iter().any(|&(lo, hi)| e >= lo && e < hi))
        .collect();
    println!(
        "detection: {detected}/{} bursts, re-predictions at {fired:?}, \
         calm false positives {calm_false:?}",
        windows.len()
    );
    assert_eq!(
        detected,
        windows.len(),
        "GATE: every injected phase change must be detected (fired {fired:?}, windows {windows:?})"
    );
    assert!(
        calm_false.is_empty(),
        "GATE: calm-phase re-predictions are false positives: {calm_false:?}"
    );

    // ---- Gate 4: digests bit-identical across thread budgets ---------
    println!(
        "determinism: adaptive digest {:#018x}, static digest {:#018x}, \
         stable across {THREADS:?} host threads",
        adaptive.digest, static_.digest
    );

    // ---- Gate 5: events visible in obs::metrics ----------------------
    let runs = adaptive_runs.len() as u64;
    assert_eq!(
        repred_delta,
        runs * adaptive.repredictions,
        "GATE: dyn_repredictions_total must count every re-prediction"
    );
    assert_eq!(
        migr_delta,
        runs * adaptive.migrations,
        "GATE: dyn_migrations_total must count every migration"
    );
    let exposition = prometheus_text(&global().snapshot());
    for needle in [
        "dyn_repredictions_total{trigger=",
        "dyn_migrations_total{to=",
    ] {
        assert!(
            exposition.contains(needle),
            "GATE: {needle:?} missing from the Prometheus exposition"
        );
    }
    println!("obs: {repred_delta} re-predictions and {migr_delta} migrations visible in metrics");

    // ---- Artifact ----------------------------------------------------
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"dynamic_adaptive\",\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"vertices\": {},\n", spec.vertices));
    out.push_str(&format!("  \"epochs\": {},\n", trace.len()));
    out.push_str(&format!(
        "  \"final_edges\": {},\n",
        adaptive.final_stats.edges
    ));
    out.push_str(&format!(
        "  \"adaptive_makespan_ms\": {},\n",
        num(adaptive.makespan_ms)
    ));
    out.push_str(&format!(
        "  \"static_makespan_ms\": {},\n",
        num(static_.makespan_ms)
    ));
    out.push_str(&format!("  \"speedup\": {},\n", num(speedup)));
    out.push_str(&format!(
        "  \"repredictions\": {},\n",
        adaptive.repredictions
    ));
    out.push_str(&format!("  \"migrations\": {},\n", adaptive.migrations));
    out.push_str(&format!(
        "  \"reprediction_epochs\": [{}],\n",
        fired
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("  \"bursts_detected\": {detected},\n"));
    out.push_str(&format!("  \"bursts_injected\": {},\n", windows.len()));
    out.push_str(&format!(
        "  \"calm_false_positives\": {},\n",
        calm_false.len()
    ));
    out.push_str(&format!(
        "  \"adaptive_digest\": \"{:#018x}\",\n",
        adaptive.digest
    ));
    out.push_str(&format!(
        "  \"static_digest\": \"{:#018x}\",\n",
        static_.digest
    ));
    out.push_str(&format!(
        "  \"threads\": [{}]\n",
        THREADS.map(|t| t.to_string()).join(", ")
    ));
    out.push_str("}\n");
    json::parse(&out).expect("artifact must be valid JSON");
    std::fs::write("BENCH_dyn.json", &out).expect("write BENCH_dyn.json");
    println!("\nall gates hold; wrote BENCH_dyn.json");
}
