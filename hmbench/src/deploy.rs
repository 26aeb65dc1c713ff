//! deploy-real: `HeteroMap::schedule` picks a configuration for each of the
//! 9 paper kernels on 3 Table-I surrogates, and `KernelRunner` executes it
//! on real host threads. A round runs all 27 jobs in a seeded order; the
//! reported rates are medians over rounds.

use crate::common::{host_cpus, median, ns_u32, percentile_ns, Checked, Metrics, Rng};
use crate::serve::ideal_ms;
use crate::setup::Trained;
use heteromap::HeteroMap;
use heteromap_accel::cost::WorkloadContext;
use heteromap_graph::datasets::Dataset;
use heteromap_graph::CsrGraph;
use heteromap_kernels::runner::KernelOutput;
use heteromap_kernels::{verify, KernelRunner};
use heteromap_model::{MConfig, Workload};
use heteromap_serve::ServeConfig;
use std::time::Instant;

/// Road (high diameter) and two social graphs (skewed degrees).
pub const DATASETS: [Dataset; 3] = [Dataset::UsaCal, Dataset::Facebook, Dataset::LiveJournal];
/// Surrogate size at full scale.
pub const VERTICES: usize = 50_000;
/// Fewest timed rounds per phase, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Short kernel names used in per-layer metric names.
pub fn kernel_name(w: Workload) -> &'static str {
    match w {
        Workload::SsspBf => "sssp_bf",
        Workload::SsspDelta => "sssp_delta",
        Workload::Bfs => "bfs",
        Workload::Dfs => "dfs",
        Workload::PageRank => "pr",
        Workload::PageRankDp => "pr_dp",
        Workload::TriangleCount => "tri",
        Workload::Community => "comm",
        Workload::ConnComp => "cc",
        _ => "other",
    }
}

/// The three surrogates, generated from the workload seed.
pub fn build_graphs(vertices: usize, seed: u64) -> Vec<CsrGraph> {
    DATASETS
        .iter()
        .enumerate()
        .map(|(i, d)| d.surrogate_graph(vertices, seed.wrapping_add(i as u64)))
        .collect()
}

/// Sequential references for one graph, computed outside timing.
struct Refs {
    bfs: Vec<u32>,
    dist: Vec<f32>,
    ranks: Vec<f64>,
    triangles: u64,
    components: Vec<u32>,
    /// Community detection has no sequential reference: the 1-thread run.
    communities: KernelOutput,
}

impl Refs {
    fn new(g: &CsrGraph) -> Self {
        Refs {
            bfs: verify::bfs_seq(g, 0),
            dist: verify::dijkstra(g, 0),
            ranks: verify::pagerank_seq(g, 20),
            triangles: verify::triangle_seq(g),
            components: verify::conncomp_seq(g),
            communities: KernelRunner::new(1).run(Workload::Community, g).output,
        }
    }

    fn check(&self, w: Workload, g: &CsrGraph, out: &KernelOutput) -> bool {
        let close = |a: f64, b: f64, rel: f64| (a - b).abs() <= rel * b.abs().max(1e-12);
        match (w, out) {
            (Workload::Bfs, KernelOutput::Levels(l)) => *l == self.bfs,
            // Parallel DFS may pick other parents: it must reach exactly the
            // BFS-reachable set along real edges.
            (Workload::Dfs, KernelOutput::Levels(parent)) => {
                parent.len() == self.bfs.len()
                    && parent
                        .iter()
                        .zip(&self.bfs)
                        .enumerate()
                        .all(|(v, (&p, &l))| {
                            (p == u32::MAX) == (l == u32::MAX)
                                && (p == u32::MAX || v == 0 || g.neighbors(p).contains(&(v as u32)))
                        })
            }
            (Workload::SsspBf | Workload::SsspDelta, KernelOutput::Distances(d)) => {
                d.len() == self.dist.len()
                    && d.iter().zip(&self.dist).all(|(&a, &b)| {
                        (a.is_infinite() && b.is_infinite())
                            || close(f64::from(a), f64::from(b), 1e-6)
                    })
            }
            // Pull PageRank matches the sequential reference exactly; push
            // PageRank accumulates in f32 atomics and drifts by up to ~1e-6
            // relative on these graphs, so it gets a 1e-4 margin.
            (Workload::PageRank | Workload::PageRankDp, KernelOutput::Ranks(r)) => {
                let rel = if w == Workload::PageRank { 1e-9 } else { 1e-4 };
                r.len() == self.ranks.len()
                    && r.iter().zip(&self.ranks).all(|(&a, &b)| close(a, b, rel))
            }
            (Workload::TriangleCount, KernelOutput::Count(c)) => *c == self.triangles,
            (Workload::ConnComp, KernelOutput::Labels(l)) => *l == self.components,
            (Workload::Community, out) => out == &self.communities,
            _ => false,
        }
    }
}

/// One kernel job: a paper workload on one of the surrogates.
#[derive(Debug, Clone, Copy)]
struct Job {
    workload: Workload,
    graph: usize,
}

/// Everything one set-up builds: the model and the three graphs.
pub struct Built {
    hm: HeteroMap,
    graphs: Vec<CsrGraph>,
}

pub fn build(trained: &Trained, vertices: usize, seed: u64) -> (Built, f64) {
    let hm = trained.heteromap();
    let start = Instant::now();
    let graphs = build_graphs(vertices, seed);
    (Built { hm, graphs }, start.elapsed().as_secs_f64())
}

/// Timing of one round of the 27 jobs.
#[derive(Debug, Default, Clone)]
struct Round {
    wall_s: f64,
    edges: u64,
    latencies_ns: Vec<u32>,
    /// Per job (traced only): `HeteroMap::schedule` and `KernelRunner::run`
    /// span times, deployed host threads.
    spans: Vec<(Job, u64, u64, usize)>,
}

struct Deployer<'a> {
    built: &'a Built,
    refs: Vec<Refs>,
    /// `predict_config` for each job, indexed like `jobs`.
    expected: Vec<MConfig>,
    jobs: Vec<Job>,
    rng: Rng,
}

impl<'a> Deployer<'a> {
    fn new(built: &'a Built, seed: u64) -> Self {
        let jobs: Vec<Job> = Workload::all()
            .into_iter()
            .flat_map(|workload| (0..DATASETS.len()).map(move |graph| Job { workload, graph }))
            .collect();
        let hm = &built.hm;
        let expected = jobs
            .iter()
            .map(|job| {
                let stats = DATASETS[job.graph].stats();
                hm.predict_config(&job.workload.b_vector(), &hm.ivector(&stats))
                    .0
            })
            .collect();
        Deployer {
            built,
            refs: built.graphs.iter().map(Refs::new).collect(),
            expected,
            jobs,
            rng: Rng::new(seed ^ 0xD3B1),
        }
    }

    /// Runs the 27 jobs in a fresh seeded order. The round's wall time is
    /// the sum of its jobs' times; each job's placement and output are
    /// checked after its clock stops, and the output is dropped.
    fn round(&mut self, traced: bool, checked: &mut Checked) -> Round {
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        self.rng.shuffle(&mut order);
        let hm = &self.built.hm;
        let mut round = Round::default();
        for &j in &order {
            let job = self.jobs[j];
            let graph = &self.built.graphs[job.graph];
            let t0 = Instant::now();
            let placement = hm.schedule(job.workload, DATASETS[job.graph]);
            let t1 = Instant::now();
            let limits = hm
                .system()
                .spec_for(placement.accelerator())
                .deploy_limits();
            let runner = KernelRunner::from_mconfig(&placement.config, &limits, host_cpus());
            let run = runner.run(job.workload, graph);
            let t2 = Instant::now();
            round.wall_s += (t2 - t0).as_secs_f64();
            round.latencies_ns.push(ns_u32(t2 - t0));
            if traced {
                let schedule_ns = (t1 - t0).as_nanos() as u64;
                let run_ns = (t2 - t1).as_nanos() as u64;
                round
                    .spans
                    .push((job, schedule_ns, run_ns, runner.threads()));
            }
            round.edges += graph.edge_count() as u64;
            let ok = placement.config == self.expected[j]
                && self.refs[job.graph].check(job.workload, graph, &run.output);
            if !ok && checked.failed == 0 {
                eprintln!(
                    "deploy mismatch: {} on {}",
                    job.workload, DATASETS[job.graph]
                );
            }
            checked.record(ok);
        }
        round
    }

    /// Rounds until `seconds` have passed (at least `MIN_ROUNDS`).
    fn rounds(&mut self, seconds: f64, traced: bool, checked: &mut Checked) -> Vec<Round> {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
            rounds.push(self.round(traced, checked));
        }
        rounds
    }
}

fn median_rate(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r) / r.wall_s).collect::<Vec<_>>())
}

/// Geomean over the 27 jobs' combinations of the scheduled placement's
/// simulated time, with the deterministic miss overhead charged, over the
/// exhaustively tuned ideal.
fn decision_gap(d: &Deployer) -> f64 {
    let hm = &d.built.hm;
    // The serving engine's miss charge, `inference_flops × flop_ns`.
    let miss_ms = hm.predictor().inference_flops() as f64 * ServeConfig::default().flop_ns * 1e-6;
    let ln_sum: f64 = d
        .jobs
        .iter()
        .zip(&d.expected)
        .map(|(job, &cfg)| {
            let ctx = WorkloadContext::for_workload(job.workload, DATASETS[job.graph].stats());
            let time = hm.deploy_predicted(&ctx, cfg, miss_ms, 0).report.time_ms;
            (time / ideal_ms(hm.system(), &ctx)).ln()
        })
        .sum();
    (ln_sum / d.jobs.len() as f64).exp()
}

/// Runs deploy-real for `seconds`. Untraced it reports the end-to-end
/// metrics; traced, half the time runs untraced and half records a span
/// around each `schedule` and each kernel run, and the kernel per-layer
/// metrics follow.
pub fn run(
    built: &Built,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Metrics,
    checked: &mut Checked,
) {
    let mut d = Deployer::new(built, seed);
    d.round(false, checked); // warm-up: thread pool, page faults
    let untraced_secs = if traced { seconds / 2.0 } else { seconds };
    let timed = d.rounds(untraced_secs, false, checked);
    let mut lat: Vec<u32> = timed
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    println!(
        "deploy: {} rounds of {} jobs, {} latency samples",
        timed.len(),
        d.jobs.len(),
        lat.len()
    );
    let medges = median_rate(&timed, |r| r.edges as f64 / 1e6);
    if !traced {
        out.push(
            "throughput_rps",
            median_rate(&timed, |r| r.latencies_ns.len() as f64),
            "req/s",
        );
        out.push("latency_p50_us", percentile_ns(&mut lat, 0.50) / 1e3, "us");
        out.push("latency_p99_us", percentile_ns(&mut lat, 0.99) / 1e3, "us");
        out.push("decision_gap", decision_gap(&d), "ratio");
        out.push("medges_per_s", medges, "Medge/s");
        return;
    }
    let traced_rounds = d.rounds(seconds - untraced_secs, true, checked);
    let traced_medges = median_rate(&traced_rounds, |r| r.edges as f64 / 1e6);
    out.push(
        "bench.trace_overhead_pct",
        (medges / traced_medges - 1.0) * 100.0,
        "%",
    );
    kernel_layers(&d, &traced_rounds, checked, out);
}

/// The kernel layers for a workload that does not run kernels itself:
/// builds the surrogates (timed), then one warm and one traced round.
pub fn ledger(
    trained: &Trained,
    vertices: usize,
    seed: u64,
    checked: &mut Checked,
    out: &mut Metrics,
) {
    let (built, surrogate_s) = build(trained, vertices, seed);
    out.push("graph.surrogate_s", surrogate_s, "s");
    let mut d = Deployer::new(&built, seed);
    d.round(false, checked);
    let rounds = [d.round(true, checked)];
    kernel_layers(&d, &rounds, checked, out);
}

/// Per-kernel ns/edge from the traced spans, speed-up of the deployed run
/// over a 1-thread run, mean deployed threads, and `HeteroMap::schedule`.
fn kernel_layers(d: &Deployer, rounds: &[Round], checked: &mut Checked, out: &mut Metrics) {
    let spans: Vec<&(Job, u64, u64, usize)> = rounds.iter().flat_map(|r| &r.spans).collect();
    let schedule_ns = spans.iter().map(|s| s.1 as f64).sum::<f64>() / spans.len() as f64;
    let threads = spans.iter().map(|s| s.3 as f64).sum::<f64>() / spans.len() as f64;
    for w in Workload::all() {
        let mine: Vec<_> = spans.iter().filter(|s| s.0.workload == w).collect();
        let run_ns: f64 = mine.iter().map(|s| s.2 as f64).sum();
        let edges: f64 = mine
            .iter()
            .map(|s| d.built.graphs[s.0.graph].edge_count() as f64)
            .sum();
        // The same jobs once on one thread, checked like the deployed runs.
        let mut single_ns = 0.0;
        for (g, graph) in d.built.graphs.iter().enumerate() {
            let start = Instant::now();
            let run = KernelRunner::new(1).run(w, graph);
            single_ns += start.elapsed().as_nanos() as f64;
            checked.record(d.refs[g].check(w, graph, &run.output));
        }
        let deployed_per_round = run_ns / rounds.len() as f64;
        let name = kernel_name(w);
        out.push(format!("kernels.{name}.ns_per_edge"), run_ns / edges, "ns");
        out.push(
            format!("kernels.{name}.speedup_vs_ref"),
            single_ns / deployed_per_round,
            "ratio",
        );
    }
    out.push("kernels.threads", threads, "count");
    out.push("core.schedule_ns", schedule_ns, "ns");
}
