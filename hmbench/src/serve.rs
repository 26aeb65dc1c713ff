//! serve-hot and serve-cold: two closed-loop clients against one
//! `ServeEngine` with the default `ServeConfig`.
//!
//! Each client sends its next request only after the previous one returns.
//! A run is cut into fixed time windows; the reported throughput and
//! latency percentiles are the medians over windows, so one scheduler
//! hiccup on a shared host moves one window, not the result.

use crate::common::{median, ns_u32, percentile_ns, Checked, Metrics, Rng};
use crate::setup::Trained;
use heteromap::HeteroMap;
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::Dataset;
use heteromap_graph::GraphStats;
use heteromap_model::{BVector, IVector, MConfig, Workload};
use heteromap_predict::Autotuner;
use heteromap_serve::{
    CachedPrediction, InsertOutcome, MetricsSnapshot, PredKey, ServeConfig, ServeEngine,
    ShardedCache,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Closed-loop clients: the host has 2 CPUs.
pub const CLIENTS: usize = 2;
/// Length of one measurement window.
const WINDOW: Duration = Duration::from_millis(500);
/// Latency samples kept per client per window. Every `stride`-th request
/// is kept, with the stride set from the warm-up window so samples span the
/// whole window; every request counts toward throughput.
const LAT_CAP: usize = 65_536;
/// Spans a traced client keeps in memory (a ring: the newest survive).
const SPAN_RING: usize = 1 << 16;
/// Shuffled passes over the 81 combinations in each hot client's order.
const HOT_PASSES: usize = 64;
/// Fresh keys, never in the request stream, used by the layer probes.
const PROBE_KEYS: usize = 4_096;
/// Minimum time each repeatable layer probe runs.
const PROBE_TIME: Duration = Duration::from_millis(150);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

/// The 81 Table-I (workload, dataset) combinations.
pub fn table1_combos() -> Vec<(Workload, Dataset)> {
    Workload::all()
        .into_iter()
        .flat_map(|w| Dataset::all().into_iter().map(move |d| (w, d)))
        .collect()
}

/// Simulated completion time of the exhaustively tuned configuration.
pub fn ideal_ms(system: &MultiAcceleratorSystem, ctx: &WorkloadContext) -> f64 {
    Autotuner::exhaustive()
        .tune(|cfg| system.deploy(ctx, cfg).time_ms)
        .cost
}

/// `distinct` random graph statistics, no two alike, paired with a
/// random paper workload. Every pair is a distinct cache key.
fn distinct_requests(rng: &mut Rng, distinct: usize) -> Vec<(Workload, GraphStats)> {
    let workloads = Workload::all();
    let mut seen = std::collections::HashSet::with_capacity(distinct);
    let mut out = Vec::with_capacity(distinct);
    while out.len() < distinct {
        let vertices = 10f64.powf(3.0 + 5.0 * rng.unit()) as u64;
        let avg_degree = 10f64.powf(2.5 * rng.unit());
        let edges = (vertices as f64 * avg_degree) as u64 + 1;
        let max_degree = ((avg_degree * 10f64.powf(3.0 * rng.unit())) as u64).clamp(1, vertices);
        let diameter = 10f64.powf(0.3 + 3.2 * rng.unit()) as u64;
        let workload = workloads[rng.below(workloads.len())];
        let stats = GraphStats::from_known(vertices, edges, max_degree, diameter);
        if seen.insert((workload as u8, vertices, edges, max_degree, diameter)) {
            out.push((workload, stats));
        }
    }
    out
}

/// The generated inputs of one serve workload.
pub struct Inputs {
    kind: Kind,
    /// Distinct requests; the orders index into it.
    table: Vec<(Workload, GraphStats)>,
    /// Each client's request order.
    orders: Vec<Vec<u32>>,
    /// Requests never in the stream, for the layer probes.
    fresh: Vec<(Workload, GraphStats)>,
}

impl Inputs {
    /// serve-hot: every client walks its own seeded shuffles of the 81
    /// combinations, so all clients share one small working set.
    fn hot(seed: u64) -> Self {
        let table: Vec<_> = table1_combos()
            .into_iter()
            .map(|(w, d)| (w, d.stats()))
            .collect();
        let mut rng = Rng::new(seed);
        let orders = (0..CLIENTS)
            .map(|_| {
                let mut order = Vec::with_capacity(table.len() * HOT_PASSES);
                for _ in 0..HOT_PASSES {
                    let mut pass: Vec<u32> = (0..table.len() as u32).collect();
                    rng.shuffle(&mut pass);
                    order.extend(pass);
                }
                order
            })
            .collect();
        let fresh = distinct_requests(&mut rng, PROBE_KEYS);
        Inputs {
            kind: Kind::Hot,
            table,
            orders,
            fresh,
        }
    }

    /// serve-cold: twice the cache capacity of distinct keys, split between
    /// the clients so no key is ever shared. A client returns to a key only
    /// after the whole stream has passed, long after LRU evicted it.
    fn cold(seed: u64, capacity: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut all = distinct_requests(&mut rng, 2 * capacity + PROBE_KEYS);
        let fresh = all.split_off(2 * capacity);
        let orders = (0..CLIENTS)
            .map(|c| {
                let mut order: Vec<u32> =
                    (c..all.len()).step_by(CLIENTS).map(|i| i as u32).collect();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        Inputs {
            kind: Kind::Cold,
            table: all,
            orders,
            fresh,
        }
    }
}

/// Engine plus inputs: what one set-up builds.
pub struct Built {
    engine: ServeEngine,
    inputs: Inputs,
}

pub fn build(kind: Kind, trained: &Trained, seed: u64) -> Built {
    let config = ServeConfig::default();
    let engine = ServeEngine::new(trained.heteromap(), config);
    let inputs = match kind {
        Kind::Hot => Inputs::hot(seed),
        Kind::Cold => Inputs::cold(seed, config.capacity),
    };
    Built { engine, inputs }
}

/// `HeteroMap::predict_config` for each request: the answer every served
/// placement must carry.
fn expected_configs(hm: &HeteroMap, requests: &[(Workload, GraphStats)]) -> Vec<MConfig> {
    let chunk = requests.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(w, stats)| hm.predict_config(&w.b_vector(), &hm.ivector(&stats)).0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("expected-config worker panicked"))
            .collect()
    })
}

/// Per-window results of one closed-loop phase.
struct Phase {
    /// Completed requests per window, over both clients.
    completed: Vec<u64>,
    /// Measured length of each window: from the end of the previous one
    /// to the last completion in it.
    seconds: Vec<f64>,
    /// Recorded latency samples per window, over both clients.
    latencies: Vec<Vec<u32>>,
    checked: Checked,
    /// Request spans recorded (traced phases only) and their total time.
    spans: usize,
    span_ns: u64,
}

/// Runs both clients for `windows` windows. Each client starts where it
/// left off in its order (`cursors`) and keeps the latency of every
/// `stride`-th request. With `traced`, every request also records a span
/// into memory.
fn run_phase(
    engine: &ServeEngine,
    inputs: &Inputs,
    expected: &[MConfig],
    cursors: &mut [usize],
    windows: usize,
    stride: u64,
    traced: bool,
) -> Phase {
    let base = Instant::now();
    #[allow(clippy::type_complexity)]
    let per_client: Vec<(
        Vec<u64>,
        Vec<Duration>,
        Vec<u32>,
        Vec<usize>,
        Checked,
        (usize, u64),
    )> = std::thread::scope(|scope| {
        let handles: Vec<_> = cursors
            .iter_mut()
            .enumerate()
            .map(|(client, cursor)| {
                let order = &inputs.orders[client];
                scope.spawn(move || {
                    let mut completed = vec![0u64; windows];
                    let mut ends = vec![Duration::ZERO; windows];
                    let mut kept = vec![0usize; windows];
                    let mut lat = vec![u32::MAX; windows * LAT_CAP];
                    // Span start and end, in ns since the phase began.
                    let mut spans: Vec<(u64, u64)> = if traced {
                        vec![(0, 0); SPAN_RING]
                    } else {
                        Vec::new()
                    };
                    let (mut n_spans, mut span_ns) = (0usize, 0u64);
                    let mut checked = Checked::default();
                    let mut pos = *cursor;
                    let mut skip = stride;
                    for w in 0..windows {
                        let deadline = base + WINDOW * (w as u32 + 1);
                        loop {
                            let idx = order[pos] as usize;
                            pos += 1;
                            if pos == order.len() {
                                pos = 0;
                            }
                            let (workload, stats) = inputs.table[idx];
                            let start = Instant::now();
                            let served = engine.schedule_stats(workload, stats);
                            let ns = ns_u32(start.elapsed());
                            skip -= 1;
                            if skip == 0 {
                                skip = stride;
                                if kept[w] < LAT_CAP {
                                    lat[w * LAT_CAP + kept[w]] = ns;
                                    kept[w] += 1;
                                }
                            }
                            if traced {
                                let start_ns = start.duration_since(base).as_nanos() as u64;
                                spans[n_spans % SPAN_RING] = (start_ns, start_ns + u64::from(ns));
                                n_spans += 1;
                                span_ns += u64::from(ns);
                            }
                            completed[w] += 1;
                            let want = &expected[idx];
                            let ok = served.placement.config == *want
                                && served.placement.accelerator() == want.accelerator;
                            if !ok && checked.failed == 0 {
                                eprintln!(
                                    "serve mismatch on request {idx}: served {:?}, expected {:?}",
                                    served.placement.config, want
                                );
                            }
                            checked.record(ok);
                            let now = Instant::now();
                            if now >= deadline {
                                ends[w] = now - base;
                                break;
                            }
                        }
                    }
                    *cursor = pos;
                    black_box(&spans);
                    (completed, ends, lat, kept, checked, (n_spans, span_ns))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client panicked"))
            .collect()
    });

    let mut phase = Phase {
        completed: vec![0; windows],
        seconds: Vec::new(),
        latencies: vec![Vec::new(); windows],
        checked: Checked::default(),
        spans: 0,
        span_ns: 0,
    };
    let mut ends = vec![Duration::ZERO; windows];
    for (completed, client_ends, lat, kept, checked, (spans, span_ns)) in per_client {
        for w in 0..windows {
            phase.completed[w] += completed[w];
            phase.latencies[w].extend_from_slice(&lat[w * LAT_CAP..w * LAT_CAP + kept[w]]);
        }
        phase.checked.attempted += checked.attempted;
        phase.checked.failed += checked.failed;
        phase.spans += spans;
        phase.span_ns += span_ns;
        for (end, client_end) in ends.iter_mut().zip(client_ends) {
            *end = (*end).max(client_end);
        }
    }
    let mut start = Duration::ZERO;
    for end in ends {
        phase.seconds.push((end - start).as_secs_f64());
        start = end;
    }
    phase
}

/// Median over windows of throughput, p50 and p99 latency.
struct PhaseSummary {
    rps: f64,
    rps_min: f64,
    rps_max: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
    requests: u64,
}

fn summarize(phase: &mut Phase) -> PhaseSummary {
    let rps: Vec<f64> = phase
        .completed
        .iter()
        .zip(&phase.seconds)
        .map(|(&c, &s)| c as f64 / s)
        .collect();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for lat in phase.latencies.iter_mut().filter(|lat| !lat.is_empty()) {
        p50.push(percentile_ns(lat, 0.50) / 1e3);
        p99.push(percentile_ns(lat, 0.99) / 1e3);
    }
    PhaseSummary {
        rps_min: rps.iter().copied().fold(f64::INFINITY, f64::min),
        rps_max: rps.iter().copied().fold(0.0, f64::max),
        rps: median(&rps),
        p50_us: median(&p50),
        p99_us: median(&p99),
        samples: phase.latencies.iter().map(Vec::len).sum(),
        requests: phase.completed.iter().sum(),
    }
}

/// Geomean, over the 81 Table-I combinations, of the served placement's
/// simulated time with the engine's miss overhead charged, over the
/// exhaustively tuned ideal. Also checks each served configuration.
fn decision_gap(engine: &ServeEngine, hm: &HeteroMap, checked: &mut Checked) -> f64 {
    let miss_ms = engine.miss_overhead_ms();
    let mut ln_sum = 0.0;
    let combos = table1_combos();
    for &(w, d) in &combos {
        let served = engine.schedule(w, d);
        let want = hm.predict_config(&w.b_vector(), &hm.ivector(&d.stats())).0;
        checked.record(served.placement.config == want);
        let ctx = WorkloadContext::for_workload(w, d.stats());
        let time = hm
            .deploy_predicted(&ctx, served.placement.config, miss_ms, 0)
            .report
            .time_ms;
        ln_sum += (time / ideal_ms(hm.system(), &ctx)).ln();
    }
    (ln_sum / combos.len() as f64).exp()
}

fn snapshot_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> [u64; 6] {
    [
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
        after.cache_evictions - before.cache_evictions,
        after.single_flight_waits - before.single_flight_waits,
        after.batches - before.batches,
        after.batched_requests - before.batched_requests,
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs a serve workload for `seconds` and returns its metrics.
///
/// Untraced, the metrics are the end-to-end ones. Traced, half of the time
/// runs untraced and half records spans (their difference is the tracing
/// overhead), and the per-layer probes follow.
pub fn run(
    built: &Built,
    trained: &Trained,
    seconds: f64,
    traced: bool,
    out: &mut Metrics,
    checked: &mut Checked,
) {
    let Built { engine, inputs } = built;
    let hm = trained.heteromap();
    let expected = expected_configs(&hm, &inputs.table);
    let mut cursors = vec![0usize; CLIENTS];

    // Warm-up, untimed: hot fills the 81 keys; cold fills the whole cache
    // from the clients' own orders, so every timed miss also evicts.
    let mut fill = |idx: usize| {
        let (w, stats) = inputs.table[idx];
        checked.record(engine.schedule_stats(w, stats).placement.config == expected[idx]);
    };
    match inputs.kind {
        Kind::Hot => (0..inputs.table.len()).for_each(fill),
        Kind::Cold => {
            for (order, cursor) in inputs.orders.iter().zip(&mut cursors) {
                *cursor = engine.config().capacity / CLIENTS;
                order[..*cursor].iter().for_each(|&idx| fill(idx as usize));
            }
        }
    }
    let warm = run_phase(engine, inputs, &expected, &mut cursors, 1, 1, false);
    checked.attempted += warm.checked.attempted;
    checked.failed += warm.checked.failed;
    let per_client = warm.completed[0] as f64 / CLIENTS as f64;
    let stride = (per_client * 1.25 / LAT_CAP as f64).ceil().max(1.0) as u64;

    let windows = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(2);
    let untraced_windows = if traced {
        (windows / 2).max(1)
    } else {
        windows
    };
    let before = engine.metrics().snapshot();
    let mut timed = run_phase(
        engine,
        inputs,
        &expected,
        &mut cursors,
        untraced_windows,
        stride,
        false,
    );
    let after = engine.metrics().snapshot();
    checked.attempted += timed.checked.attempted;
    checked.failed += timed.checked.failed;
    let untraced = summarize(&mut timed);
    println!(
        "serve: {} requests in {} windows of {} ms, {} latency samples (every {}th), \
         {} clients; window req/s min {:.0} max {:.0}",
        untraced.requests,
        untraced_windows,
        WINDOW.as_millis(),
        untraced.samples,
        stride,
        CLIENTS,
        untraced.rps_min,
        untraced.rps_max,
    );

    if !traced {
        out.push("throughput_rps", untraced.rps, "req/s");
        out.push("latency_p50_us", untraced.p50_us, "us");
        out.push("latency_p99_us", untraced.p99_us, "us");
        out.push("decision_gap", decision_gap(engine, &hm, checked), "ratio");
        // The simulated graphs these placements cover, per second.
        let mean_edges = inputs
            .table
            .iter()
            .map(|(_, s)| s.edges as f64)
            .sum::<f64>()
            / inputs.table.len() as f64;
        out.push("medges_per_s", untraced.rps * mean_edges / 1e6, "Medge/s");
        return;
    }

    let mut traced_phase = run_phase(
        engine,
        inputs,
        &expected,
        &mut cursors,
        (windows - untraced_windows).max(1),
        stride,
        true,
    );
    checked.attempted += traced_phase.checked.attempted;
    checked.failed += traced_phase.checked.failed;
    let traced_summary = summarize(&mut traced_phase);
    println!(
        "serve: traced phase recorded {} request spans, mean {:.0} ns",
        traced_phase.spans,
        traced_phase.span_ns as f64 / traced_phase.spans.max(1) as f64
    );
    out.push(
        "bench.trace_overhead_pct",
        (untraced.rps / traced_summary.rps - 1.0) * 100.0,
        "%",
    );

    let [hits, misses, evictions, waits, batches, batched] = snapshot_delta(&before, &after);
    out.push("serve.hit_rate", ratio(hits, hits + misses), "ratio");
    out.push("serve.evictions", evictions as f64, "count");
    out.push("serve.mean_batch_size", ratio(batched, batches), "count");
    out.push("serve.single_flight_waits", waits as f64, "count");
    out.push("serve.batched_share", ratio(batched, misses), "ratio");

    probe_layers(engine, inputs, &expected, &hm, untraced.p50_us, out);
}

/// Times `f` round-robin over `items` for at least `PROBE_TIME`, after one
/// warm pass; returns nanoseconds per call.
fn probe<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    items.iter().for_each(&mut f);
    let start = Instant::now();
    let mut calls = 0usize;
    while start.elapsed() < PROBE_TIME {
        items.iter().for_each(&mut f);
        calls += items.len();
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Times `f` once over each of `items` (for calls that change state, such
/// as an insert that must evict); returns nanoseconds per call.
fn probe_once<T>(items: &[T], f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    items.iter().for_each(f);
    start.elapsed().as_nanos() as f64 / items.len() as f64
}

/// Times each layer the serve path calls, from outside, on this workload's
/// own access pattern: hits on the 81 keys for serve-hot, misses on fresh
/// keys against a full cache for serve-cold.
fn probe_layers(
    engine: &ServeEngine,
    inputs: &Inputs,
    expected: &[MConfig],
    hm: &HeteroMap,
    p50_us: f64,
    out: &mut Metrics,
) {
    let hot = inputs.kind == Kind::Hot;
    // The requests the probes replay, with their B/I vectors and configs.
    let replay: Vec<(Workload, GraphStats)> = if hot {
        inputs.orders[0]
            .iter()
            .map(|&i| inputs.table[i as usize])
            .collect()
    } else {
        inputs.fresh.clone()
    };
    let configs = if hot {
        inputs.orders[0]
            .iter()
            .map(|&i| expected[i as usize])
            .collect()
    } else {
        expected_configs(hm, &replay)
    };
    let vectors: Vec<(BVector, IVector)> = replay
        .iter()
        .map(|&(w, stats)| (w.b_vector(), hm.ivector(&stats)))
        .collect();
    let keys: Vec<PredKey> = vectors.iter().map(|(b, i)| PredKey::new(b, i)).collect();
    let contexts: Vec<(WorkloadContext, MConfig)> = replay
        .iter()
        .zip(&configs)
        .map(|(&(w, stats), &cfg)| (WorkloadContext::for_workload(w, stats), cfg))
        .collect();
    let overhead_ms = if hot {
        engine.config().hit_overhead_ms
    } else {
        engine.miss_overhead_ms()
    };

    // One client, one request at a time: the engine's serial cost. Cold
    // keys are fresh, so each request misses and evicts exactly once.
    let request_ns = if hot {
        probe(&replay, |&(w, stats)| {
            black_box(engine.schedule_stats(w, stats));
        })
    } else {
        probe_once(&replay, |&(w, stats)| {
            black_box(engine.schedule_stats(w, stats));
        })
    };

    let ivector_ns = probe(&replay, |(_, stats)| {
        black_box(hm.ivector(stats));
    });
    let key_ns = probe(&vectors, |(b, i)| {
        black_box(PredKey::new(b, i));
    });

    // A cache owned by the benchmark, with the engine's shards and capacity.
    let config = engine.config();
    let cache = ShardedCache::new(config.shards, config.capacity);
    let value = |cfg: &MConfig| CachedPrediction {
        config: *cfg,
        fallbacks: 0,
    };
    let (get_ns, insert_ns) = {
        // Over-fill so every shard is full and each timed insert evicts.
        let mut rng = Rng::new(0x5EED);
        let filler = distinct_requests(&mut rng, config.capacity + config.capacity / 8);
        let fill_cfg = configs[0];
        for &(w, stats) in &filler {
            let key = PredKey::new(&w.b_vector(), &hm.ivector(&stats));
            cache.insert(key, value(&fill_cfg), cache.generation());
        }
        if hot {
            for (key, cfg) in keys.iter().zip(&configs) {
                cache.insert(*key, value(cfg), cache.generation());
            }
        }
        let get_ns = probe(&keys, |key| {
            black_box(cache.get(key));
        });
        // Insert keys the cache has never held: always an evicting insert.
        let fresh_keys: Vec<PredKey> = inputs
            .fresh
            .iter()
            .map(|&(w, stats)| PredKey::new(&w.b_vector(), &hm.ivector(&stats)))
            .collect();
        let mut evicting = 0usize;
        let insert_ns = probe_once(&fresh_keys, |key| {
            let outcome = cache.insert(*key, value(&fill_cfg), cache.generation());
            evicting += usize::from(outcome == InsertOutcome::InsertedEvicting);
        });
        if evicting < fresh_keys.len() {
            eprintln!(
                "serve: {} of {} probe inserts evicted",
                evicting,
                fresh_keys.len()
            );
        }
        (get_ns, insert_ns)
    };

    let infer_ns = probe(&vectors, |(b, i)| {
        black_box(hm.predict_config(b, i));
    });
    let accel_ns = probe(&contexts, |(ctx, cfg)| {
        black_box(hm.system().deploy(ctx, cfg));
    });
    let core_deploy_ns = probe(&contexts, |(ctx, cfg)| {
        black_box(hm.deploy_predicted(ctx, *cfg, overhead_ms, 0));
    });
    let schedule_ns = probe(&contexts, |(ctx, _)| {
        black_box(hm.schedule_context(ctx));
    });

    // The serial children of one request on this workload's path; a hit
    // skips inference and insertion. `core.deploy` includes `accel.deploy`.
    let mut children = ivector_ns + key_ns + get_ns + core_deploy_ns;
    if !hot {
        children += infer_ns + insert_ns;
    }
    out.push("model.ivector_ns", ivector_ns, "ns");
    out.push("serve.key_ns", key_ns, "ns");
    out.push("serve.cache_get_ns", get_ns, "ns");
    out.push("serve.cache_insert_ns", insert_ns, "ns");
    out.push("predict.infer_ns", infer_ns, "ns");
    out.push("accel.deploy_ns", accel_ns, "ns");
    out.push("core.deploy_ns", core_deploy_ns, "ns");
    out.push("core.schedule_ns", schedule_ns, "ns");
    out.push("serve.request_ns", request_ns, "ns");
    out.push("serve.self_ns", request_ns - children, "ns");
    out.push("serve.contention_ns", p50_us * 1e3 - request_ns, "ns");
}
