//! **Fleet scheduling sweep**: sustained goodput, tail completion time and
//! migration counts of four placement policies driving a heterogeneous
//! accelerator cluster through seeded job traces at several fault
//! intensities.
//!
//! Each cell runs the same deterministic [`FleetTrace`] over the same
//! cluster with one [`Placer`]; the gap between the predictor-driven
//! placers (greedy, evolution) and the blind baselines (random,
//! round-robin) is what HeteroMap's runtime prediction buys at fleet
//! scale. Every cell's digest is checked bit-for-bit across thread counts
//! and a rerun — the simulator's determinism is part of what this
//! experiment certifies. Results are written to `BENCH_fleet.json`.
//!
//! Pass `--smoke` for a CI-sized run (smaller trace and cluster, fewer
//! thread counts).

use heteromap_bench::{stable_digest_runs, TextTable};
use heteromap_fleet::{Cluster, FleetReport, FleetSim, FleetTrace, Placer};

const SEED: u64 = 42;
const INTENSITIES: [f64; 3] = [0.0, 0.2, 0.4];

/// A named trace regime: label plus its `FleetTrace` constructor.
type Regime = (&'static str, fn(u64, f64) -> FleetTrace);

struct Cell {
    regime: &'static str,
    intensity: f64,
    placer: Placer,
    report: FleetReport,
}

fn cell_for<'a>(
    cells: &'a [Cell],
    regime: &str,
    intensity: f64,
    placer: Placer,
) -> &'a FleetReport {
    &cells
        .iter()
        .find(|c| c.regime == regime && c.intensity == intensity && c.placer == placer)
        .expect("cell exists")
        .report
}

fn main() {
    let args = heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let smoke = args.iter().any(|a| a == "--smoke");
    let thread_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    let n_per_spec = if smoke { 1 } else { 2 };
    let regimes: Vec<Regime> = if smoke {
        vec![("smoke", FleetTrace::smoke as _)]
    } else {
        vec![
            ("heavy", FleetTrace::heavy as _),
            ("steady", FleetTrace::steady as _),
        ]
    };
    let cluster = Cluster::uniform(n_per_spec);
    println!(
        "fleet sweep: {} devices ({n_per_spec}x each paper spec), seed {SEED}{}",
        cluster.len(),
        if smoke { " [smoke]" } else { "" },
    );
    println!("digests checked at {thread_counts:?} threads plus a rerun per cell\n");

    let mut cells: Vec<Cell> = Vec::new();
    for &(regime, trace_for) in &regimes {
        for &intensity in &INTENSITIES {
            for placer in Placer::ALL {
                let sim = FleetSim::new(trace_for(SEED, intensity), cluster.clone(), placer);
                let label = sim.placer().to_string();
                let report =
                    stable_digest_runs(&label, thread_counts, |t| sim.run(t), |r| r.digest)[0];
                assert!(report.fully_accounted(), "every job resolves");
                println!(
                    "{regime}/{intensity:.1} {placer:<11} good {:>4}/{:<4} {:>8.1} jobs/s  \
                     p99 {:>9.1} ms  migr {:>3}",
                    report.good, report.jobs, report.jobs_per_sec, report.p99_ms, report.migrations,
                );
                cells.push(Cell {
                    regime,
                    intensity,
                    placer,
                    report,
                });
            }
        }
    }

    let mut table = TextTable::new([
        "regime",
        "intensity",
        "placer",
        "jobs",
        "good",
        "late",
        "failed",
        "shed",
        "migr",
        "jobs/s",
        "p99 ms",
        "util",
    ]);
    for cell in &cells {
        let r = &cell.report;
        table.row([
            cell.regime.to_string(),
            format!("{:.1}", cell.intensity),
            cell.placer.name().to_string(),
            r.jobs.to_string(),
            r.good.to_string(),
            r.late.to_string(),
            r.failed.to_string(),
            r.shed.to_string(),
            r.migrations.to_string(),
            format!("{:.1}", r.jobs_per_sec),
            format!("{:.1}", r.p99_ms),
            format!("{:.2}", r.avg_utilization),
        ]);
    }
    println!("\n{}", table.render());

    // Acceptance bars (ISSUE 8). Simulated time keeps these stable enough
    // to hard-assert: a regression exits non-zero.
    let primary = regimes[0].0;
    for &intensity in &INTENSITIES {
        for predictor in [Placer::Greedy, Placer::Evolution] {
            let p = cell_for(&cells, primary, intensity, predictor);
            for naive in [Placer::Random, Placer::RoundRobin] {
                let n = cell_for(&cells, primary, intensity, naive);
                assert!(
                    p.jobs_per_sec > n.jobs_per_sec,
                    "{predictor} must beat {naive} on jobs/sec at {primary}/{intensity}: \
                     {:.2} vs {:.2}",
                    p.jobs_per_sec,
                    n.jobs_per_sec
                );
                assert!(
                    p.p99_ms < n.p99_ms,
                    "{predictor} must beat {naive} on p99 at {primary}/{intensity}: \
                     {:.2} vs {:.2}",
                    p.p99_ms,
                    n.p99_ms
                );
            }
        }
    }
    let evolution_wins = cells
        .iter()
        .filter(|c| c.placer == Placer::Evolution)
        .any(|c| {
            let greedy = cell_for(&cells, c.regime, c.intensity, Placer::Greedy);
            c.report.jobs_per_sec >= greedy.jobs_per_sec
        });
    assert!(
        evolution_wins,
        "evolution must match or beat greedy goodput on at least one regime"
    );
    println!(
        "acceptance bars hold: predictor-driven placers beat both baselines on jobs/sec \
         and p99; evolution >= greedy on at least one regime"
    );

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // No serde_json in the offline workspace; hand-rolled like the other
    // BENCH_*.json writers.
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"fleet_schedule\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!(
        "  \"trials\": {},\n",
        thread_counts.len() + 1 // digest-checked runs per cell
    ));
    json.push_str(&format!(
        "  \"devices\": {}, \"n_per_spec\": {n_per_spec},\n",
        cluster.len()
    ));
    json.push_str(&format!("  \"thread_counts\": {thread_counts:?},\n"));
    json.push_str("  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let r = &cell.report;
        json.push_str(&format!(
            "    {{\"regime\": \"{}\", \"intensity\": {:.2}, \"placer\": \"{}\", \
             \"jobs\": {}, \"good\": {}, \"late\": {}, \"failed\": {}, \"shed\": {}, \
             \"migrations\": {}, \"jobs_per_sec\": {:.6}, \"p99_ms\": {:.6}, \
             \"span_ms\": {:.6}, \"avg_utilization\": {:.6}, \"breaker_opens\": {}, \
             \"breaker_closes\": {}, \"digest\": \"{:016x}\"}}",
            cell.regime,
            cell.intensity,
            cell.placer.name(),
            r.jobs,
            r.good,
            r.late,
            r.failed,
            r.shed,
            r.migrations,
            r.jobs_per_sec,
            r.p99_ms,
            r.span_ms,
            r.avg_utilization,
            r.breaker_opens,
            r.breaker_closes,
            r.digest,
        ));
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json ({} cells)", cells.len());
}
