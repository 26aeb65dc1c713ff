//! **Chaos resilience sweep**: goodput, tail latency and shed rate of the
//! serving stack under seeded fault plans, resilient machinery on vs off.
//!
//! Each cell drives the same deterministic [`ChaosPlan`] through a private
//! serving engine twice: once with deadlines threaded into the deploy loop
//! and circuit breakers routing around sick accelerators (**resilient**),
//! once with the identical faults and workload but unconstrained deploys
//! (**baseline**). The gap between the columns is what the resilience layer
//! buys. Every run's digest is checked bit-for-bit across thread counts and
//! a rerun — the harness's determinism is part of what this experiment
//! certifies. Results are written to `BENCH_chaos.json`.
//!
//! Pass `--smoke` for a CI-sized run (smaller plan, fewer thread counts).

use heteromap_bench::{stable_digest_runs, TextTable};
use heteromap_chaos::{ChaosPlan, ChaosReport, ChaosRunner};

const SEED: u64 = 42;
const INTENSITIES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

struct Cell {
    intensity: f64,
    resilient: ChaosReport,
    baseline: ChaosReport,
}

fn shed_rate(r: &ChaosReport) -> f64 {
    r.shed as f64 / r.requests as f64
}

fn main() {
    let args = heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let smoke = args.iter().any(|a| a == "--smoke");
    let thread_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    let plan_for = |intensity: f64| {
        if smoke {
            ChaosPlan::smoke(SEED, intensity)
        } else {
            ChaosPlan::seeded(SEED, intensity)
        }
    };

    let probe = plan_for(0.0);
    println!(
        "chaos sweep: {} rounds x {} requests, episode length {}, seed {SEED}{}",
        probe.rounds,
        probe.requests_per_round,
        probe.episode_len,
        if smoke { " [smoke]" } else { "" },
    );
    println!("digests checked at {thread_counts:?} threads plus a rerun per cell\n");

    let cells: Vec<Cell> = INTENSITIES
        .iter()
        .map(|&intensity| {
            let plan = plan_for(intensity);
            let run = |resilient: bool| {
                let runner = ChaosRunner::new(plan, resilient);
                let label = format!("resilient={resilient}");
                let report =
                    stable_digest_runs(&label, thread_counts, |t| runner.run(t), |r| r.digest)[0];
                assert!(report.fully_accounted(), "every request resolves");
                report
            };
            let cell = Cell {
                intensity,
                resilient: run(true),
                baseline: run(false),
            };
            println!(
                "intensity {intensity:.1}: resilient goodput {:.3}, baseline {:.3}",
                cell.resilient.goodput_fraction(),
                cell.baseline.goodput_fraction(),
            );
            cell
        })
        .collect();

    let mut table = TextTable::new([
        "intensity",
        "mode",
        "good",
        "late",
        "failed",
        "shed",
        "goodput",
        "p99 ms",
        "opens",
        "closes",
    ]);
    for cell in &cells {
        for (mode, r) in [("resilient", &cell.resilient), ("baseline", &cell.baseline)] {
            table.row([
                format!("{:.1}", cell.intensity),
                mode.to_string(),
                r.good.to_string(),
                r.late.to_string(),
                r.failed.to_string(),
                r.shed.to_string(),
                format!("{:.3}", r.goodput_fraction()),
                format!("{:.2}", r.p99_ms),
                r.breaker_opens.to_string(),
                r.breaker_closes.to_string(),
            ]);
        }
    }
    println!("\n{}", table.render());

    // Acceptance bars (ISSUE 6): graceful degradation and a strictly worse
    // baseline under faults. These run on simulated time, so unlike
    // wall-clock benches they are stable enough to hard-assert.
    let fault_free = cells[0].resilient.goodput_fraction();
    for cell in &cells {
        assert_eq!(cell.baseline.shed, 0, "baseline never sheds");
        assert_eq!(cell.baseline.breaker_opens, 0, "baseline has no breakers");
        if cell.intensity == 0.0 {
            assert_eq!(cell.resilient.good, cell.resilient.requests);
            assert_eq!(cell.baseline.good, cell.baseline.requests);
            continue;
        }
        assert!(
            cell.resilient.good > cell.baseline.good,
            "resilient must strictly beat baseline at intensity {}",
            cell.intensity
        );
        if (cell.intensity - 0.3).abs() < 1e-9 {
            let floor = 0.7 * fault_free;
            assert!(
                cell.resilient.goodput_fraction() >= floor,
                "goodput {:.3} under the {floor:.3} floor at 30% intensity",
                cell.resilient.goodput_fraction()
            );
        }
    }
    println!("acceptance bars hold: graceful degradation, baseline strictly worse");

    // No serde_json in the offline workspace; hand-rolled like the other
    // BENCH_*.json writers.
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"chaos_resilience\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!(
        "  \"trials\": {},\n",
        thread_counts.len() + 1 // digest-checked runs per cell
    ));
    json.push_str(&format!(
        "  \"rounds\": {}, \"requests_per_round\": {}, \"episode_len\": {},\n",
        probe.rounds, probe.requests_per_round, probe.episode_len
    ));
    json.push_str(&format!("  \"thread_counts\": {thread_counts:?},\n"));
    json.push_str("  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let row = |mode: &str, r: &ChaosReport| {
            format!(
                "    {{\"intensity\": {:.2}, \"mode\": \"{mode}\", \"requests\": {}, \
                 \"good\": {}, \"late\": {}, \"failed\": {}, \"shed\": {}, \
                 \"goodput\": {:.6}, \"shed_rate\": {:.6}, \"p99_ms\": {:.6}, \
                 \"breaker_opens\": {}, \"breaker_closes\": {}, \"digest\": \"{:016x}\"}}",
                cell.intensity,
                r.requests,
                r.good,
                r.late,
                r.failed,
                r.shed,
                r.goodput_fraction(),
                shed_rate(r),
                r.p99_ms,
                r.breaker_opens,
                r.breaker_closes,
                r.digest,
            )
        };
        json.push_str(&row("resilient", &cell.resilient));
        json.push_str(",\n");
        json.push_str(&row("baseline", &cell.baseline));
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json ({} intensity cells)", cells.len());
}
