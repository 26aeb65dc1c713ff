//! The HeteroMap end-to-end benchmark.
//!
//! ```text
//! hmbench --workload <serve-hot|serve-cold|deploy-real> --seed <n>
//!         --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The workload's inputs are generated from `--seed`; the crates under test
//! receive only those inputs. With `--trace 0` the last line of standard
//! output is a JSON object with the end-to-end metrics; with `--trace 1` it
//! holds the per-layer metrics, timed from outside around calls into each
//! crate's public functions. Every served configuration and every kernel
//! output is checked, outside timing; a mismatch makes the exit code 1.
//! `--tiny` shrinks training and graphs for the self-test.
//!
//! Numbers from a 1–2 CPU host make no scaling claim: the benchmark runs at
//! most two client or worker threads.

mod common;
mod deploy;
mod serve;
mod setup;

use common::{host_cpus, median, peak_rss_mb, Checked, Metrics};
use setup::Trained;
use std::process::ExitCode;
use std::time::Instant;

/// Default workload seed, recorded so a claim can be re-checked on another.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Sizes: the full benchmark, or a tiny one for the self-test.
struct Size {
    train_samples: usize,
    vertices: usize,
}

/// Trains and builds `SETUPS` times, keeping the last build. Returns it with
/// the median set-up, database-generation and fit times.
fn repeated_setup<B>(
    samples: usize,
    mut build: impl FnMut(&Trained) -> B,
) -> (Trained, B, [f64; 3]) {
    let mut totals = Vec::new();
    let mut dbgen = Vec::new();
    let mut fit = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        let trained = Trained::train(samples);
        let built = build(&trained);
        totals.push(start.elapsed().as_secs_f64());
        dbgen.push(trained.dbgen_s);
        fit.push(trained.fit_s);
        last = Some((trained, built));
    }
    let (trained, built) = last.expect("at least one set-up");
    (
        trained,
        built,
        [median(&totals), median(&dbgen), median(&fit)],
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hmbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Environment switches must not change what is measured.
    heteromap_obs::set_quiet(true);
    heteromap_obs::set_level(heteromap_obs::TraceLevel::Off);
    heteromap_obs::set_metrics_enabled(false);

    let size = if args.tiny {
        Size {
            train_samples: 24,
            vertices: 2_000,
        }
    } else {
        Size {
            train_samples: 200,
            vertices: deploy::VERTICES,
        }
    };
    let mut out = Metrics::default();
    let mut checked = Checked::default();
    let mut layers = Metrics::default();
    let (trained, setup_s) = match args.workload.as_str() {
        kind @ ("serve-hot" | "serve-cold") => {
            let kind = if kind == "serve-hot" {
                serve::Kind::Hot
            } else {
                serve::Kind::Cold
            };
            let (trained, built, times) =
                repeated_setup(size.train_samples, |t| serve::build(kind, t, args.seed));
            serve::run(
                &built,
                &trained,
                args.seconds,
                args.trace,
                &mut out,
                &mut checked,
            );
            drop(built);
            if args.trace {
                deploy::ledger(
                    &trained,
                    size.vertices,
                    args.seed,
                    &mut checked,
                    &mut layers,
                );
            }
            (trained, times)
        }
        "deploy-real" => {
            let mut surrogate_s = Vec::new();
            let (trained, built, times) = repeated_setup(size.train_samples, |t| {
                let (built, secs) = deploy::build(t, size.vertices, args.seed);
                surrogate_s.push(secs);
                built
            });
            if args.trace {
                out.push("graph.surrogate_s", median(&surrogate_s), "s");
            }
            deploy::run(
                &built,
                args.seed,
                args.seconds,
                args.trace,
                &mut out,
                &mut checked,
            );
            drop(built);
            if args.trace {
                // The serve layers, measured on the serve-hot inputs.
                let built = serve::build(serve::Kind::Hot, &trained, args.seed);
                serve::run(&built, &trained, 1.0, true, &mut layers, &mut checked);
            }
            (trained, times)
        }
        other => {
            eprintln!("hmbench: unknown workload {other:?} (serve-hot, serve-cold, deploy-real)");
            return ExitCode::from(2);
        }
    };
    let [setup_total, dbgen_s, fit_s] = setup_s;
    if args.trace {
        out.push("tune.dbgen_s", dbgen_s, "s");
        out.push("tune.oracle_evals", trained.oracle_evals as f64, "count");
        out.push(
            "accel.oracle_ns",
            dbgen_s * 1e9 / trained.oracle_evals as f64,
            "ns",
        );
        out.push("predict.fit_s", fit_s, "s");
        out.merge_missing(layers);
    } else {
        out.push("setup_s", setup_total, "s");
        out.push("peak_rss_mb", peak_rss_mb(), "MB");
    }
    report(&args, &size, &out, checked)
}

/// Prints the human summary, the provenance line and, last, the JSON
/// result. Exit code 1 if any check failed, 3 if a metric is not finite.
fn report(args: &Args, size: &Size, out: &Metrics, checked: Checked) -> ExitCode {
    for (name, value, unit) in out.iter() {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    let failed_frac = checked.failed as f64 / checked.attempted.max(1) as f64;
    println!("{:<32} {failed_frac:>16.4} ratio", "failed_frac");
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    println!(
        "provenance {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"tiny\":{},\
         \"host_cpus\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"clients\":{},\"setups\":{},\
         \"train_samples\":{},\"surrogate_vertices\":{},\"note\":\"a 1-2 CPU host: no scaling claim\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny,
        host_cpus(),
        env("HMBENCH_RUSTC"),
        env("HMBENCH_COMMIT"),
        serve::CLIENTS,
        SETUPS,
        size.train_samples,
        size.vertices,
    );
    if let Some((name, value, _)) = out.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("hmbench: metric {name} is not finite ({value})");
        return ExitCode::from(3);
    }
    let metrics: Vec<String> = out
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checked.failed == 0,
        checked.attempted,
        checked.failed,
        metrics.join(",")
    );
    if checked.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
