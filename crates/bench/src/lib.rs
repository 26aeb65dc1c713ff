//! Shared harness for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the paper
//! (see DESIGN.md §4 for the index); this library holds the pieces they
//! share: geometric means, fixed-width table printing, and the standard
//! evaluation grids.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;

use heteromap_graph::datasets::Dataset;
use heteromap_model::Workload;
use heteromap_predict::persist::read_database_file_lenient;
use heteromap_predict::{Trainer, TrainingSet};

/// Environment variable naming a persisted profiler database to reuse in
/// place of regenerating synthetic training data.
pub const DB_ENV_VAR: &str = "HETEROMAP_DB";

/// Obtains a training database for a bench binary or example.
///
/// When [`DB_ENV_VAR`] names a persisted profiler database, it is read
/// *leniently* and any skipped corrupt rows are reported as structured
/// `db.lenient_skip` diagnostics (mirrored to stderr unless
/// [`heteromap_obs::quiet`]) — a silently shrunken database would
/// misattribute learner quality to clean data. Otherwise `samples`
/// autotuned synthetic combinations are generated with `trainer` (the
/// Fig. 9 flow).
///
/// # Panics
///
/// Panics if the named file cannot be opened or is not a profiler database
/// at all (individually corrupt rows are skipped, not fatal).
pub fn load_or_generate_database(trainer: &Trainer, samples: usize, seed: u64) -> TrainingSet {
    match std::env::var(DB_ENV_VAR) {
        Ok(path) if !path.is_empty() => {
            let lenient = read_database_file_lenient(&path)
                .unwrap_or_else(|e| panic!("{DB_ENV_VAR}={path}: {e}"));
            if let Some(summary) = lenient.skip_summary() {
                heteromap_obs::diag("db.lenient_skip", || format!("path={path} {summary}"));
            }
            heteromap_obs::diag("db.loaded", || {
                format!("path={path} rows={}", lenient.set.len())
            });
            lenient.set
        }
        _ => trainer.generate_database(samples, seed),
    }
}

/// Applies the standard bench CLI flags to the observability layer and
/// returns the remaining arguments: `--quiet` suppresses the diagnostic
/// stderr mirror, `--trace=LEVEL` overrides `HETEROMAP_TRACE`.
pub fn apply_obs_flags(args: impl IntoIterator<Item = String>) -> Vec<String> {
    args.into_iter()
        .filter(|arg| {
            if arg == "--quiet" {
                heteromap_obs::set_quiet(true);
                false
            } else if let Some(level) = arg.strip_prefix("--trace=") {
                heteromap_obs::set_level(heteromap_obs::TraceLevel::from_env_str(level));
                false
            } else {
                true
            }
        })
        .collect()
}

/// Runs a deterministic driver at every thread count in `thread_counts`
/// and once more at the last, asserting that every run reports the same
/// digest. Returns the runs in that order (the first is the reference).
///
/// # Panics
///
/// Panics with `digest diverged at {threads} threads ({label})` (or `on
/// rerun`) when a digest differs from the first run's.
pub fn stable_digest_runs<R>(
    label: &str,
    thread_counts: &[usize],
    mut run: impl FnMut(usize) -> R,
    digest: impl Fn(&R) -> u64,
) -> Vec<R> {
    let last = *thread_counts.last().expect("at least one thread count");
    let runs: Vec<R> = thread_counts
        .iter()
        .chain([&last])
        .map(|&t| run(t))
        .collect();
    let want = digest(&runs[0]);
    for (i, r) in runs.iter().enumerate().skip(1) {
        let got = digest(r);
        match thread_counts.get(i) {
            Some(threads) => {
                assert_eq!(got, want, "digest diverged at {threads} threads ({label})")
            }
            None => assert_eq!(got, want, "digest diverged on rerun ({label})"),
        }
    }
    runs
}

/// Geometric mean of positive values (the paper's aggregate of choice).
///
/// # Panics
///
/// Panics if any value is non-positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let ln_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (ln_sum / values.len() as f64).exp()
}

/// All 81 benchmark-input combinations in row-major (workload-major) order.
pub fn all_combos() -> Vec<(Workload, Dataset)> {
    Workload::all()
        .into_iter()
        .flat_map(|w| Dataset::all().into_iter().map(move |d| (w, d)))
        .collect()
}

/// A fixed-width text table builder for figure/table output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (c, h) in self.header.iter().enumerate() {
            widths[c] = widths[c].max(h.len());
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{:>w$}", cell, w = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        if !self.header.is_empty() {
            out.push_str(&fmt_row(&self.header, &widths));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimals (table cells).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let g = geomean(&[1.0, 100.0]);
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn stable_digest_runs_reruns_the_last_thread_count() {
        let mut seen = Vec::new();
        let runs = stable_digest_runs(
            "probe",
            &[1, 4],
            |t| {
                seen.push(t);
                t
            },
            |_| 7,
        );
        assert_eq!(runs, vec![1, 4, 4]);
        assert_eq!(seen, vec![1, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "digest diverged at 4 threads (probe)")]
    fn stable_digest_runs_rejects_a_diverging_digest() {
        stable_digest_runs("probe", &[1, 4], |t| t, |&t| t as u64);
    }

    #[test]
    #[should_panic(expected = "digest diverged on rerun (probe)")]
    fn stable_digest_runs_rejects_a_diverging_rerun() {
        let mut calls = 0u64;
        stable_digest_runs(
            "probe",
            &[1, 4],
            |_| {
                calls += 1;
                calls
            },
            |&c| u64::from(c == 3),
        );
    }

    #[test]
    fn all_combos_is_81() {
        assert_eq!(all_combos().len(), 81);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1.00"]);
        t.row(["longer", "2.50"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(31.04), "31.0%");
    }

    #[test]
    fn obs_flags_are_stripped_and_applied() {
        let rest = apply_obs_flags(["--quiet", "--trace=off", "--quick"].map(String::from));
        assert_eq!(rest, vec!["--quick".to_string()]);
        assert!(heteromap_obs::quiet());
        heteromap_obs::set_quiet(false);
    }
}
