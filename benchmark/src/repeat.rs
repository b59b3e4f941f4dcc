//! `run.sh repeat <n>`: is the benchmark steady on this host, today?
//!
//! Runs every workload `n` times back to back, each time with another seed
//! as the driver does, and prints per end-to-end metric the median, the
//! extremes, `(max − min) / median` and the spread the driver computes
//! (interquartile range over median) — and the same for the pooled
//! estimators the benchmark does not use, which is where the README's noise
//! table comes from. Exits non-zero when a spread exceeds the metric's bound
//! or a run fails.

use crate::report::{END_TO_END, RUN_SECONDS};
use crate::stats::{median_of, quartile_spread};
use crate::workload::WORKLOADS;
use std::process::{Command, Stdio};

/// Printed beside the metrics by every end-to-end run; no bound.
const POOLED: [&str; 3] = [
    "pooled_throughput_qps",
    "pooled_latency_p50_ms",
    "pooled_latency_p95_ms",
];

/// The value of the `name value unit` line of `stdout` that starts with `name`.
fn printed(stdout: &str, name: &str) -> Option<f64> {
    stdout.lines().find_map(|line| {
        let mut words = line.split(' ');
        (words.next() == Some(name))
            .then(|| words.next()?.parse::<f64>().ok())
            .flatten()
    })
}

/// One end-to-end run in a child process; the values of `names`.
fn child_run(workload: &str, seed: usize, names: &[&str]) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() || !stdout.contains("\"correct\": true") {
        return Err(format!("{workload} seed {seed} failed or was incorrect"));
    }
    names
        .iter()
        .map(|name| {
            printed(&stdout, name).ok_or(format!("{workload} seed {seed} printed no {name}"))
        })
        .collect()
}

/// Runs the repeat check; the process exit code.
pub fn run(n: usize) -> i32 {
    let names: Vec<&str> = END_TO_END
        .iter()
        .map(|def| def.name)
        .chain(POOLED)
        .collect();
    let mut steady = true;
    for workload in &WORKLOADS {
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(n); names.len()];
        for seed in 1..=n {
            match child_run(workload.name, seed, &names) {
                Ok(values) => {
                    for (column, value) in columns.iter_mut().zip(values) {
                        column.push(value);
                    }
                }
                Err(error) => {
                    eprintln!("{error}");
                    return 1;
                }
            }
        }
        println!("{} ({n} runs of {RUN_SECONDS} s)", workload.name);
        println!(
            "  {:<22} {:>12} {:>12} {:>12} {:>9} {:>8} {:>6}",
            "metric", "median", "min", "max", "range/med", "iqr/med", "bound"
        );
        for (i, (name, column)) in names.iter().zip(&columns).enumerate() {
            let median = median_of(column.clone());
            let min = column.iter().copied().fold(f64::INFINITY, f64::min);
            let max = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = quartile_spread(column);
            let bound = END_TO_END.get(i).map(|def| def.bound);
            // The driver holds every metric but the set-up time to its bound.
            let over = bound.is_some_and(|b| spread > b) && *name != "setup_s";
            steady &= !over;
            println!(
                "  {:<22} {:>12.4} {:>12.4} {:>12.4} {:>9.4} {:>8.4} {:>6}{}",
                name,
                median,
                min,
                max,
                (max - min) / median,
                spread,
                bound.map_or_else(|| "-".to_string(), |b| b.to_string()),
                if over { "  UNSTEADY" } else { "" }
            );
        }
    }
    i32::from(!steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_reads_name_value_unit_lines() {
        let stdout = "passes 31 count\nlatency_p50_ms 1.25 ms\n{\"latency_p50_ms\": 9}\n";
        assert_eq!(printed(stdout, "latency_p50_ms"), Some(1.25));
        assert_eq!(printed(stdout, "passes"), Some(31.0));
        assert_eq!(printed(stdout, "latency_p5"), None);
    }
}
