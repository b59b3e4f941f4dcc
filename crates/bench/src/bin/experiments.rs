//! Command-line harness that regenerates the paper's tables and figures and
//! the sweeps beside them.
//!
//! ```text
//! cargo run -p bench --bin experiments --release -- <experiment|all> [scale]
//!
//!   experiment  a name in `bench::experiments::EXPERIMENTS` (a usage error
//!               lists them), or `all`
//!   scale       small | medium (default) | large
//! ```
//!
//! Output is CSV on stdout (`experiment,series,x,metric,value`); progress and
//! diagnostics go to stderr. A usage error exits with status 2.

use bench::experiments::{Experiment, EXPERIMENTS};
use bench::harness::{Row, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selected, scale) = parse_args(&args).unwrap_or_else(|msg| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
        eprintln!("error: {msg}");
        eprintln!("usage: experiments <experiment|all> [small|medium|large]");
        eprintln!("experiments: {}", names.join(", "));
        std::process::exit(2);
    });

    println!("{}", Row::csv_header());
    for &(name, run) in selected {
        eprintln!("# running {name} at {scale:?} scale");
        let start = std::time::Instant::now();
        let rows = run(scale);
        for r in &rows {
            println!("{}", r.to_csv());
        }
        eprintln!(
            "# {name}: {} rows in {:.1}s",
            rows.len(),
            start.elapsed().as_secs_f64()
        );
    }
}

/// The experiments `args[0]` names (one, or every one for `all`) and the
/// scale `args[1]` names.
fn parse_args(args: &[String]) -> Result<(&'static [Experiment], Scale), String> {
    let name = args.first().ok_or("missing experiment name")?;
    let selected = if name == "all" {
        EXPERIMENTS
    } else {
        let i = EXPERIMENTS
            .iter()
            .position(|&(n, _)| name == n)
            .ok_or_else(|| format!("unknown experiment `{name}`"))?;
        &EXPERIMENTS[i..=i]
    };
    let scale = match args.get(1) {
        None => Scale::Medium,
        Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale `{s}`"))?,
    };
    Ok((selected, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn experiment_dispatch_knows_all_names() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
        for &name in &names {
            let (selected, scale) = parse_args(&args(&[name, "small"])).expect("a listed name");
            assert_eq!(selected.len(), 1);
            assert_eq!(selected[0].0, name);
            assert_eq!(scale, Scale::Small);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "names must be unique");

        let (all, scale) = parse_args(&args(&["all"])).expect("`all` parses");
        assert_eq!(all.len(), EXPERIMENTS.len());
        assert_eq!(scale, Scale::Medium);
        assert!(parse_args(&args(&["nonsense"])).is_err());
        assert!(parse_args(&args(&["table1", "huge"])).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
