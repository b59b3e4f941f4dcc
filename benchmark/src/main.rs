//! `stwig-benchmark`: see `README.md`. Driven by `run.sh`.

use stwig_benchmark::alloc::CountingAlloc;
use stwig_benchmark::report::{manifest, END_TO_END, PER_LAYER};
use stwig_benchmark::workload::spec_by_name;
use stwig_benchmark::{e2e, layers, repeat};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: stwig-benchmark --workload <name> --seed <n> --seconds <1..60> --trace <0|1>\n       \
         stwig-benchmark manifest\n       \
         stwig-benchmark repeat <n>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest());
            return;
        }
        Some("repeat") => {
            let Some(n) = args.get(1).and_then(|n| n.parse::<usize>().ok()) else {
                usage()
            };
            std::process::exit(repeat::run(n.max(2)));
        }
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = spec_by_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=60).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let printed = if trace {
        layers::run(spec, seed, seconds).and_then(|outcome| outcome.print(PER_LAYER))
    } else {
        e2e::run(spec, seed, seconds).and_then(|outcome| outcome.print(END_TO_END))
    };
    if let Err(error) = printed {
        eprintln!("benchmark failed: {error}");
        std::process::exit(1);
    }
}
