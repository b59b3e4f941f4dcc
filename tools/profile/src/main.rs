//! `stwig-profile`: where a benchmark workload's CPU time goes.
//!
//! ```text
//! stwig-profile --workload <name> [--passes <n>]
//! ```
//!
//! Sets the workload up as `benchmark/run.sh` does — the same graph,
//! request sequence and engine, its two threads pinned to one processor, the
//! benchmark's allocator — untimed and unsampled, then replays `passes`
//! passes (60 unless given) of the sequence under `setitimer(ITIMER_PROF)`
//! ([`sampler`]), at the request seed of the benchmark's recorded runs
//! ([`SEED`]). Every pass must reproduce the reference digests, as the
//! benchmark's own do. The samples are symbolized ([`symbols`]) and three
//! tables printed, each the [`TOP`] largest shares of all samples:
//!
//! * **innermost** — the frame the instruction belongs to, inlined or not;
//! * **outermost** — the function it was compiled into (the last frame of
//!   the inline chain), or the shared object for code outside the
//!   executable;
//! * **inclusive** — every frame of the inline chain, once per sample.
//!
//! Only the inline chain of the interrupted instruction is known; no stack
//! is walked, so a caller that did not inline its callee gets no share of
//! the callee's samples. `scripts/profile.sh` builds and runs it.

mod sampler;
mod symbols;

use std::collections::HashMap;
use stwig_benchmark::alloc::CountingAlloc;
use stwig_benchmark::e2e::prepare;
use stwig_benchmark::host::pin_to_first_processor;
use stwig_benchmark::runner::{run_ops, set_up};
use stwig_benchmark::workload::{spec_by_name, GraphInput};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The timer interval asked for; the kernel rounds it up to its tick.
const INTERVAL_US: i64 = 1000;

/// The request seed, as the benchmark's recorded runs use.
const SEED: u64 = 1;

/// The rows each table prints.
const TOP: usize = 25;

fn usage() -> ! {
    eprintln!("usage: stwig-profile --workload <name> [--passes <n>]");
    std::process::exit(2);
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
}

/// CPU time of the whole process so far, s.
fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = [0i64; 2];
    // SAFETY: `time` is a writable `struct timespec` (two 64-bit fields).
    unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    time[0] as f64 + time[1] as f64 / 1e9
}

/// Prints the [`TOP`] largest counts of `table` as shares of `total`.
fn print_table(title: &str, table: HashMap<&str, usize>, total: usize) {
    let mut rows: Vec<(&str, usize)> = table.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("\n{title}");
    for (name, count) in rows.into_iter().take(TOP) {
        let share = 100.0 * count as f64 / total as f64;
        println!("{share:6.2} % {count:7}  {name}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut passes) = (None, 60usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(spec_by_name(value).unwrap_or_else(|| usage())),
            "--passes" => {
                passes = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    let Some(spec) = workload else { usage() };
    if let Err(error) = profile(spec, passes) {
        eprintln!("profile failed: {error}");
        std::process::exit(1);
    }
}

fn profile(spec: &'static stwig_benchmark::workload::Spec, passes: usize) -> Result<(), String> {
    pin_to_first_processor();
    let graph = GraphInput::generate(spec);
    let (inputs, expected) = prepare(spec, SEED, &graph)?;
    let (samples, dropped, cpu_s, failed) =
        set_up(spec, &graph, &inputs, &expected, |stage, warm| {
            let cpu0 = process_cpu_s();
            sampler::start(INTERVAL_US)?;
            let mut failed = warm.warm.failed;
            for _ in 0..passes {
                failed += stage
                    .pass(|engine, _| run_ops(engine, spec, &inputs, Some(&expected)))
                    .failed;
            }
            let (samples, dropped) = sampler::stop()?;
            Ok::<_, String>((samples, dropped, process_cpu_s() - cpu0, failed))
        })?;
    if failed > 0 {
        return Err(format!("{failed} requests failed or answered wrong"));
    }
    let frames = symbols::frames(&samples)?;
    let total = frames.len().max(1);
    println!(
        "profile {}: {} samples ({dropped} dropped) over {cpu_s:.2} s of CPU in {passes} passes, {:.0} Hz",
        spec.name,
        frames.len(),
        frames.len() as f64 / cpu_s.max(1e-9),
    );
    let (mut innermost, mut outermost, mut inclusive) =
        (HashMap::new(), HashMap::new(), HashMap::new());
    for chain in &frames {
        let (Some(inner), Some(outer)) = (chain.first(), chain.last()) else {
            continue;
        };
        *innermost.entry(inner.as_str()).or_insert(0) += 1;
        *outermost.entry(outer.as_str()).or_insert(0) += 1;
        let mut seen: Vec<&str> = Vec::with_capacity(chain.len());
        for frame in chain {
            if !seen.contains(&frame.as_str()) {
                seen.push(frame);
                *inclusive.entry(frame.as_str()).or_insert(0) += 1;
            }
        }
    }
    print_table("innermost frame", innermost, total);
    print_table("outermost frame", outermost, total);
    print_table(
        "inclusive (any frame of the inline chain)",
        inclusive,
        total,
    );
    Ok(())
}
