//! The VEXUS benchmark: one command runs a named workload with a seed and
//! prints its metrics, then one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant, writes its spans under `perfbench/out/` and prints the
//! per-layer metrics. The exit code is non-zero when an output check
//! fails. See README.md for the workloads and the metric table.

mod client;
mod explore;
mod ingest;
mod layers;
mod live;
mod report;
mod script;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;

/// Where traces and durable engine directories go (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload explore|ingest|live --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "explore" => explore::run(args.seed, args.seconds, args.trace),
        "ingest" => ingest::run(args.seed, args.seconds, args.trace),
        "live" => live::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let set = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if !report.print(set, !args.trace) {
        std::process::exit(1);
    }
}
