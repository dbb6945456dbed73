//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_warm|serve_churn|train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload whose inputs come from `--seed`, measures for
//! `--seconds`, checks that every served prediction and every trained θ is
//! correct, and prints a readable report followed by one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are the end-to-end ones (listed in
//! [`report::END_TO_END`]); with `--trace 1` the server's tracer records to
//! memory, benchmark-side spans replay the workload's inputs through each
//! layer, and the metrics are the per-layer ones ([`layers::PER_LAYER`]).
//! A failed output check exits with code 1; bad arguments or a refused
//! environment exit with code 2 and print no result.

mod check;
mod layers;
mod loadgen;
mod record;
mod report;
mod serve_churn;
mod serve_warm;
mod setup;
mod stats;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <serve_warm|serve_churn|train> --seed <u64> \
                     --seconds <u64> --trace <0|1>";

/// Environment variables that would move the benchmark off the default
/// code path (kernel backend, thread count, injected faults).
const REFUSED_ENV: [&str; 3] = ["FEWNER_KERNELS", "FEWNER_THREADS", "FEWNER_FAULTS"];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["serve_warm", "serve_churn", "train"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Connections for serving load and threads for training: the
    /// machine's available parallelism.
    pub nproc: usize,
    /// Scratch directory for checkpoints, snapshots and persisted φ, under
    /// `.bench_run/` in the working directory; removed when the run ends.
    pub dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        let seed = seed.ok_or("--seed is required")?;
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let dir =
            PathBuf::from(".bench_run").join(format!("{workload}-{seed}-{}", std::process::id()));
        Ok(Args {
            workload,
            seed,
            seconds: seconds as f64,
            trace: trace.ok_or("--trace is required")?,
            nproc,
            dir,
        })
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Drop `.bench_run/` itself once no concurrent run still uses it.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!(
                "perfbench: refusing to run with {var} set; the benchmark measures the default \
                 code path only"
            );
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.dir.display());
        return ExitCode::FAILURE;
    }
    let scratch = Scratch(args.dir.clone());

    record::print(&args);
    let result = match args.workload.as_str() {
        "serve_warm" => serve_warm::run(&args),
        "serve_churn" => serve_churn::run(&args),
        _ => train::run(&args),
    };
    drop(scratch);

    match result {
        Ok(mut report) => {
            report.finish(&args);
            println!("{}", report.json(&args));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
