//! The run record printed ahead of the results: what was measured, where,
//! and with which build.

use std::path::Path;

use fewner_tensor::KernelBackend;

use crate::Args;

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Prints the run record.
pub fn print(args: &Args) {
    let (workers, connections, threads) = match args.workload.as_str() {
        "train" => (0, 0, args.nproc),
        _ => (crate::setup::WORKERS, args.nproc, args.nproc),
    };
    println!("perfbench run record");
    println!("  workload          {}", args.workload);
    println!("  seed              {}", args.seed);
    println!("  seconds           {}", args.seconds);
    println!("  traced            {}", args.trace);
    println!("  commit            {}", commit());
    println!("  nproc             {}", args.nproc);
    println!("  target-cpu        {}", env!("PERFBENCH_TARGET_CPU"));
    println!("  kernel backend    {}", KernelBackend::from_env().name());
    println!("  server workers    {workers}");
    println!("  connections       {connections}");
    println!("  training threads  {threads}");
}
