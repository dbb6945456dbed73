//! Records the `target-cpu` the benchmark is compiled for, so the run
//! record can state it (the repository's `.cargo/config.toml` sets it for
//! builds started from the repository root).

fn main() {
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let parts: Vec<&str> = flags.split('\x1f').collect();
    let mut cpu = None;
    for (i, part) in parts.iter().enumerate() {
        let arg = match part.strip_prefix("-C") {
            Some("") => parts.get(i + 1).copied().unwrap_or(""),
            Some(rest) => rest,
            None => continue,
        };
        if let Some(value) = arg.strip_prefix("target-cpu=") {
            cpu = Some(value.to_string());
        }
    }
    let cpu = cpu.unwrap_or_else(|| "default".to_string());
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={cpu}");
}
