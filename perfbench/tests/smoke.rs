//! Smoke-sized runs of every workload, untraced and traced: the closing
//! JSON line must carry exactly the metrics `BENCHMARK.json` lists for that
//! mode, each with its unit, and every output check must pass. Also pins
//! the refusal to run off the default code path.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use fewner_util::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .field(key)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let s = |f: &str| m.field(f).unwrap().as_str().unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env_remove("FEWNER_KERNELS")
        .env_remove("FEWNER_THREADS")
        .env_remove("FEWNER_FAULTS")
        .output()
        .expect("benchmark runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn smoke(workload: &str) {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let (code, stdout) = run(workload, trace);
        let last = stdout.lines().last().unwrap_or_default();
        assert_eq!(code, 0, "{workload} trace={trace} failed:\n{stdout}");
        let result = Json::parse(last).expect("last line is JSON");
        assert_eq!(
            result.field("correct").unwrap(),
            &Json::Bool(true),
            "{stdout}"
        );
        assert_eq!(result.field("failed").unwrap().as_u64().unwrap(), 0);
        assert!(result.field("attempted").unwrap().as_u64().unwrap() >= 1);
        let Json::Obj(metrics) = result.field("metrics").unwrap() else {
            panic!("metrics must be an object");
        };
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(m.field("value").unwrap().as_f64().unwrap().is_finite());
                (
                    name.clone(),
                    m.field("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(got, listed(key), "{workload} trace={trace}");
        for (name, unit) in &got {
            assert!(stdout.contains(name.as_str()) && stdout.contains(unit.as_str()));
        }
    }
}

#[test]
fn serve_warm_reports_every_metric_and_passes_its_checks() {
    smoke("serve_warm");
}

#[test]
fn serve_churn_reports_every_metric_and_passes_its_checks() {
    smoke("serve_churn");
}

#[test]
fn train_reports_every_metric_and_passes_its_checks() {
    smoke("train");
}

#[test]
fn refuses_to_run_off_the_default_path() {
    for var in ["FEWNER_KERNELS", "FEWNER_THREADS", "FEWNER_FAULTS"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                "train",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .env(var, "1")
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{var} must be refused");
        assert!(out.stdout.is_empty(), "a refused run prints no result");
    }
}
