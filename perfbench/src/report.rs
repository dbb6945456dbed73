//! Collecting results and printing the closing JSON line.

use std::collections::BTreeMap;

use crate::layers::PER_LAYER;
use crate::Args;

/// The end-to-end metrics every untraced run reports, with their units.
/// Each workload fills them from its own operation; `BENCHMARK.json` says
/// which:
///
/// | metric | serve_warm | serve_churn | train |
/// |---|---|---|---|
/// | `op_ms_p50` | predict, closed loop | cold predict or extend of a 1-shot tenant, closed loop | training job |
/// | `throughput_per_s` | predicted tokens/s, closed loop | completed 1-shot tenant lifecycles/s, closed loop | tasks/s |
/// | `slo_met_ratio` | attempted requests of both phases answered correctly within their limit | same | jobs within their limit |
///
/// Open-loop latencies (from due time) and tail latencies are printed with
/// their sample counts but not gated: on a shared two-core machine they
/// move with neighbouring load far more than with the code.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("slo_met_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, or training jobs).
    pub attempted: u64,
    /// Operations that failed, were shed or missed their deadline, plus
    /// failed output checks.
    pub failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Records metric `name` (overwriting an earlier value).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a failed output check; it counts in `failed` and makes the
    /// run exit non-zero.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        println!("  CHECK FAILED: {msg}");
        self.problems.push(msg);
        self.failed += 1;
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metric names this run must report, with units.
    fn required(args: &Args) -> Vec<(&'static str, &'static str)> {
        if args.trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// Adds the peak RSS, checks that every required metric is present and
    /// finite, and prints the metric table.
    pub fn finish(&mut self, args: &Args) {
        self.set("peak_rss_mb", peak_rss_mb(), "MiB");
        for (name, unit) in Self::required(args) {
            match self.metrics.get(name) {
                Some((v, u)) if v.is_finite() && *u == unit => {}
                Some((v, u)) => {
                    self.problem(format!("metric {name} = {v} {u} (want finite, {unit})"))
                }
                None => self.problem(format!("metric {name} was not measured")),
            }
        }
        let error_rate = crate::stats::ratio(self.failed as f64, self.attempted as f64);
        println!("summary");
        println!("  attempted         {}", self.attempted);
        println!("  failed            {}", self.failed);
        println!("  error_rate        {error_rate:.6} ratio");
        println!(
            "  output checks     {}",
            if self.correct() { "pass" } else { "FAIL" }
        );
        println!(
            "metrics ({})",
            if args.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        for (name, unit) in Self::required(args) {
            let v = self.metrics.get(name).map_or(0.0, |m| m.0);
            match PER_LAYER.iter().find(|m| m.name == name && args.trace) {
                Some(m) => println!(
                    "  {name:<34} {v:>14.4} {unit:<9} {:<6} is better; moves {}",
                    m.better, m.moves
                ),
                None => println!("  {name:<34} {v:>14.4} {unit}"),
            }
        }
    }

    /// The closing JSON line: exactly the metrics this run reports.
    pub fn json(&self, args: &Args) -> String {
        let metrics: Vec<String> = Self::required(args)
            .into_iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).map_or(0.0, |m| m.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
