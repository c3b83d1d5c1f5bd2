//! End-to-end and per-layer benchmark of AutoAI-TS.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit-uni|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics and writes the
//! run's spans to `.bench_trace/<workload>-seed<N>.json`. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any failed call or failed output check makes `correct` false and the
//! exit code 1. See `README.md` for the workloads and what each metric
//! should move.

mod checks;
mod fit;
mod rss;
mod serve;
mod stats;
mod trace;

use stats::Tally;
use trace::{json_str, Trace};

/// A request finishing later than this after its due time misses the SLO.
pub const SLO_MS: f64 = 50.0;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("forecast_smape", "%"),
    ("interval_pinball", "ratio"),
    ("slo_ok_frac", "ratio"),
];

/// Per-layer metrics, reported by every workload from the traced run; a
/// layer that does no work on a workload reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("tdaub.wall_ms", "ms"),
    ("tdaub.busy_over_wall", "ratio"),
    ("tdaub.allocations", "count"),
    ("tdaub.incremental_fits", "count"),
    ("tdaub.fits_avoided", "count"),
    ("tdaub.duplicate_fits", "count"),
    ("tdaub.retries", "count"),
    ("tdaub.excluded", "count"),
    ("pipelines.ensembler_busy_ms", "ms"),
    ("pipelines.stat_busy_ms", "ms"),
    ("pipelines.window_busy_ms", "ms"),
    ("pipelines.predict_us", "us"),
    ("pipelines.predict_interval_us", "us"),
    ("pipelines.capped_bands", "count"),
    ("orchestrator.finalize_ms", "ms"),
    ("orchestrator.degraded_fits", "count"),
    ("lookback.discover_ms", "ms"),
    ("transforms.cache_hit_rate", "ratio"),
    ("transforms.bytes_built", "bytes"),
    ("service.fit_batch_s", "s"),
    ("service.read_call_us", "us"),
    ("service.observe_call_us", "us"),
    ("service.completed", "count"),
    ("service.rejected", "count"),
    ("service.evictions", "count"),
    ("online.reselections", "count"),
    ("online.reselect_p50_ms", "ms"),
    ("online.reselect_max_ms", "ms"),
    ("serve.generator_late_p50_ms", "ms"),
    ("serve.generator_late_max_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("read_p50_ms", "ms"),
    ("observe_p50_ms", "ms"),
    ("observe_p99_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("error_rate", "ratio"),
    ("trace.overhead", "ratio"),
];

/// A fixed, ordered set of named metrics, all starting at 0.
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    fn new(spec: &[(&'static str, &'static str)]) -> Self {
        Self {
            values: spec.iter().map(|&(name, unit)| (name, unit, 0.0)).collect(),
        }
    }

    /// Set a metric of this set; naming another is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in this set"));
        slot.2 = value;
    }

    fn all_finite(&self) -> bool {
        self.values.iter().all(|(_, _, v)| v.is_finite())
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|(name, unit, v)| {
                let value = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".into()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Derive the seed of part `k` of a run (a pass, a served series) from the
/// run seed (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Start the process-wide worker pool (a no-op once it runs).
pub fn warm_pool() {
    let _ = autoai_linalg::par::parallel_try_map_range(2, std::hint::black_box);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let serve = match args.workload.as_str() {
        "fit-uni" => false,
        "serve" => true,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if !args.trace {
        let mut e2e = Metrics::new(&END_TO_END);
        if serve {
            serve::run(args.seed, args.seconds, &mut e2e, tally);
        } else {
            fit::run(args.seed, args.seconds, &mut e2e, tally);
        }
        return Ok(e2e);
    }
    let mut layers = Metrics::new(&PER_LAYER);
    let mut trace = Trace::new();
    if serve {
        serve::run_traced(args.seed, args.seconds, &mut layers, &mut trace, tally)?;
    } else {
        fit::run_traced(args.seed, &mut layers, &mut trace, tally)?;
    }
    layers.set("error_rate", tally.error_rate());
    layers.set(
        "peak_rss_mb",
        rss::peak_rss_mb().ok_or("no /proc/self/status")?,
    );
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let header = format!(
        "\"workload\":{},\"seed\":{},\"metrics\":{}",
        json_str(&args.workload),
        args.seed,
        layers.to_json()
    );
    std::fs::write(&path, trace.to_json(&header))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(layers)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = match run(&args, &mut tally) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let correct = tally.failed == 0 && tally.attempted > 0 && metrics.all_finite();
    for (name, unit, value) in &metrics.values {
        println!("{name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_per_part_and_repeat_per_seed() {
        assert_eq!(sub_seed(7, 0), sub_seed(7, 0));
        assert_ne!(sub_seed(7, 0), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 0), sub_seed(8, 0));
    }

    #[test]
    fn metrics_render_every_name_with_its_unit() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("fit_s", 1.25);
        let json = m.to_json();
        assert!(json.contains("\"fit_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len());
        m.set("slo_ok_frac", f64::INFINITY);
        assert!(!m.all_finite());
        assert!(m.to_json().contains("\"value\": null"));
    }
}
