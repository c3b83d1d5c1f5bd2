//! The `fit-uni` workload: zero-conf `AutoAITS::fit` on univariate catalog
//! datasets, each fitted on its first 80% and scored on the next `HORIZON`
//! rows it never saw.

use std::sync::Arc;
use std::time::{Duration, Instant};

use autoai_datasets::univariate_catalog;
use autoai_ts::{AutoAITS, DegradationLevel, FitSummary, TimeSeriesFrame};

use crate::checks::{interval_ok, point_ok, HORIZON, LEVELS};
use crate::stats::{capped, mean, median, scaled_pinball, tail_percentile, Tally};
use crate::trace::{json_str, StageClock, Trace};
use crate::{sub_seed, warm_pool, Metrics, SLO_MS};

/// The noisy univariate shapes of the paper's Table 4 (see README.md for
/// why goog and the multivariate entries are left out).
const DATASETS: [&str; 4] = ["ozone", "elecdaily", "Births", "usmelec"];
/// Share of each dataset the fit sees.
const TRAIN_FRACTION: f64 = 0.8;
/// Every run fits at least this many passes, so `fit_s` is a median.
const MIN_PASSES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Passes whose datasets the set-up generates ahead; a run that gets
/// further generates the rest as it goes.
const PREPARED_PASSES: u64 = 32;
/// Timed reads (alternating point and interval) per fitted system in the
/// untraced run.
const READS_PER_FIT: usize = 200;
/// Passes the traced run fits, untraced and traced.
const TRACED_PASSES: u64 = 4;
/// Direct calls of each kind per fitted system in the traced run.
const DIRECT_CALLS: usize = 500;

/// One dataset: the rows the fit sees and the rows it is scored on.
pub struct Case {
    pub name: String,
    pub train: TimeSeriesFrame,
    pub actual: TimeSeriesFrame,
}

impl Case {
    /// Split `full` into its first 80% and the `HORIZON` rows after them.
    fn split(name: String, full: &TimeSeriesFrame) -> Self {
        let n = ((full.len() as f64 * TRAIN_FRACTION).round() as usize).min(full.len() - HORIZON);
        Self {
            name,
            train: full.slice(0, n),
            actual: full.slice(n, n + HORIZON),
        }
    }
}

/// The datasets of pass `pass`, generated from a seed derived from the run
/// seed and the pass number.
fn cases(seed: u64, pass: u64) -> Vec<Case> {
    let catalog = univariate_catalog();
    let seed = sub_seed(seed, pass);
    DATASETS
        .iter()
        .map(|name| {
            let entry = catalog
                .iter()
                .find(|e| e.name == *name)
                .expect("benchmark datasets are catalog entries");
            Case::split(name.to_string(), &entry.generate(seed))
        })
        .collect()
}

/// Fit `case` with the default zero-conf configuration; `None` (counted as
/// a failure) when `fit` errors.
fn fit_case(
    case: &Case,
    clock: Option<Arc<StageClock>>,
    tally: &mut Tally,
) -> Option<(AutoAITS, Duration)> {
    let mut system = match clock {
        Some(clock) => AutoAITS::new().with_progress(clock),
        None => AutoAITS::new(),
    };
    let started = Instant::now();
    let ok = system.fit(&case.train).is_ok();
    let took = started.elapsed();
    tally.record(ok).then_some((system, took))
}

/// SMAPE of the point forecast and scaled pinball of the 80% band against
/// the unseen rows; both checked first. `None` on a failed check.
fn score_case(system: &AutoAITS, case: &Case, tally: &mut Tally) -> Option<(f64, f64)> {
    let k = case.actual.n_series();
    let point = system.predict(HORIZON).ok().filter(|p| point_ok(p, k));
    let interval = system
        .predict_interval(HORIZON, &LEVELS)
        .ok()
        .filter(|iv| interval_ok(iv, k));
    tally.record(point.is_some());
    tally.record(interval.is_some());
    let (point, interval) = (point?, interval?);
    let (lower, upper) = interval.band_at_level(LEVELS[0])?;
    let mut smape = Vec::with_capacity(k);
    let mut pinball = Vec::with_capacity(k);
    for c in 0..k {
        let actual = case.actual.series(c);
        smape.push(autoai_tsdata::smape(actual, point.series(c)));
        pinball.push(scaled_pinball(actual, lower.series(c), upper.series(c))?);
    }
    Some((mean(&smape)?, mean(&pinball)?))
}

/// `calls` timed point reads and `calls` timed interval reads, alternating,
/// each output checked. Returns the call durations in µs; a failed call
/// reads as infinitely slow, so it misses every latency limit.
fn direct_reads(
    system: &AutoAITS,
    k: usize,
    calls: usize,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>) {
    let mut point_us = Vec::with_capacity(calls);
    let mut interval_us = Vec::with_capacity(calls);
    let timed = |ok: bool, t: Instant| {
        if ok {
            t.elapsed().as_secs_f64() * 1e6
        } else {
            f64::INFINITY
        }
    };
    for _ in 0..calls {
        let t = Instant::now();
        let ok = std::hint::black_box(system.predict(HORIZON)).is_ok_and(|p| point_ok(&p, k));
        point_us.push(timed(tally.record(ok), t));
        let t = Instant::now();
        let ok = std::hint::black_box(system.predict_interval(HORIZON, &LEVELS))
            .is_ok_and(|iv| interval_ok(&iv, k));
        interval_us.push(timed(tally.record(ok), t));
    }
    (point_us, interval_us)
}

/// Median of `SETUP_REPEATS` set-ups: worker-pool start-up (first only)
/// and generating the datasets of the first `PREPARED_PASSES` passes.
fn setup(seed: u64) -> (f64, Vec<Vec<Case>>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        warm_pool();
        prepared = std::hint::black_box((0..PREPARED_PASSES).map(|p| cases(seed, p)).collect());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times).unwrap_or(0.0), prepared)
}

/// The untraced run: passes over fresh datasets until `seconds` have
/// passed (at least `MIN_PASSES`).
pub fn run(seed: u64, seconds: f64, e2e: &mut Metrics, tally: &mut Tally) {
    let (setup_s, prepared) = setup(seed);
    let started = Instant::now();
    let mut pass_s = Vec::new();
    let (mut smape, mut pinball, mut read_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared = prepared.into_iter();
    loop {
        let pass = pass_s.len() as u64;
        let cases = prepared.next().unwrap_or_else(|| self::cases(seed, pass));
        let mut fit_total = 0.0;
        for case in &cases {
            let Some((system, took)) = fit_case(case, None, tally) else {
                continue;
            };
            fit_total += took.as_secs_f64();
            if let Some((s, p)) = score_case(&system, case, tally) {
                smape.push(s);
                pinball.push(p);
            }
            let (p, i) = direct_reads(&system, case.actual.n_series(), READS_PER_FIT / 2, tally);
            read_ms.extend(p.iter().chain(&i).map(|us| us / 1e3));
        }
        pass_s.push(fit_total);
        if pass_s.len() >= MIN_PASSES && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let within = read_ms.iter().filter(|ms| **ms <= SLO_MS).count();
    e2e.set("setup_s", setup_s);
    e2e.set("fit_s", median(&pass_s).unwrap_or(0.0));
    e2e.set("forecast_smape", mean(&smape).unwrap_or(0.0));
    e2e.set("interval_pinball", mean(&pinball).unwrap_or(0.0));
    e2e.set("slo_ok_frac", within as f64 / read_ms.len().max(1) as f64);
}

/// Per-layer numbers accumulated over traced fits.
#[derive(Default)]
pub struct FitLayers {
    degraded: u64,
    wall_s: f64,
    predict_us: Vec<f64>,
    interval_us: Vec<f64>,
    pinball: Vec<f64>,
    busy_ensembler: Duration,
    busy_stat: Duration,
    busy_window: Duration,
    busy_total: Duration,
    allocations: u64,
    incremental_fits: u64,
    fits_avoided: u64,
    duplicate_fits: u64,
    retries: u64,
    excluded: u64,
    cache_hits: u64,
    cache_misses: u64,
    bytes_built: u64,
}

/// Pipeline family of a pool member, by display name.
fn family(name: &str) -> Option<&'static str> {
    if name.contains("AutoEnsembler") {
        Some("ensembler")
    } else if name == "Arima" || name == "bats" || name.starts_with("HW-") {
        Some("stat")
    } else if name.starts_with("Window") || name.starts_with("MT2R") {
        Some("window")
    } else {
        None
    }
}

impl FitLayers {
    fn add_summary(&mut self, summary: &FitSummary) {
        let ex = &summary.execution;
        for p in &ex.pipelines {
            self.busy_total += p.wall_time;
            match family(&p.name) {
                Some("ensembler") => self.busy_ensembler += p.wall_time,
                Some("stat") => self.busy_stat += p.wall_time,
                Some("window") => self.busy_window += p.wall_time,
                _ => {}
            }
        }
        self.allocations += ex.total_allocations() as u64;
        self.incremental_fits += ex.incremental_fits;
        self.fits_avoided += ex.fits_avoided;
        self.duplicate_fits += ex.duplicate_fits;
        self.retries += ex.retries;
        self.excluded += ex.failures().count() as u64;
        self.cache_hits += ex.cache.hits;
        self.cache_misses += ex.cache.misses;
        self.bytes_built += ex.cache.bytes_built;
        if summary.degradation != DegradationLevel::None {
            self.degraded += 1;
        }
    }

    /// Fit every case twice, untraced then traced, so the ratio of the two
    /// is the tracing overhead; the traced fits feed the spans, counters
    /// and `DIRECT_CALLS` timed direct reads. Returns the untraced wall
    /// seconds.
    pub fn traced_pass(&mut self, cases: &[Case], trace: &mut Trace, tally: &mut Tally) -> f64 {
        let untraced: f64 = cases
            .iter()
            .filter_map(|case| fit_case(case, None, tally))
            .map(|(_, took)| took.as_secs_f64())
            .sum();
        for case in cases {
            let clock = Arc::new(StageClock::default());
            let start = Instant::now();
            let Some((system, took)) = fit_case(case, Some(clock.clone()), tally) else {
                continue;
            };
            let end = start + took;
            let root = trace.span(None, "core::orchestrator.fit", start, end);
            for (stage, from, to) in clock.stages(start) {
                trace.span(Some(root), stage, from, to);
            }
            self.wall_s += took.as_secs_f64();
            if let Some(summary) = system.summary() {
                self.add_summary(summary);
                trace.record(format!(
                    "{{\"span\":{root},\"dataset\":{},\"best\":{},\"lookback\":{},\"degradation\":{},\"fit_ms\":{}}}",
                    json_str(&case.name),
                    json_str(&summary.best_pipeline),
                    summary.lookback,
                    json_str(&format!("{:?}", summary.degradation)),
                    took.as_secs_f64() * 1e3
                ));
            }
            if let Some((_, pinball)) = score_case(&system, case, tally) {
                self.pinball.push(pinball);
            }
            let (p, i) = direct_reads(&system, case.actual.n_series(), DIRECT_CALLS, tally);
            self.predict_us.extend(p);
            self.interval_us.extend(i);
        }
        untraced
    }

    /// Write every per-layer metric the traced fits determine.
    pub fn report(&self, trace: &Trace, untraced_s: f64, layers: &mut Metrics) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let tdaub_ms = trace.total_ms("tdaub.run");
        layers.set("tdaub.wall_ms", tdaub_ms);
        layers.set(
            "tdaub.busy_over_wall",
            ms(self.busy_total) / tdaub_ms.max(f64::MIN_POSITIVE),
        );
        layers.set("tdaub.allocations", self.allocations as f64);
        layers.set("tdaub.incremental_fits", self.incremental_fits as f64);
        layers.set("tdaub.fits_avoided", self.fits_avoided as f64);
        layers.set("tdaub.duplicate_fits", self.duplicate_fits as f64);
        layers.set("tdaub.retries", self.retries as f64);
        layers.set("tdaub.excluded", self.excluded as f64);
        layers.set("pipelines.ensembler_busy_ms", ms(self.busy_ensembler));
        layers.set("pipelines.stat_busy_ms", ms(self.busy_stat));
        layers.set("pipelines.window_busy_ms", ms(self.busy_window));
        layers.set(
            "pipelines.predict_us",
            median(&self.predict_us).unwrap_or(0.0),
        );
        layers.set(
            "pipelines.predict_interval_us",
            median(&self.interval_us).unwrap_or(0.0),
        );
        layers.set("pipelines.capped_bands", capped(&self.pinball));
        layers.set(
            "orchestrator.finalize_ms",
            trace.total_ms("orchestrator.finalize"),
        );
        layers.set("orchestrator.degraded_fits", self.degraded as f64);
        layers.set("lookback.discover_ms", trace.total_ms("lookback.discover"));
        let lookups = self.cache_hits + self.cache_misses;
        layers.set(
            "transforms.cache_hit_rate",
            self.cache_hits as f64 / lookups.max(1) as f64,
        );
        layers.set("transforms.bytes_built", self.bytes_built as f64);
        layers.set(
            "trace.overhead",
            self.wall_s / untraced_s.max(f64::MIN_POSITIVE),
        );
    }
}

/// The traced run: the datasets of the first `TRACED_PASSES` passes, each
/// fitted untraced and then traced.
pub fn run_traced(
    seed: u64,
    layers: &mut Metrics,
    trace: &mut Trace,
    tally: &mut Tally,
) -> Result<(), String> {
    let cases: Vec<Case> = (0..TRACED_PASSES)
        .flat_map(|p| self::cases(seed, p))
        .collect();
    warm_pool();
    let mut fit = FitLayers::default();
    let untraced = fit.traced_pass(&cases, trace, tally);
    fit.report(trace, untraced, layers);
    let reads: Vec<f64> = fit
        .predict_us
        .iter()
        .chain(&fit.interval_us)
        .map(|us| us / 1e3)
        .collect();
    layers.set("read_p50_ms", median(&reads).unwrap_or(0.0));
    layers.set("read_p99_ms", tail_percentile(&reads, 0.99)?);
    Ok(())
}
