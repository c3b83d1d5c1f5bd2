//! The `serve` workload: a `ForecastService` fed by one open-loop generator
//! thread at a fixed rate with a round-robin stream of `observe(1 row)`,
//! `predict(HORIZON)` and `predict_interval(HORIZON, LEVELS)` per series.

use std::time::{Duration, Instant};

use autoai_datasets::univariate_catalog;
use autoai_ts::{
    AutoAITSConfig, ForecastService, IntervalForecast, PipelineError, ServiceRequest,
    ServiceResponse, TimeSeriesFrame,
};

use crate::checks::{interval_ok, point_ok, HORIZON, LEVELS};
use crate::fit::{Case, FitLayers};
use crate::stats::{capped, mean, median, scaled_pinball, tail_percentile, Tally};
use crate::trace::Trace;
use crate::{sub_seed, warm_pool, Metrics, SLO_MS};

/// Served catalog entries, each generated `COPIES` times from distinct
/// sub-seeds. ozone drifts and triggers warm re-selections; Births and
/// hyndsight hardly ever do.
const ENTRIES: [&str; 3] = ["ozone", "Births", "hyndsight"];
const COPIES: u64 = 16;
/// Observes per series: the first rows after its head.
const TAIL: usize = 35;
/// Rows of each series ingested and fitted before the stream starts; the
/// next `TAIL` rows arrive through `observe`.
const HEAD: usize = 64;
/// Requests per second the generator sends.
const RATE_PER_S: f64 = 150.0;
/// Set-ups per run; `setup_s` and `fit_s` are their medians.
const SETUP_REPEATS: u64 = 5;
/// The generator sleeps until this long before a request is due, then spins.
const SPIN: Duration = Duration::from_micros(300);

struct Series {
    name: String,
    full: TimeSeriesFrame,
    head: usize,
}

/// The series of set-up `round`: every round draws its own sub-seeds.
fn series(seed: u64, round: u64) -> Vec<Series> {
    let catalog = univariate_catalog();
    let mut out = Vec::new();
    for k in round * COPIES..(round + 1) * COPIES {
        for entry in ENTRIES {
            let full = catalog
                .iter()
                .find(|e| e.name == entry)
                .expect("served series are catalog entries")
                .generate(sub_seed(seed, k));
            out.push(Series {
                name: format!("{entry}#{k}"),
                full,
                head: HEAD,
            });
        }
    }
    out
}

/// Generate the series, ingest every head and fit them all in one batched
/// `submit`. Returns the service, the series and the batch's wall time.
fn setup_once(seed: u64, round: u64, tally: &mut Tally) -> (ForecastService, Vec<Series>, f64) {
    warm_pool();
    let all = series(seed, round);
    let service = ForecastService::new(AutoAITSConfig::default());
    for s in &all {
        tally.record(service.ingest(&s.name, s.full.slice(0, s.head)).is_ok());
    }
    let batch: Vec<ServiceRequest> = all
        .iter()
        .map(|s| ServiceRequest::Fit {
            series: s.name.clone(),
        })
        .collect();
    let t = Instant::now();
    let replies = service.submit(&batch);
    let fit_s = t.elapsed().as_secs_f64();
    // replies are index-aligned with the batch
    for (s, reply) in all.iter().zip(&replies) {
        tally.record(matches!(reply, Ok(ServiceResponse::Fit(r)) if r.series == s.name));
    }
    tally.record(replies.len() == batch.len());
    (service, all, fit_s)
}

/// `SETUP_REPEATS` set-ups, each on its own series; the last one's service
/// is kept for the stream.
fn setup(seed: u64, tally: &mut Tally) -> (f64, f64, ForecastService, Vec<Series>) {
    let (mut setup_s, mut fit_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    for round in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (service, all, fit) = setup_once(seed, round, tally);
        setup_s.push(t.elapsed().as_secs_f64());
        fit_s.push(fit);
        kept = Some((service, all));
    }
    let (service, all) = kept.expect("at least one set-up");
    (
        median(&setup_s).unwrap_or(0.0),
        median(&fit_s).unwrap_or(0.0),
        service,
        all,
    )
}

enum Reply {
    Observe(bool),
    Point(Result<TimeSeriesFrame, PipelineError>),
    Band(Result<IntervalForecast, PipelineError>),
}

#[derive(Clone, Copy)]
enum Op {
    Observe(usize),
    Predict,
    Interval,
}

/// What the stream measured.
#[derive(Default)]
struct Stream {
    observe_ms: Vec<f64>,
    read_ms: Vec<f64>,
    observe_call_us: Vec<f64>,
    read_call_us: Vec<f64>,
    late_ms: Vec<f64>,
    reselect_ms: Vec<f64>,
    smape: Vec<f64>,
    pinball: Vec<f64>,
}

/// Sleep, then spin, until `due`.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The rows at `origin..origin + HORIZON`, when they all exist.
fn future(s: &Series, origin: usize) -> Option<&[f64]> {
    s.full.series(0).get(origin..origin + HORIZON)
}

fn stream(service: &ForecastService, all: &[Series], seconds: f64, tally: &mut Tally) -> Stream {
    let mut ops = Vec::new();
    for i in 0..TAIL {
        for (k, s) in all.iter().enumerate() {
            if s.head + i < s.full.len() {
                ops.extend([(k, Op::Observe(i)), (k, Op::Predict), (k, Op::Interval)]);
            }
        }
    }
    ops.truncate((RATE_PER_S * seconds) as usize);
    // the row count each series' serving model was fitted on: its head,
    // until a re-selection refits on everything stored at that point
    let mut origin: Vec<usize> = all.iter().map(|s| s.head).collect();
    let mut reselections = service.stats().reselections;
    let mut out = Stream::default();
    let started = Instant::now();
    for (n, &(k, op)) in ops.iter().enumerate() {
        let s = &all[k];
        let due = started + Duration::from_secs_f64(n as f64 / RATE_PER_S);
        if Instant::now() < due {
            wait_until(due);
            out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
        let call = Instant::now();
        let reply = match op {
            Op::Observe(i) => {
                Reply::Observe(service.observe(&s.name, &[s.full.row(s.head + i)]).is_ok())
            }
            Op::Predict => Reply::Point(service.predict(&s.name, HORIZON)),
            Op::Interval => Reply::Band(service.predict_interval(&s.name, HORIZON, &LEVELS)),
        };
        let end = Instant::now();
        // checks and scoring stay outside the timed call
        let actual = future(s, origin[k]);
        let ok = match reply {
            Reply::Observe(ok) => ok,
            Reply::Point(Ok(p)) if point_ok(&p, 1) => {
                if let Some(actual) = actual {
                    out.smape.push(autoai_tsdata::smape(actual, p.series(0)));
                }
                true
            }
            Reply::Band(Ok(iv)) if interval_ok(&iv, 1) => {
                if let (Some(actual), Some((lo, hi))) = (actual, iv.band_at_level(LEVELS[0])) {
                    out.pinball
                        .extend(scaled_pinball(actual, lo.series(0), hi.series(0)));
                }
                true
            }
            Reply::Point(_) | Reply::Band(_) => false,
        };
        let call_us = (end - call).as_secs_f64() * 1e6;
        // from the due time, so queueing behind a stall counts; a failed
        // request misses every limit
        let latency_ms = if tally.record(ok) {
            (end - due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        };
        match op {
            Op::Observe(i) => {
                out.observe_ms.push(latency_ms);
                out.observe_call_us.push(call_us);
                let now = service.stats().reselections;
                if now > reselections {
                    reselections = now;
                    origin[k] = s.head + i + 1;
                    out.reselect_ms.push(call_us / 1e3);
                }
            }
            Op::Predict | Op::Interval => {
                out.read_ms.push(latency_ms);
                out.read_call_us.push(call_us);
            }
        }
    }
    out
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, e2e: &mut Metrics, tally: &mut Tally) {
    let (setup_s, fit_s, service, all) = setup(seed, tally);
    let out = stream(&service, &all, seconds, tally);
    let requests = out.observe_ms.len() + out.read_ms.len();
    let within = out
        .observe_ms
        .iter()
        .chain(&out.read_ms)
        .filter(|ms| **ms <= SLO_MS)
        .count();
    e2e.set("setup_s", setup_s);
    e2e.set("fit_s", fit_s);
    e2e.set("forecast_smape", mean(&out.smape).unwrap_or(0.0));
    e2e.set("interval_pinball", mean(&out.pinball).unwrap_or(0.0));
    e2e.set("slo_ok_frac", within as f64 / requests.max(1) as f64);
}

/// The traced run: the same set-up and stream, plus direct traced fits of
/// every head (the fits the set-up batch runs inside the service), which
/// give the T-Daub stage split and the direct-call read times.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    layers: &mut Metrics,
    trace: &mut Trace,
    tally: &mut Tally,
) -> Result<(), String> {
    let (_, fit_s, service, all) = setup(seed, tally);
    let heads: Vec<Case> = all
        .iter()
        .map(|s| Case {
            name: s.name.clone(),
            train: s.full.slice(0, s.head),
            actual: s.full.slice(s.head, s.head + HORIZON),
        })
        .collect();
    let mut fit = FitLayers::default();
    let untraced = fit.traced_pass(&heads, trace, tally);
    fit.report(trace, untraced, layers);

    let start = Instant::now();
    let out = stream(&service, &all, seconds, tally);
    trace.span(None, "core::service.stream", start, Instant::now());
    let stats = service.stats();
    let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
    layers.set("service.fit_batch_s", fit_s);
    layers.set("service.read_call_us", p50(&out.read_call_us));
    layers.set("service.observe_call_us", p50(&out.observe_call_us));
    layers.set("service.completed", stats.completed as f64);
    layers.set("service.rejected", stats.rejected as f64);
    layers.set("service.evictions", stats.evictions as f64);
    layers.set("online.reselections", out.reselect_ms.len() as f64);
    layers.set("pipelines.capped_bands", capped(&out.pinball));
    layers.set("online.reselect_p50_ms", p50(&out.reselect_ms));
    layers.set(
        "online.reselect_max_ms",
        out.reselect_ms.iter().copied().fold(0.0, f64::max),
    );
    layers.set("serve.generator_late_p50_ms", p50(&out.late_ms));
    layers.set(
        "serve.generator_late_max_ms",
        out.late_ms.iter().copied().fold(0.0, f64::max),
    );
    layers.set("read_p50_ms", p50(&out.read_ms));
    layers.set("observe_p50_ms", p50(&out.observe_ms));
    layers.set("observe_p99_ms", tail_percentile(&out.observe_ms, 0.99)?);
    layers.set("read_p99_ms", tail_percentile(&out.read_ms, 0.99)?);
    // the service's cross-run transform cache, over set-up and stream
    let cache = stats.cache;
    layers.set("transforms.cache_hit_rate", cache.hit_rate());
    layers.set("transforms.bytes_built", cache.bytes_built as f64);
    Ok(())
}
