//! Fault-isolation integration tests for the T-Daub execution engine.
//!
//! A pool is seeded with deterministic pipelines that panic, error, stall
//! past the time budget, or forecast NaN. T-Daub must rank the survivors,
//! record each failure with the correct [`FailureKind`] in the
//! [`ExecutionReport`], and produce identical rankings in serial and
//! parallel mode.

use std::time::Duration;

use autoai_pipelines::{pipeline_by_name, Forecaster, PipelineContext, PipelineError};
use autoai_tdaub::{run_tdaub, ExecutionReport, FailureKind, TDaubConfig, TDaubResult};
use autoai_tsdata::TimeSeriesFrame;

// ---- deterministic test pipelines -------------------------------------

/// Forecasts the training mean plus a fixed bias: deterministic, instant,
/// and rankable (smaller bias → better score on a stationary series).
struct MeanPlus {
    bias: f64,
    mean: Option<f64>,
}

impl MeanPlus {
    fn new(bias: f64) -> Self {
        Self { bias, mean: None }
    }
}

impl Forecaster for MeanPlus {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        let s = frame.series(0);
        self.mean = Some(s.iter().sum::<f64>() / s.len().max(1) as f64);
        Ok(())
    }
    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let m = self.mean.ok_or(PipelineError::NotFitted)?;
        Ok(TimeSeriesFrame::univariate(vec![m + self.bias; horizon]))
    }
    fn name(&self) -> String {
        format!("MeanPlus({})", self.bias)
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new(self.bias))
    }
}

/// Panics on every fit.
struct Panicker;

impl Forecaster for Panicker {
    fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
        panic!("isolation test: deliberate crash")
    }
    fn predict(&self, _: usize) -> Result<TimeSeriesFrame, PipelineError> {
        Err(PipelineError::NotFitted)
    }
    fn name(&self) -> String {
        "Panicker".into()
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Panicker)
    }
}

/// Returns a typed error on every fit.
struct Erroring;

impl Forecaster for Erroring {
    fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
        Err(PipelineError::Fit(
            "isolation test: deliberate error".into(),
        ))
    }
    fn predict(&self, _: usize) -> Result<TimeSeriesFrame, PipelineError> {
        Err(PipelineError::NotFitted)
    }
    fn name(&self) -> String {
        "Erroring".into()
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Erroring)
    }
}

/// Sleeps far past the configured budget on every fit, then behaves like
/// `MeanPlus(0)`. The margin (sleep ≫ budget) keeps classification
/// deterministic in both serial and parallel mode, debug or release.
struct Sluggish {
    delay: Duration,
    inner: MeanPlus,
}

impl Sluggish {
    fn new(delay: Duration) -> Self {
        Self {
            delay,
            inner: MeanPlus::new(0.0),
        }
    }
}

impl Forecaster for Sluggish {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        std::thread::sleep(self.delay);
        self.inner.fit(frame)
    }
    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        self.inner.predict(horizon)
    }
    fn name(&self) -> String {
        "Sluggish".into()
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new(self.delay))
    }
}

/// Sleeps for an hour on every fit — from the run's point of view it hangs
/// forever. Only the hard-deadline watchdog can stop it: it never checks a
/// cooperative budget, never returns, never panics.
struct SleepForever;

impl Forecaster for SleepForever {
    fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
        std::thread::sleep(Duration::from_secs(3600));
        Ok(())
    }
    fn predict(&self, _: usize) -> Result<TimeSeriesFrame, PipelineError> {
        Err(PipelineError::NotFitted)
    }
    fn name(&self) -> String {
        "SleepForever".into()
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(SleepForever)
    }
}

/// Fits fine, forecasts NaN forever.
struct NanForecaster;

impl Forecaster for NanForecaster {
    fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
        Ok(())
    }
    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        Ok(TimeSeriesFrame::univariate(vec![f64::NAN; horizon]))
    }
    fn name(&self) -> String {
        "NanForecaster".into()
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(NanForecaster)
    }
}

/// Works for the first `ok_fits` fits, then panics — exercises a crash
/// mid-run, after the pipeline has already accumulated scores.
struct LateCrasher {
    ok_fits: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    limit: usize,
    inner: MeanPlus,
}

impl LateCrasher {
    fn new(limit: usize) -> Self {
        Self {
            ok_fits: std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            limit,
            inner: MeanPlus::new(0.5),
        }
    }
}

impl Forecaster for LateCrasher {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        let n = self
            .ok_fits
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        if n >= self.limit {
            panic!("isolation test: late crash on fit {n}")
        }
        self.inner.fit(frame)
    }
    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        self.inner.predict(horizon)
    }
    fn name(&self) -> String {
        "LateCrasher".into()
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        // shares the fit counter: T-Daub refits clones on every allocation
        Box::new(Self {
            ok_fits: self.ok_fits.clone(),
            limit: self.limit,
            inner: MeanPlus::new(0.5),
        })
    }
}

// ---- helpers ----------------------------------------------------------

fn stationary_frame(n: usize) -> TimeSeriesFrame {
    // mean 50 with a deterministic ripple: MeanPlus(small bias) scores well
    TimeSeriesFrame::univariate(
        (0..n)
            .map(|i| 50.0 + (i as f64 * 0.7).sin() * 0.25)
            .collect(),
    )
}

/// The full menagerie: two healthy pipelines plus one of every failure
/// mode. 250 ms sleep vs a 100 ms budget leaves a wide margin on both
/// sides of the deadline.
fn menagerie() -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(MeanPlus::new(0.0)),
        Box::new(Panicker),
        Box::new(Erroring),
        Box::new(Sluggish::new(Duration::from_millis(250))),
        Box::new(NanForecaster),
        Box::new(MeanPlus::new(2.0)),
    ]
}

fn budgeted_cfg(parallel: bool) -> TDaubConfig {
    TDaubConfig {
        parallel,
        pipeline_time_budget: Some(Duration::from_millis(100)),
        ..Default::default()
    }
}

fn ranking(r: &TDaubResult) -> Vec<String> {
    r.reports.iter().map(|p| p.name.clone()).collect()
}

fn failure_of<'a>(report: &'a ExecutionReport, name: &str) -> &'a FailureKind {
    report
        .find(name)
        .unwrap_or_else(|| panic!("no execution entry for {name}"))
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("{name} was not marked failed"))
}

// ---- tests ------------------------------------------------------------

#[test]
fn survivors_are_ranked_and_failures_typed() {
    let frame = stationary_frame(600);
    let result = run_tdaub(menagerie(), &frame, &budgeted_cfg(false)).unwrap();

    // survivors: exactly the two healthy pipelines, best first
    assert_eq!(
        ranking(&result),
        vec!["MeanPlus(0)".to_string(), "MeanPlus(2)".to_string()]
    );
    assert_eq!(result.best.name(), "MeanPlus(0)");
    assert_eq!(result.execution.survivors(), 2);

    // each failure mode is recorded with the right kind
    match failure_of(&result.execution, "Panicker") {
        FailureKind::Crashed(m) => assert!(m.contains("deliberate crash"), "{m}"),
        other => panic!("Panicker: expected Crashed, got {other:?}"),
    }
    match failure_of(&result.execution, "Erroring") {
        FailureKind::Errored(m) => assert!(m.contains("deliberate error"), "{m}"),
        other => panic!("Erroring: expected Errored, got {other:?}"),
    }
    assert_eq!(
        failure_of(&result.execution, "Sluggish"),
        &FailureKind::TimedOut
    );
    assert_eq!(
        failure_of(&result.execution, "NanForecaster"),
        &FailureKind::NonFinite
    );
}

#[test]
fn execution_report_accounts_for_every_pipeline() {
    let frame = stationary_frame(600);
    let result = run_tdaub(menagerie(), &frame, &budgeted_cfg(false)).unwrap();

    assert_eq!(result.execution.pipelines.len(), 6);
    assert_eq!(result.execution.failures().count(), 4);
    for entry in &result.execution.pipelines {
        assert!(entry.allocations >= 1, "{} never ran", entry.name);
    }
    // a crashed pipeline is quarantined after its first unit of work
    let crashed = result.execution.find("Panicker").unwrap();
    assert_eq!(crashed.allocations, 1);
    // the slow pipeline was cut off after blowing the budget once
    let slow = result.execution.find("Sluggish").unwrap();
    assert_eq!(slow.allocations, 1);
    assert!(slow.wall_time >= Duration::from_millis(100));
    // wall time is tracked for survivors too
    let best = result.execution.find("MeanPlus(0)").unwrap();
    assert!(best.allocations > 1);
}

#[test]
fn serial_and_parallel_produce_identical_results() {
    let frame = stationary_frame(600);
    let serial = run_tdaub(menagerie(), &frame, &budgeted_cfg(false)).unwrap();
    let parallel = run_tdaub(menagerie(), &frame, &budgeted_cfg(true)).unwrap();

    assert_eq!(ranking(&serial), ranking(&parallel));
    assert_eq!(serial.best.name(), parallel.best.name());

    // identical failure classification
    for (s, p) in serial
        .execution
        .pipelines
        .iter()
        .zip(&parallel.execution.pipelines)
    {
        assert_eq!(s.name, p.name);
        assert_eq!(s.failure, p.failure, "{}", s.name);
    }

    // identical observed scores for the survivors (determinism contract)
    for (s, p) in serial.reports.iter().zip(&parallel.reports) {
        assert_eq!(s.scores, p.scores, "{}", s.name);
    }
}

#[test]
fn without_budget_the_slow_pipeline_survives() {
    let frame = stationary_frame(600);
    let cfg = TDaubConfig {
        parallel: false,
        pipeline_time_budget: None,
        ..Default::default()
    };
    let pool: Vec<Box<dyn Forecaster>> = vec![
        Box::new(MeanPlus::new(0.0)),
        Box::new(Sluggish::new(Duration::from_millis(5))),
    ];
    let result = run_tdaub(pool, &frame, &cfg).unwrap();
    assert_eq!(result.execution.survivors(), 2);
    assert!(result.execution.find("Sluggish").unwrap().failure.is_none());
    assert!(ranking(&result).contains(&"Sluggish".to_string()));
}

#[test]
fn late_crash_still_quarantines_with_partial_scores() {
    let frame = stationary_frame(600);
    let mut pool: Vec<Box<dyn Forecaster>> =
        vec![Box::new(MeanPlus::new(0.0)), Box::new(MeanPlus::new(1.0))];
    pool.push(Box::new(LateCrasher::new(2))); // two good fits, then panic
    let result = run_tdaub(
        pool,
        &frame,
        &TDaubConfig {
            parallel: false,
            ..Default::default()
        },
    )
    .unwrap();

    let entry = result.execution.find("LateCrasher").unwrap();
    match entry.failure.as_ref() {
        Some(FailureKind::Crashed(m)) => assert!(m.contains("late crash"), "{m}"),
        other => panic!("expected Crashed, got {other:?}"),
    }
    // it ran more than once before crashing, and its partial work is
    // accounted for
    assert!(entry.allocations >= 2, "{}", entry.allocations);
    assert!(ranking(&result).iter().all(|n| n != "LateCrasher"));
}

#[test]
fn all_pipelines_failing_is_a_typed_error() {
    let frame = stationary_frame(300);
    let pool: Vec<Box<dyn Forecaster>> = vec![
        Box::new(Panicker),
        Box::new(Erroring),
        Box::new(NanForecaster),
    ];
    let result = run_tdaub(
        pool,
        &frame,
        &TDaubConfig {
            parallel: false,
            ..Default::default()
        },
    );
    match result {
        Err(err) => assert!(
            matches!(err, PipelineError::Fit(_)),
            "expected Fit error, got {err:?}"
        ),
        Ok(_) => panic!("an all-failing pool must not produce a ranking"),
    }
}

#[test]
fn rankings_bit_identical_across_cache_and_execution_modes() {
    // the perf layer's determinism contract: warm, cold, serial and
    // parallel runs must agree to the last bit — projected and final
    // scores, not just rank order. The pool mixes hostile pipelines with
    // real registry ones so warm starts and the score memo are actually
    // on the hot path. No time budget: timing must never be able to
    // influence classification here.
    let frame = stationary_frame(320);
    let pool = || -> Vec<Box<dyn Forecaster>> {
        let ctx = PipelineContext::new(6, 8, vec![8]);
        let mut p: Vec<Box<dyn Forecaster>> = vec![
            Box::new(MeanPlus::new(0.0)),
            Box::new(MeanPlus::new(2.0)),
            Box::new(Panicker),
            Box::new(Erroring),
            Box::new(NanForecaster),
        ];
        for name in [
            "ZeroModel",
            "SeasonalNaive",
            "AR",
            "NeuralWindow",
            "FlattenAutoEnsembler",
        ] {
            p.extend(pipeline_by_name(name, &ctx));
        }
        p
    };
    let cfg = |incremental: bool, parallel: bool| TDaubConfig {
        parallel,
        incremental,
        pipeline_time_budget: None,
        ..Default::default()
    };
    let signature = |r: &TDaubResult| -> Vec<(String, u64, u64)> {
        r.reports
            .iter()
            .map(|rep| {
                (
                    rep.name.clone(),
                    rep.projected_score.to_bits(),
                    rep.final_score.unwrap_or(f64::NAN).to_bits(),
                )
            })
            .collect()
    };

    let reference = run_tdaub(pool(), &frame, &cfg(false, false)).unwrap();
    for (incremental, parallel) in [(false, true), (true, false), (true, true)] {
        let run = run_tdaub(pool(), &frame, &cfg(incremental, parallel)).unwrap();
        assert_eq!(
            signature(&run),
            signature(&reference),
            "incremental={incremental} parallel={parallel}"
        );
        // identical failure classification in every mode
        for (a, b) in reference
            .execution
            .pipelines
            .iter()
            .zip(&run.execution.pipelines)
        {
            assert_eq!(a.name, b.name);
            assert_eq!(a.failure, b.failure, "{}", a.name);
        }
    }

    // and the warm runs really did warm-start on this pool
    let warm_run = run_tdaub(pool(), &frame, &cfg(true, false)).unwrap();
    assert!(
        warm_run.execution.incremental_fits > 0,
        "no warm-started fits"
    );
}

#[test]
fn hard_deadline_quarantines_a_hung_pipeline_without_touching_survivors() {
    let frame = stationary_frame(600);
    let hostile: Vec<Box<dyn Forecaster>> = vec![
        Box::new(MeanPlus::new(0.0)),
        Box::new(SleepForever),
        Box::new(MeanPlus::new(2.0)),
    ];
    let clean: Vec<Box<dyn Forecaster>> =
        vec![Box::new(MeanPlus::new(0.0)), Box::new(MeanPlus::new(2.0))];
    let watched_cfg = TDaubConfig {
        parallel: true,
        pipeline_hard_deadline: Some(Duration::from_millis(300)),
        ..Default::default()
    };

    let start = std::time::Instant::now();
    let watched = run_tdaub(hostile, &frame, &watched_cfg).unwrap();
    // the run has a provable upper wall-time bound: one hard deadline for
    // the hung unit plus the (fast) survivor evaluations and overhead
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "the watchdog failed to bound the run: {:?}",
        start.elapsed()
    );

    // the hung pipeline was quarantined on its first unit, typed correctly,
    // charged the deadline it burned, and never rescheduled
    assert_eq!(
        failure_of(&watched.execution, "SleepForever"),
        &FailureKind::HardTimeout
    );
    let entry = watched.execution.find("SleepForever").unwrap();
    assert_eq!(entry.allocations, 1);
    assert!(entry.wall_time >= Duration::from_millis(300));
    assert_eq!(watched.execution.survivors(), 2);

    // the survivors' observed and projected scores are bit-identical to a
    // clean, unsupervised run: the watchdog must never change a ranking
    let reference = run_tdaub(
        clean,
        &frame,
        &TDaubConfig {
            parallel: true,
            ..Default::default()
        },
    )
    .unwrap();
    let signature = |r: &TDaubResult| -> Vec<(String, Vec<(usize, u64)>, u64)> {
        r.reports
            .iter()
            .map(|rep| {
                (
                    rep.name.clone(),
                    rep.scores.iter().map(|&(a, s)| (a, s.to_bits())).collect(),
                    rep.projected_score.to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(signature(&watched), signature(&reference));
    assert_eq!(watched.best.name(), reference.best.name());
}

#[test]
fn soft_budget_derives_a_hard_deadline_automatically() {
    // pipeline_hard_deadline unset + a soft budget set → the watchdog runs
    // with a 4× derived deadline, so even a hang-forever pipeline cannot
    // stall a budgeted run
    let frame = stationary_frame(600);
    let pool: Vec<Box<dyn Forecaster>> = vec![Box::new(MeanPlus::new(0.0)), Box::new(SleepForever)];
    let cfg = TDaubConfig {
        parallel: true,
        pipeline_time_budget: Some(Duration::from_millis(100)),
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let result = run_tdaub(pool, &frame, &cfg).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "derived hard deadline did not fire: {:?}",
        start.elapsed()
    );
    assert_eq!(
        failure_of(&result.execution, "SleepForever"),
        &FailureKind::HardTimeout
    );
    assert_eq!(result.best.name(), "MeanPlus(0)");
}

#[test]
fn winner_predicts_after_surviving_a_hostile_pool() {
    let frame = stationary_frame(600);
    let result = run_tdaub(menagerie(), &frame, &budgeted_cfg(true)).unwrap();
    let forecast = result.best.predict(8).unwrap();
    assert_eq!(forecast.len(), 8);
    for &v in forecast.series(0) {
        assert!(v.is_finite());
        assert!((v - 50.0).abs() < 1.0, "forecast {v} far from mean");
    }
}
