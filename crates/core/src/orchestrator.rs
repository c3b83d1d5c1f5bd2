//! The zero-conf orchestrator.

use std::sync::Arc;

use autoai_lookback::{
    discover_multivariate, discover_univariate, LookbackConfig, MultivariateMode,
};
use autoai_pipelines::{
    default_pipelines, pipeline_by_name, predict_interval_or_conformal, ConformalCalibration,
    EnsembleForecaster, Forecaster, IntervalForecast, IntervalSource, PipelineContext,
    PipelineError, ZeroModelPipeline,
};
use autoai_tdaub::{run_tdaub, EnsembleSelection, ExecutionReport, PipelineReport, TDaubConfig};
use autoai_tsdata::{
    clean, holdout_split, quality_check, Metric, QualityIssue, QualityReport, TimeSeriesFrame,
};

use crate::progress::{NoProgress, Progress, ProgressEvent};

/// Configuration of the zero-conf system. Every field has a sensible
/// default — constructing with [`AutoAITS::new`] and calling `fit` is the
/// intended zero-configuration path.
#[derive(Clone)]
pub struct AutoAITSConfig {
    /// Prediction horizon the pipelines are trained for (paper default 12).
    pub horizon: usize,
    /// User-specified look-back window; `None` enables automatic discovery
    /// ("If the user specifies look-back window size then the look-back
    /// window generation is skipped", §4).
    pub lookback: Option<usize>,
    /// Upper bound for discovered look-backs.
    pub max_look_back: usize,
    /// Fraction of the input held out for final reported evaluation
    /// (paper: 20%).
    pub holdout_fraction: f64,
    /// T-Daub settings.
    pub tdaub: TDaubConfig,
    /// Pipeline names to instantiate; `None` = the 10 defaults.
    pub pipeline_names: Option<Vec<String>>,
    /// Deterministic seed for discovery sampling.
    pub seed: u64,
}

impl Default for AutoAITSConfig {
    fn default() -> Self {
        Self {
            horizon: 12,
            lookback: None,
            max_look_back: 256,
            holdout_fraction: 0.2,
            tdaub: TDaubConfig::default(),
            pipeline_names: None,
            seed: 0,
        }
    }
}

/// How far down the always-forecast degradation ladder `fit` had to climb
/// to return a working forecaster. `fit` only errors on invalid *input*;
/// pipeline failures — up to and including the entire pool crashing,
/// erroring, or timing out — degrade the result instead of failing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationLevel {
    /// The full pool ran: every pipeline survived T-Daub and the winner
    /// retrained cleanly.
    None,
    /// Part of the pool was lost (excluded pipelines, or the T-Daub winner
    /// failed its final refit and a ranked runner-up took over), but a
    /// genuinely selected pipeline is serving forecasts.
    Survivors,
    /// Every pipeline failed; forecasts come from the ZeroModel baseline,
    /// the ladder's fault-free bottom rung.
    ZeroModel,
}

impl std::fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationLevel::None => write!(f, "full pool"),
            DegradationLevel::Survivors => write!(f, "survivors"),
            DegradationLevel::ZeroModel => write!(f, "zero-model baseline"),
        }
    }
}

/// Summary of a completed `fit`, for inspection and benchmarking.
pub struct FitSummary {
    /// Result of the initial data quality check.
    pub quality: QualityReport,
    /// Look-back window the ML pipelines used.
    pub lookback: usize,
    /// Discovered candidate seasonal periods.
    pub seasonal_periods: Vec<usize>,
    /// T-Daub per-pipeline reports for the surviving pipelines, ranked best
    /// first.
    pub reports: Vec<PipelineReport>,
    /// Execution accounting for the whole pool — wall time, allocations
    /// attempted, and the failure kind for every excluded pipeline.
    pub execution: ExecutionReport,
    /// Name of the winning pipeline.
    pub best_pipeline: String,
    /// SMAPE of the winner on the 20% holdout.
    pub holdout_smape: f64,
    /// Greedy forward ensemble selection over the top T-Daub survivors:
    /// member weights and contributions, when the survivor pool allowed a
    /// selection to run. The ensemble serves forecasts only when its
    /// holdout score is no worse than the single winner's — `best_pipeline`
    /// starting with `Ensemble(` marks that case.
    pub ensemble: Option<EnsembleSelection>,
    /// How far down the degradation ladder this fit landed.
    pub degradation: DegradationLevel,
    /// Total wall-clock seconds of the whole fit.
    pub fit_seconds: f64,
}

struct FittedState {
    best: Box<dyn Forecaster>,
    zero_model: ZeroModelPipeline,
    summary: FitSummary,
    n_series: usize,
    /// Split-conformal calibration from the train-fitted winner's holdout
    /// residuals; `None` when the winner could not predict the holdout.
    conformal: Option<ConformalCalibration>,
}

/// The AutoAI-TS system: drop in data, get a trained forecaster.
pub struct AutoAITS {
    config: AutoAITSConfig,
    progress: Arc<dyn Progress>,
    /// Quality issues observed by a serving loop *between* fits (e.g.
    /// timestamps dropped while growing a stored series); the next fit
    /// drains them into its [`FitSummary::quality`] report.
    carried_issues: Vec<QualityIssue>,
    state: Option<FittedState>,
}

impl Default for AutoAITS {
    fn default() -> Self {
        Self::new()
    }
}

impl AutoAITS {
    /// Zero-conf constructor (horizon 12, everything automatic).
    pub fn new() -> Self {
        Self::with_config(AutoAITSConfig::default())
    }

    /// Construct with explicit configuration.
    pub fn with_config(config: AutoAITSConfig) -> Self {
        Self {
            config,
            progress: Arc::new(NoProgress),
            carried_issues: Vec::new(),
            state: None,
        }
    }

    /// Attach a progress sink (CLI/web-UI surface of §4).
    pub fn with_progress(mut self, progress: Arc<dyn Progress>) -> Self {
        self.progress = progress;
        self
    }

    /// Attach quality issues observed outside `fit` — the serving loop's
    /// `observe` path reports timestamp drops here — so the next fit's
    /// [`FitSummary::quality`] surfaces them instead of losing them in the
    /// growth records. Consumed by the next `fit`.
    pub fn with_carried_issues(mut self, issues: Vec<QualityIssue>) -> Self {
        self.carried_issues = issues;
        self
    }

    /// Convenience: set the forecast horizon.
    pub fn horizon(mut self, horizon: usize) -> Self {
        self.config.horizon = horizon.max(1);
        self
    }

    /// Fit on a row-major 2-D array (rows = samples, columns = series) —
    /// the exact user-facing schema of §3.
    pub fn fit_rows(&mut self, rows: &[Vec<f64>]) -> Result<&mut Self, PipelineError> {
        let frame = TimeSeriesFrame::from_rows(rows);
        self.fit(&frame)
    }

    /// Fit on a [`TimeSeriesFrame`].
    pub fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<&mut Self, PipelineError> {
        // tscheck:allow(wall-clock): coarse fit telemetry; never feeds a ranking decision
        let started = std::time::Instant::now();
        if frame.is_empty() || frame.n_series() == 0 {
            return Err(PipelineError::InvalidInput("empty input data".into()));
        }
        let min_len = 2 * self.config.horizon + 8;
        if frame.len() < min_len {
            return Err(PipelineError::InvalidInput(format!(
                "need at least {min_len} samples for horizon {}, got {}",
                self.config.horizon,
                frame.len()
            )));
        }

        // ---- 1. quality check + cleaning ----
        // A crashed assessment (chaos site `quality.assess`, or any future
        // bug in the scan) degrades to a pessimistic report — force the
        // cleaning pass, forbid log transforms — instead of aborting the
        // run. `AssertUnwindSafe` is sound: `frame` is only read.
        let mut quality =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| quality_check(frame)))
                .unwrap_or_else(|_| QualityReport {
                    issues: Vec::new(),
                    missing_count: 1,
                    negative_count: 0,
                    log_transform_safe: false,
                });
        // issues the serving loop observed between fits (timestamp drops
        // during `observe`) belong to this report; drained so one fit
        // surfaces each of them exactly once
        quality.issues.extend(self.carried_issues.drain(..));
        self.progress.report(&ProgressEvent::QualityChecked {
            issues: quality.issues.len(),
        });
        let data = if quality.missing_count > 0 {
            clean(frame)
        } else {
            frame.clone()
        };

        // ---- 2. Zero Model baseline, available immediately ----
        let mut zero_model = ZeroModelPipeline::new();
        zero_model.fit(&data)?;
        self.progress.report(&ProgressEvent::ZeroModelReady);

        // ---- 80/20 split: holdout only for reported evaluation ----
        // A fraction outside (0, 1) — or one that swallows (nearly) all of
        // the data — is a configuration error, not a degradable run: reject
        // it before any work is wasted on a degenerate split.
        let hf = self.config.holdout_fraction;
        if !hf.is_finite() || hf <= 0.0 || hf >= 1.0 {
            return Err(PipelineError::InvalidInput(format!(
                "holdout_fraction must be a finite fraction in (0, 1), got {hf}"
            )));
        }
        let holdout_len = ((data.len() as f64 * hf).round() as usize).max(1);
        // T-Daub's small-data bypass handles genuinely short inputs, so the
        // floor adapts: the training prefix must keep at least the smaller of
        // the configured minimum allocation and half the data (never < 8).
        let min_train = self
            .config
            .tdaub
            .min_allocation_size
            .min(data.len() / 2)
            .max(8);
        if data.len() - holdout_len < min_train {
            return Err(PipelineError::InvalidInput(format!(
                "holdout_fraction {hf} leaves {} training samples, need at least {min_train}",
                data.len() - holdout_len
            )));
        }
        let (train, holdout) = holdout_split(&data, holdout_len);

        // ---- 3. look-back discovery (skipped when user specifies) ----
        let lb_config = LookbackConfig {
            max_look_back: Some(self.config.max_look_back),
            seed: self.config.seed,
            ..Default::default()
        };
        let (lookback, seasonal_periods) = match self.config.lookback {
            Some(lb) => (lb, discovered_periods(&train, &lb_config)),
            None => {
                // A crashed discovery (chaos site `lookback.discover`, or a
                // future estimator bug) degrades to the paper default (§4.1)
                // clamped to the configured cap, instead of aborting.
                let lbs = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if train.n_series() > 1 {
                        discover_multivariate(&train, &lb_config, MultivariateMode::Cap)
                    } else {
                        discover_univariate(train.series(0), train.timestamps(), &lb_config)
                    }
                }))
                .unwrap_or_default();
                match lbs.first().copied() {
                    Some(first) => (first, lbs),
                    None => {
                        let fb = self.config.max_look_back.min(8).max(2);
                        (fb, vec![fb])
                    }
                }
            }
        };
        self.progress.report(&ProgressEvent::LookbackDiscovered {
            lookback,
            seasonal_periods: seasonal_periods.clone(),
        });

        // ---- 4. pipeline generation ----
        let ctx = PipelineContext::new(lookback, self.config.horizon, seasonal_periods.clone());
        let pipelines: Vec<Box<dyn Forecaster>> = match &self.config.pipeline_names {
            Some(names) => names
                .iter()
                .filter_map(|n| pipeline_by_name(n, &ctx))
                .collect(),
            None => default_pipelines(&ctx),
        };
        if pipelines.is_empty() {
            return Err(PipelineError::InvalidInput(
                "no pipelines to evaluate".into(),
            ));
        }
        self.progress.report(&ProgressEvent::PipelinesGenerated {
            count: pipelines.len(),
        });

        // ---- 5. T-Daub ranking over the training split ----
        // scale the allocation unit to the training length so the smallest
        // allocation can accommodate seasonal look-backs (a 50-sample chunk
        // cannot exercise a weekly-of-hours pipeline); the user may still
        // pin the sizes explicitly through `config.tdaub`
        let mut tdaub_cfg = self.config.tdaub.clone();
        let default = TDaubConfig::default();
        if tdaub_cfg.min_allocation_size == default.min_allocation_size
            && tdaub_cfg.allocation_size == default.allocation_size
        {
            let unit = (train.len() / 8)
                .max(default.min_allocation_size)
                .max(2 * lookback + self.config.horizon + 4);
            tdaub_cfg.min_allocation_size = unit;
            tdaub_cfg.allocation_size = unit;
        }
        // ---- 6. degradation ladder: full pool → survivors → ZeroModel ----
        // From here on, pipeline failures can no longer fail the fit: a
        // T-Daub run with survivors serves the ranked winner (walking down
        // the ranking when the winner's final refit fails), and a run where
        // *everything* failed serves the ZeroModel baseline.
        let (best, reports, execution, holdout_smape, conformal, ensemble, degradation) =
            match run_tdaub(pipelines, &train, &tdaub_cfg) {
                Ok(result) => {
                    for failed in result.execution.failures() {
                        self.progress.report(&ProgressEvent::PipelineExcluded {
                            name: failed.name.clone(),
                            reason: failed
                                .failure
                                .as_ref()
                                .map(|k| k.to_string())
                                .unwrap_or_default(),
                        });
                    }
                    self.progress.report(&ProgressEvent::TDaubFinished {
                        best: result.best.name(),
                        evaluations: result.execution.total_allocations(),
                        failures: result.execution.failures().count(),
                    });

                    let mut holdout_smape = result
                        .best
                        .score(&holdout, Metric::Smape)
                        .unwrap_or(f64::INFINITY);
                    self.progress.report(&ProgressEvent::HoldoutScored {
                        smape: holdout_smape,
                    });
                    // calibrate the conformal wrap while the winner is still
                    // the *train*-fitted state (split conformal needs the
                    // holdout untouched by the serving fit)
                    let mut conformal =
                        ConformalCalibration::calibrate(result.best.as_ref(), &holdout);
                    let ensemble = result.ensemble.clone();

                    let mut degradation = if result.execution.failures().next().is_some()
                        || result.execution.run_deadline_hit
                    {
                        // a run truncated by the whole-run hard deadline serves
                        // ranked survivors from partial evidence — surface that
                        // exactly like a partially-lost pool
                        DegradationLevel::Survivors
                    } else {
                        DegradationLevel::None
                    };
                    // the greedy-selected ensemble gets first claim on the
                    // serving slot; it is kept only when its own holdout
                    // score is no worse than the single winner's
                    let promoted = ensemble
                        .as_ref()
                        .filter(|sel| sel.members.len() >= 2)
                        .and_then(|sel| {
                            fit_ensemble_winner(sel, &ctx, &train, &holdout, &data, holdout_smape)
                        });
                    let best = match promoted {
                        Some(promo) => {
                            holdout_smape = promo.holdout_smape;
                            conformal = promo.conformal;
                            promo.forecaster
                        }
                        None => {
                            // full-data retraining, panic-isolated; when the
                            // winner fails its refit, the ranked runners-up
                            // each get one rung before the ladder hits the
                            // baseline
                            let mut best = result.best.clone_unfitted();
                            if rung_fit(&mut best, &data).is_err() {
                                degradation = DegradationLevel::Survivors;
                                let runner_up = result.reports.iter().skip(1).find_map(|report| {
                                    let mut next = pipeline_by_name(&report.name, &ctx)?;
                                    rung_fit(&mut next, &data).ok().map(|()| next)
                                });
                                best = match runner_up {
                                    Some(b) => b,
                                    None => {
                                        degradation = DegradationLevel::ZeroModel;
                                        let mut zm: Box<dyn Forecaster> =
                                            Box::new(ZeroModelPipeline::new());
                                        zm.fit(&data)?;
                                        zm
                                    }
                                };
                            }
                            best
                        }
                    };
                    (
                        best,
                        result.reports,
                        result.execution,
                        holdout_smape,
                        conformal,
                        ensemble,
                        degradation,
                    )
                }
                Err(_) => {
                    // every pipeline failed during ranking; the system must
                    // still forecast. Score the baseline honestly (fit on
                    // the training split, scored on the holdout) and serve
                    // a full-data ZeroModel.
                    let mut scored = ZeroModelPipeline::new();
                    scored.fit(&train)?;
                    let holdout_smape = scored
                        .score(&holdout, Metric::Smape)
                        .unwrap_or(f64::INFINITY);
                    self.progress.report(&ProgressEvent::HoldoutScored {
                        smape: holdout_smape,
                    });
                    let conformal = ConformalCalibration::calibrate(&scored, &holdout);
                    let mut best: Box<dyn Forecaster> = Box::new(ZeroModelPipeline::new());
                    best.fit(&data)?;
                    (
                        best,
                        Vec::new(),
                        ExecutionReport::default(),
                        holdout_smape,
                        conformal,
                        None,
                        DegradationLevel::ZeroModel,
                    )
                }
            };
        if degradation != DegradationLevel::None {
            self.progress
                .report(&ProgressEvent::Degraded { level: degradation });
        }
        self.progress.report(&ProgressEvent::Ready);

        let summary = FitSummary {
            quality,
            lookback,
            seasonal_periods,
            best_pipeline: best.name(),
            reports,
            execution,
            holdout_smape,
            ensemble,
            degradation,
            fit_seconds: started.elapsed().as_secs_f64(),
        };
        self.state = Some(FittedState {
            best,
            zero_model,
            summary,
            n_series: data.n_series(),
            conformal,
        });
        Ok(self)
    }

    /// Forecast the next `horizon` rows (2-D frame out, §3 schema).
    pub fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let state = self.state.as_ref().ok_or(PipelineError::NotFitted)?;
        state.best.predict(horizon.max(1))
    }

    /// Forecast as a row-major 2-D array (`horizon x n_series`).
    pub fn predict_rows(&self, horizon: usize) -> Result<Vec<Vec<f64>>, PipelineError> {
        Ok(self.predict(horizon)?.to_rows())
    }

    /// Forecast with monotone, non-crossing quantile bands at the requested
    /// confidence `levels` (e.g. `&[0.80, 0.95]`). The interval ladder
    /// mirrors the point-forecast degradation ladder: the winner's native
    /// analytic band, then the split-conformal wrap calibrated on the
    /// holdout residuals, and finally the ZeroModel baseline's analytic
    /// random-walk band (labeled [`IntervalSource::Baseline`]). A fitted
    /// system therefore always produces calibrated bands.
    pub fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        let state = self.state.as_ref().ok_or(PipelineError::NotFitted)?;
        let horizon = horizon.max(1);
        match predict_interval_or_conformal(
            state.best.as_ref(),
            horizon,
            levels,
            state.conformal.as_ref(),
        ) {
            Ok(iv) => Ok(iv),
            Err(_) => state
                .zero_model
                .predict_interval(horizon, levels)
                .map(|iv| iv.with_source(IntervalSource::Baseline)),
        }
    }

    /// The Zero Model baseline forecast (available as soon as `fit` starts
    /// doing real work; exposed for comparison and fallbacks).
    pub fn predict_zero_model(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let state = self.state.as_ref().ok_or(PipelineError::NotFitted)?;
        state.zero_model.predict(horizon.max(1))
    }

    /// Summary of the completed fit (quality report, ranking, scores).
    pub fn summary(&self) -> Option<&FitSummary> {
        self.state.as_ref().map(|s| &s.summary)
    }

    /// Name of the selected pipeline.
    pub fn best_pipeline_name(&self) -> Option<String> {
        self.state.as_ref().map(|s| s.best.name())
    }

    /// Number of series the system was fitted on.
    pub fn n_series(&self) -> Option<usize> {
        self.state.as_ref().map(|s| s.n_series)
    }
}

/// One rung of the degradation ladder: a full-data refit with the same
/// panic isolation as every T-Daub unit of work. `AssertUnwindSafe` is
/// sound because a panicked rung's pipeline is discarded, never queried.
fn rung_fit(
    pipeline: &mut Box<dyn Forecaster>,
    data: &TimeSeriesFrame,
) -> Result<(), PipelineError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipeline.fit(data))) {
        Ok(result) => result,
        Err(_) => Err(PipelineError::Crashed(
            "pipeline panicked during final refit".into(),
        )),
    }
}

/// A promoted ensemble winner, ready to serve.
struct PromotedEnsemble {
    forecaster: Box<dyn Forecaster>,
    holdout_smape: f64,
    conformal: Option<ConformalCalibration>,
}

/// Try to promote the greedy-selected ensemble to the serving slot: rebuild
/// the selected members unfitted, fit the ensemble on the training split,
/// and keep it only when its holdout SMAPE is no worse than the single
/// winner's. The promoted forecaster is refit on the full data behind the
/// same panic isolation as the single-winner path; any failure along the
/// way simply yields `None` and the single winner serves instead.
fn fit_ensemble_winner(
    selection: &EnsembleSelection,
    ctx: &PipelineContext,
    train: &TimeSeriesFrame,
    holdout: &TimeSeriesFrame,
    data: &TimeSeriesFrame,
    single_smape: f64,
) -> Option<PromotedEnsemble> {
    let members: Vec<(Box<dyn Forecaster>, f64)> = selection
        .members
        .iter()
        .filter_map(|m| pipeline_by_name(&m.name, ctx).map(|p| (p, m.weight)))
        .collect();
    if members.len() != selection.members.len() {
        return None;
    }
    let mut ens: Box<dyn Forecaster> = Box::new(EnsembleForecaster::new(members).ok()?);
    rung_fit(&mut ens, train).ok()?;
    let smape = ens.score(holdout, Metric::Smape).unwrap_or(f64::INFINITY);
    if !smape.is_finite() || smape > single_smape {
        return None;
    }
    let conformal = ConformalCalibration::calibrate(ens.as_ref(), holdout);
    let mut full = ens.clone_unfitted();
    rung_fit(&mut full, data).ok()?;
    Some(PromotedEnsemble {
        forecaster: full,
        holdout_smape: smape,
        conformal,
    })
}

/// Seasonal-period candidates when the user supplied the look-back: run the
/// discovery machinery anyway, purely for the statistical pipelines.
fn discovered_periods(train: &TimeSeriesFrame, cfg: &LookbackConfig) -> Vec<usize> {
    // Same degradation rung as the main discovery path: a crashed discovery
    // yields no seasonal candidates rather than aborting the fit.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if train.n_series() > 1 {
            discover_multivariate(train, cfg, MultivariateMode::Cap)
        } else {
            discover_univariate(train.series(0), train.timestamps(), cfg)
        }
    }))
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()])
            .collect()
    }

    fn fast_config() -> AutoAITSConfig {
        // restrict to fast pipelines so orchestrator tests stay quick
        AutoAITSConfig {
            pipeline_names: Some(vec![
                "MT2RForecaster".into(),
                "HW-Additive".into(),
                "ZeroModel".into(),
            ]),
            ..Default::default()
        }
    }

    #[test]
    fn zero_conf_end_to_end() {
        let mut sys = AutoAITS::with_config(fast_config());
        sys.fit_rows(&seasonal_rows(400)).unwrap();
        let f = sys.predict_rows(12).unwrap();
        assert_eq!(f.len(), 12);
        assert_eq!(f[0].len(), 1);
        let summary = sys.summary().unwrap();
        assert!(
            summary.holdout_smape < 20.0,
            "holdout smape {}",
            summary.holdout_smape
        );
        assert!(!summary.best_pipeline.is_empty());
        assert!(summary.reports.len() == 3);
    }

    #[test]
    fn healthy_fit_reports_no_degradation() {
        let mut sys = AutoAITS::with_config(fast_config());
        sys.fit_rows(&seasonal_rows(300)).unwrap();
        assert_eq!(sys.summary().unwrap().degradation, DegradationLevel::None);
    }

    #[test]
    fn expired_run_deadline_degrades_to_survivors_and_still_forecasts() {
        let mut cfg = fast_config();
        cfg.tdaub.run_hard_deadline = Some(std::time::Duration::ZERO);
        let mut sys = AutoAITS::with_config(cfg);
        sys.fit_rows(&seasonal_rows(300)).unwrap();
        let summary = sys.summary().unwrap();
        assert_eq!(summary.degradation, DegradationLevel::Survivors);
        assert!(!summary.best_pipeline.is_empty());
        // the truncated run still serves usable forecasts
        let f = sys.predict_rows(6).unwrap();
        assert_eq!(f.len(), 6);
    }

    #[test]
    fn multivariate_input_multivariate_output() {
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![10.0 + (i as f64 * 0.5).sin(), 100.0 + 0.3 * i as f64])
            .collect();
        let mut sys = AutoAITS::with_config(fast_config());
        sys.fit_rows(&rows).unwrap();
        assert_eq!(sys.n_series(), Some(2));
        let f = sys.predict_rows(6).unwrap();
        assert_eq!(f.len(), 6);
        assert_eq!(f[0].len(), 2);
    }

    #[test]
    fn nan_input_is_cleaned_automatically() {
        let mut rows = seasonal_rows(300);
        rows[100][0] = f64::NAN;
        rows[200][0] = f64::NAN;
        let mut sys = AutoAITS::with_config(fast_config());
        sys.fit_rows(&rows).unwrap();
        let summary = sys.summary().unwrap();
        assert_eq!(summary.quality.missing_count, 2);
        assert!(sys
            .predict(3)
            .unwrap()
            .series(0)
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    fn zero_model_available_after_fit() {
        let mut sys = AutoAITS::with_config(fast_config());
        sys.fit_rows(&seasonal_rows(300)).unwrap();
        let z = sys.predict_zero_model(4).unwrap();
        // zero model repeats the very last observed value
        let last = 20.0 + 5.0 * (2.0 * std::f64::consts::PI * 299.0 / 12.0).sin();
        for &v in z.series(0) {
            assert!((v - last).abs() < 1e-9);
        }
    }

    #[test]
    fn user_lookback_skips_discovery() {
        let mut cfg = fast_config();
        cfg.lookback = Some(24);
        let mut sys = AutoAITS::with_config(cfg);
        sys.fit_rows(&seasonal_rows(300)).unwrap();
        assert_eq!(sys.summary().unwrap().lookback, 24);
    }

    #[test]
    fn too_short_input_rejected() {
        let mut sys = AutoAITS::new();
        assert!(sys.fit_rows(&seasonal_rows(10)).is_err());
        assert!(matches!(sys.predict(3), Err(PipelineError::NotFitted)));
    }

    #[test]
    fn empty_input_rejected() {
        let mut sys = AutoAITS::new();
        assert!(sys.fit_rows(&[]).is_err());
    }

    #[test]
    fn degenerate_holdout_fraction_rejected() {
        let rows = seasonal_rows(300);
        for hf in [1.0, 1.5, 0.0, -0.2, f64::NAN, f64::INFINITY] {
            let mut cfg = fast_config();
            cfg.holdout_fraction = hf;
            let mut sys = AutoAITS::with_config(cfg);
            let err = sys.fit_rows(&rows).err().expect("degenerate hf accepted");
            assert!(
                matches!(err, PipelineError::InvalidInput(_)),
                "hf {hf}: {err:?}"
            );
        }
    }

    #[test]
    fn holdout_fraction_starving_the_train_split_rejected() {
        // 0.95 is inside (0, 1) but leaves 15 training samples on 300 rows —
        // far below the 50-sample minimum allocation; must be a typed error
        let mut cfg = fast_config();
        cfg.holdout_fraction = 0.95;
        let mut sys = AutoAITS::with_config(cfg);
        let err = sys
            .fit_rows(&seasonal_rows(300))
            .err()
            .expect("starving split accepted");
        assert!(matches!(err, PipelineError::InvalidInput(_)), "{err:?}");
    }

    #[test]
    fn progress_events_fire_in_order() {
        use std::sync::Mutex;
        struct Collect(Mutex<Vec<String>>);
        impl Progress for Collect {
            fn report(&self, e: &ProgressEvent) {
                if let Ok(mut events) = self.0.lock() {
                    events.push(format!("{e:?}"));
                }
            }
        }
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        let mut sys = AutoAITS::with_config(fast_config()).with_progress(sink.clone());
        sys.fit_rows(&seasonal_rows(300)).unwrap();
        let events = sink.0.lock().unwrap();
        assert!(events[0].starts_with("QualityChecked"));
        assert!(events.last().unwrap().starts_with("Ready"));
        assert!(events.iter().any(|e| e.starts_with("TDaubFinished")));
    }

    #[test]
    fn ensemble_selection_surfaces_in_summary() {
        let rows: Vec<Vec<f64>> = (0..320)
            .map(|i| {
                vec![
                    25.0 + 6.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()
                        + 0.02 * i as f64,
                ]
            })
            .collect();
        let mut sys = AutoAITS::with_config(fast_config());
        sys.fit_rows(&rows).unwrap();
        let summary = sys.summary().unwrap();
        let sel = summary
            .ensemble
            .as_ref()
            .expect("default config runs ensemble selection over 3 survivors");
        assert!(!sel.members.is_empty());
        let total: f64 = sel.members.iter().map(|m| m.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        assert!(
            sel.score <= sel.best_single,
            "ensemble {} worse than best single {}",
            sel.score,
            sel.best_single
        );
        // whether or not the ensemble serves, the system still forecasts
        assert_eq!(sys.predict_rows(6).unwrap().len(), 6);
    }

    #[test]
    fn disabling_ensembling_still_fits_and_reports_none() {
        let mut cfg = fast_config();
        cfg.tdaub.ensemble_top_k = 0;
        let mut sys = AutoAITS::with_config(cfg);
        sys.fit_rows(&seasonal_rows(300)).unwrap();
        let summary = sys.summary().unwrap();
        assert!(summary.ensemble.is_none());
        assert!(!summary.best_pipeline.starts_with("Ensemble("));
        assert!(sys.predict_interval(4, &[0.9]).is_ok());
    }

    #[test]
    fn horizon_sweep_6_to_30() {
        // the paper's experimental grid: horizon 6..30 step 6
        let rows = seasonal_rows(400);
        for h in [6usize, 12, 18, 24, 30] {
            let mut cfg = fast_config();
            cfg.horizon = h;
            let mut sys = AutoAITS::with_config(cfg);
            sys.fit_rows(&rows).unwrap();
            assert_eq!(sys.predict_rows(h).unwrap().len(), h, "horizon {h}");
        }
    }
}

#[cfg(test)]
mod interval_tests {
    use super::*;

    #[test]
    fn interval_before_fit_errors() {
        let sys = AutoAITS::new();
        assert!(sys.predict_interval(3, &[0.8, 0.95]).is_err());
    }

    #[test]
    fn quantile_bands_always_available_after_fit() {
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()])
            .collect();
        let mut sys = AutoAITS::with_config(AutoAITSConfig {
            pipeline_names: Some(vec!["MT2RForecaster".into(), "ZeroModel".into()]),
            ..Default::default()
        });
        sys.fit_rows(&rows).unwrap();
        // the constructor validates finiteness, bracketing, and nesting;
        // getting an IntervalForecast back at all is most of the assertion
        let iv = sys.predict_interval(6, &[0.8, 0.95]).unwrap();
        assert_eq!(iv.horizon(), 6);
        assert_eq!(iv.n_series(), 1);
        assert_eq!(iv.levels(), &[0.8, 0.95]);
        // the point forecast matches the plain predict path
        let point = sys.predict(6).unwrap();
        for (a, b) in iv.point().series(0).iter().zip(point.series(0).iter()) {
            assert!((a - b).abs() < 1e-9, "interval point diverges: {a} vs {b}");
        }
    }
}
