//! Pipelines wrapping the statistical models (one model per series) plus
//! the fast linear MT2RForecaster and the neural pipeline.

use std::time::{Duration, Instant};

use autoai_ml_models::{LinearRegression, MultiOutputRegressor};
use autoai_neural::{Loss, Mlp, MlpConfig};
use autoai_stat_models::{
    auto_arima_seeded_with_deadline, auto_arima_with_deadline, Arima, Bats, BatsConfig, Garch,
    HoltWinters, IncrementalAr, SeasonalNaive, Seasonality, ThetaModel, ZeroModel,
};
use autoai_transforms::{flatten_windows, latest_window};
use autoai_tsdata::{FrameFingerprint, TimeSeriesFrame};

use crate::interval::{IntervalForecast, IntervalSource};
use crate::traits::{Forecaster, PipelineError};

fn forecast_frame(names: &[String], forecasts: Vec<Vec<f64>>) -> TimeSeriesFrame {
    let mut f = TimeSeriesFrame::from_columns(forecasts);
    if f.n_series() == names.len() {
        f = f.with_names(names.to_vec());
    }
    f
}

/// Deterministic chaos gate at the top of `fit`/`fit_incremental`. The key
/// folds the pipeline name and the frame length — both pure functions of the
/// evaluated allocation — so a memo replay and a fresh evaluation of the
/// same unit draw the same fault, keeping rankings independent of execution mode
/// under injection. [`ZeroModelPipeline`] deliberately has no gate: it is the
/// degradation ladder's last rung and must stay fault-free by construction.
fn chaos_fit_gate(pipeline: &str, len: usize) -> Result<(), PipelineError> {
    if !autoai_chaos::enabled() {
        return Ok(());
    }
    let k = autoai_chaos::key(pipeline) ^ (len as u64);
    match autoai_chaos::inject("pipeline.fit", k) {
        Some(autoai_chaos::Fault::Panic) => {
            // tscheck:allow(panic): deliberate chaos fault injection exercising the executor's panic isolation
            panic!("chaos: injected panic fitting {pipeline} on {len} rows")
        }
        Some(autoai_chaos::Fault::TypedError) => Err(PipelineError::Fit(format!(
            "chaos: injected fit error in {pipeline}"
        ))),
        Some(autoai_chaos::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Some(autoai_chaos::Fault::NanForecast) | None => Ok(()),
    }
}

/// Deterministic chaos gate in `predict`: on a NaN-forecast draw, returns a
/// poisoned frame the caller must hand back instead of its real forecast
/// (the scorer turns it into a NaN score, exercising the ranking's NaN
/// handling). Keyed on name and horizon only, for the same determinism
/// reasons as [`chaos_fit_gate`].
fn chaos_predict_gate(pipeline: &str, horizon: usize, n_series: usize) -> Option<TimeSeriesFrame> {
    if !autoai_chaos::enabled() {
        return None;
    }
    let k = autoai_chaos::key(pipeline) ^ (horizon as u64);
    match autoai_chaos::inject("pipeline.predict", k) {
        Some(autoai_chaos::Fault::NanForecast) => Some(TimeSeriesFrame::from_columns(vec![
            vec![f64::NAN; horizon];
            n_series.max(1)
        ])),
        Some(autoai_chaos::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        _ => None,
    }
}

/// Deterministic chaos gate in `predict_interval`, keyed on name and
/// horizon like [`chaos_predict_gate`]. `Ok(true)` is a NaN-forecast draw:
/// the caller must poison its variance path so [`IntervalForecast`]
/// validation rejects the band and the interval ladder degrades to the
/// conformal fallback. [`ZeroModelPipeline`] deliberately has no gate — its
/// intervals are the ladder's floor.
fn chaos_interval_gate(pipeline: &str, horizon: usize) -> Result<bool, PipelineError> {
    if !autoai_chaos::enabled() {
        return Ok(false);
    }
    let k = autoai_chaos::key(pipeline) ^ (horizon as u64);
    match autoai_chaos::inject("predict.interval", k) {
        Some(autoai_chaos::Fault::Panic) => {
            // tscheck:allow(panic): deliberate chaos fault injection exercising the interval ladder's panic isolation
            panic!("chaos: injected panic in {pipeline} predict_interval at horizon {horizon}")
        }
        Some(autoai_chaos::Fault::TypedError) => Err(PipelineError::InvalidInput(format!(
            "chaos: injected interval error in {pipeline}"
        ))),
        Some(autoai_chaos::Fault::NanForecast) => Ok(true),
        Some(autoai_chaos::Fault::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(false)
        }
        None => Ok(false),
    }
}

/// Assemble Gaussian bands for a per-series statistical pipeline from point
/// forecasts and forecast variances. `poison` (a chaos NaN draw) corrupts
/// the deviation path, which [`IntervalForecast`] validation rejects with a
/// typed error.
fn native_gaussian_interval(
    names: &[String],
    forecasts: Vec<Vec<f64>>,
    variances: Vec<Vec<f64>>,
    poison: bool,
    levels: &[f64],
) -> Result<IntervalForecast, PipelineError> {
    let std: Vec<Vec<f64>> = variances
        .into_iter()
        .map(|vs| {
            vs.into_iter()
                .map(|v| if poison { f64::NAN } else { v.max(0.0).sqrt() })
                .collect()
        })
        .collect();
    IntervalForecast::from_gaussian(
        forecast_frame(names, forecasts),
        levels,
        &std,
        IntervalSource::Native,
    )
}

/// The Zero Model as a pipeline: repeat each series' last value (§4).
#[derive(Default)]
pub struct ZeroModelPipeline {
    models: Vec<ZeroModel>,
    names: Vec<String>,
    fitted_rows: usize,
}

impl ZeroModelPipeline {
    /// New unfitted pipeline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Forecaster for ZeroModelPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        self.models.clear();
        self.fitted_rows = 0;
        self.names = frame.names().to_vec();
        for c in 0..frame.n_series() {
            let mut m = ZeroModel::new();
            m.fit(frame.series(c))
                .map_err(|e| PipelineError::Fit(e.message))?;
            self.models.push(m);
        }
        if self.models.is_empty() {
            return Err(PipelineError::InvalidInput("empty frame".into()));
        }
        self.fitted_rows = frame.len();
        Ok(())
    }

    fn fit_incremental(
        &mut self,
        frame: &TimeSeriesFrame,
        previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        // the fitted state is each series' last value; growing the frame at
        // the front (reverse allocations) leaves it untouched, so the
        // previous fit is already bit-identical to a full refit
        if self.fitted_rows == 0
            || previous_rows != self.fitted_rows
            || frame.len() < previous_rows
            || frame.n_series() != self.models.len()
        {
            return Ok(false);
        }
        self.fitted_rows = frame.len();
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        Ok(forecast_frame(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
        ))
    }

    fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        // no chaos gate: Zero-Model random-walk bands are the interval
        // degradation ladder's always-finite floor
        native_gaussian_interval(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
            self.models
                .iter()
                .map(|m| m.forecast_variance(horizon))
                .collect(),
            false,
            levels,
        )
    }

    fn name(&self) -> String {
        "ZeroModel".into()
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new())
    }
}

/// Seasonal naive as a pipeline: repeat each series' trailing season.
pub struct SeasonalNaivePipeline {
    period: usize,
    models: Vec<SeasonalNaive>,
    names: Vec<String>,
    fitted_rows: usize,
}

impl SeasonalNaivePipeline {
    /// New unfitted pipeline with seasonal period `m` (clamped to ≥ 1;
    /// period 1 degenerates to the Zero Model).
    pub fn new(m: usize) -> Self {
        Self {
            period: m.max(1),
            models: Vec::new(),
            names: Vec::new(),
            fitted_rows: 0,
        }
    }
}

impl Forecaster for SeasonalNaivePipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        chaos_fit_gate("SeasonalNaive", frame.len())?;
        self.models.clear();
        self.fitted_rows = 0;
        self.names = frame.names().to_vec();
        for c in 0..frame.n_series() {
            let mut m = SeasonalNaive::new(self.period);
            m.fit(frame.series(c))
                .map_err(|e| PipelineError::Fit(e.message))?;
            self.models.push(m);
        }
        if self.models.is_empty() {
            return Err(PipelineError::InvalidInput("empty frame".into()));
        }
        self.fitted_rows = frame.len();
        Ok(())
    }

    fn fit_incremental(
        &mut self,
        frame: &TimeSeriesFrame,
        previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        // the fitted state is the trailing season of each series; once the
        // previous fit already covered a full period, growth at the front
        // cannot change it. Shorter previous fits stored a truncated tail,
        // so they must go through a full refit.
        if self.fitted_rows == 0
            || previous_rows != self.fitted_rows
            || previous_rows < self.period
            || frame.len() < previous_rows
            || frame.n_series() != self.models.len()
        {
            return Ok(false);
        }
        chaos_fit_gate("SeasonalNaive", frame.len())?;
        self.fitted_rows = frame.len();
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        if let Some(poisoned) = chaos_predict_gate("SeasonalNaive", horizon, self.models.len()) {
            return Ok(poisoned);
        }
        Ok(forecast_frame(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
        ))
    }

    fn name(&self) -> String {
        "SeasonalNaive".into()
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new(self.period))
    }
}

/// Autoregression per series via Yule–Walker, warm-startable across
/// T-Daub's growing allocations: [`Forecaster::fit_incremental`] extends the
/// underlying [`IncrementalAr`] moment sums in O(added · order) and stays
/// bit-identical to a full refit (end-aligned blocked summation).
pub struct ArPipeline {
    /// AR order (number of lags).
    pub order: usize,
    models: Vec<IncrementalAr>,
    names: Vec<String>,
    fitted_rows: usize,
}

impl ArPipeline {
    /// New unfitted AR pipeline with the given order (clamped to ≥ 1).
    pub fn new(order: usize) -> Self {
        Self {
            order: order.max(1),
            models: Vec::new(),
            names: Vec::new(),
            fitted_rows: 0,
        }
    }
}

impl Forecaster for ArPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        chaos_fit_gate("AR", frame.len())?;
        self.models.clear();
        self.fitted_rows = 0;
        self.names = frame.names().to_vec();
        for c in 0..frame.n_series() {
            let mut m = IncrementalAr::new(self.order);
            m.fit(frame.series(c))
                .map_err(|e| PipelineError::Fit(e.message))?;
            self.models.push(m);
        }
        if self.models.is_empty() {
            return Err(PipelineError::InvalidInput("empty frame".into()));
        }
        self.fitted_rows = frame.len();
        Ok(())
    }

    fn fit_incremental(
        &mut self,
        frame: &TimeSeriesFrame,
        previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        if self.fitted_rows == 0
            || previous_rows != self.fitted_rows
            || frame.len() < previous_rows
            || frame.n_series() != self.models.len()
        {
            return Ok(false);
        }
        chaos_fit_gate("AR", frame.len())?;
        for (c, m) in self.models.iter_mut().enumerate() {
            match m.fit_extended(frame.series(c), previous_rows) {
                Ok(true) => {}
                // partially-updated models are fine: the executor reacts to
                // `false` with a full `fit`, which resets every model
                Ok(false) => return Ok(false),
                Err(e) => return Err(PipelineError::Fit(e.message)),
            }
        }
        self.fitted_rows = frame.len();
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        if let Some(poisoned) = chaos_predict_gate("AR", horizon, self.models.len()) {
            return Ok(poisoned);
        }
        Ok(forecast_frame(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
        ))
    }

    fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        let poison = chaos_interval_gate("AR", horizon)?;
        native_gaussian_interval(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
            self.models
                .iter()
                .map(|m| m.forecast_variance(horizon))
                .collect(),
            poison,
            levels,
        )
    }

    fn name(&self) -> String {
        "AR".into()
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new(self.order))
    }
}

/// Automatic ARIMA per series (the `Arima` pipeline of Table 6).
///
/// Supports a tier-2 (rank-stable) [`Forecaster::fit_incremental`] warm
/// start: when the new frame provably extends the previously fitted view
/// (fingerprint-verified), the stepwise order search restarts at the
/// previous winner's `(p, q)` and each refit seeds CSS Nelder–Mead from
/// the previous coefficients instead of a cold initialization.
pub struct ArimaPipeline {
    /// Maximum non-seasonal AR order.
    pub max_p: usize,
    /// Maximum non-seasonal MA order.
    pub max_q: usize,
    /// Seasonal period hint (0 = non-seasonal).
    pub m: usize,
    models: Vec<Arima>,
    names: Vec<String>,
    fitted_rows: usize,
    last_fp: Option<FrameFingerprint>,
    budget: Option<Duration>,
}

impl ArimaPipeline {
    /// Auto-ARIMA with the paper's pmdarima-style defaults (max 3/3).
    pub fn new(m: usize) -> Self {
        Self {
            max_p: 3,
            max_q: 3,
            m,
            models: Vec::new(),
            names: Vec::new(),
            fitted_rows: 0,
            last_fp: None,
            budget: None,
        }
    }

    /// Whether any per-series search in the last fit was cut short by the
    /// soft time budget (best-so-far parameters were kept).
    pub fn timed_out(&self) -> bool {
        self.models.iter().any(|m| m.timed_out)
    }
}

impl Forecaster for ArimaPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        chaos_fit_gate("Arima", frame.len())?;
        self.models.clear();
        self.fitted_rows = 0;
        self.last_fp = None;
        self.names = frame.names().to_vec();
        // one absolute deadline shared by every per-series search, so the
        // whole fit honors the budget, not each series separately
        let deadline = self.budget.map(|b| Instant::now() + b);
        for c in 0..frame.n_series() {
            let m =
                auto_arima_with_deadline(frame.series(c), self.max_p, self.max_q, self.m, deadline)
                    .map_err(|e| PipelineError::Fit(e.message))?;
            self.models.push(m);
        }
        if self.models.is_empty() {
            return Err(PipelineError::InvalidInput("empty frame".into()));
        }
        self.fitted_rows = frame.len();
        self.last_fp = Some(frame.fingerprint());
        Ok(())
    }

    fn fit_incremental(
        &mut self,
        frame: &TimeSeriesFrame,
        previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        let Some(old_fp) = self.last_fp.as_ref() else {
            return Ok(false);
        };
        let fp = frame.fingerprint();
        if self.fitted_rows == 0
            || previous_rows != self.fitted_rows
            || frame.len() < previous_rows
            || frame.n_series() != self.models.len()
            || !(fp.extends_as_suffix(old_fp) || fp.extends_as_prefix(old_fp))
        {
            return Ok(false);
        }
        chaos_fit_gate("Arima", frame.len())?;
        // seeded models are built into a fresh vec so a failure mid-way
        // leaves the previous fit untouched for the executor's cold fallback
        let deadline = self.budget.map(|b| Instant::now() + b);
        let mut models = Vec::with_capacity(self.models.len());
        for (c, seed) in self.models.iter().enumerate() {
            let m = auto_arima_seeded_with_deadline(
                frame.series(c),
                self.max_p,
                self.max_q,
                self.m,
                seed,
                deadline,
            )
            .map_err(|e| PipelineError::Fit(e.message))?;
            models.push(m);
        }
        self.models = models;
        self.names = frame.names().to_vec();
        self.fitted_rows = frame.len();
        self.last_fp = Some(fp);
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        if let Some(poisoned) = chaos_predict_gate("Arima", horizon, self.models.len()) {
            return Ok(poisoned);
        }
        Ok(forecast_frame(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
        ))
    }

    fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        let poison = chaos_interval_gate("Arima", horizon)?;
        native_gaussian_interval(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
            self.models
                .iter()
                .map(|m| m.forecast_variance(horizon))
                .collect(),
            poison,
            levels,
        )
    }

    fn name(&self) -> String {
        "Arima".into()
    }

    fn set_time_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self {
            max_p: self.max_p,
            max_q: self.max_q,
            m: self.m,
            models: Vec::new(),
            names: Vec::new(),
            fitted_rows: 0,
            last_fp: None,
            budget: self.budget,
        })
    }
}

/// Holt-Winters per series (HW-Additive / HW-Multiplicative in Table 6).
///
/// Supports a tier-2 (rank-stable) [`Forecaster::fit_incremental`] warm
/// start: forward growth (the previous view is a prefix of the new frame)
/// re-runs the smoothing recursion over the appended rows only —
/// bit-identical to a full recursion at the fitted constants — while
/// reverse growth (T-Daub's allocations, previous view is a suffix)
/// restarts the Nelder–Mead smoothing-constant search from the previous
/// optimum. Both paths are fingerprint-verified with a cold-fit fallback.
pub struct HoltWintersPipeline {
    seasonality: Seasonality,
    models: Vec<HoltWinters>,
    names: Vec<String>,
    fitted_rows: usize,
    last_fp: Option<FrameFingerprint>,
    budget: Option<Duration>,
}

impl HoltWintersPipeline {
    /// Additive triple exponential smoothing with period `m` (0 → trend only).
    pub fn additive(m: usize) -> Self {
        let s = if m >= 2 {
            Seasonality::Additive(m)
        } else {
            Seasonality::None
        };
        Self {
            seasonality: s,
            models: Vec::new(),
            names: Vec::new(),
            fitted_rows: 0,
            last_fp: None,
            budget: None,
        }
    }

    /// Multiplicative triple exponential smoothing with period `m`.
    pub fn multiplicative(m: usize) -> Self {
        let s = if m >= 2 {
            Seasonality::Multiplicative(m)
        } else {
            Seasonality::None
        };
        Self {
            seasonality: s,
            models: Vec::new(),
            names: Vec::new(),
            fitted_rows: 0,
            last_fp: None,
            budget: None,
        }
    }

    /// Whether any per-series constant search in the last fit was cut short
    /// by the soft time budget (best-so-far parameters were kept).
    pub fn timed_out(&self) -> bool {
        self.models.iter().any(|m| m.timed_out)
    }
}

impl Forecaster for HoltWintersPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        chaos_fit_gate(&self.name(), frame.len())?;
        self.models.clear();
        self.fitted_rows = 0;
        self.last_fp = None;
        self.names = frame.names().to_vec();
        // one absolute deadline shared by every per-series search, so the
        // whole fit honors the budget, not each series separately
        let deadline = self.budget.map(|b| Instant::now() + b);
        for c in 0..frame.n_series() {
            // degrade gracefully to non-seasonal when the series is too
            // short for the configured period
            let m = HoltWinters::fit_with_deadline(frame.series(c), self.seasonality, deadline)
                .or_else(|_| {
                    HoltWinters::fit_with_deadline(frame.series(c), Seasonality::None, deadline)
                })
                .map_err(|e| PipelineError::Fit(e.message))?;
            self.models.push(m);
        }
        if self.models.is_empty() {
            return Err(PipelineError::InvalidInput("empty frame".into()));
        }
        self.fitted_rows = frame.len();
        self.last_fp = Some(frame.fingerprint());
        Ok(())
    }

    fn fit_incremental(
        &mut self,
        frame: &TimeSeriesFrame,
        previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        let Some(old_fp) = self.last_fp.as_ref() else {
            return Ok(false);
        };
        let fp = frame.fingerprint();
        if self.fitted_rows == 0
            || previous_rows != self.fitted_rows
            || frame.len() < previous_rows
            || frame.n_series() != self.models.len()
        {
            return Ok(false);
        }
        let appended = frame.len() > previous_rows && fp.extends_as_prefix(old_fp);
        if !appended && !fp.extends_as_suffix(old_fp) {
            return Ok(false);
        }
        chaos_fit_gate(&self.name(), frame.len())?;
        // warm models are built into a fresh vec so a failure mid-way
        // leaves the previous fit untouched for the executor's cold fallback
        let deadline = self.budget.map(|b| Instant::now() + b);
        let mut models = Vec::with_capacity(self.models.len());
        for seed in &self.models {
            let c = models.len();
            let s = frame.series(c);
            let m = if appended && seed.len() == previous_rows {
                // forward growth: continue the smoothing recursion over the
                // appended rows only, keeping the fitted constants
                let mut warm = seed.clone();
                match warm.extend(s.get(previous_rows..).unwrap_or_default()) {
                    Ok(()) => warm,
                    Err(_) => return Ok(false),
                }
            } else {
                // reverse growth: re-optimize from the previous optimum,
                // mirroring `fit`'s graceful non-seasonal degradation
                HoltWinters::fit_seeded_with_deadline(s, self.seasonality, seed, deadline)
                    .or_else(|_| {
                        HoltWinters::fit_seeded_with_deadline(s, Seasonality::None, seed, deadline)
                    })
                    .map_err(|e| PipelineError::Fit(e.message))?
            };
            models.push(m);
        }
        self.models = models;
        self.names = frame.names().to_vec();
        self.fitted_rows = frame.len();
        self.last_fp = Some(fp);
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        if let Some(poisoned) = chaos_predict_gate(&self.name(), horizon, self.models.len()) {
            return Ok(poisoned);
        }
        Ok(forecast_frame(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
        ))
    }

    fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        let poison = chaos_interval_gate(&self.name(), horizon)?;
        native_gaussian_interval(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
            self.models
                .iter()
                .map(|m| m.forecast_variance(horizon))
                .collect(),
            poison,
            levels,
        )
    }

    fn name(&self) -> String {
        match self.seasonality {
            Seasonality::Multiplicative(_) => "HW-Multiplicative".into(),
            _ => "HW-Additive".into(),
        }
    }

    fn set_time_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self {
            seasonality: self.seasonality,
            models: Vec::new(),
            names: Vec::new(),
            fitted_rows: 0,
            last_fp: None,
            budget: self.budget,
        })
    }
}

/// BATS per series (the `bats` pipeline of Table 6).
///
/// Supports a tier-2 (rank-stable) [`Forecaster::fit_incremental`] warm
/// start: both forward growth (appended rows) and reverse growth (T-Daub's
/// suffix allocations) re-fit via [`Bats::fit_seeded_with_deadline`], which
/// pins the component selection (Box-Cox λ, trend, ARMA, periods) found on
/// the previous view and restarts the smoothing-constant search from the
/// previous optimum — skipping the 2×2×2 AIC grid and the golden-section λ
/// search that dominate a cold fit. Fingerprint-verified with a cold-fit
/// fallback, like every other incremental pipeline.
///
/// Seeds go stale: a component selection made on one allocation can be
/// wrong for the next (the AIC winner flips as data grows), and chained
/// warm refits would freeze it forever — far enough from the cold model to
/// perturb T-Daub's ranking. The warm path therefore caps structure age at
/// one refit: after a seeded refit the next `fit_incremental` is refused,
/// forcing the executor's cold fallback to re-run the component search, so
/// warm and cold fits alternate along T-Daub's allocation ladder.
pub struct BatsPipeline {
    /// Candidate seasonal periods handed to the component search.
    pub periods: Vec<usize>,
    models: Vec<Bats>,
    names: Vec<String>,
    fitted_rows: usize,
    /// Consecutive seeded refits since the last full component search.
    warm_streak: usize,
    last_fp: Option<FrameFingerprint>,
    budget: Option<Duration>,
}

impl BatsPipeline {
    /// BATS with the given candidate seasonal periods.
    pub fn new(periods: Vec<usize>) -> Self {
        Self {
            periods,
            models: Vec::new(),
            names: Vec::new(),
            fitted_rows: 0,
            warm_streak: 0,
            last_fp: None,
            budget: None,
        }
    }

    /// Whether any per-series component search in the last fit was cut short
    /// by the soft time budget (the best configuration so far was kept).
    pub fn timed_out(&self) -> bool {
        self.models.iter().any(|m| m.timed_out)
    }
}

impl Forecaster for BatsPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        chaos_fit_gate("bats", frame.len())?;
        self.models.clear();
        self.fitted_rows = 0;
        self.last_fp = None;
        self.names = frame.names().to_vec();
        let config = BatsConfig::with_periods(self.periods.clone());
        // one absolute deadline shared by every per-series search, so the
        // whole fit honors the budget, not each series separately
        let deadline = self.budget.map(|b| Instant::now() + b);
        for c in 0..frame.n_series() {
            let m = Bats::fit_with_deadline(frame.series(c), &config, deadline)
                .map_err(|e| PipelineError::Fit(e.message))?;
            self.models.push(m);
        }
        if self.models.is_empty() {
            return Err(PipelineError::InvalidInput("empty frame".into()));
        }
        self.fitted_rows = frame.len();
        self.warm_streak = 0;
        self.last_fp = Some(frame.fingerprint());
        Ok(())
    }

    fn fit_incremental(
        &mut self,
        frame: &TimeSeriesFrame,
        previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        let Some(old_fp) = self.last_fp.as_ref() else {
            return Ok(false);
        };
        let fp = frame.fingerprint();
        if self.fitted_rows == 0
            || previous_rows != self.fitted_rows
            || frame.len() < previous_rows
            || frame.n_series() != self.models.len()
        {
            return Ok(false);
        }
        let appended = frame.len() > previous_rows && fp.extends_as_prefix(old_fp);
        if !appended && !fp.extends_as_suffix(old_fp) {
            return Ok(false);
        }
        // stale seed: the component structure was chosen two refits ago —
        // refuse the warm path so the executor re-runs the full AIC
        // component search before the selection drifts from a cold fit's
        if self.warm_streak >= 1 {
            return Ok(false);
        }
        chaos_fit_gate("bats", frame.len())?;
        let config = BatsConfig::with_periods(self.periods.clone());
        let deadline = self.budget.map(|b| Instant::now() + b);
        // warm models are built into a fresh vec so a failure mid-way
        // leaves the previous fit untouched for the executor's cold fallback
        let mut models = Vec::with_capacity(self.models.len());
        for seed in &self.models {
            let c = models.len();
            // a structure change (e.g. a period newly feasible on the grown
            // series) rejects the seed — report "not incremental" so the
            // executor falls back to a cold fit with a fresh component search
            let m = match Bats::fit_seeded_with_deadline(frame.series(c), &config, seed, deadline) {
                Ok(m) => m,
                Err(_) => return Ok(false),
            };
            models.push(m);
        }
        self.models = models;
        self.names = frame.names().to_vec();
        self.fitted_rows = frame.len();
        self.warm_streak += 1;
        self.last_fp = Some(fp);
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        if let Some(poisoned) = chaos_predict_gate("bats", horizon, self.models.len()) {
            return Ok(poisoned);
        }
        Ok(forecast_frame(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
        ))
    }

    fn name(&self) -> String {
        "bats".into()
    }

    fn set_time_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        let mut fresh = Self::new(self.periods.clone());
        fresh.budget = self.budget;
        Box::new(fresh)
    }
}

/// Theta method per series (extension pipeline, M3 benchmark favorite).
///
/// Supports a tier-1 (bit-identical) [`Forecaster::fit_incremental`] warm
/// start: Theta has no extendable optimizer state, so the seeded restart
/// ([`ThetaModel::fit_seeded`]) re-sweeps the full α grid in the cold
/// fit's exact order — results match a cold fit to the last bit, and the
/// warm-start win is the fingerprint-verified lineage check (no transform
/// rebuild, no state invalidation). Cold-fit fallback on any mismatch.
#[derive(Default)]
pub struct ThetaPipeline {
    models: Vec<ThetaModel>,
    names: Vec<String>,
    fitted_rows: usize,
    last_fp: Option<FrameFingerprint>,
}

impl ThetaPipeline {
    /// New unfitted pipeline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Forecaster for ThetaPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        self.models.clear();
        self.fitted_rows = 0;
        self.last_fp = None;
        self.names = frame.names().to_vec();
        for c in 0..frame.n_series() {
            let mut m = ThetaModel::new();
            m.fit(frame.series(c))
                .map_err(|e| PipelineError::Fit(e.message))?;
            self.models.push(m);
        }
        if self.models.is_empty() {
            return Err(PipelineError::InvalidInput("empty frame".into()));
        }
        self.fitted_rows = frame.len();
        self.last_fp = Some(frame.fingerprint());
        Ok(())
    }

    fn fit_incremental(
        &mut self,
        frame: &TimeSeriesFrame,
        previous_rows: usize,
    ) -> Result<bool, PipelineError> {
        let Some(old_fp) = self.last_fp.as_ref() else {
            return Ok(false);
        };
        let fp = frame.fingerprint();
        if self.fitted_rows == 0
            || previous_rows != self.fitted_rows
            || frame.len() < previous_rows
            || frame.n_series() != self.models.len()
        {
            return Ok(false);
        }
        let appended = frame.len() > previous_rows && fp.extends_as_prefix(old_fp);
        if !appended && !fp.extends_as_suffix(old_fp) {
            return Ok(false);
        }
        let mut models = Vec::with_capacity(self.models.len());
        for seed in &self.models {
            let c = models.len();
            let mut m = ThetaModel::new();
            if m.fit_seeded(frame.series(c), seed.alpha()).is_err() {
                return Ok(false);
            }
            models.push(m);
        }
        self.models = models;
        self.names = frame.names().to_vec();
        self.fitted_rows = frame.len();
        self.last_fp = Some(fp);
        Ok(true)
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        Ok(forecast_frame(
            &self.names,
            self.models.iter().map(|m| m.forecast(horizon)).collect(),
        ))
    }

    fn name(&self) -> String {
        "Theta".into()
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new())
    }
}

/// GARCH(1,1) conditional-volatility pipeline (extension, the paper's §6
/// "high volatility models" future-work item): each series is modeled as a
/// random walk with drift whose increments follow a GARCH(1,1) variance
/// process. Point forecasts extrapolate the drift; intervals widen with the
/// conditional variance forecast, making this the only pool member whose
/// bands react to volatility clustering.
pub struct GarchPipeline {
    models: Vec<Garch>,
    lasts: Vec<f64>,
    names: Vec<String>,
}

impl GarchPipeline {
    /// New unfitted pipeline.
    pub fn new() -> Self {
        Self {
            models: Vec::new(),
            lasts: Vec::new(),
            names: Vec::new(),
        }
    }
}

impl Default for GarchPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Forecaster for GarchPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        chaos_fit_gate("Garch", frame.len())?;
        self.models.clear();
        self.lasts.clear();
        self.names = frame.names().to_vec();
        for c in 0..frame.n_series() {
            let s = frame.series(c);
            let diffs: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
            let m = Garch::fit(&diffs).map_err(|e| PipelineError::Fit(e.message))?;
            let last = s
                .last()
                .copied()
                .ok_or_else(|| PipelineError::InvalidInput("empty series".into()))?;
            self.models.push(m);
            self.lasts.push(last);
        }
        if self.models.is_empty() {
            return Err(PipelineError::InvalidInput("empty frame".into()));
        }
        Ok(())
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        if let Some(poisoned) = chaos_predict_gate("Garch", horizon, self.models.len()) {
            return Ok(poisoned);
        }
        Ok(forecast_frame(
            &self.names,
            self.models
                .iter()
                .zip(self.lasts.iter())
                .map(|(m, last)| (1..=horizon).map(|h| last + m.mu * h as f64).collect())
                .collect(),
        ))
    }

    fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        if self.models.is_empty() {
            return Err(PipelineError::NotFitted);
        }
        let poison = chaos_interval_gate("Garch", horizon)?;
        // variance of the h-step level forecast is the accumulated
        // conditional variance of the h increments
        let variances: Vec<Vec<f64>> = self
            .models
            .iter()
            .map(|m| {
                let mut acc = 0.0;
                m.forecast_variance(horizon)
                    .into_iter()
                    .map(|v| {
                        acc += v.max(0.0);
                        acc
                    })
                    .collect()
            })
            .collect();
        native_gaussian_interval(
            &self.names,
            self.models
                .iter()
                .zip(self.lasts.iter())
                .map(|(m, last)| (1..=horizon).map(|h| last + m.mu * h as f64).collect())
                .collect(),
            variances,
            poison,
            levels,
        )
    }

    fn name(&self) -> String {
        "Garch".into()
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new())
    }
}

/// MT2RForecaster: multi-target regression — a single direct multi-output
/// linear regression over flattened look-back windows. The fastest ML
/// pipeline in Table 6 (sub-second on every dataset) and a strong baseline
/// on near-linear series.
pub struct Mt2rForecaster {
    /// Look-back window length.
    pub lookback: usize,
    /// Direct forecast horizon trained for.
    pub horizon: usize,
    model: Option<MultiOutputRegressor>,
    train_tail: Option<TimeSeriesFrame>,
    names: Vec<String>,
}

impl Mt2rForecaster {
    /// New MT2R with the given look-back and direct horizon.
    pub fn new(lookback: usize, horizon: usize) -> Self {
        Self {
            lookback: lookback.max(1),
            horizon: horizon.max(1),
            model: None,
            train_tail: None,
            names: Vec::new(),
        }
    }
}

impl Forecaster for Mt2rForecaster {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        chaos_fit_gate("MT2RForecaster", frame.len())?;
        self.names = frame.names().to_vec();
        // shrink look-back for short series so at least 4 windows exist
        let max_lb = frame.len().saturating_sub(self.horizon + 4).max(1);
        self.lookback = self.lookback.min(max_lb);
        let ds = flatten_windows(frame, self.lookback, self.horizon);
        if ds.is_empty() {
            return Err(PipelineError::InvalidInput(format!(
                "series of length {} too short for lookback {} + horizon {}",
                frame.len(),
                self.lookback,
                self.horizon
            )));
        }
        let mut model = MultiOutputRegressor::new(Box::new(LinearRegression::new()));
        model
            .fit(&ds.x, &ds.y)
            .map_err(|e| PipelineError::Fit(e.message))?;
        self.model = Some(model);
        self.train_tail = Some(frame.tail(self.lookback + self.horizon).into_owned());
        Ok(())
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let model = self.model.as_ref().ok_or(PipelineError::NotFitted)?;
        let tail = self.train_tail.as_ref().ok_or(PipelineError::NotFitted)?;
        let n_series = tail.n_series();
        if let Some(poisoned) = chaos_predict_gate("MT2RForecaster", horizon, n_series) {
            return Ok(poisoned);
        }
        let mut work = tail.clone();
        let mut out: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); n_series];
        let mut produced = 0usize;
        while produced < horizon {
            let features = latest_window(&work, self.lookback)
                .ok_or_else(|| PipelineError::InvalidInput("window unavailable".into()))?;
            let pred = model.predict_row(&features); // horizon * n_series, series-major
            let take = self.horizon.min(horizon - produced);
            let mut cols: Vec<Vec<f64>> = Vec::with_capacity(n_series);
            for c in 0..n_series {
                let seg = &pred[c * self.horizon..(c + 1) * self.horizon];
                out[c].extend_from_slice(&seg[..take]);
                cols.push(seg.to_vec());
            }
            work.append(&TimeSeriesFrame::from_columns(cols));
            produced += take;
        }
        Ok(forecast_frame(&self.names, out))
    }

    fn name(&self) -> String {
        "MT2RForecaster".into()
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new(self.lookback, self.horizon))
    }
}

/// Deep-learning pipeline: a direct multi-step MLP over flattened windows.
///
/// Deliberately has **no** `fit_incremental` warm start: continued SGD from
/// previous weights lands in a different optimum than a cold fit, and the
/// holdout-score drift is large enough to violate the executor's
/// rank-stability contract (unlike the seeded statistical fits, there is no
/// cheap way to bound the divergence).
pub struct NeuralPipeline {
    /// Look-back window length.
    pub lookback: usize,
    /// Direct forecast horizon trained for.
    pub horizon: usize,
    config: MlpConfig,
    model: Option<Mlp>,
    /// Gaussian-NLL head: a second MLP trained with heteroscedastic loss;
    /// only its dispersion output is used, the point forecast stays the
    /// MSE model's.
    nll: Option<Mlp>,
    train_tail: Option<TimeSeriesFrame>,
    names: Vec<String>,
}

impl NeuralPipeline {
    /// New neural pipeline with default MLP hyperparameters.
    pub fn new(lookback: usize, horizon: usize) -> Self {
        Self {
            lookback: lookback.max(1),
            horizon: horizon.max(1),
            config: MlpConfig {
                epochs: 40,
                ..Default::default()
            },
            model: None,
            nll: None,
            train_tail: None,
            names: Vec::new(),
        }
    }
}

impl Forecaster for NeuralPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        self.names = frame.names().to_vec();
        let max_lb = frame.len().saturating_sub(self.horizon + 4).max(1);
        self.lookback = self.lookback.min(max_lb);
        let ds = flatten_windows(frame, self.lookback, self.horizon);
        if ds.is_empty() {
            return Err(PipelineError::InvalidInput(
                "series too short for neural windows".into(),
            ));
        }
        let mut mlp = Mlp::new(self.config.clone());
        mlp.fit(&ds.x, &ds.y)
            .map_err(|e| PipelineError::Fit(e.message))?;
        self.model = Some(mlp);
        // uncertainty head at reduced epochs; a failed head is not fatal —
        // predict_interval errors and the caller conformal-wraps instead
        let mut nll = Mlp::new(MlpConfig {
            loss: Loss::GaussianNll,
            epochs: (self.config.epochs / 2).max(10),
            ..self.config.clone()
        });
        self.nll = match nll.fit(&ds.x, &ds.y) {
            Ok(()) => Some(nll),
            Err(_) => None,
        };
        self.train_tail = Some(frame.tail(self.lookback + self.horizon).into_owned());
        Ok(())
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let model = self.model.as_ref().ok_or(PipelineError::NotFitted)?;
        let tail = self.train_tail.as_ref().ok_or(PipelineError::NotFitted)?;
        let n_series = tail.n_series();
        let mut work = tail.clone();
        let mut out: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); n_series];
        let mut produced = 0usize;
        while produced < horizon {
            let features = latest_window(&work, self.lookback)
                .ok_or_else(|| PipelineError::InvalidInput("window unavailable".into()))?;
            let pred = model.predict_row(&features);
            let take = self.horizon.min(horizon - produced);
            let mut cols: Vec<Vec<f64>> = Vec::with_capacity(n_series);
            for c in 0..n_series {
                let seg = &pred[c * self.horizon..(c + 1) * self.horizon];
                out[c].extend_from_slice(&seg[..take]);
                cols.push(seg.to_vec());
            }
            work.append(&TimeSeriesFrame::from_columns(cols));
            produced += take;
        }
        Ok(forecast_frame(&self.names, out))
    }

    fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        let model = self.model.as_ref().ok_or(PipelineError::NotFitted)?;
        let tail = self.train_tail.as_ref().ok_or(PipelineError::NotFitted)?;
        let nll = self
            .nll
            .as_ref()
            .ok_or_else(|| PipelineError::InvalidInput("Gaussian-NLL head unavailable".into()))?;
        let poison = chaos_interval_gate("NeuralWindow", horizon)?;
        let n_series = tail.n_series();
        // same recursion as `predict` for the point path; the NLL head runs
        // on the identical features and contributes only the dispersion
        let mut work = tail.clone();
        let mut out: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); n_series];
        let mut stds: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); n_series];
        let mut produced = 0usize;
        while produced < horizon {
            let features = latest_window(&work, self.lookback)
                .ok_or_else(|| PipelineError::InvalidInput("window unavailable".into()))?;
            let pred = model.predict_row(&features);
            let dist = nll.predict_distribution(&features);
            let take = self.horizon.min(horizon - produced);
            let mut cols: Vec<Vec<f64>> = Vec::with_capacity(n_series);
            for c in 0..n_series {
                let seg = &pred[c * self.horizon..(c + 1) * self.horizon];
                out[c].extend_from_slice(&seg[..take]);
                let dseg = &dist[c * self.horizon..(c + 1) * self.horizon];
                stds[c].extend(dseg.iter().take(take).map(|(_, sd)| {
                    if poison {
                        f64::NAN
                    } else {
                        sd.abs()
                    }
                }));
                cols.push(seg.to_vec());
            }
            work.append(&TimeSeriesFrame::from_columns(cols));
            produced += take;
        }
        IntervalForecast::from_gaussian(
            forecast_frame(&self.names, out),
            levels,
            &stds,
            IntervalSource::Native,
        )
    }

    fn name(&self) -> String {
        "NeuralWindow".into()
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new(self.lookback, self.horizon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoai_tsdata::Metric;

    fn seasonal_frame(n: usize) -> TimeSeriesFrame {
        TimeSeriesFrame::univariate(
            (0..n)
                .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
                .collect(),
        )
    }

    #[test]
    fn zero_model_pipeline_repeats_last() {
        let mut p = ZeroModelPipeline::new();
        p.fit(&TimeSeriesFrame::from_columns(vec![
            vec![1.0, 2.0],
            vec![5.0, 9.0],
        ]))
        .unwrap();
        let f = p.predict(3).unwrap();
        assert_eq!(f.series(0), &[2.0, 2.0, 2.0]);
        assert_eq!(f.series(1), &[9.0, 9.0, 9.0]);
    }

    #[test]
    fn arima_pipeline_multivariate() {
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|c| (0..150).map(|i| (c as f64 + 1.0) * i as f64).collect())
            .collect();
        let mut p = ArimaPipeline::new(0);
        p.fit(&TimeSeriesFrame::from_columns(cols)).unwrap();
        let f = p.predict(4).unwrap();
        assert_eq!(f.n_series(), 2);
        // linear series keep climbing
        assert!(f.series(0)[3] > 149.0);
        assert!(f.series(1)[3] > 299.0);
    }

    #[test]
    fn hw_pipeline_seasonal_forecast() {
        let mut p = HoltWintersPipeline::additive(12);
        p.fit(&seasonal_frame(120)).unwrap();
        let f = p.predict(12).unwrap();
        let truth: Vec<f64> = (120..132)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 5.0, "HW smape {smape}");
    }

    #[test]
    fn hw_multiplicative_degrades_on_short_series() {
        let mut p = HoltWintersPipeline::multiplicative(50);
        // 20 points, too short for period 50 → falls back to non-seasonal
        p.fit(&TimeSeriesFrame::univariate(
            (1..=20).map(|i| i as f64).collect(),
        ))
        .unwrap();
        let f = p.predict(2).unwrap();
        assert!(f.series(0)[0] > 18.0);
    }

    #[test]
    fn bats_pipeline_runs() {
        let mut p = BatsPipeline::new(vec![12]);
        p.fit(&seasonal_frame(120)).unwrap();
        let s = p
            .score(&seasonal_frame(132).slice(120, 132), Metric::Smape)
            .unwrap();
        assert!(s < 10.0, "bats smape {s}");
    }

    #[test]
    fn mt2r_learns_seasonal_linear_structure() {
        let mut p = Mt2rForecaster::new(12, 6);
        let frame = seasonal_frame(200);
        p.fit(&frame).unwrap();
        let f = p.predict(6).unwrap();
        let truth: Vec<f64> = (200..206)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 3.0, "mt2r smape {smape}");
    }

    #[test]
    fn mt2r_extends_beyond_trained_horizon_recursively() {
        let mut p = Mt2rForecaster::new(12, 4);
        p.fit(&seasonal_frame(200)).unwrap();
        let f = p.predict(10).unwrap();
        assert_eq!(f.len(), 10);
        assert!(f.series(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mt2r_shrinks_lookback_for_short_series() {
        let mut p = Mt2rForecaster::new(50, 2);
        p.fit(&TimeSeriesFrame::univariate(
            (0..30).map(|i| i as f64).collect(),
        ))
        .unwrap();
        assert!(p.lookback < 50);
        let f = p.predict(2).unwrap();
        assert!(f.series(0)[0] > 25.0);
    }

    #[test]
    fn theta_pipeline_runs() {
        let mut p = ThetaPipeline::new();
        p.fit(&seasonal_frame(100)).unwrap();
        assert_eq!(p.predict(5).unwrap().len(), 5);
    }

    #[test]
    fn neural_pipeline_fits_seasonal() {
        let mut p = NeuralPipeline::new(12, 4);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(4).unwrap();
        let truth: Vec<f64> = (300..304)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 15.0, "neural smape {smape}");
    }

    #[test]
    fn predict_before_fit_errors() {
        assert!(matches!(
            ZeroModelPipeline::new().predict(3),
            Err(PipelineError::NotFitted)
        ));
        assert!(matches!(
            Mt2rForecaster::new(4, 2).predict(3),
            Err(PipelineError::NotFitted)
        ));
    }

    #[test]
    fn clone_unfitted_produces_same_name() {
        let p = HoltWintersPipeline::multiplicative(12);
        assert_eq!(p.clone_unfitted().name(), "HW-Multiplicative");
    }

    #[test]
    fn seasonal_naive_repeats_trailing_season() {
        let mut p = SeasonalNaivePipeline::new(4);
        p.fit(&TimeSeriesFrame::univariate(
            (0..16).map(|i| (i % 4) as f64).collect(),
        ))
        .unwrap();
        let f = p.predict(6).unwrap();
        assert_eq!(f.series(0), &[0.0, 1.0, 2.0, 3.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_model_incremental_matches_full_fit() {
        let frame = seasonal_frame(200);
        let mut inc = ZeroModelPipeline::new();
        inc.fit(&frame.tail(60)).unwrap();
        assert!(inc.fit_incremental(&frame, 60).unwrap());
        let mut full = ZeroModelPipeline::new();
        full.fit(&frame).unwrap();
        assert_eq!(
            inc.predict(5).unwrap().to_rows(),
            full.predict(5).unwrap().to_rows()
        );
        // wrong previous_rows → refuses
        assert!(!inc.fit_incremental(&frame, 60).unwrap());
    }

    #[test]
    fn seasonal_naive_incremental_matches_full_fit() {
        let frame = seasonal_frame(200);
        let mut inc = SeasonalNaivePipeline::new(12);
        inc.fit(&frame.tail(50)).unwrap();
        assert!(inc.fit_incremental(&frame, 50).unwrap());
        let mut full = SeasonalNaivePipeline::new(12);
        full.fit(&frame).unwrap();
        assert_eq!(
            inc.predict(24).unwrap().to_rows(),
            full.predict(24).unwrap().to_rows()
        );
    }

    #[test]
    fn seasonal_naive_incremental_refuses_short_previous_fit() {
        // previous fit shorter than the period stored a truncated tail: a
        // warm start would keep the wrong state
        let frame = seasonal_frame(100);
        let mut p = SeasonalNaivePipeline::new(12);
        p.fit(&frame.tail(8)).unwrap();
        assert!(!p.fit_incremental(&frame, 8).unwrap());
    }

    #[test]
    fn ar_pipeline_incremental_is_bit_identical() {
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|c| {
                (0..400)
                    .map(|i| {
                        20.0 + (c as f64 + 1.0)
                            * (2.0 * std::f64::consts::PI * i as f64 / 11.0).sin()
                    })
                    .collect()
            })
            .collect();
        let frame = TimeSeriesFrame::from_columns(cols);
        let mut inc = ArPipeline::new(4);
        inc.fit(&frame.tail(150)).unwrap();
        assert!(inc.fit_incremental(&frame, 150).unwrap());
        let mut full = ArPipeline::new(4);
        full.fit(&frame).unwrap();
        let (fi, ff) = (inc.predict(10).unwrap(), full.predict(10).unwrap());
        for c in 0..2 {
            let a: Vec<u64> = fi.series(c).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = ff.series(c).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "series {c} diverged");
        }
    }

    #[test]
    fn hw_pipeline_incremental_reverse_growth_warm_starts() {
        let frame = seasonal_frame(240);
        let mut warm = HoltWintersPipeline::additive(12);
        // previous fit on the trailing 150 rows (T-Daub reverse allocation)
        warm.fit(&frame.slice(90, 240)).unwrap();
        assert!(warm.fit_incremental(&frame, 150).unwrap());
        let mut cold = HoltWintersPipeline::additive(12);
        cold.fit(&frame).unwrap();
        let (fw, fc) = (warm.predict(12).unwrap(), cold.predict(12).unwrap());
        for (a, b) in fw.series(0).iter().zip(fc.series(0)) {
            assert!(a.is_finite());
            assert!((a - b).abs() < 0.5, "warm {a} vs cold {b}");
        }
    }

    #[test]
    fn hw_pipeline_incremental_forward_growth_extends() {
        let frame = seasonal_frame(240);
        let mut p = HoltWintersPipeline::additive(12);
        p.fit(&frame.slice(0, 180)).unwrap();
        // forward growth: rows are appended at the end of the fitted view
        assert!(p.fit_incremental(&frame, 180).unwrap());
        let f = p.predict(12).unwrap();
        let truth: Vec<f64> = (240..252)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 5.0, "extended HW smape {smape}");
    }

    #[test]
    fn hw_pipeline_incremental_refuses_unrelated_frame() {
        let mut p = HoltWintersPipeline::additive(12);
        p.fit(&seasonal_frame(120)).unwrap();
        // a fresh frame with different buffers cannot be proven to extend
        // the fitted view, even with a "plausible" previous_rows
        assert!(!p.fit_incremental(&seasonal_frame(150), 120).unwrap());
    }

    #[test]
    fn arima_pipeline_incremental_reverse_growth_warm_starts() {
        let frame = TimeSeriesFrame::univariate(
            (0..220)
                .map(|i| 50.0 + 0.4 * i as f64 + (i as f64 * 0.9).sin())
                .collect(),
        );
        let mut warm = ArimaPipeline::new(0);
        warm.fit(&frame.slice(80, 220)).unwrap();
        assert!(warm.fit_incremental(&frame, 140).unwrap());
        let mut cold = ArimaPipeline::new(0);
        cold.fit(&frame).unwrap();
        let (fw, fc) = (warm.predict(6).unwrap(), cold.predict(6).unwrap());
        for (a, b) in fw.series(0).iter().zip(fc.series(0)) {
            assert!(a.is_finite());
            assert!((a - b).abs() < 2.0, "warm {a} vs cold {b}");
        }
    }

    #[test]
    fn arima_pipeline_incremental_refuses_wrong_previous_rows() {
        let frame = TimeSeriesFrame::univariate((0..160).map(|i| 10.0 + 0.3 * i as f64).collect());
        let mut p = ArimaPipeline::new(0);
        p.fit(&frame.slice(40, 160)).unwrap();
        assert!(!p.fit_incremental(&frame, 100).unwrap());
    }

    #[test]
    fn ar_pipeline_forecasts_seasonal() {
        let mut p = ArPipeline::new(12);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(6).unwrap();
        let truth: Vec<f64> = (300..306)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 10.0, "AR smape {smape}");
    }

    fn noisy_frame(n: usize) -> TimeSeriesFrame {
        // deterministic pseudo-noise so interval widths are non-degenerate
        TimeSeriesFrame::univariate(
            (0..n)
                .map(|i| 50.0 + (i as f64 * 0.7).sin() * 3.0 + ((i * 7919) % 13) as f64 * 0.3)
                .collect(),
        )
    }

    fn assert_native_bands(p: &dyn Forecaster, horizon: usize) {
        let iv = p
            .predict_interval(horizon, &crate::interval::DEFAULT_LEVELS)
            .unwrap();
        assert_eq!(iv.horizon(), horizon);
        assert_eq!(iv.source(), IntervalSource::Native);
        let point = p.predict(horizon).unwrap();
        // interval point path matches the plain forecast
        for (a, b) in iv.point().series(0).iter().zip(point.series(0)) {
            assert!((a - b).abs() < 1e-9, "interval point {a} != predict {b}");
        }
        let (lo80, _) = iv.band(0).unwrap();
        let (lo95, hi95) = iv.band(1).unwrap();
        // wider level is wider, and everything is finite (constructor
        // guarantees bracketing/nesting, spot-check anyway)
        for t in 0..horizon {
            assert!(lo95.series(0)[t] <= lo80.series(0)[t]);
            assert!(hi95.series(0)[t].is_finite());
        }
    }

    #[test]
    fn zero_model_interval_widens_with_horizon() {
        let mut p = ZeroModelPipeline::new();
        p.fit(&noisy_frame(100)).unwrap();
        assert_native_bands(&p, 8);
        let iv = p.predict_interval(8, &[0.9]).unwrap();
        let (lo, hi) = iv.band(0).unwrap();
        let w1 = hi.series(0)[0] - lo.series(0)[0];
        let w8 = hi.series(0)[7] - lo.series(0)[7];
        assert!(w1 > 0.0, "degenerate first-step width");
        assert!(w8 > w1, "random-walk bands must widen: {w1} vs {w8}");
    }

    #[test]
    fn ar_and_hw_intervals_are_native_and_nested() {
        let mut ar = ArPipeline::new(6);
        ar.fit(&noisy_frame(200)).unwrap();
        assert_native_bands(&ar, 10);

        let mut hw = HoltWintersPipeline::additive(12);
        hw.fit(&seasonal_frame(120)).unwrap();
        assert_native_bands(&hw, 12);
    }

    #[test]
    fn arima_interval_is_native_and_nested() {
        let mut p = ArimaPipeline::new(0);
        p.fit(&noisy_frame(150)).unwrap();
        assert_native_bands(&p, 6);
    }

    #[test]
    fn garch_pipeline_fits_and_bands_widen() {
        let mut p = GarchPipeline::new();
        p.fit(&noisy_frame(120)).unwrap();
        assert_native_bands(&p, 8);
        let iv = p.predict_interval(8, &[0.9]).unwrap();
        let (lo, hi) = iv.band(0).unwrap();
        let w1 = hi.series(0)[0] - lo.series(0)[0];
        let w8 = hi.series(0)[7] - lo.series(0)[7];
        assert!(w8 > w1, "accumulated GARCH variance must widen bands");
    }

    #[test]
    fn garch_pipeline_rejects_short_series() {
        let mut p = GarchPipeline::new();
        assert!(p
            .fit(&TimeSeriesFrame::univariate(
                (0..10).map(|i| i as f64).collect()
            ))
            .is_err());
    }

    #[test]
    fn neural_pipeline_interval_uses_nll_head() {
        let mut p = NeuralPipeline::new(12, 4);
        p.fit(&seasonal_frame(300)).unwrap();
        let iv = p
            .predict_interval(6, &crate::interval::DEFAULT_LEVELS)
            .unwrap();
        assert_eq!(iv.source(), IntervalSource::Native);
        assert_eq!(iv.horizon(), 6);
        let (lo, hi) = iv.band(1).unwrap();
        for t in 0..6 {
            assert!(lo.series(0)[t].is_finite() && hi.series(0)[t].is_finite());
            assert!(lo.series(0)[t] <= hi.series(0)[t]);
        }
    }

    #[test]
    fn interval_before_fit_errors() {
        assert!(ZeroModelPipeline::new()
            .predict_interval(3, &[0.8])
            .is_err());
        assert!(GarchPipeline::new().predict_interval(3, &[0.8]).is_err());
        assert!(ArPipeline::new(2).predict_interval(3, &[0.8]).is_err());
    }
}
