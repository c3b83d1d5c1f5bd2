//! BATS: Box-Cox transform, ARMA errors, Trend and Seasonal components
//! (De Livera, Hyndman & Snyder 2011), cited directly by the paper [24].
//!
//! This is a pragmatic from-scratch reimplementation: the innovations state
//! space of the original is replaced by an exponential-smoothing recursion
//! with (a) optional Box-Cox transformation of the observations, (b)
//! optional linear trend, (c) additive seasonal components for *multiple*
//! seasonal periods in the transformed space, and (d) an optional ARMA(1,1)
//! model on the one-step residuals. Component inclusion is selected by AIC
//! over the 2×2×2 grid (Box-Cox × trend × ARMA), exactly the spirit of the
//! reference implementation's automatic component search.

use std::time::Instant;

use autoai_linalg::{nelder_mead_budgeted, NelderMeadOptions};

use crate::arima::{Arima, ArimaSpec};
use crate::FitError;

/// Configuration of the BATS component search.
#[derive(Debug, Clone, Default)]
pub struct BatsConfig {
    /// Force Box-Cox usage (`None` = try both and pick by AIC).
    pub use_box_cox: Option<bool>,
    /// Force trend usage (`None` = try both).
    pub use_trend: Option<bool>,
    /// Force ARMA error correction (`None` = try both).
    pub use_arma: Option<bool>,
    /// Candidate seasonal periods (empty = non-seasonal).
    pub seasonal_periods: Vec<usize>,
}

impl BatsConfig {
    /// Non-seasonal automatic BATS.
    pub fn auto() -> Self {
        Self::default()
    }

    /// Automatic BATS with the given seasonal periods.
    pub fn with_periods(periods: Vec<usize>) -> Self {
        Self {
            seasonal_periods: periods,
            ..Self::default()
        }
    }
}

/// Final state of one pass of the smoothing recursion over a series.
#[derive(Debug, Clone)]
pub struct SmoothingState {
    /// Level after the last observation.
    pub level: f64,
    /// Trend after the last observation (0 without a trend component).
    pub trend: f64,
    /// One seasonal index vector per period.
    pub seasonals: Vec<Vec<f64>>,
    /// One-step errors of the observations after the warm-up (the first
    /// `max(periods, 2)` observations).
    pub residuals: Vec<f64>,
    /// Sum of squared residuals.
    pub sse: f64,
}

/// The additive multi-seasonal smoothing recursion over one series.
///
/// The parameter-invariant start (initial level, trend and seasonal
/// indices) is computed once and the seasonal buffers are reused by every
/// pass, so an objective evaluation of the smoothing-constant search
/// allocates nothing (with up to six periods). Each period keeps a phase
/// cursor instead of taking `t % m`, and each period's current seasonal
/// index is loaded once per step; sums run over those loaded values in
/// period order, so a pass is operation for operation the textbook
/// `t % m` recursion. Public so parity tests and benches can drive the
/// recursion directly.
pub struct Smoother<'a> {
    y: &'a [f64],
    periods: &'a [usize],
    use_trend: bool,
    /// Observations before the first scored one-step error.
    warmup: usize,
    start_level: f64,
    start_trend: f64,
    start_seasonals: Vec<Vec<f64>>,
    /// Working seasonal index vectors, reset to the start on every pass.
    seasonals: Vec<Vec<f64>>,
}

impl<'a> Smoother<'a> {
    /// Initialize the recursion on `y`: the level starts at the mean of the
    /// warm-up, each period's indices at its first one or two cycles. `None`
    /// when `y` is shorter than the warm-up or a period is zero.
    pub fn new(y: &'a [f64], use_trend: bool, periods: &'a [usize]) -> Option<Self> {
        let warmup = periods.iter().copied().max().unwrap_or(1).max(2);
        let base = autoai_linalg::mean(y.get(..warmup)?);
        let start_seasonals = periods
            .iter()
            .map(|&m| {
                let mut idx = vec![0.0; m];
                let cycles = y.len().checked_div(m)?;
                let use_cycles = cycles.clamp(1, 2);
                for (j, v) in idx.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for c in 0..use_cycles {
                        // c < cycles and j < m, so c*m + j < cycles*m <= len
                        s += y.get(c * m + j).copied().unwrap_or(base);
                    }
                    *v = s / use_cycles as f64 - base;
                }
                // divide initial effect among overlapping periods
                if periods.len() > 1 {
                    for v in idx.iter_mut() {
                        *v /= periods.len() as f64;
                    }
                }
                Some(idx)
            })
            .collect::<Option<Vec<Vec<f64>>>>()?;
        let start_trend = if use_trend && y.len() > warmup {
            (y.get(warmup)? - y.first()?) / warmup as f64
        } else {
            0.0
        };
        Some(Self {
            y,
            periods,
            use_trend,
            warmup,
            start_level: base,
            start_trend,
            seasonals: start_seasonals.clone(),
            start_seasonals,
        })
    }

    /// SSE of one pass with the given smoothing constants; `None` when a
    /// one-step error is non-finite.
    pub fn sse(&mut self, alpha: f64, beta: f64, gammas: &[f64]) -> Option<f64> {
        self.run(alpha, beta, gammas, None).map(|(_, _, sse)| sse)
    }

    /// One pass with the given smoothing constants, keeping its residuals
    /// and final state; `None` when a one-step error is non-finite.
    pub fn pass(&mut self, alpha: f64, beta: f64, gammas: &[f64]) -> Option<SmoothingState> {
        let mut residuals = Vec::with_capacity(self.y.len().saturating_sub(self.warmup));
        let (level, trend, sse) = self.run(alpha, beta, gammas, Some(&mut residuals))?;
        Some(SmoothingState {
            level,
            trend,
            seasonals: self.seasonals.clone(),
            residuals,
            sse,
        })
    }

    /// The recursion itself: returns the final `(level, trend, sse)` and
    /// leaves the final seasonal indices in `self.seasonals`. For up to six
    /// periods the per-period state lives in fixed-size stack arrays, which
    /// lets the compiler unroll the per-period loops and keep that state in
    /// registers across the seasonal-index stores; more periods use heap
    /// vectors. Both run the same code.
    fn run(
        &mut self,
        alpha: f64,
        beta: f64,
        gammas: &[f64],
        residuals: Option<&mut Vec<f64>>,
    ) -> Option<(f64, f64, f64)> {
        match self.periods.len() {
            0 => self.run_in([0.0; 0], [0; 0], alpha, beta, gammas, residuals),
            1 => self.run_in([0.0; 1], [0; 1], alpha, beta, gammas, residuals),
            2 => self.run_in([0.0; 2], [0; 2], alpha, beta, gammas, residuals),
            3 => self.run_in([0.0; 3], [0; 3], alpha, beta, gammas, residuals),
            4 => self.run_in([0.0; 4], [0; 4], alpha, beta, gammas, residuals),
            5 => self.run_in([0.0; 5], [0; 5], alpha, beta, gammas, residuals),
            6 => self.run_in([0.0; 6], [0; 6], alpha, beta, gammas, residuals),
            p => self.run_in(vec![0.0; p], vec![0; p], alpha, beta, gammas, residuals),
        }
    }

    /// [`Smoother::run`] with per-period buffers built from `zeros` (one
    /// 0.0 per period) and `cursors` (one 0 per period).
    fn run_in<F, U>(
        &mut self,
        zeros: F,
        cursors: U,
        alpha: f64,
        beta: f64,
        gammas: &[f64],
        mut residuals: Option<&mut Vec<f64>>,
    ) -> Option<(f64, f64, f64)>
    where
        F: AsRef<[f64]> + AsMut<[f64]> + Clone,
        U: AsRef<[usize]> + AsMut<[usize]> + Clone,
    {
        // each period's seasonal index at step t
        let mut current = zeros.clone();
        // each period's γ; a missing one is 0
        let mut gamma = zeros;
        for (g, &v) in gamma.as_mut().iter_mut().zip(gammas) {
            *g = v;
        }
        // each period's phase cursor: the index of step t in its seasonal
        // vector, `t % m` without the division
        let mut phase = cursors.clone();
        let mut period = cursors;
        for (m, &v) in period.as_mut().iter_mut().zip(self.periods) {
            *m = v;
        }
        for (s, start) in self.seasonals.iter_mut().zip(&self.start_seasonals) {
            s.copy_from_slice(start);
        }
        let mut level = self.start_level;
        let mut trend = self.start_trend;
        let mut sse = 0.0;
        for (t, &x) in self.y.iter().enumerate() {
            for ((c, s), &p) in current
                .as_mut()
                .iter_mut()
                .zip(&self.seasonals)
                .zip(phase.as_ref())
            {
                *c = s.get(p).copied().unwrap_or_default();
            }
            let season_sum: f64 = current.as_ref().iter().sum();
            let fitted = level + trend + season_sum;
            let err = x - fitted;
            if !err.is_finite() {
                return None;
            }
            if t >= self.warmup {
                sse += err * err;
                if let Some(r) = residuals.as_deref_mut() {
                    r.push(err);
                }
            }
            let prev_level = level;
            level = alpha * (x - season_sum) + (1.0 - alpha) * (level + trend);
            if self.use_trend {
                trend = beta * (level - prev_level) + (1.0 - beta) * trend;
            }
            // period j sees the indices of periods k < j already updated
            // at this step, exactly as in the in-place `t % m` recursion
            for (j, &g) in gamma.as_ref().iter().enumerate() {
                let other: f64 = current
                    .as_ref()
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != j)
                    .map(|(_, &v)| v)
                    .sum();
                if let Some(c) = current.as_mut().get_mut(j) {
                    *c = g * (x - level - other) + (1.0 - g) * *c;
                }
            }
            for (((s, p), &c), &m) in self
                .seasonals
                .iter_mut()
                .zip(phase.as_mut().iter_mut())
                .zip(current.as_ref())
                .zip(period.as_ref())
            {
                if let Some(slot) = s.get_mut(*p) {
                    *slot = c;
                }
                *p += 1;
                if *p >= m {
                    *p = 0;
                }
            }
        }
        Some((level, trend, sse))
    }
}

/// The exponential-smoothing core of one component configuration.
#[derive(Debug, Clone)]
struct EsFit {
    state: SmoothingState,
    trend: bool,
    alpha: f64,
    beta: f64,
    gammas: Vec<f64>,
    /// Raw (pre-sigmoid) optimizer vector at the optimum — the seed for warm
    /// restarts via [`Bats::fit_seeded_with_deadline`].
    raw: Vec<f64>,
    /// True when the deadline cut the smoothing-constant search short.
    timed_out: bool,
}

/// A fitted BATS model.
#[derive(Debug, Clone)]
pub struct Bats {
    /// Box-Cox λ (`None` when the transform was not selected).
    pub lambda: Option<f64>,
    /// Offset added before Box-Cox to ensure positivity.
    offset: f64,
    /// Whether a linear trend component was selected.
    pub has_trend: bool,
    /// Seasonal periods in use.
    pub periods: Vec<usize>,
    /// Whether ARMA error correction was selected.
    pub has_arma: bool,
    es: EsFit,
    arma: Option<Arima>,
    /// AIC of the selected configuration.
    pub aic: f64,
    /// True when a fit deadline expired before the component grid (or the
    /// smoothing-constant search inside it) finished; the model is the best
    /// configuration found so far.
    pub timed_out: bool,
    n: usize,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn box_cox(v: f64, lambda: f64) -> f64 {
    if lambda.abs() < 1e-6 {
        v.max(1e-12).ln()
    } else {
        (v.max(1e-12).powf(lambda) - 1.0) / lambda
    }
}

fn box_cox_inv(y: f64, lambda: f64) -> f64 {
    if lambda.abs() < 1e-6 {
        y.exp()
    } else {
        (lambda * y + 1.0).max(1e-12).powf(1.0 / lambda)
    }
}

/// Shift that makes `series` strictly positive for the Box-Cox transform.
fn positivity_offset(series: &[f64]) -> f64 {
    let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
    if min <= 0.0 {
        1.0 - min
    } else {
        0.0
    }
}

/// Map a raw optimizer vector to the smoothing constants: returns `(α, β)`
/// and writes one γ per period into `gammas`. The vector always has the
/// search's dimension; a defensive 0.0 (sigmoid → 0.5) keeps the lookups
/// total.
fn smoothing_constants(raw: &[f64], use_trend: bool, gammas: &mut [f64]) -> (f64, f64) {
    let raw_at = |i: usize| raw.get(i).copied().unwrap_or(0.0);
    let alpha = sigmoid(raw_at(0));
    let beta = if use_trend { sigmoid(raw_at(1)) } else { 0.0 };
    for (g, i) in gammas.iter_mut().zip(2..) {
        *g = sigmoid(raw_at(i)) * 0.5;
    }
    (alpha, beta)
}

impl Bats {
    /// The optimized smoothing constants `(α, β, γ_per_period)`.
    pub fn smoothing_params(&self) -> (f64, f64, &[f64]) {
        (self.es.alpha, self.es.beta, &self.es.gammas)
    }

    /// Fit a BATS model with automatic component selection by AIC.
    pub fn fit(series: &[f64], config: &BatsConfig) -> Result<Self, FitError> {
        Self::fit_with_deadline(series, config, None)
    }

    /// The seasonal periods of `config` that fit twice into `series`, after
    /// checking that the series is finite and long enough for them.
    /// Infeasible requested periods are silently dropped, matching the
    /// reference implementation's behavior on short series.
    fn feasible_periods(series: &[f64], config: &BatsConfig) -> Result<Vec<usize>, FitError> {
        if series.iter().any(|v| !v.is_finite()) {
            return Err(FitError::new("series contains non-finite values"));
        }
        let periods: Vec<usize> = config
            .seasonal_periods
            .iter()
            .copied()
            .filter(|&m| m >= 2 && 2 * m < series.len())
            .collect();
        let max_period = periods.iter().copied().max().unwrap_or(0);
        if series.len() < (2 * max_period).max(10) {
            return Err(FitError::new(format!(
                "series too short for BATS: {} < {}",
                series.len(),
                (2 * max_period).max(10)
            )));
        }
        Ok(periods)
    }

    /// [`Bats::fit`] with a cooperative hard stop: the deadline is threaded
    /// into each smoothing-constant search and checked between component
    /// grid combinations, so an expired budget returns the best
    /// configuration found so far with `timed_out == true`. At least one
    /// configuration is always attempted even on an already-expired
    /// deadline.
    pub fn fit_with_deadline(
        series: &[f64],
        config: &BatsConfig,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        let periods = Self::feasible_periods(series, config)?;
        let options = |forced: Option<bool>| match forced {
            Some(b) => vec![b],
            None => vec![false, true],
        };
        let bc_options = options(config.use_box_cox);
        let trend_options = options(config.use_trend);
        let arma_options = options(config.use_arma);

        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        let mut truncated = false;
        let mut best: Option<Bats> = None;
        for &use_bc in &bc_options {
            if best.is_some() && expired() {
                truncated = true;
                break;
            }
            // transform once per Box-Cox choice
            let (transformed, lambda, offset) = if use_bc {
                let offset = positivity_offset(series);
                let shifted: Vec<f64> = series.iter().map(|&v| v + offset).collect();
                // the Jacobian term does not depend on λ
                let log_j: f64 = shifted.iter().map(|&v| v.max(1e-12).ln()).sum();
                let lambda = autoai_linalg::golden_section_min(
                    |l| {
                        let y: Vec<f64> = shifted.iter().map(|&v| box_cox(v, l)).collect();
                        let var = autoai_linalg::variance(&y);
                        if var <= 0.0 {
                            return f64::INFINITY;
                        }
                        0.5 * y.len() as f64 * var.ln() - (l - 1.0) * log_j
                    },
                    -1.0,
                    2.0,
                    1e-3,
                );
                (
                    shifted
                        .iter()
                        .map(|&v| box_cox(v, lambda))
                        .collect::<Vec<f64>>(),
                    Some(lambda),
                    offset,
                )
            } else {
                (series.to_vec(), None, 0.0)
            };

            for &use_trend in &trend_options {
                if best.is_some() && expired() {
                    truncated = true;
                    break;
                }
                let Some(es) = Self::fit_es(&transformed, use_trend, &periods, deadline, None)
                else {
                    continue;
                };
                for &use_arma in &arma_options {
                    if best.is_some() && expired() {
                        truncated = true;
                        break;
                    }
                    let cand = Self::assemble(
                        series.len(),
                        &periods,
                        lambda,
                        offset,
                        use_arma,
                        es.clone(),
                        deadline,
                    );
                    if best.as_ref().is_none_or(|b| cand.aic < b.aic) {
                        best = Some(cand);
                    }
                }
            }
        }
        let mut best =
            best.ok_or_else(|| FitError::new("no BATS configuration could be fitted"))?;
        best.timed_out |= truncated;
        Ok(best)
    }

    /// Score one component configuration by AIC and assemble the model.
    /// ARMA(1,1) error correction is fitted on the smoothing residuals when
    /// `use_arma` asks for it and there are at least 30 of them.
    fn assemble(
        n: usize,
        periods: &[usize],
        lambda: Option<f64>,
        offset: f64,
        use_arma: bool,
        es: EsFit,
        deadline: Option<Instant>,
    ) -> Bats {
        let residuals = &es.state.residuals;
        let arma = if use_arma && residuals.len() >= 30 {
            Arima::fit_with_deadline(residuals, ArimaSpec::new(1, 0, 1), deadline).ok()
        } else {
            None
        };
        let sse = match &arma {
            Some(a) => a.sigma2 * residuals.len() as f64,
            None => es.state.sse,
        };
        let n_eff = residuals.len().max(1) as f64;
        let k = 2.0
            + periods.len() as f64
            + if es.trend { 1.0 } else { 0.0 }
            + if lambda.is_some() { 1.0 } else { 0.0 }
            + if arma.is_some() { 2.0 } else { 0.0 };
        let aic = n_eff * (sse / n_eff).max(1e-300).ln() + 2.0 * k;
        Bats {
            lambda,
            offset,
            has_trend: es.trend,
            periods: periods.to_vec(),
            has_arma: arma.is_some(),
            timed_out: es.timed_out || arma.as_ref().is_some_and(|a| a.timed_out),
            es,
            arma,
            aic,
            n,
        }
    }

    /// Warm-restart fit: reuse the component structure and optimizer state
    /// of a previously fitted model instead of re-running the full
    /// automatic search.
    ///
    /// The expensive parts of [`Bats::fit`] are the 2×2×2 AIC component
    /// grid (up to eight smoothing-constant searches) and the golden-section
    /// Box-Cox λ selection. A seeded refit skips both: the seed fixes the
    /// component selection (Box-Cox/trend/ARMA flags and λ) and its raw
    /// optimizer vector becomes the Nelder–Mead starting point, so on
    /// mildly-changed data the search restarts next to the optimum and
    /// converges in a handful of iterations. The positivity offset is
    /// recomputed for the new data (reusing a stale offset could push
    /// observations out of the Box-Cox domain). ARMA error correction, when
    /// selected, is refitted on the new residuals.
    ///
    /// Fails — signalling the caller to fall back to a cold [`Bats::fit`] —
    /// when the feasible seasonal periods of `series` no longer match the
    /// seed's (the model structure itself changed).
    pub fn fit_seeded_with_deadline(
        series: &[f64],
        config: &BatsConfig,
        seed: &Bats,
        deadline: Option<Instant>,
    ) -> Result<Self, FitError> {
        let periods = Self::feasible_periods(series, config)?;
        if periods != seed.periods {
            return Err(FitError::new(
                "seeded BATS refit: feasible seasonal periods changed",
            ));
        }

        let (transformed, offset) = match seed.lambda {
            Some(l) => {
                let offset = positivity_offset(series);
                (
                    series
                        .iter()
                        .map(|&v| box_cox(v + offset, l))
                        .collect::<Vec<f64>>(),
                    offset,
                )
            }
            None => (series.to_vec(), 0.0),
        };

        let es = Self::fit_es(
            &transformed,
            seed.has_trend,
            &periods,
            deadline,
            Some(&seed.es.raw),
        )
        .ok_or_else(|| FitError::new("seeded BATS refit: smoothing fit failed"))?;
        Ok(Self::assemble(
            series.len(),
            &periods,
            seed.lambda,
            offset,
            seed.has_arma,
            es,
            deadline,
        ))
    }

    /// Fit the exponential-smoothing core with Nelder–Mead over the
    /// smoothing constants (sigmoid-constrained). Every objective
    /// evaluation is one allocation-free [`Smoother::sse`] pass; only the
    /// optimum's pass keeps residuals. A `seed` whose length does not match
    /// the parameter dimension is ignored (cold start).
    fn fit_es(
        y: &[f64],
        use_trend: bool,
        periods: &[usize],
        deadline: Option<Instant>,
        seed: Option<&[f64]>,
    ) -> Option<EsFit> {
        let dim = 2 + periods.len();
        let mut smoother = Smoother::new(y, use_trend, periods)?;
        let mut gammas = vec![0.0; periods.len()];
        let mut objective = |raw: &[f64]| -> f64 {
            let (alpha, beta) = smoothing_constants(raw, use_trend, &mut gammas);
            smoother.sse(alpha, beta, &gammas).unwrap_or(f64::INFINITY)
        };
        let cold_init = vec![-1.0; dim];
        let opts = NelderMeadOptions {
            max_evals: 600 * dim,
            deadline,
            ..Default::default()
        };
        // a seeded search restarts from the previous optimum AND from the
        // cold initialization, keeping whichever converges lower: the seed
        // usually wins in a handful of iterations, but when the grown data
        // moved the optimum the cold start stops a stale seed from pinning
        // the search in its old basin. Ties resolve to the cold-start
        // result, which is bitwise what a cold fit of this configuration
        // would produce.
        let (raw, timed_out) = match seed {
            Some(s) if s.len() == dim => {
                let (r_seed, f_seed, t_seed) = nelder_mead_budgeted(&mut objective, s, &opts);
                let (r_cold, f_cold, t_cold) =
                    nelder_mead_budgeted(&mut objective, &cold_init, &opts);
                if f_seed < f_cold {
                    (r_seed, t_seed || t_cold)
                } else {
                    (r_cold, t_seed || t_cold)
                }
            }
            _ => {
                let (r, _, t) = nelder_mead_budgeted(&mut objective, &cold_init, &opts);
                (r, t)
            }
        };
        let (alpha, beta) = smoothing_constants(&raw, use_trend, &mut gammas);
        let state = smoother.pass(alpha, beta, &gammas)?;
        Some(EsFit {
            state,
            trend: use_trend,
            alpha,
            beta,
            gammas,
            raw,
            timed_out,
        })
    }

    /// Forecast `horizon` values on the original scale.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        let arma_fore = self.arma.as_ref().map(|a| a.forecast(horizon));
        (1..=horizon)
            .map(|h| {
                let t = self.n + h - 1;
                let season_sum: f64 = self
                    .periods
                    .iter()
                    .zip(&self.es.state.seasonals)
                    .map(|(&m, s)| s.get(t % m).copied().unwrap_or_default())
                    .sum();
                let mut v = self.es.state.level + self.es.state.trend * h as f64 + season_sum;
                if let Some(af) = &arma_fore {
                    v += af.get(h - 1).copied().unwrap_or_default();
                }
                match self.lambda {
                    Some(l) => box_cox_inv(v, l) - self.offset,
                    None => v,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_only_series() {
        let y = vec![10.0; 40];
        let m = Bats::fit(&y, &BatsConfig::auto()).unwrap();
        let f = m.forecast(5);
        for v in f {
            assert!((v - 10.0).abs() < 0.2, "{v}");
        }
    }

    #[test]
    fn trended_series_selects_trend() {
        let y: Vec<f64> = (0..80).map(|i| 5.0 + 0.7 * i as f64).collect();
        let m = Bats::fit(&y, &BatsConfig::auto()).unwrap();
        let f = m.forecast(4);
        for (h, &v) in f.iter().enumerate() {
            let truth = 5.0 + 0.7 * (80 + h) as f64;
            assert!((v - truth).abs() < 3.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn seasonal_pattern_recovered() {
        let pattern = [8.0, -3.0, -7.0, 2.0];
        let y: Vec<f64> = (0..100).map(|i| 50.0 + pattern[i % 4]).collect();
        let m = Bats::fit(&y, &BatsConfig::with_periods(vec![4])).unwrap();
        let f = m.forecast(8);
        for (h, &v) in f.iter().enumerate() {
            let truth = 50.0 + pattern[(100 + h) % 4];
            assert!((v - truth).abs() < 2.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn dual_seasonality_fits_both_components() {
        // periods 6 and 14 superimposed — the Figure 5(d) scenario
        let y: Vec<f64> = (0..400)
            .map(|i| {
                let t = i as f64;
                30.0 + 5.0 * (2.0 * std::f64::consts::PI * t / 6.0).sin()
                    + 9.0 * (2.0 * std::f64::consts::PI * t / 14.0).sin()
            })
            .collect();
        let m = Bats::fit(&y, &BatsConfig::with_periods(vec![6, 14])).unwrap();
        let f = m.forecast(28);
        let truth: Vec<f64> = (400..428)
            .map(|i| {
                let t = i as f64;
                30.0 + 5.0 * (2.0 * std::f64::consts::PI * t / 6.0).sin()
                    + 9.0 * (2.0 * std::f64::consts::PI * t / 14.0).sin()
            })
            .collect();
        let mae: f64 = f
            .iter()
            .zip(&truth)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / truth.len() as f64;
        assert!(mae < 3.5, "dual-seasonality MAE {mae}");
    }

    #[test]
    fn box_cox_helps_exponential_growth() {
        let y: Vec<f64> = (0..90).map(|i| (0.05 * i as f64).exp() * 10.0).collect();
        let with_bc = Bats::fit(
            &y,
            &BatsConfig {
                use_box_cox: Some(true),
                use_trend: Some(true),
                use_arma: Some(false),
                seasonal_periods: vec![],
            },
        )
        .unwrap();
        let f = with_bc.forecast(5);
        for (h, &v) in f.iter().enumerate() {
            let truth = (0.05 * (90 + h) as f64).exp() * 10.0;
            assert!((v - truth).abs() / truth < 0.25, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn component_flags_respected() {
        let y: Vec<f64> = (0..60).map(|i| 5.0 + (i as f64 * 0.4).sin()).collect();
        let m = Bats::fit(
            &y,
            &BatsConfig {
                use_box_cox: Some(false),
                use_trend: Some(false),
                use_arma: Some(false),
                seasonal_periods: vec![],
            },
        )
        .unwrap();
        assert!(m.lambda.is_none());
        assert!(!m.has_trend);
        assert!(!m.has_arma);
    }

    #[test]
    fn too_short_rejected() {
        assert!(Bats::fit(&[1.0, 2.0, 3.0], &BatsConfig::auto()).is_err());
    }

    #[test]
    fn expired_deadline_still_yields_a_usable_model() {
        let pattern = [8.0, -3.0, -7.0, 2.0];
        let y: Vec<f64> = (0..100).map(|i| 50.0 + pattern[i % 4]).collect();
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let m =
            Bats::fit_with_deadline(&y, &BatsConfig::with_periods(vec![4]), Some(past)).unwrap();
        assert!(m.timed_out);
        assert!(m.forecast(8).iter().all(|v| v.is_finite()));
        // a generous deadline behaves exactly like no deadline
        let far = Instant::now() + std::time::Duration::from_secs(600);
        let full =
            Bats::fit_with_deadline(&y, &BatsConfig::with_periods(vec![4]), Some(far)).unwrap();
        assert!(!full.timed_out);
        let unbounded = Bats::fit(&y, &BatsConfig::with_periods(vec![4])).unwrap();
        for (a, b) in full.forecast(8).iter().zip(&unbounded.forecast(8)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn seeded_refit_matches_cold_quality_on_extended_series() {
        let pattern = [8.0, -3.0, -7.0, 2.0];
        let gen = |n: usize| -> Vec<f64> { (0..n).map(|i| 50.0 + pattern[i % 4]).collect() };
        let cfg = BatsConfig::with_periods(vec![4]);
        let seed = Bats::fit(&gen(80), &cfg).unwrap();
        let warm = Bats::fit_seeded_with_deadline(&gen(100), &cfg, &seed, None).unwrap();
        // structure is inherited from the seed, not re-searched
        assert_eq!(warm.has_trend, seed.has_trend);
        assert_eq!(warm.has_arma, seed.has_arma);
        assert_eq!(warm.lambda.is_some(), seed.lambda.is_some());
        assert_eq!(warm.periods, seed.periods);
        // and the warm forecast is as good as a cold one
        for (h, &v) in warm.forecast(8).iter().enumerate() {
            let truth = 50.0 + pattern[(100 + h) % 4];
            assert!((v - truth).abs() < 2.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn seeded_refit_is_deterministic() {
        let y: Vec<f64> = (0..90)
            .map(|i| 20.0 + (i as f64 * 0.3).sin() * 4.0)
            .collect();
        let cfg = BatsConfig::auto();
        let seed = Bats::fit(&y[..70], &cfg).unwrap();
        let a = Bats::fit_seeded_with_deadline(&y, &cfg, &seed, None).unwrap();
        let b = Bats::fit_seeded_with_deadline(&y, &cfg, &seed, None).unwrap();
        for (x, z) in a.forecast(6).iter().zip(&b.forecast(6)) {
            assert_eq!(x.to_bits(), z.to_bits());
        }
    }

    #[test]
    fn seeded_refit_rejects_structure_change() {
        let pattern = [8.0, -3.0, -7.0, 2.0];
        let y: Vec<f64> = (0..100).map(|i| 50.0 + pattern[i % 4]).collect();
        let seed = Bats::fit(&y, &BatsConfig::with_periods(vec![4])).unwrap();
        // on a much shorter window the period-4 component is still feasible,
        // but requesting different periods must refuse the seed
        let err = Bats::fit_seeded_with_deadline(
            &y[..40],
            &BatsConfig::with_periods(vec![12]),
            &seed,
            None,
        );
        assert!(err.is_err());
    }

    #[test]
    fn infeasible_periods_are_dropped() {
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        // period 40 cannot fit twice in 30 points → silently dropped
        let m = Bats::fit(&y, &BatsConfig::with_periods(vec![40])).unwrap();
        assert!(m.periods.is_empty());
    }
}
