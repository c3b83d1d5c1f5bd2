//! Window-regressor pipelines: WindowRandomForest and WindowSVR.
//!
//! These are the paper's stats-ML hybrid workhorses — a look-back window is
//! flattened into features and a one-step-ahead multi-output regressor is
//! trained; multi-step forecasts are produced recursively by feeding
//! predictions back into the window.

use autoai_ml_models::{
    KernelRidgeSvr, MultiOutputRegressor, RandomForestConfig, RandomForestRegressor, Regressor,
};
use autoai_transforms::{flatten_windows, latest_window};
use autoai_tsdata::TimeSeriesFrame;

use crate::traits::{Forecaster, PipelineError};

/// Which regressor backs the window pipeline (determines the display name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    RandomForest,
    Svr,
    Custom,
}

/// A recursive one-step window pipeline over any [`Regressor`].
pub struct WindowRegressorPipeline {
    /// Look-back window length.
    pub lookback: usize,
    prototype: Box<dyn Regressor>,
    backend: Backend,
    custom_name: String,
    model: Option<MultiOutputRegressor>,
    train_tail: Option<TimeSeriesFrame>,
    names: Vec<String>,
}

impl WindowRegressorPipeline {
    /// WindowRandomForest: the Table 6 pipeline backed by a random forest.
    pub fn random_forest(lookback: usize) -> Self {
        let cfg = RandomForestConfig {
            n_trees: 30,
            max_depth: 10,
            ..Default::default()
        };
        Self {
            lookback: lookback.max(1),
            prototype: Box::new(RandomForestRegressor::with_config(cfg)),
            backend: Backend::RandomForest,
            custom_name: String::new(),
            model: None,
            train_tail: None,
            names: Vec::new(),
        }
    }

    /// WindowSVR: the Table 6 pipeline backed by the RBF kernel machine.
    pub fn svr(lookback: usize) -> Self {
        Self {
            lookback: lookback.max(1),
            prototype: Box::new(KernelRidgeSvr::new()),
            backend: Backend::Svr,
            custom_name: String::new(),
            model: None,
            train_tail: None,
            names: Vec::new(),
        }
    }

    /// A window pipeline over an arbitrary regressor (extension point).
    pub fn custom(lookback: usize, name: impl Into<String>, prototype: Box<dyn Regressor>) -> Self {
        Self {
            lookback: lookback.max(1),
            prototype,
            backend: Backend::Custom,
            custom_name: name.into(),
            model: None,
            train_tail: None,
            names: Vec::new(),
        }
    }
}

impl Forecaster for WindowRegressorPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        self.names = frame.names().to_vec();
        let max_lb = frame.len().saturating_sub(5).max(1);
        self.lookback = self.lookback.min(max_lb);
        let ds = flatten_windows(frame, self.lookback, 1);
        if ds.is_empty() {
            return Err(PipelineError::InvalidInput(format!(
                "series of length {} too short for lookback {}",
                frame.len(),
                self.lookback
            )));
        }
        let mut model = MultiOutputRegressor::new(self.prototype.clone_unfitted());
        model
            .fit(&ds.x, &ds.y)
            .map_err(|e| PipelineError::Fit(e.message))?;
        self.model = Some(model);
        self.train_tail = Some(frame.tail(self.lookback).into_owned());
        Ok(())
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let model = self.model.as_ref().ok_or(PipelineError::NotFitted)?;
        let tail = self.train_tail.as_ref().ok_or(PipelineError::NotFitted)?;
        let n_series = tail.n_series();
        let mut work = tail.clone();
        let mut out: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); n_series];
        for _ in 0..horizon {
            let features = latest_window(&work, self.lookback)
                .ok_or_else(|| PipelineError::InvalidInput("window unavailable".into()))?;
            let step = model.predict_row(&features); // one value per series
            for (c, &v) in step.iter().enumerate() {
                out[c].push(v);
            }
            work.append(&TimeSeriesFrame::from_columns(
                step.iter().map(|&v| vec![v]).collect(),
            ));
            // keep the working frame bounded
            if work.len() > 4 * self.lookback {
                work = work.tail(self.lookback);
            }
        }
        let mut f = TimeSeriesFrame::from_columns(out);
        if f.n_series() == self.names.len() {
            f = f.with_names(self.names.clone());
        }
        Ok(f)
    }

    fn name(&self) -> String {
        match self.backend {
            Backend::RandomForest => "WindowRandomForest".into(),
            Backend::Svr => "WindowSVR".into(),
            Backend::Custom => format!("Window{}", self.custom_name),
        }
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self {
            lookback: self.lookback,
            prototype: self.prototype.clone_unfitted(),
            backend: self.backend,
            custom_name: self.custom_name.clone(),
            model: None,
            train_tail: None,
            names: Vec::new(),
        })
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
    fn window_rf_forecasts_seasonal() {
        let mut p = WindowRegressorPipeline::random_forest(12);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(12).unwrap();
        let truth: Vec<f64> = (300..312)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 6.0, "WindowRF smape {smape}");
    }

    #[test]
    fn window_svr_forecasts_seasonal() {
        let mut p = WindowRegressorPipeline::svr(12);
        p.fit(&seasonal_frame(300)).unwrap();
        let f = p.predict(12).unwrap();
        let truth: Vec<f64> = (300..312)
            .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
            .collect();
        let smape = autoai_tsdata::smape(&truth, f.series(0));
        assert!(smape < 6.0, "WindowSVR smape {smape}");
    }

    #[test]
    fn multivariate_window_pipeline() {
        let cols = vec![
            (0..200).map(|i| (i % 10) as f64).collect::<Vec<f64>>(),
            (0..200)
                .map(|i| ((i + 5) % 10) as f64)
                .collect::<Vec<f64>>(),
        ];
        let mut p = WindowRegressorPipeline::random_forest(10);
        p.fit(&TimeSeriesFrame::from_columns(cols)).unwrap();
        let f = p.predict(5).unwrap();
        assert_eq!(f.n_series(), 2);
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn lookback_shrinks_on_short_series() {
        let mut p = WindowRegressorPipeline::random_forest(100);
        p.fit(&TimeSeriesFrame::univariate(
            (0..30).map(|i| i as f64).collect(),
        ))
        .unwrap();
        assert!(p.lookback <= 25);
        assert_eq!(p.predict(3).unwrap().len(), 3);
    }

    #[test]
    fn score_integrates_with_trait() {
        let frame = seasonal_frame(300);
        let train = frame.slice(0, 288);
        let test = frame.slice(288, 300);
        let mut p = WindowRegressorPipeline::random_forest(12);
        p.fit(&train).unwrap();
        let s = p.score(&test, Metric::Smape).unwrap();
        assert!(s < 10.0, "score {s}");
    }

    #[test]
    fn names_and_clone() {
        assert_eq!(
            WindowRegressorPipeline::random_forest(8).name(),
            "WindowRandomForest"
        );
        assert_eq!(WindowRegressorPipeline::svr(8).name(), "WindowSVR");
        let c = WindowRegressorPipeline::svr(8).clone_unfitted();
        assert_eq!(c.name(), "WindowSVR");
    }
}
