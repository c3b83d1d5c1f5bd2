//! Weighted ensemble of heterogeneous pipelines.
//!
//! The greedy forward selection in `autoai_tdaub` picks the members and
//! weights from the T-Daub survivor set; this type is the deployable
//! artifact — a [`Forecaster`] whose point forecast is the weighted mean of
//! its members and whose intervals are Vincentized (quantile-averaged)
//! member bands. Convex combination preserves band bracketing and nesting,
//! so a valid ensemble interval is built from valid member intervals
//! without re-validation surprises.

use autoai_tsdata::TimeSeriesFrame;

use crate::interval::{IntervalForecast, IntervalSource};
use crate::traits::{Forecaster, PipelineError};

/// A fixed-weight convex combination of pipelines.
pub struct EnsembleForecaster {
    members: Vec<(Box<dyn Forecaster>, f64)>,
}

fn invalid(msg: impl Into<String>) -> PipelineError {
    PipelineError::InvalidInput(msg.into())
}

/// Weighted sum of equally-shaped frames.
fn weighted_combine(frames: &[(f64, TimeSeriesFrame)]) -> Result<TimeSeriesFrame, PipelineError> {
    let Some((_, first)) = frames.first() else {
        return Err(invalid("empty ensemble combination"));
    };
    let n_series = first.n_series();
    let len = first.len();
    for (_, f) in frames {
        if f.n_series() != n_series || f.len() != len {
            return Err(invalid(format!(
                "ensemble member shapes diverge: {}x{} vs {}x{}",
                f.len(),
                f.n_series(),
                len,
                n_series
            )));
        }
    }
    let mut cols = vec![vec![0.0f64; len]; n_series];
    for (w, f) in frames {
        for (acc, s) in cols.iter_mut().zip(f.series_iter()) {
            for (a, v) in acc.iter_mut().zip(s.iter()) {
                *a += w * v;
            }
        }
    }
    Ok(TimeSeriesFrame::from_columns(cols))
}

impl EnsembleForecaster {
    /// Build an ensemble from `(pipeline, weight)` members. Weights must be
    /// finite and positive; they are normalized to sum to one. Member order
    /// is preserved (it is part of the deterministic identity).
    pub fn new(members: Vec<(Box<dyn Forecaster>, f64)>) -> Result<Self, PipelineError> {
        if members.is_empty() {
            return Err(invalid("ensemble needs at least one member"));
        }
        let total: f64 = members.iter().map(|(_, w)| w).sum();
        if !(total.is_finite() && total > 0.0)
            || members.iter().any(|(_, w)| !(w.is_finite() && *w > 0.0))
        {
            return Err(invalid("ensemble weights must be finite and positive"));
        }
        let members = members.into_iter().map(|(p, w)| (p, w / total)).collect();
        Ok(Self { members })
    }

    /// Member names and normalized weights, in selection order.
    pub fn weights(&self) -> Vec<(String, f64)> {
        self.members.iter().map(|(p, w)| (p.name(), *w)).collect()
    }
}

impl Forecaster for EnsembleForecaster {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        for (p, _) in self.members.iter_mut() {
            p.fit(frame)?;
        }
        Ok(())
    }

    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        let frames: Vec<(f64, TimeSeriesFrame)> = self
            .members
            .iter()
            .map(|(p, w)| p.predict(horizon).map(|f| (*w, f)))
            .collect::<Result<_, _>>()?;
        weighted_combine(&frames)
    }

    fn predict_interval(
        &self,
        horizon: usize,
        levels: &[f64],
    ) -> Result<IntervalForecast, PipelineError> {
        // every member must produce a native band at the same levels; a
        // single failure fails the ensemble and the caller conformal-wraps
        // the ensemble's *point* forecast instead
        let member_ivs: Vec<(f64, IntervalForecast)> = self
            .members
            .iter()
            .map(|(p, w)| p.predict_interval(horizon, levels).map(|iv| (*w, iv)))
            .collect::<Result<_, _>>()?;
        let point = weighted_combine(
            &member_ivs
                .iter()
                .map(|(w, iv)| (*w, iv.point().clone()))
                .collect::<Vec<_>>(),
        )?;
        let mut lower = Vec::with_capacity(levels.len());
        let mut upper = Vec::with_capacity(levels.len());
        for idx in 0..levels.len() {
            let los: Vec<(f64, TimeSeriesFrame)> = member_ivs
                .iter()
                .map(|(w, iv)| {
                    iv.band(idx)
                        .map(|(lo, _)| (*w, lo.clone()))
                        .ok_or_else(|| invalid("member interval missing a level"))
                })
                .collect::<Result<_, _>>()?;
            let his: Vec<(f64, TimeSeriesFrame)> = member_ivs
                .iter()
                .map(|(w, iv)| {
                    iv.band(idx)
                        .map(|(_, hi)| (*w, hi.clone()))
                        .ok_or_else(|| invalid("member interval missing a level"))
                })
                .collect::<Result<_, _>>()?;
            lower.push(weighted_combine(&los)?);
            upper.push(weighted_combine(&his)?);
        }
        IntervalForecast::new(point, levels.to_vec(), lower, upper, IntervalSource::Native)
    }

    fn name(&self) -> String {
        let parts: Vec<String> = self
            .members
            .iter()
            .map(|(p, w)| format!("{}:{:.3}", p.name(), w))
            .collect();
        format!("Ensemble({})", parts.join(","))
    }

    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        let members = self
            .members
            .iter()
            .map(|(p, w)| (p.clone_unfitted(), *w))
            .collect();
        Box::new(Self { members })
    }

    fn set_time_budget(&mut self, budget: Option<std::time::Duration>) {
        for (p, _) in self.members.iter_mut() {
            p.set_time_budget(budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stat_pipelines::{ArPipeline, ZeroModelPipeline};

    fn wavy(n: usize) -> TimeSeriesFrame {
        TimeSeriesFrame::univariate(
            (0..n)
                .map(|i| 30.0 + 4.0 * (i as f64 * 0.5).sin() + 0.05 * i as f64)
                .collect(),
        )
    }

    #[test]
    fn weights_normalize_and_order_is_stable() {
        let e = EnsembleForecaster::new(vec![
            (Box::new(ZeroModelPipeline::new()), 2.0),
            (Box::new(ArPipeline::new(4)), 6.0),
        ])
        .unwrap();
        let w = e.weights();
        assert_eq!(w.len(), 2);
        assert_eq!(w.first().map(|(n, _)| n.clone()), Some("ZeroModel".into()));
        let total: f64 = w.iter().map(|(_, x)| x).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((w.first().map(|(_, x)| *x).unwrap_or(0.0) - 0.25).abs() < 1e-12);
        assert_eq!(e.name(), "Ensemble(ZeroModel:0.250,AR:0.750)");
    }

    #[test]
    fn invalid_members_are_rejected() {
        assert!(EnsembleForecaster::new(vec![]).is_err());
        assert!(EnsembleForecaster::new(vec![(
            Box::new(ZeroModelPipeline::new()) as Box<dyn Forecaster>,
            0.0
        )])
        .is_err());
        assert!(EnsembleForecaster::new(vec![(
            Box::new(ZeroModelPipeline::new()) as Box<dyn Forecaster>,
            f64::NAN
        )])
        .is_err());
    }

    #[test]
    fn predict_is_the_weighted_mean() {
        let frame = wavy(120);
        let mut e = EnsembleForecaster::new(vec![
            (Box::new(ZeroModelPipeline::new()), 1.0),
            (Box::new(ArPipeline::new(4)), 1.0),
        ])
        .unwrap();
        e.fit(&frame).unwrap();
        let mut z = ZeroModelPipeline::new();
        z.fit(&frame).unwrap();
        let mut a = ArPipeline::new(4);
        a.fit(&frame).unwrap();
        let (fe, fz, fa) = (
            e.predict(5).unwrap(),
            z.predict(5).unwrap(),
            a.predict(5).unwrap(),
        );
        for ((ve, vz), va) in fe
            .series(0)
            .iter()
            .zip(fz.series(0).iter())
            .zip(fa.series(0).iter())
        {
            assert!((ve - 0.5 * (vz + va)).abs() < 1e-12);
        }
    }

    #[test]
    fn vincentized_intervals_stay_nested() {
        let frame = wavy(150);
        let mut e = EnsembleForecaster::new(vec![
            (Box::new(ZeroModelPipeline::new()), 1.0),
            (Box::new(ArPipeline::new(4)), 3.0),
        ])
        .unwrap();
        e.fit(&frame).unwrap();
        // constructor validates bracketing + nesting; surviving is the test
        let iv = e
            .predict_interval(8, &crate::interval::DEFAULT_LEVELS)
            .unwrap();
        assert_eq!(iv.horizon(), 8);
        assert_eq!(iv.n_series(), 1);
    }

    #[test]
    fn clone_unfitted_preserves_identity() {
        let e = EnsembleForecaster::new(vec![
            (Box::new(ZeroModelPipeline::new()), 1.0),
            (Box::new(ArPipeline::new(4)), 1.0),
        ])
        .unwrap();
        let c = e.clone_unfitted();
        assert_eq!(c.name(), e.name());
        assert!(c.predict(3).is_err(), "clone must be unfitted");
    }
}
