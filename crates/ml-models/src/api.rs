//! The shared regressor contract and the multi-output adapter.
//!
//! [`MultiOutputRegressor`] fits its per-output models on the shared worker
//! pool: each is a few milliseconds of work (a forest or a boosted ensemble
//! over a small window matrix), and a horizon-12 forecast needs twelve.

use autoai_linalg::{parallel_try_map_range, Matrix};

/// Error raised when a model cannot be fitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlError {
    /// Human-readable description.
    pub message: String,
}

impl MlError {
    /// Build from anything printable.
    pub fn new(msg: impl Into<String>) -> Self {
        Self {
            message: msg.into(),
        }
    }
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ml error: {}", self.message)
    }
}

impl std::error::Error for MlError {}

/// A supervised regressor over dense feature matrices.
///
/// Follows the sklearn estimator contract from Figure 1 of the paper:
/// `fit(X, y)` then `predict(X)`. Single-row prediction is the primitive so
/// recursive forecasting loops stay allocation-light.
pub trait Regressor: Send + Sync {
    /// Fit on features `x` (`n x d`) and targets `y` (`n`).
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError>;

    /// Predict a single feature row.
    fn predict_row(&self, row: &[f64]) -> f64;

    /// Predict every row of `x`.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.nrows()).map(|r| self.predict_row(x.row(r))).collect()
    }

    /// Model name for pipeline descriptions.
    fn name(&self) -> &'static str;

    /// A fresh unfitted copy with the same hyperparameters (used by
    /// multi-output adapters and ensembles).
    fn clone_unfitted(&self) -> Box<dyn Regressor>;
}

/// Fits one inner regressor per target column — the standard way the
/// paper's ML pipelines produce multi-step (and multi-series) forecasts from
/// flattened windows.
///
/// The columns are fitted in parallel. Each output's model depends only on
/// `(x, y.col(k))` and the models land in column order, so the fitted
/// state is bit-identical to fitting the columns one after another.
pub struct MultiOutputRegressor {
    prototype: Box<dyn Regressor>,
    fitted: Vec<Box<dyn Regressor>>,
}

impl MultiOutputRegressor {
    /// Wrap a prototype regressor.
    pub fn new(prototype: Box<dyn Regressor>) -> Self {
        Self {
            prototype,
            fitted: Vec::new(),
        }
    }

    /// Fit one clone of the prototype per column of `y` (`n x k`), in
    /// parallel. A failing or panicking output fails the whole fit with the
    /// lowest-indexed output's error, and leaves no outputs fitted.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix) -> Result<(), MlError> {
        if x.nrows() != y.nrows() {
            return Err(MlError::new(format!(
                "row mismatch: X has {}, y has {}",
                x.nrows(),
                y.nrows()
            )));
        }
        self.fitted.clear();
        let prototype = &self.prototype;
        self.fitted = parallel_try_map_range(y.ncols(), |k| {
            let mut model = prototype.clone_unfitted();
            model.fit(x, &y.col(k)).map(|()| model)
        })
        .into_iter()
        .enumerate()
        .map(|(k, r)| {
            r.unwrap_or_else(|p| Err(MlError::new(format!("output {k} fit panicked: {p}"))))
        })
        .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Number of fitted outputs.
    pub fn n_outputs(&self) -> usize {
        self.fitted.len()
    }

    /// Predict all outputs for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> Vec<f64> {
        self.fitted.iter().map(|m| m.predict_row(row)).collect()
    }

    /// Predict all outputs for every row of `x` (`n x k` result).
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.nrows(), self.fitted.len());
        for r in 0..x.nrows() {
            let row = x.row(r);
            for (k, m) in self.fitted.iter().enumerate() {
                out[(r, k)] = m.predict_row(row);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;

    #[test]
    fn multi_output_fits_each_column() {
        // y0 = x, y1 = 2x + 1
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 3.0],
            vec![2.0, 5.0],
            vec![3.0, 7.0],
        ]);
        let mut m = MultiOutputRegressor::new(Box::new(LinearRegression::new()));
        m.fit(&x, &y).unwrap();
        assert_eq!(m.n_outputs(), 2);
        let p = m.predict_row(&[4.0]);
        assert!((p[0] - 4.0).abs() < 1e-6);
        assert!((p[1] - 9.0).abs() < 1e-6);
        let batch = m.predict(&x);
        assert_eq!(batch.nrows(), 4);
        assert!((batch[(2, 1)] - 5.0).abs() < 1e-6);
    }

    /// Fits anything except a target column whose first value is the
    /// marker, on which it panics.
    struct PanicsOnMarker;

    impl Regressor for PanicsOnMarker {
        fn fit(&mut self, _: &Matrix, y: &[f64]) -> Result<(), MlError> {
            assert!(y.first() != Some(&-999.0), "marker column");
            Ok(())
        }
        fn predict_row(&self, _: &[f64]) -> f64 {
            0.0
        }
        fn name(&self) -> &'static str {
            "panics_on_marker"
        }
        fn clone_unfitted(&self) -> Box<dyn Regressor> {
            Box::new(PanicsOnMarker)
        }
    }

    #[test]
    fn panicking_output_fit_surfaces_as_typed_error() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = Matrix::from_rows(&[
            vec![0.0, 1.0, -999.0, 3.0],
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 3.0, 4.0, 5.0],
        ]);
        let mut m = MultiOutputRegressor::new(Box::new(PanicsOnMarker));
        let err = m.fit(&x, &y).unwrap_err();
        assert!(
            err.message.contains("output 2") && err.message.contains("marker column"),
            "{err}"
        );
        assert_eq!(m.n_outputs(), 0, "a failed fit leaves no outputs");
    }

    #[test]
    fn multi_output_rejects_row_mismatch() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = Matrix::from_rows(&[vec![0.0]]);
        let mut m = MultiOutputRegressor::new(Box::new(LinearRegression::new()));
        assert!(m.fit(&x, &y).is_err());
    }
}
