//! Flatten-family windowing: turn a time series frame into a supervised
//! (X, y) dataset for ML regressors.
//!
//! The paper's stateful Flatten transforms reshape sequences into IID-style
//! learning problems: a look-back window of history becomes the feature
//! vector and the next `horizon` values become the multi-output target.
//! Three variants are used by the AutoAI-TS pipelines:
//!
//! * **Flatten** — all series in the window are concatenated (series-major)
//!   into one feature vector; the target stacks the next `horizon` values of
//!   all series. One global model sees every series.
//! * **Localized Flatten** — one dataset *per series*; each series is
//!   predicted from its own history only.
//! * **Normalized Flatten** — like Flatten, but every window is divided by a
//!   per-window, per-series anchor (the last value of the window), making
//!   the learning problem scale-free; anchors are returned so forecasts can
//!   be denormalized.
//!
//! The kernels here are the T-Daub hot loop: every (pipeline × allocation)
//! unit runs one of them. They are written index-free (iterator chunks and
//! checked `get` ranges instead of `[]` subscripts) so the tscheck strict
//! rules apply.

use autoai_linalg::Matrix;
use autoai_tsdata::TimeSeriesFrame;

/// A supervised dataset derived from sliding windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDataset {
    /// Features: `n_windows x (lookback * n_series)`.
    pub x: Matrix,
    /// Targets: `n_windows x (horizon * n_series)`.
    pub y: Matrix,
    /// Per-window, per-series normalization anchors (`n_windows x n_series`),
    /// present only for the normalized variant.
    pub anchors: Option<Matrix>,
}

impl WindowDataset {
    /// Number of windows (rows) in the dataset.
    pub fn len(&self) -> usize {
        self.x.nrows()
    }

    /// True when no full window fits the data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Number of complete (look-back, horizon) windows that fit `len` samples.
pub fn n_windows(len: usize, lookback: usize, horizon: usize) -> usize {
    (len + 1).saturating_sub(lookback + horizon)
}

/// Flatten transform: joint windows over all series.
///
/// Feature layout is series-major: `[s0[t-L..t], s1[t-L..t], …]`; the target
/// layout matches: `[s0[t..t+h], s1[t..t+h], …]`. Returns an empty dataset
/// when the frame is too short for a single window.
pub fn flatten_windows(frame: &TimeSeriesFrame, lookback: usize, horizon: usize) -> WindowDataset {
    assert!(
        lookback >= 1 && horizon >= 1,
        "lookback and horizon must be >= 1"
    );
    let count = n_windows(frame.len(), lookback, horizon);
    let s = frame.n_series();
    let mut x = Matrix::zeros(count, lookback.saturating_mul(s));
    let mut y = Matrix::zeros(count, horizon.saturating_mul(s));
    for (w, (xr, yr)) in x.rows_iter_mut().zip(y.rows_iter_mut()).enumerate() {
        for (chunk, col) in xr.chunks_mut(lookback).zip(frame.series_iter()) {
            if let Some(src) = col.get(w..w + lookback) {
                chunk.copy_from_slice(src);
            }
        }
        for (chunk, col) in yr.chunks_mut(horizon).zip(frame.series_iter()) {
            if let Some(src) = col.get(w + lookback..w + lookback + horizon) {
                chunk.copy_from_slice(src);
            }
        }
    }
    WindowDataset {
        x,
        y,
        anchors: None,
    }
}

/// Localized Flatten: one per-series dataset, each predicting a series from
/// its own history only.
pub fn localized_flatten_windows(
    frame: &TimeSeriesFrame,
    lookback: usize,
    horizon: usize,
) -> Vec<WindowDataset> {
    (0..frame.n_series())
        .map(|c| flatten_windows(&frame.select(c), lookback, horizon))
        .collect()
}

/// Normalized Flatten: joint windows divided by per-window per-series
/// anchors (last window value; 1.0 when that value is ~0).
pub fn normalized_flatten_windows(
    frame: &TimeSeriesFrame,
    lookback: usize,
    horizon: usize,
) -> WindowDataset {
    let mut ds = flatten_windows(frame, lookback, horizon);
    let mut anchors = Matrix::zeros(ds.len(), frame.n_series());
    let window_rows =
        ds.x.rows_iter_mut()
            .zip(ds.y.rows_iter_mut())
            .zip(anchors.rows_iter_mut());
    for ((xr, yr), ar) in window_rows {
        let series_chunks = xr
            .chunks_mut(lookback)
            .zip(yr.chunks_mut(horizon))
            .zip(ar.iter_mut());
        for ((xchunk, ychunk), a) in series_chunks {
            let last = xchunk.last().copied().unwrap_or(1.0);
            let anchor = if last.abs() > 1e-9 { last } else { 1.0 };
            *a = anchor;
            for v in xchunk.iter_mut() {
                *v /= anchor;
            }
            for v in ychunk.iter_mut() {
                *v /= anchor;
            }
        }
    }
    ds.anchors = Some(anchors);
    ds
}

/// The trailing look-back window of a frame flattened into one feature
/// vector (series-major) — the prediction-time input. Returns `None` when
/// the frame is shorter than `lookback`.
pub fn latest_window(frame: &TimeSeriesFrame, lookback: usize) -> Option<Vec<f64>> {
    let n = frame.len();
    if n < lookback {
        return None;
    }
    let mut out = Vec::with_capacity(lookback.saturating_mul(frame.n_series()));
    for col in frame.series_iter() {
        out.extend_from_slice(col.get(n - lookback..)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> TimeSeriesFrame {
        TimeSeriesFrame::from_columns(vec![
            vec![1., 2., 3., 4., 5., 6.],
            vec![10., 20., 30., 40., 50., 60.],
        ])
    }

    #[test]
    fn flatten_shapes_and_contents() {
        let ds = flatten_windows(&frame(), 3, 2);
        // windows start at t=0,1 → 2 windows
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.x.ncols(), 6); // 3 lookback * 2 series
        assert_eq!(ds.y.ncols(), 4); // 2 horizon * 2 series
        assert_eq!(ds.x.row(0), &[1., 2., 3., 10., 20., 30.]);
        assert_eq!(ds.y.row(0), &[4., 5., 40., 50.]);
        assert_eq!(ds.x.row(1), &[2., 3., 4., 20., 30., 40.]);
        assert_eq!(ds.y.row(1), &[5., 6., 50., 60.]);
    }

    #[test]
    fn flatten_on_a_view_matches_flatten_on_a_copy() {
        let f = frame();
        let view = f.slice(1, 6);
        let copy = TimeSeriesFrame::from_columns(vec![
            f.series(0).get(1..).unwrap().to_vec(),
            f.series(1).get(1..).unwrap().to_vec(),
        ]);
        assert_eq!(flatten_windows(&view, 2, 1), flatten_windows(&copy, 2, 1));
    }

    #[test]
    fn too_short_frame_yields_empty_dataset() {
        let f = TimeSeriesFrame::univariate(vec![1., 2.]);
        let ds = flatten_windows(&f, 5, 1);
        assert!(ds.is_empty());
    }

    #[test]
    fn exact_fit_single_window() {
        let f = TimeSeriesFrame::univariate(vec![1., 2., 3., 4.]);
        let ds = flatten_windows(&f, 3, 1);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.x.row(0), &[1., 2., 3.]);
        assert_eq!(ds.y.row(0), &[4.]);
    }

    #[test]
    fn localized_builds_one_dataset_per_series() {
        let sets = localized_flatten_windows(&frame(), 2, 1);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].x.ncols(), 2);
        assert_eq!(sets[0].x.row(0), &[1., 2.]);
        assert_eq!(sets[0].y.row(0), &[3.]);
        assert_eq!(sets[1].x.row(0), &[10., 20.]);
        assert_eq!(sets[1].y.row(0), &[30.]);
    }

    #[test]
    fn normalized_windows_divide_by_last_value() {
        let ds = normalized_flatten_windows(&frame(), 2, 1);
        // window 0 series 0: [1,2] anchored at 2 → [0.5, 1.0]; y 3/2 = 1.5
        assert!((ds.x[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((ds.x[(0, 1)] - 1.0).abs() < 1e-12);
        assert!((ds.y[(0, 0)] - 1.5).abs() < 1e-12);
        let anchors = ds.anchors.as_ref().unwrap();
        assert_eq!(anchors[(0, 0)], 2.0);
        assert_eq!(anchors[(0, 1)], 20.0);
    }

    #[test]
    fn normalized_zero_anchor_falls_back_to_one() {
        let f = TimeSeriesFrame::univariate(vec![5.0, 0.0, 3.0]);
        let ds = normalized_flatten_windows(&f, 2, 1);
        let anchors = ds.anchors.as_ref().unwrap();
        assert_eq!(anchors[(0, 0)], 1.0); // last of [5, 0] is 0 → fallback
        assert_eq!(ds.y[(0, 0)], 3.0);
    }

    #[test]
    fn latest_window_extracts_tail() {
        let w = latest_window(&frame(), 3).unwrap();
        assert_eq!(w, vec![4., 5., 6., 40., 50., 60.]);
        assert!(latest_window(&frame(), 10).is_none());
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_lookback_rejected() {
        let _ = flatten_windows(&frame(), 0, 1);
    }
}
