//! Output checks applied to every forecast the benchmark receives.

use autoai_ts::{IntervalForecast, TimeSeriesFrame};

/// Forecast horizon of every read (the paper's default).
pub const HORIZON: usize = 12;
/// Coverage levels every interval read asks for.
pub const LEVELS: [f64; 2] = [0.8, 0.95];

/// A point forecast is `HORIZON × n_series` and finite.
pub fn point_ok(forecast: &TimeSeriesFrame, n_series: usize) -> bool {
    forecast.len() == HORIZON
        && forecast.n_series() == n_series
        && forecast.series_iter().flatten().all(|v| v.is_finite())
}

/// An interval forecast has a valid point forecast, one band per requested
/// level, and every band satisfies lower ≤ point ≤ upper with finite edges.
pub fn interval_ok(iv: &IntervalForecast, n_series: usize) -> bool {
    let point = iv.point();
    if !point_ok(point, n_series) || iv.levels() != LEVELS {
        return false;
    }
    (0..LEVELS.len()).all(|b| match iv.band(b) {
        Some((lower, upper)) => {
            point_ok(lower, n_series)
                && point_ok(upper, n_series)
                && (0..n_series).all(|c| {
                    let (l, p, u) = (lower.series(c), point.series(c), upper.series(c));
                    (0..HORIZON).all(|h| l[h] <= p[h] && p[h] <= u[h])
                })
        }
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoai_ts::IntervalSource;

    fn frame(v: f64) -> TimeSeriesFrame {
        TimeSeriesFrame::from_columns(vec![vec![v; HORIZON]])
    }

    #[test]
    fn point_shape_and_finiteness() {
        assert!(point_ok(&frame(1.0), 1));
        assert!(!point_ok(&frame(1.0), 2));
        assert!(!point_ok(&frame(f64::NAN), 1));
        let short = TimeSeriesFrame::from_columns(vec![vec![1.0; 3]]);
        assert!(!point_ok(&short, 1));
    }

    #[test]
    fn bands_must_bracket_the_point() {
        let iv = IntervalForecast::new(
            frame(1.0),
            LEVELS.to_vec(),
            vec![frame(0.5), frame(0.0)],
            vec![frame(1.5), frame(2.0)],
            IntervalSource::Native,
        )
        .unwrap();
        assert!(interval_ok(&iv, 1));
        assert!(!interval_ok(&iv, 2));
    }
}
