//! The textbook BATS smoothing recursion, shared by the recursion parity
//! tests and the kernels bench smoke.
//!
//! [`run_es`] is the recursion as BATS first shipped it: every step takes
//! `t % m` per period for the seasonal sum and again for every per-period
//! "other periods" sum, looking the indices up in place, and it allocates
//! its seasonal vectors and residuals on every call.
//! [`autoai_stat_models::Smoother`] must reproduce it bit for bit.

#![allow(dead_code)]

use autoai_stat_models::SmoothingState;

/// One pass of the additive multi-seasonal smoothing recursion.
pub fn run_es(
    y: &[f64],
    use_trend: bool,
    periods: &[usize],
    alpha: f64,
    beta: f64,
    gammas: &[f64],
) -> Option<SmoothingState> {
    let warmup = periods.iter().copied().max().unwrap_or(1).max(2);
    // initial seasonal indices from the first cycle of each period
    let base = autoai_linalg::mean(y.get(..warmup)?);
    let mut seasonals: Vec<Vec<f64>> = periods
        .iter()
        .map(|&m| {
            let mut idx = vec![0.0; m];
            let cycles = y.len() / m;
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
            idx
        })
        .collect();
    let mut level = base;
    let mut trend = if use_trend && y.len() > warmup {
        (y.get(warmup)? - y.first()?) / warmup as f64
    } else {
        0.0
    };
    let mut residuals = Vec::with_capacity(y.len());
    let mut sse = 0.0;
    // one seasonal index vector per period: zipping keeps the per-period
    // lookups total (t % m < m == the vector's length by construction)
    for (t, &x) in y.iter().enumerate() {
        let season_sum: f64 = periods
            .iter()
            .zip(&seasonals)
            .map(|(&m, s)| s.get(t % m).copied().unwrap_or_default())
            .sum();
        let fitted = level + trend + season_sum;
        let err = x - fitted;
        if !err.is_finite() {
            return None;
        }
        if t >= warmup {
            sse += err * err;
            residuals.push(err);
        }
        let prev_level = level;
        level = alpha * (x - season_sum) + (1.0 - alpha) * (level + trend);
        if use_trend {
            trend = beta * (level - prev_level) + (1.0 - beta) * trend;
        }
        for j in 0..periods.len() {
            let other: f64 = periods
                .iter()
                .zip(&seasonals)
                .enumerate()
                .filter(|&(k, _)| k != j)
                .map(|(_, (&mk, s))| s.get(t % mk).copied().unwrap_or_default())
                .sum();
            let g = gammas.get(j).copied().unwrap_or_default();
            let m = periods.get(j).copied().unwrap_or(1);
            if let Some(slot) = seasonals.get_mut(j).and_then(|s| s.get_mut(t % m)) {
                *slot = g * (x - level - other) + (1.0 - g) * *slot;
            }
        }
    }
    Some(SmoothingState {
        level,
        trend,
        seasonals,
        residuals,
        sse,
    })
}

/// Every number of a pass as bits, in a fixed order: level, trend, SSE, the
/// seasonal indices period by period, then the residuals. `None` stays
/// `None`.
pub fn state_bits(state: &Option<SmoothingState>) -> Option<Vec<u64>> {
    state.as_ref().map(|s| {
        [s.level, s.trend, s.sse]
            .into_iter()
            .chain(s.seasonals.iter().flatten().copied())
            .chain(s.residuals.iter().copied())
            .map(f64::to_bits)
            .collect()
    })
}

/// One randomized recursion case: a series, a trend switch, periods and
/// smoothing constants.
pub struct Case {
    pub y: Vec<f64>,
    pub use_trend: bool,
    pub periods: Vec<usize>,
    pub alpha: f64,
    pub beta: f64,
    pub gammas: Vec<f64>,
}

/// A seeded case. Period sets cycle through empty, single, duplicated and
/// mixed shapes of up to eight periods, most not dividing the series
/// length; every eighth series
/// carries a non-finite value, and some constants sit on the unit
/// interval's ends.
pub fn case(rng: &mut autoai_linalg::Rng64, i: usize) -> Case {
    let n = rng.gen_range(6..140);
    let mut y: Vec<f64> = (0..n)
        .map(|t| 20.0 + 0.05 * t as f64 + 4.0 * (t as f64 * 0.9).sin() + rng.range_f64(-3.0, 3.0))
        .collect();
    if i % 8 == 7 {
        let at = rng.gen_range(0..n);
        y[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3];
    }
    let mut period = || rng.gen_range(2..(n / 2).max(3));
    let periods = match i % 6 {
        0 => vec![],
        1 => vec![period()],
        2 => {
            let m = period();
            vec![m, m]
        }
        3 => vec![period(), period(), period()],
        4 => (0..5).map(|_| period()).collect(),
        // more periods than the recursion keeps in stack arrays
        _ => (0..8).map(|_| period()).collect(),
    };
    let mut unit = || match rng.gen_range(0..10) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.range_f64(0.0, 1.0),
    };
    let alpha = unit();
    let beta = unit();
    let gammas = periods.iter().map(|_| unit() * 0.5).collect();
    Case {
        y,
        use_trend: i % 2 == 1,
        periods,
        alpha,
        beta,
        gammas,
    }
}
