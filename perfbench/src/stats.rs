//! Summary helpers: medians, tail percentiles, the scaled pinball loss and
//! the attempted/failed tally behind `error_rate`.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value would rest on a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile at `q` in `(0, 1)`. Refused (`Err`) when fewer
/// than [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if q.is_nan() || q <= 0.0 || q >= 1.0 {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    // 1-based nearest rank: the smallest value with at least q·n samples at
    // or below it
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it, need {MIN_BEYOND}",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Pinball (quantile) loss of one quantile forecast.
fn pinball(actual: f64, forecast: f64, q: f64) -> f64 {
    let diff = actual - forecast;
    if diff >= 0.0 {
        q * diff
    } else {
        (q - 1.0) * diff
    }
}

/// Cap on one forecast's scaled pinball loss: the loss of a band about two
/// series levels away from the truth. Like SMAPE's 200% ceiling, it keeps
/// one runaway forecast from outweighing every other read in a mean.
pub const PINBALL_CAP: f64 = 1.0;

/// Mean q10/q90 pinball loss of an 80% band (`lower` as the 10% quantile,
/// `upper` as the 90% one) against `actual`, divided by the mean |actual|
/// so that series of different scale weigh equally, and capped at
/// [`PINBALL_CAP`]. `None` when the inputs are empty, of unequal length, or
/// `actual` is all zero.
pub fn scaled_pinball(actual: &[f64], lower: &[f64], upper: &[f64]) -> Option<f64> {
    let n = actual.len();
    if n == 0 || lower.len() != n || upper.len() != n {
        return None;
    }
    let scale = actual.iter().map(|a| a.abs()).sum::<f64>() / n as f64;
    if scale.is_nan() || scale <= 0.0 {
        return None;
    }
    let loss: f64 = (0..n)
        .map(|i| pinball(actual[i], lower[i], 0.1) + pinball(actual[i], upper[i], 0.9))
        .sum::<f64>()
        / (2 * n) as f64;
    Some((loss / scale).min(PINBALL_CAP))
}

/// How many scaled pinball losses hit [`PINBALL_CAP`].
pub fn capped(losses: &[f64]) -> f64 {
    losses.iter().filter(|l| **l >= PINBALL_CAP).count() as f64
}

/// Mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Operations attempted and failed across a workload. A failed output
/// check counts as a failed operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (fits, observes, reads).
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` is false when it errored or its output
    /// failed a check. Returns `ok` so call sites can branch on it.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// failed / attempted; 0 before anything was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Ok(990.0));
        assert_eq!(tail_percentile(&v, 0.5), Ok(500.0));
    }

    #[test]
    fn tail_percentile_refuses_thin_tails() {
        // p99 of 1000 keeps exactly 10 beyond it; of 999, only 9
        let ok: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail_percentile(&ok, 0.99).is_ok());
        let thin: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail_percentile(&thin, 0.99).is_err());
        assert!(tail_percentile(&[1.0; 5], 0.5).is_err());
        assert!(tail_percentile(&ok, 1.0).is_err());
    }

    #[test]
    fn scaled_pinball_weighs_scales_equally() {
        // a band that brackets the truth tightly scores low
        let a = [10.0, 10.0];
        let tight = scaled_pinball(&a, &[9.0, 9.0], &[11.0, 11.0]).unwrap();
        // (0.1·1 + 0.1·1) / 2 per point → 0.1, over mean |a| = 10
        assert!((tight - 0.01).abs() < 1e-12);
        // the same relative band on a series 100× larger scores the same
        let big = [1000.0, 1000.0];
        let scaled = scaled_pinball(&big, &[900.0, 900.0], &[1100.0, 1100.0]).unwrap();
        assert!((scaled - tight).abs() < 1e-12);
        // a band that misses above the truth pays the 0.9 weight
        let miss = scaled_pinball(&a, &[12.0, 12.0], &[14.0, 14.0]).unwrap();
        // q10: (0.1-1)(10-12)=1.8, q90: (0.9-1)(10-14)=0.4 → 1.1 / 10
        assert!((miss - 0.11).abs() < 1e-12);
    }

    #[test]
    fn scaled_pinball_caps_runaway_bands() {
        let runaway = scaled_pinball(&[10.0], &[1e9], &[1e9 + 1.0]).unwrap();
        assert_eq!(runaway, PINBALL_CAP);
    }

    #[test]
    fn scaled_pinball_rejects_degenerate_input() {
        assert_eq!(scaled_pinball(&[], &[], &[]), None);
        assert_eq!(scaled_pinball(&[0.0, 0.0], &[0.0, 0.0], &[1.0, 1.0]), None);
        assert_eq!(scaled_pinball(&[1.0], &[0.0, 0.0], &[1.0]), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        assert!(t.record(true));
        assert!(!t.record(false));
        t.record(true);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.error_rate(), 0.25);
    }
}
