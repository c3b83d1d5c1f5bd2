//! Derivative-free optimizers.
//!
//! Statistical model fitting in AutoAI-TS (Holt–Winters smoothing constants,
//! ARMA coefficients via conditional sum of squares, BATS Box-Cox lambda)
//! minimizes non-convex objectives without analytic gradients. Nelder–Mead
//! simplex is the workhorse, with a golden-section line search for 1-D
//! problems such as Box-Cox lambda selection.

/// Options controlling the Nelder–Mead simplex search.
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum number of objective evaluations.
    pub max_evals: usize,
    /// Convergence tolerance on the simplex spread of objective values.
    pub f_tol: f64,
    /// Initial simplex step relative to each coordinate (absolute fallback 0.1).
    pub initial_step: f64,
    /// Cooperative wall-clock deadline: when set, the search stops at the
    /// first iteration past this instant and returns the best vertex found
    /// so far. This is how the per-pipeline *soft* time budget reaches the
    /// iterative model fits — best-so-far parameters instead of a hang.
    pub deadline: Option<std::time::Instant>,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        Self {
            max_evals: 2000,
            f_tol: 1e-9,
            initial_step: 0.1,
            deadline: None,
        }
    }
}

/// Minimize `f` starting from `x0` with the Nelder–Mead simplex method.
///
/// Returns `(argmin, min_value)`. The objective may return non-finite values
/// to signal infeasible points; they are treated as `+inf`. A configured
/// [`NelderMeadOptions::deadline`] is honored (see [`nelder_mead_budgeted`]
/// when the caller needs to know whether the search was cut short).
pub fn nelder_mead(
    f: impl Fn(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> (Vec<f64>, f64) {
    let (x, v, _) = nelder_mead_budgeted(f, x0, opts);
    (x, v)
}

/// [`nelder_mead`] variant that also reports whether the search exited early
/// because [`NelderMeadOptions::deadline`] passed. Returns
/// `(argmin, min_value, timed_out)`; on `timed_out == true` the argmin is the
/// best simplex vertex found before the deadline (best-so-far semantics).
///
/// The objective is evaluated lazily — one reflection per iteration, then
/// an expansion or a contraction only when the reflection calls for one —
/// and at most `max_evals + x0.len() + 1` times in all. It may be `FnMut`,
/// so it can reuse scratch buffers across evaluations.
pub fn nelder_mead_budgeted(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> (Vec<f64>, f64, bool) {
    let n = x0.len();
    let mut eval = |x: &[f64]| -> f64 {
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };
    if n == 0 {
        return (Vec::new(), eval(x0), false);
    }
    // standard coefficients
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut p = x0.to_vec();
        let step = if p[i].abs() > 1e-8 {
            p[i].abs() * opts.initial_step
        } else {
            opts.initial_step
        };
        p[i] += step;
        simplex.push(p);
    }
    let mut values: Vec<f64> = simplex.iter().map(|p| eval(p)).collect();
    let mut evals = values.len();
    let mut timed_out = false;

    while evals < opts.max_evals {
        if let Some(deadline) = opts.deadline {
            if std::time::Instant::now() >= deadline {
                timed_out = true;
                break;
            }
        }
        // order simplex by objective
        let mut idx: Vec<usize> = (0..=n).collect();
        idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let simplex_sorted: Vec<Vec<f64>> = idx.iter().map(|&i| simplex[i].clone()).collect();
        let values_sorted: Vec<f64> = idx.iter().map(|&i| values[i]).collect();
        simplex = simplex_sorted;
        values = values_sorted;

        // converge only when both objective spread AND simplex extent are
        // small: equal f-values alone can straddle a minimum symmetrically.
        if (values[n] - values[0]).abs() < opts.f_tol && values[0].is_finite() {
            let mut x_spread = 0.0f64;
            for p in simplex.iter().skip(1) {
                for (a, b) in p.iter().zip(&simplex[0]) {
                    x_spread = x_spread.max((a - b).abs());
                }
            }
            if x_spread < 1e-7 {
                break;
            }
        }

        // centroid of all but worst
        let mut centroid = vec![0.0; n];
        for p in simplex.iter().take(n) {
            for (c, &x) in centroid.iter_mut().zip(p) {
                *c += x / n as f64;
            }
        }

        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&simplex[n])
            .map(|(&c, &w)| c + alpha * (c - w))
            .collect();
        let fr = eval(&reflect);
        evals += 1;

        if fr < values[0] {
            // expansion
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&simplex[n])
                .map(|(&c, &w)| c + gamma * (c - w))
                .collect();
            let fe = eval(&expand);
            evals += 1;
            if fe < fr {
                simplex[n] = expand;
                values[n] = fe;
            } else {
                simplex[n] = reflect;
                values[n] = fr;
            }
        } else if fr < values[n - 1] {
            simplex[n] = reflect;
            values[n] = fr;
        } else {
            // contraction
            let contract: Vec<f64> = centroid
                .iter()
                .zip(&simplex[n])
                .map(|(&c, &w)| c + rho * (w - c))
                .collect();
            let fc = eval(&contract);
            evals += 1;
            if fc < values[n] {
                simplex[n] = contract;
                values[n] = fc;
            } else {
                // shrink toward best
                for i in 1..=n {
                    let best = simplex[0].clone();
                    for (x, &b) in simplex[i].iter_mut().zip(&best) {
                        *x = b + sigma * (*x - b);
                    }
                    values[i] = eval(&simplex[i]);
                    evals += 1;
                }
            }
        }
    }

    let mut best = 0;
    for i in 1..values.len() {
        if values[i] < values[best] {
            best = i;
        }
    }
    (simplex[best].clone(), values[best], timed_out)
}

/// Golden-section search for the minimum of a unimodal 1-D function on `[a, b]`.
pub fn golden_section_min(f: impl Fn(f64) -> f64, mut a: f64, mut b: f64, tol: f64) -> f64 {
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..200 {
        if (b - a).abs() < tol {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    (a + b) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let (x, v) = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default());
        assert!((x[0] - 3.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-3, "{x:?}");
        assert!(v < 1e-5);
    }

    #[test]
    fn nelder_mead_minimizes_rosenbrock() {
        let f = |x: &[f64]| {
            let a = 1.0 - x[0];
            let b = x[1] - x[0] * x[0];
            a * a + 100.0 * b * b
        };
        let opts = NelderMeadOptions {
            max_evals: 10_000,
            ..Default::default()
        };
        let (x, _) = nelder_mead(f, &[-1.2, 1.0], &opts);
        assert!((x[0] - 1.0).abs() < 0.05, "{x:?}");
        assert!((x[1] - 1.0).abs() < 0.05, "{x:?}");
    }

    #[test]
    fn nelder_mead_handles_infeasible_regions() {
        // objective is infinite for x < 0; minimum at x = 0.5
        let f = |x: &[f64]| {
            if x[0] < 0.0 {
                f64::INFINITY
            } else {
                (x[0] - 0.5).powi(2)
            }
        };
        let (x, _) = nelder_mead(f, &[2.0], &NelderMeadOptions::default());
        assert!((x[0] - 0.5).abs() < 1e-3, "{x:?}");
    }

    #[test]
    fn nelder_mead_zero_dimensional() {
        let (x, v) = nelder_mead(|_| 7.0, &[], &NelderMeadOptions::default());
        assert!(x.is_empty());
        assert_eq!(v, 7.0);
    }

    #[test]
    fn expired_deadline_returns_best_so_far_with_flag() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2);
        let opts = NelderMeadOptions {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let (x, v, timed_out) = nelder_mead_budgeted(f, &[0.0], &opts);
        assert!(timed_out);
        assert_eq!(x.len(), 1);
        assert!(v.is_finite());
    }

    #[test]
    fn far_deadline_does_not_change_the_result() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let opts = NelderMeadOptions {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            ..Default::default()
        };
        let (budgeted, _, timed_out) = nelder_mead_budgeted(f, &[0.0, 0.0], &opts);
        let (plain, _) = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default());
        assert!(!timed_out);
        assert_eq!(budgeted, plain);
    }

    #[test]
    fn objective_calls_stay_within_the_budget() {
        // a shrink on the last budgeted iteration costs a reflection, a
        // contraction and `dim` moved vertices: the worst case overshoots
        // `max_evals` by `dim + 1`, never more
        type Problem = (fn(&[f64]) -> f64, Vec<f64>);
        let problems: [Problem; 3] = [
            (
                |x| {
                    let a = 1.0 - x[0];
                    let b = x[1] - x[0] * x[0];
                    a * a + 100.0 * b * b
                },
                vec![-1.2, 1.0],
            ),
            (|x| x.iter().map(|v| v.abs().sqrt()).sum(), vec![3.0; 5]),
            (
                |x| {
                    if x[0] < 0.0 {
                        f64::NAN
                    } else {
                        (x[0] - 0.5).powi(2)
                    }
                },
                vec![2.0],
            ),
        ];
        for (f, x0) in problems {
            for max_evals in [1, 2, 7, 20, 61, 300] {
                let mut calls = 0usize;
                let counting = |x: &[f64]| {
                    calls += 1;
                    f(x)
                };
                let opts = NelderMeadOptions {
                    max_evals,
                    f_tol: 0.0,
                    ..Default::default()
                };
                nelder_mead_budgeted(counting, &x0, &opts);
                assert!(
                    calls <= max_evals + x0.len() + 1,
                    "dim {} budget {max_evals}: {calls} objective calls",
                    x0.len()
                );
            }
        }
    }

    #[test]
    fn golden_section_finds_parabola_min() {
        let x = golden_section_min(|x| (x - 2.5).powi(2), 0.0, 10.0, 1e-8);
        assert!((x - 2.5).abs() < 1e-6);
    }
}
