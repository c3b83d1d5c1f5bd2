//! Benchmark: the vectorized linalg kernels against naive textbook
//! references, BATS cold fits and seeded refits, and the AutoEnsembler
//! tournament's 12-output model fits.
//!
//! Plain `std::time` harness (`harness = false`); run with
//! `cargo bench -p autoai-bench --bench kernels`.
//!
//! Modes:
//!
//! * default — full measurement; writes the machine-readable
//!   `BENCH_kernels.json` at the repo root (per-kernel naive/fast wall
//!   times and speedups, the median and min/max time of BATS cold fits and
//!   seeded refits at two `fit-uni` shapes, and the median and min/max fit
//!   time of 12-output linear / random-forest / boosted
//!   `MultiOutputRegressor` fits on 100×5 and 300×16 window matrices).
//! * `--smoke` — reduced sizes, no JSON; asserts every gated kernel
//!   (matmul, gram, dot) stays ≥ 2× ahead of its naive reference,
//!   that all kernels agree with the references within a
//!   reassociation-sized tolerance, that BATS's smoothing recursion
//!   matches the textbook `t % m` recursion bit for bit, that the parallel
//!   multi-output fit is bitwise identical to a serial per-column loop,
//!   and that the presorted CART kernel grows bit for bit the tree of a
//!   naive per-node-sort reference. Exits non-zero on any violation;
//!   wired into `scripts/check.sh`.

use std::hint::black_box;
use std::time::Instant;

use autoai_datasets::univariate_catalog;
use autoai_linalg::{dot, Matrix, Rng64};
use autoai_ml_models::{
    DecisionTreeConfig, DecisionTreeRegressor, GradientBoostingConfig, GradientBoostingRegressor,
    LinearRegression, MultiOutputRegressor, RandomForestConfig, RandomForestRegressor, Regressor,
};
use autoai_stat_models::{Bats, BatsConfig, Smoother};

#[path = "../../ml-models/tests/reference/mod.rs"]
mod reference;

#[path = "../../stat-models/tests/reference/mod.rs"]
mod bats_reference;

// ---- naive references (the pre-optimization loop shapes) ---------------

fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        for j in 0..b.ncols() {
            let mut acc = 0.0;
            for k in 0..a.ncols() {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

fn naive_gram(a: &Matrix) -> Matrix {
    let n = a.ncols();
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for r in 0..a.nrows() {
                acc += a[(r, i)] * a[(r, j)];
            }
            g[(i, j)] = acc;
        }
    }
    g
}

fn naive_t_matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
    (0..a.ncols())
        .map(|j| (0..a.nrows()).map(|r| a[(r, j)] * v[r]).sum())
        .collect()
}

// ---- harness -----------------------------------------------------------

fn random_matrix(rng: &mut Rng64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.range_f64(-2.0, 2.0)).collect(),
    )
}

/// Best-of-`reps` wall time of `inner` calls to `f`, in milliseconds per call.
fn measure_ms(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e3 / inner as f64);
    }
    best
}

fn max_rel_err(fast: &Matrix, slow: &Matrix, len: usize) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..fast.nrows() {
        for j in 0..fast.ncols() {
            let (f, s) = (fast[(i, j)], slow[(i, j)]);
            worst = worst.max((f - s).abs() / (1.0 + s.abs()));
        }
    }
    worst / (len.max(1) as f64)
}

struct KernelResult {
    name: &'static str,
    naive_ms: f64,
    fast_ms: f64,
    gated: bool,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.fast_ms
    }
}

// ---- BATS fits --------------------------------------------------------

/// Rows appended before a seeded refit: one T-Daub allocation step.
const BATS_GROWTH: usize = 12;

/// `fit-uni` shapes: a head of a seeded catalog series and its seasonal
/// periods (all feasible on the head and on the grown head).
const BATS_SHAPES: [(&str, usize, &[usize]); 2] = [
    ("Births", 100, &[7, 4, 30]),
    ("usmelec", 200, &[3, 7, 12, 26, 30]),
];

/// Does BATS's smoothing recursion reproduce the textbook `t % m`
/// recursion bit for bit — SSE-only and full passes — on seeded cases?
fn bats_reference_parity(rng: &mut Rng64, cases: usize) -> bool {
    (0..cases).all(|i| {
        let c = bats_reference::case(rng, i);
        let want =
            bats_reference::run_es(&c.y, c.use_trend, &c.periods, c.alpha, c.beta, &c.gammas);
        let mut smoother = Smoother::new(&c.y, c.use_trend, &c.periods);
        let sse = smoother
            .as_mut()
            .and_then(|s| s.sse(c.alpha, c.beta, &c.gammas));
        let got = smoother
            .as_mut()
            .and_then(|s| s.pass(c.alpha, c.beta, &c.gammas));
        sse.map(f64::to_bits) == want.as_ref().map(|w| w.sse.to_bits())
            && bats_reference::state_bits(&got) == bats_reference::state_bits(&want)
    })
}

// ---- tournament model fits -------------------------------------------

/// Outputs of every tournament fit: the default forecast horizon.
const OUTPUTS: usize = 12;

/// The AutoEnsembler tournament's candidates with its hyperparameters.
fn tournament_candidates() -> Vec<Box<dyn Regressor>> {
    vec![
        Box::new(LinearRegression::new()),
        Box::new(RandomForestRegressor::with_config(RandomForestConfig {
            n_trees: 30,
            max_depth: 10,
            ..Default::default()
        })),
        Box::new(GradientBoostingRegressor::with_config(
            GradientBoostingConfig {
                n_rounds: 60,
                ..Default::default()
            },
        )),
    ]
}

/// Direct multi-step windows of a noisy seasonal series: `rows` windows of
/// `lookback` lags, each with [`OUTPUTS`] targets — the tournament's input.
fn window_design(rng: &mut Rng64, rows: usize, lookback: usize) -> (Matrix, Matrix) {
    let series: Vec<f64> = (0..rows + lookback + OUTPUTS)
        .map(|i| {
            50.0 + 10.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()
                + rng.range_f64(-3.0, 3.0)
        })
        .collect();
    let window = |from: usize, len: usize| -> Vec<Vec<f64>> {
        (0..rows)
            .map(|r| series[r + from..r + from + len].to_vec())
            .collect()
    };
    (
        Matrix::from_rows(&window(0, lookback)),
        Matrix::from_rows(&window(lookback, OUTPUTS)),
    )
}

/// Median, min and max wall time of `reps` calls to `f`, in milliseconds.
fn spread_ms(reps: usize, mut f: impl FnMut()) -> (f64, f64, f64) {
    f(); // warm up
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], times[0], times[times.len() - 1])
}

/// Does the parallel multi-output fit predict bit for bit what a serial
/// loop of per-column fits predicts?
fn multi_output_parity(proto: &dyn Regressor, x: &Matrix, y: &Matrix) -> bool {
    let mut parallel = MultiOutputRegressor::new(proto.clone_unfitted());
    parallel.fit(x, y).expect("multi-output fit");
    let batch = parallel.predict(x);
    (0..y.ncols()).all(|k| {
        let mut serial = proto.clone_unfitted();
        serial.fit(x, &y.col(k)).expect("serial fit");
        (0..x.nrows()).all(|r| serial.predict_row(x.row(r)).to_bits() == batch[(r, k)].to_bits())
    })
}

/// Does the presorted CART kernel grow the reference CART's tree on seeded
/// bootstrap draws over tie-heavy designs, with and without feature
/// subsampling?
fn cart_reference_parity(rng: &mut Rng64, cases: usize) -> bool {
    (0..cases).all(|case| {
        let n = rng.gen_range(8..160);
        let d = rng.gen_range(1..17);
        let x = reference::tied_design(rng, n, d);
        let y = reference::targets(rng, &x);
        let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let cfg = DecisionTreeConfig {
            max_depth: rng.gen_range(1..11),
            min_samples_split: 2,
            min_samples_leaf: rng.gen_range(1..3),
            max_features: (case % 2 == 1).then(|| rng.gen_range(1..d + 1)),
            seed: case as u64,
        };
        let want = reference::ReferenceTree::fit(&x, &y, &indices, &cfg);
        let mut got = DecisionTreeRegressor::with_config(cfg);
        got.fit_indices(&x, &y, &indices).expect("tree fit");
        got.n_nodes() == want.n_nodes()
            && reference::prediction_bits(&x, |r| got.predict_row(r))
                == reference::prediction_bits(&x, |r| want.predict_row(r))
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // shapes chosen from the workspace's real design matrices (hundreds of
    // window rows, tens of lookback columns) plus a square matmul stressing
    // the register tiling
    let (mm, gram_rows, gram_cols, dot_n, reps) = if smoke {
        (96, 512, 32, 4096, 5)
    } else {
        (192, 2048, 48, 16384, 9)
    };

    let mut rng = Rng64::seed_from_u64(0xBE7C);
    let a = random_matrix(&mut rng, mm, mm);
    let b = random_matrix(&mut rng, mm, mm);
    let g = random_matrix(&mut rng, gram_rows, gram_cols);
    let x: Vec<f64> = (0..dot_n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
    let y: Vec<f64> = (0..dot_n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
    let w: Vec<f64> = (0..gram_rows).map(|_| rng.range_f64(-2.0, 2.0)).collect();

    println!("== kernels vs naive references ==");
    let mut results = Vec::new();

    let fast = a.matmul(&b);
    let slow = naive_matmul(&a, &b);
    assert!(
        max_rel_err(&fast, &slow, mm) < 1e-13,
        "matmul diverged from the naive reference"
    );
    results.push(KernelResult {
        name: "matmul",
        naive_ms: measure_ms(reps, 1, || {
            black_box(naive_matmul(black_box(&a), black_box(&b)));
        }),
        fast_ms: measure_ms(reps, 1, || {
            black_box(black_box(&a).matmul(black_box(&b)));
        }),
        gated: true,
    });

    let fast = g.gram();
    let slow = naive_gram(&g);
    assert!(
        max_rel_err(&fast, &slow, gram_rows) < 1e-13,
        "gram diverged from the naive reference"
    );
    results.push(KernelResult {
        name: "gram",
        naive_ms: measure_ms(reps, 1, || {
            black_box(naive_gram(black_box(&g)));
        }),
        fast_ms: measure_ms(reps, 1, || {
            black_box(black_box(&g).gram());
        }),
        gated: true,
    });

    let (df, ds) = (dot(&x, &y), naive_dot(&x, &y));
    assert!(
        (df - ds).abs() / (1.0 + ds.abs()) < 1e-13 * dot_n as f64,
        "dot diverged from the naive reference: {df} vs {ds}"
    );
    results.push(KernelResult {
        name: "dot",
        naive_ms: measure_ms(reps, 64, || {
            black_box(naive_dot(black_box(&x), black_box(&y)));
        }),
        fast_ms: measure_ms(reps, 64, || {
            black_box(dot(black_box(&x), black_box(&y)));
        }),
        gated: true,
    });

    let fast_tv = g.t_matvec(&w);
    let slow_tv = naive_t_matvec(&g, &w);
    for (f, s) in fast_tv.iter().zip(&slow_tv) {
        assert!(
            (f - s).abs() / (1.0 + s.abs()) < 1e-13 * gram_rows as f64,
            "t_matvec diverged: {f} vs {s}"
        );
    }
    // t_matvec is memory-bound (one pass, no reduction restructuring to
    // exploit), so it is reported but not held to the 2x gate
    results.push(KernelResult {
        name: "t_matvec",
        naive_ms: measure_ms(reps, 16, || {
            black_box(naive_t_matvec(black_box(&g), black_box(&w)));
        }),
        fast_ms: measure_ms(reps, 16, || {
            black_box(black_box(&g).t_matvec(black_box(&w)));
        }),
        gated: false,
    });

    for r in &results {
        println!(
            "{:<10} naive {:>10.4} ms   fast {:>10.4} ms   {:>6.2}x{}",
            r.name,
            r.naive_ms,
            r.fast_ms,
            r.speedup(),
            if r.gated { "  [gated >= 2x]" } else { "" }
        );
    }

    println!("== BATS fits ==");
    let bats_parity = bats_reference_parity(
        &mut Rng64::seed_from_u64(0xBA75),
        if smoke { 200 } else { 1000 },
    );
    println!("smoothing recursion vs textbook t % m recursion bitwise parity: {bats_parity}");
    assert!(
        bats_parity,
        "BATS's smoothing recursion diverged from the reference recursion"
    );
    let bats_shapes = if smoke {
        &BATS_SHAPES[..1]
    } else {
        &BATS_SHAPES[..]
    };
    let bats_reps = if smoke { 1 } else { 7 };
    let mut bats_rows = Vec::new();
    for &(name, rows, periods) in bats_shapes {
        let full = univariate_catalog()
            .into_iter()
            .find(|e| e.name == name)
            .expect("BATS shapes are catalog entries")
            .generate(11);
        let (head, grown) = (full.slice(0, rows), full.slice(0, rows + BATS_GROWTH));
        let config = BatsConfig::with_periods(periods.to_vec());
        let seed = Bats::fit(head.series(0), &config).expect("BATS cold fit");
        let cold = spread_ms(bats_reps, || {
            black_box(Bats::fit(black_box(head.series(0)), &config).expect("BATS cold fit"));
        });
        let seeded = spread_ms(bats_reps, || {
            black_box(
                Bats::fit_seeded_with_deadline(black_box(grown.series(0)), &config, &seed, None)
                    .expect("BATS seeded refit"),
            );
        });
        let p = periods.len();
        println!(
            "{name:<8} {rows:>4} rows {p} periods   cold median {:>9.3} ms (min {:.3}, max {:.3})   \
             seeded median {:>9.3} ms (min {:.3}, max {:.3})",
            cold.0, cold.1, cold.2, seeded.0, seeded.1, seeded.2
        );
        bats_rows.push(format!(
            "      {{\"series\": \"{name}\", \"rows\": {rows}, \"periods\": {periods:?}, \
             \"cold_median_ms\": {:.3}, \"cold_min_ms\": {:.3}, \"cold_max_ms\": {:.3}, \
             \"seeded_median_ms\": {:.3}, \"seeded_min_ms\": {:.3}, \"seeded_max_ms\": {:.3}}}",
            cold.0, cold.1, cold.2, seeded.0, seeded.1, seeded.2
        ));
    }

    println!("== tournament model fits ({OUTPUTS} outputs) ==");
    let cart_parity = cart_reference_parity(&mut rng, if smoke { 40 } else { 200 });
    println!("presorted CART vs reference CART bitwise parity: {cart_parity}");
    assert!(
        cart_parity,
        "the presorted CART kernel diverged from the reference CART"
    );
    let shapes: &[(usize, usize)] = if smoke {
        &[(100, 5)]
    } else {
        &[(100, 5), (300, 16)]
    };
    let fit_reps = if smoke { 1 } else { 7 };
    let mut fit_rows = Vec::new();
    for &(rows, lookback) in shapes {
        let (fx, fy) = window_design(&mut rng, rows, lookback);
        for proto in tournament_candidates() {
            let parity = multi_output_parity(proto.as_ref(), &fx, &fy);
            assert!(
                parity,
                "parallel {} multi-output fit diverged from the serial loop at {rows}x{lookback}",
                proto.name()
            );
            let (median, min, max) = spread_ms(fit_reps, || {
                let mut m = MultiOutputRegressor::new(proto.clone_unfitted());
                m.fit(black_box(&fx), black_box(&fy))
                    .expect("multi-output fit");
                black_box(m);
            });
            println!(
                "{rows:>4}x{lookback:<3} {:<18} median {median:>9.3} ms   min {min:>9.3}   max {max:>9.3}   \
                 bitwise parity: {parity}",
                proto.name()
            );
            fit_rows.push(format!(
                "      {{\"shape\": [{rows}, {lookback}], \"model\": \"{}\", \"median_ms\": {median:.3}, \
                 \"min_ms\": {min:.3}, \"max_ms\": {max:.3}, \"bitwise_parity\": {parity}}}",
                proto.name()
            ));
        }
    }

    let min_gated = results
        .iter()
        .filter(|r| r.gated)
        .map(KernelResult::speedup)
        .fold(f64::INFINITY, f64::min);

    if smoke {
        assert!(
            min_gated >= 2.0,
            "kernel speedup bar not met: {min_gated:.2}x (need 2x)"
        );
        println!(
            "smoke: kernel speedups >= 2x, references matched, BATS recursion, \
             multi-output fits and CART kernel bit-identical to their references"
        );
        return;
    }

    // machine-readable record at the repo root (hand-built JSON: the schema
    // is flat and the hermetic build carries no serializer)
    let kernel_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"naive_ms\": {:.4}, \"fast_ms\": {:.4}, \
                 \"speedup\": {:.3}, \"gated\": {}}}",
                r.name,
                r.naive_ms,
                r.fast_ms,
                r.speedup(),
                r.gated
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"matmul_dim\": {mm},\n  \"gram_shape\": [{gram_rows}, {gram_cols}],\n  \"dot_len\": {dot_n},\n  \"reps\": {reps},\n  \"kernels\": [\n{}\n  ],\n  \"min_gated_speedup\": {min_gated:.3},\n  \"bats_reference_parity\": {bats_parity},\n  \"bats_fits\": {{\n    \"growth_rows\": {BATS_GROWTH},\n    \"reps\": {bats_reps},\n    \"fits\": [\n{}\n    ]\n  }},\n  \"cart_reference_parity\": {cart_parity},\n  \"tournament_fits\": {{\n    \"outputs\": {OUTPUTS},\n    \"reps\": {fit_reps},\n    \"fits\": [\n{}\n    ]\n  }}\n}}\n",
        kernel_json.join(",\n"),
        bats_rows.join(",\n"),
        fit_rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, json).expect("write BENCH_kernels.json");
    println!("wrote {path}");
}
