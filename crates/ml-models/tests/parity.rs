//! Bitwise parity pins for the tree kernel and the parallel multi-output fit.
//!
//! * The presorted CART kernel must grow exactly the tree a naive
//!   per-node-sort CART grows under the same tie and threshold rules, for
//!   bootstrap multisets with duplicates, row subsets, tied feature values
//!   and feature subsampling.
//! * `MultiOutputRegressor::fit` fits its outputs in parallel; its models
//!   must predict bit for bit what a serial loop of
//!   `clone_unfitted().fit()` per column produces, for the linear, forest
//!   and boosted candidates of the AutoEnsembler tournament.

mod reference;

use autoai_linalg::{Matrix, Rng64};
use autoai_ml_models::{
    DecisionTreeConfig, DecisionTreeRegressor, FeatureOrders, GradientBoostingConfig,
    GradientBoostingRegressor, LinearRegression, MultiOutputRegressor, RandomForestConfig,
    RandomForestRegressor, Regressor,
};
use reference::{prediction_bits, targets, tied_design, ReferenceTree};

/// Training rows plus fresh rows that land between and beyond them.
fn probe_rows(rng: &mut Rng64, x: &Matrix) -> Matrix {
    let extra = tied_design(rng, 32, x.ncols());
    let rows: Vec<Vec<f64>> = (0..x.nrows())
        .map(|r| x.row(r).to_vec())
        .chain((0..extra.nrows()).map(|r| extra.row(r).to_vec()))
        .collect();
    Matrix::from_rows(&rows)
}

#[test]
fn presorted_kernel_matches_reference_cart_bit_for_bit() {
    let mut rng = Rng64::seed_from_u64(0xCA27);
    for case in 0..300 {
        let n = rng.gen_range(2..90);
        let d = rng.gen_range(1..7);
        let x = tied_design(&mut rng, n, d);
        let y = targets(&mut rng, &x);
        let indices: Vec<usize> = match case % 3 {
            // bootstrap draw: duplicates and missing rows
            0 => (0..n).map(|_| rng.gen_range(0..n)).collect(),
            // every row once (the shared-order fast path)
            1 => (0..n).collect(),
            // a shuffled row subset, as row-subsampled boosting draws
            _ => {
                let mut idx: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut idx);
                idx.truncate(rng.gen_range(1..n + 1));
                idx
            }
        };
        let cfg = DecisionTreeConfig {
            max_depth: rng.gen_range(0..10),
            min_samples_split: rng.gen_range(1..6),
            min_samples_leaf: rng.gen_range(1..4),
            max_features: if rng.gen_range(0..2) == 0 {
                None
            } else {
                Some(rng.gen_range(0..d + 1))
            },
            seed: rng.gen_range(0..1_000_000) as u64,
        };
        let want = ReferenceTree::fit(&x, &y, &indices, &cfg);
        let mut got = DecisionTreeRegressor::with_config(cfg.clone());
        got.fit_indices(&x, &y, &indices).unwrap();
        let mut shared_got = DecisionTreeRegressor::with_config(cfg.clone());
        shared_got
            .fit_indices_presorted(&x, &y, &indices, &FeatureOrders::compute(&x))
            .unwrap();
        let probe = probe_rows(&mut rng, &x);
        let want_bits = prediction_bits(&probe, |r| want.predict_row(r));
        assert_eq!(got.n_nodes(), want.n_nodes(), "case {case}: {cfg:?}");
        assert_eq!(
            prediction_bits(&probe, |r| got.predict_row(r)),
            want_bits,
            "case {case}: {cfg:?}"
        );
        assert_eq!(
            prediction_bits(&probe, |r| shared_got.predict_row(r)),
            want_bits,
            "case {case}: shared orders"
        );
    }
}

fn candidates(rng: &mut Rng64, d: usize) -> Vec<Box<dyn Regressor>> {
    vec![
        Box::new(LinearRegression::new()),
        Box::new(RandomForestRegressor::with_config(RandomForestConfig {
            n_trees: 6,
            max_depth: 6,
            max_features: Some(rng.gen_range(1..d + 1)),
            seed: rng.gen_range(0..1000) as u64,
            ..Default::default()
        })),
        Box::new(GradientBoostingRegressor::with_config(
            GradientBoostingConfig {
                n_rounds: 8,
                subsample: if rng.gen_range(0..2) == 0 { 1.0 } else { 0.7 },
                seed: rng.gen_range(0..1000) as u64,
                ..Default::default()
            },
        )),
    ]
}

#[test]
fn parallel_multi_output_matches_serial_per_column_fits() {
    let mut rng = Rng64::seed_from_u64(0x9A7A);
    for case in 0..12 {
        let n = rng.gen_range(12..70);
        let d = rng.gen_range(2..7);
        let k = rng.gen_range(1..13);
        let x = tied_design(&mut rng, n, d);
        let cols: Vec<Vec<f64>> = (0..k).map(|_| targets(&mut rng, &x)).collect();
        let y = Matrix::from_rows(
            &(0..n)
                .map(|r| cols.iter().map(|c| c[r]).collect())
                .collect::<Vec<Vec<f64>>>(),
        );
        let probe = probe_rows(&mut rng, &x);
        for proto in candidates(&mut rng, d) {
            let mut parallel = MultiOutputRegressor::new(proto.clone_unfitted());
            parallel.fit(&x, &y).unwrap();
            assert_eq!(parallel.n_outputs(), k);
            let batch = parallel.predict(&probe);
            for (c, target) in cols.iter().enumerate() {
                let mut serial = proto.clone_unfitted();
                serial.fit(&x, target).unwrap();
                let got: Vec<u64> = (0..probe.nrows())
                    .map(|r| batch[(r, c)].to_bits())
                    .collect();
                assert_eq!(
                    got,
                    prediction_bits(&probe, |row| serial.predict_row(row)),
                    "case {case}: {} output {c}",
                    proto.name()
                );
            }
        }
    }
}
