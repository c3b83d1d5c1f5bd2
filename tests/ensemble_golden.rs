//! Golden forecasts of the three default AutoEnsembler pipelines.
//!
//! `predict(12)` of FlattenAutoEnsembler-log, DifferenceFlattenAutoEnsembler-log
//! and LocalizedFlattenAutoEnsembler on two seeded catalog series is pinned
//! to exact bits, together with the regressor each tournament chose (the
//! pins cover linear, random-forest and gradient-boosting winners). The
//! bits were captured from the serial per-output fit loop and the
//! gather-and-filter CART kernel; the parallel multi-output fit and the
//! presorted-values kernel change scheduling and memory layout only, so
//! every forecast must still match bit for bit. The series are cut to
//! their first 96 rows so all six tournaments stay fast in a debug build.

use autoai_ts_repro::datasets::univariate_catalog;
use autoai_ts_repro::pipelines::{AutoEnsembler, Forecaster};
use autoai_ts_repro::tsdata::TimeSeriesFrame;

const SEED: u64 = 11;
const ROWS: usize = 96;
const LOOKBACK: usize = 8;
const HORIZON: usize = 12;

/// `(series, pipeline, chosen regressor, predict(12) bits)`.
type Golden = (&'static str, &'static str, &'static str, [u64; HORIZON]);

const GOLDEN: [Golden; 6] = [
    (
        "elecdaily",
        "FlattenAutoEnsembler-log",
        "random_forest",
        [
            0x408e4656e150cfa8,
            0x409003800cfcc6f3,
            0x4090edf7a5327c98,
            0x40919749fa1a4b34,
            0x4092bd1dd84d818e,
            0x4093785211131e7d,
            0x4094596b1ee0eb00,
            0x409496b195c0564c,
            0x4094aab79618435b,
            0x4094b39e41053130,
            0x40944c1f25d266c7,
            0x4092e7fe9a86a0cb,
        ],
    ),
    (
        "elecdaily",
        "DifferenceFlattenAutoEnsembler-log",
        "random_forest",
        [
            0x408c8eb9601bc22d,
            0x408da20cc513d74b,
            0x408e84783b3f9724,
            0x408f709656faf31e,
            0x408ff0862813a8aa,
            0x40901eed138a8cdc,
            0x4090084af03ab5bd,
            0x40901573df50e649,
            0x408ff4816ab98508,
            0x408f0bcaf8430853,
            0x408df4fe9f8ad240,
            0x408cab26d7d1bcf6,
        ],
    ),
    (
        "elecdaily",
        "LocalizedFlattenAutoEnsembler",
        "linear",
        [
            0x408ea940de8c9d34,
            0x40907a71c938c094,
            0x4091a08484372723,
            0x4092ce5606c4842a,
            0x4093af350996f95e,
            0x409466a6f1deb75e,
            0x4094b1c20d98fee2,
            0x4094ec9cedf2b224,
            0x4094991e3b6d5b9c,
            0x40940569636b4394,
            0x4093253e60f0a3de,
            0x409226070107d500,
        ],
    ),
    (
        "usmelec",
        "FlattenAutoEnsembler-log",
        "gbm",
        [
            0x408c9485c8a6661a,
            0x408f4226be7b1dff,
            0x408f044cef813921,
            0x4092bb0dab8dcd24,
            0x4093845bc05c4b68,
            0x4093cfadb864b526,
            0x4094103d715c97b7,
            0x40942112bdf41b3f,
            0x4094b79683fb5de0,
            0x4094323eda58f6af,
            0x40945f70cbdb31f4,
            0x4091f1999734ce07,
        ],
    ),
    (
        "usmelec",
        "DifferenceFlattenAutoEnsembler-log",
        "random_forest",
        [
            0x408d210cad69231a,
            0x408ee59a1f801adb,
            0x408fe9cee10f471c,
            0x40904ff93292d737,
            0x40908e90b2805266,
            0x4090c0df690124f4,
            0x4090de19deb9a9ec,
            0x409096ffe578c9d4,
            0x40903d2a824de4f5,
            0x408fb58481e858b7,
            0x408e73e5e646fc3d,
            0x408ce93e60128c43,
        ],
    ),
    (
        "usmelec",
        "LocalizedFlattenAutoEnsembler",
        "gbm",
        [
            0x408ca6f6f91c85e6,
            0x408faff1fe1990ad,
            0x408f30da46eb8de7,
            0x4092ad45fdd194b6,
            0x4093a5e10793273e,
            0x4093f8577075879f,
            0x40943e50200a9fec,
            0x40941b06f6e81066,
            0x4094bb0c4d0b50e0,
            0x4094a09294983b6d,
            0x409487eefce06d8e,
            0x409311b946b37d95,
        ],
    ),
];

fn series(name: &str) -> TimeSeriesFrame {
    let entry = univariate_catalog()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("catalog entry {name} missing"));
    entry.generate(SEED).slice(0, ROWS).into_owned()
}

fn pipelines() -> [AutoEnsembler; 3] {
    [
        AutoEnsembler::flatten(LOOKBACK, HORIZON, true),
        AutoEnsembler::difference_flatten(LOOKBACK, HORIZON, true),
        AutoEnsembler::localized_flatten(LOOKBACK, HORIZON),
    ]
}

#[test]
fn default_ensemblers_forecast_golden_bits() {
    let mut golden = GOLDEN.iter();
    for name in ["elecdaily", "usmelec"] {
        let frame = series(name);
        for mut p in pipelines() {
            let Some(&(g_series, g_pipeline, g_chosen, g_bits)) = golden.next() else {
                panic!("golden table shorter than the pipeline sweep");
            };
            assert_eq!((name, p.name().as_str()), (g_series, g_pipeline));
            p.fit(&frame).expect("ensembler fit");
            assert_eq!(p.chosen_regressor, g_chosen, "{name} {g_pipeline}: winner");
            let fc = p.predict(HORIZON).expect("ensembler predict");
            let bits: Vec<u64> = fc.series(0).iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, g_bits, "{name} {g_pipeline}: forecast bits");
        }
    }
    assert!(
        golden.next().is_none(),
        "golden table longer than the sweep"
    );
}
