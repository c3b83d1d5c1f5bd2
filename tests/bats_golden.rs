//! Golden fits of the `bats` pipeline.
//!
//! `BatsPipeline::fit` on short heads of four seeded catalog series, then
//! one `fit_incremental` onto the next `GROWTH` rows, is pinned to exact bits:
//! `predict(12)`, the AIC, the Box-Cox λ and the trend and ARMA flags of
//! the selected configuration. The periods are what look-back discovery
//! returns on each head (ozone runs non-seasonal, the pipeline's shape when
//! no period is feasible), so the pins cover 0, 3, 4 and 5 periods and at
//! least one configuration each with Box-Cox, trend and ARMA selected.
//! The bits were captured from the batched Nelder–Mead search over the
//! `t % m` smoothing recursion; the lazy search and the phase-cursor
//! recursion change the work done, never the arithmetic, so every fit must
//! match bit for bit. The heads are short so the eight fits stay fast in a
//! debug build.

use autoai_ts_repro::datasets::univariate_catalog;
use autoai_ts_repro::pipelines::{BatsPipeline, Forecaster};

const SEED: u64 = 11;
const GROWTH: usize = 12;
const HORIZON: usize = 12;

/// The pinned outcome of one fit.
struct Pin {
    aic: u64,
    lambda: Option<u64>,
    trend: bool,
    arma: bool,
    forecast: [u64; HORIZON],
}

/// A head of `rows` rows of `series`, its periods, and the pins of the
/// cold fit and of the warm refit on `rows + GROWTH` rows.
struct Golden {
    series: &'static str,
    rows: usize,
    periods: &'static [usize],
    cold: Pin,
    warm: Pin,
}

const GOLDEN: [Golden; 4] = [
    Golden {
        series: "ozone",
        rows: 80,
        periods: &[],
        cold: Pin {
            aic: 0x406552a95efe502b,
            lambda: None,
            trend: false,
            arma: false,
            forecast: [
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
                0x404213fefd2bf5d1,
            ],
        },
        warm: Pin {
            aic: 0x4068c5cf345388ca,
            lambda: None,
            trend: false,
            arma: false,
            forecast: [
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
                0x40465082db106776,
            ],
        },
    },
    Golden {
        series: "Births",
        rows: 72,
        periods: &[7, 30, 3],
        cold: Pin {
            aic: 0xc0853fa4b3e14138,
            lambda: Some(0xbfeffc8f172c507c),
            trend: false,
            arma: false,
            forecast: [
                0x4066853612893648,
                0x40678adf42d07477,
                0x4069cf129e27a97e,
                0x407028acf27d5c42,
                0x406d3a6aa30bb9ca,
                0x4067ab3328f60d37,
                0x40675b9c658dce98,
                0x4066775297432549,
                0x40679418c1287078,
                0x406abcfecf459fe7,
                0x406fcce2c53c70aa,
                0x406e6ed558d1dbad,
            ],
        },
        warm: Pin {
            aic: 0xc08baabc7c73a023,
            lambda: Some(0xbfeffc8f172c507c),
            trend: false,
            arma: false,
            forecast: [
                0x406820b79e9b460a,
                0x4067c0dbd58ec14a,
                0x4065c667c43350df,
                0x4068124d8c60f6f9,
                0x406a18a1a80856f8,
                0x4070317d17fdd85d,
                0x406d7bd5896955b6,
                0x40663b0fdd2be9f4,
                0x4066f65694bbfcfe,
                0x406619a4a7ab53ce,
                0x40673da10ecd3b3d,
                0x406c4b1acdfc657a,
            ],
        },
    },
    Golden {
        series: "usmelec",
        rows: 64,
        periods: &[5, 7, 21, 12, 30],
        cold: Pin {
            aic: 0x406f7f3219082c5e,
            lambda: None,
            trend: false,
            arma: true,
            forecast: [
                0x408bcb37058132d5,
                0x408bde1e10f50e0c,
                0x408c7dbf1ba1b5c4,
                0x408d40cd304014d2,
                0x408d30bf68ddd616,
                0x408d403d2ba3d1f1,
                0x408c7f3b920f2364,
                0x408d078cbc74ebd9,
                0x408c7efbd652c6ea,
                0x408c0cd0b392a476,
                0x408cafe46ddd5015,
                0x408aef66013ab2fb,
            ],
        },
        warm: Pin {
            aic: 0x4076864cace45a1a,
            lambda: None,
            trend: false,
            arma: true,
            forecast: [
                0x4094b6ce601e3cc0,
                0x4094c74548ecdd40,
                0x4094a959ae30c7f9,
                0x4094bdd52853f276,
                0x40945b0aa7529da4,
                0x4094832374f23fe4,
                0x4094912697af66f7,
                0x40949c323110ccf2,
                0x4094c4e55ab1e74d,
                0x4094af86803508e2,
                0x40954ad20fe06fb4,
                0x409567a48d74b780,
            ],
        },
    },
    Golden {
        series: "elecdaily",
        rows: 96,
        periods: &[7, 26, 12, 30],
        cold: Pin {
            aic: 0x4074ad976036c77e,
            lambda: Some(0x3fea41794ca63328),
            trend: true,
            arma: false,
            forecast: [
                0x408c4b1158f5c429,
                0x408db427f896cd7c,
                0x408f4489b8adbb32,
                0x4090981bfa07eb05,
                0x4091b691f0f9bea2,
                0x40927d04d65476aa,
                0x409367cd49a8291e,
                0x409466424de00667,
                0x40947a2867f766f2,
                0x4095a847496276d2,
                0x4096d261fd03dfac,
                0x4097ff3b039a10e8,
            ],
        },
        warm: Pin {
            aic: 0x40787207dba047d7,
            lambda: Some(0x3fea41794ca63328),
            trend: true,
            arma: false,
            forecast: [
                0x408c8ba622739dc3,
                0x408a832d71fe4a09,
                0x4087e2deba87e13b,
                0x40856a84a12cc13a,
                0x408316d644c664d9,
                0x40805d68a9d90862,
                0x407c9f40051d548b,
                0x40781cdde03a5230,
                0x40730a95efab5faf,
                0x406ced1c1e6b3062,
                0x406223e54da1cc90,
                0x405392dee5357a30,
            ],
        },
    },
];

fn check(p: &BatsPipeline, want: &Pin, what: &str) {
    let [m] = p.models() else {
        panic!("{what}: one model per series expected");
    };
    assert_eq!(m.aic.to_bits(), want.aic, "{what}: AIC");
    assert_eq!(m.lambda.map(f64::to_bits), want.lambda, "{what}: lambda");
    assert_eq!(m.has_trend, want.trend, "{what}: trend");
    assert_eq!(m.has_arma, want.arma, "{what}: ARMA");
    let fc = p.predict(HORIZON).expect("bats predict");
    let bits: Vec<u64> = fc.series(0).iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, want.forecast, "{what}: forecast bits");
}

#[test]
fn bats_fits_and_warm_refits_golden_bits() {
    for g in &GOLDEN {
        let full = univariate_catalog()
            .into_iter()
            .find(|e| e.name == g.series)
            .unwrap_or_else(|| panic!("catalog entry {} missing", g.series))
            .generate(SEED);
        let mut p = BatsPipeline::new(g.periods.to_vec());
        p.fit(&full.slice(0, g.rows)).expect("bats fit");
        assert_eq!(
            p.models()[0].periods,
            g.periods,
            "{}: feasible periods",
            g.series
        );
        check(&p, &g.cold, &format!("{} cold fit", g.series));
        // a view over the same buffers grown by GROWTH rows: the seeded path
        let grown = full.slice(0, g.rows + GROWTH);
        assert!(
            p.fit_incremental(&grown, g.rows).expect("bats refit"),
            "{}: the warm path must be taken",
            g.series
        );
        check(&p, &g.warm, &format!("{} warm refit", g.series));
    }
}
