//! The chaos gauntlet: seeded fault plans driven through the whole stack.
//!
//! The deterministic chaos layer (`autoai_chaos`) injects panics, typed
//! errors, NaN forecasts and delays at named sites inside the pipelines
//! and the executor. This suite sweeps **over a
//! hundred seeded plans** and holds the system to its robustness
//! contract:
//!
//! * `run_tdaub` never hangs (the hard-deadline watchdog bounds it) and
//!   never panics — every fault lands as a typed failure;
//! * serial and parallel runs agree bit-for-bit on the survivors under
//!   the *same* plan (injection is a pure function of seed, site and key,
//!   never of thread interleaving);
//! * `AutoAITS::fit` *always* returns a working forecaster, walking the
//!   degradation ladder down to the ZeroModel baseline at worst;
//! * an empty plan is invisible: zero injected faults and bit-identical
//!   results to a run with no plan installed at all;
//! * the interval ladder absorbs `predict.interval` faults: a faulting
//!   native band degrades to the split-conformal fallback (and at worst to
//!   the ZeroModel floor), and the served bands are always finite.
//!
//! The gauntlet doubles as a **lock-order sanitizer run**: every workspace
//! lock goes through `linalg::sync`'s ordered wrappers, and enabling
//! runtime tracking makes each test record the cross-thread acquisition
//! graph live (even in release builds) and assert zero order inversions
//! after 150+ seeded plans.
//!
//! Chaos state is process-global, so every test serializes on `GATE`.

use std::sync::Mutex;
use std::time::Duration;

use autoai_ts_repro::chaos;
use autoai_ts_repro::core_ts::{
    AutoAITS, AutoAITSConfig, DegradationLevel, ForecastService, PipelineError, ServiceRequest,
    ServiceResponse,
};
use autoai_ts_repro::linalg::sync as lock_sync;
use autoai_ts_repro::lookback;
use autoai_ts_repro::pipelines::{
    pipeline_by_name, predict_interval_or_conformal, ConformalCalibration, Forecaster,
    IntervalSource, PipelineContext,
};
use autoai_ts_repro::tdaub::{run_tdaub, TDaubConfig, TDaubResult};
use autoai_ts_repro::tsdata::{self, TimeSeriesFrame};

static GATE: Mutex<()> = Mutex::new(());

fn wavy(n: usize) -> TimeSeriesFrame {
    TimeSeriesFrame::univariate(
        (0..n)
            .map(|i| 20.0 + 3.0 * (2.0 * std::f64::consts::PI * i as f64 / 8.0).sin())
            .collect(),
    )
}

/// Registry pipelines that carry chaos injection gates (ZeroModel is the
/// ladder's fault-free floor and deliberately has none).
fn pool() -> Vec<Box<dyn Forecaster>> {
    let ctx = PipelineContext::new(8, 6, vec![8]);
    ["ZeroModel", "SeasonalNaive", "AR"]
        .iter()
        .filter_map(|n| pipeline_by_name(n, &ctx))
        .collect()
}

fn gauntlet_cfg(parallel: bool) -> TDaubConfig {
    TDaubConfig {
        parallel,
        // generous: real units finish in milliseconds; the watchdog only
        // exists here to turn a pathological stall into a typed failure
        pipeline_hard_deadline: Some(Duration::from_secs(10)),
        ..Default::default()
    }
}

/// Bit-exact outcome signature for the surviving pipelines.
fn signature(r: &TDaubResult) -> Vec<(String, Vec<(usize, u64)>, u64, u64)> {
    r.reports
        .iter()
        .map(|rep| {
            (
                rep.name.clone(),
                rep.scores.iter().map(|&(a, s)| (a, s.to_bits())).collect(),
                rep.projected_score.to_bits(),
                rep.final_score.unwrap_or(f64::NAN).to_bits(),
            )
        })
        .collect()
}

#[test]
fn a_hundred_seeded_plans_never_hang_and_agree_serial_vs_parallel() {
    let _gate = GATE.lock().unwrap();
    let frame = wavy(160);
    lock_sync::set_runtime_tracking(true);
    let mut failed_runs = 0usize;
    let mut injected_total = 0u64;
    for seed in 0..110u64 {
        chaos::install(chaos::FaultPlan::new(seed));
        let serial = run_tdaub(pool(), &frame, &gauntlet_cfg(false));
        let parallel = run_tdaub(pool(), &frame, &gauntlet_cfg(true));
        injected_total += chaos::injected_count();
        chaos::disable();
        match (serial, parallel) {
            (Ok(s), Ok(p)) => {
                assert_eq!(signature(&s), signature(&p), "seed {seed}");
            }
            // a fault hitting the winner's final full-data refit fails the
            // whole run — legitimately, and identically in both modes
            (Err(_), Err(_)) => failed_runs += 1,
            (s, p) => panic!(
                "seed {seed}: modes disagree — serial ok={}, parallel ok={}",
                s.is_ok(),
                p.is_ok()
            ),
        }
    }
    let inversions = lock_sync::inversion_count();
    lock_sync::set_runtime_tracking(false);
    assert_eq!(inversions, 0, "the sweep recorded a lock-order inversion");
    assert!(injected_total > 0, "the sweep never fired a single fault");
    assert!(failed_runs < 110, "every seeded run failed");
}

#[test]
fn fit_degrades_but_always_returns_a_forecaster() {
    let _gate = GATE.lock().unwrap();
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|i| vec![20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()])
        .collect();
    lock_sync::set_runtime_tracking(true);
    let mut degraded = 0usize;
    for seed in 0..40u64 {
        // far more hostile than the default plan — roughly 3 of 5 fits die
        let plan = chaos::FaultPlan {
            seed,
            panic_prob: 0.30,
            error_prob: 0.30,
            nan_prob: 0.15,
            delay_prob: 0.05,
            max_delay_ms: 3,
        };
        chaos::install(plan);
        // no ZeroModel in the pool: a fully-failed pool must still produce
        // a forecaster via the ladder's baseline rung
        let mut cfg = AutoAITSConfig {
            pipeline_names: Some(vec![
                "SeasonalNaive".into(),
                "AR".into(),
                "MT2RForecaster".into(),
            ]),
            ..Default::default()
        };
        cfg.tdaub.pipeline_hard_deadline = Some(Duration::from_secs(10));
        let mut sys = AutoAITS::with_config(cfg);
        let fitted = sys.fit_rows(&rows).map(|_| ());
        chaos::disable();
        fitted.unwrap_or_else(|e| panic!("seed {seed}: fit must degrade, not fail: {e}"));
        let level = sys.summary().map(|s| s.degradation);
        if level != Some(DegradationLevel::None) {
            degraded += 1;
        }
        let f = sys
            .predict(12)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            f.series(0).iter().all(|v| v.is_finite()),
            "seed {seed}: non-finite forecast at level {level:?}"
        );
        // the interval ladder must hold under the same pressure: re-arm the
        // plan and demand finite, bracketed quantile bands from the fitted
        // system — native, conformal, or the ZeroModel floor
        chaos::install(chaos::FaultPlan {
            seed,
            panic_prob: 0.30,
            error_prob: 0.30,
            nan_prob: 0.15,
            delay_prob: 0.05,
            max_delay_ms: 3,
        });
        let iv = sys.predict_interval(12, &[0.8, 0.95]);
        chaos::disable();
        let iv = iv.unwrap_or_else(|e| panic!("seed {seed}: interval ladder must not fail: {e}"));
        for idx in 0..2 {
            let (lo, hi) = iv
                .band(idx)
                .unwrap_or_else(|| panic!("seed {seed}: band {idx}"));
            for ((l, u), p) in lo
                .series(0)
                .iter()
                .zip(hi.series(0))
                .zip(iv.point().series(0))
            {
                assert!(
                    l.is_finite() && u.is_finite() && *l <= *p && *p <= *u,
                    "seed {seed}: invalid band [{l}, {u}] around {p}"
                );
            }
        }
    }
    let inversions = lock_sync::inversion_count();
    lock_sync::set_runtime_tracking(false);
    assert!(degraded > 0, "aggressive plans never degraded a single fit");
    assert_eq!(inversions, 0, "the sweep recorded a lock-order inversion");
}

#[test]
fn pre_executor_sites_fire_and_fit_survives_them() {
    let _gate = GATE.lock().unwrap();
    let frame = wavy(120);
    let aggressive = |seed| chaos::FaultPlan {
        seed,
        panic_prob: 0.4,
        error_prob: 0.4,
        nan_prob: 0.0,
        delay_prob: 0.0,
        max_delay_ms: 0,
    };

    // 1. the sites themselves: panics and degraded returns both occur over
    //    the sweep, and every outcome replays identically under its seed
    let mut panics = 0usize;
    let mut degraded_reports = 0usize;
    for seed in 0..30u64 {
        chaos::install(aggressive(seed));
        let probe = || {
            let q = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                tsdata::quality_check(&frame)
            }))
            .ok();
            let lb = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                lookback::discover_univariate(
                    frame.series(0),
                    None,
                    &lookback::LookbackConfig::default(),
                )
            }))
            .ok();
            (q, lb)
        };
        let (q, lb) = probe();
        assert_eq!((q.clone(), lb.clone()), probe(), "seed {seed}: not pure");
        chaos::disable();
        if q.is_none() || lb.is_none() {
            panics += 1;
        }
        // wavy() has no missing cells, so a missing_count of 1 can only be
        // the injected pessimistic report
        if q.is_some_and(|r| r.missing_count == 1) {
            degraded_reports += 1;
        }
    }
    assert!(panics > 0, "no pre-executor site ever panicked");
    assert!(degraded_reports > 0, "quality.assess never degraded");

    // 2. the orchestrator: a fit under the same pressure always succeeds,
    //    walking the quality/look-back degradation rungs instead of dying
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![10.0 + 2.0 * (2.0 * std::f64::consts::PI * i as f64 / 8.0).sin()])
        .collect();
    for seed in 0..12u64 {
        chaos::install(aggressive(seed));
        let mut cfg = AutoAITSConfig {
            pipeline_names: Some(vec!["ZeroModel".into(), "SeasonalNaive".into()]),
            ..Default::default()
        };
        cfg.tdaub.pipeline_hard_deadline = Some(Duration::from_secs(10));
        let mut sys = AutoAITS::with_config(cfg);
        let fitted = sys.fit_rows(&rows).map(|_| ());
        chaos::disable();
        fitted.unwrap_or_else(|e| {
            panic!("seed {seed}: pre-executor faults must degrade, not fail: {e}")
        });
        let f = sys
            .predict(8)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(f.series(0).iter().all(|v| v.is_finite()), "seed {seed}");
    }
}

#[test]
fn interval_faults_degrade_to_conformal_and_bands_stay_finite() {
    let _gate = GATE.lock().unwrap();
    let frame = wavy(160);
    let (train, calib) = (frame.slice(0, 136), frame.slice(136, 160));
    let ctx = PipelineContext::new(8, 6, vec![8]);
    // fit and calibrate fault-free; the sweep then attacks only the
    // prediction-time sites (`predict.interval`, `pipeline.predict`)
    let mut p = pipeline_by_name("AR", &ctx).expect("AR resolvable");
    p.fit(&train).expect("fault-free fit");
    let cal = ConformalCalibration::calibrate(p.as_ref(), &calib).expect("calibration");

    let mut native = 0usize;
    let mut conformal = 0usize;
    let mut floors = 0usize;
    for seed in 0..60u64 {
        let plan = chaos::FaultPlan {
            seed,
            panic_prob: 0.25,
            error_prob: 0.25,
            nan_prob: 0.25,
            delay_prob: 0.05,
            max_delay_ms: 2,
        };
        chaos::install(plan);
        for horizon in [3usize, 6, 9] {
            let outcome =
                predict_interval_or_conformal(p.as_ref(), horizon, &[0.8, 0.95], Some(&cal));
            // injection is a pure function of (seed, site, key): the same
            // call under the same plan lands on the same rung
            let replay =
                predict_interval_or_conformal(p.as_ref(), horizon, &[0.8, 0.95], Some(&cal));
            match (&outcome, &replay) {
                (Ok(a), Ok(b)) => assert_eq!(a.source(), b.source(), "seed {seed}"),
                (Err(_), Err(_)) => {}
                _ => panic!("seed {seed} h={horizon}: replay diverged"),
            }
            match outcome {
                Ok(iv) => {
                    match iv.source() {
                        IntervalSource::Native => native += 1,
                        IntervalSource::Conformal => conformal += 1,
                        IntervalSource::Baseline => unreachable!("no floor in this ladder"),
                    }
                    for idx in 0..2 {
                        let (lo, hi) = iv.band(idx).expect("band");
                        assert!(
                            lo.series(0)
                                .iter()
                                .zip(hi.series(0))
                                .all(|(l, u)| l.is_finite() && u.is_finite() && l <= u),
                            "seed {seed} h={horizon}: non-finite or crossed band"
                        );
                    }
                }
                // both rungs faulted (native band + NaN-poisoned conformal
                // point): a typed error, never a panic — callers with a
                // ZeroModel floor absorb this
                Err(_) => floors += 1,
            }
        }
        chaos::disable();
    }
    assert!(native > 0, "no native band survived the sweep");
    assert!(conformal > 0, "native faults never degraded to conformal");
    // the ladder stayed total: every call returned a band or a typed error
    assert_eq!(native + conformal + floors, 180);
}

#[test]
fn service_submissions_absorb_faults_and_hold_lock_order() {
    let _gate = GATE.lock().unwrap();
    lock_sync::set_runtime_tracking(true);
    let rows_a: Vec<Vec<f64>> = (0..150)
        .map(|i| vec![20.0 + 4.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()])
        .collect();
    let rows_b: Vec<Vec<f64>> = (0..150)
        .map(|i| vec![5.0 + 2.0 * (2.0 * std::f64::consts::PI * i as f64 / 8.0).cos()])
        .collect();
    let mut injected_total = 0u64;
    let mut typed_failures = 0usize;
    for seed in 0..10u64 {
        chaos::install(chaos::FaultPlan {
            seed,
            panic_prob: 0.20,
            error_prob: 0.25,
            nan_prob: 0.05,
            delay_prob: 0.10,
            max_delay_ms: 2,
        });
        let mut cfg = AutoAITSConfig {
            pipeline_names: Some(vec![
                "ZeroModel".into(),
                "SeasonalNaive".into(),
                "AR".into(),
            ]),
            ..Default::default()
        };
        cfg.tdaub.pipeline_hard_deadline = Some(Duration::from_secs(10));
        let svc = ForecastService::new(cfg);
        svc.ingest("a", TimeSeriesFrame::from_rows(&rows_a))
            .unwrap();
        svc.ingest("b", TimeSeriesFrame::from_rows(&rows_b))
            .unwrap();
        // a mixed batch under fire: the `service.submit` site panics, errors
        // and delays requests by position; every outcome must surface as a
        // reply — Ok or a typed error — never as an escaped panic or a hang
        let replies = svc.submit(&[
            ServiceRequest::Fit { series: "a".into() },
            ServiceRequest::Fit { series: "b".into() },
            ServiceRequest::Fit { series: "a".into() },
            ServiceRequest::Predict {
                series: "a".into(),
                horizon: 6,
            },
        ]);
        injected_total += chaos::injected_count();
        chaos::disable();
        assert_eq!(replies.len(), 4, "seed {seed}: replies must stay aligned");
        for (i, reply) in replies.iter().enumerate() {
            match reply {
                Ok(ServiceResponse::Fit(report)) => {
                    assert!(!report.best_pipeline.is_empty(), "seed {seed} req {i}")
                }
                Ok(ServiceResponse::Predict(f)) => {
                    assert_eq!(f.len(), 6, "seed {seed} req {i}")
                }
                // injected panics land as Crashed via the worker-panic
                // boundary; a predict racing a faulted fit sees NotFitted
                Err(
                    PipelineError::Crashed(_)
                    | PipelineError::NotFitted
                    | PipelineError::Fit(_)
                    | PipelineError::BudgetExceeded,
                ) => typed_failures += 1,
                Err(e) => panic!("seed {seed} req {i}: unexpected error {e}"),
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.in_flight, 0, "seed {seed}: requests leaked");
        assert_eq!(stats.admitted, 4, "seed {seed}");
        assert_eq!(stats.completed, 4, "seed {seed}");
    }
    let inversions = lock_sync::inversion_count();
    lock_sync::set_runtime_tracking(false);
    assert!(injected_total > 0, "the sweep never fired a single fault");
    assert!(
        typed_failures > 0,
        "no submission ever faulted — site dead?"
    );
    assert_eq!(inversions, 0, "the sweep recorded a lock-order inversion");
}

/// Bit-exact outcome signature for a service fit report (work counters and
/// reuse flags excluded).
fn fit_signature(
    r: &autoai_ts_repro::core_ts::ServiceFitReport,
) -> (String, Vec<(String, u64)>, u64, DegradationLevel) {
    (
        r.best_pipeline.clone(),
        r.ranking
            .iter()
            .map(|(n, s)| (n.clone(), s.to_bits()))
            .collect(),
        r.holdout_smape.to_bits(),
        r.degradation,
    )
}

#[test]
fn mid_observe_faults_degrade_never_corrupt_across_150_plans() {
    let _gate = GATE.lock().unwrap();
    lock_sync::set_runtime_tracking(true);
    let base: Vec<Vec<f64>> = (0..120)
        .map(|i| vec![20.0 + 4.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()])
        .collect();
    // two stationary batches, then four level-shifted ones: the shift makes
    // the drift monitor charge and (fault permitting) schedule a warm
    // re-selection, so the sweep exercises `observe.append`, `drift.update`
    // and `reselect.swap` on live state
    let batches: Vec<Vec<Vec<f64>>> = (0..6)
        .map(|b| {
            (0..6)
                .map(|i| {
                    if b < 2 {
                        vec![20.0 + 4.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()]
                    } else {
                        vec![400.0 + i as f64]
                    }
                })
                .collect()
        })
        .collect();
    let service = || {
        let mut cfg = AutoAITSConfig {
            pipeline_names: Some(vec![
                "ZeroModel".into(),
                "SeasonalNaive".into(),
                "AR".into(),
            ]),
            ..Default::default()
        };
        cfg.tdaub.pipeline_hard_deadline = Some(Duration::from_secs(10));
        let svc = ForecastService::new(cfg);
        svc.ingest("s", TimeSeriesFrame::from_rows(&base)).unwrap();
        svc.fit("s").unwrap();
        svc
    };
    let mut injected_total = 0u64;
    let mut faulted_observes = 0usize;
    let mut reselections_seen = 0u64;
    for seed in 0..160u64 {
        let svc = service();
        let mirror = service();
        chaos::install(chaos::FaultPlan {
            seed,
            panic_prob: 0.25,
            error_prob: 0.25,
            nan_prob: 0.10,
            delay_prob: 0.05,
            max_delay_ms: 2,
        });
        // drive the observes under fire, remembering which batches landed
        let mut landed: Vec<&Vec<Vec<f64>>> = Vec::new();
        for batch in &batches {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                svc.observe("s", batch).map(|_| ())
            }));
            match outcome {
                Ok(Ok(())) => landed.push(batch),
                // a typed error or an escaped injected panic both mean the
                // append never happened: the stored series is untouched
                Ok(Err(_)) | Err(_) => faulted_observes += 1,
            }
        }
        injected_total += chaos::injected_count();
        reselections_seen += svc.stats().reselections;
        chaos::disable();
        // degrade-never-corrupt: with the plan gone, the service still
        // serves finite point forecasts and calibrated interval bands
        let f = svc
            .predict("s", 6)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            f.series(0).iter().all(|v| v.is_finite()),
            "seed {seed}: non-finite forecast after mid-observe faults"
        );
        let iv = svc
            .predict_interval("s", 6, &[0.8])
            .unwrap_or_else(|e| panic!("seed {seed}: interval after faults: {e}"));
        let (lo, hi) = iv.band(0).expect("requested band");
        for ((l, u), p) in lo
            .series(0)
            .iter()
            .zip(hi.series(0))
            .zip(iv.point().series(0))
        {
            assert!(
                l.is_finite() && u.is_finite() && *l <= *p && *p <= *u,
                "seed {seed}: invalid band [{l}, {u}] around {p}"
            );
        }
        // replay purity: the mirror applies exactly the batches that landed,
        // fault-free; both frames must be bitwise the same series
        for batch in landed {
            mirror.observe("s", batch).unwrap();
        }
        // fingerprints are buffer identities, so only the row count is
        // comparable across services; content equality is pinned below by
        // the bit-identical clean fit
        assert_eq!(
            svc.series_fingerprint("s").map(|f| f.rows()),
            mirror.series_fingerprint("s").map(|f| f.rows()),
            "seed {seed}: mid-observe faults corrupted the stored length"
        );
        // one more fault-free batch on both sides invalidates any model
        // entry fingerprint, so the next fit is a full clean refit on both
        let fresh: Vec<Vec<f64>> = (0..4).map(|i| vec![400.0 + i as f64]).collect();
        svc.observe("s", &fresh).unwrap();
        mirror.observe("s", &fresh).unwrap();
        let a = svc.fit("s").unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let b = mirror
            .fit("s")
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            fit_signature(&a),
            fit_signature(&b),
            "seed {seed}: a clean fit after faults is not bit-identical"
        );
    }
    let inversions = lock_sync::inversion_count();
    lock_sync::set_runtime_tracking(false);
    assert_eq!(inversions, 0, "the sweep recorded a lock-order inversion");
    assert!(injected_total > 0, "the sweep never fired a single fault");
    assert!(
        faulted_observes > 0,
        "no observe ever faulted — sites dead?"
    );
    assert!(
        reselections_seen > 0,
        "the level shift never completed a re-selection under fire"
    );
}

#[test]
fn an_empty_plan_is_bitwise_invisible() {
    let _gate = GATE.lock().unwrap();
    let frame = wavy(160);
    chaos::install(chaos::FaultPlan::empty(1234));
    let with_plan = run_tdaub(pool(), &frame, &gauntlet_cfg(true)).unwrap();
    assert_eq!(chaos::injected_count(), 0, "an empty plan fired a fault");
    chaos::disable();
    let without = run_tdaub(pool(), &frame, &gauntlet_cfg(true)).unwrap();
    assert_eq!(with_plan.execution.injected_faults, 0);
    assert_eq!(without.execution.injected_faults, 0);
    assert_eq!(signature(&with_plan), signature(&without));
    for (a, b) in with_plan
        .execution
        .pipelines
        .iter()
        .zip(&without.execution.pipelines)
    {
        assert_eq!(a.name, b.name);
        assert_eq!(a.failure, b.failure, "{}", a.name);
    }
}
