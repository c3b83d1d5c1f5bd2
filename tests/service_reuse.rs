//! Cross-run reuse through the forecasting service front end.
//!
//! The service contract under test: a stored series grows **in place**
//! across an `observe` call (the grown fingerprint `extends_as_prefix` the
//! one the previous fit ran on), and the next fit request on the grown
//! frame reuses cross-run state — warm-started refits and the fingerprint
//! memo — while ranking bit-identically to a cold fit on an identical
//! standalone frame. Reuse is a wall-time optimization, never a ranking
//! input.

use autoai_ts_repro::core_ts::{
    AutoAITSConfig, ForecastService, PipelineError, ServiceLimits, ServiceRequest, ServiceResponse,
};
use autoai_ts_repro::tsdata::{GrowthKind, TimeSeriesFrame};

/// Deterministic seasonal rows covering `range` sample indices.
fn rows(range: std::ops::Range<usize>) -> Vec<Vec<f64>> {
    range
        .map(|i| vec![20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin()])
        .collect()
}

/// A small pipeline pool that exercises warm starts (HW, SeasonalNaive)
/// and the window pipelines (WindowRandomForest, WindowSVR, MT2R) —
/// without paying for the full registry.
fn service() -> ForecastService {
    ForecastService::new(AutoAITSConfig {
        pipeline_names: Some(vec![
            "MT2RForecaster".into(),
            "WindowRandomForest".into(),
            "WindowSVR".into(),
            "HW-Additive".into(),
            "SeasonalNaive".into(),
            "ZeroModel".into(),
        ]),
        ..Default::default()
    })
}

#[test]
fn observe_preserves_identity_and_the_next_fit_reuses_cross_run_state() {
    let svc = service();
    svc.ingest("cpu", TimeSeriesFrame::from_rows(&rows(0..300)))
        .unwrap();
    let cold = svc.fit("cpu").unwrap();
    assert!(!cold.reused_model);
    assert!(!cold.extends_previous_fit);

    // the append path must grow the tail in place: same buffers, same
    // start, more rows — the identity every reuse tier keys on
    let record = svc.observe("cpu", &rows(300..324)).unwrap();
    assert_eq!(
        record.kind,
        GrowthKind::InPlace,
        "a fitted service must not pin the stored buffers: {record:?}"
    );
    assert!(record.grown.extends_as_prefix(&record.base));
    assert!(record.identity_preserved());
    assert!(record.timestamp_issue.is_none());

    let warm = svc.fit("cpu").unwrap();
    assert!(!warm.reused_model, "data grew, a real fit must run");
    assert!(
        warm.extends_previous_fit,
        "the grown fingerprint must link to the previous fit's"
    );
    assert!(
        warm.incremental_fits > 0,
        "no warm-started refits: {warm:?}"
    );
    assert_eq!(warm.duplicate_fits, 0, "the fingerprint memo went blind");

    // rankings must be bit-identical to a cold fit on an identical
    // standalone frame: reuse may only ever change wall time
    let fresh_svc = service();
    fresh_svc
        .ingest("cpu", TimeSeriesFrame::from_rows(&rows(0..324)))
        .unwrap();
    let fresh = fresh_svc.fit("cpu").unwrap();
    assert_eq!(warm.best_pipeline, fresh.best_pipeline);
    assert_eq!(warm.holdout_smape.to_bits(), fresh.holdout_smape.to_bits());
    assert_eq!(warm.ranking.len(), fresh.ranking.len());
    for ((wn, ws), (fn_, fs)) in warm.ranking.iter().zip(fresh.ranking.iter()) {
        assert_eq!(wn, fn_);
        assert_eq!(
            ws.to_bits(),
            fs.to_bits(),
            "{wn}: warm ranking diverged from cold"
        );
    }

    // and the service still serves usable forecasts from the new fit
    let f = svc.predict("cpu", 6).unwrap();
    assert_eq!(f.len(), 6);
    assert!(f.series(0).iter().all(|v| v.is_finite()));
}

#[test]
fn repeated_observe_fit_cycles_keep_extending() {
    let svc = service();
    svc.ingest("cpu", TimeSeriesFrame::from_rows(&rows(0..288)))
        .unwrap();
    svc.fit("cpu").unwrap();
    for step in 0..3usize {
        let lo = 288 + step * 12;
        let record = svc.observe("cpu", &rows(lo..lo + 12)).unwrap();
        assert_eq!(record.kind, GrowthKind::InPlace, "cycle {step}: {record:?}");
        assert_eq!(record.shared_rows, lo, "cycle {step}");
        assert_eq!(record.grown.rows(), lo + 12, "cycle {step}");
        let report = svc.fit("cpu").unwrap();
        assert!(report.extends_previous_fit, "cycle {step}");
        assert!(!report.reused_model, "cycle {step}");
    }
    let stats = svc.stats();
    assert_eq!(stats.series, 1);
    assert_eq!(stats.models, 1);
}

#[test]
fn unchanged_data_replays_the_stored_fit_bit_for_bit() {
    let svc = service();
    svc.ingest("cpu", TimeSeriesFrame::from_rows(&rows(0..300)))
        .unwrap();
    let cold = svc.fit("cpu").unwrap();
    let replay = svc.fit("cpu").unwrap();
    assert!(replay.reused_model);
    for ((an, a), (bn, b)) in cold.ranking.iter().zip(replay.ranking.iter()) {
        assert_eq!(an, bn);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn admission_and_invalidation_bound_the_service() {
    let svc = service().with_limits(ServiceLimits {
        max_batch: 2,
        ..Default::default()
    });
    svc.ingest("cpu", TimeSeriesFrame::from_rows(&rows(0..300)))
        .unwrap();
    svc.fit("cpu").unwrap();
    let predict = |h| ServiceRequest::Predict {
        series: "cpu".into(),
        horizon: h,
    };
    let replies = svc.submit(&[predict(3), predict(4), predict(5)]);
    assert!(matches!(
        replies.first(),
        Some(Ok(ServiceResponse::Predict(_)))
    ));
    assert!(matches!(
        replies.get(1),
        Some(Ok(ServiceResponse::Predict(_)))
    ));
    assert!(matches!(
        replies.get(2),
        Some(Err(PipelineError::BudgetExceeded))
    ));
    let stats = svc.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.in_flight, 0);

    // invalidation retires the whole cross-run state under a new epoch
    let generation = svc.invalidate();
    assert_eq!(svc.stats().generation, generation);
    assert_eq!(svc.stats().models, 0);
    assert!(matches!(
        svc.predict("cpu", 3),
        Err(PipelineError::NotFitted)
    ));
    let refit = svc.fit("cpu").unwrap();
    assert!(!refit.reused_model, "a flushed model must not replay");
}
