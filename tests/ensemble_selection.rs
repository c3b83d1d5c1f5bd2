//! Determinism and optimality contracts for greedy forward ensemble
//! selection over the T-Daub survivor set.
//!
//! Selection runs on predictions from the candidates' already-fitted
//! states, so it must be invisible to everything else: the ranking is
//! bit-identical with ensembling on or off, the selected ensemble is
//! bit-identical across serial/parallel and warm/cold executions
//! (tier-1 warm-start pipelines only — tier-2 seeded restarts are
//! deterministic but not bit-identical to cold fits), the blended
//! holdout score never loses to the best single survivor, and the
//! `duplicate_fits == 0` invariant survives the new phase.

use autoai_ts_repro::pipelines::{pipeline_by_name, Forecaster, PipelineContext};
use autoai_ts_repro::tdaub::{run_tdaub, EnsembleSelection, TDaubConfig, TDaubResult};
use autoai_ts_repro::tsdata::TimeSeriesFrame;

/// Two deterministic series with enough structure that the survivors
/// disagree (a trend the ZeroModel misses, a season the AR smooths).
fn frame(n: usize) -> TimeSeriesFrame {
    let a: Vec<f64> = (0..n)
        .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin())
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|i| 10.0 + 0.05 * i as f64 + (i as f64 * 0.7).cos())
        .collect();
    TimeSeriesFrame::from_columns(vec![a, b])
}

/// Tier-1 pool: bit-identical fits across every execution/warm-start mode.
fn pool() -> Vec<Box<dyn Forecaster>> {
    let ctx = PipelineContext::new(8, 6, vec![12]);
    ["ZeroModel", "SeasonalNaive", "AR", "Theta"]
        .iter()
        .filter_map(|n| pipeline_by_name(n, &ctx))
        .collect()
}

fn config(parallel: bool, incremental: bool) -> TDaubConfig {
    TDaubConfig {
        min_allocation_size: 40,
        allocation_size: 40,
        parallel,
        incremental,
        ..Default::default()
    }
}

/// Bit-exact signature of a selection: member names, picks, and the raw
/// bits of every weight and score.
fn signature(sel: &EnsembleSelection) -> Vec<(String, usize, u64, u64)> {
    let mut out: Vec<(String, usize, u64, u64)> = sel
        .members
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                m.picks,
                m.weight.to_bits(),
                m.solo_score.to_bits(),
            )
        })
        .collect();
    out.push((
        "<selection>".into(),
        sel.rounds,
        sel.score.to_bits(),
        sel.best_single.to_bits(),
    ));
    out
}

fn ranking_bits(r: &TDaubResult) -> Vec<(String, usize, u64)> {
    r.reports
        .iter()
        .map(|rep| (rep.name.clone(), rep.rank, rep.projected_score.to_bits()))
        .collect()
}

#[test]
fn weights_sum_to_one_and_never_lose_to_best_single() {
    let data = frame(260);
    let r = run_tdaub(pool(), &data, &config(false, true)).expect("run");
    let sel = r.ensemble.expect("selection ran on the default top-k");
    let total: f64 = sel.members.iter().map(|m| m.weight).sum();
    assert!((total - 1.0).abs() < 1e-12, "weights sum to {total}");
    assert!(sel.members.iter().all(|m| m.weight > 0.0 && m.picks > 0));
    assert!(
        sel.score <= sel.best_single,
        "ensemble {} lost to best single {}",
        sel.score,
        sel.best_single
    );
    // the reported solo scores include the best single's score
    let best_solo = sel
        .members
        .iter()
        .map(|m| m.solo_score)
        .fold(f64::INFINITY, f64::min);
    assert!(best_solo >= sel.best_single);
}

#[test]
fn selection_is_bit_identical_across_execution_and_cache_modes() {
    let data = frame(260);
    let runs: Vec<TDaubResult> = [
        config(false, false), // serial, cold
        config(false, true),  // serial, warm starts
        config(true, false),  // parallel, cold
        config(true, true),   // parallel, warm starts
    ]
    .into_iter()
    .map(|cfg| run_tdaub(pool(), &data, &cfg).expect("run"))
    .collect();
    let baseline = signature(runs[0].ensemble.as_ref().expect("selection"));
    for (i, r) in runs.iter().enumerate().skip(1) {
        let sig = signature(r.ensemble.as_ref().expect("selection"));
        assert_eq!(baseline, sig, "mode {i} selected a different ensemble");
    }
    // repeat runs are bit-identical too (no hidden global state)
    let again = run_tdaub(pool(), &data, &config(true, true)).expect("rerun");
    assert_eq!(
        baseline,
        signature(again.ensemble.as_ref().expect("selection"))
    );
}

#[test]
fn ensembling_is_invisible_to_the_ranking_and_duplicate_fits() {
    let data = frame(260);
    for parallel in [false, true] {
        let with = run_tdaub(pool(), &data, &config(parallel, true)).expect("run");
        let without = run_tdaub(
            pool(),
            &data,
            &TDaubConfig {
                ensemble_top_k: 0,
                ..config(parallel, true)
            },
        )
        .expect("run");
        assert!(with.ensemble.is_some());
        assert!(without.ensemble.is_none());
        assert_eq!(
            ranking_bits(&with),
            ranking_bits(&without),
            "ensembling perturbed the ranking (parallel={parallel})"
        );
        assert_eq!(with.best.name(), without.best.name());
        // selection is prediction-only: no pipeline is ever refit on a
        // frame view it already fitted
        assert_eq!(with.execution.duplicate_fits, 0);
        assert_eq!(without.execution.duplicate_fits, 0);
    }
}

#[test]
fn top_k_of_one_and_zero_disable_selection() {
    let data = frame(220);
    for k in [0usize, 1] {
        let r = run_tdaub(
            pool(),
            &data,
            &TDaubConfig {
                ensemble_top_k: k,
                ..config(false, true)
            },
        )
        .expect("run");
        assert!(r.ensemble.is_none(), "top-k {k} still selected");
    }
}
