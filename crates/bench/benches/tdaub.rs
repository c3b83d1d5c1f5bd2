//! Benchmark: the cost of T-Daub selection with incremental warm starts
//! against cold fits, plus the original ablations (reverse vs forward
//! allocation, exhaustive full-data evaluation, and the per-pipeline soft
//! time budget).
//!
//! Plain `std::time` harness (`harness = false`); run with
//! `cargo bench -p autoai-bench --bench tdaub`.
//!
//! Modes:
//!
//! * default — full measurement; writes the machine-readable
//!   `BENCH_tdaub.json` at the repo root (warm and cold wall times, warm
//!   starts, memo replays, slice bytes the zero-copy views avoided).
//! * `--smoke` — reduced problem size, no JSON; asserts that warm starts
//!   actually happen and buy at least 2x over cold fits, that warm and
//!   cold runs rank the pool identically, that the scoring phase replays
//!   full-length acceleration fits from the memo (fits avoided > 0,
//!   duplicate full-length fits == 0), and that a drift-style warm
//!   re-selection (previous ranking as priors, restricted pool) beats a
//!   cold full-pool re-fit by the 0.6x wall bar while preserving rank
//!   parity. Exits non-zero on any violation; wired into `scripts/check.sh`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use autoai_pipelines::{
    default_pipelines, pipeline_by_name, predict_interval_or_conformal, ConformalCalibration,
    Forecaster, PipelineContext, PipelineError,
};
use autoai_tdaub::{run_tdaub, TDaubConfig, TDaubResult};
use autoai_tsdata::{interval_coverage, pinball_loss, GrowthKind, Metric, TimeSeriesFrame};

/// Two seasonal series with deterministic LCG noise — multivariate so the
/// localized-flatten path is exercised.
fn frame(n: usize) -> TimeSeriesFrame {
    let mut seed = 7u64;
    let mut noise = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let a: Vec<f64> = (0..n)
        .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin() + 0.3 * noise())
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|i| {
            10.0 + 0.01 * i as f64
                + 2.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).cos()
                + 0.3 * noise()
        })
        .collect();
    TimeSeriesFrame::from_columns(vec![a, b])
}

/// Fresh rows continuing the two seasonal signals past `from` — the tail a
/// serving loop would `observe` between a fit and a drift-triggered
/// re-selection. Deterministic, distinct noise seed.
fn tail_frame(from: usize, extra: usize) -> TimeSeriesFrame {
    let mut seed = 99u64;
    let mut noise = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let a: Vec<f64> = (from..from + extra)
        .map(|i| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin() + 0.3 * noise())
        .collect();
    let b: Vec<f64> = (from..from + extra)
        .map(|i| {
            10.0 + 0.01 * i as f64
                + 2.0 * (2.0 * std::f64::consts::PI * i as f64 / 12.0).cos()
                + 0.3 * noise()
        })
        .collect();
    TimeSeriesFrame::from_columns(vec![a, b])
}

/// The paper's 10 default pipelines plus the extension pipelines — the
/// extensions add warm-start-capable models (ZeroModel, AR, SeasonalNaive)
/// and extra window pipelines (FlattenAutoEnsembler, NeuralWindow).
fn pool() -> Vec<Box<dyn Forecaster>> {
    let ctx = PipelineContext::new(8, 12, vec![12]);
    let mut out = default_pipelines(&ctx);
    for name in [
        "ZeroModel",
        "Theta",
        "NeuralWindow",
        "FlattenAutoEnsembler",
        "AR",
        "SeasonalNaive",
    ] {
        if let Some(p) = pipeline_by_name(name, &ctx) {
            out.push(p);
        }
    }
    out
}

/// Fine-grained allocation rounds (25-row steps to a 250-row cutoff): the
/// regime T-Daub's incremental growth targets — a cold run refits every
/// pipeline from scratch at each round, a warm run extends the previous
/// round's fit.
fn config(incremental: bool, parallel: bool) -> TDaubConfig {
    TDaubConfig {
        min_allocation_size: 25,
        allocation_size: 25,
        fixed_allocation_cutoff: Some(250),
        parallel,
        incremental,
        ..Default::default()
    }
}

/// Best-of-`iters` wall time in milliseconds, plus the last result.
fn measure(iters: usize, mut f: impl FnMut() -> TDaubResult) -> (f64, TDaubResult) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let start = Instant::now();
        let r = f();
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best_ms, last.expect("at least one iteration"))
}

/// Ranking-parity signature: pipeline names in rank order. Tier-2 warm
/// starts (seeded Nelder–Mead restarts, ensemble tournament reuse) are
/// deterministic but not bit-identical to cold fits, so the warm vs cold
/// comparison checks T-Daub's actual output — the ranking — rather than
/// raw score bits. Rank parity over random tier-2 pools is enforced
/// separately by `tests/property_tests.rs`.
fn ranking(r: &TDaubResult) -> Vec<String> {
    r.reports.iter().map(|rep| rep.name.clone()).collect()
}

/// A pipeline whose every fit stalls for a fixed delay — the pool-polluter
/// the soft budget exists to contain.
struct SlowPipeline {
    delay: Duration,
    inner: Box<dyn Forecaster>,
}

impl SlowPipeline {
    fn new(delay: Duration) -> Self {
        let ctx = PipelineContext::new(8, 12, vec![12]);
        Self {
            delay,
            inner: pipeline_by_name("ZeroModel", &ctx).expect("ZeroModel registered"),
        }
    }
}

impl Forecaster for SlowPipeline {
    fn fit(&mut self, frame: &TimeSeriesFrame) -> Result<(), PipelineError> {
        std::thread::sleep(self.delay);
        self.inner.fit(frame)
    }
    fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
        self.inner.predict(horizon)
    }
    fn name(&self) -> String {
        "SlowPipeline".into()
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Self::new(self.delay))
    }
}

fn time<F: FnMut()>(name: &str, iters: usize, mut f: F) {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    println!(
        "{name:<32} {:>12.3} ms/iter  ({iters} iters)",
        per_iter * 1e3
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, iters) = if smoke { (300, 1) } else { (720, 3) };
    let data = frame(n);
    let pool_size = pool().len();

    println!("== warm starts vs cold fits ({pool_size} pipelines, {n} rows x 2 series) ==");
    // smoke runs in parallel for speed — rankings and work counters are
    // deterministic across execution modes; the full benchmark stays
    // serial so wall times compare like-for-like
    let (cold_ms, cold) = measure(iters, || {
        run_tdaub(pool(), &data, &config(false, smoke)).expect("cold run")
    });
    let (warm_fit_ms, warm) = measure(iters, || {
        run_tdaub(pool(), &data, &config(true, smoke)).expect("warm run")
    });
    let speedup = cold_ms / warm_fit_ms;
    let rankings_match = ranking(&cold) == ranking(&warm);

    println!("cold                             {cold_ms:>12.3} ms");
    println!("warm (incremental)               {warm_fit_ms:>12.3} ms   ({speedup:.2}x)");
    println!(
        "warm starts: {}   slice bytes avoided: {}",
        warm.execution.incremental_fits, warm.execution.slice_bytes_avoided
    );
    println!(
        "fits avoided (memo replays): {} warm / {} cold   duplicate full fits: {} / {}",
        warm.execution.fits_avoided,
        cold.execution.fits_avoided,
        warm.execution.duplicate_fits,
        cold.execution.duplicate_fits
    );
    println!("rankings identical: {rankings_match}");

    assert!(rankings_match, "warm and cold rankings diverged");
    // the memo is unconditional (fingerprint equality implies bitwise
    // identical inputs), so both arms must replay the full-length
    // acceleration fit in the scoring phase instead of refitting
    assert_eq!(
        warm.execution.duplicate_fits, 0,
        "warm run repeated a fit on an identical frame view"
    );
    assert_eq!(
        cold.execution.duplicate_fits, 0,
        "cold run repeated a fit on an identical frame view"
    );
    println!("== warm re-selection (drift response) ==");
    // Mirror the serving loop: fit once, observe a fresh tail (in-place
    // append keeps buffer identity), then compare the drift responses — a
    // cold full-pool re-fit versus the service's warm re-selection
    // (previous ranking as priors, previous top ranks + ZeroModel as the
    // pool).
    let mut live = frame(n);
    let initial = run_tdaub(pool(), &live, &config(true, smoke)).expect("initial service fit");
    let priors = ranking(&initial);
    drop(initial); // release every view of `live` so growth stays in place
    let record = live.append(&tail_frame(n, 24));
    assert_eq!(
        record.kind,
        GrowthKind::InPlace,
        "observe-style append re-based the buffers; fingerprint continuity lost"
    );
    let (cold_refit_ms, cold_refit) = measure(iters, || {
        run_tdaub(pool(), &live, &config(true, smoke)).expect("cold re-fit")
    });
    let warm_pool = || -> Vec<Box<dyn Forecaster>> {
        let ctx = PipelineContext::new(8, 12, vec![12]);
        let mut names: Vec<String> = priors.iter().take(3).cloned().collect();
        if !names.iter().any(|p| p == "ZeroModel") {
            names.push("ZeroModel".to_string());
        }
        names
            .iter()
            .filter_map(|nm| pipeline_by_name(nm, &ctx))
            .collect()
    };
    let warm_cfg = TDaubConfig {
        warm_priors: Some(priors.clone()),
        ..config(true, smoke)
    };
    let (warm_ms, warm_sel) = measure(iters, || {
        run_tdaub(warm_pool(), &live, &warm_cfg).expect("warm re-selection")
    });
    let warm_ratio = warm_ms / cold_refit_ms.max(1e-9);
    let warm_names = ranking(&warm_sel);
    let cold_restricted: Vec<String> = ranking(&cold_refit)
        .into_iter()
        .filter(|nm| warm_names.contains(nm))
        .collect();
    let reselect_parity = warm_names == cold_restricted;
    println!(
        "cold re-fit ({} pipelines)        {cold_refit_ms:>12.3} ms",
        pool_size
    );
    println!(
        "warm re-select ({} pipelines)      {warm_ms:>12.3} ms   ({warm_ratio:.2}x of cold)",
        warm_names.len()
    );
    println!(
        "warm winner: {}   rank parity vs cold: {reselect_parity}",
        warm_names[0]
    );
    assert!(
        reselect_parity,
        "warm re-selection ranked its pool differently than the cold re-fit: \
         warm {warm_names:?} vs cold {cold_restricted:?}"
    );

    println!("== ensemble selection & probabilistic bands ==");
    // the default config runs greedy forward selection over the top
    // survivors — selection is prediction-only, so it must not perturb the
    // ranking: an ensembling-disabled run ranks bit-identically
    let selection = warm
        .ensemble
        .as_ref()
        .expect("default config runs ensemble selection");
    let weight_sum: f64 = selection.members.iter().map(|m| m.weight).sum();
    assert!(
        (weight_sum - 1.0).abs() < 1e-9,
        "ensemble weights sum to {weight_sum}"
    );
    assert!(
        selection.score <= selection.best_single,
        "ensemble {} worse than best single {}",
        selection.score,
        selection.best_single
    );
    let plain = run_tdaub(
        pool(),
        &data,
        &TDaubConfig {
            ensemble_top_k: 0,
            ..config(true, smoke)
        },
    )
    .expect("ensembling-disabled run");
    assert!(plain.ensemble.is_none(), "disabled run still ensembled");
    let rank_bits = |r: &TDaubResult| -> Vec<(String, usize, u64, u64)> {
        r.reports
            .iter()
            .map(|rep| {
                (
                    rep.name.clone(),
                    rep.rank,
                    rep.projected_score.to_bits(),
                    rep.final_score.unwrap_or(f64::NAN).to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(
        rank_bits(&warm),
        rank_bits(&plain),
        "ensembling perturbed the ranking"
    );
    let members: Vec<String> = selection
        .members
        .iter()
        .map(|m| format!("{}:{:.3}", m.name, m.weight))
        .collect();
    println!(
        "ensemble [{}]  holdout {:.4} vs best single {:.4} ({} rounds)",
        members.join(", "),
        selection.score,
        selection.best_single,
        selection.rounds
    );

    // split-conformal winner bands scored out-of-sample: fit on the prefix,
    // calibrate on the next 12 rows, evaluate pinball + coverage (alongside
    // SMAPE) on the final 12 rows the calibration never saw
    let ctx = PipelineContext::new(8, 12, vec![12]);
    let mut champ = pipeline_by_name(&warm.best.name(), &ctx)
        .or_else(|| pipeline_by_name("ZeroModel", &ctx))
        .expect("winner resolvable by name");
    champ
        .fit(&data.slice(0, n - 24))
        .expect("winner fits the bench prefix");
    let calibration = ConformalCalibration::calibrate(champ.as_ref(), &data.slice(n - 24, n - 12));
    let iv = predict_interval_or_conformal(champ.as_ref(), 24, &[0.8, 0.95], calibration.as_ref())
        .expect("winner always has bands");
    let t_eval = data.slice(n - 12, n);
    let p_eval = iv.point().slice(12, 24);
    let (lo80, hi80) = iv.band(0).expect("80% band");
    let (lo95, hi95) = iv.band(1).expect("95% band");
    let (lo80, hi80) = (lo80.slice(12, 24), hi80.slice(12, 24));
    let (lo95, hi95) = (lo95.slice(12, 24), hi95.slice(12, 24));
    let mut eval_smape = 0.0;
    let (mut pinball_q10, mut pinball_q90) = (0.0, 0.0);
    let (mut coverage_80, mut coverage_95) = (0.0, 0.0);
    let n_series = t_eval.n_series();
    for c in 0..n_series {
        let actual = t_eval.series(c);
        eval_smape += Metric::Smape.eval(actual, p_eval.series(c));
        // the 80% band's edges are the 10%/90% quantiles
        pinball_q10 += pinball_loss(actual, lo80.series(c), 0.10).expect("pinball q10");
        pinball_q90 += pinball_loss(actual, hi80.series(c), 0.90).expect("pinball q90");
        coverage_80 += interval_coverage(actual, lo80.series(c), hi80.series(c)).expect("cov 80");
        coverage_95 += interval_coverage(actual, lo95.series(c), hi95.series(c)).expect("cov 95");
    }
    let scale = n_series.max(1) as f64;
    eval_smape /= scale;
    pinball_q10 /= scale;
    pinball_q90 /= scale;
    coverage_80 /= scale;
    coverage_95 /= scale;
    println!(
        "winner bands ({}): smape {eval_smape:.3}  pinball q10/q90 {pinball_q10:.4}/{pinball_q90:.4}  coverage 80%/95%: {coverage_80:.2}/{coverage_95:.2}",
        iv.source()
    );
    assert!(
        pinball_q10.is_finite() && pinball_q90.is_finite() && eval_smape.is_finite(),
        "probabilistic metrics must be finite"
    );
    assert!(
        (0.0..=1.0).contains(&coverage_80) && (0.0..=1.0).contains(&coverage_95),
        "coverage out of range: {coverage_80} / {coverage_95}"
    );
    assert!(
        coverage_95 >= coverage_80,
        "nested bands lost coverage ordering: {coverage_95} < {coverage_80}"
    );

    if smoke {
        assert!(warm.execution.incremental_fits > 0, "no warm-started fits");
        assert!(
            warm.execution.fits_avoided > 0,
            "scoring phase refit a full-length pipeline instead of \
             replaying the memoized acceleration score"
        );
        assert!(
            warm.execution.slice_bytes_avoided > 0,
            "zero-copy views recorded no avoided slice copies"
        );
        // coarse wall-clock regression floor: warm starts alone have
        // measured 2.1-3.2x on this workload; 2.0 leaves margin for
        // scheduler noise on a loaded runner while still catching a lost
        // warm-start path (which drops the ratio toward 1x)
        assert!(
            speedup >= 2.0,
            "tdaub smoke speedup regressed: {speedup:.2}x (floor 2.0x)"
        );
        // the serving loop's economics: responding to drift with a warm
        // re-selection (priors + restricted pool) must stay
        // well under a cold full-pool re-fit or the online path is pointless
        assert!(
            warm_ratio <= 0.6,
            "warm re-selection too close to a cold re-fit: \
             {warm_ms:.3} ms vs {cold_refit_ms:.3} ms ({warm_ratio:.2}x, bar 0.6x)"
        );
        println!("smoke: all warm-start, ensemble, and warm-reselection assertions passed");
        return;
    }

    println!("== selection ablations ==");
    time("tdaub_forward", iters, || {
        let cfg = TDaubConfig {
            reverse_allocation: false,
            ..config(true, false)
        };
        let _ = run_tdaub(pool(), black_box(&data), &cfg);
    });
    time("exhaustive_full_data", iters, || {
        let len = data.len();
        let cut = len - len / 5;
        let (t1, t2) = (data.slice(0, cut), data.slice(cut, len));
        let mut best = f64::INFINITY;
        for mut p in pool() {
            if p.fit(black_box(&t1)).is_err() {
                continue;
            }
            if let Ok(s) = p.score(&t2, Metric::Smape) {
                best = best.min(s);
            }
        }
        black_box(best);
    });

    println!("== budgeted execution (pool polluted by a 60 ms/fit pipeline) ==");
    let slow_pool = || -> Vec<Box<dyn Forecaster>> {
        let mut p = pool();
        p.push(Box::new(SlowPipeline::new(Duration::from_millis(60))));
        p
    };
    time("polluted_unbudgeted", 2, || {
        let _ = run_tdaub(slow_pool(), black_box(&data), &config(true, false));
    });
    time("polluted_budget_100ms", 2, || {
        let cfg = TDaubConfig {
            pipeline_time_budget: Some(Duration::from_millis(100)),
            ..config(true, false)
        };
        let r = run_tdaub(slow_pool(), black_box(&data), &cfg);
        if let Ok(r) = r {
            // the slow pipeline must have been cut off, not ranked
            assert!(r.reports.iter().all(|rep| rep.name != "SlowPipeline"));
            black_box(r.execution.total_allocations());
        }
    });

    // machine-readable record at the repo root (hand-built JSON: the schema
    // is flat and the hermetic build carries no serializer)
    let member_json: Vec<String> = selection
        .members
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"weight\": {:.4}, \"picks\": {}}}",
                m.name, m.weight, m.picks
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"tdaub\",\n  \"pool_size\": {pool_size},\n  \"rows\": {n},\n  \"series\": 2,\n  \"iters\": {iters},\n  \"cold_ms\": {cold_ms:.3},\n  \"warm_ms\": {warm_fit_ms:.3},\n  \"speedup\": {speedup:.3},\n  \"incremental_fits\": {},\n  \"fits_avoided\": {},\n  \"duplicate_fits\": {},\n  \"slice_bytes_avoided\": {},\n  \"rankings_match\": {rankings_match},\n  \"ensemble\": {{\n    \"members\": [{}],\n    \"score\": {:.4},\n    \"best_single\": {:.4},\n    \"rounds\": {}\n  }},\n  \"probabilistic\": {{\n    \"source\": \"{}\",\n    \"smape\": {eval_smape:.4},\n    \"pinball_q10\": {pinball_q10:.4},\n    \"pinball_q90\": {pinball_q90:.4},\n    \"coverage_80\": {coverage_80:.4},\n    \"coverage_95\": {coverage_95:.4}\n  }},\n  \"reselection\": {{\n    \"cold_refit_ms\": {cold_refit_ms:.3},\n    \"warm_ms\": {warm_ms:.3},\n    \"warm_ratio\": {warm_ratio:.3},\n    \"warm_pool\": {},\n    \"rank_parity\": {reselect_parity},\n    \"winner\": \"{}\"\n  }}\n}}\n",
        warm.execution.incremental_fits,
        warm.execution.fits_avoided,
        warm.execution.duplicate_fits,
        warm.execution.slice_bytes_avoided,
        member_json.join(", "),
        selection.score,
        selection.best_single,
        selection.rounds,
        iv.source(),
        warm_names.len(),
        warm_names[0],
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tdaub.json");
    std::fs::write(path, json).expect("write BENCH_tdaub.json");
    println!("wrote {path}");
}
