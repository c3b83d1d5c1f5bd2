//! Bitwise parity of BATS's smoothing recursion with the textbook one.
//!
//! [`Smoother`] replaces per-step `t % m` lookups with phase cursors, loads
//! each period's seasonal index once per step, reuses its buffers across
//! passes and keeps residuals only when asked. None of that may change a
//! bit: over seeded cases — random α, β and γ (ends of the unit interval
//! included), period sets that are empty, single, duplicated or do not
//! divide the series length, and series with non-finite values — the SSE,
//! the residuals and the final level, trend and seasonal indices must equal
//! the reference recursion's exactly, on a fresh smoother and on one reused
//! across constant sets.

mod reference;

use autoai_linalg::Rng64;
use autoai_stat_models::Smoother;
use reference::{case, run_es, state_bits};

const CASES: usize = 400;

#[test]
fn smoother_matches_the_reference_recursion_bitwise() {
    let mut rng = Rng64::seed_from_u64(0xB475);
    let mut compared = 0;
    for i in 0..CASES {
        let c = case(&mut rng, i);
        let want = run_es(&c.y, c.use_trend, &c.periods, c.alpha, c.beta, &c.gammas);
        let mut smoother = Smoother::new(&c.y, c.use_trend, &c.periods);
        let got = smoother
            .as_mut()
            .and_then(|s| s.pass(c.alpha, c.beta, &c.gammas));
        assert_eq!(state_bits(&got), state_bits(&want), "case {i}: final state");
        let sse = smoother
            .as_mut()
            .and_then(|s| s.sse(c.alpha, c.beta, &c.gammas));
        assert_eq!(
            sse.map(f64::to_bits),
            want.as_ref().map(|w| w.sse.to_bits()),
            "case {i}: sse-only pass"
        );
        compared += usize::from(want.is_some());
    }
    // the non-finite cases must not be the only ones exercised
    assert!(compared > CASES / 2, "only {compared} finite passes");
}

#[test]
fn reused_smoother_matches_fresh_passes() {
    let mut rng = Rng64::seed_from_u64(0x5EED);
    for i in 0..CASES / 4 {
        let c = case(&mut rng, i);
        let Some(mut smoother) = Smoother::new(&c.y, c.use_trend, &c.periods) else {
            continue;
        };
        // a search evaluates many constant sets on one smoother: each pass
        // must start from the same initial state, whatever ran before it
        for round in 0..4 {
            let alpha = rng.range_f64(0.0, 1.0);
            let beta = rng.range_f64(0.0, 1.0);
            let gammas: Vec<f64> = c.periods.iter().map(|_| rng.range_f64(0.0, 0.5)).collect();
            let want = run_es(&c.y, c.use_trend, &c.periods, alpha, beta, &gammas);
            let sse = smoother.sse(alpha, beta, &gammas);
            assert_eq!(
                sse.map(f64::to_bits),
                want.as_ref().map(|w| w.sse.to_bits()),
                "case {i} round {round}: sse"
            );
            let got = smoother.pass(alpha, beta, &gammas);
            assert_eq!(
                state_bits(&got),
                state_bits(&want),
                "case {i} round {round}: state"
            );
        }
    }
}

#[test]
fn too_short_or_zero_periods_are_refused_like_the_reference() {
    let y: Vec<f64> = (0..9).map(|t| t as f64).collect();
    // a period longer than the series leaves no full warm-up
    assert!(Smoother::new(&y, false, &[12]).is_none());
    assert!(run_es(&y, false, &[12], 0.5, 0.0, &[0.1]).is_none());
    // a zero period has no seasonal index to update
    assert!(Smoother::new(&y, true, &[0]).is_none());
}
