//! Deterministic, seeded fault injection for robustness testing.
//!
//! A zero-configuration AutoML system must absorb misbehaving pipelines
//! rather than surface them, and the only way to *prove* that is to misbehave
//! on purpose. This crate provides a process-global, explicitly installed
//! [`FaultPlan`] that production code consults at named injection points
//! ("pipeline.fit", "pipeline.predict", "predict.interval", "executor.unit",
//! "service.submit", ...). Each point asks
//! [`inject`] whether a fault fires; the answer is a **pure function** of the
//! plan seed, the site name, and a caller-supplied key — never of thread
//! identity, call order, or wall clock — so a seeded plan perturbs a serial
//! run and a parallel run in exactly the same places. That determinism is
//! what lets the chaos gauntlet assert serial==parallel ranking parity
//! *under* injected faults, not just without them.
//!
//! When no plan is installed the entire layer costs one relaxed atomic load
//! per injection point ([`enabled`]), so shipping the hooks in production
//! code paths is free.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use autoai_linalg::sync::OrderedMutex;
use autoai_linalg::Rng64;

/// One fault drawn from the installed [`FaultPlan`] at an injection point.
///
/// The *site* decides which faults are meaningful: a fit path honors all
/// four, the executor honors delays, a forecast path honors NaN poisoning.
/// Sites ignore variants that do not apply to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The injection point should panic (exercises `catch_unwind` isolation).
    Panic,
    /// The injection point should return its typed error instead of working.
    TypedError,
    /// The injection point should poison its output with NaNs.
    NanForecast,
    /// The injection point should sleep this many milliseconds before
    /// proceeding normally (exercises budget and watchdog paths).
    Delay(u64),
}

/// A seeded description of which faults fire where.
///
/// Probabilities are per-draw band widths in `[0, 1]`; they are consulted in
/// the fixed order panic → error → NaN → delay, so the same seed always
/// carves the unit interval the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed mixed into every draw.
    pub seed: u64,
    /// Probability that a draw yields [`Fault::Panic`].
    pub panic_prob: f64,
    /// Probability that a draw yields [`Fault::TypedError`].
    pub error_prob: f64,
    /// Probability that a draw yields [`Fault::NanForecast`].
    pub nan_prob: f64,
    /// Probability that a draw yields [`Fault::Delay`].
    pub delay_prob: f64,
    /// Inclusive upper bound, in milliseconds, for injected delays.
    /// `0` disables delays regardless of `delay_prob`.
    pub max_delay_ms: u64,
}

impl FaultPlan {
    /// A moderately aggressive mix suitable for gauntlet testing: each fault
    /// class fires on 5% of draws, delays capped at 5 ms.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_prob: 0.05,
            error_prob: 0.05,
            nan_prob: 0.05,
            delay_prob: 0.05,
            max_delay_ms: 5,
        }
    }

    /// A plan that never fires any fault. Installing it keeps the injection
    /// machinery active (counters, plan lookups) while guaranteeing zero
    /// behavioral perturbation — the baseline for parity assertions.
    pub fn empty(seed: u64) -> Self {
        Self {
            seed,
            panic_prob: 0.0,
            error_prob: 0.0,
            nan_prob: 0.0,
            delay_prob: 0.0,
            max_delay_ms: 0,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static PLAN: OrderedMutex<Option<FaultPlan>> = OrderedMutex::new("chaos.plan", None);

/// Install `plan` process-wide and enable injection. Resets the
/// injected-fault counter to zero.
pub fn install(plan: FaultPlan) {
    if let Ok(mut slot) = PLAN.lock() {
        *slot = Some(plan);
        INJECTED.store(0, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
    }
}

/// Disable injection and drop the installed plan. The injected-fault counter
/// keeps its value until the next [`install`] so callers can read it after
/// tearing chaos down.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
    if let Ok(mut slot) = PLAN.lock() {
        *slot = None;
    }
}

/// Whether a plan is installed and enabled. A single relaxed atomic load:
/// this is the entire cost of the chaos layer on the disabled fast path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of faults fired since the last [`install`].
pub fn injected_count() -> u64 {
    INJECTED.load(Ordering::SeqCst)
}

/// FNV-1a hash of a name, for building stable injection keys out of pipeline
/// or site names.
pub fn key(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Ask whether a fault fires at `site` for the caller-supplied `k`.
///
/// The draw is a pure function of `(plan.seed, site, k)`: the same triple
/// yields the same answer on every call, on every thread, in every
/// interleaving. Callers must therefore choose `k` from *logical* identity
/// (pipeline name hash, allocation length, frame dimensions) — never from
/// addresses, clocks, or iteration counters that differ between execution
/// modes. Returns `None` when disabled, when the draw misses every band, or
/// when the plan mutex is unavailable.
pub fn inject(site: &str, k: u64) -> Option<Fault> {
    if !enabled() {
        return None;
    }
    let plan = match PLAN.lock() {
        Ok(slot) => slot.clone()?,
        Err(_) => return None,
    };
    let mix = plan
        .seed
        .wrapping_add(key(site).rotate_left(17))
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut rng = Rng64::seed_from_u64(mix);
    let roll = rng.next_f64();
    let mut band = plan.panic_prob;
    let fault = if roll < band {
        Some(Fault::Panic)
    } else {
        band += plan.error_prob;
        if roll < band {
            Some(Fault::TypedError)
        } else {
            band += plan.nan_prob;
            if roll < band {
                Some(Fault::NanForecast)
            } else {
                band += plan.delay_prob;
                if roll < band && plan.max_delay_ms > 0 {
                    Some(Fault::Delay(1 + rng.next_u64() % plan.max_delay_ms))
                } else {
                    None
                }
            }
        }
    };
    if fault.is_some() {
        INJECTED.fetch_add(1, Ordering::SeqCst);
    }
    fault
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Chaos state is process-global; serialize the tests that touch it.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_layer_injects_nothing() {
        let _g = GATE.lock().unwrap();
        disable();
        assert!(!enabled());
        assert_eq!(inject("pipeline.fit", 42), None);
    }

    #[test]
    fn empty_plan_never_fires_and_counts_zero() {
        let _g = GATE.lock().unwrap();
        install(FaultPlan::empty(7));
        for k in 0..500 {
            assert_eq!(inject("pipeline.fit", k), None);
            assert_eq!(inject("executor.unit", k), None);
        }
        assert_eq!(injected_count(), 0);
        disable();
    }

    #[test]
    fn draws_are_pure_functions_of_site_and_key() {
        let _g = GATE.lock().unwrap();
        install(FaultPlan::new(1234));
        let first: Vec<Option<Fault>> = (0..200).map(|k| inject("pipeline.fit", k)).collect();
        // interleave draws at other sites, then replay in reverse order
        for k in 0..50 {
            let _ = inject("executor.unit", k);
        }
        let replay: Vec<Option<Fault>> = (0..200).map(|k| inject("pipeline.fit", k)).collect();
        assert_eq!(first, replay);
        disable();
    }

    #[test]
    fn aggressive_plan_fires_every_fault_class() {
        let _g = GATE.lock().unwrap();
        install(FaultPlan {
            seed: 99,
            panic_prob: 0.25,
            error_prob: 0.25,
            nan_prob: 0.25,
            delay_prob: 0.25,
            max_delay_ms: 3,
        });
        let mut seen = [false; 4];
        for k in 0..400 {
            match inject("pipeline.fit", k) {
                Some(Fault::Panic) => seen[0] = true,
                Some(Fault::TypedError) => seen[1] = true,
                Some(Fault::NanForecast) => seen[2] = true,
                Some(Fault::Delay(ms)) => {
                    assert!((1..=3).contains(&ms));
                    seen[3] = true;
                }
                None => {}
            }
        }
        assert_eq!(seen, [true; 4]);
        assert!(injected_count() > 0);
        disable();
    }

    #[test]
    fn install_resets_the_counter() {
        let _g = GATE.lock().unwrap();
        install(FaultPlan {
            seed: 5,
            panic_prob: 1.0,
            error_prob: 0.0,
            nan_prob: 0.0,
            delay_prob: 0.0,
            max_delay_ms: 0,
        });
        assert_eq!(inject("pipeline.fit", 0), Some(Fault::Panic));
        assert!(injected_count() >= 1);
        install(FaultPlan::empty(5));
        assert_eq!(injected_count(), 0);
        disable();
    }
}
