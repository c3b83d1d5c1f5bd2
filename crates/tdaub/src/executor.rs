//! Fault-isolated, budgeted execution engine for T-Daub.
//!
//! T-Daub's promise (§4.2) is that many heterogeneous pipelines can be
//! ranked cheaply **and safely**. The executor provides the safety half:
//! every pipeline `fit` + `score` on a data allocation runs as an isolated
//! unit of work with
//!
//! * **panic isolation** — a panic deep inside a model is caught
//!   (`catch_unwind`, plus a second net inside the parallel work queue),
//!   converted into the typed [`PipelineError::Crashed`], and the pipeline
//!   is quarantined instead of the whole run aborting;
//! * **a per-pipeline soft time budget** — a cooperative deadline over the
//!   pipeline's cumulative wall time, checked between allocations; a
//!   pipeline that blows its budget stops receiving data and is recorded as
//!   [`FailureKind::TimedOut`];
//! * **a per-unit hard deadline** — with a hard deadline set, every round
//!   runs through `autoai_linalg::supervised_try_map`: a monitor thread
//!   quarantines any unit that exceeds the deadline
//!   ([`FailureKind::HardTimeout`]) and detaches its worker thread; the
//!   abandoned zombie keeps the pipeline and never touches shared state
//!   again, so `run_tdaub`'s wall time gets a provable upper bound even
//!   against `loop {}` in a pipeline;
//! * **typed failure accounting** — every pipeline's wall time, allocation
//!   count, and failure (if any) land in an [`ExecutionReport`] that the
//!   orchestrator surfaces through `core::Progress` and `FitSummary`.
//!
//! Parallel rounds run on `autoai_linalg::parallel_try_map_mut`, a shared
//! work queue: workers pull pipelines dynamically, so one slow BATS fit no
//! longer serializes a whole contiguous chunk of cheap evaluations behind
//! it. Serial and parallel modes execute the identical per-pipeline
//! evaluation sequence, so rankings are order-independent and reproducible.
//!
//! On top of the safety policy the executor carries the performance layer:
//! every allocation is a zero-copy view of the training frame; under
//! reverse allocations a candidate whose previous fit is a suffix of the
//! next allocation is offered a [`Forecaster::fit_incremental`] warm start;
//! and every successful fit+score unit is memoized per candidate, keyed by
//! the allocation slice's [`FrameFingerprint`] — re-evaluating a bitwise
//! identical allocation (the acceleration→scoring phase boundary, or a
//! stalled acceleration step) replays the recorded score instead of
//! refitting. All of it is instrumented (warm-start count, fits avoided,
//! duplicate fits, bytes the zero-copy allocation views avoided) in the
//! [`ExecutionReport`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use autoai_linalg::{
    parallel_try_map_mut, simple_linreg, supervised_try_map, SupervisedOutcome, WorkerPanic,
};
use autoai_pipelines::{Forecaster, PipelineError};
use autoai_tsdata::{FrameFingerprint, Metric, TimeSeriesFrame};

/// Why a pipeline was removed from the candidate pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The pipeline panicked; the payload message is preserved.
    Crashed(String),
    /// Every allocation ended in a typed error (last message preserved).
    Errored(String),
    /// The pipeline exceeded its per-pipeline soft time budget.
    TimedOut,
    /// One unit of work blew the per-unit **hard** deadline: the watchdog
    /// detached the worker thread and quarantined the pipeline (its state is
    /// owned by the abandoned zombie and is never touched again).
    HardTimeout,
    /// The pipeline ran but never produced a finite score (NaN/∞).
    NonFinite,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Crashed(m) => write!(f, "crashed: {m}"),
            FailureKind::Errored(m) => write!(f, "errored: {m}"),
            FailureKind::TimedOut => write!(f, "timed out"),
            FailureKind::HardTimeout => {
                write!(f, "exceeded the hard deadline and was quarantined")
            }
            FailureKind::NonFinite => write!(f, "produced no finite score"),
        }
    }
}

/// Transform-cache counters. Always zero since the shared design-matrix
/// cache was removed (every pipeline now builds its own windows); kept only
/// so existing readers of [`ExecutionReport::cache`] and the service stats
/// keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an existing entry (always 0).
    pub hits: u64,
    /// Lookups that had to build a new entry (always 0).
    pub misses: u64,
    /// Bytes of derived data materialized by the cache (always 0).
    pub bytes_built: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache, in `[0, 1]`; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Execution accounting for one pipeline across the whole T-Daub run.
#[derive(Debug, Clone)]
pub struct PipelineExecution {
    /// Pipeline display name.
    pub name: String,
    /// Cumulative wall time spent in this pipeline's fit/score calls.
    pub wall_time: Duration,
    /// Number of allocations attempted (including failed ones).
    pub allocations: usize,
    /// Why the pipeline left the pool; `None` for survivors.
    pub failure: Option<FailureKind>,
}

/// Per-run execution report: one entry per pipeline in the original pool.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Accounting entries, in original pool order.
    pub pipelines: Vec<PipelineExecution>,
    /// Transform-cache counters; always zero (see [`CacheStats`]).
    pub cache: CacheStats,
    /// Successful `fit_incremental` warm starts across the pool.
    pub incremental_fits: u64,
    /// Fit+score units served from the per-candidate fingerprint memo
    /// instead of refitting bitwise-identical data (cross-round and across
    /// the acceleration→scoring phase boundary).
    pub fits_avoided: u64,
    /// Executed fits whose allocation fingerprint the same candidate had
    /// already fitted successfully — structurally zero while the memo is
    /// active; asserted zero by the bench smoke mode.
    pub duplicate_fits: u64,
    /// Bytes of frame data the zero-copy allocation views avoided copying
    /// (each unit of work used to materialize its allocation slice).
    pub slice_bytes_avoided: u64,
    /// Faults the deterministic chaos layer injected during this run
    /// (delta of `autoai_chaos::injected_count()` across the run; always
    /// zero when no fault plan is installed).
    pub injected_faults: u64,
    /// True when [`crate::TDaubConfig::run_hard_deadline`] expired before
    /// the run finished: later allocation rounds, acceleration steps, or
    /// scoring finalists were skipped and the ranking was built from the
    /// scores gathered up to that point. The orchestrator surfaces this as
    /// a typed `Survivors` degradation.
    pub run_deadline_hit: bool,
    /// Units of work re-run after a transient typed error
    /// ([`FailureKind::Errored`]) under [`crate::TDaubConfig::retry_transient`].
    /// Crashes and hard timeouts are never retried.
    pub retries: u64,
}

impl ExecutionReport {
    /// Entries for pipelines that failed (crashed/errored/timed out/NaN).
    pub fn failures(&self) -> impl Iterator<Item = &PipelineExecution> {
        self.pipelines.iter().filter(|p| p.failure.is_some())
    }

    /// Number of pipelines that survived to the final ranking.
    pub fn survivors(&self) -> usize {
        self.pipelines
            .iter()
            .filter(|p| p.failure.is_none())
            .count()
    }

    /// Total allocations attempted across the pool.
    pub fn total_allocations(&self) -> usize {
        self.pipelines.iter().map(|p| p.allocations).sum()
    }

    /// Entry for a pipeline by display name.
    pub fn find(&self, name: &str) -> Option<&PipelineExecution> {
        self.pipelines.iter().find(|p| p.name == name)
    }
}

/// Internal per-pipeline state during a T-Daub run.
pub(crate) struct Candidate {
    pub pipeline: Box<dyn Forecaster>,
    pub name: String,
    /// `(allocation length, score)` pairs; failed units record `+inf`.
    pub scores: Vec<(usize, f64)>,
    pub projected: f64,
    pub final_score: Option<f64>,
    pub train_time: Duration,
    pub allocations: usize,
    /// Why the executor removed this candidate; `None` while in the pool.
    pub failure: Option<FailureKind>,
    /// Most recent non-crash failure signal, for end-of-run classification.
    pub last_error: Option<FailureKind>,
    /// Rows of the last successful `fit` on this candidate's pipeline
    /// (0 = no valid fitted state). Drives the warm-start eligibility test:
    /// under reverse allocations the previous fit's slice is the trailing
    /// suffix of every later, larger allocation.
    pub last_fit_rows: usize,
    /// Per-run fit+score memo: `(allocation fingerprint, score)` for every
    /// unit that fit and scored finitely. Equal fingerprints mean the same
    /// buffers and the same window — bitwise-identical input — so replaying
    /// the deterministic score is exact and the memo stays on in every
    /// execution mode.
    pub memo: Vec<(FrameFingerprint, f64)>,
    /// Fingerprints of every allocation this candidate's pipeline
    /// successfully fitted (superset of `memo`'s keys: includes fits whose
    /// score came out non-finite). Used to count duplicate fits.
    pub fitted_fps: Vec<FrameFingerprint>,
}

impl Candidate {
    pub fn new(pipeline: Box<dyn Forecaster>) -> Self {
        Candidate {
            name: pipeline.name(),
            pipeline,
            scores: Vec::new(),
            projected: f64::INFINITY,
            final_score: None,
            train_time: Duration::ZERO,
            allocations: 0,
            failure: None,
            last_error: None,
            last_fit_rows: 0,
            memo: Vec::new(),
            fitted_fps: Vec::new(),
        }
    }

    /// Still in the pool (not crashed / timed out / classified failed).
    pub fn alive(&self) -> bool {
        self.failure.is_none()
    }

    /// Has at least one finite observed score.
    pub fn has_signal(&self) -> bool {
        self.scores.iter().any(|(_, s)| s.is_finite())
    }

    /// Largest allocation with a finite score, if any.
    pub fn best_finite_alloc(&self) -> Option<usize> {
        self.scores
            .iter()
            .filter(|(_, s)| s.is_finite())
            .map(|&(a, _)| a)
            .max()
    }

    /// Project the learning curve to `full_len` (linear regression on the
    /// finite partial scores, clamped at the metric's lower bound).
    pub fn project(&mut self, full_len: usize, use_projection: bool, metric: Metric) {
        let ok: Vec<(usize, f64)> = self
            .scores
            .iter()
            .filter(|(_, s)| s.is_finite())
            .copied()
            .collect();
        if ok.is_empty() {
            self.projected = f64::INFINITY;
            return;
        }
        // a full-length observation is ground truth; no projection needed
        if let Some(&(_, s)) = ok.iter().rev().find(|&&(alloc, _)| alloc >= full_len) {
            self.projected = s;
            return;
        }
        if !use_projection || ok.len() == 1 {
            // `ok` is non-empty: the is_empty branch above already returned
            self.projected = ok.last().map_or(f64::INFINITY, |&(_, s)| s);
            return;
        }
        let t: Vec<f64> = ok.iter().map(|(l, _)| *l as f64).collect();
        let y: Vec<f64> = ok.iter().map(|(_, s)| *s).collect();
        let (a, b) = simple_linreg(&t, &y);
        let mut projected = a + b * full_len as f64;
        // SMAPE/MAE/RMSE/MAPE are bounded below by 0 — an extrapolated
        // learning curve must not cross that floor, or a mediocre pipeline
        // with a steep partial-score slope outranks a near-perfect one
        if !metric.higher_is_better() {
            projected = projected.max(0.0);
        }
        self.projected = projected;
    }

    /// End-of-run classification: a candidate that is still nominally alive
    /// but never produced a finite score becomes a typed failure.
    pub fn finalize_failure(&mut self) {
        if self.failure.is_none() && !self.has_signal() {
            self.failure = Some(match self.last_error.take() {
                Some(kind) => kind,
                None => FailureKind::Errored("produced no score on any allocation".into()),
            });
        }
    }

    fn execution_entry(&self) -> PipelineExecution {
        PipelineExecution {
            name: self.name.clone(),
            wall_time: self.train_time,
            allocations: self.allocations,
            failure: self.failure.clone(),
        }
    }
}

/// Build the per-run execution report from the final candidate states and
/// the executor's instrumentation counters.
pub(crate) fn execution_report(cands: &[Candidate], exec: &Executor<'_>) -> ExecutionReport {
    ExecutionReport {
        pipelines: cands.iter().map(Candidate::execution_entry).collect(),
        cache: CacheStats::default(),
        incremental_fits: exec.incremental_fits.load(Ordering::Relaxed),
        fits_avoided: exec.fits_avoided.load(Ordering::Relaxed),
        duplicate_fits: exec.duplicate_fits.load(Ordering::Relaxed),
        slice_bytes_avoided: exec.slice_bytes_avoided.load(Ordering::Relaxed),
        injected_faults: autoai_chaos::injected_count().saturating_sub(exec.chaos_start),
        run_deadline_hit: false,
        retries: exec.retries.load(Ordering::Relaxed),
    }
}

/// Outcome of one isolated fit+score unit.
struct EvalUnit {
    /// Finite score on success, `+inf` otherwise.
    score: f64,
    /// Wall time of the unit.
    elapsed: Duration,
    /// Failure signal, if the unit did not produce a finite score.
    error: Option<FailureKind>,
    /// Rows the pipeline is validly fitted on after this unit (`None` when
    /// the fit itself failed or panicked — state cannot be warm-started).
    fitted_rows: Option<usize>,
    /// Fingerprint of the allocation slice the unit fit (`None` only for
    /// the queue-level `WorkerPanic` fallback, which never reached a fit).
    fp: Option<FrameFingerprint>,
    /// The unit was replayed from the candidate's memo: no fit happened and
    /// the pipeline's fitted state is unchanged.
    from_memo: bool,
    /// The fit succeeded via a `fit_incremental` warm start. Counted in
    /// [`Executor::apply`] (not at evaluation time) so a quarantined
    /// zombie's work never reaches the shared counters.
    warm: bool,
    /// Bytes the zero-copy allocation view avoided copying for this unit;
    /// credited in [`Executor::apply`] for the same reason.
    slice_bytes: u64,
    /// Transient-error retries consumed by this unit; credited in
    /// [`Executor::apply`] for the same zombie-safety reason.
    retries: u8,
}

impl EvalUnit {
    /// A unit served from the candidate's fingerprint memo: no fit ran and
    /// the pipeline's fitted state is unchanged.
    fn replayed(score: f64) -> Self {
        EvalUnit {
            score,
            elapsed: Duration::ZERO,
            error: None,
            fitted_rows: None,
            fp: None,
            from_memo: true,
            warm: false,
            slice_bytes: 0,
            retries: 0,
        }
    }

    /// A unit that never produced a fit at all: the queue-level panic net
    /// or a watchdog quarantine.
    fn failed(kind: FailureKind) -> Self {
        EvalUnit {
            score: f64::INFINITY,
            elapsed: Duration::ZERO,
            error: Some(kind),
            fitted_rows: None,
            fp: None,
            from_memo: false,
            warm: false,
            slice_bytes: 0,
            retries: 0,
        }
    }
}

/// Everything one isolated fit+score unit needs besides the pipeline
/// itself. All owned (the frames are zero-copy `Arc`-backed views, the rest
/// is cheap), so a unit can be shipped to a supervised worker thread
/// without borrowing the executor.
struct UnitSpec {
    slice: TimeSeriesFrame,
    t2: TimeSeriesFrame,
    metric: Metric,
    fp: FrameFingerprint,
    warm_eligible: bool,
    previous_rows: usize,
    remaining: Option<Duration>,
    retry_transient: u8,
}

/// A unit of work shipped through the supervised watchdog queue. The
/// candidate's pipeline travels with the unit (a [`Tombstone`] holds its
/// slot meanwhile) and comes back inside `SupervisedOutcome::Completed`; on
/// a hard timeout it stays with the zombie worker forever.
struct WorkUnit {
    idx: usize,
    pipeline: Box<dyn Forecaster>,
    spec: UnitSpec,
}

/// Placeholder installed in a candidate's pipeline slot while the real
/// pipeline is out with a supervised worker. It becomes permanent when the
/// watchdog quarantines that worker: the real pipeline's state is then
/// owned by a detached zombie thread and must never be touched again, so
/// the tombstone answers every call with a typed error.
struct Tombstone {
    name: String,
}

impl Forecaster for Tombstone {
    fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
        Err(PipelineError::Crashed(
            "pipeline quarantined by the hard-deadline watchdog".into(),
        ))
    }
    fn predict(&self, _: usize) -> Result<TimeSeriesFrame, PipelineError> {
        Err(PipelineError::NotFitted)
    }
    fn name(&self) -> String {
        self.name.clone()
    }
    fn clone_unfitted(&self) -> Box<dyn Forecaster> {
        Box::new(Tombstone {
            name: self.name.clone(),
        })
    }
}

/// Chaos injection point for the executor itself: an installed
/// [`autoai_chaos::FaultPlan`] may stall a unit of work right here. Only
/// [`autoai_chaos::Fault::Delay`] is realized at this site — panics, typed
/// errors and NaN forecasts are exercised inside the pipelines, where they
/// have a real blast radius.
fn chaos_unit_delay(pipeline: &str, alloc_len: usize) {
    if !autoai_chaos::enabled() {
        return;
    }
    let k = autoai_chaos::key(pipeline) ^ (alloc_len as u64);
    if let Some(autoai_chaos::Fault::Delay(ms)) = autoai_chaos::inject("executor.unit", k) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Train a pipeline on its allocation slice and score it on `t2`, with
/// panic isolation and a cooperative budget hint. `spec.previous_rows` is
/// the candidate's last successful fit length (0 = none); when
/// `spec.warm_eligible` the pipeline is offered a `fit_incremental` warm
/// start. Free-standing (no executor borrow) so the supervised watchdog can
/// run it on a detachable worker thread.
///
/// `AssertUnwindSafe` is sound because a crashed pipeline is quarantined by
/// the caller: its (possibly corrupt) state is never fitted or queried
/// again.
fn evaluate_unit(pipeline: &mut Box<dyn Forecaster>, spec: &UnitSpec) -> EvalUnit {
    let alloc_len = spec.slice.len();
    // the O(1) view replaces what used to be a full row copy of the
    // allocation for every unit of work
    let slice_bytes = (alloc_len as u64)
        .saturating_mul(spec.slice.n_series() as u64)
        .saturating_mul(8);
    let start = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        chaos_unit_delay(&pipeline.name(), alloc_len);
        pipeline.set_time_budget(spec.remaining);
        let mut warm = false;
        let fitted = if spec.warm_eligible {
            match pipeline.fit_incremental(&spec.slice, spec.previous_rows) {
                Ok(true) => {
                    warm = true;
                    Ok(())
                }
                Ok(false) => pipeline.fit(&spec.slice),
                Err(e) => Err(e),
            }
        } else {
            pipeline.fit(&spec.slice)
        };
        match fitted {
            Ok(()) => (true, warm, pipeline.score(&spec.t2, spec.metric)),
            Err(e) => (false, warm, Err(e)),
        }
    }));
    let elapsed = start.elapsed();
    match caught {
        Ok((fit_ok, warm, score)) => {
            let fitted_rows = fit_ok.then_some(alloc_len);
            let (score, error) = match score {
                Ok(s) if s.is_finite() => (s, None),
                Ok(_) => (f64::INFINITY, Some(FailureKind::NonFinite)),
                Err(e) => (f64::INFINITY, Some(FailureKind::Errored(e.to_string()))),
            };
            EvalUnit {
                score,
                elapsed,
                error,
                fitted_rows,
                fp: Some(spec.fp.clone()),
                from_memo: false,
                warm,
                slice_bytes,
                retries: 0,
            }
        }
        Err(payload) => EvalUnit {
            score: f64::INFINITY,
            elapsed,
            error: Some(FailureKind::Crashed(payload_message(payload.as_ref()))),
            fitted_rows: None,
            fp: Some(spec.fp.clone()),
            from_memo: false,
            warm: false,
            slice_bytes,
            retries: 0,
        },
    }
}

/// Run a unit and, if it ended in a **typed error** only, re-run it up to
/// `spec.retry_transient` times within the same budget window. Crashes,
/// hard timeouts (watchdog-level, never seen here), and non-finite scores
/// are final on the first attempt; the retried unit carries the cumulative
/// wall time so budget accounting is unchanged. Deterministic: the retry
/// decision depends only on the unit outcome, so serial, parallel, and
/// supervised execution retry identically.
fn evaluate_unit_with_retry(pipeline: &mut Box<dyn Forecaster>, spec: &UnitSpec) -> EvalUnit {
    let mut unit = evaluate_unit(pipeline, spec);
    let mut used: u8 = 0;
    while used < spec.retry_transient && matches!(unit.error, Some(FailureKind::Errored(_))) {
        used = used.saturating_add(1);
        let prior_elapsed = unit.elapsed;
        unit = evaluate_unit(pipeline, spec);
        unit.elapsed += prior_elapsed;
        unit.retries = used;
    }
    unit
}

/// Render a caught panic payload as text (mirrors `WorkerPanic`).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The execution engine: shared evaluation context plus the isolation and
/// budget policy. One instance drives a whole `run_tdaub` call.
pub(crate) struct Executor<'a> {
    pub t1: &'a TimeSeriesFrame,
    pub t2: &'a TimeSeriesFrame,
    pub metric: Metric,
    pub reverse: bool,
    pub parallel: bool,
    /// Per-pipeline cumulative soft budget; `None` = unlimited.
    pub budget: Option<Duration>,
    /// Offer warm-started `fit_incremental` refits when a reverse
    /// allocation extends a candidate's previous successful fit.
    pub incremental: bool,
    /// Per-unit **hard** wall-clock deadline enforced by the supervised
    /// watchdog; `None` runs the cooperative-only paths (no watchdog).
    pub hard_deadline: Option<Duration>,
    /// Re-run a unit that ended in a typed error up to this many times
    /// (transient-failure tolerance; crashes and hard timeouts are final).
    pub retry_transient: u8,
    /// `autoai_chaos::injected_count()` snapshot at executor construction;
    /// the run's report carries the delta.
    pub chaos_start: u64,
    /// Bytes the O(1) allocation views avoided copying (one slice
    /// materialization per unit of work before zero-copy frames).
    pub slice_bytes_avoided: AtomicU64,
    /// Successful warm starts across the run.
    pub incremental_fits: AtomicU64,
    /// Units replayed from a candidate's fingerprint memo (no fit executed).
    pub fits_avoided: AtomicU64,
    /// Executed fits on an allocation the candidate had already fitted.
    pub duplicate_fits: AtomicU64,
    /// Transient-error retries consumed across the run.
    pub retries: AtomicU64,
}

impl Executor<'_> {
    fn remaining(&self, spent: Duration) -> Option<Duration> {
        self.budget.map(|b| b.saturating_sub(spent))
    }

    /// The allocation slice of `t1` for one unit of work (a zero-copy view).
    fn allocation_slice(&self, alloc_len: usize) -> TimeSeriesFrame {
        let l = self.t1.len();
        let alloc_len = alloc_len.min(l);
        if self.reverse {
            // most recent data: T1[L - alloc + 1 : L] in the paper's notation
            self.t1.slice(l - alloc_len, l)
        } else {
            // original DAUB: oldest data first — note the pipeline then
            // forecasts across a gap, which is why reverse wins on time series
            self.t1.slice(0, alloc_len)
        }
    }

    /// Serve one unit of work for a candidate: replay it from the
    /// fingerprint memo when this allocation was already fit and scored
    /// (bitwise-identical input ⇒ identical deterministic outcome), or
    /// evaluate it for real. Identical in serial and parallel modes.
    fn evaluate_or_replay(&self, c: &mut Candidate, alloc_len: usize) -> EvalUnit {
        let slice = self.allocation_slice(alloc_len);
        let fp = slice.fingerprint();
        if let Some(&(_, score)) = c.memo.iter().find(|(m, _)| *m == fp) {
            self.fits_avoided.fetch_add(1, Ordering::Relaxed);
            return EvalUnit::replayed(score);
        }
        let spec = self.unit_spec(slice, fp, c);
        evaluate_unit_with_retry(&mut c.pipeline, &spec)
    }

    /// Everything one unit of work for this candidate needs besides the
    /// pipeline itself (owned, so it can cross into a supervised worker).
    fn unit_spec(&self, slice: TimeSeriesFrame, fp: FrameFingerprint, c: &Candidate) -> UnitSpec {
        // warm starts are only sound in reverse mode: forward allocations
        // grow at the *end*, so the previous fit is a prefix, not a suffix
        let warm_eligible = self.incremental
            && self.reverse
            && c.last_fit_rows > 0
            && c.last_fit_rows <= slice.len();
        UnitSpec {
            t2: self.t2.clone(),
            metric: self.metric,
            warm_eligible,
            previous_rows: c.last_fit_rows,
            remaining: self.remaining(c.train_time),
            slice,
            fp,
            retry_transient: self.retry_transient,
        }
    }

    /// Record one unit outcome on a candidate and apply the isolation and
    /// budget policy. Identical in serial and parallel modes.
    fn apply(&self, c: &mut Candidate, alloc_len: usize, unit: EvalUnit) {
        // shared counters are credited here, on the monitor side, so a
        // quarantined zombie's half-finished unit can never touch them
        self.slice_bytes_avoided
            .fetch_add(unit.slice_bytes, Ordering::Relaxed);
        if unit.warm {
            self.incremental_fits.fetch_add(1, Ordering::Relaxed);
        }
        if unit.retries > 0 {
            self.retries
                .fetch_add(unit.retries as u64, Ordering::Relaxed);
        }
        c.scores.push((alloc_len, unit.score));
        c.train_time += unit.elapsed;
        c.allocations += 1;
        if unit.from_memo {
            // a replay leaves the pipeline's fitted state untouched — no
            // error, no time, nothing to memoize
            return;
        }
        c.last_fit_rows = unit.fitted_rows.unwrap_or(0);
        if let (Some(fp), Some(_)) = (unit.fp.as_ref(), unit.fitted_rows) {
            if c.fitted_fps.contains(fp) {
                self.duplicate_fits.fetch_add(1, Ordering::Relaxed);
            } else {
                c.fitted_fps.push(fp.clone());
            }
            if unit.error.is_none() {
                c.memo.push((fp.clone(), unit.score));
            }
        }
        match unit.error {
            Some(FailureKind::Crashed(m)) => {
                // corrupt state: quarantine immediately
                c.failure = Some(FailureKind::Crashed(m));
                return;
            }
            Some(FailureKind::HardTimeout) => {
                // the zombie worker owns the pipeline's state now; the
                // candidate keeps a tombstone and leaves the pool for good
                c.failure = Some(FailureKind::HardTimeout);
                return;
            }
            Some(kind) => c.last_error = Some(kind),
            None => {}
        }
        if let Some(budget) = self.budget {
            if c.train_time > budget {
                c.failure = Some(FailureKind::TimedOut);
            }
        }
    }

    /// Evaluate one live candidate on one allocation (memo-aware).
    pub fn run_single(&self, c: &mut Candidate, alloc_len: usize) {
        if !c.alive() {
            return;
        }
        if let Some(hard) = self.hard_deadline {
            self.run_round_supervised(std::slice::from_mut(c), alloc_len, hard);
            return;
        }
        let unit = self.evaluate_or_replay(c, alloc_len);
        self.apply(c, alloc_len, unit);
    }

    /// Evaluate every live candidate on the same allocation — one T-Daub
    /// fixed-allocation round. In parallel mode the candidates go through
    /// the shared work queue; the recorded outcome sequence is identical to
    /// serial mode. With a hard deadline set, both modes run under the
    /// supervised watchdog instead (serial = one supervised worker).
    pub fn run_round(&self, cands: &mut [Candidate], alloc_len: usize) {
        if let Some(hard) = self.hard_deadline {
            self.run_round_supervised(cands, alloc_len, hard);
            return;
        }
        if !self.parallel {
            for c in cands.iter_mut().filter(|c| c.alive()) {
                self.run_single(c, alloc_len);
            }
            return;
        }
        let mut live: Vec<&mut Candidate> = cands.iter_mut().filter(|c| c.alive()).collect();
        let outcomes: Vec<Result<EvalUnit, WorkerPanic>> =
            parallel_try_map_mut(&mut live, |c| self.evaluate_or_replay(c, alloc_len));
        for (c, outcome) in live.iter_mut().zip(outcomes) {
            // the inner catch_unwind already absorbs pipeline panics; the
            // queue-level WorkerPanic arm is a second net (e.g. a panicking
            // set_time_budget ripping through a poisoned invariant)
            let unit = match outcome {
                Ok(unit) => unit,
                Err(p) => EvalUnit::failed(FailureKind::Crashed(p.message)),
            };
            self.apply(c, alloc_len, unit);
        }
    }

    /// One round under the hard-deadline watchdog. Every live candidate's
    /// unit of work is shipped through [`supervised_try_map`], whose
    /// monitor enforces `hard` per unit: a unit that blows the deadline
    /// loses its worker thread (detached, never joined) *and* its pipeline
    /// (the candidate keeps a [`Tombstone`] and is quarantined as
    /// [`FailureKind::HardTimeout`]). Memo replays and the recorded outcome
    /// sequence are identical to the unsupervised paths, so the watchdog
    /// never changes a surviving pipeline's ranking.
    fn run_round_supervised(&self, cands: &mut [Candidate], alloc_len: usize, hard: Duration) {
        let mut units: Vec<WorkUnit> = Vec::new();
        for (idx, c) in cands.iter_mut().enumerate() {
            if !c.alive() {
                continue;
            }
            let slice = self.allocation_slice(alloc_len);
            let fp = slice.fingerprint();
            if let Some(&(_, score)) = c.memo.iter().find(|(m, _)| *m == fp) {
                // replays never leave the monitor thread — no watchdog risk
                self.fits_avoided.fetch_add(1, Ordering::Relaxed);
                self.apply(c, alloc_len, EvalUnit::replayed(score));
                continue;
            }
            let spec = self.unit_spec(slice, fp, c);
            let name = c.name.clone();
            units.push(WorkUnit {
                idx,
                pipeline: std::mem::replace(&mut c.pipeline, Box::new(Tombstone { name })),
                spec,
            });
        }
        if units.is_empty() {
            return;
        }
        let workers = if self.parallel {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        let keys: Vec<usize> = units.iter().map(|u| u.idx).collect();
        let outcomes = supervised_try_map(units, hard, workers, |u: &mut WorkUnit| {
            evaluate_unit_with_retry(&mut u.pipeline, &u.spec)
        });
        for (outcome, idx) in outcomes.into_iter().zip(keys) {
            let Some(c) = cands.get_mut(idx) else {
                continue;
            };
            match outcome {
                SupervisedOutcome::Completed { item, result } => {
                    c.pipeline = item.pipeline;
                    let unit = match result {
                        Ok(unit) => unit,
                        // second net: a panic that escaped the unit's own
                        // catch_unwind
                        Err(p) => EvalUnit::failed(FailureKind::Crashed(p.message)),
                    };
                    self.apply(c, alloc_len, unit);
                }
                SupervisedOutcome::HardTimeout => {
                    // charge the full hard deadline: that is the wall time
                    // the run verifiably spent waiting on this unit
                    let mut unit = EvalUnit::failed(FailureKind::HardTimeout);
                    unit.elapsed = hard;
                    self.apply(c, alloc_len, unit);
                }
            }
        }
    }

    /// Refit a winner on the full training input, with the same panic
    /// isolation as every other unit of work.
    pub fn fit_full(
        &self,
        pipeline: &mut Box<dyn Forecaster>,
        train: &TimeSeriesFrame,
    ) -> Result<(), PipelineError> {
        match catch_unwind(AssertUnwindSafe(|| pipeline.fit(train))) {
            Ok(result) => result,
            Err(payload) => Err(PipelineError::Crashed(payload_message(payload.as_ref()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct Always(f64);
    impl Forecaster for Always {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::univariate(vec![self.0; horizon]))
        }
        fn name(&self) -> String {
            format!("Always({})", self.0)
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(Always(self.0))
        }
    }

    struct Panicky;
    impl Forecaster for Panicky {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            panic!("executor test crash")
        }
        fn predict(&self, _: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Err(PipelineError::NotFitted)
        }
        fn name(&self) -> String {
            "Panicky".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(Panicky)
        }
    }

    /// Errors with a typed error for the first `failures_left` fit calls,
    /// then behaves like `Always(value)` — a transient fault.
    struct FlakyOnce {
        failures_left: u8,
        value: f64,
    }
    impl Forecaster for FlakyOnce {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            if self.failures_left > 0 {
                self.failures_left = self.failures_left.saturating_sub(1);
                return Err(PipelineError::InvalidInput("transient hiccup".into()));
            }
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::univariate(vec![self.value; horizon]))
        }
        fn name(&self) -> String {
            "FlakyOnce".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(FlakyOnce {
                failures_left: self.failures_left,
                value: self.value,
            })
        }
    }

    fn frames() -> (TimeSeriesFrame, TimeSeriesFrame) {
        let t1 = TimeSeriesFrame::univariate((0..80).map(|i| i as f64).collect());
        let t2 = TimeSeriesFrame::univariate((80..90).map(|i| i as f64).collect());
        (t1, t2)
    }

    fn executor<'a>(
        t1: &'a TimeSeriesFrame,
        t2: &'a TimeSeriesFrame,
        parallel: bool,
        budget: Option<Duration>,
    ) -> Executor<'a> {
        Executor {
            t1,
            t2,
            metric: Metric::Smape,
            reverse: true,
            parallel,
            budget,
            incremental: false,
            hard_deadline: None,
            chaos_start: 0,
            retry_transient: 1,
            slice_bytes_avoided: AtomicU64::new(0),
            incremental_fits: AtomicU64::new(0),
            fits_avoided: AtomicU64::new(0),
            duplicate_fits: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    #[test]
    fn crash_is_captured_as_typed_failure() {
        let (t1, t2) = frames();
        let exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(Panicky));
        exec.run_single(&mut c, 40);
        assert!(!c.alive());
        match &c.failure {
            Some(FailureKind::Crashed(m)) => assert!(m.contains("executor test crash")),
            other => panic!("expected crash, got {other:?}"),
        }
        assert_eq!(c.allocations, 1);
    }

    #[test]
    fn budget_marks_timeout_between_allocations() {
        let (t1, t2) = frames();
        let exec = executor(&t1, &t2, false, Some(Duration::ZERO));
        let mut c = Candidate::new(Box::new(Always(1.0)));
        exec.run_single(&mut c, 40);
        // the unit itself completes (soft budget), then the deadline fires
        assert_eq!(c.scores.len(), 1);
        assert_eq!(c.failure, Some(FailureKind::TimedOut));
        // a dead candidate receives no further allocations
        exec.run_single(&mut c, 80);
        assert_eq!(c.scores.len(), 1);
    }

    #[test]
    fn round_skips_dead_candidates_and_matches_serial() {
        let (t1, t2) = frames();
        let mk = |parallel| executor(&t1, &t2, parallel, None);
        let build = || {
            vec![
                Candidate::new(Box::new(Always(85.0))),
                Candidate::new(Box::new(Panicky)),
                Candidate::new(Box::new(Always(84.0))),
            ]
        };
        let mut serial = build();
        let mut parallel = build();
        for alloc in [20, 40, 80] {
            mk(false).run_round(&mut serial, alloc);
            mk(true).run_round(&mut parallel, alloc);
        }
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.scores, p.scores, "{}", s.name);
            assert_eq!(s.failure.is_some(), p.failure.is_some());
        }
        // the panicking candidate stopped after its first allocation
        assert_eq!(serial.get(1).map(|c| c.allocations), Some(1));
    }

    #[test]
    fn transient_error_is_retried_and_counted() {
        let (t1, t2) = frames();
        let exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(FlakyOnce {
            failures_left: 1,
            value: 85.0,
        }));
        exec.run_single(&mut c, 40);
        // one retry absorbed the transient error: the unit scored normally
        assert!(c.alive());
        assert_eq!(c.last_error, None);
        assert!(c.scores.last().is_some_and(|&(_, s)| s.is_finite()));
        assert_eq!(exec.retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn exhausted_retries_leave_the_typed_error() {
        let (t1, t2) = frames();
        let exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(FlakyOnce {
            failures_left: 5,
            value: 85.0,
        }));
        exec.run_single(&mut c, 40);
        // one retry was spent, the error stood — and only Errored retries
        assert!(matches!(c.last_error, Some(FailureKind::Errored(_))));
        assert_eq!(exec.retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn crashes_are_never_retried() {
        let (t1, t2) = frames();
        let exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(Panicky));
        exec.run_single(&mut c, 40);
        assert!(matches!(c.failure, Some(FailureKind::Crashed(_))));
        assert_eq!(exec.retries.load(Ordering::Relaxed), 0);
        assert_eq!(c.allocations, 1);
    }

    #[test]
    fn retried_serial_round_matches_parallel() {
        let (t1, t2) = frames();
        let build = || {
            vec![
                Candidate::new(Box::new(Always(85.0))),
                Candidate::new(Box::new(FlakyOnce {
                    failures_left: 1,
                    value: 84.0,
                })),
                Candidate::new(Box::new(Always(83.0))),
            ]
        };
        let serial_exec = executor(&t1, &t2, false, None);
        let parallel_exec = executor(&t1, &t2, true, None);
        let mut serial = build();
        let mut parallel = build();
        for alloc in [20, 40, 80] {
            serial_exec.run_round(&mut serial, alloc);
            parallel_exec.run_round(&mut parallel, alloc);
        }
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.scores, p.scores, "{}", s.name);
            assert_eq!(s.last_error, p.last_error, "{}", s.name);
        }
        assert_eq!(
            serial_exec.retries.load(Ordering::Relaxed),
            parallel_exec.retries.load(Ordering::Relaxed)
        );
        assert_eq!(serial_exec.retries.load(Ordering::Relaxed), 1);
    }

    /// Scores like `Always` but counts how many times `fit` actually ran,
    /// observable from outside the boxed pipeline.
    struct CountingFits {
        value: f64,
        fits: Arc<AtomicU64>,
    }
    impl Forecaster for CountingFits {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            self.fits.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::univariate(vec![self.value; horizon]))
        }
        fn name(&self) -> String {
            "CountingFits".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(CountingFits {
                value: self.value,
                fits: Arc::clone(&self.fits),
            })
        }
    }

    #[test]
    fn full_length_fit_is_replayed_not_repeated_across_the_phase_boundary() {
        let (t1, t2) = frames();
        let exec = executor(&t1, &t2, false, None);
        let fits = Arc::new(AtomicU64::new(0));
        let mut c = Candidate::new(Box::new(CountingFits {
            value: 85.0,
            fits: Arc::clone(&fits),
        }));
        let full = t1.len();
        // acceleration confirms the leader at full length…
        exec.run_single(&mut c, full);
        // …and the scoring phase re-requests the identical allocation
        exec.run_single(&mut c, full);
        assert_eq!(
            fits.load(Ordering::Relaxed),
            1,
            "the second unit must not refit"
        );
        assert_eq!(c.scores.len(), 2);
        assert_eq!(
            c.scores.first().map(|&(_, s)| s.to_bits()),
            c.scores.last().map(|&(_, s)| s.to_bits()),
            "a replay must be bit-identical to the recorded score"
        );
        assert_eq!(exec.fits_avoided.load(Ordering::Relaxed), 1);
        assert_eq!(exec.duplicate_fits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn memo_distinguishes_different_allocations() {
        let (t1, t2) = frames();
        let exec = executor(&t1, &t2, false, None);
        let fits = Arc::new(AtomicU64::new(0));
        let mut c = Candidate::new(Box::new(CountingFits {
            value: 85.0,
            fits: Arc::clone(&fits),
        }));
        exec.run_single(&mut c, 40);
        exec.run_single(&mut c, 60);
        exec.run_single(&mut c, 40); // only this one is a replay
        assert_eq!(fits.load(Ordering::Relaxed), 2);
        assert_eq!(exec.fits_avoided.load(Ordering::Relaxed), 1);
        assert_eq!(c.scores.len(), 3);
    }

    /// Sleeps in `fit` far past any reasonable deadline, then scores like
    /// `Always` — the shape of a hung native solver.
    struct Sleeper(Duration);
    impl Forecaster for Sleeper {
        fn fit(&mut self, _: &TimeSeriesFrame) -> Result<(), PipelineError> {
            std::thread::sleep(self.0);
            Ok(())
        }
        fn predict(&self, horizon: usize) -> Result<TimeSeriesFrame, PipelineError> {
            Ok(TimeSeriesFrame::univariate(vec![85.0; horizon]))
        }
        fn name(&self) -> String {
            "Sleeper".into()
        }
        fn clone_unfitted(&self) -> Box<dyn Forecaster> {
            Box::new(Sleeper(self.0))
        }
    }

    #[test]
    fn watchdog_quarantines_a_unit_past_the_hard_deadline() {
        let (t1, t2) = frames();
        let mut exec = executor(&t1, &t2, true, None);
        exec.hard_deadline = Some(Duration::from_millis(150));
        let mut cands = vec![
            Candidate::new(Box::new(Always(85.0))),
            Candidate::new(Box::new(Sleeper(Duration::from_secs(60)))),
        ];
        let start = Instant::now();
        exec.run_round(&mut cands, 40);
        // the round returns without waiting for the 60 s sleeper
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "watchdog failed to bound the round: {:?}",
            start.elapsed()
        );
        let (healthy, hung) = (&cands[0], &cands[1]);
        assert!(healthy.alive(), "{:?}", healthy.failure);
        assert_eq!(healthy.scores.len(), 1);
        assert!(healthy.scores[0].1.is_finite());
        assert_eq!(hung.failure, Some(FailureKind::HardTimeout));
        assert_eq!(hung.scores, vec![(40, f64::INFINITY)]);
        assert!(hung.train_time >= Duration::from_millis(150));
        // the quarantined slot holds a tombstone that fails typed
        let mut tomb = cands[1].pipeline.clone_unfitted();
        assert_eq!(tomb.name(), "Sleeper");
        assert!(matches!(tomb.fit(&t1), Err(PipelineError::Crashed(_))));
        assert!(matches!(tomb.predict(4), Err(PipelineError::NotFitted)));
    }

    #[test]
    fn supervised_round_matches_unsupervised_scores_for_survivors() {
        let (t1, t2) = frames();
        let build = || {
            vec![
                Candidate::new(Box::new(Always(85.0))),
                Candidate::new(Box::new(Always(84.0))),
            ]
        };
        let mut plain = build();
        let mut watched = build();
        for alloc in [20, 40, 80] {
            executor(&t1, &t2, true, None).run_round(&mut plain, alloc);
            let mut exec = executor(&t1, &t2, true, None);
            exec.hard_deadline = Some(Duration::from_secs(30));
            exec.run_round(&mut watched, alloc);
        }
        for (p, w) in plain.iter().zip(&watched) {
            let pb: Vec<(usize, u64)> = p.scores.iter().map(|&(a, s)| (a, s.to_bits())).collect();
            let wb: Vec<(usize, u64)> = w.scores.iter().map(|&(a, s)| (a, s.to_bits())).collect();
            assert_eq!(pb, wb, "{}", p.name);
        }
    }

    #[test]
    fn non_finite_scores_classify_as_nonfinite() {
        let (t1, t2) = frames();
        let exec = executor(&t1, &t2, false, None);
        let mut c = Candidate::new(Box::new(Always(f64::NAN)));
        exec.run_single(&mut c, 40);
        assert!(c.alive()); // not yet classified — might recover
        c.finalize_failure();
        assert_eq!(c.failure, Some(FailureKind::NonFinite));
    }
}
