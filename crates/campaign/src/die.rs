//! The per-die pipeline: process sample → virtual bench sweep → dVBE die
//! thermometry → Meijer extraction → yield bin.
//!
//! This is exactly the single-die flow of the paper (and of
//! `examples/extraction_campaign.rs`), packaged as a pure function of
//! `(spec, site)`: every random stream the die touches derives from the
//! campaign seed and the die index (see [`crate::seeding`]), so the
//! function is referentially transparent — the precondition for fanning
//! dies out across threads in any order.
//!
//! # Graceful degradation
//!
//! With fault injection enabled the corner pipeline becomes
//! *measure-once, corrupt-per-attempt*: the bench runs once into a
//! pristine buffer, and each attempt copies it and applies a fresh seeded
//! corruption before extraction. A failed or out-of-window attempt burns
//! one unit of the retry budget; when the budget is exhausted a pooled
//! robust (Tukey IRLS) eq.-13 fit over *all* attempts' samples gets the
//! last word. Failures are classified by **detection** (what does the
//! data look like?), never by injection knowledge, into the
//! [`FailureKind`] taxonomy. With faults disabled exactly one attempt
//! runs and no fault stream is ever touched, so the zero-fault pipeline
//! is bit-identical to the unfaulted one.
//!
//! # Adaptive corner scheduling
//!
//! With [`CampaignSpec::adaptive`] set, a die first runs only its **probe
//! corner** (spec corner 0). If the probe is clean — passes the spec
//! window on one analytic attempt with a negligible fit residual (see
//! [`CornerOutcome::flags_escalation`]) — the remaining corners are
//! retired as [`YieldBin::Skipped`] without running; anything suspicious
//! escalates the die to the full exhaustive plan. Because every corner
//! derives its own bench and fault streams (`Stream::Bench(k)` /
//! `Stream::Faults{corner: k, ..}`), skipping later corners cannot
//! perturb the probe's bits: the corners an adaptive run *does* execute
//! are bit-identical to the same corners of an exhaustive run.

use icvbe_core::meijer::extract;
use icvbe_core::nonlinear::Eq13PointModel;
use icvbe_core::tempcomp::{temperature_from_dvbe_corrected, PairCurrents};
use icvbe_instrument::bench::{BenchScratch, PairCampaignPoint, SolveMode, TestStructureBench};
use icvbe_instrument::faults::FaultPlan;
use icvbe_instrument::montecarlo::{DieSample, SampleFactory};
use icvbe_numerics::robust::{fit_robust_traced, RobustLoss, RobustOptions, RobustWorkspace};
use icvbe_trace::{SpanKind, TraceBuf, TraceEvent};
use icvbe_units::{Celsius, Kelvin};

use crate::aggregate::YieldBin;
use crate::seeding::{stream_seed, Stream};
use crate::spec::{BenchProfile, CampaignSpec, DieSite, SpecWindow};
use crate::taxonomy::FailureKind;

/// Extracted values of one corner (present unless the solve failed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerValues {
    /// Extracted `EG`, eV.
    pub eg_ev: f64,
    /// Extracted `XTI`.
    pub xti: f64,
    /// RMS fit residual, volts.
    pub rms_residual_v: f64,
    /// dVBE-computed cold die temperature, kelvin.
    pub t_cold_k: f64,
    /// dVBE-computed hot die temperature, kelvin.
    pub t_hot_k: f64,
    /// Computed-minus-true cold die temperature, kelvin.
    pub t_cold_err_k: f64,
    /// Computed-minus-true hot die temperature, kelvin.
    pub t_hot_err_k: f64,
}

/// One corner's outcome: a yield bin, values when extraction ran, and the
/// robustness bookkeeping (taxonomy kind, attempts, recovery provenance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerOutcome {
    /// Where the corner binned.
    pub bin: YieldBin,
    /// Extracted values; `None` iff `bin` is [`YieldBin::SolveFail`].
    pub values: Option<CornerValues>,
    /// Taxonomy kind of a quarantined corner; `Some` iff `bin` is
    /// [`YieldBin::SolveFail`].
    pub failure: Option<FailureKind>,
    /// Corruption/extraction attempts consumed (always 1 with faults
    /// disabled).
    pub attempts: u32,
    /// When values were produced after at least one failed attempt: the
    /// first failure's kind. Robust recoveries with no preceding hard
    /// failure report [`FailureKind::OutlierRejected`] (the fit rejected
    /// the outliers that kept the analytic attempts out of window).
    pub recovered_from: Option<FailureKind>,
    /// The values came from the pooled robust IRLS fit, not from a clean
    /// analytic attempt.
    pub robust_recovery: bool,
    /// Samples the robust fit flagged as outliers (0 unless
    /// `robust_recovery`).
    pub outliers_rejected: u32,
}

/// Per-die solve containment budget. Zero fields (the default) disable
/// enforcement entirely.
///
/// The iteration budget counts every Newton step consumed by the die so
/// far; once exceeded, the die's **remaining** corners are retired
/// as [`FailureKind::BudgetExhausted`] without running. Iteration counts
/// are deterministic per `(spec, die)`, so the verdict is
/// byte-reproducible at any thread count.
///
/// The wall-clock budget is a *nondeterministic* operational escape hatch
/// for production daemons (a hung die cannot stall a tenant forever); it
/// trades reproducibility for liveness and is off by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DieBudget {
    /// Maximum Newton iterations one die may consume across its corners
    /// (0 = unlimited).
    pub max_newton_iterations: u64,
    /// Maximum wall-clock milliseconds per die (0 = unlimited).
    pub max_wall_ms: u64,
}

/// Adaptive escalation threshold on the probe corner's RMS fit residual,
/// volts. The analytic three-point eq.-13 fit is exactly determined
/// (three parameters, three points), so a healthy corner's residual is
/// pure rounding noise — femtovolts. A residual above a nanovolt means
/// the values came from somewhere strange (e.g. a robust fit, which also
/// trips the `robust_recovery` trigger) and the die deserves its full
/// corner plan.
pub const ADAPTIVE_RMS_RESIDUAL_V: f64 = 1e-9;

impl CornerOutcome {
    fn quarantined(kind: FailureKind, attempts: u32) -> Self {
        CornerOutcome {
            bin: YieldBin::SolveFail,
            values: None,
            failure: Some(kind),
            attempts,
            recovered_from: None,
            robust_recovery: false,
            outliers_rejected: 0,
        }
    }

    /// A corner the adaptive scheduler retired without running.
    #[must_use]
    pub fn skipped() -> Self {
        CornerOutcome {
            bin: YieldBin::Skipped,
            values: None,
            failure: None,
            attempts: 0,
            recovered_from: None,
            robust_recovery: false,
            outliers_rejected: 0,
        }
    }

    /// Whether this outcome, as an adaptive probe, escalates its die to
    /// the full corner plan. Anything short of a first-attempt analytic
    /// pass with a negligible residual escalates: an out-of-window or
    /// failed bin, a recorded failure, a retry, a robust recovery,
    /// rejected outliers, or an RMS residual above
    /// [`ADAPTIVE_RMS_RESIDUAL_V`].
    #[must_use]
    pub fn flags_escalation(&self) -> bool {
        self.bin != YieldBin::Pass
            || self.failure.is_some()
            || self.attempts > 1
            || self.recovered_from.is_some()
            || self.robust_recovery
            || self.outliers_rejected > 0
            || self
                .values
                .is_none_or(|v| v.rms_residual_v > ADAPTIVE_RMS_RESIDUAL_V)
    }
}

/// Wall-clock of the die's pipeline stages (observability only — never
/// part of the deterministic aggregate).
///
/// # Contract
///
/// Every field is an **accumulator** over all entries of its stage within
/// one die: a stage entered once per corner (measure, extract) sums
/// across corners, never overwrites. The totals are derived from the same
/// [`icvbe_trace::TraceBuf`] stage spans the campaign trace exports, so
/// the coarse histograms in `campaign_metrics.json` and the span trace in
/// `campaign_trace.json` share one timing source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DieTiming {
    /// Process-sample generation, ns.
    pub sample_ns: u64,
    /// Bench measurement (all corners, all setpoints), ns.
    pub measure_ns: u64,
    /// Thermometry + extraction (all attempts + robust recovery), ns.
    pub extract_ns: u64,
}

/// Everything one die produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DieOutcome {
    /// Dense die index (campaign order).
    pub index: usize,
    /// Wafer row.
    pub row: usize,
    /// Wafer column.
    pub col: usize,
    /// Per-corner outcomes, in spec corner order.
    pub corners: Vec<CornerOutcome>,
    /// Stage wall-clocks.
    pub timing: DieTiming,
    /// Span records of this die's pipeline (empty unless the scratch's
    /// trace buffer was enabled). Logical fields are deterministic; the
    /// `ts_ns`/`worker` fields are wall clock.
    pub spans: Vec<TraceEvent>,
}

/// Per-thread scratch for the die pipeline: solver workspaces, iteration
/// counters, the reusable measurement-point buffers (pristine + working
/// copy), the robust-fit pool and its IRLS workspace.
///
/// With the default (unlimited) [`budget`], nothing in here affects
/// results — [`run_die_with`] is bitwise identical to [`run_die`] for any
/// scratch state — it only removes per-die allocations and carries the
/// solver statistics the worker pool folds into the campaign metrics. An
/// armed budget is the one deliberate exception: it retires corners.
///
/// [`budget`]: DieScratch::budget
#[derive(Debug, Default)]
pub struct DieScratch {
    /// Bench-level scratch: circuit solver workspace plus counters.
    pub bench: BenchScratch,
    /// Per-die solve containment budget (default: unlimited). Unlike the
    /// rest of the scratch this *does* affect results when set — corners
    /// past exhaustion are retired — which is exactly its job.
    pub budget: DieBudget,
    /// The uncorrupted measurement of the current corner.
    pristine: Vec<PairCampaignPoint>,
    /// Working copy the fault plan corrupts per attempt.
    points: Vec<PairCampaignPoint>,
    /// Pooled `(T, VBE, IC)` samples across attempts for robust recovery.
    pool_t: Vec<f64>,
    pool_vbe: Vec<f64>,
    pool_ic: Vec<f64>,
    /// IRLS workspace for the pooled robust fit.
    robust: RobustWorkspace,
}

impl DieScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        DieScratch::default()
    }
}

fn classify(window: &SpecWindow, eg: f64, xti: f64) -> YieldBin {
    if eg < window.eg_min {
        YieldBin::EgLow
    } else if eg > window.eg_max {
        YieldBin::EgHigh
    } else if xti < window.xti_min {
        YieldBin::XtiLow
    } else if xti > window.xti_max {
        YieldBin::XtiHigh
    } else {
        YieldBin::Pass
    }
}

fn make_bench(profile: BenchProfile, seed: u64) -> TestStructureBench {
    match profile {
        BenchProfile::Paper => TestStructureBench::paper_bench(seed),
        BenchProfile::Ideal => TestStructureBench::ideal(seed),
    }
}

/// The eq.-16/20 die-temperature computation for a non-reference point.
fn computed_temperature(
    p: &PairCampaignPoint,
    refp: &PairCampaignPoint,
) -> Result<Kelvin, icvbe_core::ExtractionError> {
    let x = PairCurrents {
        ica_t: p.ic_a,
        icb_t: p.ic_b,
        ica_ref: refp.ic_a,
        icb_ref: refp.ic_b,
    }
    .x_factor()?;
    temperature_from_dvbe_corrected(p.dvbe, refp.dvbe, refp.sensor_temperature, x)
}

/// A point the chamber lost outright: every electrical reading dead.
fn point_is_dead(p: &PairCampaignPoint) -> bool {
    !p.sensor_temperature.value().is_finite()
        && !p.vbe_a.value().is_finite()
        && !p.dvbe.value().is_finite()
}

fn point_is_finite(p: &PairCampaignPoint) -> bool {
    p.sensor_temperature.value().is_finite()
        && p.vbe_a.value().is_finite()
        && p.vbe_b.value().is_finite()
        && p.dvbe.value().is_finite()
        && p.ic_a.value().is_finite()
        && p.ic_b.value().is_finite()
}

/// Two consecutive points with verbatim-identical readings: a latched
/// instrument. Clean measurements can never collide exactly (independent
/// noise on every reading), so the check is inert on unfaulted data.
fn point_is_latched(p: &PairCampaignPoint, prev: &PairCampaignPoint) -> bool {
    p.sensor_temperature.value() == prev.sensor_temperature.value()
        && p.vbe_a.value() == prev.vbe_a.value()
        && p.dvbe.value() == prev.dvbe.value()
}

/// One analytic extraction attempt over a (possibly corrupted) series,
/// classified by detection on failure.
fn attempt_extract(pts: &[PairCampaignPoint]) -> Result<CornerValues, FailureKind> {
    if pts.len() < 3 || pts.iter().any(point_is_dead) {
        return Err(FailureKind::InsufficientPoints);
    }
    if !pts.iter().all(point_is_finite) {
        return Err(FailureKind::NonFiniteInput);
    }
    if pts.windows(2).any(|w| point_is_latched(&w[1], &w[0])) {
        return Err(FailureKind::Degenerate);
    }
    let refp = &pts[1];
    let run = || {
        let t_cold = computed_temperature(&pts[0], refp)?;
        let t_hot = computed_temperature(&pts[2], refp)?;
        let m = TestStructureBench::meijer_from_points(
            [&pts[0], &pts[1], &pts[2]],
            [t_cold, refp.sensor_temperature, t_hot],
        );
        let fit = extract(&m)?;
        Ok::<CornerValues, icvbe_core::ExtractionError>(CornerValues {
            eg_ev: fit.eg.value(),
            xti: fit.xti,
            rms_residual_v: fit.rms_residual_volts,
            t_cold_k: t_cold.value(),
            t_hot_k: t_hot.value(),
            t_cold_err_k: t_cold.value() - pts[0].die_temperature.value(),
            t_hot_err_k: t_hot.value() - pts[2].die_temperature.value(),
        })
    };
    let v = run().map_err(|_| FailureKind::Degenerate)?;
    if v.eg_ev.is_finite() && v.xti.is_finite() && v.rms_residual_v.is_finite() {
        Ok(v)
    } else {
        Err(FailureKind::Degenerate)
    }
}

/// Pools one attempt's samples for the robust fallback fit. Temperatures
/// come from the *corrupted* attempt itself (per-attempt dVBE thermometry
/// for the cold/hot points, the sensor reading for the reference) — the
/// recovery never peeks at the pristine buffer; only non-finite triples
/// are screened out, the robust loss handles the merely-wrong ones.
fn pool_attempt(pts: &[PairCampaignPoint], pool: &mut RecoveryPool) {
    let refp = &pts[1];
    let temps = [
        computed_temperature(&pts[0], refp)
            .map(|t| t.value())
            .unwrap_or(f64::NAN),
        refp.sensor_temperature.value(),
        computed_temperature(&pts[2], refp)
            .map(|t| t.value())
            .unwrap_or(f64::NAN),
    ];
    for (i, (&t, p)) in temps.iter().zip(pts.iter()).enumerate() {
        let (vbe, ic) = (p.vbe_a.value(), p.ic_a.value());
        if t.is_finite() && t > 0.0 && vbe.is_finite() && ic.is_finite() && ic > 0.0 {
            pool.t.push(t);
            pool.vbe.push(vbe);
            pool.ic.push(ic);
            match i {
                0 => {
                    pool.cold_sum += t;
                    pool.cold_n += 1;
                }
                2 => {
                    pool.hot_sum += t;
                    pool.hot_n += 1;
                }
                _ => {
                    if pool.reference.is_none() {
                        pool.reference = Some((t, ic, vbe));
                    }
                }
            }
        }
    }
}

/// Borrowed view over the scratch's pooled-sample buffers plus the small
/// per-corner accumulators of the robust recovery.
struct RecoveryPool<'a> {
    t: &'a mut Vec<f64>,
    vbe: &'a mut Vec<f64>,
    ic: &'a mut Vec<f64>,
    /// `(t_ref, ic_ref, vbe_ref guess)` from the first usable reference.
    reference: Option<(f64, f64, f64)>,
    cold_sum: f64,
    cold_n: u32,
    hot_sum: f64,
    hot_n: u32,
}

/// The pooled robust IRLS fit over every attempt's samples. Returns a
/// passing outcome or `None` when the fit fails, blows up, or stays out
/// of window.
#[allow(clippy::too_many_arguments)]
fn robust_recovery(
    spec: &CampaignSpec,
    pool: &RecoveryPool<'_>,
    ws: &mut RobustWorkspace,
    trace: &mut TraceBuf,
    true_cold: f64,
    true_hot: f64,
    attempts: u32,
    first_error: Option<FailureKind>,
) -> Option<CornerOutcome> {
    let (t_ref, ic_ref, vbe_guess) = pool.reference?;
    // Three parameters need slack to reject outliers: below four pooled
    // samples the fit is a tautology, not a recovery.
    if pool.t.len() < 4 {
        return None;
    }
    let model = Eq13PointModel::new(pool.t, pool.vbe, pool.ic, t_ref, ic_ref).ok()?;
    let options = RobustOptions {
        loss: RobustLoss::Tukey,
        ..RobustOptions::default()
    };
    let mut p = [1.16, 3.0, vbe_guess];
    let fit = fit_robust_traced(&model, &mut p, &options, ws, trace).ok()?;
    let (eg, xti) = (p[0], p[1]);
    if !eg.is_finite() || !xti.is_finite() {
        return None;
    }
    let bin = classify(&spec.window, eg, xti);
    if bin != YieldBin::Pass {
        return None;
    }
    // Unweighted RMS over the inlier residuals, the robust analogue of
    // the analytic fit's residual figure.
    let mut ss = 0.0;
    let mut n = 0u32;
    for (&r, &out) in ws.residuals().iter().zip(ws.outlier_flags()) {
        if !out && r.is_finite() {
            ss += r * r;
            n += 1;
        }
    }
    let rms = if n > 0 {
        (ss / f64::from(n)).sqrt()
    } else {
        fit.scale
    };
    let t_cold_k = if pool.cold_n > 0 {
        pool.cold_sum / f64::from(pool.cold_n)
    } else {
        f64::NAN
    };
    let t_hot_k = if pool.hot_n > 0 {
        pool.hot_sum / f64::from(pool.hot_n)
    } else {
        f64::NAN
    };
    Some(CornerOutcome {
        bin,
        values: Some(CornerValues {
            eg_ev: eg,
            xti,
            rms_residual_v: rms,
            t_cold_k,
            t_hot_k,
            t_cold_err_k: t_cold_k - true_cold,
            t_hot_err_k: t_hot_k - true_hot,
        }),
        failure: None,
        attempts,
        recovered_from: Some(first_error.unwrap_or(FailureKind::OutlierRejected)),
        robust_recovery: true,
        outliers_rejected: u32::try_from(fit.outliers).unwrap_or(u32::MAX),
    })
}

/// The attempt loop over one pristine measurement: corrupt, extract,
/// retry, then fall back to the pooled robust fit.
fn corner_recovery(
    spec: &CampaignSpec,
    site: DieSite,
    corner_idx: usize,
    scratch: &mut DieScratch,
) -> CornerOutcome {
    let inject = !spec.faults.is_none();
    let budget = if inject { 1 + spec.retry_budget } else { 1 };
    let pooling = inject && spec.robust;
    scratch.pool_t.clear();
    scratch.pool_vbe.clear();
    scratch.pool_ic.clear();
    let mut pool = RecoveryPool {
        t: &mut scratch.pool_t,
        vbe: &mut scratch.pool_vbe,
        ic: &mut scratch.pool_ic,
        reference: None,
        cold_sum: 0.0,
        cold_n: 0,
        hot_sum: 0.0,
        hot_n: 0,
    };
    // Ground truth for the temperature-error columns comes from the
    // pristine measurement: corruption garbles readings, not the die.
    let true_cold = scratch.pristine[0].die_temperature.value();
    let true_hot = scratch.pristine[2].die_temperature.value();

    let mut first_error: Option<FailureKind> = None;
    let mut fallback: Option<(CornerValues, Option<FailureKind>, u32)> = None;
    let mut attempts = 0u32;

    for attempt in 0..budget {
        attempts = attempt + 1;
        scratch.points.clear();
        scratch.points.extend_from_slice(&scratch.pristine);
        if inject {
            let seed = stream_seed(
                spec.seed,
                site.index as u64,
                Stream::Faults {
                    corner: corner_idx as u32,
                    attempt,
                },
            );
            FaultPlan::new(spec.faults, seed).apply(&mut scratch.points);
        }
        scratch.bench.solve.trace.set_attempt(attempt as i32);
        let attempt_span = scratch.bench.solve.trace.span(SpanKind::Attempt);
        let result = attempt_extract(&scratch.points);
        scratch
            .bench
            .solve
            .trace
            .span_end_with(attempt_span, u64::from(result.is_ok()), 0);
        match result {
            Ok(v) => {
                let bin = classify(&spec.window, v.eg_ev, v.xti);
                if bin == YieldBin::Pass {
                    scratch.bench.solve.trace.set_attempt(-1);
                    return CornerOutcome {
                        bin,
                        values: Some(v),
                        failure: None,
                        attempts,
                        recovered_from: first_error,
                        robust_recovery: false,
                        outliers_rejected: 0,
                    };
                }
                if fallback.is_none() {
                    fallback = Some((v, first_error, attempts));
                }
            }
            Err(kind) => {
                if first_error.is_none() {
                    first_error = Some(kind);
                }
            }
        }
        if pooling {
            pool_attempt(&scratch.points, &mut pool);
        }
    }
    scratch.bench.solve.trace.set_attempt(-1);

    let mut robust_ran = false;
    if pooling {
        robust_ran = pool.reference.is_some() && pool.t.len() >= 4;
        if let Some(out) = robust_recovery(
            spec,
            &pool,
            &mut scratch.robust,
            &mut scratch.bench.solve.trace,
            true_cold,
            true_hot,
            attempts,
            first_error,
        ) {
            return out;
        }
    }
    if let Some((v, recovered_from, _)) = fallback {
        return CornerOutcome {
            bin: classify(&spec.window, v.eg_ev, v.xti),
            values: Some(v),
            failure: None,
            attempts,
            recovered_from,
            robust_recovery: false,
            outliers_rejected: 0,
        };
    }
    // Every attempt hard-failed. If the robust fit got to examine the
    // pooled data and still rejected it, that verdict supersedes the
    // first raw symptom.
    let kind = if robust_ran {
        FailureKind::OutlierRejected
    } else {
        first_error.unwrap_or(FailureKind::Degenerate)
    };
    CornerOutcome::quarantined(kind, attempts)
}

fn run_corner(
    spec: &CampaignSpec,
    sample: &DieSample,
    site: DieSite,
    corner_idx: usize,
    setpoints: &[Celsius],
    scratch: &mut DieScratch,
) -> CornerOutcome {
    let bench_seed = stream_seed(
        spec.seed,
        site.index as u64,
        Stream::Bench(corner_idx as u32),
    );
    let mut bench = make_bench(spec.bench, bench_seed);

    scratch.bench.solve.trace.set_corner(corner_idx as i32);
    let corner_span = scratch.bench.solve.trace.span(SpanKind::Corner);
    let measure = scratch.bench.solve.trace.stage(SpanKind::Measure);
    let measured = bench.run_pair_campaign_with(
        sample,
        spec.corners[corner_idx].ic,
        setpoints,
        &mut scratch.bench,
        &mut scratch.pristine,
        SolveMode,
    );
    scratch.bench.solve.trace.stage_end(measure);
    if measured.is_err() {
        scratch.bench.solve.trace.span_end(corner_span);
        scratch.bench.solve.trace.set_corner(-1);
        // The circuit never converged; there is nothing to corrupt or
        // retry (the bench is deterministic per corner).
        return CornerOutcome::quarantined(FailureKind::NonConvergence, 1);
    }

    let extract_stage = scratch.bench.solve.trace.stage(SpanKind::Extract);
    let out = corner_recovery(spec, site, corner_idx, scratch);
    scratch.bench.solve.trace.stage_end(extract_stage);
    scratch.bench.solve.trace.span_end(corner_span);
    scratch.bench.solve.trace.set_corner(-1);
    out
}

/// Runs the full pipeline of one die. Infallible by design: failures are
/// binned, not raised, because a wafer campaign must outlive bad dies.
///
/// Convenience wrapper over [`run_die_with`] with a private scratch; both
/// are pure functions of `(spec, site)` and produce identical outcomes.
#[must_use]
pub fn run_die(spec: &CampaignSpec, site: DieSite) -> DieOutcome {
    run_die_with(spec, site, &spec.plan.setpoints(), &mut DieScratch::new())
}

/// [`run_die`] for the worker hot path: the caller hoists the setpoint
/// list (computed once per campaign, not once per corner) and owns the
/// scratch that carries solver buffers and counters across dies.
#[must_use]
pub fn run_die_with(
    spec: &CampaignSpec,
    site: DieSite,
    setpoints: &[Celsius],
    scratch: &mut DieScratch,
) -> DieOutcome {
    scratch.bench.solve.trace.begin_die(site.index as u32);

    let sample_stage = scratch.bench.solve.trace.stage(SpanKind::Sample);
    let process_seed = stream_seed(spec.seed, site.index as u64, Stream::Process);
    let sample = SampleFactory::seeded(process_seed)
        .with_spec(spec.variation)
        .draw(site.index + 1);
    scratch.bench.solve.trace.stage_end(sample_stage);

    // Containment watchdog: snapshot the cumulative Newton-iteration
    // counter at die start and re-check after every corner; the wall
    // clock only ticks when a wall budget is armed. A corner that is
    // *started* always runs to completion — the budget retires only the
    // corners after the overrun, so the iteration verdict is a pure
    // function of `(spec, die)` and stays thread-count independent.
    let budget = scratch.budget;
    let newton_start = scratch.bench.solve.stats.newton_iterations;
    let wall_start = (budget.max_wall_ms > 0).then(std::time::Instant::now);

    let mut corners = Vec::with_capacity(spec.corners.len());
    let mut exhausted = false;
    let mut skip_rest = false;
    for k in 0..spec.corners.len() {
        // Budget exhaustion outranks adaptive skipping: a die that blew
        // its containment budget is quarantined, not quietly skipped.
        if exhausted {
            corners.push(CornerOutcome::quarantined(FailureKind::BudgetExhausted, 0));
            continue;
        }
        if skip_rest {
            corners.push(CornerOutcome::skipped());
            continue;
        }
        corners.push(run_corner(spec, &sample, site, k, setpoints, scratch));
        if spec.adaptive && k == 0 {
            skip_rest = !corners[0].flags_escalation();
        }
        if budget.max_newton_iterations > 0 {
            let spent = scratch
                .bench
                .solve
                .stats
                .newton_iterations
                .wrapping_sub(newton_start);
            exhausted |= spent >= budget.max_newton_iterations;
        }
        if let Some(t0) = wall_start {
            exhausted |= t0.elapsed().as_millis() as u64 >= budget.max_wall_ms;
        }
    }

    // One timing source of truth: the coarse DieTiming totals come from
    // the same stage-span accumulators the trace exports, and they
    // *accumulate* across corners by construction (see `DieTiming`).
    let (stage_ns, spans) = scratch.bench.solve.trace.end_die();
    DieOutcome {
        index: site.index,
        row: site.row,
        col: site.col,
        corners,
        timing: DieTiming {
            sample_ns: stage_ns[0],
            measure_ns: stage_ns[1],
            extract_ns: stage_ns[2],
        },
        spans,
    }
}

/// The outcome recorded for a die whose pipeline panicked: every corner
/// retired as [`FailureKind::InternalPanic`], zero timing, no spans.
///
/// Used by the worker's unwind guard — the die's scratch is poisoned
/// mid-flight when a panic escapes, so nothing measured survives; the
/// campaign records the containment instead of dying with the die.
#[must_use]
pub fn contained_panic_outcome(spec: &CampaignSpec, site: DieSite) -> DieOutcome {
    DieOutcome {
        index: site.index,
        row: site.row,
        col: site.col,
        corners: (0..spec.corners.len())
            .map(|_| CornerOutcome::quarantined(FailureKind::InternalPanic, 0))
            .collect(),
        timing: DieTiming::default(),
        spans: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WaferMap;
    use icvbe_instrument::faults::FaultSpec;

    fn small_spec() -> CampaignSpec {
        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 77);
        s.corners.truncate(1);
        s
    }

    #[test]
    fn run_die_is_deterministic() {
        let spec = small_spec();
        let site = spec.wafer.sites()[1];
        let a = run_die(&spec, site);
        let b = run_die(&spec, site);
        assert_eq!(a.corners, b.corners);
        assert_eq!(a.index, 1);
    }

    #[test]
    fn healthy_die_passes_window() {
        let spec = small_spec();
        let out = run_die(&spec, spec.wafer.sites()[0]);
        let c = &out.corners[0];
        assert_eq!(c.bin, YieldBin::Pass, "healthy die binned {:?}", c.bin);
        assert_eq!(c.failure, None);
        assert_eq!(c.attempts, 1, "faults off must mean exactly one attempt");
        assert_eq!(c.recovered_from, None);
        assert!(!c.robust_recovery);
        let v = c.values.unwrap();
        assert!(v.eg_ev > 1.05 && v.eg_ev < 1.25, "EG {}", v.eg_ev);
        // Computed die temperatures land near the plan's -25/+75 °C, plus
        // self-heating of some tens of kelvin.
        assert!(
            v.t_cold_k > 230.0 && v.t_cold_k < 310.0,
            "T1 {}",
            v.t_cold_k
        );
        assert!(v.t_hot_k > 330.0 && v.t_hot_k < 410.0, "T3 {}", v.t_hot_k);
        // The computed temperatures are referenced to the chamber sensor
        // at the reference setpoint, so they sit below the true (self-
        // heated) die temperature by roughly the reference self-heating
        // (~15 K on the paper bench) — bounded, not zero.
        assert!(
            v.t_cold_err_k < 0.0 && v.t_cold_err_k > -25.0,
            "cold err {}",
            v.t_cold_err_k
        );
        assert!(
            v.t_hot_err_k < 0.0 && v.t_hot_err_k > -25.0,
            "hot err {}",
            v.t_hot_err_k
        );
    }

    #[test]
    fn scratch_reuse_does_not_change_outcomes() {
        let spec = small_spec();
        let setpoints = spec.plan.setpoints();
        let mut scratch = DieScratch::new();
        // Drive several dies through ONE scratch; each must match a run
        // with a fresh scratch bit for bit.
        for site in spec.wafer.sites() {
            let reused = run_die_with(&spec, site, &setpoints, &mut scratch);
            let fresh = run_die(&spec, site);
            assert_eq!(reused.corners, fresh.corners, "die {}", site.index);
        }
    }

    #[test]
    fn classification_covers_every_edge() {
        let w = SpecWindow {
            eg_min: 1.0,
            eg_max: 1.2,
            xti_min: 1.0,
            xti_max: 4.0,
        };
        assert_eq!(classify(&w, 1.1, 2.0), YieldBin::Pass);
        assert_eq!(classify(&w, 0.9, 2.0), YieldBin::EgLow);
        assert_eq!(classify(&w, 1.3, 2.0), YieldBin::EgHigh);
        assert_eq!(classify(&w, 1.1, 0.5), YieldBin::XtiLow);
        assert_eq!(classify(&w, 1.1, 4.5), YieldBin::XtiHigh);
    }

    #[test]
    fn corners_see_independent_bench_noise() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(1, 1), 5);
        // Two corners at the SAME bias: identical physics, different
        // bench streams -> different noise realizations.
        spec.corners.truncate(2);
        spec.corners[1].ic = spec.corners[0].ic;
        let out = run_die(&spec, spec.wafer.sites()[0]);
        let a = out.corners[0].values.unwrap();
        let b = out.corners[1].values.unwrap();
        assert_ne!(a.eg_ev, b.eg_ev);
    }

    #[test]
    fn faulted_die_is_deterministic_and_consistent() {
        let mut spec = small_spec();
        spec.faults = FaultSpec::heavy();
        for site in spec.wafer.sites() {
            let a = run_die(&spec, site);
            let b = run_die(&spec, site);
            assert_eq!(a.corners, b.corners, "die {}", site.index);
            for c in &a.corners {
                assert_eq!(c.failure.is_some(), c.bin == YieldBin::SolveFail);
                assert_eq!(c.values.is_some(), c.bin != YieldBin::SolveFail);
                assert!(c.attempts >= 1 && c.attempts <= 1 + spec.retry_budget);
            }
        }
    }

    #[test]
    fn certain_drop_quarantines_as_insufficient_points() {
        let mut spec = small_spec();
        spec.faults = FaultSpec {
            drop_probability: 1.0,
            ..FaultSpec::none()
        };
        spec.robust = false;
        let out = run_die(&spec, spec.wafer.sites()[0]);
        let c = &out.corners[0];
        assert_eq!(c.bin, YieldBin::SolveFail);
        assert_eq!(c.failure, Some(FailureKind::InsufficientPoints));
        assert_eq!(c.attempts, 1 + spec.retry_budget);
    }

    #[test]
    fn certain_stuck_quarantines_as_degenerate() {
        let mut spec = small_spec();
        spec.faults = FaultSpec {
            stuck_probability: 1.0,
            ..FaultSpec::none()
        };
        spec.robust = false;
        let out = run_die(&spec, spec.wafer.sites()[0]);
        let c = &out.corners[0];
        assert_eq!(c.bin, YieldBin::SolveFail);
        assert_eq!(c.failure, Some(FailureKind::Degenerate));
    }

    #[test]
    fn certain_nan_quarantines_as_non_finite_input() {
        let mut spec = small_spec();
        spec.faults = FaultSpec {
            nan_probability: 1.0,
            ..FaultSpec::none()
        };
        spec.robust = false;
        let out = run_die(&spec, spec.wafer.sites()[0]);
        let c = &out.corners[0];
        assert_eq!(c.bin, YieldBin::SolveFail);
        assert_eq!(c.failure, Some(FailureKind::NonFiniteInput));
    }

    #[test]
    fn retry_recovers_an_intermittent_drop() {
        // Moderate drop rate: the first realization may kill a point, a
        // retry usually survives. Across 4 dies at this rate at least one
        // corner must record a successful retry.
        let mut spec = small_spec();
        spec.faults = FaultSpec {
            drop_probability: 0.4,
            ..FaultSpec::none()
        };
        spec.retry_budget = 8;
        spec.robust = false;
        let mut recovered = 0u32;
        for site in spec.wafer.sites() {
            let out = run_die(&spec, site);
            let c = &out.corners[0];
            if c.recovered_from == Some(FailureKind::InsufficientPoints)
                && c.bin != YieldBin::SolveFail
            {
                recovered += 1;
                assert!(c.attempts > 1);
            }
        }
        assert!(recovered > 0, "no corner recovered via retry");
    }

    #[test]
    fn adaptive_clean_die_skips_trailing_corners_and_keeps_probe_bits() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 77);
        spec.adaptive = true;
        let mut exhaustive = spec.clone();
        exhaustive.adaptive = false;
        for site in spec.wafer.sites() {
            let a = run_die(&spec, site);
            let e = run_die(&exhaustive, site);
            assert!(
                !a.corners[0].flags_escalation(),
                "die {} not clean",
                site.index
            );
            // Probe corner bit-identical to the exhaustive run's corner 0.
            assert_eq!(a.corners[0], e.corners[0], "die {}", site.index);
            for (k, c) in a.corners.iter().enumerate().skip(1) {
                assert_eq!(c.bin, YieldBin::Skipped, "die {} corner {k}", site.index);
                assert_eq!(c.values, None);
                assert_eq!(c.failure, None);
                assert_eq!(c.attempts, 0);
            }
        }
    }

    #[test]
    fn adaptive_flagged_die_escalates_to_the_full_plan() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 77);
        spec.faults = FaultSpec::heavy();
        spec.adaptive = true;
        let mut exhaustive = spec.clone();
        exhaustive.adaptive = false;
        let mut escalated = 0u32;
        for site in spec.wafer.sites() {
            let a = run_die(&spec, site);
            let e = run_die(&exhaustive, site);
            if a.corners[0].flags_escalation() {
                escalated += 1;
                // Escalated dies run everything: bit-identical to the
                // exhaustive schedule, no Skipped bins anywhere.
                assert_eq!(a.corners, e.corners, "die {}", site.index);
                assert!(a.corners.iter().all(|c| c.bin != YieldBin::Skipped));
            }
        }
        assert!(escalated > 0, "heavy faults flagged no probe corner");
    }

    #[test]
    fn budget_exhaustion_outranks_adaptive_skipping() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(1, 1), 77);
        spec.adaptive = true;
        let setpoints = spec.plan.setpoints();
        let mut scratch = DieScratch::new();
        scratch.budget.max_newton_iterations = 1; // exhausted after the probe
        let out = run_die_with(&spec, spec.wafer.sites()[0], &setpoints, &mut scratch);
        for c in &out.corners[1..] {
            assert_eq!(c.failure, Some(FailureKind::BudgetExhausted));
            assert_ne!(c.bin, YieldBin::Skipped);
        }
    }

    #[test]
    fn zero_fault_spec_matches_the_unfaulted_pipeline_bitwise() {
        let spec = small_spec();
        let mut explicit = spec.clone();
        explicit.faults = FaultSpec::none();
        explicit.retry_budget = 10; // irrelevant with faults off
        for site in spec.wafer.sites() {
            assert_eq!(
                run_die(&spec, site).corners,
                run_die(&explicit, site).corners
            );
        }
    }
}
