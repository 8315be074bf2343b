//! Reusable solve state: workspace, statistics, and the allocation-free
//! DC driver.
//!
//! [`crate::solver::solve_dc`] is the convenient entry point — it
//! validates the circuit, assembles the unknown layout, allocates scratch,
//! and returns an owned operating point. A campaign die pays that setup
//! thousands of times for solves that are structurally identical. This
//! module splits the invariants out:
//!
//! - [`crate::system::CircuitAssembly`] — topology validation + unknown
//!   layout, computed once per circuit;
//! - [`SolveWorkspace`] — every solver buffer (Newton trial/residual
//!   vectors, Jacobian, LU storage, strategy restart copies), reused
//!   across solves;
//! - [`solve_dc_with`] — the same continuation strategy chain as
//!   `solve_dc`, arithmetic-identical, but drawing all storage from the
//!   workspace and leaving the solution in it.
//!
//! The workspace also keeps running [`SolveStats`] so callers (the
//! campaign metrics pipeline) can observe Newton iteration counts and
//! ladder rungs without threading counters through every layer.

use icvbe_numerics::newton::{solve_newton_traced, NewtonWorkspace};
use icvbe_numerics::NumericsError;
use icvbe_trace::{SpanKind, SpanToken, TraceBuf};
use icvbe_units::Kelvin;

use crate::ladder::{SolveFailure, SolveStrategy};
use crate::netlist::Circuit;
use crate::solver::DcOptions;
use crate::stamp::EvalContext;
use crate::system::{CircuitAssembly, CircuitSystem};
use crate::SpiceError;

/// Running counters over the solves driven through one [`SolveWorkspace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// DC solves completed (successfully or not).
    pub solves: u64,
    /// Newton steps accumulated across successful strategy stages (same
    /// counting as [`crate::solver::OperatingPoint::iterations`]).
    pub newton_iterations: u64,
    /// Successful solves by the ladder rung that produced them, indexed
    /// by [`SolveStrategy::index`].
    pub ladder_success: [u64; 4],
    /// Solves that exhausted every rung of the ladder.
    pub ladder_exhausted: u64,
    /// Full device evaluations performed.
    pub device_evals: u64,
    /// Device evaluations skipped by an exact-bit cache hit.
    pub device_reuses: u64,
}

impl SolveStats {
    /// Returns the counters and resets them to zero.
    pub fn take(&mut self) -> SolveStats {
        std::mem::take(self)
    }
}

/// Per-solve outcome of [`solve_dc_with`]; the solution vector stays in
/// the workspace ([`SolveWorkspace::solution`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcSolveInfo {
    /// Newton iterations across all continuation stages.
    pub iterations: usize,
    /// The ladder rung that produced the converged solution.
    pub strategy: SolveStrategy,
}

/// Caller-owned storage for [`solve_dc_with`]: the Newton workspace plus
/// the solution and strategy-restart buffers.
///
/// Sized lazily to the largest system it has seen; steady-state solves
/// perform no heap allocation at all.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    pub(crate) newton: NewtonWorkspace,
    pub(crate) x: Vec<f64>,
    pub(crate) x0: Vec<f64>,
    /// Counters accumulated across every solve through this workspace.
    pub stats: SolveStats,
    /// Span capture for the solves driven through this workspace. Disabled
    /// by default (records nothing, reads no clock on the solver path);
    /// the campaign worker pool enables it when the run is traced.
    pub trace: TraceBuf,
}

impl SolveWorkspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        SolveWorkspace::default()
    }

    /// The solution vector left by the most recent successful
    /// [`solve_dc_with`] (node voltages then branch currents).
    #[must_use]
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    pub(crate) fn ensure(&mut self, n: usize) {
        if self.x.len() != n {
            self.x.resize(n, 0.0);
            self.x0.resize(n, 0.0);
        }
    }
}

/// Drains the assembly's per-solve stamp counters into the workspace
/// stats.
pub(crate) fn drain_effort(ws: &mut SolveWorkspace, assembly: &CircuitAssembly) {
    let effort = assembly.take_stamp_effort();
    ws.stats.device_evals += effort.device_evals;
    ws.stats.device_reuses += effort.device_reuses;
}

/// One traced Newton solve from `ws.x`; returns its iterations.
fn newton(
    system: &CircuitSystem<'_>,
    options: &DcOptions,
    ws: &mut SolveWorkspace,
) -> Result<usize, NumericsError> {
    let info = solve_newton_traced(
        system,
        &mut ws.x,
        options.newton,
        &mut ws.newton,
        &mut ws.trace,
    )?;
    Ok(info.iterations)
}

/// Books a successful solve into the stats, closes the rung and solve
/// spans, and builds the info.
pub(crate) fn rung_succeeded(
    ws: &mut SolveWorkspace,
    assembly: &CircuitAssembly,
    strategy: SolveStrategy,
    iterations: usize,
    rung: SpanToken,
    solve: SpanToken,
) -> DcSolveInfo {
    drain_effort(ws, assembly);
    ws.trace.span_end(rung);
    ws.trace.span_end_with(solve, iterations as u64, 0);
    ws.stats.newton_iterations += iterations as u64;
    ws.stats.ladder_success[strategy.index()] += 1;
    DcSolveInfo {
        iterations,
        strategy,
    }
}

/// Books an exhausted ladder into the stats, closes the solve span, and
/// wraps the failure trace.
fn ladder_exhausted(
    ws: &mut SolveWorkspace,
    assembly: &CircuitAssembly,
    iterations: usize,
    failure: SolveFailure,
    solve: SpanToken,
) -> SpiceError {
    drain_effort(ws, assembly);
    ws.trace.span_end_with(solve, iterations as u64, 0);
    ws.stats.newton_iterations += iterations as u64;
    ws.stats.ladder_exhausted += 1;
    SpiceError::LadderExhausted(failure)
}

/// [`crate::solver::solve_dc`] with caller-owned invariants and scratch.
///
/// Runs the explicit escalation ladder ([`SolveStrategy`]): warm start
/// (when a seed is provided) → cold start → gmin stepping → source
/// stepping plus gmin relaxation. For the historical entry points the
/// arithmetic is unchanged — an unseeded solve starts at the cold rung
/// exactly as the old "strategy 1" did — the ladder only *adds* a cold
/// retry between a failed warm start and gmin stepping. The circuit is
/// *not* re-validated (build the [`CircuitAssembly`] through
/// [`CircuitAssembly::new`] to validate once), nothing is allocated in
/// steady state, and the solution is left in `ws` rather than moved into
/// an owned return value. Statistics accumulate in `ws.stats`, including
/// per-rung success counters; the failure trace is only materialized on
/// the failure path, so the hot path stays allocation-free.
///
/// `assembly` must describe `circuit`; pairing an assembly with a
/// different circuit of another shape is caught by the dimension checks,
/// same shape gives garbage answers — keep them together.
///
/// # Errors
///
/// [`SpiceError::LadderExhausted`] if every rung fails, carrying one
/// [`crate::ladder::RungAttempt`] per failed rung.
pub fn solve_dc_with(
    circuit: &Circuit,
    assembly: &CircuitAssembly,
    temperature: Kelvin,
    options: &DcOptions,
    initial: Option<&[f64]>,
    ws: &mut SolveWorkspace,
) -> Result<DcSolveInfo, SpiceError> {
    let eval = EvalContext {
        temperature,
        gmin: options.gmin_floor,
        source_scale: 1.0,
    };
    let mut system = CircuitSystem::hot_path(circuit, eval, assembly);
    let n = assembly.dimension();
    ws.ensure(n);
    let seeded = matches!(initial, Some(x) if x.len() == n);
    match initial {
        Some(x) if x.len() == n => ws.x0.copy_from_slice(x),
        _ => ws.x0.fill(0.0),
    }
    ws.stats.solves += 1;

    let solve_span = ws.trace.span(SpanKind::DcSolve);
    let mut iterations = 0usize;
    let mut failure = SolveFailure::new();

    // Rung 1 — warm start: direct Newton from the caller's seed.
    if seeded {
        let rung = ws
            .trace
            .span_labeled(SpanKind::Rung, SolveStrategy::WarmStart.label());
        ws.x.copy_from_slice(&ws.x0);
        match newton(&system, options, ws) {
            Ok(iters) => {
                iterations += iters;
                return Ok(rung_succeeded(
                    ws,
                    assembly,
                    SolveStrategy::WarmStart,
                    iterations,
                    rung,
                    solve_span,
                ));
            }
            Err(e) => {
                ws.trace.span_end(rung);
                failure.record(SolveStrategy::WarmStart, iterations, e.to_string());
            }
        }
    }

    // Rung 2 — cold start: direct Newton from all zeros. When no seed was
    // provided `x0` is already zeros, so this reproduces the historical
    // "strategy 1" arithmetic exactly.
    let rung = ws
        .trace
        .span_labeled(SpanKind::Rung, SolveStrategy::ColdStart.label());
    ws.x.fill(0.0);
    match newton(&system, options, ws) {
        Ok(iters) => {
            iterations += iters;
            return Ok(rung_succeeded(
                ws,
                assembly,
                SolveStrategy::ColdStart,
                iterations,
                rung,
                solve_span,
            ));
        }
        Err(e) => {
            ws.trace.span_end(rung);
            failure.record(SolveStrategy::ColdStart, iterations, e.to_string());
        }
    }

    // Rung 3 — gmin stepping, seeded from the caller's start point as the
    // historical chain did.
    let rung = ws
        .trace
        .span_labeled(SpanKind::Rung, SolveStrategy::GminStepping.label());
    ws.x.copy_from_slice(&ws.x0);
    let mut ladder_ok = true;
    let mut gmin = options.gmin_start;
    while gmin >= options.gmin_floor.max(1e-14) {
        system.set_eval(EvalContext {
            temperature,
            gmin,
            source_scale: 1.0,
        });
        match newton(&system, options, ws) {
            Ok(iters) => iterations += iters,
            Err(e) => {
                failure.record(
                    SolveStrategy::GminStepping,
                    iterations,
                    format!("stalled at gmin {gmin:e}: {e}"),
                );
                ladder_ok = false;
                break;
            }
        }
        if gmin <= options.gmin_floor {
            break;
        }
        gmin = (gmin / 10.0).max(options.gmin_floor);
    }
    if ladder_ok {
        system.set_eval(EvalContext {
            temperature,
            gmin: options.gmin_floor,
            source_scale: 1.0,
        });
        match newton(&system, options, ws) {
            Ok(iters) => {
                iterations += iters;
                return Ok(rung_succeeded(
                    ws,
                    assembly,
                    SolveStrategy::GminStepping,
                    iterations,
                    rung,
                    solve_span,
                ));
            }
            Err(e) => failure.record(
                SolveStrategy::GminStepping,
                iterations,
                format!("final solve at the gmin floor: {e}"),
            ),
        }
    }
    ws.trace.span_end(rung);

    // Rung 4 — source stepping at a mid gmin, then relax gmin.
    let rung = ws
        .trace
        .span_labeled(SpanKind::Rung, SolveStrategy::SourceStepping.label());
    ws.x.copy_from_slice(&ws.x0);
    let steps = options.source_steps.max(2);
    for s in 1..=steps {
        let scale = s as f64 / steps as f64;
        system.set_eval(EvalContext {
            temperature,
            gmin: 1e-9,
            source_scale: scale,
        });
        match newton(&system, options, ws) {
            Ok(iters) => iterations += iters,
            Err(e) => {
                failure.record(
                    SolveStrategy::SourceStepping,
                    iterations,
                    format!("source stepping at scale {scale:.2}: {e}"),
                );
                ws.trace.span_end(rung);
                return Err(ladder_exhausted(
                    ws, assembly, iterations, failure, solve_span,
                ));
            }
        }
    }
    let mut gmin = 1e-9;
    loop {
        system.set_eval(EvalContext {
            temperature,
            gmin,
            source_scale: 1.0,
        });
        match newton(&system, options, ws) {
            Ok(iters) => iterations += iters,
            Err(e) => {
                failure.record(
                    SolveStrategy::SourceStepping,
                    iterations,
                    format!("gmin relaxation after source stepping: {e}"),
                );
                ws.trace.span_end(rung);
                return Err(ladder_exhausted(
                    ws, assembly, iterations, failure, solve_span,
                ));
            }
        }
        if gmin <= options.gmin_floor {
            break;
        }
        gmin = (gmin / 10.0).max(options.gmin_floor);
    }
    Ok(rung_succeeded(
        ws,
        assembly,
        SolveStrategy::SourceStepping,
        iterations,
        rung,
        solve_span,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bjt::{Bjt, BjtParams, Polarity};
    use crate::element::{CurrentSource, Resistor, VoltageSource};
    use crate::solver::solve_dc;
    use icvbe_units::{Ampere, Ohm, Volt};

    fn ptat_cell() -> Circuit {
        let mut c = Circuit::new();
        let va = c.node("va");
        let vb = c.node("vb");
        let gnd = Circuit::ground();
        c.add(CurrentSource::new("Ia", gnd, va, Ampere::new(1e-6)));
        c.add(CurrentSource::new("Ib", gnd, vb, Ampere::new(1e-6)));
        c.add(Bjt::new("QA", gnd, gnd, va, Polarity::Pnp, BjtParams::default_npn()).unwrap());
        c.add(
            Bjt::new("QB", gnd, gnd, vb, Polarity::Pnp, BjtParams::default_npn())
                .unwrap()
                .with_area(8.0)
                .unwrap(),
        );
        c
    }

    #[test]
    fn workspace_solve_matches_owned_solve_bitwise() {
        let c = ptat_cell();
        let t = Kelvin::new(298.15);
        let opts = DcOptions::default();
        let owned = solve_dc(&c, t, &opts, None).unwrap();

        let assembly = CircuitAssembly::new(&c).unwrap();
        let mut ws = SolveWorkspace::new();
        let info = solve_dc_with(&c, &assembly, t, &opts, None, &mut ws).unwrap();
        assert_eq!(owned.solution(), ws.solution());
        assert_eq!(owned.iterations, info.iterations);
        assert_eq!(info.strategy, SolveStrategy::ColdStart);
    }

    #[test]
    fn workspace_reuse_across_temperatures_stays_consistent() {
        let c = ptat_cell();
        let opts = DcOptions::default();
        let assembly = CircuitAssembly::new(&c).unwrap();
        let mut ws = SolveWorkspace::new();
        for t in [248.15, 298.15, 348.15] {
            let t = Kelvin::new(t);
            let owned = solve_dc(&c, t, &opts, None).unwrap();
            solve_dc_with(&c, &assembly, t, &opts, None, &mut ws).unwrap();
            assert_eq!(owned.solution(), ws.solution(), "temperature {t:?}");
        }
        assert_eq!(ws.stats.solves, 3);
        assert_eq!(ws.stats.ladder_success, [0, 3, 0, 0]);
        assert!(ws.stats.newton_iterations > 0);
    }

    #[test]
    fn seeded_solve_is_counted_and_converges_fast() {
        let c = ptat_cell();
        let t = Kelvin::new(298.15);
        let opts = DcOptions::default();
        let assembly = CircuitAssembly::new(&c).unwrap();
        let mut ws = SolveWorkspace::new();
        let cold = solve_dc_with(&c, &assembly, t, &opts, None, &mut ws).unwrap();
        let seed: Vec<f64> = ws.solution().to_vec();
        let warm = solve_dc_with(&c, &assembly, t, &opts, Some(&seed), &mut ws).unwrap();
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert_eq!(ws.stats.ladder_success, [1, 1, 0, 0]);
    }

    #[test]
    fn stats_take_resets_counters() {
        let mut stats = SolveStats {
            solves: 3,
            newton_iterations: 17,
            ladder_success: [1, 2, 0, 0],
            ladder_exhausted: 0,
            device_evals: 42,
            device_reuses: 9,
        };
        let taken = stats.take();
        assert_eq!(taken.solves, 3);
        assert_eq!(taken.ladder_success[1], 2);
        assert_eq!(stats, SolveStats::default());
    }

    #[test]
    fn ladder_rung_is_reported_and_counted() {
        let c = ptat_cell();
        let t = Kelvin::new(298.15);
        let opts = DcOptions::default();
        let assembly = CircuitAssembly::new(&c).unwrap();
        let mut ws = SolveWorkspace::new();
        let cold = solve_dc_with(&c, &assembly, t, &opts, None, &mut ws).unwrap();
        assert_eq!(cold.strategy, SolveStrategy::ColdStart);
        let seed: Vec<f64> = ws.solution().to_vec();
        let warm = solve_dc_with(&c, &assembly, t, &opts, Some(&seed), &mut ws).unwrap();
        assert_eq!(warm.strategy, SolveStrategy::WarmStart);
        assert_eq!(ws.stats.ladder_success, [1, 1, 0, 0]);
        assert_eq!(ws.stats.ladder_exhausted, 0);
    }

    #[test]
    fn exhausted_ladder_carries_a_full_strategy_trace() {
        // A degenerate bias far beyond anything the BJT model can sink
        // forces every rung to fail.
        let mut c = Circuit::new();
        let b = c.node("vbe");
        c.add(CurrentSource::new(
            "Ibias",
            Circuit::ground(),
            b,
            Ampere::new(1e30),
        ));
        c.add(
            Bjt::new(
                "Q1",
                b,
                b,
                Circuit::ground(),
                Polarity::Npn,
                BjtParams::default_npn(),
            )
            .unwrap(),
        );
        let assembly = CircuitAssembly::new(&c).unwrap();
        let mut opts = DcOptions::default();
        opts.newton.max_iterations = 20;
        opts.source_steps = 2;
        let mut ws = SolveWorkspace::new();
        let err =
            solve_dc_with(&c, &assembly, Kelvin::new(298.15), &opts, None, &mut ws).unwrap_err();
        match err {
            SpiceError::LadderExhausted(failure) => {
                let tried: Vec<SolveStrategy> = failure.trace.iter().map(|a| a.strategy).collect();
                assert!(tried.contains(&SolveStrategy::ColdStart), "{tried:?}");
                assert!(tried.contains(&SolveStrategy::SourceStepping), "{tried:?}");
                // No seed was provided, so the warm rung must not appear.
                assert!(!tried.contains(&SolveStrategy::WarmStart), "{tried:?}");
            }
            other => panic!("expected LadderExhausted, got {other:?}"),
        }
        assert_eq!(ws.stats.ladder_exhausted, 1);
    }

    #[test]
    fn linear_circuit_through_workspace_matches_exact_solution() {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "V1",
            vcc,
            Circuit::ground(),
            Volt::new(2.0),
        ));
        c.add(Resistor::new("R1", vcc, out, Ohm::new(1e3)).unwrap());
        c.add(Resistor::new("R2", out, Circuit::ground(), Ohm::new(3e3)).unwrap());
        let assembly = CircuitAssembly::new(&c).unwrap();
        let mut ws = SolveWorkspace::new();
        solve_dc_with(
            &c,
            &assembly,
            Kelvin::new(300.0),
            &DcOptions::default(),
            None,
            &mut ws,
        )
        .unwrap();
        assert!((ws.solution()[1] - 1.5).abs() < 1e-6);
    }
}
