//! Damped multivariate Newton-Raphson.
//!
//! This is the outer loop of the SPICE DC operating-point solver: the
//! circuit provides residual `f(x)` and Jacobian `J(x)`; this module solves
//! `f(x) = 0` with step damping and divergence detection.
//!
//! Two entry points share one implementation:
//!
//! - [`solve_newton`] — the convenient form: allocates its own scratch and
//!   returns an owned [`NewtonSolution`].
//! - [`solve_newton_with`] — the hot-path form: every buffer (residual,
//!   Jacobian, LU storage, trial/line-search vectors) lives in a caller-owned
//!   [`NewtonWorkspace`], so steady-state iterations perform **zero** heap
//!   allocations. Campaign workloads run thousands of structurally identical
//!   solves; reusing the workspace removes the dominant allocator traffic.

use crate::lu::LuFactors;
use crate::{Matrix, NumericsError};

/// Options controlling the multivariate Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Convergence threshold on the residual infinity norm.
    pub residual_tolerance: f64,
    /// Convergence threshold on the update infinity norm.
    pub step_tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Maximum infinity-norm of a single Newton update; larger proposed
    /// steps are scaled down (crucial for exponential device equations).
    pub max_step: f64,
    /// After convergence, keep taking full (undamped) Newton steps until
    /// the iterate is **bitwise stationary** — `x + dx` rounds back to `x`
    /// — or a two-cycle on the last-ulp grid is detected. This drives the
    /// result past the damped phase's residual test to the last-ulp
    /// neighbourhood of the root. Costs one to three extra iterations; off
    /// by default.
    pub polish: bool,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            residual_tolerance: 1e-12,
            step_tolerance: 1e-12,
            max_iterations: 200,
            max_step: 1.0e9,
            polish: false,
        }
    }
}

/// A system of nonlinear equations `f(x) = 0` with an explicit Jacobian.
pub trait NonlinearSystem {
    /// Number of unknowns (and equations).
    fn dimension(&self) -> usize;

    /// Evaluates the residual into `out` (length [`Self::dimension`]).
    ///
    /// # Errors
    ///
    /// Implementations may fail on unphysical iterates.
    fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError>;

    /// Evaluates the Jacobian `df_i/dx_j`.
    ///
    /// # Errors
    ///
    /// Implementations may fail on unphysical iterates.
    fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError>;
}

/// Outcome of a converged Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final residual infinity norm.
    pub residual_norm: f64,
}

/// Outcome of a workspace solve: the solution stays in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonInfo {
    /// Iterations used by the damped phase.
    pub iterations: usize,
    /// Extra full-step iterations used by the polish phase.
    pub polish_iterations: usize,
    /// 1 when the polish ran its full 16-iteration cap without reaching a
    /// fixed point or two-cycle (the iterate it reached is kept), else 0.
    pub polish_cap_hits: usize,
    /// Final residual infinity norm (of the damped phase; the polish phase
    /// can only move the iterate within the last-ulp neighbourhood).
    pub residual_norm: f64,
}

impl NewtonInfo {
    /// The outcome of a damped phase accepted after `iterations` at
    /// `residual_norm`, before any polish.
    fn damped(iterations: usize, residual_norm: f64) -> Self {
        NewtonInfo {
            iterations,
            polish_iterations: 0,
            polish_cap_hits: 0,
            residual_norm,
        }
    }
}

/// Reusable scratch for [`solve_newton_with`]: residual/trial vectors, the
/// Jacobian, and the LU factorization storage.
///
/// Buffers are sized lazily on first use and only grow; a workspace sized
/// for the largest system in a sweep never allocates again.
#[derive(Debug, Clone, Default)]
pub struct NewtonWorkspace {
    f: Vec<f64>,
    f_trial: Vec<f64>,
    trial: Vec<f64>,
    dx: Vec<f64>,
    neg_f: Vec<f64>,
    prev: Vec<f64>,
    jac: Option<Matrix>,
    lu: LuFactors,
}

impl NewtonWorkspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        NewtonWorkspace::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.f.len() != n {
            self.f.resize(n, 0.0);
            self.f_trial.resize(n, 0.0);
            self.trial.resize(n, 0.0);
            self.dx.resize(n, 0.0);
            self.neg_f.resize(n, 0.0);
            self.prev.resize(n, 0.0);
        }
        let fresh = !matches!(&self.jac, Some(j) if j.rows() == n && j.cols() == n);
        if fresh {
            self.jac = Some(Matrix::zeros(n, n));
        }
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// Solves `f(x) = 0` by damped Newton from the initial guess `x0`.
///
/// Each iteration solves `J dx = -f` by LU and line-searches the damping
/// factor (halving up to 20 times) until the residual norm decreases.
///
/// # Errors
///
/// - Propagates residual/Jacobian/LU failures.
/// - [`NumericsError::NoConvergence`] when the budget is exhausted or the
///   line search stagnates.
pub fn solve_newton(
    system: &impl NonlinearSystem,
    x0: &[f64],
    options: NewtonOptions,
) -> Result<NewtonSolution, NumericsError> {
    let mut ws = NewtonWorkspace::new();
    let mut x = x0.to_vec();
    let info = solve_newton_with(system, &mut x, options, &mut ws)?;
    Ok(NewtonSolution {
        x,
        iterations: info.iterations,
        residual_norm: info.residual_norm,
    })
}

/// [`solve_newton`] with caller-owned scratch and an in/out solution
/// buffer: `x` holds the initial guess on entry and the solution on a
/// successful return. Steady-state calls allocate nothing.
///
/// # Errors
///
/// Same contract as [`solve_newton`]; additionally rejects an `x` whose
/// length differs from the system dimension.
pub fn solve_newton_with(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    options: NewtonOptions,
    ws: &mut NewtonWorkspace,
) -> Result<NewtonInfo, NumericsError> {
    let n = system.dimension();
    if x.len() != n {
        return Err(NumericsError::dims(format!(
            "newton: system dimension {n}, initial guess {}",
            x.len()
        )));
    }
    ws.ensure(n);
    let mut info = newton_damped(system, x, options, ws)?;
    if options.polish {
        info.polish_iterations = polish_to_fixed_point(system, x, ws, &mut info);
    }
    Ok(info)
}

/// [`solve_newton_with`] bracketed by an [`icvbe_trace::SpanKind::Newton`]
/// span on `trace`; the end record carries the damped and polish iteration
/// counts as its payload. With a disabled buffer this is a plain
/// delegation — no clock read, no record.
///
/// # Errors
///
/// Same contract as [`solve_newton_with`].
pub fn solve_newton_traced(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    options: NewtonOptions,
    ws: &mut NewtonWorkspace,
    trace: &mut icvbe_trace::TraceBuf,
) -> Result<NewtonInfo, NumericsError> {
    let span = trace.span(icvbe_trace::SpanKind::Newton);
    let result = solve_newton_with(system, x, options, ws);
    match &result {
        Ok(info) => {
            trace.span_end_with(span, info.iterations as u64, info.polish_iterations as u64)
        }
        Err(_) => trace.span_end(span),
    }
    result
}

/// The damped phase: bitwise identical to the historical `solve_newton`
/// algorithm, with every temporary drawn from the workspace.
fn newton_damped(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    options: NewtonOptions,
    ws: &mut NewtonWorkspace,
) -> Result<NewtonInfo, NumericsError> {
    let n = x.len();
    let Some(jac) = ws.jac.as_mut() else {
        return Err(NumericsError::invalid(
            "newton workspace jacobian not sized",
        ));
    };
    system.residual(x, &mut ws.f)?;
    let mut fnorm = inf_norm(&ws.f);

    for iter in 0..options.max_iterations {
        if fnorm <= options.residual_tolerance {
            return Ok(NewtonInfo::damped(iter, fnorm));
        }
        system.jacobian(x, jac)?;
        ws.lu.factor_from(jac)?;
        for i in 0..n {
            ws.neg_f[i] = -ws.f[i];
        }
        ws.lu.solve_into(&ws.neg_f, &mut ws.dx)?;

        // Clamp very large steps before the line search sees them.
        let dx_norm = inf_norm(&ws.dx);
        if dx_norm > options.max_step {
            let scale = options.max_step / dx_norm;
            for d in &mut ws.dx {
                *d *= scale;
            }
        }

        let mut damping = 1.0;
        let mut advanced = false;
        for _ in 0..20 {
            for i in 0..n {
                ws.trial[i] = x[i] + damping * ws.dx[i];
            }
            if system.residual(&ws.trial, &mut ws.f_trial).is_ok() {
                let t_norm = inf_norm(&ws.f_trial);
                if t_norm.is_finite() && (t_norm < fnorm || t_norm <= options.residual_tolerance) {
                    x.copy_from_slice(&ws.trial);
                    ws.f.copy_from_slice(&ws.f_trial);
                    fnorm = t_norm;
                    advanced = true;
                    break;
                }
            }
            damping *= 0.5;
        }
        if !advanced {
            // Accept the most damped step if it still moves the iterate; a
            // locally increasing residual can still escape a bad region.
            for i in 0..n {
                ws.trial[i] = x[i] + damping * ws.dx[i];
            }
            if ws.trial == x {
                return Err(NumericsError::NoConvergence {
                    iterations: iter,
                    residual: fnorm,
                });
            }
            system.residual(&ws.trial, &mut ws.f_trial)?;
            let t_norm = inf_norm(&ws.f_trial);
            if !t_norm.is_finite() {
                return Err(NumericsError::NoConvergence {
                    iterations: iter,
                    residual: fnorm,
                });
            }
            x.copy_from_slice(&ws.trial);
            ws.f.copy_from_slice(&ws.f_trial);
            fnorm = t_norm;
        }
        if inf_norm(&ws.dx) * damping <= options.step_tolerance
            && fnorm <= options.residual_tolerance.max(1e-9)
        {
            return Ok(NewtonInfo::damped(iter + 1, fnorm));
        }
    }
    Err(NumericsError::NoConvergence {
        iterations: options.max_iterations,
        residual: fnorm,
    })
}

/// Cap on polish iterations; quadratic convergence reaches the last-ulp
/// grid in two or three steps, the rest is headroom.
const POLISH_MAX: usize = 16;

/// Drives a converged iterate to a terminal point of the floating-point
/// Newton map `x ↦ fl(x - J(x)⁻¹ f(x))`.
///
/// Near a simple root the rounded map collapses onto a tiny terminal set:
/// an attracting fixed point or an adjacent-ulp two-cycle. The polish
/// takes full steps until the iterate is bitwise stationary, or until it
/// revisits the point before last and returns the cycle member with the
/// smaller residual. Where the rounding leaves several terminal points
/// side by side, which one is reached depends on the start; every pair
/// measurement starts at its closed-form diode point, a function of the
/// solve's own inputs, so the pick is too. Failures (singular Jacobian,
/// non-finite residual) end the polish and keep the already-converged
/// iterate; the cap bounds the cost.
///
/// Returns the iterations spent and books a cap hit in `info`.
fn polish_to_fixed_point(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    ws: &mut NewtonWorkspace,
    info: &mut NewtonInfo,
) -> usize {
    let n = x.len();
    if ws.jac.is_none() {
        return 0;
    }
    if system.residual(x, &mut ws.f).is_err() {
        return 0;
    }
    let fnorm = inf_norm(&ws.f);
    if !fnorm.is_finite() {
        return 0;
    }
    let mut have_prev = false;
    for iter in 0..POLISH_MAX {
        let map_ok = {
            let Some(jac) = ws.jac.as_mut() else {
                return iter;
            };
            system.jacobian(x, jac).is_ok() && ws.lu.factor_from(jac).is_ok() && {
                for i in 0..n {
                    ws.neg_f[i] = -ws.f[i];
                }
                ws.lu.solve_into(&ws.neg_f, &mut ws.dx).is_ok()
            }
        };
        if !map_ok {
            return iter;
        }
        for i in 0..n {
            ws.trial[i] = x[i] + ws.dx[i];
        }
        if ws.trial[..] == *x {
            // Bitwise stationary.
            return iter;
        }
        if system.residual(&ws.trial, &mut ws.f_trial).is_err() {
            return iter;
        }
        let t_norm = inf_norm(&ws.f_trial);
        if !t_norm.is_finite() {
            return iter;
        }
        if have_prev && ws.trial == ws.prev {
            // Two-cycle {x, trial}: keep the member with the smaller
            // residual, x on a tie.
            if t_norm < inf_norm(&ws.f) {
                x.copy_from_slice(&ws.trial);
            }
            return iter + 1;
        }
        ws.prev.copy_from_slice(x);
        have_prev = true;
        x.copy_from_slice(&ws.trial);
        ws.f.copy_from_slice(&ws.f_trial);
    }
    info.polish_cap_hits = 1;
    POLISH_MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x^2 + y^2 = 4, x - y = 0  =>  x = y = sqrt(2).
    struct Circle;

    impl NonlinearSystem for Circle {
        fn dimension(&self) -> usize {
            2
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            out[0] = x[0] * x[0] + x[1] * x[1] - 4.0;
            out[1] = x[0] - x[1];
            Ok(())
        }
        fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            out[(0, 0)] = 2.0 * x[0];
            out[(0, 1)] = 2.0 * x[1];
            out[(1, 0)] = 1.0;
            out[(1, 1)] = -1.0;
            Ok(())
        }
    }

    #[test]
    fn solves_circle_intersection() {
        let sol = solve_newton(&Circle, &[1.0, 0.5], NewtonOptions::default()).unwrap();
        assert!((sol.x[0] - std::f64::consts::SQRT_2).abs() < 1e-10);
        assert!((sol.x[1] - std::f64::consts::SQRT_2).abs() < 1e-10);
        assert!(sol.residual_norm <= 1e-12);
    }

    /// Stiff exponential resembling a diode: f(v) = 1e-14 (e^{v/.026}-1) - 1e-3.
    struct Diode;

    impl NonlinearSystem for Diode {
        fn dimension(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            out[0] = 1e-14 * ((x[0] / 0.026).exp() - 1.0) - 1e-3;
            Ok(())
        }
        fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            out[(0, 0)] = 1e-14 / 0.026 * (x[0] / 0.026).exp();
            Ok(())
        }
    }

    #[test]
    fn damping_handles_stiff_exponential() {
        let opts = NewtonOptions {
            residual_tolerance: 1e-15,
            ..NewtonOptions::default()
        };
        let sol = solve_newton(&Diode, &[0.8], opts).unwrap();
        let expected = 0.026 * (1e-3_f64 / 1e-14 + 1.0).ln();
        assert!((sol.x[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        assert!(solve_newton(&Circle, &[1.0], NewtonOptions::default()).is_err());
    }

    #[test]
    fn already_converged_returns_zero_iterations() {
        let s = std::f64::consts::SQRT_2;
        let sol = solve_newton(&Circle, &[s, s], NewtonOptions::default()).unwrap();
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn workspace_solve_matches_owned_solve_bitwise() {
        let owned = solve_newton(&Circle, &[1.0, 0.5], NewtonOptions::default()).unwrap();
        let mut ws = NewtonWorkspace::new();
        let mut x = [1.0, 0.5];
        let info = solve_newton_with(&Circle, &mut x, NewtonOptions::default(), &mut ws).unwrap();
        assert_eq!(owned.x, x.to_vec());
        assert_eq!(owned.iterations, info.iterations);
        assert_eq!(owned.residual_norm, info.residual_norm);
    }

    #[test]
    fn workspace_is_reusable_across_systems() {
        let mut ws = NewtonWorkspace::new();
        let mut x2 = [1.0, 0.5];
        solve_newton_with(&Circle, &mut x2, NewtonOptions::default(), &mut ws).unwrap();
        // Same workspace now drives a 1-D system: buffers re-size cleanly.
        let mut x1 = [0.8];
        let opts = NewtonOptions {
            residual_tolerance: 1e-15,
            ..NewtonOptions::default()
        };
        solve_newton_with(&Diode, &mut x1, opts, &mut ws).unwrap();
        let expected = 0.026 * (1e-3_f64 / 1e-14 + 1.0).ln();
        assert!((x1[0] - expected).abs() < 1e-9);
    }

    /// One application of the rounded Newton map `fl(x - J(x)⁻¹ f(x))`.
    fn newton_step(system: &impl NonlinearSystem, x: &[f64]) -> Vec<f64> {
        let n = x.len();
        let mut f = vec![0.0; n];
        let mut jac = Matrix::zeros(n, n);
        system.residual(x, &mut f).unwrap();
        system.jacobian(x, &mut jac).unwrap();
        let neg_f: Vec<f64> = f.iter().map(|v| -v).collect();
        let dx = crate::lu::solve(&jac, &neg_f).unwrap();
        x.iter().zip(&dx).map(|(a, d)| a + d).collect()
    }

    /// Whether `x` is a fixed point or a member of a two-cycle of the
    /// rounded Newton map.
    fn is_terminal(system: &impl NonlinearSystem, x: &[f64]) -> bool {
        let once = newton_step(system, x);
        once == x || newton_step(system, &once) == x
    }

    /// Largest component distance from `x` to `root`, in ulps of the root.
    fn ulps_from(x: &[f64], root: &[f64]) -> f64 {
        x.iter()
            .zip(root)
            .map(|(a, r)| ((a - r) / (r.abs() * f64::EPSILON)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn polish_ends_on_a_terminal_point_next_to_the_root() {
        // From wildly different guesses, with a loose damped tolerance:
        // the polish must carry every solve to a fixed point or two-cycle
        // of the rounded map within two ulps of the exact root.
        let opts = NewtonOptions {
            residual_tolerance: 1e-9,
            polish: true,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new();
        let root = [std::f64::consts::SQRT_2; 2];
        for start in [[1.0, 0.5], [3.0, 2.5], [0.7, 1.9], [2.0, 0.1]] {
            let mut x = start;
            let info = solve_newton_with(&Circle, &mut x, opts, &mut ws).unwrap();
            assert_eq!(info.polish_cap_hits, 0);
            assert!(is_terminal(&Circle, &x), "{start:?} -> {x:?}");
            assert!(ulps_from(&x, &root) <= 2.0, "{start:?} -> {x:?}");
        }
    }

    #[test]
    fn polish_on_stiff_exponential_ends_next_to_the_root() {
        let opts = NewtonOptions {
            residual_tolerance: 1e-9,
            polish: true,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new();
        let root = [0.026 * (1e-3_f64 / 1e-14 + 1.0).ln()];
        for start in [0.3, 0.9] {
            let mut x = [start];
            solve_newton_with(&Diode, &mut x, opts, &mut ws).unwrap();
            assert!(is_terminal(&Diode, &x), "{start} -> {}", x[0]);
            // The closed form itself rounds `ln` and `exp`: allow a few
            // ulps between it and the solver's terminal point.
            assert!(ulps_from(&x, &root) <= 4.0, "{start} -> {}", x[0]);
        }
    }

    /// `f(x) = x - 2` with a Jacobian scaled by `slope`.
    struct Skewed {
        slope: f64,
    }

    impl NonlinearSystem for Skewed {
        fn dimension(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            out[0] = x[0] - 2.0;
            Ok(())
        }
        fn jacobian(&self, _x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            out[(0, 0)] = self.slope;
            Ok(())
        }
    }

    fn polish_options() -> NewtonOptions {
        NewtonOptions {
            polish: true,
            ..NewtonOptions::default()
        }
    }

    #[test]
    fn polish_cap_hit_is_counted() {
        // An underestimated Jacobian (J = 0.6 f') overshoots every step by
        // two thirds of the error, so the undamped polish crawls toward
        // the root and never reaches the last-ulp grid within its cap.
        let sys = Skewed { slope: 0.6 };
        let mut ws = NewtonWorkspace::new();
        let mut x = [2.5];
        let info = solve_newton_with(&sys, &mut x, polish_options(), &mut ws).unwrap();
        assert_eq!(info.polish_iterations, POLISH_MAX);
        assert_eq!(info.polish_cap_hits, 1);
        // A well-posed system polishes without touching the cap.
        let mut x = [1.0, 0.5];
        let info = solve_newton_with(&Circle, &mut x, polish_options(), &mut ws).unwrap();
        assert!(info.polish_iterations < POLISH_MAX);
        assert_eq!(info.polish_cap_hits, 0);
    }
}
