//! Damped multivariate Newton-Raphson.
//!
//! This is the outer loop of the SPICE DC operating-point solver: the
//! circuit provides residual `f(x)` and Jacobian `J(x)`; this module solves
//! `f(x) = 0` with step damping and divergence detection.
//!
//! [`solve_newton_with`] draws every buffer (residual, Jacobian, LU
//! storage, trial/line-search vectors) from a caller-owned
//! [`NewtonWorkspace`], so steady-state iterations perform **zero** heap
//! allocations. Campaign workloads run thousands of structurally identical
//! solves; reusing the workspace removes the dominant allocator traffic.
//! [`solve_newton_traced`] is the same solve inside a trace span.

use crate::lu::LuFactors;
use crate::{Matrix, NumericsError};

/// Relative part of the per-unknown step test: a full Newton step `dx`
/// converges once `|dx_i| ≤ RELTOL·|x_i| + step_tolerance` for every
/// unknown (SPICE2's `reltol`/`vntol` test, Nagel 1975). Newton's error
/// after such a step is of order `RELTOL²` relative, below the last ulp.
pub const RELTOL: f64 = 1e-9;

/// Options controlling the multivariate Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Bound on the residual infinity norm at convergence.
    pub residual_tolerance: f64,
    /// Absolute part of the per-unknown step test (see [`RELTOL`]).
    pub step_tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Maximum infinity-norm of a single Newton update; larger proposed
    /// steps are scaled down (crucial for exponential device equations).
    pub max_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            residual_tolerance: 1e-12,
            step_tolerance: 1e-12,
            max_iterations: 200,
            max_step: 1.0e9,
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

/// Outcome of a workspace solve: the solution stays in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonInfo {
    /// Newton steps taken, the converging full step included; at least 1.
    pub iterations: usize,
    /// Residual infinity norm at the returned iterate.
    pub residual_norm: f64,
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

/// Solves `f(x) = 0` by damped Newton: `x` holds the initial guess on
/// entry and the solution on a successful return. Steady-state calls
/// allocate nothing.
///
/// Each iteration solves `J dx = -f` by LU and line-searches the damping
/// factor (halving up to 20 times) until the residual norm decreases. The
/// solve converges on a full step that passes the per-unknown step test
/// (see [`RELTOL`]) with the residual within `residual_tolerance`.
///
/// # Errors
///
/// - Rejects an `x` whose length differs from the system dimension.
/// - Propagates residual/Jacobian/LU failures.
/// - [`NumericsError::NoConvergence`] when the budget is exhausted or the
///   line search stagnates.
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
    newton_damped(system, x, options, ws)
}

/// [`solve_newton_with`] bracketed by an [`icvbe_trace::SpanKind::Newton`]
/// span on `trace`; the end record carries the iteration count as its
/// payload. With a disabled buffer this is a plain
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
        Ok(info) => trace.span_end_with(span, info.iterations as u64, 0),
        Err(_) => trace.span_end(span),
    }
    result
}

/// Damped Newton with every temporary drawn from the workspace.
///
/// Every call takes at least one step, even from an iterate whose residual
/// is already within `residual_tolerance`: a small current residual is no
/// evidence of a small voltage error on a high-impedance node. The solve
/// converges on a full (undamped) step that passes the per-unknown step
/// test (see [`RELTOL`]) and leaves the residual within
/// `residual_tolerance`.
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
        let step_converged = x
            .iter()
            .zip(&ws.dx)
            .all(|(xi, di)| di.abs() <= RELTOL * xi.abs() + options.step_tolerance);
        if damping == 1.0 && step_converged && fnorm <= options.residual_tolerance {
            return Ok(NewtonInfo {
                iterations: iter + 1,
                residual_norm: fnorm,
            });
        }
    }
    Err(NumericsError::NoConvergence {
        iterations: options.max_iterations,
        residual: fnorm,
    })
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

    /// Solves from `x0` on a fresh workspace.
    fn solve(
        system: &impl NonlinearSystem,
        x0: &[f64],
        options: NewtonOptions,
    ) -> Result<(Vec<f64>, NewtonInfo), NumericsError> {
        let mut x = x0.to_vec();
        let info = solve_newton_with(system, &mut x, options, &mut NewtonWorkspace::new())?;
        Ok((x, info))
    }

    #[test]
    fn solves_circle_intersection() {
        let (x, info) = solve(&Circle, &[1.0, 0.5], NewtonOptions::default()).unwrap();
        assert!((x[0] - std::f64::consts::SQRT_2).abs() < 1e-10);
        assert!((x[1] - std::f64::consts::SQRT_2).abs() < 1e-10);
        assert!(info.residual_norm <= 1e-12);
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
        let (x, _) = solve(&Diode, &[0.8], opts).unwrap();
        let expected = 0.026 * (1e-3_f64 / 1e-14 + 1.0).ln();
        assert!((x[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        assert!(solve(&Circle, &[1.0], NewtonOptions::default()).is_err());
    }

    #[test]
    fn a_start_at_the_root_takes_one_step_onto_a_terminal_point() {
        let s = std::f64::consts::SQRT_2;
        let (x, info) = solve(&Circle, &[s, s], NewtonOptions::default()).unwrap();
        assert_eq!(info.iterations, 1);
        assert!(is_terminal(&Circle, &x), "{x:?}");
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
    fn step_test_ends_on_a_terminal_point_next_to_the_root() {
        // From wildly different guesses, with a loose residual tolerance:
        // the step test alone must carry every solve to a fixed point or
        // two-cycle of the rounded map within one ulp of the exact root
        // (measured: 0.71 ulp).
        let opts = NewtonOptions {
            residual_tolerance: 1e-9,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new();
        let root = [std::f64::consts::SQRT_2; 2];
        for start in [[1.0, 0.5], [3.0, 2.5], [0.7, 1.9], [2.0, 0.1]] {
            let mut x = start;
            solve_newton_with(&Circle, &mut x, opts, &mut ws).unwrap();
            assert!(is_terminal(&Circle, &x), "{start:?} -> {x:?}");
            assert!(ulps_from(&x, &root) <= 1.0, "{start:?} -> {x:?}");
        }
    }

    #[test]
    fn step_test_on_stiff_exponential_ends_next_to_the_root() {
        // Measured: 0.76 ulp from the closed form, which itself rounds
        // `ln` and `exp`.
        let opts = NewtonOptions {
            residual_tolerance: 1e-9,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new();
        let root = [0.026 * (1e-3_f64 / 1e-14 + 1.0).ln()];
        for start in [0.3, 0.9] {
            let mut x = [start];
            solve_newton_with(&Diode, &mut x, opts, &mut ws).unwrap();
            assert!(is_terminal(&Diode, &x), "{start} -> {}", x[0]);
            assert!(ulps_from(&x, &root) <= 1.0, "{start} -> {}", x[0]);
        }
    }
}
