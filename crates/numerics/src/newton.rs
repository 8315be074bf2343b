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

use std::sync::Arc;

use crate::lu::LuFactors;
use crate::sparse::{LuSymbolic, SparseLu};
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
    /// Residual norm that is still *accepted* when the iteration stagnates
    /// or exhausts its budget without reaching `residual_tolerance`.
    /// Circuit solves use this the way SPICE uses `reltol`/`abstol`: the
    /// last digits of a stiff system are often unreachable but irrelevant.
    /// `0.0` (the default) disables the escape hatch.
    pub acceptable_residual: f64,
    /// After convergence, keep taking full (undamped) Newton steps until
    /// the iterate is **bitwise stationary** — `x + dx` rounds back to `x`
    /// — or a two-cycle on the last-ulp grid is detected and resolved to a
    /// canonical member. This makes the returned solution a pure function
    /// of the *system*, independent of the initial guess, which is what
    /// lets warm-started sweeps reproduce cold-started results bit for
    /// bit. Costs one to three extra iterations; off by default.
    pub polish: bool,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            residual_tolerance: 1e-12,
            step_tolerance: 1e-12,
            max_iterations: 200,
            max_step: 1.0e9,
            acceptable_residual: 0.0,
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

    /// Evaluates residual and Jacobian at the same point in one call.
    ///
    /// The default chains [`Self::residual`] and [`Self::jacobian`];
    /// implementations whose Jacobian evaluation produces the residual as
    /// a by-product (MNA stamping does) should override it to evaluate
    /// once. Overrides must leave `f` **bitwise identical** to what
    /// [`Self::residual`] writes — the fixed-point polish relies on the
    /// two paths agreeing to the last ulp.
    ///
    /// # Errors
    ///
    /// Implementations may fail on unphysical iterates.
    fn residual_and_jacobian(
        &self,
        x: &[f64],
        f: &mut [f64],
        jac: &mut Matrix,
    ) -> Result<(), NumericsError> {
        self.residual(x, f)?;
        self.jacobian(x, jac)
    }
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
    /// 1 when the last-ulp cluster walk stopped at its 12-member cap (the
    /// canonical pick is then over a possibly partial cluster), else 0.
    pub cluster_cap_hits: usize,
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
            cluster_cap_hits: 0,
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
    /// Cluster-walk buffers (polish): probe iterate, probe base, and the
    /// flat `CLUSTER_MAX x n` store of discovered fixed points.
    probe: Vec<f64>,
    base: Vec<f64>,
    cluster: Vec<f64>,
    jac: Option<Matrix>,
    lu: LinearSolver,
}

/// The linear-solver backend of a [`NewtonWorkspace`]: dense partial-pivot
/// LU (the default) or sparse LU bound to a frozen symbolic plan. The two
/// are bit-compatible on matrices honoring the plan's pattern (see
/// [`crate::sparse`]), so the choice is purely about work skipped.
#[derive(Debug, Clone)]
enum LinearSolver {
    /// Dense partial-pivot LU.
    Dense(LuFactors),
    /// Sparse LU on a frozen symbolic plan.
    Sparse(SparseLu),
}

impl Default for LinearSolver {
    fn default() -> Self {
        LinearSolver::Dense(LuFactors::new())
    }
}

impl LinearSolver {
    fn factor_from(&mut self, a: &Matrix) -> Result<(), NumericsError> {
        match self {
            LinearSolver::Dense(lu) => lu.factor_from(a),
            LinearSolver::Sparse(lu) => lu.factor_from(a),
        }
    }

    fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumericsError> {
        match self {
            LinearSolver::Dense(lu) => lu.solve_into(b, x),
            LinearSolver::Sparse(lu) => lu.solve_into(b, x),
        }
    }
}

impl NewtonWorkspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        NewtonWorkspace::default()
    }

    /// Routes this workspace's linear solves through sparse LU on `plan`.
    /// A workspace already bound to the same plan (pointer identity) is
    /// left untouched, so per-solve rebinding is allocation-free; binding a
    /// new plan replaces the factor storage.
    pub fn use_sparse_plan(&mut self, plan: &Arc<LuSymbolic>) {
        match &self.lu {
            LinearSolver::Sparse(s) if Arc::ptr_eq(s.plan(), plan) => {}
            _ => self.lu = LinearSolver::Sparse(SparseLu::new(Arc::clone(plan))),
        }
    }

    /// Routes this workspace's linear solves through dense LU (the
    /// default). A no-op when already dense.
    pub fn use_dense(&mut self) {
        if !matches!(self.lu, LinearSolver::Dense(_)) {
            self.lu = LinearSolver::Dense(LuFactors::new());
        }
    }

    fn ensure(&mut self, n: usize) {
        // A sparse plan sized for a different system cannot factor this
        // one; fall back to dense rather than erroring mid-solve.
        if let LinearSolver::Sparse(s) = &self.lu {
            if s.plan().dimension() != n {
                self.lu = LinearSolver::Dense(LuFactors::new());
            }
        }
        if self.f.len() != n {
            self.f.resize(n, 0.0);
            self.f_trial.resize(n, 0.0);
            self.trial.resize(n, 0.0);
            self.dx.resize(n, 0.0);
            self.neg_f.resize(n, 0.0);
            self.prev.resize(n, 0.0);
            self.probe.resize(n, 0.0);
            self.base.resize(n, 0.0);
            self.cluster.resize(CLUSTER_MAX * n, 0.0);
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

/// Deterministic tie-break for bitwise two-cycles: lexicographic order on
/// `f64::total_cmp`, entry by entry.
fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
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
                if fnorm <= options.acceptable_residual {
                    return Ok(NewtonInfo::damped(iter, fnorm));
                }
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
    if fnorm <= options.acceptable_residual {
        return Ok(NewtonInfo::damped(options.max_iterations, fnorm));
    }
    Err(NumericsError::NoConvergence {
        iterations: options.max_iterations,
        residual: fnorm,
    })
}

/// Cap on polish iterations; quadratic convergence reaches the last-ulp
/// grid in two or three steps, the rest is headroom.
const POLISH_MAX: usize = 16;

/// Cap on the number of terminal points tracked by the last-ulp cluster
/// walk. Observed clusters are a pair of fixed points or a pair of
/// adjacent two-cycles (four points); twelve is deep headroom, and a
/// cluster that overflows it merely falls back to a start-dependent pick.
const CLUSTER_MAX: usize = 12;

/// Largest per-component ulp distance between the two members of a
/// two-cycle the cluster walk still tests. A tight Newton two-cycle keeps
/// both members within the last-ulp grid around the root; a probe that the
/// map throws further than this cannot be one, so the (expensive) second
/// map application is skipped.
const CYCLE_SPAN_ULPS: u64 = 4;

/// Drives a converged iterate to a terminal point of the floating-point
/// Newton map `x ↦ fl(x - J(x)⁻¹ f(x))` and canonicalizes the choice.
///
/// Near a simple root the rounded map collapses onto a tiny terminal set:
/// an attracting fixed point, an adjacent-ulp two-cycle — and sometimes
/// *several* of these side by side (twin fixed points one ulp apart, twin
/// two-cycles), each reached from its own side. Any start-dependence in
/// which terminal point is returned would leak into warm-vs-cold runs, so
/// after the iteration terminates (bitwise stationary or a detected
/// two-cycle) [`canonicalize_cluster`] walks the last-ulp neighbourhood,
/// collects every terminal point reachable from the one found, and keeps a
/// canonical member — smallest residual norm, ties broken lexicographically
/// by `total_cmp` — which is a function of the cluster *set* only, never of
/// the entry side. Failures (singular Jacobian, non-finite residual) end
/// the polish and keep the already-converged iterate; the cap bounds the
/// cost.
///
/// Returns the iterations spent and books either cap's hit in `info`.
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
            // Bitwise stationary. Seed the cluster with this fixed point
            // and canonicalize over the whole last-ulp neighbourhood.
            ws.cluster[..n].copy_from_slice(x);
            info.cluster_cap_hits = usize::from(canonicalize_cluster(system, x, ws, 1));
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
            // Two-cycle {x, trial}: seed the cluster with both members.
            ws.cluster[..n].copy_from_slice(x);
            ws.cluster[n..2 * n].copy_from_slice(&ws.trial);
            info.cluster_cap_hits = usize::from(canonicalize_cluster(system, x, ws, 2));
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

/// One application of the rounded Newton map `N(p) = fl(p − J(p)⁻¹ f(p))`
/// into `out`. Returns `false` when any stage fails or produces a
/// non-finite value; `out` is then unspecified.
#[allow(clippy::too_many_arguments)]
fn newton_map(
    system: &impl NonlinearSystem,
    p: &[f64],
    out: &mut [f64],
    f: &mut [f64],
    neg_f: &mut [f64],
    dx: &mut [f64],
    jac: &mut Matrix,
    lu: &mut LinearSolver,
) -> bool {
    let n = p.len();
    if system.residual_and_jacobian(p, f, jac).is_err() || !inf_norm(f).is_finite() {
        return false;
    }
    if lu.factor_from(jac).is_err() {
        return false;
    }
    for i in 0..n {
        neg_f[i] = -f[i];
    }
    if lu.solve_into(neg_f, dx).is_err() {
        return false;
    }
    for i in 0..n {
        out[i] = p[i] + dx[i];
        if !out[i].is_finite() {
            return false;
        }
    }
    true
}

/// Having reached a terminal point (or two-cycle) of the rounded Newton
/// map, deterministically explores the last-ulp neighbourhood for *other*
/// terminal points and replaces `x` with the canonical member of the
/// discovered cluster: smallest residual infinity norm, ties broken
/// lexicographically by `total_cmp`.
///
/// Rounding can leave several adjacent attractors — twin fixed points one
/// ulp apart, or a pair of adjacent two-cycles — and plain polishing
/// terminates in whichever one its entry side feeds, so warm-started and
/// cold-started solves could disagree by one ulp. The cluster walk closes
/// that hole: every member's ±1-ulp neighbours get a direct terminality
/// test — `N(p) = p` (one map application), or `N(N(p)) = p` for a
/// two-cycle (a second application, attempted only when the first lands
/// within [`CYCLE_SPAN_ULPS`] of the probe), whose both members join — and
/// the walk repeats until the cluster is closed. Terminality is a pure
/// predicate of the probe point and adjacent attractors are direct probes
/// of each other, so every entry side discovers the same set and therefore
/// the same canonical pick. A probe that merely *flows toward* the cluster
/// is not followed — it would only rediscover known members.
///
/// `ws.cluster[..seeded * n]` must hold the terminal points already found
/// by the polish loop (the stationary point, or both two-cycle members).
/// Returns whether the walk stopped at [`CLUSTER_MAX`] members.
fn canonicalize_cluster(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    ws: &mut NewtonWorkspace,
    seeded: usize,
) -> bool {
    let n = x.len();
    let mut count = seeded.min(CLUSTER_MAX);
    let mut member = 0;
    while member < count && count < CLUSTER_MAX {
        ws.base
            .copy_from_slice(&ws.cluster[member * n..(member + 1) * n]);
        'probe: for dim in 0..n {
            for up in [false, true] {
                if count == CLUSTER_MAX {
                    break 'probe;
                }
                let neighbour = ulp_neighbour(ws.base[dim], up);
                if !neighbour.is_finite() {
                    continue;
                }
                ws.probe.copy_from_slice(&ws.base);
                ws.probe[dim] = neighbour;
                if is_member(&ws.cluster, count, &ws.probe, n) {
                    continue;
                }
                // Direct terminality test; `trial` holds N(p) and `prev`
                // (free once the polish loop has terminated) holds N(N(p))
                // for the two-cycle test.
                let Some(jac) = ws.jac.as_mut() else {
                    return false;
                };
                if !newton_map(
                    system,
                    &ws.probe,
                    &mut ws.trial,
                    &mut ws.f_trial,
                    &mut ws.neg_f,
                    &mut ws.dx,
                    jac,
                    &mut ws.lu,
                ) {
                    continue;
                }
                if ws.trial == ws.probe {
                    add_member(&mut ws.cluster, &mut count, &ws.probe, n);
                    continue;
                }
                // If the probe maps onto a known member it cannot be a new
                // terminal point: a fixed point maps to itself, and a
                // two-cycle partner of a known member was added alongside
                // that member. This skips the second map in the common
                // case (the neighbour falls straight back onto the
                // cluster).
                if is_member(&ws.cluster, count, &ws.trial, n) {
                    continue;
                }
                if !within_ulps(&ws.trial, &ws.probe, CYCLE_SPAN_ULPS) {
                    continue;
                }
                let Some(jac) = ws.jac.as_mut() else {
                    return false;
                };
                if !newton_map(
                    system,
                    &ws.trial,
                    &mut ws.prev,
                    &mut ws.f_trial,
                    &mut ws.neg_f,
                    &mut ws.dx,
                    jac,
                    &mut ws.lu,
                ) {
                    continue;
                }
                if ws.prev == ws.probe {
                    // Two-cycle {probe, trial}: both members join.
                    add_member(&mut ws.cluster, &mut count, &ws.probe, n);
                    if count < CLUSTER_MAX {
                        add_member(&mut ws.cluster, &mut count, &ws.trial, n);
                    }
                }
            }
        }
        member += 1;
    }
    // Canonical member: smallest residual infinity norm, ties broken
    // lexicographically — both are functions of the set, not of the entry.
    let norm_of = |member: &[f64], f: &mut [f64]| -> f64 {
        if system.residual(member, f).is_ok() {
            let v = inf_norm(f);
            if v.is_finite() {
                return v;
            }
        }
        f64::INFINITY
    };
    let mut best = 0;
    let mut best_norm = norm_of(&ws.cluster[..n], &mut ws.f_trial);
    for m in 1..count {
        let norm = norm_of(&ws.cluster[m * n..(m + 1) * n], &mut ws.f_trial);
        if norm < best_norm
            || (norm == best_norm
                && lex_less(
                    &ws.cluster[m * n..(m + 1) * n],
                    &ws.cluster[best * n..(best + 1) * n],
                ))
        {
            best = m;
            best_norm = norm;
        }
    }
    x[..n].copy_from_slice(&ws.cluster[best * n..(best + 1) * n]);
    count == CLUSTER_MAX
}

/// Whether `point` is bitwise equal to one of the first `count` cluster
/// members.
fn is_member(cluster: &[f64], count: usize, point: &[f64], n: usize) -> bool {
    (0..count).any(|m| cluster[m * n..(m + 1) * n] == point[..])
}

/// Appends `point` to the flat cluster store unless already present.
fn add_member(cluster: &mut [f64], count: &mut usize, point: &[f64], n: usize) {
    if *count == CLUSTER_MAX {
        return;
    }
    let seen = is_member(cluster, *count, point, n);
    if !seen {
        let dst = *count * n;
        cluster[dst..dst + n].copy_from_slice(point);
        *count += 1;
    }
}

/// Whether every component of `a` is within `k` representable values of
/// the matching component of `b` (equal bits count as zero; any non-finite
/// component fails).
fn within_ulps(a: &[f64], b: &[f64], k: u64) -> bool {
    a.iter().zip(b).all(|(&x, &y)| {
        if x.to_bits() == y.to_bits() {
            return true;
        }
        if !x.is_finite() || !y.is_finite() {
            return false;
        }
        let d = i128::from(monotone_bits(x)) - i128::from(monotone_bits(y));
        d.unsigned_abs() <= u128::from(k)
    })
}

/// Maps `f64` bit patterns to an `i64` whose integer order matches the
/// total order of the floats (with `-0.0` just below `+0.0`), so ulp
/// distances become integer differences.
fn monotone_bits(v: f64) -> i64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        // Negative floats order opposite their magnitude bits; place them
        // just below the non-negatives (`-0.0` maps to -1, `0.0` to 0).
        -((bits & !(1u64 << 63)) as i64) - 1
    } else {
        bits as i64
    }
}

/// The adjacent representable `f64` in the given direction (`up` = toward
/// `+∞`). NaN and the infinity in the requested direction are returned
/// unchanged; ±0.0 steps to the smallest subnormal of the requested sign.
fn ulp_neighbour(v: f64, up: bool) -> f64 {
    if v.is_nan() || (v.is_infinite() && (v > 0.0) == up) {
        return v;
    }
    if v == 0.0 {
        let tiny = f64::from_bits(1);
        return if up { tiny } else { -tiny };
    }
    let toward_larger_magnitude = (v > 0.0) == up;
    let bits = v.to_bits();
    f64::from_bits(if toward_larger_magnitude {
        bits + 1
    } else {
        bits - 1
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

    #[test]
    fn polish_makes_the_result_independent_of_the_start() {
        // Converge from wildly different guesses, polish on: the terminal
        // iterates must agree to the BIT, not merely to tolerance.
        let opts = NewtonOptions {
            residual_tolerance: 1e-9,
            polish: true,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new();
        let starts: [[f64; 2]; 4] = [[1.0, 0.5], [3.0, 2.5], [0.7, 1.9], [2.0, 0.1]];
        let mut solutions = Vec::new();
        for s in starts {
            let mut x = s;
            solve_newton_with(&Circle, &mut x, opts, &mut ws).unwrap();
            solutions.push(x.to_vec());
        }
        for sol in &solutions[1..] {
            assert_eq!(&solutions[0], sol, "polish must canonicalize the root");
        }
    }

    #[test]
    fn polish_on_stiff_exponential_is_start_independent() {
        let opts = NewtonOptions {
            residual_tolerance: 1e-9,
            polish: true,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new();
        let mut a = [0.3];
        let mut b = [0.9];
        solve_newton_with(&Diode, &mut a, opts, &mut ws).unwrap();
        solve_newton_with(&Diode, &mut b, opts, &mut ws).unwrap();
        assert_eq!(a[0].to_bits(), b[0].to_bits());
    }

    #[test]
    fn sparse_plan_routing_matches_dense_bitwise() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let plan = Arc::new(LuSymbolic::analyze(2, &entries).unwrap());
        let opts = NewtonOptions {
            polish: true,
            ..NewtonOptions::default()
        };
        let mut dense_ws = NewtonWorkspace::new();
        let mut sparse_ws = NewtonWorkspace::new();
        sparse_ws.use_sparse_plan(&plan);
        let mut xd = [1.0, 0.5];
        let mut xs = [1.0, 0.5];
        let id = solve_newton_with(&Circle, &mut xd, opts, &mut dense_ws).unwrap();
        let is_ = solve_newton_with(&Circle, &mut xs, opts, &mut sparse_ws).unwrap();
        assert_eq!(xd.map(f64::to_bits), xs.map(f64::to_bits));
        assert_eq!(id.iterations, is_.iterations);
        assert_eq!(id.residual_norm.to_bits(), is_.residual_norm.to_bits());
        // Rebinding the same plan is a no-op; a system of a different
        // dimension silently falls back to dense instead of erroring.
        sparse_ws.use_sparse_plan(&plan);
        let mut x1 = [0.8];
        let opts1 = NewtonOptions {
            residual_tolerance: 1e-15,
            ..NewtonOptions::default()
        };
        solve_newton_with(&Diode, &mut x1, opts1, &mut sparse_ws).unwrap();
        let expected = 0.026 * (1e-3_f64 / 1e-14 + 1.0).ln();
        assert!((x1[0] - expected).abs() < 1e-9);
        sparse_ws.use_dense();
    }

    /// `f(x) = x - 2` with a Jacobian scaled by `slope` and a residual
    /// that is exactly zero on the band `|x - 2| <= flat`.
    struct Skewed {
        slope: f64,
        flat: f64,
    }

    impl NonlinearSystem for Skewed {
        fn dimension(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            let e = x[0] - 2.0;
            out[0] = if e.abs() <= self.flat { 0.0 } else { e };
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
        let sys = Skewed {
            slope: 0.6,
            flat: 0.0,
        };
        let mut ws = NewtonWorkspace::new();
        let mut x = [2.5];
        let info = solve_newton_with(&sys, &mut x, polish_options(), &mut ws).unwrap();
        assert_eq!(info.polish_iterations, POLISH_MAX);
        assert_eq!(info.polish_cap_hits, 1);
        assert_eq!(info.cluster_cap_hits, 0);
        // A well-posed system polishes without touching either cap.
        let mut x = [1.0, 0.5];
        let info = solve_newton_with(&Circle, &mut x, polish_options(), &mut ws).unwrap();
        assert!(info.polish_iterations < POLISH_MAX);
        assert_eq!((info.polish_cap_hits, info.cluster_cap_hits), (0, 0));
    }

    #[test]
    fn cluster_cap_hit_is_counted() {
        // The residual vanishes on a ±1e-12 band around the root, so every
        // ulp neighbour there is a fixed point of the rounded Newton map
        // and the cluster walk fills up to its cap.
        let sys = Skewed {
            slope: 1.0,
            flat: 1e-12,
        };
        let mut ws = NewtonWorkspace::new();
        let mut x = [3.0];
        let info = solve_newton_with(&sys, &mut x, polish_options(), &mut ws).unwrap();
        assert_eq!(info.cluster_cap_hits, 1);
        assert_eq!(info.polish_cap_hits, 0);
        // The pick is still the lexicographically smallest member found.
        assert!(x[0] < 2.0 && x[0] > 2.0 - 1e-12, "{}", x[0]);
    }

    #[test]
    fn ulp_neighbour_steps_exactly_one_bit() {
        assert_eq!(ulp_neighbour(1.0, true).to_bits(), 1.0_f64.to_bits() + 1);
        assert_eq!(ulp_neighbour(1.0, false).to_bits(), 1.0_f64.to_bits() - 1);
        assert!(ulp_neighbour(-1.0, true) > -1.0);
        assert!(ulp_neighbour(-1.0, false) < -1.0);
        assert!(ulp_neighbour(0.0, true) > 0.0);
        assert!(ulp_neighbour(0.0, false) < 0.0);
        assert!(ulp_neighbour(f64::INFINITY, true).is_infinite());
        // Round-trips: one up then one down is the identity away from zero.
        let v = 5.057_943_526_299_022e-1;
        assert_eq!(
            ulp_neighbour(ulp_neighbour(v, true), false).to_bits(),
            v.to_bits()
        );
    }

    #[test]
    fn within_ulps_measures_representable_distance() {
        let v = 5.057_943_526_299_022e-1;
        let up2 = ulp_neighbour(ulp_neighbour(v, true), true);
        assert!(within_ulps(&[v], &[v], 0));
        assert!(within_ulps(&[v], &[up2], 2));
        assert!(!within_ulps(&[v], &[up2], 1));
        // The distance bridges the sign change: -0.0 and +0.0 are adjacent.
        assert!(within_ulps(&[-0.0], &[0.0], 1));
        assert!(within_ulps(&[f64::from_bits(1)], &[-f64::from_bits(1)], 3));
        // Bitwise-identical components count as distance zero, even NaN;
        // otherwise non-finite components never count as close, and any
        // far component fails the whole vector.
        assert!(within_ulps(&[v, f64::NAN], &[v, f64::NAN], 0));
        assert!(!within_ulps(&[f64::NAN], &[v], 4));
        assert!(!within_ulps(&[v, 1.0], &[v, 2.0], 4));
    }

    #[test]
    fn lex_less_is_a_strict_total_order_on_bits() {
        assert!(lex_less(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!lex_less(&[1.0, 3.0], &[1.0, 2.0]));
        assert!(!lex_less(&[1.0, 2.0], &[1.0, 2.0]));
        // -0.0 and 0.0 differ under total_cmp: the order is still strict.
        assert!(lex_less(&[-0.0], &[0.0]));
    }
}
