//! Enforces the workspace contract with a counting allocator: once a
//! [`SolveWorkspace`] has been sized by a first solve, further solves of
//! the same system — cold- or warm-started — perform
//! **zero** heap allocations. This pins the "allocation-free hot path"
//! property the campaign engine's throughput rests on; a stray `Vec` or
//! `format!` sneaking into the Newton inner loop fails this test rather
//! than quietly costing a malloc per iteration.
//!
//! The test lives in its own integration-test binary so the global
//! allocator hook cannot interfere with (or be confused by) allocations
//! from unrelated tests. The flag and the counters are thread-local, so
//! tests running in parallel never pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

use icvbe_spice::bjt::{Bjt, BjtParams, Polarity};
use icvbe_spice::element::{CurrentSource, Resistor};
use icvbe_spice::ladder::SolveStrategy;
use icvbe_spice::netlist::Circuit;
use icvbe_spice::solver::DcOptions;
use icvbe_spice::system::CircuitAssembly;
use icvbe_spice::workspace::{solve_dc_with, SolveWorkspace};
use icvbe_units::{Ampere, Kelvin, Ohm};

// Per-thread counters: the harness runs tests on parallel threads, and a
// process-wide count would charge one test's allocations to another.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one event on this thread while counting is enabled. `try_with`
/// so the allocator stays safe during TLS teardown.
fn bump(counter: &'static LocalKey<Cell<u64>>) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
    }
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled on this thread and returns
/// `(allocations, reallocations)` made by this thread inside it.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get), out)
}

/// A bandgap-flavoured nonlinear cell: two mismatched diode-connected
/// PNPs plus a resistor, so the solve exercises the exponential device
/// path and damping.
fn test_cell() -> Circuit {
    let mut c = Circuit::new();
    let va = c.node("va");
    let vb = c.node("vb");
    let gnd = Circuit::ground();
    c.add(CurrentSource::new("Ia", gnd, va, Ampere::new(1e-6)));
    c.add(CurrentSource::new("Ib", gnd, vb, Ampere::new(1e-6)));
    c.add(Resistor::new("Rab", va, vb, Ohm::new(50e3)).unwrap());
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
fn steady_state_solves_do_not_allocate() {
    let circuit = test_cell();
    let assembly = CircuitAssembly::new(&circuit).unwrap();
    let opts = DcOptions::default();
    let mut ws = SolveWorkspace::new();

    // Warm-up: the first solve sizes every workspace buffer (Newton
    // scratch, Jacobian, LU storage); the second runs the seeded rung
    // once. After that the solver owns all of its memory.
    let t0 = Kelvin::new(298.15);
    solve_dc_with(&circuit, &assembly, t0, &opts, None, &mut ws).unwrap();
    let seed: Vec<f64> = ws.solution().to_vec();
    solve_dc_with(&circuit, &assembly, t0, &opts, Some(&seed), &mut ws).unwrap();
    ws.stats.take();

    // Steady state: cold starts, seeded starts, and temperature changes of
    // the same system must all run entirely out of the workspace.
    let temperatures = [248.15, 273.15, 298.15, 323.15, 348.15];
    let (allocs, reallocs, iterations) = count_allocations(|| {
        let mut iterations = 0usize;
        for &t in &temperatures {
            let t = Kelvin::new(t);
            let cold = solve_dc_with(&circuit, &assembly, t, &opts, None, &mut ws).unwrap();
            let warm = solve_dc_with(&circuit, &assembly, t, &opts, Some(&seed), &mut ws).unwrap();
            assert_eq!(warm.strategy, SolveStrategy::WarmStart);
            iterations += cold.iterations + warm.iterations;
        }
        iterations
    });

    assert!(iterations > 0, "solves must do real Newton work");
    assert_eq!(
        allocs, 0,
        "steady-state solves allocated {allocs} time(s) ({iterations} Newton iterations)"
    );
    assert_eq!(
        reallocs, 0,
        "steady-state solves reallocated {reallocs} time(s)"
    );
    // The measured region must actually have taken the fast paths.
    let stats = ws.stats.take();
    assert!(stats.device_reuses > 0, "{stats:?}");
}

/// A small contaminated line-fit model: enough residuals to exercise the
/// IRLS weight loop, MAD scale estimation and the weighted LM pass.
struct LineModel {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl icvbe_numerics::lm::ResidualModel for LineModel {
    fn residual_count(&self) -> usize {
        self.x.len()
    }

    fn parameter_count(&self) -> usize {
        2
    }

    fn residuals(&self, p: &[f64], out: &mut [f64]) -> Result<(), icvbe_numerics::NumericsError> {
        for ((o, &x), &y) in out.iter_mut().zip(&self.x).zip(&self.y) {
            *o = p[0] + p[1] * x - y;
        }
        Ok(())
    }
}

#[test]
fn steady_state_robust_fits_do_not_allocate() {
    use icvbe_numerics::robust::{fit_robust_with, RobustOptions, RobustWorkspace};

    // y = 2 + 3x with two gross outliers the Huber loss must down-weight.
    let x: Vec<f64> = (0..24).map(|i| i as f64 * 0.25).collect();
    let mut y: Vec<f64> = x.iter().map(|&x| 2.0 + 3.0 * x).collect();
    y[5] += 40.0;
    y[17] -= 25.0;
    let model = LineModel { x, y };
    let options = RobustOptions::default();
    let mut ws = RobustWorkspace::default();

    // Warm-up sizes every IRLS/LM buffer for this residual count.
    let mut p = [0.0, 0.0];
    fit_robust_with(&model, &mut p, &options, &mut ws).unwrap();

    // Steady state: repeated robust fits from different starting points
    // must run entirely out of the sized workspace.
    let (allocs, reallocs, rounds) = count_allocations(|| {
        let mut rounds = 0usize;
        for start in [[0.0, 0.0], [5.0, -1.0], [1.9, 3.2]] {
            let mut p = start;
            let fit = fit_robust_with(&model, &mut p, &options, &mut ws).unwrap();
            rounds += fit.rounds;
            assert!((p[0] - 2.0).abs() < 0.1 && (p[1] - 3.0).abs() < 0.1);
        }
        rounds
    });
    assert!(rounds > 0, "fits must do real IRLS work");
    assert_eq!(
        allocs, 0,
        "steady-state robust fits allocated {allocs} time(s)"
    );
    assert_eq!(
        reallocs, 0,
        "steady-state robust fits reallocated {reallocs} time(s)"
    );
}

#[test]
fn workspace_growth_happens_only_on_first_contact() {
    // The complementary claim: a *fresh* workspace does allocate on its
    // first solve (that's where the buffers come from), so the zero above
    // is meaningful rather than the counter being dead.
    let circuit = test_cell();
    let assembly = CircuitAssembly::new(&circuit).unwrap();
    let opts = DcOptions::default();
    let mut ws = SolveWorkspace::new();
    let (allocs, _, ()) = count_allocations(|| {
        solve_dc_with(
            &circuit,
            &assembly,
            Kelvin::new(298.15),
            &opts,
            None,
            &mut ws,
        )
        .unwrap();
    });
    assert!(allocs > 0, "first solve must size the workspace buffers");
}
