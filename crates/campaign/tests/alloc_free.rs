//! Pins the cost contract of the tracing layer with a counting allocator:
//! with tracing **disabled** (the default), the per-die pipeline's heap
//! traffic in steady state is exactly what it was without the trace layer
//! — identical from die to die, with the disabled `TraceBuf` contributing
//! zero events and zero allocations. With tracing **enabled**, the extra
//! allocations are confined to event storage, which also proves the
//! counter is live rather than vacuously reading zero.
//!
//! Same scaffold as `icvbe-spice`'s `alloc_free.rs`: a global counting
//! allocator with a thread-local flag and counter, in its own test binary
//! so unrelated tests can't pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use icvbe_campaign::aggregate::YieldBin;
use icvbe_campaign::die::{run_die_with, DieScratch};
use icvbe_campaign::spec::{CampaignSpec, WaferMap};

// Per-thread counter: the harness runs tests on parallel threads, and a
// process-wide count would charge one test's allocations to another.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one (re)allocation on this thread while counting is enabled.
/// `try_with` so the allocator stays safe during TLS teardown.
fn bump() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get), out)
}

#[test]
fn disabled_tracing_adds_no_steady_state_allocations() {
    let spec = CampaignSpec::paper_default(WaferMap::full(2, 3), 0xA110C);
    let setpoints = spec.plan.setpoints();
    let sites = spec.wafer.sites();
    let mut scratch = DieScratch::new();

    // Warm-up: the first die sizes every reusable buffer (solver
    // workspace, measurement scratch, robust/IRLS storage).
    let first = run_die_with(&spec, sites[0], &setpoints, &mut scratch);
    assert!(first.corners.iter().all(|c| c.bin == YieldBin::Pass));

    // Steady state, tracing disabled (the default): every further die
    // must cost the identical number of allocations. The per-die residue
    // (the outcome's `corners` vec, per-corner bench construction) is
    // structural and die-independent; a tracing-conditional allocation
    // leaking into the disabled path would break the equality.
    let (a1, out1) = count_allocations(|| run_die_with(&spec, sites[1], &setpoints, &mut scratch));
    let (a2, out2) = count_allocations(|| run_die_with(&spec, sites[2], &setpoints, &mut scratch));
    let (a3, out3) = count_allocations(|| run_die_with(&spec, sites[3], &setpoints, &mut scratch));
    assert!(out1.corners.iter().all(|c| c.bin == YieldBin::Pass));
    assert_eq!(
        a1, a2,
        "steady-state dies must allocate identically with tracing off"
    );
    assert_eq!(a2, a3, "allocation count must not drift across dies");

    // The disabled buffer really was a no-op sink: no events captured,
    // and the span-derived stage timing still measured real work.
    assert!(out2.spans.is_empty(), "disabled trace must record nothing");
    assert!(out3.timing.sample_ns > 0 || out3.timing.measure_ns > 0);

    // Liveness check: the same die with tracing enabled allocates
    // strictly more (event storage), so the zero-delta above is a real
    // measurement and not a dead counter.
    scratch
        .bench
        .solve
        .trace
        .enable(std::time::Instant::now(), 0);
    let (a_traced, traced) =
        count_allocations(|| run_die_with(&spec, sites[4], &setpoints, &mut scratch));
    assert!(!traced.spans.is_empty(), "enabled trace must record spans");
    assert!(
        a_traced > a1,
        "tracing must be the only extra cost: enabled {a_traced} vs disabled {a1}"
    );
}
