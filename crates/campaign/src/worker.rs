//! The pure-`std` worker pool and the in-order streaming fold.
//!
//! Dies are claimed in fixed-size chunks off an `Arc<AtomicUsize>` cursor
//! (cheap work stealing: a fast thread simply claims more chunks), each
//! die runs its referentially transparent pipeline, and outcomes stream
//! over an `mpsc` channel back to the caller's thread. There they pass
//! through a reorder buffer that releases dies **in index order** into the
//! [`CampaignAggregate`] — so the floating-point fold is identical no
//! matter which thread finished first, and memory stays bounded by the
//! pool's out-of-order window rather than the die count.
//!
//! [`run_campaign_streaming`] is the general engine: it runs any die
//! range, resumes from a checkpointed aggregate, observes every folded
//! die through a callback and can stop early at a die boundary — which is
//! what the campaign service builds its slice scheduler, result streams
//! and checkpoint/resume on. [`run_campaign_with`] is the one-shot
//! special case (the whole wafer, fresh aggregate, never stop early).

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use icvbe_instrument::bench::BenchScratch;
use icvbe_instrument::chaos::{ChaosPlan, ChaosSpec};
use icvbe_spice::cache::SymbolicCache;
use icvbe_trace::{SpanKind, SpanPhase, Trace, TraceEvent, NO_DIE};

use crate::aggregate::{CampaignAggregate, YieldBin};
use crate::die::{contained_panic_outcome, run_die_with, DieBudget, DieOutcome, DieScratch};
use crate::metrics::{
    CampaignCounters, CampaignMetrics, STAGE_EXTRACT, STAGE_MEASURE, STAGE_SAMPLE,
};
use crate::spec::CampaignSpec;
use crate::taxonomy::FailureKind;
use crate::CampaignError;

/// Dies claimed per cursor bump. Small enough to balance a straggling
/// thread, large enough that the atomic is off the hot path.
const CHUNK: usize = 16;

/// A finished campaign: the deterministic aggregate plus the run's
/// (non-deterministic) observability snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// The spec the run executed.
    pub spec: CampaignSpec,
    /// Streaming aggregate, identical for any thread count.
    pub aggregate: CampaignAggregate,
    /// Counters, throughput and stage histograms of this particular run.
    pub metrics: CampaignMetrics,
    /// Structured span trace, present iff [`StreamOptions::trace`] was set.
    /// Logical span order is deterministic (die-index order, per-die
    /// sequence numbers); only timestamps/worker ids vary run to run.
    pub trace: Option<Trace>,
}

/// Knobs of [`run_campaign_with`] and the general streaming engine,
/// [`run_campaign_streaming`], beyond the spec itself.
///
/// The defaults run the whole wafer from die 0 with a fresh aggregate,
/// private counters, a run-local symbolic cache, no tracing, no chaos and
/// no die budget — exactly [`run_campaign`].
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Capture a structured span trace of the run into
    /// [`CampaignRun::trace`]. Off by default; when off the tracing layer
    /// is a no-op sink — no events, no extra clock reads, no allocations
    /// on the die hot path.
    pub trace: bool,
    /// First die index to run. Dies `0..start_die` are assumed already
    /// folded into [`StreamOptions::resume`].
    pub start_die: usize,
    /// One past the last die index to run; `None` runs to the end of the
    /// wafer. With `start_die` this is the range `start_die..end_die`:
    /// workers never claim past it, so a slice of a larger run computes
    /// exactly its own dies.
    pub end_die: Option<usize>,
    /// Aggregate state to continue from (a decoded checkpoint), or `None`
    /// for a fresh one. Must hold exactly the fold of dies
    /// `0..start_die` for the determinism guarantee to carry over.
    pub resume: Option<CampaignAggregate>,
    /// Cross-campaign symbolic-LU plan cache. Jobs whose netlists share a
    /// sparsity pattern reuse one analysis; cached plans are bit-identical
    /// to fresh ones, so sharing never perturbs results. `None` (the
    /// default) still shares a cache *within* the run — dies of one
    /// topology always hold the same plan `Arc`.
    pub symbolic_cache: Option<Arc<SymbolicCache>>,
    /// External counters to accumulate into instead of run-private ones —
    /// a service accumulates one job's counters across its slices.
    pub counters: Option<Arc<CampaignCounters>>,
    /// Environment-fault injection (the chaos layer). The worker consults
    /// only the die-panic knob; write/socket faults act at the service
    /// layer. The default ([`ChaosSpec::none`]) is a structural no-op:
    /// no RNG is built and no verdict is drawn.
    pub chaos: ChaosSpec,
    /// Seed of the chaos plan; fault verdicts are a pure function of
    /// `(chaos, chaos_seed, die index)` — thread-count independent.
    pub chaos_seed: u64,
    /// Per-die solve containment budget (see [`DieBudget`]). Zero fields
    /// (the default) disable enforcement.
    pub budget: DieBudget,
}

/// Runs `spec` across `threads` worker threads.
///
/// # Degenerate inputs
///
/// - `threads == 0` is clamped to 1 (a sensible default, not an error:
///   callers computing `available_parallelism - k` shouldn't crash a
///   campaign over an undersubscribed box).
/// - An empty wafer map or a collapsed temperature plan is rejected by
///   [`CampaignSpec::validate`] as [`CampaignError::InvalidSpec`] before
///   any thread spawns.
///
/// # Errors
///
/// Only [`CampaignError::InvalidSpec`]: per-die failures are binned as
/// [`YieldBin::SolveFail`], never raised.
pub fn run_campaign(spec: &CampaignSpec, threads: usize) -> Result<CampaignRun, CampaignError> {
    run_campaign_with(spec, threads, &StreamOptions::default())
}

/// Per-die counter fold: drains the worker's solver counters and records
/// stage timings, completion and recovery bookkeeping.
fn account_die(counters: &CampaignCounters, bench: &mut BenchScratch, out: &DieOutcome) {
    let (stats, selfheat) = bench.take_counters();
    counters.record_die_solver(&stats, selfheat);
    counters.stages[STAGE_SAMPLE].record_ns(out.timing.sample_ns);
    counters.stages[STAGE_MEASURE].record_ns(out.timing.measure_ns);
    counters.stages[STAGE_EXTRACT].record_ns(out.timing.extract_ns);
    counters.completed.fetch_add(1, Ordering::Relaxed);
    if out.corners.iter().any(|c| c.bin == YieldBin::SolveFail) {
        counters.failed.fetch_add(1, Ordering::Relaxed);
    }
    let mut retried = 0u64;
    let mut recovered = 0u64;
    let mut robust = 0u64;
    let mut quarantined = 0u64;
    let mut by_kind = [0u64; FailureKind::COUNT];
    for c in &out.corners {
        retried += u64::from(c.attempts > 1);
        robust += u64::from(c.robust_recovery);
        quarantined += u64::from(c.failure.is_some());
        if let Some(kind) = c.recovered_from {
            recovered += 1;
            by_kind[kind.index()] += 1;
        }
    }
    if retried + recovered + robust + quarantined > 0 {
        counters.record_die_recovery(retried, recovered, robust, quarantined, &by_kind);
    }
}

/// A fold-thread record: the campaign root span and the per-die
/// queue-wait spans are emitted by the folding thread, not a worker.
fn fold_event(
    phase: SpanPhase,
    kind: SpanKind,
    die: u32,
    seq: u32,
    ts_ns: u64,
    worker: u32,
    n0: u64,
) -> TraceEvent {
    TraceEvent {
        phase,
        kind,
        die,
        corner: -1,
        attempt: -1,
        label: "",
        seq,
        ts_ns,
        worker,
        n0,
        n1: 0,
    }
}

/// [`run_campaign`] with explicit [`StreamOptions`], folding every die
/// of the options' range. With tracing requested, every worker's span
/// buffer shares the campaign epoch, each die's records travel back with
/// its outcome, and the fold thread merges them in **die-index order** —
/// bracketed by a campaign root span and interleaved with one
/// `queue_wait` span per die recording its reorder-buffer latency — so
/// the logical event stream is identical at any thread count.
///
/// # Errors
///
/// Same contract as [`run_campaign`]: only [`CampaignError::InvalidSpec`].
pub fn run_campaign_with(
    spec: &CampaignSpec,
    threads: usize,
    options: &StreamOptions,
) -> Result<CampaignRun, CampaignError> {
    run_campaign_streaming(spec, threads, options, |_, _| ControlFlow::Continue(()))
}

/// The general streaming engine: runs dies `start_die..end_die` of `spec`,
/// folding them **in index order** into a fresh or resumed aggregate, and
/// hands every folded die to `on_die` together with the aggregate state
/// after absorbing it. Returning [`ControlFlow::Break`] stops the run at
/// that die boundary: no further die is folded, workers abandon their
/// remaining claims, and the returned [`CampaignRun`] carries the
/// aggregate exactly as `on_die` last saw it — a valid checkpoint state
/// for `next_die = last_index + 1`.
///
/// Because the fold is strictly index-ordered, running dies `0..k` (with
/// `end_die = Some(k)` or via a break), checkpointing, and resuming with
/// `start_die = k` produces an aggregate — and therefore report bytes —
/// identical to one uninterrupted run, at any thread counts on either
/// side of the split. A bounded range is the cheap way to run a slice:
/// no worker computes a die past `end_die`, whereas a break discards
/// whatever the pool had already claimed.
///
/// # Errors
///
/// [`CampaignError::InvalidSpec`] from spec validation, when
/// `start_die` exceeds the die count (a resume cursor from a checkpoint
/// that does not belong to this wafer), or when `end_die` lies before
/// `start_die` or past the die count.
pub fn run_campaign_streaming<F>(
    spec: &CampaignSpec,
    threads: usize,
    options: &StreamOptions,
    mut on_die: F,
) -> Result<CampaignRun, CampaignError>
where
    F: FnMut(&DieOutcome, &CampaignAggregate) -> ControlFlow<()>,
{
    spec.validate()?;
    if let Err(e) = options.chaos.validate() {
        return Err(CampaignError::invalid(format!("chaos spec: {e}")));
    }
    let sites = spec.wafer.sites();
    let start = options.start_die;
    let end = options.end_die.unwrap_or(sites.len());
    if start > end || end > sites.len() {
        return Err(CampaignError::invalid(format!(
            "die range {start}..{end} does not fit the wafer's {} dies",
            sites.len()
        )));
    }
    // Campaign-invariant work hoisted out of the per-die loop: the
    // setpoint list is computed once here, not once per corner per die.
    let setpoints = spec.plan.setpoints();
    let threads = threads.max(1);
    // Dies per cursor bump. A bounded range shorter than one chunk per
    // worker is split evenly instead, so every worker gets a share of a
    // short slice. A run to the wafer's end keeps `CHUNK` claims, so a
    // one-shot run groups and counts its dies as it always has.
    let claim = if options.end_die.is_some() && end - start < threads * CHUNK {
        CHUNK.min((end - start).div_ceil(threads)).max(1)
    } else {
        CHUNK
    };
    let owned_counters;
    let counters: &CampaignCounters = match options.counters.as_deref() {
        Some(shared) => shared,
        None => {
            owned_counters = CampaignCounters::default();
            &owned_counters
        }
    };
    let cursor = Arc::new(AtomicUsize::new(start));
    let tracing = options.trace;
    // Containment state. A chaos plan is built only when the die-panic
    // knob is armed — write/socket faults act at the service layer, not
    // here — and panic verdicts are keyed by die index, so they are
    // thread-count independent.
    let budget = options.budget;
    let chaos_plan = (options.chaos.die_panic_probability > 0.0)
        .then(|| ChaosPlan::new(options.chaos, options.chaos_seed));
    let dropped = AtomicU64::new(0);
    // Run-shared symbolic-LU cache, created here when the caller did not
    // install a cross-campaign one. Every die of a topology then holds
    // the *same* plan `Arc`, so plan install is a pointer compare instead
    // of a structural one. Cached plans are bit-identical to private
    // analysis (see `shared_symbolic_cache_does_not_perturb_results`), so
    // the default share never perturbs results.
    let symbolic_cache = options
        .symbolic_cache
        .clone()
        .unwrap_or_else(|| Arc::new(SymbolicCache::new()));
    // The fold thread's `tid` in exported traces: one past the workers.
    let fold_tid = threads as u32;
    let started = Instant::now();

    let mut aggregate = options
        .resume
        .clone()
        .unwrap_or_else(|| CampaignAggregate::new(spec));
    let mut max_buffer = 0usize;
    let mut stopped = false;
    let mut trace = tracing.then(Trace::default);
    if let Some(t) = trace.as_mut() {
        t.events.push(fold_event(
            SpanPhase::Begin,
            SpanKind::Campaign,
            NO_DIE,
            0,
            0,
            fold_tid,
            0,
        ));
    }

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<DieOutcome>();
        for worker in 0..threads {
            let tx = tx.clone();
            let cursor = Arc::clone(&cursor);
            let sites = &sites;
            let setpoints = &setpoints;
            let symbolic_cache = Some(Arc::clone(&symbolic_cache));
            let dropped = &dropped;
            scope.spawn(move || {
                // One scratch per worker thread: solver buffers reach a
                // steady state after the first die and are reused for
                // every die the thread claims. A panic poisons the
                // scratch mid-die, so containment rebuilds it from this
                // recipe before the next claim.
                let fresh_scratch = |cache: &Option<Arc<SymbolicCache>>| {
                    let mut s = DieScratch::new();
                    s.budget = budget;
                    s.bench.symbolic_cache = cache.clone();
                    if tracing {
                        s.bench.solve.trace.enable(started, worker as u32);
                    }
                    s
                };
                let mut scratch = fresh_scratch(&symbolic_cache);
                'claim: loop {
                    let base = cursor.fetch_add(claim, Ordering::Relaxed);
                    if base >= end {
                        break;
                    }
                    let stop = (base + claim).min(end);
                    for site in &sites[base..stop] {
                        counters.started.fetch_add(1, Ordering::Relaxed);
                        // Solve containment: die work runs under an
                        // unwind guard so one poisoned die retires into
                        // quarantine instead of tearing down the pool.
                        // Injected panics re-raise via `resume_unwind`,
                        // which skips the global panic hook — chaos runs
                        // don't spray backtraces over stderr.
                        let inject = chaos_plan
                            .as_ref()
                            .is_some_and(|p| p.die_panics(site.index as u64));
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            if inject {
                                std::panic::resume_unwind(Box::new("chaos: injected die panic"));
                            }
                            run_die_with(spec, *site, setpoints, &mut scratch)
                        }));
                        let out = match caught {
                            Ok(out) => out,
                            Err(_) => {
                                counters.die_panics.fetch_add(1, Ordering::Relaxed);
                                scratch = fresh_scratch(&symbolic_cache);
                                contained_panic_outcome(spec, *site)
                            }
                        };
                        if out
                            .corners
                            .iter()
                            .any(|c| c.failure == Some(FailureKind::BudgetExhausted))
                        {
                            counters.budgets_exhausted.fetch_add(1, Ordering::Relaxed);
                        }
                        account_die(counters, &mut scratch.bench, &out);
                        if tx.send(out).is_err() {
                            break 'claim; // receiver gone: abandon quietly
                        }
                    }
                }
                dropped.fetch_add(scratch.bench.solve.trace.dropped(), Ordering::Relaxed);
            });
        }
        drop(tx);

        // In-order streaming fold. The BTreeMap holds only out-of-order
        // early arrivals; with chunked claiming its size is bounded by
        // roughly threads x CHUNK, not by the wafer.
        let mut buffer: BTreeMap<usize, (DieOutcome, u64)> = BTreeMap::new();
        let mut next = start;
        'fold: for out in rx {
            let recv_ns = if tracing {
                started.elapsed().as_nanos() as u64
            } else {
                0
            };
            buffer.insert(out.index, (out, recv_ns));
            max_buffer = max_buffer.max(buffer.len());
            while let Some((ready, recv_ns)) = buffer.remove(&next) {
                aggregate.absorb(&ready);
                if let Some(t) = trace.as_mut() {
                    // Die events in index order, then the die's
                    // reorder-buffer wait, with sequence numbers
                    // continuing the die's own stream.
                    let seq = ready.spans.last().map_or(0, |e| e.seq + 1);
                    t.events.extend_from_slice(&ready.spans);
                    let die = ready.index as u32;
                    t.events.push(fold_event(
                        SpanPhase::Begin,
                        SpanKind::QueueWait,
                        die,
                        seq,
                        recv_ns,
                        fold_tid,
                        0,
                    ));
                    t.events.push(fold_event(
                        SpanPhase::End,
                        SpanKind::QueueWait,
                        die,
                        seq + 1,
                        started.elapsed().as_nanos() as u64,
                        fold_tid,
                        buffer.len() as u64,
                    ));
                }
                next += 1;
                if on_die(&ready, &aggregate).is_break() {
                    // Dropping out of the receive loop drops `rx`; the
                    // workers' next send fails and they abandon their
                    // remaining claims. Any dies still in the reorder
                    // buffer stay unfolded — the aggregate stops exactly
                    // at this die boundary.
                    stopped = true;
                    break 'fold;
                }
            }
        }
        debug_assert!(stopped || buffer.is_empty(), "dies missing from the fold");
    });

    if let Some(t) = trace.as_mut() {
        t.dropped = dropped.load(Ordering::Relaxed);
        t.events.push(fold_event(
            SpanPhase::End,
            SpanKind::Campaign,
            NO_DIE,
            1,
            started.elapsed().as_nanos() as u64,
            fold_tid,
            0,
        ));
    }
    let metrics = counters.snapshot(threads, started.elapsed().as_nanos() as u64, max_buffer);
    Ok(CampaignRun {
        spec: spec.clone(),
        aggregate,
        metrics,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, WaferMap};

    fn tiny_spec() -> CampaignSpec {
        let mut s = CampaignSpec::paper_default(WaferMap::full(3, 3), 11);
        s.corners.truncate(1);
        s
    }

    #[test]
    fn rejects_invalid_spec() {
        let mut s = tiny_spec();
        s.corners.clear();
        assert!(run_campaign(&s, 1).is_err());
    }

    #[test]
    fn folds_every_die_exactly_once() {
        let s = tiny_spec();
        let run = run_campaign(&s, 2).unwrap();
        assert_eq!(run.aggregate.dies, 9);
        assert_eq!(run.metrics.dies_started, 9);
        assert_eq!(run.metrics.dies_completed, 9);
        let bins: u64 = run.aggregate.corners[0].bins.iter().sum();
        assert_eq!(bins, 9);
    }

    #[test]
    fn aggregate_is_thread_count_invariant() {
        let s = tiny_spec();
        let one = run_campaign(&s, 1).unwrap();
        let four = run_campaign(&s, 4).unwrap();
        assert_eq!(one.aggregate, four.aggregate);
    }

    #[test]
    fn zero_threads_defaults_to_one_worker() {
        let s = tiny_spec();
        let zero = run_campaign(&s, 0).unwrap();
        let one = run_campaign(&s, 1).unwrap();
        assert_eq!(zero.aggregate, one.aggregate);
        assert_eq!(zero.metrics.threads, 1);
    }

    #[test]
    fn fault_free_run_reports_zero_recovery_activity() {
        let run = run_campaign(&tiny_spec(), 2).unwrap();
        assert_eq!(run.metrics.recovery, Default::default());
        assert!(run.aggregate.quarantine.is_empty());
    }

    #[test]
    fn metrics_record_stage_activity() {
        let s = tiny_spec();
        let run = run_campaign(&s, 1).unwrap();
        for stage in &run.metrics.stages {
            assert_eq!(stage.count, 9, "stage {}", stage.name);
        }
        assert!(run.metrics.dies_per_second > 0.0);
        assert!(run.metrics.max_reorder_buffer >= 1);
    }

    #[test]
    fn streaming_callback_sees_every_die_in_order() {
        let s = tiny_spec();
        let mut seen = Vec::new();
        let run = run_campaign_streaming(&s, 4, &StreamOptions::default(), |die, agg| {
            seen.push(die.index);
            assert_eq!(agg.dies as usize, die.index + 1);
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
        assert_eq!(run.aggregate.dies, 9);
    }

    #[test]
    fn break_stops_at_the_exact_die_boundary() {
        let s = tiny_spec();
        for threads in [1, 2, 8] {
            let run = run_campaign_streaming(&s, threads, &StreamOptions::default(), |die, _| {
                if die.index == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
            assert_eq!(run.aggregate.dies, 4, "threads={threads}");
        }
    }

    #[test]
    fn sliced_run_equals_uninterrupted_run() {
        let s = tiny_spec();
        let whole = run_campaign(&s, 2).unwrap();
        // Fold dies 0..4 in one engine call, 4..9 in a second that
        // resumes from the first's aggregate — at different thread counts.
        let first = run_campaign_streaming(&s, 1, &StreamOptions::default(), |die, _| {
            if die.index == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        let resumed = run_campaign_streaming(
            &s,
            4,
            &StreamOptions {
                start_die: 4,
                resume: Some(first.aggregate),
                ..StreamOptions::default()
            },
            |_, _| ControlFlow::Continue(()),
        )
        .unwrap();
        assert_eq!(resumed.aggregate, whole.aggregate);
    }

    #[test]
    fn start_beyond_wafer_is_invalid() {
        let s = tiny_spec();
        let options = StreamOptions {
            start_die: 10,
            ..StreamOptions::default()
        };
        assert!(run_campaign_streaming(&s, 1, &options, |_, _| ControlFlow::Continue(())).is_err());
    }

    #[test]
    fn start_die_boundary_matrix_resumes_and_terminates_cleanly() {
        // 20 dies probes every boundary class: 0 (fresh), mid-chunk (8),
        // the claim chunk and the service's default slice cadence (both
        // CHUNK = 16), the last die, one-past-the-end (a valid empty
        // resume), and beyond (invalid).
        let mut s = CampaignSpec::paper_default(WaferMap::full(4, 5), 23);
        s.corners.truncate(1);
        let len = s.wafer.die_count();
        assert_eq!(len, 20);
        let whole = run_campaign(&s, 2).unwrap();

        for start in [0usize, 8, 16, len - 1, len] {
            // Build the exact prefix aggregate for dies 0..start.
            let prefix = if start == 0 {
                None
            } else {
                Some(
                    run_campaign_streaming(&s, 1, &StreamOptions::default(), |die, _| {
                        if die.index + 1 == start {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    })
                    .unwrap()
                    .aggregate,
                )
            };
            let mut seen = Vec::new();
            let resumed = run_campaign_streaming(
                &s,
                2,
                &StreamOptions {
                    start_die: start,
                    resume: prefix,
                    ..StreamOptions::default()
                },
                |die, _| {
                    seen.push(die.index);
                    ControlFlow::Continue(())
                },
            )
            .unwrap();
            assert_eq!(seen, (start..len).collect::<Vec<_>>(), "start={start}");
            assert_eq!(resumed.aggregate, whole.aggregate, "start={start}");
        }

        // start == die count is an *empty* resume, not an error: the
        // aggregate must come back untouched with no dies folded.
        let full = run_campaign(&s, 1).unwrap();
        let empty = run_campaign_streaming(
            &s,
            2,
            &StreamOptions {
                start_die: len,
                resume: Some(full.aggregate.clone()),
                ..StreamOptions::default()
            },
            |_, _| panic!("no die may fold on an empty resume"),
        )
        .unwrap();
        assert_eq!(empty.aggregate, full.aggregate);
        assert_eq!(empty.metrics.dies_started, 0);

        // One past that is a cursor from some other wafer: typed error.
        let err = run_campaign_streaming(
            &s,
            1,
            &StreamOptions {
                start_die: len + 1,
                ..StreamOptions::default()
            },
            |_, _| ControlFlow::Continue(()),
        );
        assert!(err.is_err());
    }

    /// Thread counts and range lengths of the bounded-range tests: shorter
    /// than one chunk, one chunk, just past it, and past two chunks.
    const RANGE_THREADS: [usize; 3] = [1, 2, 8];
    const RANGE_LENS: [usize; 5] = [1, 7, 16, 17, 33];

    fn range_spec() -> CampaignSpec {
        let mut s = CampaignSpec::paper_default(WaferMap::full(5, 7), 29);
        s.corners.truncate(1);
        assert_eq!(s.wafer.die_count(), 35);
        s
    }

    fn bounded(start_die: usize, end_die: usize) -> StreamOptions {
        StreamOptions {
            start_die,
            end_die: Some(end_die),
            ..StreamOptions::default()
        }
    }

    #[test]
    fn bounded_range_starts_exactly_its_dies() {
        let s = range_spec();
        for threads in RANGE_THREADS {
            for len in RANGE_LENS {
                // Start off the claim grid so no bound lines up by luck.
                let (start, end) = (1, 1 + len);
                let mut seen = Vec::new();
                let run = run_campaign_streaming(&s, threads, &bounded(start, end), |die, _| {
                    seen.push(die.index);
                    ControlFlow::Continue(())
                })
                .unwrap();
                let case = format!("threads={threads} len={len}");
                assert_eq!(seen, (start..end).collect::<Vec<_>>(), "{case}");
                assert_eq!(run.metrics.dies_started, len as u64, "{case}");
                assert_eq!(run.metrics.dies_completed, len as u64, "{case}");
                assert_eq!(run.aggregate.dies, len as u64, "{case}");
            }
        }
    }

    #[test]
    fn bounded_slices_concatenated_through_resume_equal_the_one_shot_run() {
        let s = range_spec();
        let total = s.wafer.die_count();
        let whole = run_campaign(&s, 2).unwrap();
        for threads in RANGE_THREADS {
            for len in RANGE_LENS {
                let counters = Arc::new(CampaignCounters::default());
                let mut aggregate = None;
                for start in (0..total).step_by(len) {
                    let options = StreamOptions {
                        resume: aggregate.take(),
                        counters: Some(Arc::clone(&counters)),
                        ..bounded(start, (start + len).min(total))
                    };
                    let run = run_campaign_streaming(&s, threads, &options, |_, _| {
                        ControlFlow::Continue(())
                    })
                    .unwrap();
                    aggregate = Some(run.aggregate);
                }
                let case = format!("threads={threads} len={len}");
                assert_eq!(aggregate.as_ref(), Some(&whole.aggregate), "{case}");
                let m = counters.snapshot(threads, 1, 1);
                assert_eq!(m.dies_started, total as u64, "{case}");
                assert_eq!(m.dies_completed, total as u64, "{case}");
            }
        }
    }

    #[test]
    fn end_bound_outside_the_wafer_or_before_the_start_is_invalid() {
        let s = tiny_spec();
        let run = |options: StreamOptions| {
            run_campaign_streaming(&s, 2, &options, |_, _| ControlFlow::Continue(()))
        };
        assert!(run(bounded(4, 3)).is_err());
        assert!(run(bounded(0, 10)).is_err());
        // An empty range is a valid no-op, as an empty resume is.
        let empty = run(bounded(4, 4)).unwrap();
        assert_eq!(empty.aggregate.dies, 0);
        assert_eq!(empty.metrics.dies_started, 0);
    }

    #[test]
    fn injected_die_panics_are_contained_and_thread_invariant() {
        let s = tiny_spec();
        let options = StreamOptions {
            chaos: ChaosSpec {
                die_panic_probability: 0.5,
                ..ChaosSpec::none()
            },
            chaos_seed: 7,
            ..StreamOptions::default()
        };
        let one = run_campaign_with(&s, 1, &options).unwrap();
        let panicked = one.metrics.containment.die_panics;
        assert!(
            panicked > 0 && panicked < 9,
            "p=0.5 over 9 dies should contain some but not all: {panicked}"
        );
        // Panicked dies retire as InternalPanic quarantine records...
        let recorded = one
            .aggregate
            .quarantine
            .iter()
            .filter(|r| r.kind == FailureKind::InternalPanic)
            .count() as u64;
        assert_eq!(recorded, panicked);
        // ...and the verdict is keyed by die index, so the aggregate is
        // identical at any thread count.
        let eight = run_campaign_with(&s, 8, &options).unwrap();
        assert_eq!(one.aggregate, eight.aggregate);
        assert_eq!(eight.metrics.containment.die_panics, panicked);
        // Zero probability is a structural no-op: bit-identical to a run
        // with no chaos at all.
        let plain = run_campaign(&s, 2).unwrap();
        let zeroed = run_campaign_with(
            &s,
            2,
            &StreamOptions {
                chaos_seed: 7,
                ..StreamOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain.aggregate, zeroed.aggregate);
        assert_eq!(zeroed.metrics.containment.die_panics, 0);
    }

    #[test]
    fn die_budget_retires_runaway_corners_deterministically() {
        let mut s = CampaignSpec::paper_default(WaferMap::full(3, 3), 11);
        s.corners.truncate(3);
        let options = StreamOptions {
            budget: DieBudget {
                max_newton_iterations: 1,
                max_wall_ms: 0,
            },
            ..StreamOptions::default()
        };
        let one = run_campaign_with(&s, 1, &options).unwrap();
        // One Newton iteration can never finish a die's first corner
        // without tripping the budget, so every die loses its later
        // corners — but the first corner always completes.
        assert_eq!(one.metrics.containment.budgets_exhausted, 9);
        let retired = one
            .aggregate
            .quarantine
            .iter()
            .filter(|r| r.kind == FailureKind::BudgetExhausted)
            .count();
        assert_eq!(retired, 9 * 2, "corners after the overrun are retired");
        // Iteration budgets force the scalar path and key off per-die
        // solver work: the verdict is thread-count invariant.
        let eight = run_campaign_with(&s, 8, &options).unwrap();
        assert_eq!(one.aggregate, eight.aggregate);
        // An unlimited budget is bit-identical to no budget at all.
        let plain = run_campaign(&s, 2).unwrap();
        let unlimited = run_campaign_with(&s, 2, &StreamOptions::default()).unwrap();
        assert_eq!(plain.aggregate, unlimited.aggregate);
    }

    #[test]
    fn invalid_chaos_spec_is_rejected_before_any_thread_spawns() {
        let s = tiny_spec();
        let options = StreamOptions {
            chaos: ChaosSpec {
                die_panic_probability: 1.5,
                ..ChaosSpec::none()
            },
            ..StreamOptions::default()
        };
        assert!(run_campaign_with(&s, 2, &options).is_err());
    }

    #[test]
    fn shared_symbolic_cache_does_not_perturb_results() {
        let s = tiny_spec();
        let plain = run_campaign(&s, 2).unwrap();
        let cache = std::sync::Arc::new(icvbe_spice::cache::SymbolicCache::default());
        let options = StreamOptions {
            symbolic_cache: Some(std::sync::Arc::clone(&cache)),
            ..StreamOptions::default()
        };
        let cached =
            run_campaign_streaming(&s, 2, &options, |_, _| ControlFlow::Continue(())).unwrap();
        assert_eq!(cached.aggregate, plain.aggregate);
        assert!(cache.hits() + cache.misses() > 0);
    }
}
