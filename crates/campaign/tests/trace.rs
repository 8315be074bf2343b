//! The tracing layer's headline guarantee, tested end to end: the
//! logical span stream of a campaign — kinds, die/corner/attempt stamps,
//! sequence numbers, solver strategies and iteration payloads — is
//! **byte-identical** at any worker thread count once the wall-clock
//! fields (`ts`, `tid`, `nd_*`) are masked; and tracing is passive — it
//! never perturbs the physics it observes.

use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::{run_campaign, run_campaign_with, CampaignRun, StreamOptions};
use icvbe_instrument::faults::FaultSpec;
use icvbe_trace::{mask_nondeterministic, SpanKind, SpanPhase, Trace};

fn spec() -> CampaignSpec {
    // The acceptance wafer: 8 dies across, circular cut, paper defaults.
    CampaignSpec::paper_default(WaferMap::circular(8), 0xD1E5_EED5)
}

fn traced(spec: &CampaignSpec, threads: usize) -> CampaignRun {
    run_campaign_with(
        spec,
        threads,
        &StreamOptions {
            trace: true,
            ..StreamOptions::default()
        },
    )
    .expect("traced campaign run")
}

fn trace_of(run: &CampaignRun) -> &Trace {
    run.trace.as_ref().expect("trace requested but absent")
}

/// The folded profile with its wall-clock sample counts stripped: the
/// deterministic frame paths, in their sorted order.
fn folded_paths(t: &Trace) -> Vec<String> {
    t.folded()
        .lines()
        .map(|l| l.rsplit_once(' ').expect("`path ns` line").0.to_string())
        .collect()
}

#[test]
fn masked_chrome_trace_is_byte_identical_at_1_2_and_8_threads() {
    let spec = spec();
    let runs = [traced(&spec, 1), traced(&spec, 2), traced(&spec, 8)];
    let masked: Vec<String> = runs
        .iter()
        .map(|r| mask_nondeterministic(&trace_of(r).chrome_json()))
        .collect();
    assert!(masked[0].contains("\"schema\":\"icvbe-campaign-trace-v1\""));
    assert!(masked[0].contains("\"name\":\"newton\""));
    assert!(masked[0].contains("\"strategy\":\"warm_start\""));
    assert_eq!(masked[0], masked[1], "1 vs 2 threads (masked chrome JSON)");
    assert_eq!(masked[0], masked[2], "1 vs 8 threads (masked chrome JSON)");

    // The collapsed-stack frame paths are deterministic too, and walk the
    // whole pipeline hierarchy.
    let paths = folded_paths(trace_of(&runs[0]));
    assert_eq!(paths, folded_paths(trace_of(&runs[1])));
    assert_eq!(paths, folded_paths(trace_of(&runs[2])));
    for expected in [
        "campaign",
        "campaign;die;sample",
        "campaign;die;corner;measure;dc_solve;rung:warm_start;newton",
        "campaign;die;corner;extract;attempt",
        "campaign;queue_wait",
    ] {
        assert!(
            paths.iter().any(|p| p == expected),
            "missing folded path {expected:?} in {paths:?}"
        );
    }
}

#[test]
fn trace_events_carry_deterministic_logical_fields() {
    let spec = spec();
    let t = traced(&spec, 4);
    let trace = trace_of(&t);
    assert_eq!(trace.dropped, 0, "paper-default dies fit the buffer");

    // Bracketed by the campaign root span.
    let first = trace.events.first().expect("non-empty trace");
    let last = trace.events.last().expect("non-empty trace");
    assert_eq!(
        (first.kind, first.phase),
        (SpanKind::Campaign, SpanPhase::Begin)
    );
    assert_eq!(
        (last.kind, last.phase),
        (SpanKind::Campaign, SpanPhase::End)
    );

    // Dies appear in index order, each with exactly one begin/end pair
    // and one queue-wait span.
    let die_begins: Vec<u32> = trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Die && e.phase == SpanPhase::Begin)
        .map(|e| e.die)
        .collect();
    let expected: Vec<u32> = (0..spec.wafer.sites().len() as u32).collect();
    assert_eq!(die_begins, expected, "dies merged in index order");
    let queue_waits = trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::QueueWait && e.phase == SpanPhase::End)
        .count();
    assert_eq!(queue_waits, expected.len(), "one queue-wait span per die");

    // Every corner span is stamped with its corner index; newton end
    // records carry the iteration-count payload (a seeded solve may
    // legitimately converge in zero iterations, but not all of them).
    let corners = spec.corners.len() as i32;
    assert!(trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Corner)
        .all(|e| e.corner >= 0 && e.corner < corners));
    assert!(trace
        .events
        .iter()
        .any(|e| e.kind == SpanKind::Newton && e.phase == SpanPhase::End && e.n0 > 0));

    // The top-N helpers rank real spans.
    assert_eq!(trace.slowest_dies(3).len(), 3);
    assert_eq!(trace.slowest_corners(3).len(), 3);
}

#[test]
fn tracing_is_passive_and_off_by_default() {
    let spec = spec();
    let plain = run_campaign(&spec, 2).expect("untraced run");
    assert!(plain.trace.is_none(), "tracing must be opt-in");
    let with_trace = traced(&spec, 2);
    // Observing the run must not change it: same aggregate, bit for bit.
    assert_eq!(plain.aggregate, with_trace.aggregate);
}

#[test]
fn faulted_retry_ladders_trace_deterministically() {
    // Heavy fault injection exercises the attempt loop and the robust
    // recovery; the masked trace must stay thread-count invariant and
    // record the per-attempt spans with their stamps and verdicts.
    let mut spec = CampaignSpec::paper_default(WaferMap::full(3, 3), 0xFA017);
    spec.corners.truncate(2);
    spec.faults = FaultSpec::heavy();
    spec.retry_budget = 3;
    spec.robust = true;
    let a = traced(&spec, 1);
    let b = traced(&spec, 4);
    assert_eq!(
        mask_nondeterministic(&trace_of(&a).chrome_json()),
        mask_nondeterministic(&trace_of(&b).chrome_json()),
        "faulted trace must be thread-count invariant after masking"
    );
    let trace = trace_of(&a);
    let attempts: Vec<i32> = trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Attempt && e.phase == SpanPhase::Begin)
        .map(|e| e.attempt)
        .collect();
    assert!(!attempts.is_empty());
    assert!(
        attempts.iter().any(|&a| a > 0),
        "heavy faults must trigger retries (attempt ordinals past 0)"
    );
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.kind == SpanKind::RobustFit && e.phase == SpanPhase::End),
        "robust recovery must appear in the trace"
    );
}
