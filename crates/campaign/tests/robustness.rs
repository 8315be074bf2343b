//! Fault-injection robustness contracts:
//!
//! 1. Fault-injected campaigns are byte-identical at 1/2/8 threads — the
//!    determinism guarantee survives retries and robust recovery.
//! 2. A zero-fault `FaultSpec` reproduces the historical aggregate bytes
//!    exactly (golden fixtures generated before the robustness layer
//!    landed).
//! 3. A seeded corruption sweep runs the full per-die pipeline without
//!    panicking and always lands in a taxonomy bin.
//! 4. Retries + pooled robust fitting recover at least twice the passing
//!    yield of the bare pipeline on a heavily corrupted wafer, with the
//!    gain visible per taxonomy bin.

use icvbe_campaign::aggregate::YieldBin;
use icvbe_campaign::die::run_die;
use icvbe_campaign::report::{aggregate_csv, aggregate_json, quarantine_csv, quarantine_json};
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::taxonomy::FailureKind;
use icvbe_campaign::{run_campaign, CampaignRun};
use icvbe_instrument::faults::FaultSpec;

fn faulted_spec() -> CampaignSpec {
    let mut s = CampaignSpec::paper_default(WaferMap::circular(6), 0xFA17_ED01);
    s.faults = FaultSpec::light();
    s
}

fn artifacts(run: &CampaignRun) -> [String; 4] {
    [
        aggregate_json(run),
        aggregate_csv(run),
        quarantine_json(run),
        quarantine_csv(run),
    ]
}

#[test]
fn fault_injected_artifacts_are_identical_at_1_2_and_8_threads() {
    let spec = faulted_spec();
    let one = run_campaign(&spec, 1).unwrap();
    let two = run_campaign(&spec, 2).unwrap();
    let eight = run_campaign(&spec, 8).unwrap();
    assert_eq!(artifacts(&one), artifacts(&two));
    assert_eq!(artifacts(&one), artifacts(&eight));
}

#[test]
fn zero_fault_spec_reproduces_golden_aggregate_bytes() {
    // Fixtures were written by the pre-robustness engine and regenerated
    // at each change to the solver or the fold: once when aggregation
    // moved to exact superaccumulators, at each solver change since (the
    // per-unknown Newton step test moved aggregates ≤ 3.3e-12 relative),
    // and once when it moved back to Welford recurrences folded in die
    // order (≤ 2.7e-15 relative): the fault-injection layer must be a
    // strict no-op when every knob is zero.
    let spec = CampaignSpec::paper_default(WaferMap::circular(4), 7);
    assert!(
        spec.faults.is_none(),
        "paper default must not inject faults"
    );
    let run = run_campaign(&spec, 1).unwrap();
    assert_eq!(
        aggregate_json(&run),
        include_str!("fixtures/zero_fault_aggregate.json"),
        "zero-fault aggregate JSON drifted from the golden bytes"
    );
    assert_eq!(
        aggregate_csv(&run),
        include_str!("fixtures/zero_fault_aggregate.csv"),
        "zero-fault aggregate CSV drifted from the golden bytes"
    );
}

#[test]
fn corruption_sweep_never_panics_and_always_bins() {
    // Many corruption universes through the full per-die pipeline. Heavy
    // faults at several seeds exercise dropped points, stuck readings,
    // NaN bursts and drift in combination.
    for seed in 0..24u64 {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), seed);
        spec.corners.truncate(1);
        spec.faults = FaultSpec::heavy();
        spec.retry_budget = 2;
        for site in spec.wafer.sites() {
            let out = run_die(&spec, site);
            for c in &out.corners {
                // Every corner lands in exactly one consistent state: a
                // yield bin, with taxonomy iff quarantined and values iff
                // not.
                assert_eq!(c.failure.is_some(), c.bin == YieldBin::SolveFail);
                assert_eq!(c.values.is_some(), c.bin != YieldBin::SolveFail);
                assert!(c.attempts >= 1 && c.attempts <= 1 + spec.retry_budget);
                if let Some(v) = c.values {
                    assert!(v.eg_ev.is_finite() && v.xti.is_finite());
                }
            }
        }
    }
}

#[test]
fn recovery_at_least_doubles_passing_yield_under_heavy_faults() {
    let wafer = WaferMap::circular(8);
    let mut bare = CampaignSpec::paper_default(wafer, 2002);
    bare.faults = FaultSpec::heavy();
    bare.retry_budget = 0;
    bare.robust = false;
    let mut recovering = bare.clone();
    recovering.retry_budget = 3;
    recovering.robust = true;

    let base = run_campaign(&bare, 4).unwrap();
    let rec = run_campaign(&recovering, 4).unwrap();

    let passes = |run: &CampaignRun| -> u64 {
        run.aggregate
            .corners
            .iter()
            .map(|c| c.bins[YieldBin::Pass.index()])
            .sum()
    };
    let (p_base, p_rec) = (passes(&base), passes(&rec));
    assert!(p_base > 0, "heavy faults should not wipe out the baseline");
    assert!(
        p_rec >= 2 * p_base,
        "recovery must at least double passing yield: {p_base} -> {p_rec}"
    );

    // The gain is attributable per taxonomy bin: kinds quarantined in the
    // bare run show up as recovered-from in the recovering run.
    let totals =
        |run: &CampaignRun,
         f: fn(&icvbe_campaign::aggregate::CornerAggregate) -> [u64; FailureKind::COUNT]| {
            run.aggregate
                .corners
                .iter()
                .fold([0u64; FailureKind::COUNT], |mut acc, c| {
                    for (a, n) in acc.iter_mut().zip(f(c)) {
                        *a += n;
                    }
                    acc
                })
        };
    let quarantined_bare = totals(&base, |c| c.failures);
    let recovered = totals(&rec, |c| c.recovered);
    for kind in [
        FailureKind::NonFiniteInput,
        FailureKind::InsufficientPoints,
        FailureKind::Degenerate,
    ] {
        assert!(
            quarantined_bare[kind.index()] > 0,
            "heavy faults should produce {kind} in the bare run"
        );
        assert!(
            recovered[kind.index()] > 0,
            "recovery should rescue at least one {kind} corner"
        );
    }
    assert!(
        rec.metrics.recovery.robust_recoveries > 0,
        "the pooled robust fit should rescue at least one corner"
    );
    assert!(
        rec.metrics.recovery.corners_quarantined < base.metrics.recovery.corners_quarantined,
        "recovery must shrink the quarantine"
    );

    // The bare run's metrics mirror its aggregate: nothing retried,
    // nothing recovered, every SolveFail quarantined.
    assert_eq!(base.metrics.recovery.corners_retried, 0);
    assert_eq!(base.metrics.recovery.corners_recovered, 0);
    assert_eq!(
        base.metrics.recovery.corners_quarantined,
        base.aggregate.quarantine.len() as u64
    );
}
