//! The campaign engine's headline guarantee, tested end to end: the
//! aggregate artifacts are **byte-identical** for any worker thread
//! count, and independent runs of the same spec reproduce them.

use icvbe_campaign::report::{aggregate_csv, aggregate_json};
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::{run_campaign, CampaignRun};

fn spec() -> CampaignSpec {
    CampaignSpec::paper_default(WaferMap::circular(8), 0xD1E5_EED5)
}

fn run(threads: usize) -> CampaignRun {
    run_campaign(&spec(), threads).expect("campaign run")
}

#[test]
fn aggregate_artifacts_are_identical_at_1_2_and_8_threads() {
    let runs = [run(1), run(2), run(8)];
    let json: Vec<String> = runs.iter().map(aggregate_json).collect();
    let csv: Vec<String> = runs.iter().map(aggregate_csv).collect();
    assert_eq!(json[0], json[1], "1 vs 2 threads (JSON)");
    assert_eq!(json[0], json[2], "1 vs 8 threads (JSON)");
    assert_eq!(csv[0], csv[1], "1 vs 2 threads (CSV)");
    assert_eq!(csv[0], csv[2], "1 vs 8 threads (CSV)");
    // The in-memory aggregates match too (stronger than string equality).
    assert_eq!(runs[0].aggregate, runs[1].aggregate);
    assert_eq!(runs[0].aggregate, runs[2].aggregate);
}

#[test]
fn every_solve_after_a_pairs_first_is_warm_started() {
    // Warm starts are always on: each die/corner's first solve is the
    // only cold one, so the hit rate sits far above nine in ten.
    let m = run(2).metrics.solver;
    assert!(m.warm_start_misses > 0);
    assert!(
        m.warm_hit_rate() > 0.9,
        "warm hit rate {}",
        m.warm_hit_rate()
    );
}

#[test]
fn repeated_runs_reproduce_the_artifact_bytes() {
    let a = aggregate_json(&run(2));
    let b = aggregate_json(&run(2));
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_aggregates() {
    let mut other = spec();
    other.seed ^= 1;
    let base = run_campaign(&spec(), 2).expect("base run");
    let moved = run_campaign(&other, 2).expect("reseeded run");
    assert_ne!(aggregate_json(&base), aggregate_json(&moved));
}
