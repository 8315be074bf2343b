//! The campaign engine's headline guarantee, tested end to end: the
//! aggregate artifacts are **byte-identical** for any worker thread
//! count, and independent runs of the same spec reproduce them. Under it
//! sits the solve contract: every pair solve converges from its own
//! closed-form seed.

mod common;

use common::ideal_card;
use icvbe_bandgap::card::st_bicmos_pnp;
use icvbe_bandgap::pair::PairStructure;
use icvbe_campaign::die::{run_die_with, DieScratch};
use icvbe_campaign::report::{aggregate_csv, aggregate_json};
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::{run_campaign, CampaignRun};
use icvbe_instrument::bench::{SolveMode, TestStructureBench};
use icvbe_spice::bjt::SubstrateJunction;
use icvbe_spice::ladder::SolveStrategy;
use icvbe_spice::workspace::{SolveStats, SolveWorkspace};
use icvbe_units::{Ampere, Kelvin};

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

/// Asserts that every solve booked in `stats` converged on the seeded
/// rung: no cold, gmin or source-stepping success and no exhausted ladder.
fn assert_all_seeded(stats: &SolveStats, what: &str) {
    assert!(stats.solves > 0, "{what}: no solves");
    let mut want = [0; 4];
    want[SolveStrategy::WarmStart.index()] = stats.solves;
    assert_eq!(stats.ladder_success, want, "{what}");
    assert_eq!(stats.ladder_exhausted, 0, "{what}");
}

#[test]
fn every_pair_solve_converges_from_its_closed_form_seed() {
    // Both cards, with and without the substrate parasitic, over the
    // paper's current range (10 nA-10 uA) and 223-398 K: each solve must
    // converge on the seeded rung, within a Newton-step bound. Every step
    // counts, the final full steps of the step test included. Measured
    // maximum: 6 steps in one solve (x86-64); the bound is 7.
    const DAMPED_BOUND: u64 = 7;
    let options = TestStructureBench::campaign_dc_options_with(SolveMode);
    let mut ws = SolveWorkspace::new();
    let mut worst = 0;
    for card in [st_bicmos_pnp(), ideal_card()] {
        for bias in [1e-8, 1e-7, 0.5e-6, 1e-6, 2e-6, 1e-5] {
            let clean = PairStructure::ideal(card, Ampere::new(bias));
            let leaky = clean
                .clone()
                .with_substrate(SubstrateJunction::bicmos_default());
            for pair in [clean, leaky] {
                let mut compiled = pair.compile().unwrap();
                for i in 0..8 {
                    let t = Kelvin::new(223.15 + 25.0 * f64::from(i));
                    let before = ws.stats.newton_iterations;
                    compiled.measure_at(t, &options, &mut ws, true).unwrap();
                    worst = worst.max(ws.stats.newton_iterations - before);
                }
            }
        }
    }
    assert_all_seeded(&ws.stats, "structure grid");
    assert!(worst <= DAMPED_BOUND, "{worst} Newton steps in one solve");

    // One d8 campaign: every die's corner sweeps, electro-thermal loop
    // included. Measured maximum: 4.73 Newton steps per solve, averaged
    // over one die (x86-64); the bound is 5.
    const PER_DIE_BOUND: f64 = 5.0;
    let spec = spec();
    let setpoints = spec.plan.setpoints();
    let mut scratch = DieScratch::new();
    let mut worst_die = 0.0_f64;
    for site in spec.wafer.sites() {
        let (solves, newton) = (
            scratch.bench.solve.stats.solves,
            scratch.bench.solve.stats.newton_iterations,
        );
        let _ = run_die_with(&spec, site, &setpoints, &mut scratch);
        let stats = &scratch.bench.solve.stats;
        let per_solve = (stats.newton_iterations - newton) as f64 / (stats.solves - solves) as f64;
        worst_die = worst_die.max(per_solve);
    }
    assert_all_seeded(&scratch.bench.solve.stats, "d8 campaign");
    assert!(
        worst_die <= PER_DIE_BOUND,
        "{worst_die} Newton steps per solve on one die"
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
