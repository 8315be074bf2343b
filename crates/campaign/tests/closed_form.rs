//! Closed-form yardstick for the campaign solve path.
//!
//! On an ideal card (no base-emitter leakage, no high injection, no Early
//! effect, no substrate parasitic, no self-heating) the Gummel-Poon pair
//! of Fig. 2 reduces to the textbook ideal-diode law
//! `IC = IS(T) (exp(VBE / (nf VT)) - 1)` with `IS(T)` from eq. 1. Every
//! campaign bias corner and plan setpoint is solved through the same
//! compiled-pair path and solver options a campaign die uses, and the
//! answers are scored against that law, evaluated here with libm rather
//! than the solver's own exponential kernel.

mod common;

use common::ideal_card;
use icvbe_bandgap::pair::{PairReading, PairStructure};
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_instrument::bench::{SolveMode, TestStructureBench};
use icvbe_spice::bjt::BjtParams;
use icvbe_spice::workspace::SolveWorkspace;
use icvbe_units::constants::{BOLTZMANN_OVER_Q, Q_OVER_BOLTZMANN};
use icvbe_units::Ampere;

/// Largest relative gap between a solved collector current and the
/// ideal-diode law at the solved `VBE`. Measured: 2.2e-16 (one ulp of
/// the exponential) on x86-64; the bound is ~10x that.
const IC_REL_BOUND: f64 = 2e-15;

/// Largest relative KCL mismatch at QA's emitter between the forced bias
/// and the closed-form emitter current at the solved `VBE`. Measured:
/// 3.4e-15 on x86-64; the bound is ~10x that.
const KCL_REL_BOUND: f64 = 4e-14;

/// Largest gap between the card's `EG` and the Arrhenius fit of the
/// solved saturation currents, in eV. Measured: 0 (bit-exact) on x86-64.
/// One ulp of `ln(IS/T^XTI)` (~7e-15) moves the fitted `EG` by ~4e-16 eV
/// over the paper's plan; the bound is ~10x that.
const EG_BOUND_EV: f64 = 5e-15;

/// Eq. 1: `IS(T) = IS (T/Tnom)^XTI exp(q EG/k (1/Tnom - 1/T))`.
fn is_eq1(card: &BjtParams, t: f64) -> f64 {
    let t0 = card.t_nom.value();
    card.is.value()
        * (t / t0).powf(card.xti)
        * (Q_OVER_BOLTZMANN * card.eg.value() * (1.0 / t0 - 1.0 / t)).exp()
}

/// The ideal-diode law at `vbe` for a device of `area` unit devices.
fn ideal_ic(card: &BjtParams, area: f64, vbe: f64, t: f64) -> f64 {
    let vt = BOLTZMANN_OVER_Q * t;
    area * is_eq1(card, t) * ((vbe / (card.nf * vt)).exp() - 1.0)
}

fn rel_gap(got: f64, want: f64) -> f64 {
    ((got - want) / want).abs()
}

/// Solves every campaign corner at every plan setpoint on the ideal card:
/// `(bias, readings in setpoint order)` per corner, plus the gmin floor
/// the solves ran with.
fn solve_campaign_grid() -> (Vec<(Ampere, Vec<PairReading>)>, f64) {
    let spec = CampaignSpec::paper_default(WaferMap::full(1, 1), 1);
    let options = TestStructureBench::campaign_dc_options_with(SolveMode);
    let mut ws = SolveWorkspace::new();
    let grid = spec
        .corners
        .iter()
        .map(|corner| {
            let mut pair = PairStructure::ideal(ideal_card(), corner.ic)
                .compile()
                .unwrap();
            let readings = spec
                .plan
                .setpoints()
                .iter()
                .map(|sp| {
                    pair.measure_at(sp.to_kelvin(), &options, &mut ws, true)
                        .unwrap()
                })
                .collect();
            (corner.ic, readings)
        })
        .collect();
    (grid, options.gmin_floor)
}

#[test]
fn solved_pair_follows_the_ideal_diode_law_with_eq1_saturation_current() {
    let card = ideal_card();
    let (grid, gmin) = solve_campaign_grid();
    assert_eq!(grid.len(), 3, "the paper's low/nom/high corners");
    for (bias, readings) in &grid {
        assert_eq!(readings.len(), 3, "the paper's three setpoints");
        for r in readings {
            let t = r.temperature.value();
            for (ic, vbe, area) in [(r.ic_a, r.vbe_a, 1.0), (r.ic_b, r.vbe_b, 8.0)] {
                let want = ideal_ic(&card, area, vbe.value(), t);
                let gap = rel_gap(ic.value(), want);
                assert!(
                    gap <= IC_REL_BOUND,
                    "bias {bias}, T {t} K, area {area}: IC {} vs closed form {want} ({gap:e})",
                    ic.value()
                );
            }
            // KCL at QA's emitter: the forced bias leaves as the emitter
            // current IC (1 + 1/BF(T)) plus the solver's gmin floor.
            let vbe = r.vbe_a.value();
            let bf = card.bf * (t / card.t_nom.value()).powf(card.xtb);
            let ie = ideal_ic(&card, 1.0, vbe, t) * (1.0 + 1.0 / bf) + gmin * vbe;
            let gap = rel_gap(ie, bias.value());
            assert!(
                gap <= KCL_REL_BOUND,
                "bias {bias}, T {t} K: closed-form emitter current {ie} ({gap:e})"
            );
        }
    }
}

#[test]
fn arrhenius_fit_of_solved_saturation_currents_returns_the_card_eg() {
    let card = ideal_card();
    let (grid, _) = solve_campaign_grid();
    for (bias, readings) in grid {
        // Back out IS(T) from each solved (VBE, IC) through the diode law,
        // then fit ln(IS / T^XTI) = c - (q EG / k) / T.
        let points: Vec<(f64, f64)> = readings
            .iter()
            .map(|r| {
                let t = r.temperature.value();
                let vt = BOLTZMANN_OVER_Q * t;
                let is = r.ic_a.value() / ((r.vbe_a.value() / (card.nf * vt)).exp() - 1.0);
                (1.0 / t, (is / t.powf(card.xti)).ln())
            })
            .collect();
        let n = points.len() as f64;
        let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
        let my = points.iter().map(|p| p.1).sum::<f64>() / n;
        let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
        let eg = -(sxy / sxx) * BOLTZMANN_OVER_Q;
        assert!(
            (eg - card.eg.value()).abs() <= EG_BOUND_EV,
            "bias {bias}: fitted EG {eg} vs card {}",
            card.eg.value()
        );
    }
}
