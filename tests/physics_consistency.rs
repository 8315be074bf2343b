//! Cross-crate physics consistency: the closed forms of `icvbe-devphys`
//! and the circuit solutions of `icvbe-spice` must describe the same
//! device.

use icvbe::bandgap::card::st_bicmos_pnp;
use icvbe::devphys::vbe::{eq13_from_spice_law, vbe_for_current};
use icvbe::spice::bjt::{Bjt, Polarity};
use icvbe::spice::element::CurrentSource;
use icvbe::spice::netlist::Circuit;
use icvbe::spice::solver::{solve_dc, DcOptions};
use icvbe::spice::sweep::{temperature_grid, temperature_sweep};
use icvbe::units::{Ampere, Kelvin, Volt};

/// Builds a diode-connected PNP biased by an ideal current source and
/// returns the solved VEB.
fn circuit_vbe(ic: Ampere, temperature: Kelvin) -> f64 {
    let mut ckt = Circuit::new();
    let gnd = Circuit::ground();
    let e = ckt.node("e");
    ckt.add(CurrentSource::new("IB", gnd, e, ic));
    ckt.add(Bjt::new("Q", gnd, gnd, e, Polarity::Pnp, st_bicmos_pnp()).unwrap());
    let op = solve_dc(&ckt, temperature, &DcOptions::default(), None).unwrap();
    op.voltage(e).value()
}

#[test]
fn solved_vbe_matches_closed_form_within_base_current_error() {
    // The closed form inverts IC = IS e^{v/vt}; the circuit forces the
    // EMITTER current, so the two differ by ~vt/BF plus high-injection
    // terms — a millivolt-scale, well-understood gap.
    let card = st_bicmos_pnp();
    let law = card.is_law();
    for t in [223.15, 298.15, 373.15] {
        let t = Kelvin::new(t);
        let solved = circuit_vbe(Ampere::new(1e-6), t);
        let closed = vbe_for_current(&law, Ampere::new(1e-6), t).value();
        assert!(
            (solved - closed).abs() < 3e-3,
            "at {t}: solved {solved} vs closed {closed}"
        );
    }
}

#[test]
fn eq13_model_predicts_the_circuit_over_the_full_range() {
    // Anchor eq. 13 at 25 °C using the *circuit's* own reference VBE and
    // check the prediction across -50..125 °C.
    let card = st_bicmos_pnp();
    let ic = Ampere::new(1e-6);
    let t0 = Kelvin::new(298.15);
    let mut model = eq13_from_spice_law(&card.is_law(), ic, t0);
    // Re-anchor on the circuit value to absorb the base-current offset.
    let anchor = circuit_vbe(ic, t0);
    model = icvbe::devphys::vbe::Eq13Model::new(model.eg(), model.xti(), t0, Volt::new(anchor));
    for t in [223.15, 248.15, 273.15, 323.15, 348.15, 398.15] {
        let t = Kelvin::new(t);
        let solved = circuit_vbe(ic, t);
        let predicted = model.vbe(t, 1.0).value();
        assert!(
            (solved - predicted).abs() < 1.5e-3,
            "at {t}: solved {solved} vs eq13 {predicted}"
        );
    }
}

#[test]
fn temperature_sweep_matches_pointwise_solves() {
    let mut ckt = Circuit::new();
    let gnd = Circuit::ground();
    let e = ckt.node("e");
    ckt.add(CurrentSource::new("IB", gnd, e, Ampere::new(1e-6)));
    ckt.add(Bjt::new("Q", gnd, gnd, e, Polarity::Pnp, st_bicmos_pnp()).unwrap());
    let temps = temperature_grid(Kelvin::new(223.15), Kelvin::new(398.15), 8);
    let swept = temperature_sweep(&ckt, &temps, &DcOptions::default()).unwrap();
    for (t, op) in temps.iter().zip(&swept) {
        let single = solve_dc(&ckt, *t, &DcOptions::default(), None).unwrap();
        // Both solves stop on Newton's per-unknown step test, which lands
        // next to the root whatever the start: measured at most 1.1e-16 V
        // apart (x86-64). The old 1e-9 A residual test allowed ~2e-5 V.
        assert!(
            (op.voltage(e).value() - single.voltage(e).value()).abs() < 1e-14,
            "warm-started and cold solves disagree at {t}"
        );
    }
}

#[test]
fn spice_is_law_drives_the_circuit_vbe_slope() {
    // dVBE/dT of the solved circuit should match the eq.-13 analytic slope
    // to a few percent.
    let card = st_bicmos_pnp();
    let ic = Ampere::new(1e-6);
    let t0 = Kelvin::new(298.15);
    let model = eq13_from_spice_law(&card.is_law(), ic, t0);
    let h = 5.0;
    let circuit_slope = (circuit_vbe(ic, Kelvin::new(298.15 + h))
        - circuit_vbe(ic, Kelvin::new(298.15 - h)))
        / (2.0 * h);
    let model_slope = model.slope(t0);
    assert!(
        (circuit_slope - model_slope).abs() / model_slope.abs() < 0.05,
        "circuit {circuit_slope} vs model {model_slope}"
    );
}
