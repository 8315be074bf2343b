//! Fixtures shared by the campaign integration tests.

use icvbe_bandgap::card::st_bicmos_pnp;
use icvbe_spice::bjt::BjtParams;
use icvbe_units::{Ampere, Volt};

/// `st_bicmos_pnp` with every non-ideality that bends the diode law off.
pub fn ideal_card() -> BjtParams {
    let mut card = st_bicmos_pnp();
    card.ise = Ampere::new(0.0);
    card.ikf = Ampere::new(f64::INFINITY);
    card.vaf = Volt::new(f64::INFINITY);
    card
}
