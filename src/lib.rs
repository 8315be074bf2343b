//! `icvbe` — a full reproduction of *"Test Structure for IC(VBE) Parameter
//! Determination of Low Voltage Applications"* (Rahajandraibe et al., DATE
//! 2002) as a Rust workspace.
//!
//! The paper proposes extracting the SPICE `EG`/`XTI` saturation-current
//! temperature parameters of a BJT *analytically* from a programmable
//! bandgap test cell, computing the die temperatures from the cell's own
//! PTAT `dVBE` instead of trusting an external sensor. This crate is a
//! facade re-exporting the whole stack:
//!
//! - [`units`] — typed physical quantities and constants,
//! - [`numerics`] — linear algebra, root finding, least squares,
//! - [`devphys`] — bandgap/carrier/transport physics (paper eqs. 1-12),
//! - [`spice`] — a DC circuit simulator with a Gummel-Poon BJT,
//! - [`thermal`] — package thermal path and electro-thermal fixed point,
//! - [`instrument`] — virtual SMU, Pt100, Monte-Carlo process variation,
//! - [`core`] — the extraction methods (best fit, Meijer analytical,
//!   dVBE temperature computation, sensitivity studies),
//! - [`bandgap`] — the Fig.-3 test cell and `VREF(T)` analyses,
//! - [`repro`] — one runnable experiment per table/figure of the paper,
//! - [`campaign`] — wafer-scale parallel extraction campaigns with
//!   deterministic seeding and streaming aggregation,
//! - [`trace`] — structured span tracing with deterministic logical
//!   ordering and Chrome trace-event / collapsed-stack exports,
//! - [`serve`] — the campaign service: a multi-tenant daemon with a
//!   bounded job queue, fair slice scheduling, streaming results and
//!   checkpoint/resume.
//!
//! # Quickstart
//!
//! Extract `EG`/`XTI` from a synthetic `VBE(T)` characteristic:
//!
//! ```
//! use icvbe::core::bestfit::fit_eg_xti;
//! use icvbe::core::data::VbeCurve;
//! use icvbe::devphys::saturation::SpiceIsLaw;
//! use icvbe::devphys::vbe::vbe_for_current;
//! use icvbe::units::{Ampere, ElectronVolt, Kelvin};
//!
//! let law = SpiceIsLaw::new(Ampere::new(2e-17), Kelvin::new(298.15),
//!                           ElectronVolt::new(1.1324), 2.58);
//! let ic = Ampere::new(1e-6);
//! let curve = VbeCurve::from_points((0..8).map(|i| {
//!     let t = Kelvin::new(223.15 + 25.0 * i as f64);
//!     (t, vbe_for_current(&law, ic, t), ic)
//! }))?;
//! let fit = fit_eg_xti(&curve, 3)?;
//! assert!((fit.eg.value() - 1.1324).abs() < 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Run the paper's experiments with the `repro` binary:
//!
//! ```text
//! cargo run -p icvbe-repro --bin repro            # everything
//! cargo run -p icvbe-repro --bin repro fig6 table1
//! ```

#![deny(missing_docs)]

pub use icvbe_bandgap as bandgap;
pub use icvbe_campaign as campaign;
pub use icvbe_core as core;
pub use icvbe_devphys as devphys;
pub use icvbe_instrument as instrument;
pub use icvbe_numerics as numerics;
pub use icvbe_repro as repro;
pub use icvbe_serve as serve;
pub use icvbe_spice as spice;
pub use icvbe_thermal as thermal;
pub use icvbe_trace as trace;
pub use icvbe_units as units;
