//! A SPICE-class DC circuit simulator for the `icvbe` reproduction.
//!
//! The paper's evaluation is entirely DC: `IC(VBE)` families swept in
//! voltage and temperature (Fig. 5), a bandgap test cell solved across
//! temperature (Figs. 3 and 8), and transistor pairs under forced bias
//! (Fig. 2). This crate provides exactly that machinery, built from
//! scratch:
//!
//! - [`netlist`]: named nodes and element storage,
//! - [`stamp`]: the element interface (residual/Jacobian stamping),
//! - [`element`]: resistors with tempco, independent sources, op-amp
//!   macro-model with input offset, junction diodes,
//! - [`bjt`]: the Gummel-Poon transistor with the eq.-1 `EG`/`XTI`
//!   temperature mapping and an optional parasitic substrate junction,
//! - [`system`]: MNA assembly into a nonlinear system, with a shareable
//!   [`system::CircuitAssembly`] caching the unknown layout,
//! - [`solver`]: Newton with gmin and source stepping,
//! - [`ladder`]: the typed DC escalation ladder (strategy enumeration,
//!   per-rung failure trace),
//! - [`workspace`]: reusable solve buffers + statistics
//!   ([`workspace::SolveWorkspace`], [`workspace::solve_dc_with`]) so
//!   repeated solves allocate nothing,
//! - [`sweep`]: DC parameter and temperature sweeps with warm starts,
//! - [`param`]: shared mutable values so analyses can sweep sources
//!   without rebuilding circuits,
//! - [`limexp`]: the junction-exponential safeguard.
//!
//! # Examples
//!
//! Solve a resistive divider:
//!
//! ```
//! use icvbe_spice::element::{Resistor, VoltageSource};
//! use icvbe_spice::netlist::Circuit;
//! use icvbe_spice::solver::{solve_dc, DcOptions};
//! use icvbe_units::{Kelvin, Ohm, Volt};
//!
//! let mut ckt = Circuit::new();
//! let vcc = ckt.node("vcc");
//! let out = ckt.node("out");
//! ckt.add(VoltageSource::new("V1", vcc, Circuit::ground(), Volt::new(2.0)));
//! ckt.add(Resistor::new("R1", vcc, out, Ohm::new(1e3))?);
//! ckt.add(Resistor::new("R2", out, Circuit::ground(), Ohm::new(1e3))?);
//! let op = solve_dc(&ckt, Kelvin::new(300.0), &DcOptions::default(), None)?;
//! assert!((op.voltage(out).value() - 1.0).abs() < 1e-9);
//! # Ok::<(), icvbe_spice::SpiceError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bjt;
pub mod cache;
pub mod element;
mod error;
pub mod export;
pub mod ladder;
pub mod limexp;
pub mod netlist;
pub mod param;
pub mod solver;
pub mod stamp;
pub mod sweep;
pub mod system;
pub mod vccs;
pub mod workspace;

pub use error::SpiceError;
