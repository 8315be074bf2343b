//! The virtual measurement bench.
//!
//! The paper's data comes from an HP4156 parameter analyser, a Pt100
//! contact sensor, and five diffusion-lot samples soaked in a hermetic
//! chamber. None of that hardware exists here, so this crate simulates it:
//!
//! - [`noise`]: seeded Gaussian noise and ADC quantization,
//! - [`faults`]: deterministic measurement-fault injection (noise bursts,
//!   stuck readings, dropped points, offset drift, NaN/Inf),
//! - [`chaos`]: deterministic *environment*-fault injection (torn
//!   checkpoint writes, `ENOSPC`/`EIO`, socket stalls/resets, die panics),
//! - [`smu`]: the source-measure unit (gain/offset error, noise floor,
//!   finite resolution) standing in for the HP4156,
//! - [`pt100`]: the contact temperature sensor (calibration error, contact
//!   coupling, sub-1 K precision as quoted in the paper),
//! - [`montecarlo`]: seeded per-die process variation — the "five samples
//!   of the test cell" of Table 1,
//! - [`bench`](mod@crate::bench): campaign orchestration: chamber soak → electro-thermal
//!   equilibrium → sensor and SMU readout of the pair structure, producing
//!   exactly the data sets the extraction methods consume.
//!
//! Everything is deterministic given a seed, so reproduced tables are
//! stable run to run.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bench;
pub mod chaos;
pub mod faults;
mod kv;
pub mod montecarlo;
pub mod noise;
pub mod pt100;
pub mod smu;
