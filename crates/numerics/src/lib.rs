//! Self-contained numerical kernels for the `icvbe` workspace.
//!
//! Everything the reproduction needs numerically lives here, implemented
//! from scratch on `std` only:
//!
//! - dense [`Matrix`] / vector helpers and [LU](lu) / [QR](qr) factorizations,
//! - [linear least squares](lsq) (the eq.-13 best-fit extractor is a linear
//!   fit in `EG` and `XTI`),
//! - [scalar root finding](roots) (Brent, bisection, Newton) used by the
//!   electro-thermal fixed point and device inversions,
//! - [damped multivariate Newton](newton) driving the SPICE DC solver,
//! - [Levenberg-Marquardt](lm) for nonlinear fits and ablations,
//! - [polynomials](poly), [interpolation](interp) and [statistics](stats)
//!   for figure post-processing,
//! - [pseudo-random generation](rng) (SplitMix64, xoshiro256++) behind the
//!   virtual instruments, the Monte-Carlo die factory and the campaign
//!   engine's deterministic per-die seeding,
//! - a [deterministic, branch-free `exp` kernel](vexp) in scalar and
//!   slice forms — the platform-independent exponential behind every
//!   hot-path junction evaluation.
//!
//! # Examples
//!
//! ```
//! use icvbe_numerics::{lsq::fit_least_squares, Matrix};
//!
//! // Fit y = a + b*x through three points.
//! let design = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
//! let fit = fit_least_squares(&design, &[1.0, 3.0, 5.0])?;
//! assert!((fit.coefficients()[0] - 1.0).abs() < 1e-12);
//! assert!((fit.coefficients()[1] - 2.0).abs() < 1e-12);
//! # Ok::<(), icvbe_numerics::NumericsError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
pub mod interp;
pub mod lm;
pub mod lsq;
pub mod lu;
mod matrix;
pub mod newton;
pub mod poly;
pub mod qr;
pub mod rng;
pub mod robust;
pub mod roots;
pub mod stats;
pub mod vexp;

pub use error::NumericsError;
pub use matrix::Matrix;
