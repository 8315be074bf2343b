//! Wafer-scale parallel extraction campaigns over the `IC(VBE)` test
//! structure.
//!
//! The paper's test structure exists so that `EG`/`XTI` extraction can run
//! *in production test* across every die of a lot, not once on a lab
//! bench. This crate turns the workspace's single-die pipeline (virtual
//! bench → dVBE die thermometry → Meijer extraction) into a batch engine:
//!
//! - [`spec`]: a [`CampaignSpec`](spec::CampaignSpec) describes the wafer
//!   map, the per-die process perturbations, the bias corners and the
//!   three-setpoint temperature plan, plus the `EG`/`XTI` spec window the
//!   yield is binned against.
//! - [`seeding`]: every die derives its own PRNG streams from the campaign
//!   seed with SplitMix64 mixing, so a die's result depends only on the
//!   campaign seed and the die index — never on scheduling.
//! - [`worker`]: a pure-`std` pool (`std::thread::scope` over an
//!   `Arc<AtomicUsize>` chunk cursor) fans dies out across `N` threads;
//!   outcomes stream back over a channel and are folded **in die-index
//!   order** through a bounded reorder buffer, which is what makes the
//!   aggregate bit-identical for any thread count.
//! - [`aggregate`]: streaming Welford statistics, min/max, yield bins and
//!   the characteristic-straight `EG`-`XTI` scatter summary — memory stays
//!   O(1) in the die count.
//! - [`metrics`]: atomic progress counters and per-stage log₂ wall-clock
//!   histograms, snapshotted into a
//!   [`CampaignMetrics`](metrics::CampaignMetrics).
//! - [`report`]: hand-rolled JSON and CSV writers (no serde) producing the
//!   deterministic `aggregate` and `quarantine` artifacts and the
//!   (timing-bearing, hence non-deterministic) `metrics` artifact.
//! - [`json`] / [`wire`] / [`checkpoint`]: a hand-rolled JSON parser, the
//!   canonical wire codec for specs (with a fingerprint binding state to
//!   the spec that produced it) and a bit-exact checkpoint codec — the
//!   substrate the campaign service (`icvbe-serve`) builds its
//!   submit/stream/resume protocol on.
//! - [`taxonomy`]: the per-corner failure taxonomy. With fault injection
//!   enabled (see `icvbe_instrument::faults`), the die pipeline retries
//!   corrupted measurements under a bounded budget, falls back to a pooled
//!   robust IRLS fit, and quarantines what it cannot recover under a named
//!   [`FailureKind`](taxonomy::FailureKind).
//!
//! # Determinism guarantee
//!
//! For a fixed [`CampaignSpec`](spec::CampaignSpec), the aggregate report
//! bytes are identical for **any** worker-thread count. Two mechanisms
//! combine to give this: per-die seeding (no shared PRNG stream to race
//! on) and in-order folding (floating-point accumulation happens in die
//! order regardless of completion order).
//!
//! # Examples
//!
//! ```
//! use icvbe_campaign::spec::{CampaignSpec, WaferMap};
//! use icvbe_campaign::worker::run_campaign;
//!
//! let spec = CampaignSpec::paper_default(WaferMap::circular(6), 2002);
//! let one = run_campaign(&spec, 1).unwrap();
//! let two = run_campaign(&spec, 2).unwrap();
//! assert_eq!(
//!     icvbe_campaign::report::aggregate_json(&one),
//!     icvbe_campaign::report::aggregate_json(&two),
//! );
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod checkpoint;
pub mod die;
mod error;
pub mod json;
pub mod metrics;
pub mod partial;
pub mod report;
pub mod seeding;
pub mod spec;
pub mod taxonomy;
pub mod wire;
pub mod worker;

pub use error::CampaignError;
pub use spec::CampaignSpec;
pub use taxonomy::FailureKind;
pub use worker::{
    run_campaign, run_campaign_streaming, run_campaign_with, CampaignRun, StreamOptions,
};
