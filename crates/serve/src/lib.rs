//! The campaign service: a persistent, multi-tenant daemon that runs
//! `IC(VBE)` extraction campaigns submitted over a line-delimited JSON
//! TCP protocol.
//!
//! The batch engine (`icvbe-campaign`) answers "run this wafer, give me
//! the reports" for one caller at a time. This crate turns it into a
//! shared facility:
//!
//! - [`protocol`]: the wire protocol — versioned `hello` handshake,
//!   `submit`/`status`/`results`/`cancel`/`shutdown`, typed errors
//!   (`unsupported_version`, `queue_full` with a `retry_after_ms`
//!   backpressure hint, `unknown_job`, `bad_request`).
//! - [`service`]: the engine — a bounded job queue, a scheduler that
//!   round-robins execution **slices** across tenants (no tenant can
//!   starve another), one shared symbolic-LU cache across all jobs, per-
//!   die event streams with history replay, and checkpoint files that let
//!   a killed daemon resume every job **byte-identically**.
//! - [`daemon`]: the TCP front end (thread per connection, blocking
//!   accept loop, no dependencies beyond `std`).
//! - [`client`]: a blocking client used by `repro submit` / `repro watch`
//!   and the end-to-end tests.
//! - [`shard`]: multi-process campaign execution — a supervisor spawns N
//!   worker processes, each running a contiguous die-range slice, and
//!   folds their serialized partial aggregates through a deterministic
//!   left-to-right merge that reproduces the single-process report bytes
//!   at any shard count.
//!
//! # Determinism contract
//!
//! The campaign fold is strictly die-index-ordered, so slicing a job
//! across scheduler turns — or across a daemon kill and restart — cannot
//! change a single bit of the four deterministic report artifacts: they
//! are byte-identical to a one-shot `repro campaign` of the same spec at
//! any thread count. The shared symbolic cache preserves this too: a
//! cached sparsity plan is the same pure function output a private
//! analysis would have produced.
//!
//! # Example
//!
//! ```
//! use icvbe_serve::client::Client;
//! use icvbe_serve::daemon::Daemon;
//! use icvbe_serve::service::ServiceConfig;
//! use icvbe_campaign::spec::{CampaignSpec, WaferMap};
//!
//! let daemon = Daemon::start(ServiceConfig::default(), "127.0.0.1:0").unwrap();
//! let addr = daemon.local_addr().to_string();
//!
//! let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 7);
//! spec.corners.truncate(1);
//! let mut client = Client::connect(&addr).unwrap();
//! client.submit("docs", "example", &spec, true).unwrap();
//! let artifacts = client.wait_done(|_folded, _total| {}).unwrap();
//! assert!(artifacts.iter().any(|(name, _)| name == "campaign_aggregate.json"));
//! daemon.stop();
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod service;
pub mod shard;

pub use client::{Client, ClientError, JobEvent};
pub use daemon::Daemon;
pub use protocol::PROTOCOL_VERSION;
pub use service::{Service, ServiceConfig, ServiceStats, SubmitError, SubmitTicket};
