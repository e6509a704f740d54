//! # thrifty-daemon — the `thriftyd` control plane
//!
//! Everything else in this workspace runs as a batch replay that exits;
//! this crate turns the library into an *operable service* in the spirit
//! of the paper's always-on provider. The `thriftyd` binary hosts a
//! [`thrifty::service::ThriftyService`] plus its
//! [`Reconsolidator`](thrifty::reconsolidation::Reconsolidator) behind a
//! [`ClockSource`](thrifty::clock::ClockSource) adapter and drives them
//! from a single-threaded event loop:
//!
//! * **Clock adapter** — the core stays clock-free (lint rule L2); this
//!   crate is the one place allowed to read ambient time. The daemon runs
//!   on [`WallClock`](clock::WallClock) in production and on
//!   [`SimClock`](thrifty::clock::SimClock) under `--sim-clock`, where
//!   time moves only via explicit `advance` requests — which is what
//!   makes the daemon path byte-comparable to a direct library replay.
//! * **Operator protocol** — line-delimited JSON over a unix socket
//!   ([`protocol`]): `status`, `tenant register`/`deregister`, `cutover
//!   status`, `telemetry` (the full
//!   [`TelemetrySnapshot`](thrifty::telemetry::TelemetrySnapshot)),
//!   `reload`, `stop`.
//! * **Config hot-reload** — on `SIGHUP` or a `reload` request the daemon
//!   re-reads its JSON config ([`config::DaemonConfig`]), re-validates the
//!   service section through `ServiceConfigBuilder`, applies the safe
//!   knob subset via
//!   [`ThriftyService::apply_config`](thrifty::service::ThriftyService::apply_config),
//!   and reports the rejected rest with structured reasons.
//!
//! The library half of the crate ([`runtime::DaemonCore`]) is
//! socket-free and clock-generic so tests and the `fault_fuzz --daemon`
//! harness can host the identical event loop deterministically.

#![warn(missing_docs)]

pub mod client;
pub mod clock;
pub mod config;
pub mod error;
mod poll;
pub mod protocol;
pub mod runtime;
pub mod server;
pub mod signal;

pub use client::DaemonClient;
pub use config::DaemonConfig;
pub use error::{DaemonError, DaemonResult};
pub use runtime::DaemonCore;
