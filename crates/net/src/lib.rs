//! Simulated network substrate for distributed skyline processing.
//!
//! The paper measures a distributed algorithm by the number of *tuples*
//! transmitted over the network (Section 3.2, goal 1): synchronization
//! messages and packet headers are considered free, tuple payloads are not.
//! This crate provides everything the algorithms need to run "distributed"
//! while keeping that accounting honest and deterministic:
//!
//! * [`Message`] — the typed protocol vocabulary between the central server
//!   `H` and local sites, with a binary wire encoding (via `bytes`) so byte
//!   counts are realistic, not estimated;
//! * [`BandwidthMeter`] — shared counters of messages / tuples / bytes per
//!   traffic class;
//! * [`Link`] — a split-phase request/response channel to one site
//!   ([`Link::send`] returns a [`Ticket`] redeemed by [`Link::complete`],
//!   so several requests can ride one link at once), with two
//!   implementations: [`LocalLink`] (deterministic in-process dispatch,
//!   used by tests and benchmarks) and [`ChannelLink`] (each site runs on
//!   its own OS thread behind crossbeam channels, demonstrating real
//!   concurrency). Link operations return `Result<_, `[`LinkError`]`>` —
//!   transport failure is a value the coordinator handles, never a panic —
//!   and [`RetryLink`] layers deterministic retry-with-backoff (per-link
//!   [`LinkConfig`]) on any transport;
//! * [`LatencyModel`] — a deterministic cost model converting metered
//!   traffic into simulated network time, used by the update-performance
//!   experiment (paper Fig. 14) so "response time" is reproducible on any
//!   machine;
//! * [`MuxLink`] and [`QueryServer`] — the session-layer pieces behind the
//!   long-lived `dsud serve` daemon: per-query multiplexed views of shared
//!   site links ([`Message::Tagged`]) and the client-facing accept loop
//!   (see the [`server`] module docs).
//!
//! # Example
//!
//! ```
//! use dsud_net::{BandwidthMeter, Link, LocalLink, Message, Service};
//!
//! struct Echo;
//! impl Service for Echo {
//!     fn handle(&mut self, msg: Message) -> Message {
//!         match msg {
//!             Message::RequestNext => Message::Upload(None),
//!             _ => Message::Ack,
//!         }
//!     }
//! }
//!
//! let meter = BandwidthMeter::new();
//! let mut link = LocalLink::new(Echo, meter.clone());
//! let reply = link.call(Message::RequestNext).expect("inline transports cannot fail");
//! assert!(matches!(reply, Message::Upload(None)));
//! assert_eq!(meter.snapshot().total().messages, 2);
//! ```

// `deny` rather than `forbid`: the columnar wire module carries the
// crate's one narrowly-scoped `#[allow(unsafe_code)]` — an
// alignment-checked `slice::align_to::<f64>` cast with a safe fallback
// (see `wire`'s module docs). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cover;
pub mod fanout;
mod latency;
mod message;
mod meter;
mod retry;
pub mod server;
pub mod tcp;
mod transport;
pub mod wire;

pub use cover::Cover;
pub use fanout::{Aggregator, FanNode, FanPlan, Fanout, OpTicket, Routes};
pub use latency::{DelayedService, LatencyModel};
pub use message::{AggReply, Message, TrafficClass, TupleMsg, MAX_NESTING};
pub use meter::{BandwidthMeter, Counters, MeterSnapshot};
pub use retry::{HealthSnapshot, LinkHealth, RetryLink};
pub use server::{
    share, spawn_query_server, ClientControl, ClientHandler, MuxLink, QueryServer, SharedLink,
    MAX_REQUEST_LINE,
};
pub use transport::{
    broadcast, scatter, ChannelLink, ChaosLink, FaultKind, FaultPlan, FaultWindow, Link,
    LinkConfig, LinkError, LocalLink, Service, Ticket,
};
pub use wire::{BatchView, TupleBlock};
