//! DSUD and e-DSUD: distributed skyline queries over uncertain data.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Ding & Jin, ICDCS 2010 / TKDE 2011): communication-efficient,
//! progressive algorithms that compute, at a central server `H`, every
//! tuple whose *global skyline probability* across `m` distributed
//! uncertain databases is at least a threshold `q` — while transmitting as
//! few tuples as possible.
//!
//! # The algorithms
//!
//! * [`baseline`] — ship every tuple to `H` and run a centralized
//!   probabilistic skyline (Section 3.2). Correct, maximally expensive.
//! * [`dsud`] — the DSUD iterative protocol (Section 5.1): each site
//!   uploads its local-skyline tuples in descending local-probability
//!   order; `H` keeps one representative per site in a priority queue `L`,
//!   broadcasts the head to the other sites to assemble its exact global
//!   probability (Lemma 1), and the broadcast doubles as *feedback* that
//!   prunes hopeless candidates at the sites.
//! * [`edsud`] — the enhanced e-DSUD (Section 5.2): `H` ranks candidates
//!   by an upper bound on their *global* probability (Observation 2 /
//!   Corollary 2) instead of their local probability, broadcasting the most
//!   dominant tuple first and expunging candidates whose bound already
//!   fails `q` without spending any bandwidth on them.
//! * [`update`] — continuous maintenance under inserts/deletes
//!   (Section 5.4): a naive re-run strategy and an incremental strategy
//!   built on replicated skylines and dominance-region re-evaluation.
//! * [`estimate`] — the skyline-cardinality and feedback-cost estimates of
//!   Eqs. (6)–(8) that motivate feedback selection.
//!
//! Every run reports the paper's two metrics: bandwidth (tuples
//! transmitted, via [`dsud_net::BandwidthMeter`]) and progressiveness (a
//! [`ProgressLog`] of when each result was emitted).
//!
//! # Quickstart
//!
//! ```
//! use dsud_core::{Cluster, QueryConfig};
//! use dsud_data::WorkloadSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sites = WorkloadSpec::new(2_000, 2).seed(7).generate_partitioned(8)?;
//! let mut cluster = Cluster::local(2, sites)?;
//! let outcome = cluster.run_edsud(&QueryConfig::new(0.3)?)?;
//! println!(
//!     "{} skyline tuples for {} transmitted",
//!     outcome.skyline.len(),
//!     outcome.traffic.tuples_transmitted()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod batch;
pub mod chaos;
mod cluster;
mod config;
pub mod degrade;
pub mod dsud;
pub mod edsud;
mod error;
pub mod estimate;
mod pending;
mod pipeline;
pub mod planner;
mod progress;
pub mod session;
mod site;
mod site_order;
pub mod synopsis;
pub mod update;

pub use cluster::{Cluster, QueryOutcome, RunStats, Transport};
pub use config::{
    BatchSize, BoundMode, FailurePolicy, PipelineDepth, PlanMode, QueryConfig, SiteOptions,
    Topology, UpdatePolicy, WireFormat,
};
pub use degrade::{QuarantineReason, SiteState, SiteStatus};
pub use error::Error;
pub use planner::PlanSummary;
pub use progress::{ProgressEvent, ProgressLog};
pub use session::{HeartbeatSummary, SessionOptions, SessionOutcome, SessionServer, SessionStats};
pub use site::LocalSite;
pub use site_order::SiteOrder;

// Re-export the workspace API surface so `dsud_core` works as a facade.
pub use dsud_net::{
    BandwidthMeter, FaultKind, FaultPlan, FaultWindow, HealthSnapshot, LatencyModel, Link,
    LinkConfig, LinkError, MeterSnapshot, RetryLink, Ticket,
};
pub use dsud_obs::{
    Counter, CounterSnapshot, PhaseTotal, ProgressSample, Recorder, RunReport, SpanRecord,
    SCHEMA_VERSION,
};
pub use dsud_uncertain::{
    certain_skyline, dominates, dominates_in, probabilistic_skyline, Probability, SkylineEntry,
    SubspaceMask, TupleId, UncertainDb, UncertainTuple,
};
