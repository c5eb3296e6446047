//! # scda-core — the SCDA control plane
//!
//! The primary contribution of *SCDA: SLA-aware Cloud Datacenter
//! Architecture for Efficient Content Storage and Retrieval* (Fesehaye &
//! Nahrstedt, HPDC 2013), implemented over the [`scda_simnet`] substrate:
//!
//! * [`params`] — the Table I parameters (α, β, τ, `R_scale`, ...);
//! * [`rate_metric`] — the per-link rate metric, eqs. 2-5, in both the
//!   full (flow-rate-sum) and simplified (arrival-rate) forms;
//! * [`priority`] — prioritized allocation and adaptive weights (eq. 6,
//!   §IV-A), including SJF- and EDF-style policies;
//! * [`openflow`] — the OpenFlow packet-count SJF approximation (§IV-B);
//! * [`tree`] — the RM/RA control tree with the figure-2 max/min upward
//!   and downward propagation (§VI), SLA detection hooks, and the
//!   per-level `Ř` rates that price reads, replication and on-going-flow
//!   window updates (§VIII-D);
//! * [`selection`] — the knobs of server selection per content class,
//!   dormant-server scale-down and power-aware `R̂/P` ranking (§VII);
//! * [`placement_index`] — the incremental index every placement goes
//!   through: one search tree shaped like the RA tree, answering the
//!   §VII queries from a few racks' worth of leaves;
//! * [`testing`] — the O(n) [`testing::Selector`] scan the index is
//!   pinned against, bit for bit;
//! * [`content`] — the content model: HWHR/HWLR/LWHR/LWLR classes and
//!   access-frequency learning (§II-B);
//! * [`energy`] — the synthetic server power/temperature model and
//!   dormancy state machine backing §VII-C/D;
//! * [`sla`] — violation records, episode tracking and the mitigation
//!   ladder (§IV-A);
//! * [`nodes`] — FES, NNS, BS bookkeeping and the figure 3-5 protocol
//!   cost model (§III, §VIII).

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![deny(deprecated)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod content;
pub mod diagnostics;
pub mod energy;
pub mod nodes;
pub mod openflow;
pub mod overhead;
pub mod params;
pub mod placement_index;
pub mod priority;
pub mod rate_metric;
pub mod resources;
pub mod selection;
pub mod sla;
pub mod testing;
pub mod tree;

pub use content::{AccessStats, ClassifierConfig, ContentClass, ContentId};
pub use diagnostics::{SnapshotStream, TreeSnapshot};
pub use energy::{EnergyBook, PowerModelConfig, PowerState};
pub use nodes::{BlockServer, ContentMeta, Fes, NameNode, NameService, ProtocolCosts};
pub use openflow::OpenFlowSjf;
pub use overhead::{delta_reporting, full_reporting, RoundOverhead, TreeShape};
pub use params::Params;
pub use placement_index::{
    discounted_share, share_bound, GroupSpan, IndexShape, NoDiscount, PlaceQuery, PlacementIndex,
    QueryStats, RateDiscount,
};
pub use priority::PriorityPolicy;
pub use rate_metric::{LinkAllocator, LinkSample, MetricKind};
pub use resources::{ResourceBook, ResourceProfile, ServerResources};
pub use selection::{NodeSet, SelectorConfig};
pub use sla::{Mitigation, SlaMonitor, SlaViolation};
pub use tree::{
    ControlTree, CtrlId, Direction, NodeSpec, RateCaps, ServerMetrics, Telemetry, DELTA_REL_EPS,
};
