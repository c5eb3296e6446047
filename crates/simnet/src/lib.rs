//! # scda-simnet — discrete-event datacenter network simulator
//!
//! A hand-rolled, deterministic, flow-level network simulator built for the
//! reproduction of *SCDA: SLA-aware Cloud Datacenter Architecture for
//! Efficient Content Storage and Retrieval* (Fesehaye & Nahrstedt, HPDC
//! 2013). The paper evaluated SCDA inside NS2; this crate is the NS2
//! substitute: it provides everything the evaluation needs — an event
//! engine, datacenter topologies (including the paper's figure-6 three-tier
//! tree), shortest-path routing, fluid links with FIFO byte queues and drop
//! accounting, and a max-min water-filling reference solver.
//!
//! ## Model
//!
//! The simulator is *window/fluid-level*, not packet-level: each active flow
//! offers an instantaneous sending rate (decided by a transport layer such
//! as `scda-transport`'s TCP or SCDA protocols); every tick the
//! [`network::Network`] aggregates offered rates onto links, integrates
//! queue occupancy, computes per-flow goodput and loss fractions, and
//! reports queueing-inflated round-trip times. All of the effects the SCDA
//! paper measures — queue build-up under TCP, max-min convergence, hotspots
//! from random server selection, slow-start ramp — are visible at this
//! granularity; packet-level detail only changes constant factors.
//!
//! ## Determinism
//!
//! Given the same inputs the simulation is bit-for-bit deterministic: the
//! event queue breaks time ties by insertion sequence number, flow tables
//! iterate in insertion order, and no wall-clock or OS entropy is consulted
//! anywhere in the crate.
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`units`] | simulation time and rate/byte unit helpers |
//! | [`ids`] | typed index newtypes ([`NodeId`], [`LinkId`], [`FlowId`]) and the id-ordered [`FlowTable`] |
//! | [`event`] | generic binary-heap event queue ([`event::Scheduler`]) |
//! | [`engine`] | the run loop driving a [`engine::Simulation`] |
//! | [`topology`] | node/link arena and construction API |
//! | [`builders`] | figure-6 three-tier tree, fat-tree, VL2-like Clos, dumbbell |
//! | [`routing`] | shortest paths: an O(depth) climb on a tree fabric, cached per-source Dijkstra on general graphs; interned |
//! | [`link`] | per-link fluid queue state, drop and arrival accounting |
//! | [`network`] | the tick-driven fluid network ([`network::Network`]) |
//! | [`fluid`] | the exact max-min water-filling solver |

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![deny(deprecated)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod builders;
pub mod ecmp;
pub mod engine;
pub mod event;
pub mod faults;
pub mod fluid;
pub mod ids;
pub mod link;
pub mod network;
pub mod packet;
pub mod routing;
pub mod topology;
pub mod units;

pub use builders::{ThreeTierConfig, ThreeTierTree};
pub use ecmp::EcmpRoutes;
pub use engine::{run_to_completion, run_until, Simulation};
pub use event::Scheduler;
pub use fluid::{max_min_rates_into, FluidFlow};
pub use ids::{FlowId, FlowTable, LinkId, NodeId};
pub use link::LinkState;
pub use network::{FlowRef, FlowTick, Network, TickReport};
pub use packet::{simulate_packets, PacketFlow, PacketSimResult, SourceModel};
pub use routing::{PathId, Routes};
pub use topology::{Link, Node, NodeKind, Topology};
