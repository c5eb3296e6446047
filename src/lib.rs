//! # scda — SLA-aware Cloud Datacenter Architecture
//!
//! A complete Rust reproduction of *SCDA: SLA-aware Cloud Datacenter
//! Architecture for Efficient Content Storage and Retrieval* (Debessay
//! Fesehaye and Klara Nahrstedt, HPDC 2013), including every substrate the
//! paper's evaluation depends on:
//!
//! * [`simnet`] — a hand-rolled discrete-event datacenter network
//!   simulator (the NS2 substitute): event engine, the paper's figure-6
//!   three-tier topology, routing, fluid links with queues and drops, and
//!   a max-min water-filling reference solver;
//! * [`transport`] — TCP Reno (the RandTCP baseline data plane) and the
//!   SCDA explicit-rate window protocol of §VIII;
//! * [`core`] — the SCDA control plane: the rate metric (eqs. 2-5), the
//!   RM/RA tree with figure-2 max/min propagation, content-class-aware
//!   server selection, SLA detection/mitigation, priorities,
//!   reservations, and the energy model;
//! * [`workloads`] — the three §X workload families (YouTube video
//!   traces, general datacenter traces, Pareto/Poisson synthetic);
//! * [`metrics`] — FCT CDFs, AFCT-by-size curves, throughput series and
//!   figure reports;
//! * [`experiments`] — runners for both systems and the regenerators for
//!   every evaluation figure (7-18);
//! * [`obs`] — run-time observability: a bounded trace ring with JSONL
//!   export, a mergeable metrics registry, and per-phase wall-clock
//!   profiling, all behind a cloneable handle that is free when disabled.
//!
//! ## Quickstart
//!
//! ```
//! use scda::experiments::{run_pair, Scale, Scenario, ScdaOptions};
//!
//! // A tiny video-trace scenario, evaluated under SCDA and RandTCP.
//! let mut sc = Scenario::video(Scale::Quick, false, 7);
//! sc.workload.flows.truncate(40);
//! sc.duration = 20.0;
//! let pair = run_pair(&sc, &ScdaOptions::default());
//! assert!(pair.scda.fct.mean_fct().unwrap() < pair.randtcp.fct.mean_fct().unwrap());
//! ```

#![warn(missing_docs)]

pub use scda_core as core;
pub use scda_experiments as experiments;
pub use scda_metrics as metrics;
pub use scda_obs as obs;
pub use scda_simnet as simnet;
pub use scda_transport as transport;
pub use scda_workloads as workloads;

/// The most commonly used items, for `use scda::prelude::*`.
pub mod prelude {
    pub use scda_core::{
        ContentClass, ContentId, ControlTree, Direction, EnergyBook, MetricKind, NameService,
        NodeSet, Params, PriorityPolicy, SelectorConfig, SlaMonitor,
    };
    pub use scda_experiments::{build_figure, run_pair, Group, Scale, ScdaOptions, Scenario};
    pub use scda_metrics::{FctStats, FigureReport, ThroughputSeries};
    pub use scda_obs::{Obs, Registry, TraceEvent};
    pub use scda_simnet::{builders::ThreeTierConfig, Network, NodeId};
    pub use scda_transport::{AnyTransport, FlowDriver, Reno, ScdaWindow};
    pub use scda_workloads::{DatacenterConfig, SyntheticConfig, Workload, YouTubeConfig};
}
