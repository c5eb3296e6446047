//! # scda-experiments — the §X evaluation harness
//!
//! Wires the substrates together and regenerates every figure of the
//! paper's evaluation:
//!
//! * [`scenario`] — topology + workload + timing presets for the three
//!   §X setups (video traces ± control flows, datacenter traces at K ∈
//!   {1, 3}, Pareto/Poisson synthetic);
//! * [`runner`] — the staged simulation kernel plus the policy
//!   compositions that make up the two systems: SCDA (control tree,
//!   per-τ allocation, class-aware server selection, figure-3/5 setup
//!   costs) and RandTCP (random server selection + TCP Reno +
//!   handshake);
//! * [`figures`] — the figure index: five simulation groups → figures
//!   7-18 as [`scda_metrics::FigureReport`]s;
//! * [`probe`] — what a harness reads off a run: the kernel's stage
//!   boundaries ([`probe::KernelClock`]) and [`RunResult::digest`].
//!
//! The `figures` binary (`cargo run --release --bin figures`)
//! regenerates any or all figures from the command line.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![deny(deprecated)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ablations;
pub mod content_run;
pub mod figures;
pub mod multipath;
pub mod probe;
pub mod replication;
pub mod runner;
pub mod scenario;

pub use content_run::{run_content, ContentRunConfig, ContentRunResult, ReplicaScope};
pub use figures::{build_figure, run_pair, ExperimentPair, Group};
pub use multipath::{run_multipath, MultipathConfig, MultipathResult, PathPolicy};
pub use replication::{aggregate, run_seeds, Aggregate, SeedSummary};
pub use runner::{
    run_randtcp, run_scda, run_scda_with, Accounting, ControlPolicy, DataTransport, EnergyOptions,
    Placement, PlacementCtx, ReservationPlan, RunResult, ScdaOptions, SelectionPolicy, SimKernel,
    TransportPolicy,
};
pub use scenario::{Scale, Scenario};
