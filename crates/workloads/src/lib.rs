//! # scda-workloads — workload generators for the SCDA evaluation
//!
//! The three workload families of the paper's §X, as deterministic
//! seed-driven generators:
//!
//! * [`youtube`] — the CDN video traces of §X-A1 (control flows < 5 KB,
//!   log-normal video bodies capped at ~30 MB with a rare oversize tail);
//! * [`datacenter`] — the VL2/Benson-style general datacenter traces of
//!   §X-A2 (mice/elephant size mixture, bursty arrivals);
//! * [`synthetic`] — the §X-B Pareto(mean 500 KB, shape 1.6) sizes with
//!   Poisson(200/s) arrivals.
//!
//! [`dist`] holds the underlying samplers (bounded Pareto by mean, Poisson
//! process, log-normal by median, empirical CDFs); [`spec`] the common
//! [`Workload`]/[`FlowSpec`] representation; [`trace`] JSON import/export
//! so real traces can replace the synthetic substitutes.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![deny(deprecated)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod datacenter;
pub mod dist;
pub mod interactive;
pub mod spec;
pub mod synthetic;
pub mod trace;
pub mod youtube;

pub use datacenter::DatacenterConfig;
pub use interactive::InteractiveConfig;
pub use spec::{FlowDirection, FlowKind, FlowSpec, Workload};
pub use synthetic::SyntheticConfig;
pub use youtube::{YouTubeConfig, CONTROL_VIDEO_SPLIT};
