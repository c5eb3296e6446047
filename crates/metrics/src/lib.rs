//! # scda-metrics — evaluation metrics and figure reporting
//!
//! Collects exactly what the paper's §X figures plot:
//!
//! * [`fct`] — per-flow completion records, FCT CDFs (figures 8, 11, 14,
//!   16, 18) and AFCT-by-size curves (figures 9, 12, 13, 15);
//! * [`throughput`] — instantaneous average throughput time series
//!   (figures 7, 10, 17);
//! * [`report`] — two-series figure containers with the paper-style text
//!   tables, JSON archiving, and the headline SCDA-vs-RandTCP
//!   improvement numbers EXPERIMENTS.md records;
//! * [`fairness`] — Jain's fairness index and utilization accumulators
//!   backing the max-min claims.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![deny(deprecated)]

pub mod fairness;
pub mod fct;
pub mod report;
pub mod throughput;

pub use fairness::{jain_index, Utilization};
pub use fct::{FctStats, FlowRecord, SizeBin};
pub use report::{FigureReport, Series};
pub use throughput::{ThroughputPoint, ThroughputSeries};
