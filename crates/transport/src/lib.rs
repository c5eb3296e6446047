//! # scda-transport — flow transports over the fluid network
//!
//! Two transports drive flows across [`scda_simnet::Network`]:
//!
//! * [`tcp::Reno`] — a Reno-style TCP window model (slow start, congestion
//!   avoidance, fast-recovery halving on loss, timeout collapse). This is
//!   the data plane of the paper's **RandTCP** baseline: the VL2/Hedera
//!   behavior of relying on TCP to discover the sending rate, which the
//!   paper blames for inflated flow-completion times and throughput
//!   oscillation.
//! * [`scda::ScdaWindow`] — the SCDA explicit-rate protocol of §VIII: the
//!   sender's congestion window is `R_u × RTT` and the receiver's window is
//!   `R_d × RTT` (steps 8 and 12 of figure 3), the send window is their
//!   minimum, and both are refreshed every control interval τ (§VIII-D).
//!   The rates `R_u`/`R_d` come from the control plane in `scda-core`.
//!
//! [`driver::FlowDriver`] couples a set of flows + transports to the
//! network and advances everything tick by tick, which both the RandTCP and
//! SCDA experiment harnesses reuse. It keeps no flow table of its own: its
//! per-flow columns live in the network's slot space.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![deny(deprecated)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod driver;
pub mod flow;
pub mod scda;
pub mod tcp;

pub use driver::{CompletedFlow, FlowDriver, TickSummary};
pub use flow::FlowProgress;
pub use scda::ScdaWindow;
pub use tcp::{Reno, RenoConfig};

/// A transport decides a flow's instantaneous offered rate and reacts to
/// per-tick outcomes (delivered bytes, loss, measured RTT).
pub trait Transport {
    /// Instantaneous sending rate in bytes/second given the current
    /// queueing-inflated RTT.
    fn offered_rate(&self, rtt: f64) -> f64;

    /// Digest one tick at simulation time `now`: `acked_bytes` delivered
    /// end-to-end out of `offered_bytes` sent, `loss_frac` of offered bytes
    /// lost to full queues, and the measured `rtt`.
    fn on_tick(&mut self, now: f64, acked_bytes: f64, offered_bytes: f64, loss_frac: f64, rtt: f64);
}

/// Either transport, as a concrete enum (keeps the driver monomorphic and
/// allocation-free; the set of transports is closed in this reproduction).
#[derive(Debug, Clone)]
pub enum AnyTransport {
    /// TCP Reno (RandTCP baseline data plane).
    Tcp(Reno),
    /// SCDA explicit-rate windows.
    Scda(ScdaWindow),
}

impl Transport for AnyTransport {
    fn offered_rate(&self, rtt: f64) -> f64 {
        match self {
            AnyTransport::Tcp(t) => t.offered_rate(rtt),
            AnyTransport::Scda(s) => s.offered_rate(rtt),
        }
    }

    fn on_tick(&mut self, now: f64, acked: f64, offered: f64, loss: f64, rtt: f64) {
        match self {
            AnyTransport::Tcp(t) => t.on_tick(now, acked, offered, loss, rtt),
            AnyTransport::Scda(s) => s.on_tick(now, acked, offered, loss, rtt),
        }
    }
}
