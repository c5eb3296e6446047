//! Packet-granularity reference simulator.
//!
//! The headline experiments run on the fluid model ([`crate::Network`]),
//! which DESIGN.md argues preserves everything the paper measures. This
//! module is the evidence: a store-and-forward, per-packet, event-driven
//! simulator (built on [`crate::Scheduler`]) over the
//! *same* topologies, against which the fluid model's completion times and
//! queueing delays are cross-validated in `tests/` — the NS2-fidelity
//! check, minus NS2.
//!
//! Two source models cover both transports' pacing disciplines:
//!
//! * [`SourceModel::Paced`] — packets injected at a fixed rate (how the
//!   SCDA explicit-rate window behaves once the allocation is installed);
//! * [`SourceModel::Window`] — a fixed sliding window of packets in
//!   flight, a new injection per delivery (the skeleton of any
//!   window-based transport; acknowledgments are modeled as a pure return
//!   propagation delay).

use std::collections::VecDeque;

use crate::event::Scheduler;
use crate::ids::{LinkId, NodeId};
use crate::routing::Routes;
use crate::topology::Topology;
use crate::units::MSS;

/// How a packet source paces itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceModel {
    /// Inject one MSS every `mss/rate` seconds (explicit-rate pacing).
    Paced {
        /// Sending rate in bytes/second.
        rate: f64,
    },
    /// Keep up to `packets` MSS in flight; each delivery (after the ack
    /// propagation delay) releases the next injection.
    Window {
        /// Window size in packets.
        packets: u32,
    },
}

/// One transfer to simulate.
#[derive(Debug, Clone)]
pub struct PacketFlow {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Transfer size in bytes (rounded up to whole MSS packets).
    pub size_bytes: f64,
    /// Pacing discipline.
    pub source: SourceModel,
    /// Injection start time.
    pub start: f64,
}

/// Per-flow outcome.
#[derive(Debug, Clone, Copy)]
pub struct PacketFlowResult {
    /// When the last packet reached the destination (`None` if the run
    /// ended first).
    pub finish: Option<f64>,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped at full queues.
    pub dropped: u64,
}

/// Whole-run outcome.
#[derive(Debug, Clone)]
pub struct PacketSimResult {
    /// Per-flow results, in input order.
    pub flows: Vec<PacketFlowResult>,
    /// Maximum queue occupancy observed per link, bytes.
    pub peak_queue_bytes: Vec<f64>,
    /// Events processed (diagnostic).
    pub events: u64,
}

#[derive(Debug, Clone, Copy)]
struct Packet {
    flow: usize,
    /// Index into the flow's path of the link it is about to cross.
    hop: usize,
    bytes: f64,
    /// Whether this is the flow's final packet.
    last: bool,
}

#[derive(Debug)]
enum Ev {
    /// Source tries to inject its next packet.
    Inject { flow: usize },
    /// A link finished serializing its head packet.
    Depart { link: usize },
    /// A packet arrived at the head of `hop`'s link queue entry point.
    Arrive { pkt: Packet },
    /// The destination's ack for `seq` reached the source (window model).
    Acked { flow: usize },
}

struct LinkQ {
    queue: VecDeque<Packet>,
    queued_bytes: f64,
    busy: bool,
    cap_bytes_per_s: f64,
    delay_s: f64,
    queue_cap_bytes: f64,
    peak_bytes: f64,
}

struct FlowState {
    path: Vec<LinkId>,
    source: SourceModel,
    total_packets: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    in_flight: u32,
    finish: Option<f64>,
    /// One-way ack delay back to the source (propagation only).
    ack_delay: f64,
}

struct PacketSim {
    links: Vec<LinkQ>,
    flows: Vec<FlowState>,
}

impl PacketSim {
    /// Start serializing the head packet of `link` if idle.
    fn kick(&mut self, link: usize, sched: &mut Scheduler<Ev>) {
        let lq = &mut self.links[link];
        if lq.busy {
            return;
        }
        if let Some(pkt) = lq.queue.front().copied() {
            lq.busy = true;
            sched.after(pkt.bytes / lq.cap_bytes_per_s, Ev::Depart { link });
        }
    }

    /// Handle one event at time `now`; schedule any follow-ups on `sched`.
    fn handle(&mut self, now: f64, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Inject { flow } => {
                let f = &mut self.flows[flow];
                if f.injected >= f.total_packets {
                    return;
                }
                if let SourceModel::Window { packets } = f.source {
                    if f.in_flight >= packets {
                        return; // re-armed by the next ack
                    }
                }
                let seq = f.injected;
                f.injected += 1;
                f.in_flight += 1;
                let pkt = Packet {
                    flow,
                    hop: 0,
                    bytes: MSS,
                    last: seq + 1 == f.total_packets,
                };
                sched.after(0.0, Ev::Arrive { pkt });
                match f.source {
                    SourceModel::Paced { rate } => {
                        if f.injected < f.total_packets {
                            sched.after(MSS / rate, Ev::Inject { flow });
                        }
                    }
                    SourceModel::Window { .. } => {
                        // Next injection comes from the ack (or instantly
                        // if the window still has room).
                        sched.after(0.0, Ev::Inject { flow });
                    }
                }
            }
            Ev::Arrive { pkt } => {
                let path = &self.flows[pkt.flow].path;
                if pkt.hop >= path.len() {
                    // Delivered to the destination.
                    let ack_delay = self.flows[pkt.flow].ack_delay;
                    let f = &mut self.flows[pkt.flow];
                    f.delivered += 1;
                    if pkt.last && f.finish.is_none() {
                        f.finish = Some(now);
                    }
                    sched.after(ack_delay, Ev::Acked { flow: pkt.flow });
                    return;
                }
                let link = path[pkt.hop].index();
                let lq = &mut self.links[link];
                if lq.queued_bytes + pkt.bytes > lq.queue_cap_bytes {
                    self.flows[pkt.flow].dropped += 1;
                    self.flows[pkt.flow].in_flight =
                        self.flows[pkt.flow].in_flight.saturating_sub(1);
                    return;
                }
                lq.queued_bytes += pkt.bytes;
                lq.peak_bytes = lq.peak_bytes.max(lq.queued_bytes);
                lq.queue.push_back(pkt);
                self.kick(link, sched);
            }
            Ev::Depart { link } => {
                let lq = &mut self.links[link];
                lq.busy = false;
                let mut pkt = lq
                    .queue
                    .pop_front()
                    .expect("departing link has a head packet");
                lq.queued_bytes -= pkt.bytes;
                let delay = lq.delay_s;
                pkt.hop += 1;
                sched.after(delay, Ev::Arrive { pkt });
                self.kick(link, sched);
            }
            Ev::Acked { flow } => {
                let f = &mut self.flows[flow];
                f.in_flight = f.in_flight.saturating_sub(1);
                if matches!(f.source, SourceModel::Window { .. }) && f.injected < f.total_packets {
                    sched.after(0.0, Ev::Inject { flow });
                }
            }
        }
    }
}

/// Run a packet-level simulation of `flows` over `topo` until `horizon`.
pub fn simulate_packets(topo: &Topology, flows: &[PacketFlow], horizon: f64) -> PacketSimResult {
    let mut routes = Routes::new();
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let states: Vec<FlowState> = flows
        .iter()
        .map(|f| {
            let pid = routes
                .path_handle(topo, f.src, f.dst)
                .unwrap_or_else(|| panic!("no route {} -> {}", f.src, f.dst));
            let path = routes.path_of(pid).to_vec();
            let ack_delay: f64 = path.iter().map(|&l| topo.link(l).delay_s).sum();
            FlowState {
                path,
                source: f.source,
                total_packets: (f.size_bytes / MSS).ceil().max(1.0) as u64,
                injected: 0,
                delivered: 0,
                dropped: 0,
                in_flight: 0,
                finish: None,
                ack_delay,
            }
        })
        .collect();
    let links: Vec<LinkQ> = topo
        .links()
        .iter()
        .map(|l| LinkQ {
            queue: VecDeque::new(),
            queued_bytes: 0.0,
            busy: false,
            cap_bytes_per_s: l.capacity_bytes(),
            delay_s: l.delay_s,
            queue_cap_bytes: l.queue_cap_bytes,
            peak_bytes: 0.0,
        })
        .collect();
    let mut sim = PacketSim {
        links,
        flows: states,
    };
    for (i, f) in flows.iter().enumerate() {
        sched.at(f.start, Ev::Inject { flow: i });
    }
    // Drain in timestamp order until the queue empties or the next event
    // is strictly after the horizon (events at the horizon still run),
    // one same-timestamp batch at a time.
    let mut events = 0;
    let mut batch = Vec::new();
    while let Some(now) = sched.pop_batch_until(horizon, &mut batch) {
        events += batch.len() as u64;
        for ev in batch.drain(..) {
            sim.handle(now, ev, &mut sched);
        }
    }
    PacketSimResult {
        flows: sim
            .flows
            .iter()
            .map(|f| PacketFlowResult {
                finish: f.finish,
                delivered: f.delivered,
                dropped: f.dropped,
            })
            .collect(),
        peak_queue_bytes: sim.links.iter().map(|l| l.peak_bytes).collect(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::dumbbell;
    use crate::units::mbps;

    #[test]
    fn paced_flow_finishes_at_rate_plus_pipe() {
        let (topo, s, r, _) = dumbbell(1, mbps(80.0), 0.001, 1e9);
        let rate = 2e6; // 2 MB/s through a 10 MB/s bottleneck
        let size = 1e6;
        let res = simulate_packets(
            &topo,
            &[PacketFlow {
                src: s[0],
                dst: r[0],
                size_bytes: size,
                source: SourceModel::Paced { rate },
                start: 0.0,
            }],
            60.0,
        );
        let fct = res.flows[0].finish.expect("completes");
        // Ideal: injection time (size/rate) + last-packet pipe traversal.
        let ideal = size / rate + 0.0012;
        assert!(
            (fct - ideal).abs() < 0.05 * ideal,
            "packet fct {fct} vs ideal {ideal}"
        );
        assert_eq!(res.flows[0].dropped, 0);
    }

    #[test]
    fn overload_paced_flow_drops_at_the_bottleneck() {
        let (topo, s, r, (fwd, _)) = dumbbell(1, mbps(8.0), 0.001, 20_000.0);
        let res = simulate_packets(
            &topo,
            &[PacketFlow {
                src: s[0],
                dst: r[0],
                size_bytes: 5e6,
                source: SourceModel::Paced { rate: 5e6 }, // 5x the 1 MB/s link
                start: 0.0,
            }],
            10.0,
        );
        assert!(res.flows[0].dropped > 0, "5x overload must drop");
        assert!(res.peak_queue_bytes[fwd.index()] <= 20_000.0 + 1e-9);
    }

    #[test]
    fn window_flow_throughput_is_window_over_rtt() {
        let (topo, s, r, _) = dumbbell(1, mbps(800.0), 0.01, 1e9);
        // 10 packets in flight over a ~24 ms pipe on a fast link:
        // throughput ≈ W·MSS/RTT, far below the 100 MB/s line rate.
        let size = 2e6;
        let res = simulate_packets(
            &topo,
            &[PacketFlow {
                src: s[0],
                dst: r[0],
                size_bytes: size,
                source: SourceModel::Window { packets: 10 },
                start: 0.0,
            }],
            60.0,
        );
        let fct = res.flows[0].finish.expect("completes");
        let rtt = 2.0 * 0.012; // symmetric prop both ways
        let expected = size / (10.0 * MSS / rtt);
        assert!(
            (fct - expected).abs() < 0.15 * expected,
            "window fct {fct} vs W/RTT ideal {expected}"
        );
    }

    #[test]
    fn two_paced_flows_share_serialization() {
        // Two 4 MB/s flows into a 10 MB/s link: both fit; delivery counts
        // are exact packet counts.
        let (topo, s, r, _) = dumbbell(2, mbps(80.0), 0.001, 1e9);
        let mk = |i: usize| PacketFlow {
            src: s[i],
            dst: r[i],
            size_bytes: 500_000.0,
            source: SourceModel::Paced { rate: 4e6 },
            start: 0.0,
        };
        let res = simulate_packets(&topo, &[mk(0), mk(1)], 30.0);
        for f in &res.flows {
            assert_eq!(f.delivered, (500_000.0_f64 / MSS).ceil() as u64);
            assert!(f.finish.is_some());
        }
    }

    #[test]
    fn unfinished_flows_report_none() {
        let (topo, s, r, _) = dumbbell(1, mbps(8.0), 0.001, 1e9);
        let res = simulate_packets(
            &topo,
            &[PacketFlow {
                src: s[0],
                dst: r[0],
                size_bytes: 1e9, // far too big for the horizon
                source: SourceModel::Paced { rate: 1e6 },
                start: 0.0,
            }],
            1.0,
        );
        assert!(res.flows[0].finish.is_none());
        assert!(res.flows[0].delivered > 0);
    }

    #[test]
    fn deterministic() {
        let (topo, s, r, _) = dumbbell(2, mbps(80.0), 0.001, 50_000.0);
        let flows = [
            PacketFlow {
                src: s[0],
                dst: r[0],
                size_bytes: 2e6,
                source: SourceModel::Paced { rate: 8e6 },
                start: 0.0,
            },
            PacketFlow {
                src: s[1],
                dst: r[1],
                size_bytes: 2e6,
                source: SourceModel::Window { packets: 20 },
                start: 0.1,
            },
        ];
        let a = simulate_packets(&topo, &flows, 30.0);
        let b = simulate_packets(&topo, &flows, 30.0);
        assert_eq!(a.flows[0].finish, b.flows[0].finish);
        assert_eq!(a.flows[1].delivered, b.flows[1].delivered);
        assert_eq!(a.events, b.events);
    }
}
