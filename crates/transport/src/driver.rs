//! The flow driver: couples transports to the fluid network.
//!
//! Both evaluated systems (SCDA and the RandTCP baseline) run on the same
//! driver; they differ only in which transport each flow carries and in
//! who updates the transports between ticks (SCDA's control plane installs
//! fresh rate allocations every τ; TCP updates itself from loss feedback).

use scda_audit::Audit;
use scda_obs::{metric, Obs, TraceEvent};
use scda_simnet::{FlowId, Network, NodeId, PathId, TickReport};

use crate::flow::FlowProgress;
use crate::{AnyTransport, Transport};

/// A finished transfer, as reported by [`FlowDriver::tick`].
#[derive(Debug, Clone, Copy)]
pub struct CompletedFlow {
    /// Flow id.
    pub id: FlowId,
    /// Content size in bytes.
    pub size_bytes: f64,
    /// Transfer start time (s).
    pub start: f64,
    /// Completion time (s).
    pub finish: f64,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
}

impl CompletedFlow {
    /// Flow completion time in seconds.
    #[inline]
    pub fn fct(&self) -> f64 {
        self.finish - self.start
    }
}

/// Outcome of one driver tick, refilled in place by [`FlowDriver::tick`].
#[derive(Debug, Clone, Default)]
pub struct TickSummary {
    /// Flows that finished during this tick.
    pub completed: Vec<CompletedFlow>,
    /// Total bytes delivered end-to-end across all flows this tick (the
    /// sample behind the paper's instantaneous-throughput figures).
    pub delivered_bytes: f64,
}

/// Drives a set of flows over a [`Network`] tick by tick.
///
/// The network's slot arena is the one flow table: the driver's
/// per-flow columns are indexed by the network slot each flow occupies,
/// and every walk over the active flows goes through
/// [`Network::flow_slots`], in ascending id order.
pub struct FlowDriver {
    net: Network,
    /// Per network slot: the flow's delivery progress (dead slots hold
    /// stale entries until a new flow reuses the slot).
    progress: Vec<FlowProgress>,
    /// Per network slot: the flow's transport.
    transports: Vec<AnyTransport>,
    /// Scratch: `(network slot, offered rate)` in ascending id order,
    /// rebuilt each tick and handed to the network as is.
    offered: Vec<(u32, f64)>,
    /// Reusable tick report (the network clears and refills it).
    report: TickReport,
    /// Observability sink (disabled by default: every emit is one branch).
    obs: Obs,
    /// Flow-lifecycle audit sink (disabled by default, like `obs`).
    audit: Audit,
}

impl FlowDriver {
    /// A driver over `net` with no active flows.
    ///
    /// # Panics
    ///
    /// Panics if `net` already carries flows: a driver's network gets
    /// flows only through the driver.
    pub fn new(net: Network) -> Self {
        assert_eq!(net.flow_count(), 0, "a driver's network starts empty");
        FlowDriver {
            net,
            progress: Vec::new(),
            transports: Vec::new(),
            offered: Vec::new(),
            report: TickReport::default(),
            obs: Obs::disabled(),
            audit: Audit::disabled(),
        }
    }

    /// Pre-size the flow columns (and the per-tick scratch buffer)
    /// for `n` concurrent flows, so hyperscale scenarios skip the
    /// doubling reallocations on their way to 100k+ live flows.
    pub fn reserve_flows(&mut self, n: usize) {
        self.progress.reserve(n);
        self.transports.reserve(n);
        self.offered.reserve(n);
    }

    /// Attach an observability handle: flow starts and completions are
    /// traced and FCTs land in the `flow.fct_s` histogram.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Attach an audit handle: flow spans record their data-plane open
    /// and completion times as the driver sees them.
    pub fn set_audit(&mut self, audit: Audit) {
        self.audit = audit;
    }

    /// The underlying network (queue state, RTTs, topology).
    #[inline]
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable network access (resource monitors sample link counters,
    /// fault injection edits links, explicit paths are interned). Flows
    /// must not be inserted or removed through it: the driver's columns
    /// live in the network's slot space, so flows enter and leave only
    /// through [`FlowDriver::start_flow`], [`FlowDriver::start_flow_on`],
    /// [`FlowDriver::abort_flow`] and [`FlowDriver::tick`].
    #[inline]
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Number of in-flight transfers.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.net.flow_count()
    }

    /// Begin a transfer of `size_bytes` from `src` to `dst` at time `now`
    /// using `transport`, over the shortest path.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already active or the pair is unroutable.
    pub fn start_flow(
        &mut self,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        size_bytes: f64,
        transport: AnyTransport,
        now: f64,
    ) {
        let slot = self.net.insert_flow(id, src, dst).slot();
        self.adopt(slot, FlowProgress::new(id, size_bytes, now), transport);
    }

    /// [`FlowDriver::start_flow`] over the interned path `pid` (e.g. an
    /// ECMP candidate or the cross-layer max/min route of §IX, interned
    /// with [`Network::intern_path`]) instead of the shortest path:
    /// `size_bytes` bytes starting at `now` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already active.
    #[expect(
        clippy::too_many_arguments,
        reason = "start_flow's arguments plus the path"
    )]
    pub fn start_flow_on(
        &mut self,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        pid: PathId,
        size_bytes: f64,
        transport: AnyTransport,
        now: f64,
    ) {
        let slot = self.net.insert_flow_interned(id, src, dst, pid).slot();
        self.adopt(slot, FlowProgress::new(id, size_bytes, now), transport);
    }

    /// Fill the driver's columns at the network slot a new flow just
    /// took, and report the start.
    fn adopt(&mut self, slot: u32, progress: FlowProgress, transport: AnyTransport) {
        let s = slot as usize;
        if s < self.progress.len() {
            self.progress[s] = progress;
            self.transports[s] = transport;
        } else {
            // A slot the columns have not reached yet; any gap before
            // it holds dead slots.
            self.progress.resize(s + 1, progress);
            self.transports.resize(s + 1, transport);
        }
        self.obs.emit_with(|| {
            let (src, dst) = self.net.endpoints_of_slot(slot);
            TraceEvent::FlowStarted {
                now: progress.start,
                flow: progress.id.0,
                src: src.0,
                dst: dst.0,
                size_bytes: progress.size_bytes,
            }
        });
        self.obs.counter_add(metric::FLOW_STARTED, 1);
        self.audit.opened(progress.start, progress.id.0);
    }

    /// Abort an in-flight transfer (SLA mitigation may migrate a flow to a
    /// different server: abort + restart).
    pub fn abort_flow(&mut self, id: FlowId) -> Option<FlowProgress> {
        let slot = self.net.flow_slot(id)?;
        self.net.remove_flow(id);
        Some(self.progress[slot as usize])
    }

    /// The transport of an active flow (the SCDA control plane uses this
    /// to install per-τ rate allocations).
    pub fn transport_mut(&mut self, id: FlowId) -> Option<&mut AnyTransport> {
        let slot = self.net.flow_slot(id)?;
        Some(&mut self.transports[slot as usize])
    }

    /// Read-only transport access (telemetry sums current offered rates).
    pub fn transport(&self, id: FlowId) -> Option<&AnyTransport> {
        let slot = self.net.flow_slot(id)?;
        Some(&self.transports[slot as usize])
    }

    /// Progress of an active flow.
    pub fn progress(&self, id: FlowId) -> Option<&FlowProgress> {
        let slot = self.net.flow_slot(id)?;
        Some(&self.progress[slot as usize])
    }

    /// Progress of the active flow in network slot `slot` (a slot from
    /// [`Network::flow_slots`]: a caller that merges its own id-ordered
    /// table against that walk needs no id lookups).
    #[inline]
    pub fn progress_of_slot(&self, slot: u32) -> &FlowProgress {
        &self.progress[slot as usize]
    }

    /// Transport of the active flow in network slot `slot`.
    #[inline]
    pub fn transport_of_slot_mut(&mut self, slot: u32) -> &mut AnyTransport {
        &mut self.transports[slot as usize]
    }

    /// Iterate over active flow ids with their endpoints, in id order.
    pub fn active_flows(&self) -> impl Iterator<Item = (FlowId, NodeId, NodeId)> + '_ {
        self.net.flow_slots().map(|(id, slot)| {
            let (src, dst) = self.net.endpoints_of_slot(slot);
            (id, src, dst)
        })
    }

    /// Current queueing-inflated RTT of an active flow.
    pub fn rtt(&self, id: FlowId) -> f64 {
        self.net.rtt(id)
    }

    /// Sum every active flow's current offered rate onto the links of its
    /// path: `loads[link.index()]` receives the per-link S sums the SCDA
    /// control plane feeds into eq. 4/6 telemetry. Clears `loads` first;
    /// flows are visited in id order, so the floating-point accumulation
    /// is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `loads` is shorter than the topology's link count.
    pub fn offered_loads_into(&self, loads: &mut [f64]) {
        loads.fill(0.0);
        for (_, slot) in self.net.flow_slots() {
            let rtt = self.net.rtt_of_slot(slot);
            let rate = self.transports[slot as usize].offered_rate(rtt);
            for &l in self.net.path_of_slot(slot) {
                loads[l.index()] += rate;
            }
        }
    }

    /// Advance every flow by `dt` seconds starting at time `now`, and
    /// refill `summary` with the tick's outcome.
    ///
    /// Each transport offers `min(its rate, remaining/dt)`; the network
    /// resolves contention; transports digest the outcome; completed flows
    /// are removed and reported. One serial pass in ascending flow-id
    /// order, so every float accumulation is deterministic. `summary` is
    /// the caller's to reuse: a tick that completes flows allocates
    /// nothing once its list has grown to the largest completion burst.
    pub fn tick(&mut self, now: f64, dt: f64, summary: &mut TickSummary) {
        // Read pass: each flow's offer, in ascending id order (the
        // determinism contract).
        self.offered.clear();
        for (_, slot) in self.net.flow_slots() {
            let s = slot as usize;
            let rtt = self.net.rtt_of_slot(slot);
            let rate = self.transports[s]
                .offered_rate(rtt)
                .min(self.progress[s].remaining() / dt);
            self.offered.push((slot, rate));
        }

        let mut report = std::mem::take(&mut self.report);
        self.net.advance_slots_into(dt, &self.offered, &mut report);

        let tick_end = now + dt;
        summary.completed.clear();
        summary.delivered_bytes = 0.0;
        for (ft, &(slot, rate)) in report.flows.iter().zip(&self.offered) {
            let s = slot as usize;
            debug_assert_eq!(
                ft.flow, self.progress[s].id,
                "tick report order diverged from the offered order"
            );
            let (progress, transport) = (&mut self.progress[s], &mut self.transports[s]);
            transport.on_tick(now, ft.goodput_bytes, rate * dt, ft.loss_frac, ft.rtt);
            summary.delivered_bytes += ft.goodput_bytes;
            if progress.on_delivered(ft.goodput_bytes, tick_end) {
                let (src, dst) = self.net.endpoints_of_slot(slot);
                // The fluid model streams bytes with zero transit time;
                // the last byte really lands one forward-propagation
                // later (validated against the packet-level simulator in
                // tests/fluid_vs_packet.rs).
                summary.completed.push(CompletedFlow {
                    id: ft.flow,
                    size_bytes: progress.size_bytes,
                    start: progress.start,
                    finish: tick_end + self.net.base_rtt_of_slot(slot) / 2.0,
                    src,
                    dst,
                });
            }
        }
        self.report = report;
        for c in &summary.completed {
            self.net.remove_flow(c.id);
        }
        if self.obs.is_enabled() && !summary.completed.is_empty() {
            for c in &summary.completed {
                self.obs.emit(TraceEvent::FlowCompleted {
                    now: c.finish,
                    flow: c.id.0,
                    size_bytes: c.size_bytes,
                    fct: c.fct(),
                });
                self.obs.observe(metric::FLOW_FCT_S, c.fct());
            }
            self.obs
                .counter_add(metric::FLOW_COMPLETED, summary.completed.len() as u64);
        }
        if self.audit.is_enabled() {
            for c in &summary.completed {
                self.audit.completed(c.finish, c.id.0, c.fct());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{Reno, RenoConfig};
    use crate::ScdaWindow;
    use scda_simnet::builders::dumbbell;
    use scda_simnet::units::mbps;

    fn driver(n: usize) -> (FlowDriver, Vec<NodeId>, Vec<NodeId>) {
        let (topo, s, r, _) = dumbbell(n, mbps(80.0), 0.001, 200_000.0);
        (FlowDriver::new(Network::new(topo)), s, r)
    }

    fn run(d: &mut FlowDriver, t0: f64, dur: f64, dt: f64) -> Vec<CompletedFlow> {
        let mut done = Vec::new();
        let mut summary = TickSummary::default();
        let mut now = t0;
        while now < t0 + dur {
            d.tick(now, dt, &mut summary);
            done.extend_from_slice(&summary.completed);
            now += dt;
        }
        done
    }

    #[test]
    fn single_tcp_flow_completes() {
        let (mut d, s, r) = driver(1);
        d.start_flow(
            FlowId(1),
            s[0],
            r[0],
            500_000.0,
            AnyTransport::Tcp(Reno::default()),
            0.0,
        );
        let done = run(&mut d, 0.0, 20.0, 0.001);
        assert_eq!(done.len(), 1);
        assert_eq!(d.active_count(), 0);
        let fct = done[0].fct();
        // 500 KB at 10 MB/s line rate is 50 ms minimum; slow start makes it
        // slower, but it must finish well within 20 s.
        assert!(fct > 0.05 && fct < 20.0, "fct = {fct}");
    }

    #[test]
    fn scda_flow_finishes_near_allocated_rate() {
        let (mut d, s, r) = driver(1);
        let rate = mbps(80.0) / 8.0; // full bottleneck, bytes/s
        let rtt = 0.0024;
        d.start_flow(
            FlowId(1),
            s[0],
            r[0],
            1_000_000.0,
            AnyTransport::Scda(ScdaWindow::new(rate, rate, rtt)),
            0.0,
        );
        let done = run(&mut d, 0.0, 5.0, 0.001);
        assert_eq!(done.len(), 1);
        let fct = done[0].fct();
        let ideal = 1_000_000.0 / rate;
        assert!(
            (fct - ideal).abs() < 0.05,
            "explicit-rate fct {fct} should be near ideal {ideal}"
        );
    }

    #[test]
    fn scda_beats_tcp_on_short_flows() {
        // The paper's headline effect in miniature: a short transfer under
        // slow start vs one that jumps straight to the known rate. Use a
        // WAN-like RTT (the paper's clients sit behind 50 ms links) so slow
        // start costs several round trips.
        let wan = |n| {
            let (topo, s, r, _) = dumbbell(n, mbps(80.0), 0.02, 200_000.0);
            (FlowDriver::new(Network::new(topo)), s, r)
        };
        let (mut d1, s, r) = wan(1);
        d1.start_flow(
            FlowId(1),
            s[0],
            r[0],
            200_000.0,
            AnyTransport::Tcp(Reno::default()),
            0.0,
        );
        let tcp_fct = run(&mut d1, 0.0, 20.0, 0.001)[0].fct();

        let (mut d2, s, r) = wan(1);
        let rate = mbps(80.0) / 8.0;
        d2.start_flow(
            FlowId(1),
            s[0],
            r[0],
            200_000.0,
            AnyTransport::Scda(ScdaWindow::new(rate, rate, 0.048)),
            0.0,
        );
        let scda_fct = run(&mut d2, 0.0, 20.0, 0.001)[0].fct();
        assert!(
            scda_fct < 0.6 * tcp_fct,
            "scda {scda_fct} should be well under tcp {tcp_fct}"
        );
    }

    #[test]
    fn two_tcp_flows_share_bottleneck_roughly_fairly() {
        let (mut d, s, r) = driver(2);
        let size = 8_000_000.0;
        d.start_flow(
            FlowId(1),
            s[0],
            r[0],
            size,
            AnyTransport::Tcp(Reno::default()),
            0.0,
        );
        d.start_flow(
            FlowId(2),
            s[1],
            r[1],
            size,
            AnyTransport::Tcp(Reno::default()),
            0.0,
        );
        let done = run(&mut d, 0.0, 60.0, 0.001);
        assert_eq!(done.len(), 2);
        let f1 = done.iter().find(|c| c.id == FlowId(1)).unwrap().fct();
        let f2 = done.iter().find(|c| c.id == FlowId(2)).unwrap().fct();
        let ratio = f1.max(f2) / f1.min(f2);
        assert!(
            ratio < 1.5,
            "equal flows should finish within 50%: {f1} vs {f2}"
        );
    }

    #[test]
    fn abort_removes_flow() {
        let (mut d, s, r) = driver(1);
        d.start_flow(
            FlowId(1),
            s[0],
            r[0],
            1e6,
            AnyTransport::Tcp(Reno::default()),
            0.0,
        );
        d.tick(0.0, 0.001, &mut TickSummary::default());
        let p = d.abort_flow(FlowId(1)).unwrap();
        assert!(p.acked_bytes < 1e6);
        assert_eq!(d.active_count(), 0);
        assert!(d.abort_flow(FlowId(1)).is_none());
    }

    #[test]
    fn delivered_bytes_tracks_goodput() {
        let (mut d, s, r) = driver(1);
        let rate = 1_000_000.0;
        d.start_flow(
            FlowId(1),
            s[0],
            r[0],
            1e9,
            AnyTransport::Scda(ScdaWindow::new(rate, rate, 0.0024)),
            0.0,
        );
        // Warm up RTT estimate, then measure one tick.
        let mut s100 = TickSummary::default();
        for i in 0..100 {
            d.tick(i as f64 * 0.001, 0.001, &mut s100);
        }
        d.tick(0.1, 0.001, &mut s100);
        assert!((s100.delivered_bytes - rate * 0.001).abs() < rate * 0.001 * 0.1);
    }

    #[test]
    fn timeout_capped_flow_never_exceeds_remaining() {
        let (mut d, s, r) = driver(1);
        d.start_flow(
            FlowId(1),
            s[0],
            r[0],
            1000.0,
            AnyTransport::Scda(ScdaWindow::new(1e9, 1e9, 0.0024)),
            0.0,
        );
        // Huge allocated rate but only 1000 bytes: must complete without
        // negative remaining or repeated completion.
        let done = run(&mut d, 0.0, 1.0, 0.001);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].size_bytes, 1000.0);
    }

    #[test]
    fn observed_driver_traces_flow_lifecycle() {
        let obs = scda_obs::Obs::enabled();
        let (mut d, s, r) = driver(1);
        d.set_obs(obs.clone());
        let rate = mbps(80.0) / 8.0;
        d.start_flow(
            FlowId(7),
            s[0],
            r[0],
            100_000.0,
            AnyTransport::Scda(ScdaWindow::new(rate, rate, 0.0024)),
            0.0,
        );
        let done = run(&mut d, 0.0, 5.0, 0.001);
        assert_eq!(done.len(), 1);
        let m = obs.metrics_snapshot().unwrap();
        assert_eq!(m.counter("flow.started"), 1);
        assert_eq!(m.counter("flow.completed"), 1);
        assert_eq!(m.histogram("flow.fct_s").unwrap().count(), 1);
        let jsonl = obs.trace_jsonl().unwrap();
        assert!(jsonl.contains("\"event\":\"flow_started\""));
        assert!(jsonl.contains("\"event\":\"flow_completed\""));
    }

    #[test]
    fn both_start_paths_are_observed() {
        let obs = scda_obs::Obs::enabled();
        let (mut d, s, r) = driver(1);
        d.set_obs(obs.clone());
        let tcp = || AnyTransport::Tcp(Reno::default());
        d.start_flow(FlowId(1), s[0], r[0], 1e6, tcp(), 0.0);
        let path = d.net().flow(FlowId(1)).path().to_vec();
        let pid = d.net_mut().intern_path(&path);
        d.start_flow_on(FlowId(2), s[0], r[0], pid, 1e6, tcp(), 0.0);
        assert_eq!(d.net().flow(FlowId(2)).path(), &path[..]);
        let m = obs.metrics_snapshot().unwrap();
        assert_eq!(m.counter("flow.started"), 2);
        let jsonl = obs.trace_jsonl().unwrap();
        assert_eq!(jsonl.matches("\"event\":\"flow_started\"").count(), 2);
    }

    #[test]
    fn iteration_is_id_ordered_regardless_of_slots() {
        let (mut d, s, r) = driver(1);
        for raw in [5u64, 1, 9, 3] {
            let t = AnyTransport::Tcp(Reno::default());
            d.start_flow(FlowId(raw), s[0], r[0], 1e6, t, 0.0);
        }
        d.abort_flow(FlowId(1));
        // Flow 2 reuses flow 1's slot and sorts between 1 and 3.
        let t = AnyTransport::Tcp(Reno::default());
        d.start_flow(FlowId(2), s[0], r[0], 1e6, t, 0.0);
        let ids: Vec<u64> = d.active_flows().map(|(id, _, _)| id.0).collect();
        assert_eq!(ids, vec![2, 3, 5, 9]);
    }

    #[test]
    fn slot_reuse_does_not_alias() {
        let (mut d, s, r) = driver(2);
        let rate = mbps(80.0) / 8.0;
        let scda = |rate| AnyTransport::Scda(ScdaWindow::new(rate, rate, 0.0024));
        d.start_flow(FlowId(1), s[0], r[0], 10_000.0, scda(rate), 0.0);
        let slot1 = d.net().flow(FlowId(1)).slot();
        assert_eq!(run(&mut d, 0.0, 1.0, 0.001).len(), 1);
        d.start_flow(FlowId(2), s[1], r[1], 5e6, scda(rate / 4.0), 1.0);
        assert_eq!(
            d.net().flow(FlowId(2)).slot(),
            slot1,
            "freed slot is reused"
        );
        let p = d.progress(FlowId(2)).unwrap();
        assert_eq!(
            (p.id, p.size_bytes, p.acked_bytes, p.start),
            (FlowId(2), 5e6, 0.0, 1.0)
        );
        match d.transport(FlowId(2)) {
            Some(AnyTransport::Scda(w)) => assert_eq!(w.rate_up(), rate / 4.0),
            other => panic!("flow 2 sees transport {other:?}"),
        }
        assert_eq!(
            d.active_flows().collect::<Vec<_>>(),
            vec![(FlowId(2), s[1], r[1])]
        );
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_start_rejected() {
        let (mut d, s, r) = driver(1);
        let t = AnyTransport::Tcp(Reno::default());
        d.start_flow(FlowId(1), s[0], r[0], 1e6, t.clone(), 0.0);
        d.start_flow(FlowId(1), s[0], r[0], 1e6, t, 0.0);
    }

    #[test]
    fn tcp_config_with_small_receiver_window_limits_rate() {
        let (mut d, s, r) = driver(1);
        let cfg = RenoConfig {
            max_cwnd: 5_000.0,
            ..Default::default()
        };
        d.start_flow(
            FlowId(1),
            s[0],
            r[0],
            1_000_000.0,
            AnyTransport::Tcp(Reno::new(cfg)),
            0.0,
        );
        // max rate = 5 KB / 2.4 ms ≈ 2.08 MB/s → 1 MB takes ≥ ~0.48 s.
        let done = run(&mut d, 0.0, 30.0, 0.001);
        assert_eq!(done.len(), 1);
        assert!(done[0].fct() > 0.4);
    }
}
