//! The SCDA control plane as a [`ControlPolicy`].
//!
//! [`ScdaControl`] runs on the shared `ScdaPlane` — the RM/RA tree, its
//! placement index and the per-τ round — and owns what the headline runs
//! add to it: the client-side WAN allocators, the outstanding-load
//! discount, per-flow control records, violation attribution, the SLA
//! monitor/mitigation ladder, resource and energy books, and the
//! snapshot stream. It reacts to the kernel's lifecycle hooks: admission
//! prices each request through the figure-3/5 setup costs, the per-τ
//! round measures, mitigates and re-windows (§VIII-D), and completions
//! trigger §VIII-B replication writes.

use std::collections::BTreeMap;

use scda_audit::{
    Attribution, AuditClass, ViolationRecord, MITIGATION_ADD_BANDWIDTH, MITIGATION_ESCALATE,
    MITIGATION_REASSIGN,
};
use scda_core::{
    discounted_share, share_bound, ContentClass, Direction, EnergyBook, GroupSpan, LinkAllocator,
    Mitigation, NoDiscount, NodeSet, OpenFlowSjf, Params, PlaceQuery, PriorityPolicy, RateDiscount,
    ResourceBook, ServerMetrics, SlaMonitor, SnapshotStream, Telemetry,
};
use scda_obs::{metric, phase, Candidate, TraceEvent, MAX_CANDIDATES};
use scda_simnet::builders::ThreeTierTree;
use scda_simnet::{FlowId, FlowTable, LinkId, NodeId};
use scda_transport::{AnyTransport, CompletedFlow, FlowDriver, Transport};
use scda_workloads::{FlowDirection, FlowSpec};

use super::kernel::{audit_class_of, PendingStart};
use super::plane::{NetTelemetry, ScdaPlane};
use super::policy::{
    Admission, ControlPolicy, Placement, PlacementCtx, SpawnSpec, TransportPolicy,
};
use super::{class_of, RunResult, ScdaOptions};
use crate::scenario::Scenario;

/// What a flow is, for rate refresh, energy attribution and completion
/// bookkeeping.
enum CtlKind {
    /// Client-facing transfer (figures 3/5).
    External {
        dir: FlowDirection,
        client_idx: usize,
    },
    /// Server-to-server replication (figure 4).
    Internal { receiver: NodeId },
}

struct FlowCtl {
    /// The block server whose tree rates price this flow (primary for
    /// external flows, the *sender* for internal replication).
    server: NodeId,
    kind: CtlKind,
    /// Audit traffic class (only meaningful when the run carries an
    /// enabled audit handle; internal flows are always `Internal`).
    class: AuditClass,
}

/// The NNS's outstanding (pending + in-flight) assignments, tracked at
/// every tree level, and the congestion discount they imply as a
/// [`RateDiscount`]: the NNS knows where it sent work that has not
/// finished and discounts each candidate's advertised rate by the share
/// those flows will claim at the server link, its rack's edge uplink,
/// its aggregation link and the trunk — so bursts spread across racks
/// instead of herding onto one momentary "best" server between control
/// rounds. k not-yet-visible flows on a level-h link of capacity C shift
/// a per-flow share r to r/(1 + k·r/C) (i.e. C/N -> C/(N + k)), and the
/// candidate's score is the minimum over its path levels, evaluated
/// exactly at the leaves the placement index visits. The default value —
/// no servers, nothing outstanding — is what a composition without a
/// control plane hands its placement.
///
/// State is dense: per-server columns are indexed by `NodeId.0` (the
/// layout `ControlTree`'s server lookup uses), so a leaf score is
/// arithmetic on three array reads.
#[derive(Debug, Default)]
pub struct OutstandingDiscount {
    /// Outstanding assignments per server, indexed by `NodeId.0`.
    per_server: Vec<u32>,
    per_rack: Vec<u32>,
    per_agg: Vec<u32>,
    total: u32,
    /// Rack of each server, indexed by `NodeId.0`.
    server_rack: Vec<u32>,
    /// Aggregation of each rack.
    rack_agg: Vec<u32>,
    /// Aggregation of each level-2 group of the tree's index shape (a
    /// maximal run of consecutive racks under one aggregation).
    group_agg: Vec<u32>,
    /// Per-level capacities (server link, edge uplink, aggregation,
    /// trunk) the discount divides by.
    level_caps: [f64; 4],
}

impl OutstandingDiscount {
    /// Nothing outstanding on `tree`, whose four link tiers have the
    /// capacities `level_caps` (bytes/s; server link, edge uplink,
    /// aggregation, trunk). Group bounds assume the index searches
    /// `ControlTree::from_three_tier(tree, ..).index_shape()`: level-1
    /// group `r` is rack `r`, level-2 groups are the runs of racks
    /// sharing an aggregation.
    pub fn new(tree: &ThreeTierTree, level_caps: [f64; 4]) -> Self {
        let nodes = tree
            .servers
            .iter()
            .flatten()
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0);
        let mut server_rack = vec![u32::MAX; nodes];
        for (r, rack) in tree.servers.iter().enumerate() {
            assert!(!rack.is_empty(), "rack {r} has no server");
            for srv in rack {
                server_rack[srv.index()] = r as u32;
            }
        }
        let rack_agg: Vec<u32> = tree.agg_of_rack.iter().map(|&a| a as u32).collect();
        let mut group_agg = rack_agg.clone();
        group_agg.dedup();
        OutstandingDiscount {
            per_server: vec![0; nodes],
            per_rack: vec![0; tree.servers.len()],
            per_agg: vec![0; tree.aggs.len()],
            total: 0,
            server_rack,
            rack_agg,
            group_agg,
            level_caps,
        }
    }

    /// One more assignment on `server`'s path.
    pub fn book(&mut self, server: NodeId) {
        let rack = self.server_rack[server.index()] as usize;
        self.per_server[server.index()] += 1;
        self.per_rack[rack] += 1;
        self.per_agg[self.rack_agg[rack] as usize] += 1;
        self.total += 1;
    }

    /// An assignment on `server`'s path finished.
    pub fn release(&mut self, server: NodeId) {
        let rack = self.server_rack[server.index()] as usize;
        let agg = self.rack_agg[rack] as usize;
        let k = &mut self.per_server[server.index()];
        *k = k.saturating_sub(1);
        self.per_rack[rack] = self.per_rack[rack].saturating_sub(1);
        self.per_agg[agg] = self.per_agg[agg].saturating_sub(1);
        self.total = self.total.saturating_sub(1);
    }
}

impl RateDiscount for OutstandingDiscount {
    fn adjust(&self, m: &ServerMetrics) -> (f64, f64) {
        let rack = self.server_rack[m.server.index()] as usize;
        let counts = [
            self.per_server[m.server.index()] as f64,
            self.per_rack[rack] as f64,
            self.per_agg[self.rack_agg[rack] as usize] as f64,
            self.total as f64,
        ];
        let mut adj_down = f64::INFINITY;
        let mut adj_up = f64::INFINITY;
        for (h, (&k, &cap)) in counts.iter().zip(&self.level_caps).enumerate() {
            adj_down = adj_down.min(discounted_share(m.down_levels[h], k, cap));
            adj_up = adj_up.min(discounted_share(m.up_levels[h], k, cap));
        }
        (adj_down, adj_up)
    }

    // A leaf's score is at most each of its level terms, and the counts
    // of the levels at and above the group's are the same for every leaf
    // beneath it: those terms are bounded by `share_bound` over the
    // span. Below the group's level the counts differ from leaf to leaf;
    // all that is known is `k ≥ 0`, and `share_bound(.., 0, ..)` is the
    // raw maximum.
    fn group_bound(&self, level: u8, group: usize, span: &GroupSpan) -> (f64, f64) {
        let (k_rack, k_agg) = match level {
            1 => (
                self.per_rack[group],
                self.per_agg[self.rack_agg[group] as usize],
            ),
            2 => (0, self.per_agg[self.group_agg[group] as usize]),
            _ => (0, 0),
        };
        let counts = [0.0, k_rack as f64, k_agg as f64, self.total as f64];
        let mut down = f64::INFINITY;
        let mut up = f64::INFINITY;
        for (h, (&k, &cap)) in counts.iter().zip(&self.level_caps).enumerate() {
            down = down.min(share_bound(span.down_max[h], span.down_second[h], k, cap));
            up = up.min(share_bound(span.up_max[h], span.up_second[h], k, cap));
        }
        (down, up)
    }
}

/// Per-flow weight under the configured priority policy. The OpenFlow
/// variant (§IV-B) keys on bytes already sent (the switch's packet
/// counter); the policy variants key on bytes remaining.
fn weight_of(
    openflow_sjf: &Option<OpenFlowSjf>,
    priority: &Option<PriorityPolicy>,
    remaining: f64,
    size: f64,
    rate: f64,
    now: f64,
) -> f64 {
    if let Some(of) = openflow_sjf {
        return of.weight(size - remaining);
    }
    match priority {
        Some(p) => p.weight(remaining, rate, now),
        None => 1.0,
    }
}

/// The SCDA control plane (see the module docs).
pub struct ScdaControl {
    opts: ScdaOptions,
    plane: ScdaPlane,
    client_links: Vec<(LinkId, LinkId)>,
    /// Client-side RMs: allocators for the WAN links the RA tree does not
    /// cover ("FES agents associated with the UCL clients").
    client_alloc: Vec<(LinkAllocator, LinkAllocator)>,
    /// Outstanding assignments per tree level — the admission discount.
    outstanding: OutstandingDiscount,
    /// Per-flow control records of the flows in flight.
    flow_ctl: FlowTable<FlowCtl>,
    /// Scratch: the driver's `(id, slot)` walk, refilled each round for
    /// the re-window's merge with `flow_ctl`.
    slots: Vec<(FlowId, u32)>,
    /// Audit class of admitted-but-not-yet-opened flows (populated only
    /// when auditing; drained into [`FlowCtl`] at open time).
    pending_class: FlowTable<AuditClass>,
    /// Recent dormant-server wakeups `(time, server)`, kept within the
    /// wake-latency + τ window for violation attribution (§VII-C).
    recent_wakes: Vec<(f64, NodeId)>,
    /// Scratch for an audited round: one violation's affected flows and
    /// their endpoints, and the round's violated links.
    affected: Vec<u64>,
    endpoints: Vec<NodeId>,
    violated: Vec<u32>,
    /// Offered rate per server, indexed by `NodeId.0`, summed over the
    /// flows it serves by the round's re-window walk (sized only when
    /// the run accounts energy).
    server_load: Vec<f64>,
    resources: Option<ResourceBook>,
    /// Original capacities of links that received reserve bandwidth, to
    /// bound how far mitigation may grow them.
    boosted: BTreeMap<LinkId, f64>,
    energy: Option<EnergyBook>,
    server_link_bytes: f64,
    sla_monitor: Option<SlaMonitor>,
    snap_stream: Option<SnapshotStream>,
    sla_violations: usize,
    mitigations_applied: usize,
    replications_completed: usize,
    control_rounds: usize,
    changed_dirs_total: usize,
}

impl ScdaControl {
    /// Build the SCDA control plane over a freshly built topology tree
    /// (call before the tree's `topo` moves into the kernel's network).
    pub fn new(sc: &Scenario, opts: &ScdaOptions, tree: &ThreeTierTree) -> Self {
        let params = Params {
            tau: sc.tau,
            ..opts.params.clone()
        };
        let mut plane = ScdaPlane::new(tree, params, opts.metric, sc.topo.client_delay_s);
        assert!(
            (plane.ct.hmax() as usize) < scda_core::tree::MAX_LEVELS,
            "OutstandingDiscount prices the server, rack, aggregation and \
             trunk levels from the per-server level cache: the tree must \
             fit its MAX_LEVELS"
        );
        plane.ct.set_obs(opts.obs.clone());
        let client_links = tree.client_links.clone();
        let client_alloc: Vec<(LinkAllocator, LinkAllocator)> = client_links
            .iter()
            .map(|&(up, down)| {
                let cap_up = tree.topo.link(up).capacity_bytes();
                let cap_down = tree.topo.link(down).capacity_bytes();
                (
                    LinkAllocator::new(cap_up, opts.metric, &plane.params),
                    LinkAllocator::new(cap_down, opts.metric, &plane.params),
                )
            })
            .collect();
        let servers = &plane.servers;
        let resources = opts.resource_profiles.as_ref().map(|profiles| {
            assert!(
                !profiles.is_empty(),
                "resource profile list cannot be empty"
            );
            ResourceBook::new(servers.iter().copied(), |i| {
                profiles[i % profiles.len()].clone()
            })
        });
        let energy = opts.energy.as_ref().map(|e| {
            let spread = e.hetero_spread;
            EnergyBook::new(e.model.clone(), servers.iter().copied(), |i| {
                1.0 + spread * (((i * 7919) % 101) as f64 / 100.0 - 0.5)
            })
        });
        let server_load = if energy.is_some() {
            vec![0.0; tree.topo.node_count()]
        } else {
            Vec::new()
        };
        let x = sc.topo.base_bw_bps / 8.0;
        ScdaControl {
            plane,
            client_alloc,
            outstanding: OutstandingDiscount::new(
                tree,
                [x, x, sc.topo.k_factor * x, sc.topo.trunk_mult * x],
            ),
            flow_ctl: FlowTable::new(),
            slots: Vec::new(),
            pending_class: FlowTable::new(),
            recent_wakes: Vec::new(),
            affected: Vec::new(),
            endpoints: Vec::new(),
            violated: Vec::new(),
            server_load,
            resources,
            boosted: BTreeMap::new(),
            energy,
            server_link_bytes: x,
            sla_monitor: opts.mitigation.clone().map(SlaMonitor::new),
            snap_stream: opts.snapshot_every.map(SnapshotStream::new),
            sla_violations: 0,
            mitigations_applied: 0,
            replications_completed: 0,
            control_rounds: 0,
            changed_dirs_total: 0,
            client_links,
            opts: opts.clone(),
        }
    }
}

impl ControlPolicy for ScdaControl {
    fn system(&self) -> &'static str {
        "SCDA"
    }

    fn cadence(&self) -> Option<f64> {
        Some(self.plane.params.tau)
    }

    fn prime(&mut self, driver: &mut FlowDriver) {
        self.plane.prime(driver, self.resources.as_ref());
    }

    fn admit(
        &mut self,
        f: &FlowSpec,
        id: FlowId,
        now: f64,
        driver: &mut FlowDriver,
        placement: &mut dyn Placement,
        transport: &mut dyn TransportPolicy,
    ) -> Admission {
        let client = self.plane.clients[f.client % self.plane.clients.len()];

        // One path for every run: the placement policy answers from the
        // index under the outstanding-load discount, evaluated only at
        // the leaves branch-and-bound visits. An observed run decides
        // with the same code and only *reports* more.
        let q = PlaceQuery {
            energy: self.energy.as_ref(),
            cfg: &self.opts.selector,
            discount: &self.outstanding,
        };
        let ctx = PlacementCtx {
            class: class_of(f.kind),
            direction: f.direction,
            servers: &self.plane.servers,
            index: &self.plane.pindex,
            query: &q,
        };
        let (server, sel_rate) = self
            .opts
            .obs
            .time_phase(phase::PLACE, || placement.place(&ctx))
            .expect("at least one server exists");
        self.opts.obs.emit_with(|| {
            // The NNS's decision, with the top of the candidate set it
            // chose from (discounted per-direction path rates): best
            // first, the earlier server first among equal rates.
            let mut top = [Candidate {
                server: 0,
                rate: 0.0,
            }; MAX_CANDIDATES];
            let mut len = 0;
            for m in self.plane.pindex.metrics() {
                let (down, up) = self.outstanding.adjust(m);
                let rate = match f.direction {
                    FlowDirection::Write => down,
                    FlowDirection::Read => up,
                };
                let at = top[..len].partition_point(|c| c.rate.total_cmp(&rate).is_ge());
                if at < MAX_CANDIDATES {
                    len = (len + 1).min(MAX_CANDIDATES);
                    top.copy_within(at..len - 1, at + 1);
                    top[at] = Candidate {
                        server: m.server.0,
                        rate,
                    };
                }
            }
            let candidates = top[..len].to_vec();
            TraceEvent::ServerSelected {
                now,
                flow: id.0,
                server: server.0,
                rate: sel_rate,
                candidates,
            }
        });
        self.outstanding.book(server);

        // Waking a dormant server costs its transition latency before
        // the connection can open (§VII-C).
        let mut wake_delay = 0.0;
        if let Some(book) = self.energy.as_mut() {
            if book.is_dormant(server) {
                book.wake(server, now);
                wake_delay = self
                    .opts
                    .energy
                    .as_ref()
                    .expect("energy enabled")
                    .model
                    .wake_latency;
                self.opts.audit.wakeup(now, server.0, wake_delay);
                if self.opts.audit.is_enabled() {
                    self.recent_wakes.push((now, server));
                }
            }
        }
        if self.opts.audit.is_enabled() {
            self.pending_class.insert(id, audit_class_of(f.kind));
        }

        let (src, dst, setup, tree_dir) = match f.direction {
            FlowDirection::Write => (
                client,
                server,
                self.plane.costs.external_write_setup(),
                Direction::Down,
            ),
            FlowDirection::Read => (
                server,
                client,
                self.plane.costs.external_read_setup(),
                Direction::Up,
            ),
        };
        let base_rtt = driver
            .net_mut()
            .base_rtt_between(src, dst)
            .expect("client and server are connected");
        let tree_rate = self
            .plane
            .ct
            .client_rate(server, tree_dir)
            .unwrap_or(self.plane.params.min_rate);
        let ci = f.client % self.client_alloc.len();
        let wan_rate = match f.direction {
            FlowDirection::Write => self.client_alloc[ci].0.rate(),
            FlowDirection::Read => self.client_alloc[ci].1.rate(),
        };
        let w = weight_of(
            &self.opts.openflow_sjf,
            &self.opts.priority,
            f.size_bytes,
            f.size_bytes,
            tree_rate,
            now,
        );
        let mut rate = (w * tree_rate.min(wan_rate)).max(self.plane.params.min_rate);
        if let Some(plan) = &self.opts.reservations {
            if id.0.is_multiple_of(plan.every) {
                rate = rate.max(plan.min_rate);
            }
        }
        Admission {
            src,
            dst,
            server,
            client_idx: ci,
            start: f.arrival + setup + wake_delay,
            size: f.size_bytes,
            transport: transport.open(rate, base_rtt),
        }
    }

    fn on_open(&mut self, p: &PendingStart, _driver: &mut FlowDriver) {
        if let Some(book) = self.resources.as_mut() {
            // Writes hit the server's disk write path, reads its read
            // path; internal replication writes the receiver's disk.
            if p.internal {
                book.open_flow(p.dst, true);
            } else {
                book.open_flow(p.server, p.dir == FlowDirection::Write);
            }
        }
        self.flow_ctl.insert(
            p.id,
            FlowCtl {
                server: p.server,
                kind: if p.internal {
                    CtlKind::Internal { receiver: p.dst }
                } else {
                    CtlKind::External {
                        dir: p.dir,
                        client_idx: p.client_idx,
                    }
                },
                class: if p.internal {
                    AuditClass::Internal
                } else {
                    self.pending_class
                        .remove(p.id)
                        .unwrap_or(AuditClass::Internal)
                },
            },
        );
    }

    fn round(&mut self, now: f64, driver: &mut FlowDriver) {
        self.plane.round(now, driver, self.resources.as_ref());
        self.sla_violations += self.plane.violations.len();
        self.control_rounds += 1;
        self.changed_dirs_total += self.plane.ct.changed_nodes(0.05);
        // Client-side RM updates over the same loads: the WAN links the
        // tree does not cover.
        let params = &self.plane.params;
        let mut tel = NetTelemetry {
            net: driver.net_mut(),
            loads: &self.plane.link_loads,
            tau: params.tau,
            resources: self.resources.as_ref(),
        };
        for (ci, &(up, down)) in self.client_links.iter().enumerate() {
            let su = tel.sample(up);
            let sd = tel.sample(down);
            self.client_alloc[ci].0.update(&su, params);
            self.client_alloc[ci].1.update(&sd, params);
        }
        // Attribute each violation *before* the mitigation ladder runs,
        // so the recorded bottleneck and traffic mix are the ones the
        // monitor saw at detection time: walk the control tree's max-min
        // bottleneck for the violated server/direction, count the active
        // flows crossing the saturated link per class, and flag any
        // dormant-server wakeup still in flight under the affected set.
        // The wake list is pruned every audited round, violations or
        // not, so a quiet run does not keep every wake it ever made.
        if self.opts.audit.is_enabled() {
            let wake_window = self
                .opts
                .energy
                .as_ref()
                .map(|e| e.model.wake_latency)
                .unwrap_or(0.0)
                + params.tau;
            self.recent_wakes.retain(|&(t, _)| now - t <= wake_window);
            let ct = &self.plane.ct;
            for v in &self.plane.violations {
                self.affected.clear();
                self.endpoints.clear();
                let mut counts = [0u32; AuditClass::ALL.len()];
                for (fid, src, dst) in driver.active_flows() {
                    if driver.net().flow(fid).path().contains(&v.site.link) {
                        self.affected.push(fid.0);
                        self.endpoints.push(src);
                        self.endpoints.push(dst);
                        let class = self
                            .flow_ctl
                            .get(fid)
                            .map(|c| c.class)
                            .unwrap_or(AuditClass::Internal);
                        counts[class as usize] += 1;
                    }
                }
                // The most frequent class, the first in class order among
                // equals.
                let dominant_class = AuditClass::ALL
                    .iter()
                    .zip(&counts)
                    .filter(|&(_, &n)| n > 0)
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                    .map(|(&c, _)| c)
                    .unwrap_or(AuditClass::Internal);
                let server = if v.site.level == 0 {
                    ct.server_of(v.site.node)
                } else {
                    ct.best_server_at(v.site.node, v.site.direction)
                        .map(|(s, _)| s)
                };
                let (b_level, b_link) = server
                    .and_then(|s| ct.bottleneck_of(s, v.site.direction))
                    .unwrap_or((v.site.level, v.site.link));
                let dormant_wake = self
                    .recent_wakes
                    .iter()
                    .any(|&(_, s)| self.endpoints.contains(&s));
                self.opts.audit.violation(
                    ViolationRecord {
                        time: v.time,
                        link: v.site.link.0,
                        level: v.site.level,
                        down: matches!(v.site.direction, Direction::Down),
                        demand: v.demand,
                        capacity_term: v.capacity_term,
                        attribution: Attribution {
                            bottleneck_link: b_link.0,
                            bottleneck_level: b_level,
                            dominant_class,
                            affected_flows: self.affected.len() as u32,
                            dormant_wake,
                        },
                    },
                    &self.affected,
                );
            }
        }

        // SLA mitigation ladder (§IV-A): grant reserve bandwidth on
        // violated links, bounded by the reserve factor; the monitor
        // escalates repeat offenders (reassignment happens naturally —
        // the violated link's rates collapse and selection avoids it).
        if let Some(mon) = self.sla_monitor.as_mut() {
            for v in &self.plane.violations {
                match mon.ingest(*v) {
                    Mitigation::AddBandwidth { extra } => {
                        let link = v.site.link;
                        let cur = driver.net().topo().link(link).capacity_bps;
                        let orig = *self.boosted.entry(link).or_insert(cur);
                        let new =
                            (cur + extra * 8.0).min(orig * self.opts.mitigation_reserve_factor);
                        if new > cur {
                            driver.net_mut().set_link_capacity(link, new);
                            self.plane.ct.set_link_capacity(link, new / 8.0);
                            self.mitigations_applied += 1;
                            self.opts
                                .audit
                                .mitigation(now, link.0, MITIGATION_ADD_BANDWIDTH);
                        }
                    }
                    Mitigation::ReassignServer => {
                        // Selection pressure does the reassignment.
                        self.opts
                            .audit
                            .mitigation(now, v.site.link.0, MITIGATION_REASSIGN);
                    }
                    Mitigation::Escalate => {
                        // An operator would add capacity here.
                        self.opts
                            .audit
                            .mitigation(now, v.site.link.0, MITIGATION_ESCALATE);
                    }
                }
            }
        }

        // Close audit episodes for links that left the violated set (the
        // violation cleared without an explicit mitigation action).
        if self.opts.audit.is_enabled() {
            self.violated.clear();
            self.violated
                .extend(self.plane.violations.iter().map(|v| v.site.link.0));
            self.opts.audit.round_end(now, &self.violated);
        }

        // Refresh every on-going flow's windows from fresh allocations;
        // flows the driver no longer knows fall out of the control map.
        // Both tables are id-ordered, so one merge pairs each record with
        // its driver slot. With energy on, the same walk first sums each
        // server's offered rates, in id order, from the windows the
        // flows ran under until now.
        let server_load = &mut self.server_load;
        let energy_on = self.energy.is_some();
        server_load.fill(0.0);
        self.slots.clear();
        self.slots.extend(driver.net().flow_slots());
        let mut live = self.slots.iter().peekable();
        let ct = &self.plane.ct;
        let params = &self.plane.params;
        let client_alloc = &self.client_alloc;
        let opts = &self.opts;
        self.flow_ctl.retain(|id, ctl| {
            while live.next_if(|&&(fid, _)| fid < id).is_some() {}
            let Some(&(_, slot)) = live.next_if(|&&(fid, _)| fid == id) else {
                return false;
            };
            if energy_on {
                let rtt = driver.net().rtt_of_slot(slot);
                server_load[ctl.server.index()] +=
                    driver.transport_of_slot_mut(slot).offered_rate(rtt);
            }
            let progress = driver.progress_of_slot(slot);
            let remaining = progress.remaining();
            let size = progress.size_bytes;
            let alloc = match &ctl.kind {
                CtlKind::External { dir, client_idx } => {
                    let tree_dir = match dir {
                        FlowDirection::Write => Direction::Down,
                        FlowDirection::Read => Direction::Up,
                    };
                    let tree_rate = ct
                        .client_rate(ctl.server, tree_dir)
                        .unwrap_or(params.min_rate);
                    let wan_rate = match dir {
                        FlowDirection::Write => client_alloc[*client_idx].0.rate(),
                        FlowDirection::Read => client_alloc[*client_idx].1.rate(),
                    };
                    tree_rate.min(wan_rate)
                }
                CtlKind::Internal { receiver } => ct
                    .transfer_rate(ctl.server, *receiver)
                    .unwrap_or(params.min_rate),
            };
            let w = weight_of(
                &opts.openflow_sjf,
                &opts.priority,
                remaining,
                size,
                alloc,
                now,
            );
            let mut rate = (w * alloc).max(params.min_rate);
            if let Some(plan) = &opts.reservations {
                if matches!(ctl.kind, CtlKind::External { .. }) && id.0 % plan.every == 0 {
                    rate = rate.max(plan.min_rate);
                }
            }
            if let AnyTransport::Scda(win) = driver.transport_of_slot_mut(slot) {
                win.set_rates(rate, rate);
                opts.obs.emit_with(|| TraceEvent::FlowRewindowed {
                    now,
                    flow: id.0,
                    rate,
                });
                opts.audit.rate_update(id.0);
            }
            true
        });

        // Energy accounting + dormancy management (§VII-C/D), with
        // per-server utilization from the loads the walk summed.
        if let Some(book) = self.energy.as_mut() {
            let server_link_bytes = self.server_link_bytes;
            let load = &self.server_load;
            book.tick(now, |srv| load[srv.index()] / server_link_bytes);
            if self.opts.energy.as_ref().expect("energy enabled").dormancy {
                // Idle servers with uplink headroom above R_scale nap
                // until demand wakes them. The placement index's mirror
                // was refreshed from this round's metrics above, so it
                // doubles as the snapshot here.
                for m in self.plane.pindex.metrics() {
                    let busy = load[m.server.index()] > 0.0;
                    if !busy && m.path_up >= self.opts.selector.r_scale && book.is_active(m.server)
                    {
                        book.scale_down(m.server);
                    }
                }
            }
        }
        self.opts
            .obs
            .gauge_set(metric::FLOWS_ACTIVE, driver.active_count() as f64);
        if let Some(stream) = self.snap_stream.as_mut() {
            let ct = &self.plane.ct;
            stream.offer_with(|| ct.snapshot(now));
        }
    }

    fn on_complete(
        &mut self,
        c: &CompletedFlow,
        size: Option<f64>,
        driver: &mut FlowDriver,
    ) -> Option<SpawnSpec> {
        let ctl = self.flow_ctl.remove(c.id);
        if let (Some(book), Some(ctl)) = (self.resources.as_mut(), ctl.as_ref()) {
            match &ctl.kind {
                CtlKind::External { dir, .. } => {
                    book.close_flow(ctl.server, *dir == FlowDirection::Write)
                }
                CtlKind::Internal { receiver } => book.close_flow(*receiver, true),
            }
        }
        let is_internal = matches!(
            ctl.as_ref().map(|x| &x.kind),
            Some(CtlKind::Internal { .. })
        );
        let was_write = matches!(
            ctl.as_ref().map(|x| &x.kind),
            Some(CtlKind::External {
                dir: FlowDirection::Write,
                ..
            })
        );
        if let Some(ctl) = &ctl {
            if !is_internal {
                self.outstanding.release(ctl.server);
            }
        }
        if is_internal {
            self.replications_completed += 1;
            return None;
        }

        // Internal write (§VIII-B, figure 4): replicate the freshly
        // written content to the best-uplink server so future reads
        // are fast.
        if was_write && self.opts.replicate_writes {
            let size = size.expect("external completion has a recorded size");
            let primary = ctl.as_ref().expect("write flow has control state").server;
            // Replica selection ranks on the *raw* (undiscounted) round
            // metrics, which is exactly the placement index's mirror.
            let q = PlaceQuery {
                energy: self.energy.as_ref(),
                cfg: &self.opts.selector,
                discount: &NoDiscount,
            };
            let replica_pick = self.plane.pindex.replica_target(
                ContentClass::SemiInteractiveRead,
                primary,
                &NodeSet::new(),
                &q,
            );
            if let Some((replica, _)) = replica_pick {
                return Some(
                    self.plane
                        .replication(primary, replica, size, c.finish, driver),
                );
            }
        }
        None
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.sla_violations = self.sla_violations;
        result.energy_joules = self.energy.as_ref().map(EnergyBook::total_energy);
        result.dormant_servers = self
            .energy
            .as_ref()
            .map(EnergyBook::dormant_count)
            .unwrap_or(0);
        result.mitigations_applied = self.mitigations_applied;
        result.replications_completed = self.replications_completed;
        result.control_rounds = self.control_rounds;
        result.changed_dirs_total = self.changed_dirs_total;
        result.snapshots = self.snap_stream.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{BestRatePlacement, EnergyOptions, ExplicitRateTransport};
    use crate::Scale;
    use scda_core::{
        ControlTree, LinkSample, MetricKind, PlacementIndex, RateCaps, SelectorConfig,
    };
    use scda_simnet::builders::ThreeTierConfig;
    use scda_simnet::units::mbps;
    use scda_simnet::Network;
    use std::collections::VecDeque;

    struct Idle;
    impl Telemetry for Idle {
        fn sample(&mut self, _link: LinkId) -> LinkSample {
            LinkSample {
                queue_bytes: 0.0,
                flow_rate_sum: 0.0,
                arrival_rate: 0.0,
            }
        }
        fn rate_caps(&mut self, _server: NodeId) -> RateCaps {
            RateCaps::default()
        }
    }

    /// The property the shaped index exists for, as a count CI can hold
    /// without a clock: on an idle 1000×10 fabric under 25 aggregations
    /// with 64 assignments outstanding, an admission scores a few racks
    /// of leaves and evaluates a few bounds per group on its path — not
    /// a third of the fleet.
    #[test]
    fn admission_on_an_idle_hyperscale_fabric_visits_a_few_racks() {
        const OUTSTANDING: usize = 64;
        const QUERIES: u64 = 512;
        let cfg = ThreeTierConfig {
            racks: 1000,
            servers_per_rack: 10,
            racks_per_agg: 40,
            base_bw_bps: mbps(200.0),
            k_factor: 50.0,
            trunk_mult: 1000.0,
            ..Default::default()
        };
        let tree = cfg.build();
        assert_eq!(tree.aggs.len(), 25);
        let mut ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
        ct.control_round(0.0, &mut Idle);
        let mut metrics = Vec::new();
        ct.server_metrics_into(&mut metrics);
        let mut index = PlacementIndex::with_shape(ct.index_shape());
        index.refresh(&metrics);

        let x = cfg.base_bw_bps / 8.0;
        let mut outstanding =
            OutstandingDiscount::new(&tree, [x, x, cfg.k_factor * x, cfg.trunk_mult * x]);
        let selector = SelectorConfig::default();
        let mut window = VecDeque::new();
        let mut admit = |outstanding: &mut OutstandingDiscount, j: u64| {
            let q = PlaceQuery {
                energy: None,
                cfg: &selector,
                discount: &*outstanding,
            };
            let (server, _) = if j.is_multiple_of(2) {
                index.write_target(ContentClass::SemiInteractiveWrite, &NodeSet::new(), &q)
            } else {
                index.read_best(&q)
            }
            .expect("servers exist");
            outstanding.book(server);
            window.push_back(server);
            if window.len() > OUTSTANDING {
                outstanding.release(window.pop_front().expect("non-empty"));
            }
        };
        for j in 0..OUTSTANDING as u64 {
            admit(&mut outstanding, j);
        }
        let before = index.query_stats();
        for j in 0..QUERIES {
            admit(&mut outstanding, j);
        }
        let after = index.query_stats();
        let queries = after.queries - before.queries;
        assert!(queries >= QUERIES);
        let leaves = (after.leaves - before.leaves) as f64 / queries as f64;
        let bounds = (after.bounds - before.bounds) as f64 / queries as f64;
        assert!(leaves <= 64.0, "{leaves} leaves scored per query");
        assert!(bounds <= 256.0, "{bounds} group bounds per query");
        assert!(after.pruned > before.pruned);
    }

    #[test]
    fn release_undoes_book_at_every_level() {
        let tree = ThreeTierConfig::default().build();
        let x = 1.0e6;
        let mut d = OutstandingDiscount::new(&tree, [x, x, 3.0 * x, 6.0 * x]);
        let server = tree.servers[7][3];
        d.book(server);
        d.book(server);
        assert_eq!(
            (d.per_server[server.index()], d.per_rack[7], d.total),
            (2, 2, 2)
        );
        assert_eq!(d.per_agg[tree.agg_of_rack[7]], 2);
        d.release(server);
        d.release(server);
        d.release(server);
        assert_eq!(
            (d.per_server[server.index()], d.per_rack[7], d.total),
            (0, 0, 0),
            "release saturates at zero"
        );
        assert_eq!(d.per_agg[tree.agg_of_rack[7]], 0);
    }

    /// An audited run with dormancy keeps a wake only as long as
    /// attribution can use it: rounds without violations prune the list
    /// too.
    #[test]
    fn quiet_audited_rounds_forget_old_wakes() {
        let sc = Scenario::video(Scale::Quick, false, 1);
        let tree = sc.topo.build();
        let opts = ScdaOptions {
            energy: Some(EnergyOptions::default()),
            audit: scda_audit::Audit::enabled(),
            ..ScdaOptions::default()
        };
        let mut ctl = ScdaControl::new(&sc, &opts, &tree);
        let mut driver = FlowDriver::new(Network::new(tree.topo));
        ctl.prime(&mut driver);
        let book = ctl.energy.as_mut().expect("energy enabled");
        for &s in &ctl.plane.servers {
            book.scale_down(s);
        }
        // Admitted but never opened: each request wakes the server it
        // lands on and leaves the fabric idle.
        for (i, f) in sc.workload.flows.iter().take(5).enumerate() {
            ctl.admit(
                f,
                FlowId(i as u64),
                0.0,
                &mut driver,
                &mut BestRatePlacement,
                &mut ExplicitRateTransport,
            );
        }
        assert!(!ctl.recent_wakes.is_empty(), "admissions woke servers");
        let window = EnergyOptions::default().model.wake_latency + sc.tau;
        let rounds = (window / sc.tau).ceil() as u32 + 2;
        for k in 1..=rounds {
            ctl.round(f64::from(k) * sc.tau, &mut driver);
        }
        assert_eq!(ctl.sla_violations, 0, "the rounds were quiet");
        assert!(ctl.recent_wakes.is_empty(), "{:?}", ctl.recent_wakes);
    }
}
