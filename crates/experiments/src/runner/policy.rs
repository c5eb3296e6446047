//! The kernel's policy surface: four traits that together define a
//! system composition.
//!
//! * [`Placement`] — which block server a request lands on (§VII
//!   class-aware best-rate, uniform random, or a future deadline-aware
//!   discipline);
//! * [`TransportPolicy`] — which data plane carries a flow (SCDA
//!   explicit-rate windows vs TCP Reno);
//! * [`ControlPolicy`] — the control plane itself: admission pricing,
//!   the per-τ control round with SLA mitigation, completion bookkeeping
//!   (or a no-op for control-free baselines like RandTCP);
//! * [`Accounting`] — where FCT records, throughput samples and profiler
//!   phases go.
//!
//! The [`SimKernel`](super::SimKernel) calls these in a fixed stage
//! order; swapping one implementation for another is how the ablation
//! grid (selection × transport) and the two headline systems are built.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scda_audit::Audit;
use scda_core::{ContentClass, NodeSet, PlaceQuery, PlacementIndex};
use scda_metrics::{FctStats, FlowRecord, ThroughputSeries};
use scda_obs::Obs;
use scda_simnet::{FlowId, NodeId, PathId};
use scda_transport::{AnyTransport, CompletedFlow, FlowDriver, Reno, RenoConfig, ScdaWindow};
use scda_workloads::{FlowDirection, FlowSpec};

use super::kernel::PendingStart;
use super::scda::OutstandingDiscount;
use super::RunResult;

/// Everything a [`Placement`] policy may consult when picking a server.
pub struct PlacementCtx<'a> {
    /// The request's content class (drives §VII selection rules).
    pub class: ContentClass,
    /// Upload or download.
    pub direction: FlowDirection,
    /// Every block server, in construction order.
    pub servers: &'a [NodeId],
    /// The control plane's placement index over the round's raw
    /// per-server metrics (empty when the composition has no control
    /// plane). `index.metrics()` is the undiscounted candidate set.
    pub index: &'a PlacementIndex,
    /// This admission's query on it: the energy book (dormancy-aware
    /// and power-aware ranking read it), the selector configuration
    /// (R_scale, power awareness) and the discount for the NNS's
    /// outstanding assignments — `query.discount.adjust(m)` turns an
    /// entry of `index.metrics()` into the rates the stock policy ranks.
    pub query: &'a PlaceQuery<'a, OutstandingDiscount>,
}

/// Server-selection policy: place one request.
pub trait Placement {
    /// Pick a `(server, advertised rate)` for the request, or `None` if
    /// no server qualifies (the kernel treats that as fatal — every
    /// scenario has at least one server).
    fn place(&mut self, ctx: &PlacementCtx<'_>) -> Option<(NodeId, f64)>;
}

/// SCDA §VII class-aware best-rate selection: the staged argmax over
/// the discounted per-server rates, answered by the placement index.
pub struct BestRatePlacement;

impl Placement for BestRatePlacement {
    fn place(&mut self, ctx: &PlacementCtx<'_>) -> Option<(NodeId, f64)> {
        match ctx.direction {
            FlowDirection::Write => ctx
                .index
                .write_target(ctx.class, &NodeSet::new(), ctx.query),
            // Every server holds the content in the headline scenarios.
            FlowDirection::Read => ctx.index.read_best(ctx.query),
        }
    }
}

/// Uniform random selection (the VL2/Hedera behavior and the RandTCP
/// baseline's placement). Deterministic per seed.
pub struct RandomPlacement {
    rng: StdRng,
}

impl RandomPlacement {
    /// A random placement drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        RandomPlacement {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Placement for RandomPlacement {
    fn place(&mut self, ctx: &PlacementCtx<'_>) -> Option<(NodeId, f64)> {
        if ctx.servers.is_empty() {
            return None;
        }
        let s = ctx.servers[self.rng.random_range(0..ctx.servers.len())];
        Some((s, 0.0))
    }
}

/// Data-plane policy: build the transport that carries one flow.
pub trait TransportPolicy {
    /// A transport opened at allocated rate `rate` with base RTT
    /// `base_rtt` (rate-oblivious transports ignore both).
    fn open(&mut self, rate: f64, base_rtt: f64) -> AnyTransport;
}

/// SCDA explicit-rate windows, re-windowed every τ (§VIII).
pub struct ExplicitRateTransport;

impl TransportPolicy for ExplicitRateTransport {
    fn open(&mut self, rate: f64, base_rtt: f64) -> AnyTransport {
        AnyTransport::Scda(ScdaWindow::new(rate, rate, base_rtt))
    }
}

/// TCP Reno with a generous receiver window: the baseline's handicap
/// should be TCP's *control* (slow start, loss probing), not an
/// artificially small socket buffer.
pub struct TcpTransport {
    /// Receiver-window cap in bytes.
    pub max_cwnd: f64,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport {
            max_cwnd: 8_000_000.0,
        }
    }
}

impl TransportPolicy for TcpTransport {
    fn open(&mut self, _rate: f64, _base_rtt: f64) -> AnyTransport {
        AnyTransport::Tcp(Reno::new(RenoConfig {
            max_cwnd: self.max_cwnd,
            ..Default::default()
        }))
    }
}

/// What the control plane decided about one admitted request.
pub struct Admission {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// The routed `src → dst` path admission resolved
    /// ([`scda_simnet::Network::route`]); the flow opens on it.
    pub path: PathId,
    /// The block server whose rates price the flow.
    pub server: NodeId,
    /// Requesting client index, as the policy resolved it (SCDA folds it
    /// onto its client-side allocator table).
    pub client_idx: usize,
    /// When the connection opens: arrival + setup cost (+ wake latency).
    pub start: f64,
    /// Bytes to transfer: the request's own size, or what admission
    /// resolved it to (a content read learns its object's size here).
    pub size: f64,
    /// The transport that will carry the flow.
    pub transport: AnyTransport,
}

/// A follow-up transfer a completion triggers (§VIII-B internal
/// replication writes).
pub struct SpawnSpec {
    /// Sender (the primary that holds the fresh content).
    pub src: NodeId,
    /// Receiver (the replica target).
    pub dst: NodeId,
    /// The routed `src → dst` path; the transfer opens on it.
    pub path: PathId,
    /// The server whose rates price the transfer (the sender).
    pub server: NodeId,
    /// Bytes to replicate.
    pub size: f64,
    /// Logical arrival time (the triggering completion).
    pub arrival: f64,
    /// When the transfer opens (arrival + internal setup cost).
    pub start: f64,
    /// The transport carrying the replication.
    pub transport: AnyTransport,
}

/// The control plane of a composition: owns every piece of shared
/// system state (control tree, allocators, monitors, books) and reacts
/// to the kernel's lifecycle hooks. The no-op defaults describe a
/// control-free system — RandTCP overrides almost nothing.
pub trait ControlPolicy {
    /// System name for reports ("SCDA", "RandTCP").
    fn system(&self) -> &'static str;

    /// Control interval τ, or `None` for systems with no control plane
    /// (the kernel then never runs the control stage).
    fn cadence(&self) -> Option<f64> {
        None
    }

    /// One-time warm-up before the replay loop (SCDA primes the tree so
    /// the first arrivals see idle-state advertisements).
    fn prime(&mut self, _driver: &mut FlowDriver) {}

    /// Admit one request: place it (via `placement`), price its setup,
    /// and build its transport (via `transport`).
    fn admit(
        &mut self,
        f: &FlowSpec,
        id: FlowId,
        now: f64,
        driver: &mut FlowDriver,
        placement: &mut dyn Placement,
        transport: &mut dyn TransportPolicy,
    ) -> Admission;

    /// A pending start's setup finished; the kernel opens the flow right
    /// after this hook (resource books and per-flow control state attach
    /// here).
    fn on_open(&mut self, _p: &PendingStart, _driver: &mut FlowDriver) {}

    /// One per-τ control round: measure, allocate, mitigate, re-window.
    /// Only called when [`cadence`](ControlPolicy::cadence) is `Some`.
    fn round(&mut self, _now: f64, _driver: &mut FlowDriver) {}

    /// A flow completed. `size` is the recorded external size (`None`
    /// for internal transfers). May return a follow-up transfer for the
    /// kernel to schedule (replication writes).
    fn on_complete(
        &mut self,
        _c: &CompletedFlow,
        _size: Option<f64>,
        _driver: &mut FlowDriver,
    ) -> Option<SpawnSpec> {
        None
    }

    /// Fold the policy's counters and artifacts into the run result.
    fn finish(&mut self, _result: &mut RunResult) {}
}

/// Where the kernel's measurements land: FCT records, throughput
/// samples, profiler phases and end-of-run trace events (via the handle
/// returned by [`obs`](Accounting::obs)).
pub trait Accounting {
    /// The observability handle phases and trace events go to.
    fn obs(&self) -> &Obs;

    /// The audit handle flow spans and SLA attributions go to
    /// (disabled unless the accounting carries one).
    fn audit(&self) -> &Audit {
        Audit::disabled_ref()
    }

    /// One driver tick happened.
    fn on_tick(&mut self, now: f64, delivered_bytes: f64, active: usize);

    /// One external flow completed.
    fn on_completion(&mut self, rec: FlowRecord);

    /// Fold the accumulated statistics into the run result.
    fn finish(&mut self, result: &mut RunResult);
}

/// The stock accounting: FCT statistics, an instantaneous-throughput
/// series and (when the handle is enabled) the per-phase profile.
pub struct RunAccounting {
    fct: FctStats,
    thpt: ThroughputSeries,
    interval: f64,
    obs: Obs,
    audit: Audit,
}

impl RunAccounting {
    /// Accounting sampling throughput every `interval` seconds,
    /// reporting through `obs`.
    pub fn new(interval: f64, obs: Obs) -> Self {
        Self::with_audit(interval, obs, Audit::disabled())
    }

    /// [`RunAccounting::new`] plus an audit handle: the kernel wires it
    /// into the driver and control plane so flow spans and SLA
    /// attributions accumulate alongside the stock statistics.
    pub fn with_audit(interval: f64, obs: Obs, audit: Audit) -> Self {
        RunAccounting {
            fct: FctStats::new(),
            thpt: ThroughputSeries::new(interval),
            interval,
            obs,
            audit,
        }
    }
}

impl Accounting for RunAccounting {
    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn audit(&self) -> &Audit {
        &self.audit
    }

    fn on_tick(&mut self, now: f64, delivered_bytes: f64, active: usize) {
        self.thpt.record(now, delivered_bytes, active);
    }

    fn on_completion(&mut self, rec: FlowRecord) {
        self.fct.push(rec);
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.completed = self.fct.len();
        result.fct = std::mem::replace(&mut self.fct, FctStats::new());
        result.throughput = std::mem::replace(&mut self.thpt, ThroughputSeries::new(self.interval));
        result.profile = self.obs.profile_report();
    }
}
