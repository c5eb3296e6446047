//! End-to-end system runners: SCDA and the RandTCP baseline.
//!
//! Both systems replay the same [`Scenario`] over the same figure-6
//! topology and report the same metrics. They are not two loops: each is
//! a thin *composition* handed to the one staged [`SimKernel`]
//! (admission → open → per-τ control → transport tick), differing
//! exactly where the paper says they differ:
//!
//! * **RandTCP** (VL2/Hedera behavior): [`RandTcpControl`] +
//!   [`RandomPlacement`] + [`TcpTransport`] — every request is assigned
//!   a uniformly random block server, pays one TCP handshake, and lets
//!   TCP Reno discover its rate.
//! * **SCDA**: [`ScdaControl`] + [`BestRatePlacement`] +
//!   [`ExplicitRateTransport`] — requests go through the control plane:
//!   the RM/RA tree runs a control round every τ, the NNS-side selector
//!   places each request on the best server for its content class, flows
//!   pay the figure-3/5 control-message setup, start at their
//!   *allocated* explicit rate, and get re-windowed every τ (§VIII-D).
//!   SLA violations are counted as they are detected.
//!
//! The ablation grid (selection × transport) is the same kernel with the
//! policy objects swapped — see [`run_scda_with`] for plugging in
//! custom [`Placement`]/[`TransportPolicy`] implementations.

use scda_core::{
    MetricKind, OpenFlowSjf, Params, PowerModelConfig, PriorityPolicy, ResourceProfile,
    SelectorConfig, SlaPolicy, SnapshotStream,
};
use scda_metrics::{FctStats, ThroughputSeries};
use scda_obs::{Obs, ProfileReport};
use scda_simnet::Network;
use scda_workloads::FlowKind;

use crate::scenario::Scenario;

pub mod kernel;
pub mod policy;
pub mod randtcp;
pub mod scda;

pub use kernel::{audit_class_of, PendingStart, SimKernel, StartKey, TotalF64};
pub use policy::{
    Accounting, Admission, BestRatePlacement, ControlPolicy, ExplicitRateTransport, Placement,
    PlacementCtx, RandomPlacement, RunAccounting, SpawnSpec, TcpTransport, TransportPolicy,
};
pub use randtcp::RandTcpControl;
pub use scda::{OutstandingDiscount, ScdaControl};

/// How the control plane picks block servers — the ablation knob that
/// separates SCDA's two wins (smart selection vs explicit rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// The SCDA §VII class-aware best-rate selection.
    BestRate,
    /// Uniform random selection (the VL2/Hedera behavior).
    Random,
}

/// Which data plane carries the flows in an SCDA-controlled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataTransport {
    /// SCDA explicit-rate windows, refreshed every τ (§VIII).
    ExplicitRate,
    /// TCP Reno — pairs with [`SelectionPolicy::BestRate`] to isolate the
    /// server-selection contribution.
    Tcp,
}

/// A minimum-rate reservation plan (§IV-C): every `every`-th external
/// flow reserves `min_rate` bytes/s — its window never drops below the
/// reserved floor, while best-effort flows share what remains (the
/// allocator's eq. 3 accounting sees the reserved flows' rates and
/// shrinks everyone else's share automatically).
#[derive(Debug, Clone, Copy)]
pub struct ReservationPlan {
    /// Reserve for flows whose id is divisible by this (2 = every other).
    pub every: u64,
    /// The reserved minimum, bytes/s.
    pub min_rate: f64,
}

/// Energy/dormancy options (§VII-C/D).
#[derive(Debug, Clone)]
pub struct EnergyOptions {
    /// The synthetic power model.
    pub model: PowerModelConfig,
    /// Heterogeneity spread: server `i` draws `1 + spread·f(i)` with
    /// `f(i)` a deterministic value in `[-0.5, 0.5]` (rack position, age).
    pub hetero_spread: f64,
    /// Scale idle servers down to the dormant state (and wake them on
    /// demand, charging the wake latency to connection setup).
    pub dormancy: bool,
}

impl Default for EnergyOptions {
    fn default() -> Self {
        EnergyOptions {
            model: PowerModelConfig::default(),
            hetero_spread: 0.4,
            dormancy: true,
        }
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunResult {
    /// "SCDA" or "RandTCP".
    pub system: String,
    /// Completed-flow statistics (FCT CDFs, AFCT curves).
    pub fct: FctStats,
    /// Instantaneous-throughput series.
    pub throughput: ThroughputSeries,
    /// SLA violations detected by the control plane (0 for RandTCP, which
    /// has no detector — that asymmetry *is* the paper's point).
    pub sla_violations: usize,
    /// Requests offered by the workload.
    pub requested: usize,
    /// Requests completed within the simulated horizon.
    pub completed: usize,
    /// Total fleet energy in joules, when the run accounts energy.
    pub energy_joules: Option<f64>,
    /// Servers dormant at the end of the run.
    pub dormant_servers: usize,
    /// Reserve-bandwidth mitigations applied (0 unless mitigation is on).
    pub mitigations_applied: usize,
    /// Internal replication transfers completed (§VIII-B; 0 unless
    /// `replicate_writes` is on).
    pub replications_completed: usize,
    /// Control rounds executed (0 for RandTCP — it has no control plane).
    pub control_rounds: usize,
    /// Sum over rounds of node-directions whose allocation moved > 5%
    /// (the Δ-reporting overhead driver; see `scda_core::overhead`).
    pub changed_dirs_total: usize,
    /// Per-phase wall-clock profile of the run loop (populated when the
    /// run carried an enabled [`Obs`] handle).
    pub profile: Option<ProfileReport>,
    /// Periodic control-tree snapshots (populated when
    /// [`ScdaOptions::snapshot_every`] is set).
    pub snapshots: Option<SnapshotStream>,
}

/// SCDA-side knobs.
#[derive(Debug, Clone)]
pub struct ScdaOptions {
    /// Table I parameters; `tau` is overridden by the scenario.
    pub params: Params,
    /// Eq. 2 (full) or eq. 5 (simplified) rate metric.
    pub metric: MetricKind,
    /// Server-selection configuration.
    pub selector: SelectorConfig,
    /// Optional priority policy applied to every flow (None = uniform
    /// max-min).
    pub priority: Option<PriorityPolicy>,
    /// Server-selection policy (ablation knob; default SCDA best-rate).
    pub selection_policy: SelectionPolicy,
    /// Data transport (ablation knob; default explicit rate).
    pub transport_kind: DataTransport,
    /// Energy accounting + dormancy, when enabled.
    pub energy: Option<EnergyOptions>,
    /// OpenFlow packet-count SJF weighting (§IV-B): overrides `priority`
    /// with weights derived from bytes already sent.
    pub openflow_sjf: Option<OpenFlowSjf>,
    /// Apply the SLA mitigation ladder in-band: violated links receive
    /// reserve bandwidth (bounded by `mitigation_reserve_factor`), then
    /// content reassignment kicks in via the normal selection path.
    pub mitigation: Option<SlaPolicy>,
    /// Cap on how far mitigation may grow a link beyond its original
    /// capacity (1.5 = up to +50% reserve capacity).
    pub mitigation_reserve_factor: f64,
    /// Replicate every completed external write to a second block server
    /// (the internal write of §VIII-B / figure 4).
    pub replicate_writes: bool,
    /// Minimum-rate reservations for a subset of flows (§IV-C).
    pub reservations: Option<ReservationPlan>,
    /// Per-server CPU/disk profiles (cycled over the server list); when
    /// set, the RMs report finite `R_other` caps (eq. 4) and flows open
    /// against the servers' disks.
    pub resource_profiles: Option<Vec<ResourceProfile>>,
    /// Observability handle threaded through the engine, transport driver
    /// and control tree (disabled by default: near-zero overhead).
    pub obs: Obs,
    /// Audit handle: flow-lifecycle spans, attributed SLA violations and
    /// time-to-mitigation episodes (disabled by default, like `obs`).
    pub audit: scda_audit::Audit,
    /// Record a [`SnapshotStream`] entry every k control rounds (the §I
    /// diagnostics offload as a `k·τ` time series).
    pub snapshot_every: Option<u64>,
}

impl Default for ScdaOptions {
    fn default() -> Self {
        ScdaOptions {
            params: Params::default(),
            metric: MetricKind::Full,
            selector: SelectorConfig {
                r_scale: f64::INFINITY,
                power_aware: false,
            },
            priority: None,
            selection_policy: SelectionPolicy::BestRate,
            transport_kind: DataTransport::ExplicitRate,
            energy: None,
            openflow_sjf: None,
            mitigation: None,
            mitigation_reserve_factor: 1.5,
            replicate_writes: false,
            reservations: None,
            resource_profiles: None,
            obs: Obs::disabled(),
            audit: scda_audit::Audit::disabled(),
            snapshot_every: None,
        }
    }
}

/// Map a workload flow kind onto the paper's content classes.
fn class_of(kind: FlowKind) -> scda_core::ContentClass {
    use scda_core::ContentClass;
    match kind {
        FlowKind::Control => ContentClass::Interactive,
        FlowKind::Video => ContentClass::SemiInteractiveRead,
        FlowKind::Datacenter => ContentClass::SemiInteractiveWrite,
        FlowKind::Synthetic => ContentClass::SemiInteractiveRead,
        FlowKind::Interactive => ContentClass::Interactive,
    }
}

/// Run the RandTCP baseline on a scenario.
pub fn run_randtcp(sc: &Scenario) -> RunResult {
    let tree = sc.topo.build();
    let mut ctrl = RandTcpControl::new(&tree);
    let mut placement = RandomPlacement::new(sc.seed ^ 0x7a3d_5eed);
    let mut transport = TcpTransport::default();
    let mut acct = RunAccounting::new(sc.throughput_interval, Obs::disabled());
    SimKernel::new(Network::new(tree.topo)).run(
        sc,
        &mut ctrl,
        &mut placement,
        &mut transport,
        &mut acct,
    )
}

/// Run SCDA on a scenario, with the stock policy objects picked by
/// [`ScdaOptions::selection_policy`] and [`ScdaOptions::transport_kind`].
pub fn run_scda(sc: &Scenario, opts: &ScdaOptions) -> RunResult {
    let mut placement: Box<dyn Placement> = match opts.selection_policy {
        SelectionPolicy::BestRate => Box::new(BestRatePlacement),
        SelectionPolicy::Random => Box::new(RandomPlacement::new(sc.seed ^ 0x5e1e_c7ed)),
    };
    let mut transport: Box<dyn TransportPolicy> = match opts.transport_kind {
        DataTransport::ExplicitRate => Box::new(ExplicitRateTransport),
        DataTransport::Tcp => Box::new(TcpTransport::default()),
    };
    run_scda_with(sc, opts, placement.as_mut(), transport.as_mut())
}

/// Run SCDA under caller-supplied placement and transport policies — the
/// extension point for new selection disciplines or data planes. The
/// SCDA control plane (admission pricing, per-τ rounds, mitigation,
/// replication) stays in place; only the plugged policies differ.
pub fn run_scda_with(
    sc: &Scenario,
    opts: &ScdaOptions,
    placement: &mut dyn Placement,
    transport: &mut dyn TransportPolicy,
) -> RunResult {
    let tree = sc.topo.build();
    let mut ctrl = ScdaControl::new(sc, opts, &tree);
    let mut acct =
        RunAccounting::with_audit(sc.throughput_interval, opts.obs.clone(), opts.audit.clone());
    SimKernel::new(Network::new(tree.topo)).run(sc, &mut ctrl, placement, transport, &mut acct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;
    use scda_obs::phase;
    use scda_simnet::NodeId;

    fn tiny_video(include_control: bool) -> Scenario {
        let mut sc = Scenario::video(Scale::Quick, include_control, 42);
        // Trim for unit-test speed: first 5 s of arrivals, 15 s horizon.
        sc.workload.flows.retain(|f| f.arrival < 5.0);
        sc.duration = 15.0;
        sc
    }

    #[test]
    fn randtcp_completes_most_flows() {
        let sc = tiny_video(false);
        let r = run_randtcp(&sc);
        assert!(r.requested > 0);
        assert!(
            r.completed as f64 >= 0.6 * r.requested as f64,
            "completed {}/{}",
            r.completed,
            r.requested
        );
        assert!(r.fct.mean_fct().unwrap() > 0.0);
    }

    #[test]
    fn scda_completes_most_flows() {
        let sc = tiny_video(false);
        let r = run_scda(&sc, &ScdaOptions::default());
        assert!(
            r.completed as f64 >= 0.8 * r.requested as f64,
            "completed {}/{}",
            r.completed,
            r.requested
        );
    }

    #[test]
    fn scda_beats_randtcp_on_mean_fct() {
        let sc = tiny_video(false);
        let s = run_scda(&sc, &ScdaOptions::default());
        let r = run_randtcp(&sc);
        let sf = s.fct.mean_fct().unwrap();
        let rf = r.fct.mean_fct().unwrap();
        assert!(sf < rf, "SCDA mean FCT {sf} must beat RandTCP {rf}");
    }

    #[test]
    fn runs_are_deterministic() {
        let sc = tiny_video(true);
        let a = run_scda(&sc, &ScdaOptions::default());
        let b = run_scda(&sc, &ScdaOptions::default());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.fct.mean_fct(), b.fct.mean_fct());
        let ra = run_randtcp(&sc);
        let rb = run_randtcp(&sc);
        assert_eq!(ra.fct.mean_fct(), rb.fct.mean_fct());
    }

    #[test]
    fn simplified_metric_also_works() {
        let sc = tiny_video(false);
        let opts = ScdaOptions {
            metric: MetricKind::Simplified,
            ..Default::default()
        };
        let r = run_scda(&sc, &opts);
        assert!(r.completed as f64 >= 0.7 * r.requested as f64);
    }

    #[test]
    fn custom_placement_plugs_into_the_kernel() {
        // The extension point the kernel exists for: a placement the
        // stock options cannot express, driven through the unchanged
        // SCDA control plane.
        struct FirstServer;
        impl Placement for FirstServer {
            fn place(&mut self, ctx: &PlacementCtx<'_>) -> Option<(NodeId, f64)> {
                ctx.servers.first().map(|&s| (s, 0.0))
            }
        }
        let sc = tiny_video(false);
        let mut placement = FirstServer;
        let mut transport = ExplicitRateTransport;
        let r = run_scda_with(&sc, &ScdaOptions::default(), &mut placement, &mut transport);
        assert_eq!(r.system, "SCDA");
        assert!(r.completed > 0, "completed {}/{}", r.completed, r.requested);
        assert!(r.control_rounds > 0);
    }

    #[test]
    fn observed_run_matches_unobserved_and_reports_everything() {
        let sc = tiny_video(false);
        let plain = run_scda(&sc, &ScdaOptions::default());

        let obs = Obs::enabled();
        let opts = ScdaOptions {
            obs: obs.clone(),
            snapshot_every: Some(2),
            ..Default::default()
        };
        let observed = run_scda(&sc, &opts);

        // Observation must not perturb the simulation.
        assert_eq!(observed.completed, plain.completed);
        assert_eq!(observed.fct.mean_fct(), plain.fct.mean_fct());
        assert_eq!(observed.control_rounds, plain.control_rounds);

        // Profile: every kernel stage showed up.
        let profile = observed
            .profile
            .as_ref()
            .expect("observed run has a profile");
        for ph in [phase::ADMISSION, phase::OPEN, phase::CONTROL, phase::TICK] {
            assert!(profile.phase(ph.name()).is_some(), "missing phase {ph:?}");
        }
        assert!(plain.profile.is_none(), "unobserved run must not profile");

        // Snapshot stream: one entry every 2 control rounds.
        let stream = observed
            .snapshots
            .as_ref()
            .expect("snapshot stream requested");
        assert_eq!(stream.rounds_offered() as usize, observed.control_rounds);
        assert_eq!(
            stream.snapshots().len(),
            observed.control_rounds.div_ceil(2)
        );
        let back = SnapshotStream::from_jsonl(&stream.to_jsonl()).unwrap();
        assert_eq!(back.snapshots().len(), stream.snapshots().len());

        // Metrics: lifecycle counters line up with the run result.
        let reg = obs.metrics_snapshot().expect("enabled handle has metrics");
        assert_eq!(reg.counter("flow.completed"), observed.completed as u64);
        assert_eq!(
            reg.counter("ctrl.rounds"),
            observed.control_rounds as u64 + 1
        ); // + priming
        assert_eq!(
            reg.counter("flow.started") - reg.counter("flow.completed"),
            reg.counter("flow.timed_out"),
            "started = completed + timed out"
        );

        // Trace: the acceptance-criteria event families are all present.
        let jsonl = obs.trace_jsonl().expect("enabled handle has a trace");
        for tag in [
            "\"event\":\"flow_started\"",
            "\"event\":\"flow_completed\"",
            "\"event\":\"flow_rewindowed\"",
            "\"event\":\"ctrl_round_begin\"",
            "\"event\":\"ctrl_round_end\"",
            "\"event\":\"rate_propagation\"",
            "\"event\":\"server_selected\"",
        ] {
            assert!(jsonl.contains(tag), "trace missing {tag}");
        }
    }
}
