//! The staged simulation kernel: one scenario replay loop for every
//! system composition.
//!
//! [`SimKernel`] owns the *mechanism* — the flow-id sequence, the
//! pending-start slab and heap, the arrival table and the per-step
//! stage order (admission → open → per-τ control → transport tick) —
//! and delegates every *decision* to the [`policy`](super::policy)
//! traits. `run_scda`, `run_randtcp` and the content lifecycle's
//! `run_content` differ only in the policy objects and the request
//! schedule they hand the kernel; none carries its own copy of the loop.
//!
//! The kernel crosses one set of stage boundaries and tells a
//! [`KernelClock`] of each ([`SimKernel::run_clocked`]). Per-stage
//! wall-clock under the canonical [`scda_obs::phase`] names is one such
//! clock, run when the run carries an enabled handle; otherwise nothing
//! reads the time (not even an `Instant`).

use scda_audit::{AuditClass, ShedCause};
use scda_metrics::{FctStats, FlowRecord, ThroughputSeries};
use scda_obs::{metric, TraceEvent};
use scda_simnet::{FlowId, FlowTable, Network, NodeId, PathId, Scheduler};
use scda_transport::{AnyTransport, FlowDriver, TickSummary};
use scda_workloads::{FlowDirection, FlowKind};

use super::policy::{Accounting, ControlPolicy, Placement, TransportPolicy};
use super::RunResult;
use crate::probe::{Clocks, KernelClock, NoClock, PhaseClock, Stage};
use crate::scenario::Scenario;

/// Map a workload flow kind onto the audit's traffic classes (the same
/// grouping as the control plane's `ContentClass` mapping).
pub fn audit_class_of(kind: FlowKind) -> AuditClass {
    match kind {
        FlowKind::Control | FlowKind::Interactive => AuditClass::Interactive,
        FlowKind::Video | FlowKind::Synthetic => AuditClass::SemiInteractiveRead,
        FlowKind::Datacenter => AuditClass::SemiInteractiveWrite,
    }
}

/// A flow waiting for its connection setup to finish.
pub struct PendingStart {
    /// Flow id (assigned by the kernel in admission order).
    pub id: FlowId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// The routed path admission resolved for `src → dst`.
    pub path: PathId,
    /// Content size in bytes.
    pub size: f64,
    /// Request arrival time (FCT is measured from here).
    pub arrival: f64,
    /// The block server whose rates price the flow (primary / sender).
    pub server: NodeId,
    /// Upload or download.
    pub dir: FlowDirection,
    /// Requesting client index (as the control policy resolved it).
    pub client_idx: usize,
    /// An internal (figure 4) replication transfer.
    pub internal: bool,
    /// The transport that will carry the flow.
    pub transport: AnyTransport,
}

/// The shared replay loop. Owns the transport driver and the flow
/// lifecycle bookkeeping; everything system-specific lives behind the
/// policy traits passed to [`SimKernel::run`]. Every per-flow table it
/// keeps is sized by the flows pending or in flight, not by the run.
pub struct SimKernel {
    driver: FlowDriver,
    /// Pending connection setups as `starts` slots, keyed by start time
    /// with insertion (= flow-id) order breaking ties, drained through
    /// the event engine's allocation-free [`Scheduler::pop_batch_until`]
    /// so same-timestamp admission bursts open as one batch.
    pending: Scheduler<usize>,
    /// Reused batch buffer for the open stage's scheduler drains.
    open_batch: Vec<usize>,
    /// Slab of pending starts: a slot is taken at schedule time and
    /// freed when the flow opens, so it holds the starts pending at once.
    starts: Vec<Option<PendingStart>>,
    /// Free `starts` slots.
    free_starts: Vec<usize>,
    /// External flows in flight: id → (arrival, size), the FCT record
    /// source.
    arrivals: FlowTable<(f64, f64)>,
    /// Reused tick outcome.
    summary: TickSummary,
    next_id: u64,
}

impl SimKernel {
    /// A kernel driving flows over `net`.
    pub fn new(net: Network) -> Self {
        SimKernel {
            driver: FlowDriver::new(net),
            pending: Scheduler::new(),
            open_batch: Vec::new(),
            starts: Vec::new(),
            free_starts: Vec::new(),
            arrivals: FlowTable::new(),
            summary: TickSummary::default(),
            next_id: 0,
        }
    }

    /// Schedule a flow: allocate the next id, park the start in a free
    /// slab slot and the slot on the scheduler. Ids and scheduler
    /// sequence numbers are allocated by this one function, so the
    /// scheduler's (time, seq) order equals the (time, id) order
    /// admissions replay in, whichever slot each start occupies.
    fn schedule(&mut self, start: f64, build: impl FnOnce(FlowId) -> PendingStart) -> FlowId {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let p = Some(build(id));
        let idx = match self.free_starts.pop() {
            Some(idx) => {
                self.starts[idx] = p;
                idx
            }
            None => {
                self.starts.push(p);
                self.starts.len() - 1
            }
        };
        self.pending.at(start, idx);
        id
    }

    /// Replay `sc` to completion under the given policies and return the
    /// run's results. Consumes the kernel: one kernel, one run.
    ///
    /// # Panics
    ///
    /// Panics if `sc.dt` is not positive and finite or `sc.duration` is
    /// not finite and non-negative.
    pub fn run(
        self,
        sc: &Scenario,
        ctrl: &mut dyn ControlPolicy,
        placement: &mut dyn Placement,
        transport: &mut dyn TransportPolicy,
        acct: &mut dyn Accounting,
    ) -> RunResult {
        self.run_clocked(sc, ctrl, placement, transport, acct, &mut NoClock)
    }

    /// [`SimKernel::run`], telling `clock` of every stage boundary the
    /// step loop crosses (see [`crate::probe`]). The clock only watches:
    /// the run is the same run. `clock` may be a `&mut dyn KernelClock`;
    /// a concrete type compiles its boundaries in, so [`NoClock`] costs
    /// nothing.
    ///
    /// # Panics
    ///
    /// As [`SimKernel::run`].
    pub fn run_clocked<C: KernelClock + ?Sized>(
        mut self,
        sc: &Scenario,
        ctrl: &mut dyn ControlPolicy,
        placement: &mut dyn Placement,
        transport: &mut dyn TransportPolicy,
        acct: &mut dyn Accounting,
        clock: &mut C,
    ) -> RunResult {
        let steps = step_count(sc.duration, sc.dt);
        let observing = acct.obs().is_enabled();
        let auditing = acct.audit().is_enabled();
        let mut clock = Clocks {
            phases: observing.then(|| PhaseClock::new(acct.obs().clone())),
            caller: clock,
        };
        self.driver.set_obs(acct.obs().clone());
        self.driver.set_audit(acct.audit().clone());
        ctrl.prime(&mut self.driver);

        let period = ctrl.cadence();
        let mut next_ctrl = period;
        let mut next_flow = 0usize;
        for step in 0..steps {
            let now = step as f64 * sc.dt;

            // Admission: classify, select a server, price the setup.
            clock.enter(Stage::Step);
            while next_flow < sc.workload.flows.len() && sc.workload.flows[next_flow].arrival <= now
            {
                clock.enter(Stage::Admit);
                let f = sc.workload.flows[next_flow];
                next_flow += 1;
                let id = FlowId(self.next_id);
                let adm = ctrl.admit(&f, id, now, &mut self.driver, placement, transport);
                if auditing {
                    acct.audit().admitted(
                        now,
                        id.0,
                        audit_class_of(f.kind),
                        adm.server.0,
                        adm.size,
                    );
                }
                self.schedule(adm.start, |id| PendingStart {
                    id,
                    src: adm.src,
                    dst: adm.dst,
                    path: adm.path,
                    size: adm.size,
                    arrival: f.arrival,
                    server: adm.server,
                    dir: f.direction,
                    client_idx: adm.client_idx,
                    internal: false,
                    transport: adm.transport,
                });
            }

            // Open connections whose setup completed, one same-timestamp
            // batch per scheduler drain.
            let mut batch = std::mem::take(&mut self.open_batch);
            loop {
                clock.enter(Stage::PopBatch);
                if self.pending.pop_batch_until(now, &mut batch).is_none() {
                    break;
                }
                for &idx in &batch {
                    clock.enter(Stage::Open);
                    let p = self.starts[idx]
                        .take()
                        .expect("invariant: a scheduled slot holds its start until it opens");
                    self.free_starts.push(idx);
                    ctrl.on_open(&p, &mut self.driver);
                    if !p.internal {
                        self.arrivals.insert(p.id, (p.arrival, p.size));
                    }
                    // Open on the path admission resolved, unless a
                    // fabric change (reserve bandwidth, a failed link)
                    // has replaced the routes since: then route afresh.
                    assert!(p.src != p.dst, "flow endpoints must differ");
                    let path = if self.driver.net().holds_path(p.path) {
                        p.path
                    } else {
                        self.driver
                            .net_mut()
                            .route(p.src, p.dst)
                            .unwrap_or_else(|| panic!("no route {} -> {}", p.src, p.dst))
                    };
                    self.driver
                        .start_flow_on(p.id, p.src, p.dst, path, p.size, p.transport, now);
                }
            }
            batch.clear();
            self.open_batch = batch;

            // Control round every τ (skipped entirely for cadence-free
            // policies — RandTCP has no control plane).
            if let (Some(period), Some(nc)) = (period, next_ctrl) {
                if now + 1e-12 >= nc {
                    clock.enter(Stage::Round);
                    next_ctrl = Some(nc + period);
                    ctrl.round(now, &mut self.driver);
                }
            }

            // Drive the data plane one tick and account completions.
            clock.enter(Stage::Tick);
            let mut summary = std::mem::take(&mut self.summary);
            self.driver.tick(now, sc.dt, &mut summary);
            clock.enter(Stage::Account);
            acct.on_tick(now, summary.delivered_bytes, self.driver.active_count());
            for c in &summary.completed {
                clock.enter(Stage::Completion);
                let entry = self.arrivals.remove(c.id);
                let spawn = ctrl.on_complete(c, entry.map(|(_, size)| size), &mut self.driver);
                if let Some((arrival, size)) = entry {
                    acct.on_completion(FlowRecord {
                        size_bytes: size,
                        start: arrival,
                        finish: c.finish,
                    });
                }
                if let Some(sp) = spawn {
                    let spawned = self.schedule(sp.start, |id| PendingStart {
                        id,
                        src: sp.src,
                        dst: sp.dst,
                        path: sp.path,
                        size: sp.size,
                        arrival: sp.arrival,
                        server: sp.server,
                        dir: FlowDirection::Write,
                        client_idx: 0,
                        internal: true,
                        transport: sp.transport,
                    });
                    if auditing {
                        acct.audit().admitted(
                            now,
                            spawned.0,
                            AuditClass::Internal,
                            sp.server.0,
                            sp.size,
                        );
                    }
                }
            }
            self.summary = summary;
            clock.enter(Stage::Idle);
        }

        // Flows the horizon cut off — still-active transfers plus setups
        // that never opened — in one walk that reports each to the trace
        // and, as a shed span, to the audit (a disabled handle ignores
        // it). Then close every open violation episode so each violation
        // exports with a time-to-mitigation (censored at the horizon when
        // unresolved).
        if observing || auditing {
            let (end, obs, audit) = (sc.duration, acct.obs(), acct.audit());
            let active = self.driver.active_flows().map(|(id, _, _)| {
                let remaining = self.driver.progress(id).map_or(0.0, |p| p.remaining());
                (id, ShedCause::Horizon, remaining)
            });
            // Slab slots are reused, so slot order is not id order.
            let mut unopened: Vec<&PendingStart> = self.starts.iter().flatten().collect();
            unopened.sort_unstable_by_key(|p| p.id);
            let unopened = unopened
                .into_iter()
                .map(|p| (p.id, ShedCause::NeverOpened, p.size));
            let mut timed_out = 0u64;
            for (id, cause, remaining) in active.chain(unopened) {
                obs.emit(TraceEvent::FlowTimedOut {
                    now: end,
                    flow: id.0,
                    remaining_bytes: remaining,
                });
                audit.shed(end, id.0, cause, remaining);
                timed_out += 1;
            }
            obs.counter_add(metric::FLOW_TIMED_OUT, timed_out);
            audit.finalize(end);
        }

        let mut result = RunResult {
            system: ctrl.system().into(),
            fct: FctStats::new(),
            throughput: ThroughputSeries::new(sc.throughput_interval),
            sla_violations: 0,
            requested: sc.workload.len(),
            completed: 0,
            energy_joules: None,
            dormant_servers: 0,
            mitigations_applied: 0,
            replications_completed: 0,
            control_rounds: 0,
            changed_dirs_total: 0,
            profile: None,
            snapshots: None,
        };
        acct.finish(&mut result);
        ctrl.finish(&mut result);
        result
    }
}

/// The number of `dt` steps that cover `duration` seconds.
///
/// # Panics
///
/// Panics if `dt` is not positive and finite or `duration` is not finite
/// and non-negative: a zero `dt` would make the step count `u64::MAX`, a
/// NaN or negative one would silently run no step at all.
pub(crate) fn step_count(duration: f64, dt: f64) -> u64 {
    assert!(dt > 0.0 && dt.is_finite(), "dt must be positive and finite");
    assert!(
        duration >= 0.0 && duration.is_finite(),
        "duration must be finite and non-negative"
    );
    (duration / dt).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_randtcp;
    use crate::scenario::Scale;

    #[test]
    #[should_panic(expected = "dt must be positive and finite")]
    fn zero_dt_is_rejected() {
        let mut sc = Scenario::video(Scale::Quick, false, 1);
        sc.dt = 0.0;
        run_randtcp(&sc);
    }

    #[test]
    #[should_panic(expected = "duration must be finite and non-negative")]
    fn negative_duration_is_rejected() {
        let mut sc = Scenario::video(Scale::Quick, false, 1);
        sc.duration = -1.0;
        run_randtcp(&sc);
    }

    #[test]
    fn horizon_reports_unopened_starts_in_id_order() {
        // A horizon that falls mid-arrivals leaves setups pending. Opens
        // free slab slots that later starts reuse, so slot order is not
        // id order; the horizon walk must still report by id.
        let mut sc = Scenario::video(Scale::Quick, false, 1);
        sc.duration = 8.0;
        let obs = scda_obs::Obs::enabled();
        let opts = crate::runner::ScdaOptions {
            obs: obs.clone(),
            ..Default::default()
        };
        crate::runner::run_scda(&sc, &opts);
        let jsonl = obs.trace_jsonl().expect("enabled");
        let flow_of = |line: &str| -> u64 {
            let rest = &line[line.find("\"flow\":").expect("flow field") + 7..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().expect("flow id")
        };
        let started: Vec<u64> = jsonl
            .lines()
            .filter(|l| l.contains("\"event\":\"flow_started\""))
            .map(flow_of)
            .collect();
        let (active, unopened): (Vec<u64>, Vec<u64>) = jsonl
            .lines()
            .filter(|l| l.contains("\"event\":\"flow_timed_out\""))
            .map(flow_of)
            .partition(|id| started.contains(id));
        assert!(
            unopened.len() >= 2,
            "the horizon must cut setups: {unopened:?}"
        );
        assert!(
            active.is_sorted(),
            "active flows out of id order: {active:?}"
        );
        assert!(
            unopened.is_sorted(),
            "unopened starts out of id order: {unopened:?}"
        );
    }

    #[test]
    fn pending_scheduler_drains_in_start_then_insertion_order() {
        // The kernel parks pending starts on a `Scheduler<usize>`:
        // earlier start first, insertion (= flow id) order breaking
        // ties, same-timestamp entries arriving as one batch.
        let mut sched: Scheduler<usize> = Scheduler::new();
        // (start, idx): idx is allocated in insertion order by
        // SimKernel::schedule, exactly like flow ids.
        for (idx, &t) in [2.0, 1.0, 1.0, 0.5, f64::INFINITY, 1.0].iter().enumerate() {
            sched.at(t, idx);
        }
        let mut batch = Vec::new();
        let mut batches = Vec::new();
        while let Some(t) = sched.pop_batch_until(f64::INFINITY, &mut batch) {
            batches.push((t, batch.clone()));
        }
        assert_eq!(
            batches,
            vec![
                (0.5, vec![3]),
                (1.0, vec![1, 2, 5]),
                (2.0, vec![0]),
                (f64::INFINITY, vec![4]),
            ]
        );
    }
}
