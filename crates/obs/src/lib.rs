//! # scda-obs — run-time observability for the SCDA reproduction
//!
//! §I of the paper: "All the aggregated and monitored traffic metrics can
//! be offloaded to an external server for off-line diagnosis, analysis and
//! data mining of the distributed system." This crate is that offload
//! path for the *reproduction itself*: every layer — transport driver,
//! RM/RA control tree, experiment runner — carries a cheap cloneable
//! [`Obs`] handle and reports into three sinks:
//!
//! * a bounded-ring [`Tracer`] of typed [`TraceEvent`]s with JSON Lines
//!   export (flow lifecycle, control rounds, rate propagation, server
//!   selection decisions, SLA violations);
//! * a [`Registry`] of counters, gauges and log-bucketed [`Histogram`]s
//!   that merge across runs (counts add exactly, in any merge order);
//! * a [`Profiler`] of wall-clock timers per [`Phase`] (a closed set of
//!   kernel stages) surfaced as a run-report table ([`ProfileReport`]).
//!
//! The default handle is **disabled**: it holds no allocation and every
//! call is a branch on an `Option`, so instrumented hot paths cost nothing
//! measurable when observability is off (use [`Obs::emit_with`] so even
//! the event construction is skipped). The crate has zero dependencies and
//! sits below everything else in the workspace graph.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![deny(deprecated)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod metrics;
pub mod profile;
pub mod trace;

/// Profiler phases for the simulation kernel's run-loop stages
/// (admission → open → control → tick) and the placement query inside
/// admission. [`Obs::time_phase`], [`Obs::phase_add`] and
/// [`Profiler::add`] take a [`Phase`], and these constants
/// are its only values, so a misspelt phase does not compile. The
/// profile report names each phase by [`Phase::name`].
pub mod phase {
    /// One profiler phase. The field is private: the constants below are
    /// the only constructors.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Phase(&'static str);

    impl Phase {
        /// The phase's name in the profile report.
        pub const fn name(self) -> &'static str {
            self.0
        }
    }

    /// Admission stage: classify, place and price each arriving request.
    pub const ADMISSION: Phase = Phase("kernel.admission");
    /// Open stage: flows whose connection setup completed enter the data
    /// plane.
    pub const OPEN: Phase = Phase("kernel.open");
    /// Per-τ control stage: measure, allocate, mitigate, re-window.
    pub const CONTROL: Phase = Phase("kernel.control");
    /// Transport-drive stage: one fluid tick plus completion accounting.
    pub const TICK: Phase = Phase("kernel.tick");
    /// Placement query: one server pick against the incremental
    /// placement index.
    pub const PLACE: Phase = Phase("kernel.place");
}

/// Registry metric names. By convention every `counter_add` /
/// `gauge_set` / `observe` call in the workspace keys on one of these
/// constants rather than a string literal, so audit span names,
/// dashboards and the perf harness stay in step with the
/// instrumentation. Nothing enforces the convention: the registry
/// accepts any name.
pub mod metric {
    /// Counter: flows handed to the transport driver.
    pub const FLOW_STARTED: &str = "flow.started";
    /// Counter: flows that completed delivery.
    pub const FLOW_COMPLETED: &str = "flow.completed";
    /// Counter: flows still unfinished at the simulation horizon.
    pub const FLOW_TIMED_OUT: &str = "flow.timed_out";
    /// Histogram: flow completion time, seconds.
    pub const FLOW_FCT_S: &str = "flow.fct_s";
    /// Gauge: flows currently active in the data plane.
    pub const FLOWS_ACTIVE: &str = "flows.active";
    /// Counter: control rounds executed.
    pub const CTRL_ROUNDS: &str = "ctrl.rounds";
    /// Counter: SLA violations detected by the control tree.
    pub const CTRL_VIOLATIONS: &str = "ctrl.violations";
    /// Counter: (node, direction) allocations changed per round.
    pub const CTRL_CHANGED_DIRS: &str = "ctrl.changed_dirs";
    /// Counter: RAs the control tree's upward pass re-folded.
    pub const CTRL_REFOLDS: &str = "ctrl.refolds";
    /// Counter: (RM position, level) `Ř` entries the downward pass
    /// re-evaluated.
    pub const CTRL_REDESCENTS: &str = "ctrl.redescents";
    /// Counter: placement-index leaves rewritten by refreshes.
    pub const INDEX_LEAVES_REWRITTEN: &str = "index.leaves_rewritten";
    /// Histogram: control-round duration, microseconds.
    pub const CTRL_ROUND_DURATION_US: &str = "ctrl.round_duration_us";
    /// Histogram: per-link queue backlog at round time, bytes.
    pub const LINK_QUEUE_BYTES: &str = "link.queue_bytes";
    /// Histogram: per-link utilization at round time (0-1).
    pub const LINK_UTILIZATION: &str = "link.utilization";
}

pub use metrics::{Histogram, Metric, Registry};
pub use phase::Phase;
pub use profile::{PhaseStat, ProfileReport, Profiler};
pub use trace::{Candidate, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY, MAX_CANDIDATES};

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The three sinks behind an enabled [`Obs`] handle.
#[derive(Debug, Default)]
pub struct ObsCore {
    /// The bounded trace ring.
    pub tracer: Tracer,
    /// Counters / gauges / histograms.
    pub metrics: Registry,
    /// Per-phase wall-clock accumulator.
    pub profiler: Profiler,
}

/// A cloneable observability handle.
///
/// Clones share one [`ObsCore`]: hand the same handle to the driver, the
/// control tree and the runner, then read all three sinks from any clone
/// after the run. A disabled handle (the [`Default`]) makes every method a
/// no-op behind a single `Option` check.
#[derive(Clone, Default)]
pub struct Obs {
    core: Option<Arc<Mutex<ObsCore>>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately does not lock: `Obs` may be Debug-printed (e.g. as
        // part of ScdaOptions) while a clone holds the core.
        f.write_str(if self.core.is_some() {
            "Obs(enabled)"
        } else {
            "Obs(disabled)"
        })
    }
}

impl Obs {
    /// A no-op handle (same as `Obs::default()`).
    pub fn disabled() -> Self {
        Obs { core: None }
    }

    /// A live handle with the default trace capacity.
    pub fn enabled() -> Self {
        let core = ObsCore {
            tracer: Tracer::new(DEFAULT_TRACE_CAPACITY),
            ..Default::default()
        };
        Obs {
            core: Some(Arc::new(Mutex::new(core))),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, ObsCore>> {
        // Instrumentation must never take a run down: survive poisoning.
        self.core
            .as_ref()
            .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Record a trace event.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(mut c) = self.lock() {
            c.tracer.push(ev);
        }
    }

    /// Record a trace event built lazily — on hot paths the closure (and
    /// any allocation inside it) runs only when the handle is enabled.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(mut c) = self.lock() {
            let ev = f();
            c.tracer.push(ev);
        }
    }

    /// Add to a counter.
    #[inline]
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(mut c) = self.lock() {
            c.metrics.counter_add(name, n);
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(mut c) = self.lock() {
            c.metrics.gauge_set(name, v);
        }
    }

    /// Observe into a histogram.
    #[inline]
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(mut c) = self.lock() {
            c.metrics.observe(name, v);
        }
    }

    /// Charge wall-clock time to a named phase.
    #[inline]
    pub fn phase_add(&self, phase: Phase, elapsed: Duration) {
        if let Some(mut c) = self.lock() {
            c.profiler.add(phase, elapsed);
        }
    }

    /// Run `f`, charging its wall-clock cost to `phase` when enabled
    /// (disabled handles don't even read the clock).
    #[inline]
    pub fn time_phase<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        if self.core.is_none() {
            return f();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock profiling; read only when enabled, charged to the profiler and never returned to the caller"
        )]
        let t0 = Instant::now();
        let r = f();
        self.phase_add(phase, t0.elapsed());
        r
    }

    /// Run a closure against the shared core (None when disabled) — the
    /// escape hatch for bulk reads like post-run export.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut ObsCore) -> R) -> Option<R> {
        self.lock().map(|mut c| f(&mut c))
    }

    /// The whole trace as JSON Lines (None when disabled).
    pub fn trace_jsonl(&self) -> Option<String> {
        self.with_core(|c| c.tracer.to_jsonl())
    }

    /// Write the trace as JSON Lines to a file path (no-op when disabled).
    pub fn write_trace_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(c) = self.lock() {
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            c.tracer.write_jsonl(&mut f)?;
        }
        Ok(())
    }

    /// A snapshot of the metrics registry (None when disabled).
    pub fn metrics_snapshot(&self) -> Option<Registry> {
        self.with_core(|c| c.metrics.clone())
    }

    /// The profile report (None when disabled or nothing timed).
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.with_core(|c| (!c.profiler.is_empty()).then(|| c.profiler.report()))
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let o = Obs::disabled();
        assert!(!o.is_enabled());
        o.emit(TraceEvent::CtrlRoundBegin { now: 0.0, round: 0 });
        o.counter_add("x", 1);
        o.observe("h", 1.0);
        let mut built = false;
        o.emit_with(|| {
            built = true;
            TraceEvent::CtrlRoundBegin { now: 0.0, round: 0 }
        });
        assert!(!built, "emit_with must not build events when disabled");
        assert!(o.trace_jsonl().is_none());
        assert!(o.metrics_snapshot().is_none());
        assert!(o.profile_report().is_none());
    }

    #[test]
    fn clones_share_one_core() {
        let a = Obs::enabled();
        let b = a.clone();
        a.counter_add("n", 1);
        b.counter_add("n", 2);
        b.emit(TraceEvent::CtrlRoundBegin { now: 1.0, round: 7 });
        let m = a.metrics_snapshot().unwrap();
        assert_eq!(m.counter("n"), 3);
        assert_eq!(a.with_core(|c| c.tracer.len()), Some(1));
    }

    #[test]
    fn time_phase_records_only_when_enabled() {
        let o = Obs::enabled();
        let v = o.time_phase(phase::TICK, || 41 + 1);
        assert_eq!(v, 42);
        let r = o.profile_report().unwrap();
        assert_eq!(r.phase("kernel.tick").unwrap().calls, 1);
        assert_eq!(Obs::disabled().time_phase(phase::TICK, || 5), 5);
    }
}
