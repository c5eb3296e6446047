//! # scda-audit — flow-lifecycle spans and SLA-violation attribution
//!
//! scda-obs answers "how much": counters, histograms, a bounded trace of
//! typed events. This crate answers "why": every flow gets a compact
//! lifecycle **span** (admitted → opened → rate-updates →
//! completed/shed), every SLA violation carries an **attribution** (the
//! max-min bottleneck link, the dominant traffic class on the saturated
//! link, whether a dormant-server wakeup was in flight), and violations
//! are grouped into per-link **episodes** whose close time yields a
//! time-to-mitigation for each violation. A run exports as JSON Lines
//! (one record per span / violation / episode / wakeup plus a trailing
//! aggregate report) and as a mergeable [`AuditReport`] whose aggregation
//! is associative and order-independent, like the scda-obs registry.
//!
//! The handle mirrors [`scda_obs::Obs`]: disabled by default, every call
//! a branch on an `Option`, clones share one core, and instrumentation
//! never takes a run down (poisoned locks are survived).

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![deny(deprecated)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod report;

pub use report::AuditReport;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// Render an `f64` for JSON: non-finite values become `null`.
pub(crate) fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Traffic class of an audited flow: the paper's §IV content classes plus
/// the reproduction-internal replication traffic (§VIII-B spawn flows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditClass {
    /// Interactive content (HTTP control flows, chat sessions).
    Interactive,
    /// Semi-interactive reads (video delivery, synthetic retrievals).
    SemiInteractiveRead,
    /// Semi-interactive writes (datacenter ingest).
    SemiInteractiveWrite,
    /// Passive bulk content.
    Passive,
    /// Internal replication flows spawned by the storage layer.
    Internal,
}

impl AuditClass {
    /// Every class, in declaration (= `Ord`) order; `class as usize`
    /// indexes it.
    pub const ALL: [AuditClass; 5] = [
        AuditClass::Interactive,
        AuditClass::SemiInteractiveRead,
        AuditClass::SemiInteractiveWrite,
        AuditClass::Passive,
        AuditClass::Internal,
    ];

    /// Stable lowercase name used in JSONL exports and report keys.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditClass::Interactive => "interactive",
            AuditClass::SemiInteractiveRead => "semi_interactive_read",
            AuditClass::SemiInteractiveWrite => "semi_interactive_write",
            AuditClass::Passive => "passive",
            AuditClass::Internal => "internal",
        }
    }
}

/// Why a flow was shed instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// Still transferring when the simulation horizon closed.
    Horizon,
    /// Admitted but its connection setup never completed in time.
    NeverOpened,
}

impl ShedCause {
    /// Stable lowercase name used in JSONL exports and report keys.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedCause::Horizon => "horizon",
            ShedCause::NeverOpened => "never_opened",
        }
    }
}

/// Terminal state of a flow span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowOutcome {
    /// Still running (only seen before the run finalizes).
    Pending,
    /// Delivered in full.
    Completed {
        /// Completion time, seconds.
        finish: f64,
        /// Flow completion time, seconds.
        fct: f64,
    },
    /// Dropped without completing.
    Shed {
        /// Why the flow was shed.
        cause: ShedCause,
        /// Bytes left undelivered.
        remaining_bytes: f64,
    },
}

/// One flow's compact lifecycle record.
#[derive(Debug, Clone, PartialEq)]
struct FlowSpan {
    /// Flow id (the simnet `FlowId`).
    pub flow: u64,
    /// Traffic class.
    pub class: AuditClass,
    /// Serving node id (the simnet `NodeId`).
    pub server: u32,
    /// Admission time, seconds.
    pub admitted: f64,
    /// Data-plane open time, seconds (None until opened).
    pub opened: Option<f64>,
    /// Requested transfer size, bytes.
    pub size_bytes: f64,
    /// Explicit-rate re-window count.
    pub rate_updates: u64,
    /// SLA violations on links this flow traversed while active.
    pub violations_hit: u64,
    /// Terminal state.
    pub outcome: FlowOutcome,
}

impl FlowSpan {
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"record\":\"flow\",\"flow\":{},\"class\":\"{}\",\"server\":{},\
             \"admitted\":{},\"opened\":{},\"size_bytes\":{},\"rate_updates\":{},\
             \"violations_hit\":{}",
            self.flow,
            self.class.as_str(),
            self.server,
            jnum(self.admitted),
            self.opened.map(jnum).unwrap_or_else(|| "null".into()),
            jnum(self.size_bytes),
            self.rate_updates,
            self.violations_hit,
        );
        match self.outcome {
            FlowOutcome::Pending => s.push_str(",\"outcome\":\"pending\"}"),
            FlowOutcome::Completed { finish, fct } => {
                let _ = write!(
                    s,
                    ",\"outcome\":\"completed\",\"finish\":{},\"fct\":{}}}",
                    jnum(finish),
                    jnum(fct)
                );
            }
            FlowOutcome::Shed {
                cause,
                remaining_bytes,
            } => {
                let _ = write!(
                    s,
                    ",\"outcome\":\"shed\",\"cause\":\"{}\",\"remaining_bytes\":{}}}",
                    cause.as_str(),
                    jnum(remaining_bytes)
                );
            }
        }
        s
    }
}

/// Causal context attached to one SLA violation: the control tree's
/// max-min bottleneck for the violated server/direction, the traffic mix
/// on the saturated link, and any in-flight dormancy decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The binding max-min bottleneck link for the violated allocation.
    pub bottleneck_link: u32,
    /// Tree level of the bottleneck (0 = server access link).
    pub bottleneck_level: u8,
    /// Most common class among flows crossing the violated link.
    pub dominant_class: AuditClass,
    /// Active flows whose path crossed the violated link.
    pub affected_flows: u32,
    /// A dormant-server wakeup targeted this subtree recently.
    pub dormant_wake: bool,
}

/// One detected SLA violation (paper eq. `S > α·C − β·Q/d`) plus its
/// attribution. Time-to-mitigation is derived from the violation's
/// per-link episode when that episode closes.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationRecord {
    /// Detection time, seconds.
    pub time: f64,
    /// The violated link id.
    pub link: u32,
    /// Tree level of the violated link.
    pub level: u8,
    /// Direction: true = download (server→client).
    pub down: bool,
    /// Measured sending-rate demand `S`, bits/s.
    pub demand: f64,
    /// The SLA capacity term `α·C − β·Q/d`, bits/s.
    pub capacity_term: f64,
    /// Causal context.
    pub attribution: Attribution,
}

#[derive(Debug, Clone)]
struct ViolationEntry {
    rec: ViolationRecord,
    mitigation_cause: Option<&'static str>,
    time_to_mitigation: Option<f64>,
    /// The next violation of the same episode (unused after its last).
    next_in_episode: usize,
}

/// An episode still open on `link`. Its violations are a chain through
/// [`ViolationEntry::next_in_episode`] from `first` to `last`, in record
/// order, so an episode holds no list of its own.
#[derive(Debug, Clone, Copy)]
struct OpenEpisode {
    link: u32,
    opened: f64,
    first: usize,
    last: usize,
    count: u64,
}

#[derive(Debug, Clone)]
struct EpisodeRecord {
    link: u32,
    opened: f64,
    closed: f64,
    violations: u64,
    cause: &'static str,
}

/// A recorded dormant-server wakeup (§VII-C energy management).
#[derive(Debug, Clone, PartialEq)]
struct WakeupRecord {
    /// Wake decision time, seconds.
    pub time: f64,
    /// The woken server's node id.
    pub server: u32,
    /// Wake latency before the server serves, seconds.
    pub latency_s: f64,
}

/// Mitigation-cause label: capacity was added on the violated link.
pub const MITIGATION_ADD_BANDWIDTH: &str = "add_bandwidth";
/// Mitigation-cause label: the monitor asked for server reassignment.
pub const MITIGATION_REASSIGN: &str = "reassign_server";
/// Mitigation-cause label: the monitor escalated to the operator.
pub const MITIGATION_ESCALATE: &str = "escalate";
/// Mitigation-cause label: the link left the violated set without an
/// explicit action (admission pressure moved elsewhere).
pub const MITIGATION_CLEARED: &str = "cleared";
/// Mitigation-cause label: still violated when the run ended; the
/// time-to-mitigation is censored at the horizon.
pub const MITIGATION_UNRESOLVED: &str = "unresolved_at_horizon";

/// The mutable state behind an enabled [`Audit`] handle.
#[derive(Debug, Default)]
pub struct AuditCore {
    spans: BTreeMap<u64, FlowSpan>,
    violations: Vec<ViolationEntry>,
    /// Open episodes, sorted by link.
    open_episodes: Vec<OpenEpisode>,
    episodes: Vec<EpisodeRecord>,
    wakeups: Vec<WakeupRecord>,
    horizon: Option<f64>,
}

impl AuditCore {
    /// Where `link`'s open episode is, or would go, in `open_episodes`.
    fn find_episode(&self, link: u32) -> Result<usize, usize> {
        self.open_episodes.binary_search_by_key(&link, |e| e.link)
    }

    /// `f` on each violation of `ep`, in record order.
    fn for_each_violation(&mut self, ep: OpenEpisode, mut f: impl FnMut(&mut ViolationEntry)) {
        let mut i = ep.first;
        loop {
            let v = &mut self.violations[i];
            f(v);
            if i == ep.last {
                break;
            }
            i = v.next_in_episode;
        }
    }

    fn close_episode(&mut self, link: u32, now: f64, cause: &'static str) {
        if let Ok(at) = self.find_episode(link) {
            let ep = self.open_episodes.remove(at);
            self.close(ep, now, cause);
        }
    }

    fn close(&mut self, ep: OpenEpisode, now: f64, cause: &'static str) {
        self.for_each_violation(ep, |v| {
            // An unresolved close keeps the last advisory action
            // (reassign/escalate) as the cause when one was recorded.
            if cause != MITIGATION_UNRESOLVED || v.mitigation_cause.is_none() {
                v.mitigation_cause = Some(cause);
            }
            v.time_to_mitigation = Some((now - v.rec.time).max(0.0));
        });
        self.episodes.push(EpisodeRecord {
            link: ep.link,
            opened: ep.opened,
            closed: now,
            violations: ep.count,
            cause,
        });
    }
}

/// A cloneable audit handle, mirroring [`scda_obs::Obs`]: disabled by
/// default (every method is a no-op behind one `Option` check), clones
/// share one [`AuditCore`].
#[derive(Clone, Default)]
pub struct Audit {
    core: Option<Arc<Mutex<AuditCore>>>,
}

impl std::fmt::Debug for Audit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.core.is_some() {
            "Audit(enabled)"
        } else {
            "Audit(disabled)"
        })
    }
}

static DISABLED: Audit = Audit { core: None };

impl Audit {
    /// A no-op handle (same as `Audit::default()`).
    pub fn disabled() -> Self {
        Audit { core: None }
    }

    /// A shared reference to a disabled handle, for trait defaults that
    /// must return `&Audit` without owning one.
    pub fn disabled_ref() -> &'static Audit {
        &DISABLED
    }

    /// A live handle.
    pub fn enabled() -> Self {
        Audit {
            core: Some(Arc::new(Mutex::new(AuditCore::default()))),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, AuditCore>> {
        // Auditing must never take a run down: survive poisoning.
        self.core
            .as_ref()
            .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Open a span: the flow was admitted, classified and placed.
    #[inline]
    pub fn admitted(&self, now: f64, flow: u64, class: AuditClass, server: u32, size_bytes: f64) {
        if let Some(mut c) = self.lock() {
            c.spans.insert(
                flow,
                FlowSpan {
                    flow,
                    class,
                    server,
                    admitted: now,
                    opened: None,
                    size_bytes,
                    rate_updates: 0,
                    violations_hit: 0,
                    outcome: FlowOutcome::Pending,
                },
            );
        }
    }

    /// The flow's connection setup completed; it entered the data plane.
    #[inline]
    pub fn opened(&self, now: f64, flow: u64) {
        if let Some(mut c) = self.lock() {
            if let Some(s) = c.spans.get_mut(&flow) {
                s.opened = Some(now);
            }
        }
    }

    /// The control plane re-windowed (re-rated) this flow.
    #[inline]
    pub fn rate_update(&self, flow: u64) {
        if let Some(mut c) = self.lock() {
            if let Some(s) = c.spans.get_mut(&flow) {
                s.rate_updates += 1;
            }
        }
    }

    /// The flow delivered every byte.
    #[inline]
    pub fn completed(&self, now: f64, flow: u64, fct: f64) {
        if let Some(mut c) = self.lock() {
            if let Some(s) = c.spans.get_mut(&flow) {
                s.outcome = FlowOutcome::Completed { finish: now, fct };
            }
        }
    }

    /// The flow was dropped without completing.
    #[inline]
    pub fn shed(&self, _now: f64, flow: u64, cause: ShedCause, remaining_bytes: f64) {
        if let Some(mut c) = self.lock() {
            if let Some(s) = c.spans.get_mut(&flow) {
                s.outcome = FlowOutcome::Shed {
                    cause,
                    remaining_bytes,
                };
            }
        }
    }

    /// Record an attributed SLA violation. `affected` lists the active
    /// flows whose path crossed the violated link; their spans' violation
    /// counters advance. Opens (or extends) the per-link episode that will
    /// later yield this violation's time-to-mitigation.
    pub fn violation(&self, rec: ViolationRecord, affected: &[u64]) {
        if let Some(mut c) = self.lock() {
            for f in affected {
                if let Some(s) = c.spans.get_mut(f) {
                    s.violations_hit += 1;
                }
            }
            let idx = c.violations.len();
            let (link, time) = (rec.link, rec.time);
            c.violations.push(ViolationEntry {
                rec,
                mitigation_cause: None,
                time_to_mitigation: None,
                next_in_episode: idx,
            });
            match c.find_episode(link) {
                Ok(at) => {
                    let last = c.open_episodes[at].last;
                    c.violations[last].next_in_episode = idx;
                    let ep = &mut c.open_episodes[at];
                    ep.last = idx;
                    ep.count += 1;
                }
                Err(at) => c.open_episodes.insert(
                    at,
                    OpenEpisode {
                        link,
                        opened: time,
                        first: idx,
                        last: idx,
                        count: 1,
                    },
                ),
            }
        }
    }

    /// A mitigation action ran against `link`. An applied bandwidth add
    /// closes the link's episode (the violation is considered mitigated);
    /// advisory actions (reassign, escalate) are recorded on the episode's
    /// violations but leave it open.
    pub fn mitigation(&self, now: f64, link: u32, action: &'static str) {
        if let Some(mut c) = self.lock() {
            if action == MITIGATION_ADD_BANDWIDTH {
                c.close_episode(link, now, MITIGATION_ADD_BANDWIDTH);
            } else if let Ok(at) = c.find_episode(link) {
                let ep = c.open_episodes[at];
                c.for_each_violation(ep, |v| {
                    if v.mitigation_cause.is_none() {
                        v.mitigation_cause = Some(action);
                    }
                });
            }
        }
    }

    /// A control round ended; `violated_links` are the links still in the
    /// violated set. Episodes on links that dropped out of the set close
    /// as [`MITIGATION_CLEARED`].
    pub fn round_end(&self, now: f64, violated_links: &[u32]) {
        if let Some(mut c) = self.lock() {
            // In link order, as the episodes are kept.
            let mut at = 0;
            while at < c.open_episodes.len() {
                if violated_links.contains(&c.open_episodes[at].link) {
                    at += 1;
                } else {
                    let ep = c.open_episodes.remove(at);
                    c.close(ep, now, MITIGATION_CLEARED);
                }
            }
        }
    }

    /// A dormant server was woken to serve new demand (§VII-C).
    pub fn wakeup(&self, now: f64, server: u32, latency_s: f64) {
        if let Some(mut c) = self.lock() {
            c.wakeups.push(WakeupRecord {
                time: now,
                server,
                latency_s,
            });
        }
    }

    /// Close the run at `horizon` seconds: any episode still open closes
    /// as [`MITIGATION_UNRESOLVED`] (its violations get a horizon-censored
    /// time-to-mitigation), so every exported violation carries a value.
    pub fn finalize(&self, horizon: f64) {
        if let Some(mut c) = self.lock() {
            for ep in std::mem::take(&mut c.open_episodes) {
                c.close(ep, horizon, MITIGATION_UNRESOLVED);
            }
            c.horizon = Some(horizon);
        }
    }

    /// Run a closure against the shared core (None when disabled).
    pub fn with_core<R>(&self, f: impl FnOnce(&mut AuditCore) -> R) -> Option<R> {
        self.lock().map(|mut c| f(&mut c))
    }

    /// The aggregate run report (None when disabled).
    pub fn report(&self) -> Option<AuditReport> {
        self.with_core(|c| AuditReport::from_core(c))
    }

    /// The whole audit log as JSON Lines (None when disabled): one record
    /// per flow span, violation, episode and wakeup, then the aggregate
    /// report as the final line.
    pub fn to_jsonl(&self) -> Option<String> {
        self.with_core(|c| {
            let mut out = String::new();
            for s in c.spans.values() {
                out.push_str(&s.to_json());
                out.push('\n');
            }
            for v in &c.violations {
                let r = &v.rec;
                let a = &r.attribution;
                let _ = writeln!(
                    out,
                    "{{\"record\":\"violation\",\"time\":{},\"link\":{},\"level\":{},\
                     \"direction\":\"{}\",\"demand\":{},\"capacity_term\":{},\
                     \"attribution\":{{\"bottleneck_link\":{},\"bottleneck_level\":{},\
                     \"dominant_class\":\"{}\",\"affected_flows\":{},\"dormant_wake\":{}}},\
                     \"mitigation_cause\":{},\"time_to_mitigation\":{}}}",
                    jnum(r.time),
                    r.link,
                    r.level,
                    if r.down { "down" } else { "up" },
                    jnum(r.demand),
                    jnum(r.capacity_term),
                    a.bottleneck_link,
                    a.bottleneck_level,
                    a.dominant_class.as_str(),
                    a.affected_flows,
                    a.dormant_wake,
                    v.mitigation_cause
                        .map(|m| format!("\"{m}\""))
                        .unwrap_or_else(|| "null".into()),
                    v.time_to_mitigation
                        .map(jnum)
                        .unwrap_or_else(|| "null".into()),
                );
            }
            for e in &c.episodes {
                let _ = writeln!(
                    out,
                    "{{\"record\":\"episode\",\"link\":{},\"opened\":{},\"closed\":{},\
                     \"violations\":{},\"cause\":\"{}\"}}",
                    e.link,
                    jnum(e.opened),
                    jnum(e.closed),
                    e.violations,
                    e.cause,
                );
            }
            for w in &c.wakeups {
                let _ = writeln!(
                    out,
                    "{{\"record\":\"wakeup\",\"time\":{},\"server\":{},\"latency_s\":{}}}",
                    jnum(w.time),
                    w.server,
                    jnum(w.latency_s),
                );
            }
            let _ = writeln!(
                out,
                "{{\"record\":\"report\",\"report\":{}}}",
                AuditReport::from_core(c).to_json()
            );
            out
        })
    }

    /// Write the audit log as JSON Lines to `path` (no-op when disabled).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(jsonl) = self.to_jsonl() {
            std::fs::write(path, jsonl)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation_at(time: f64, link: u32) -> ViolationRecord {
        ViolationRecord {
            time,
            link,
            level: 1,
            down: true,
            demand: 2e8,
            capacity_term: 1e8,
            attribution: Attribution {
                bottleneck_link: link,
                bottleneck_level: 1,
                dominant_class: AuditClass::SemiInteractiveRead,
                affected_flows: 2,
                dormant_wake: false,
            },
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let a = Audit::disabled();
        assert!(!a.is_enabled());
        a.admitted(0.0, 1, AuditClass::Interactive, 3, 1e6);
        a.violation(violation_at(0.1, 7), &[1]);
        a.finalize(1.0);
        assert!(a.to_jsonl().is_none());
        assert!(a.report().is_none());
        assert!(!Audit::disabled_ref().is_enabled());
    }

    #[test]
    fn clones_share_one_core() {
        let a = Audit::enabled();
        let b = a.clone();
        a.admitted(0.0, 1, AuditClass::Interactive, 3, 1e6);
        b.opened(0.1, 1);
        b.completed(0.5, 1, 0.5);
        let r = a.report().unwrap();
        assert_eq!(r.flows_admitted.get("interactive"), Some(&1));
        assert_eq!(r.flows_completed.get("interactive"), Some(&1));
    }

    #[test]
    fn span_tracks_lifecycle() {
        let a = Audit::enabled();
        a.admitted(1.0, 42, AuditClass::SemiInteractiveWrite, 9, 5e6);
        a.opened(1.2, 42);
        a.rate_update(42);
        a.rate_update(42);
        a.completed(2.0, 42, 1.0);
        let span = a.with_core(|c| c.spans[&42].clone()).unwrap();
        assert_eq!(span.opened, Some(1.2));
        assert_eq!(span.rate_updates, 2);
        assert_eq!(
            span.outcome,
            FlowOutcome::Completed {
                finish: 2.0,
                fct: 1.0
            }
        );
    }

    #[test]
    fn add_bandwidth_closes_episode_with_ttm() {
        let a = Audit::enabled();
        a.violation(violation_at(1.0, 7), &[]);
        a.violation(violation_at(1.05, 7), &[]);
        a.mitigation(1.1, 7, MITIGATION_ADD_BANDWIDTH);
        a.finalize(5.0);
        let (causes, ttms) = a
            .with_core(|c| {
                (
                    c.violations
                        .iter()
                        .map(|v| v.mitigation_cause)
                        .collect::<Vec<_>>(),
                    c.violations
                        .iter()
                        .map(|v| v.time_to_mitigation)
                        .collect::<Vec<_>>(),
                )
            })
            .unwrap();
        assert_eq!(
            causes,
            vec![
                Some(MITIGATION_ADD_BANDWIDTH),
                Some(MITIGATION_ADD_BANDWIDTH)
            ]
        );
        assert!((ttms[0].unwrap() - 0.1).abs() < 1e-12);
        assert!((ttms[1].unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn round_end_clears_links_out_of_the_violated_set() {
        let a = Audit::enabled();
        a.violation(violation_at(1.0, 7), &[]);
        a.violation(violation_at(1.0, 8), &[]);
        a.round_end(1.5, &[8]); // link 7 dropped out, link 8 still violated
        a.finalize(9.0);
        let causes: Vec<_> = a
            .with_core(|c| c.violations.iter().map(|v| v.mitigation_cause).collect())
            .unwrap();
        assert_eq!(
            causes,
            vec![Some(MITIGATION_CLEARED), Some(MITIGATION_UNRESOLVED)]
        );
    }

    #[test]
    fn finalize_censors_unresolved_episodes_at_horizon() {
        let a = Audit::enabled();
        a.violation(violation_at(3.0, 2), &[]);
        a.finalize(10.0);
        let ttm = a
            .with_core(|c| c.violations[0].time_to_mitigation)
            .unwrap()
            .unwrap();
        assert!((ttm - 7.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_has_one_record_per_entity_plus_report() {
        let a = Audit::enabled();
        a.admitted(0.0, 1, AuditClass::Interactive, 3, 1e6);
        a.opened(0.1, 1);
        a.shed(9.9, 1, ShedCause::Horizon, 5e5);
        a.violation(violation_at(1.0, 7), &[1]);
        a.wakeup(0.5, 12, 0.2);
        a.finalize(10.0);
        let jsonl = a.to_jsonl().unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        // 1 flow + 1 violation + 1 episode + 1 wakeup + 1 report.
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().all(|l| l.starts_with("{\"record\":\"")));
        assert!(jsonl.contains("\"violations_hit\":1"));
        assert!(jsonl.contains("\"cause\":\"horizon\""));
        assert!(jsonl.contains("\"time_to_mitigation\":9"));
    }
}
