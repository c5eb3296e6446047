//! The layer ladder, timed from outside: decorators around the stock
//! policy objects record one span per callback the unchanged
//! `SimKernel::run` makes, and the stretch between callbacks that ends
//! in `Accounting::on_tick` is the transport tick. Spans stay in memory
//! until the run ends.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use scda_experiments::runner::{
    Accounting, Admission, ControlPolicy, PendingStart, Placement, SpawnSpec, TransportPolicy,
};
use scda_experiments::RunResult;
use scda_metrics::FlowRecord;
use scda_obs::Obs;
use scda_simnet::{FlowId, NodeId};
use scda_transport::{CompletedFlow, FlowDriver};
use scda_workloads::FlowSpec;

use crate::alloc::{self, Stage};

/// What a span covers. Layers are named after the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole `SimKernel::run`; the parent of every other span.
    Run,
    /// `ControlPolicy::prime`.
    Prime,
    /// `ControlPolicy::admit`.
    Admit,
    /// `ControlPolicy::on_open`.
    Open,
    /// `ControlPolicy::round`.
    Round,
    /// `ControlPolicy::on_complete`.
    Complete,
    /// From the last callback return of a step to `Accounting::on_tick`:
    /// `FlowDriver::tick` plus the kernel's open-batch drain.
    Tick,
    /// `Accounting::on_tick` and `Accounting::on_completion`.
    Account,
}

impl SpanKind {
    /// The span's name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "kernel.run",
            SpanKind::Prime => "control.prime",
            SpanKind::Admit => "control.admit",
            SpanKind::Open => "control.open",
            SpanKind::Round => "control.round",
            SpanKind::Complete => "control.complete",
            SpanKind::Tick => "transport.tick",
            SpanKind::Account => "metrics.account",
        }
    }
}

/// One recorded interval. `parent` indexes the span that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// Which replay of the run it belongs to.
    pub replay: u32,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<u32>,
    /// Start, host nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, host nanoseconds since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in host nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Each span's self time: its duration minus what its direct children
/// cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.dur_ns();
        }
    }
    own
}

/// Everything the decorators observe during the traced replays.
pub struct Recorder {
    epoch: Instant,
    /// Every span, in the order it ended (roots in the order they began).
    pub spans: Vec<Span>,
    root: u32,
    replay: u32,
    last_return_ns: u64,
    between_at_return: u64,
    /// Allocations inside transport-tick spans.
    pub tick_allocs: u64,
    /// `on_tick` calls, i.e. kernel steps.
    pub steps: u64,
    /// Most flows active at any tick.
    pub peak_active: usize,
    pending: usize,
    /// Most admitted flows waiting for their connection set-up at once.
    pub peak_pending: usize,
    /// Each distinct sender with the first receiver it was paired with,
    /// in admission order (the route cache is keyed by sender).
    pub sources: Vec<(NodeId, NodeId)>,
    seen_sources: BTreeSet<NodeId>,
    /// Every distinct (sender, receiver) pair admitted: one interned
    /// route each.
    pub pairs: BTreeSet<(NodeId, NodeId)>,
}

impl Recorder {
    /// A recorder sized for about `spans` spans.
    pub fn new(spans: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            root: 0,
            replay: 0,
            last_return_ns: 0,
            between_at_return: 0,
            tick_allocs: 0,
            steps: 0,
            peak_active: 0,
            pending: 0,
            peak_pending: 0,
            sources: Vec::new(),
            seen_sources: BTreeSet::new(),
            pairs: BTreeSet::new(),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of replay `replay`; call right before
    /// `SimKernel::run`.
    pub fn begin_run(&mut self, replay: u32) {
        self.replay = replay;
        self.root = self.spans.len() as u32;
        self.pending = 0;
        let now = self.now_ns();
        self.spans.push(Span {
            kind: SpanKind::Run,
            replay,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        self.last_return_ns = now;
        self.between_at_return = alloc::count(Stage::Between);
    }

    /// Close the root span; call right after `SimKernel::run` returns.
    /// Returns the run's host nanoseconds.
    pub fn end_run(&mut self) -> u64 {
        let now = self.now_ns();
        let root = &mut self.spans[self.root as usize];
        root.end_ns = now;
        root.dur_ns()
    }

    #[inline]
    fn enter(&mut self, stage: Stage) -> u64 {
        alloc::enter(stage);
        self.now_ns()
    }

    #[inline]
    fn leave(&mut self, kind: SpanKind, start_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            replay: self.replay,
            parent: Some(self.root),
            start_ns,
            end_ns,
        });
        self.last_return_ns = end_ns;
        alloc::enter(Stage::Between);
        self.between_at_return = alloc::count(Stage::Between);
    }

    /// `on_tick` was entered: everything since the last callback return
    /// was the transport tick.
    #[inline]
    fn tick_ended(&mut self, active: usize) -> u64 {
        let now = self.now_ns();
        self.tick_allocs += alloc::count(Stage::Between) - self.between_at_return;
        alloc::enter(Stage::Other);
        self.spans.push(Span {
            kind: SpanKind::Tick,
            replay: self.replay,
            parent: Some(self.root),
            start_ns: self.last_return_ns,
            end_ns: now,
        });
        self.steps += 1;
        self.peak_active = self.peak_active.max(active);
        now
    }

    fn admitted(&mut self, src: NodeId, dst: NodeId) {
        alloc::enter(Stage::Tracer);
        self.pending += 1;
        self.peak_pending = self.peak_pending.max(self.pending);
        if self.seen_sources.insert(src) {
            self.sources.push((src, dst));
        }
        self.pairs.insert((src, dst));
        alloc::enter(Stage::Between);
    }

    /// Durations in host microseconds of every span of `kind`, ascending.
    pub fn durations_us(&self, kind: SpanKind) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Write `header` then one JSON line per span.
    pub fn write_jsonl(&self, header: &str, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"replay\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.kind.name(),
                s.replay,
                s.start_ns,
                s.end_ns
            )?;
            match s.parent {
                Some(p) => writeln!(out, "{p}}}")?,
                None => writeln!(out, "null}}")?,
            }
        }
        out.flush()
    }
}

/// A policy object with a span recorded round each of its callbacks.
pub struct Timed<T> {
    inner: T,
    rec: Rc<RefCell<Recorder>>,
}

impl<T> Timed<T> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: T, rec: Rc<RefCell<Recorder>>) -> Self {
        Timed { inner, rec }
    }
}

impl<C: ControlPolicy> ControlPolicy for Timed<C> {
    fn system(&self) -> &'static str {
        self.inner.system()
    }

    fn cadence(&self) -> Option<f64> {
        self.inner.cadence()
    }

    fn prime(&mut self, driver: &mut FlowDriver) {
        let t = self.rec.borrow_mut().enter(Stage::Other);
        self.inner.prime(driver);
        self.rec.borrow_mut().leave(SpanKind::Prime, t);
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
        let t = self.rec.borrow_mut().enter(Stage::Admit);
        let adm = self.inner.admit(f, id, now, driver, placement, transport);
        let mut rec = self.rec.borrow_mut();
        rec.leave(SpanKind::Admit, t);
        rec.admitted(adm.src, adm.dst);
        adm
    }

    fn on_open(&mut self, p: &PendingStart, driver: &mut FlowDriver) {
        let t = self.rec.borrow_mut().enter(Stage::Other);
        self.inner.on_open(p, driver);
        let mut rec = self.rec.borrow_mut();
        rec.leave(SpanKind::Open, t);
        rec.pending = rec.pending.saturating_sub(1);
    }

    fn round(&mut self, now: f64, driver: &mut FlowDriver) {
        let t = self.rec.borrow_mut().enter(Stage::Round);
        self.inner.round(now, driver);
        self.rec.borrow_mut().leave(SpanKind::Round, t);
    }

    fn on_complete(
        &mut self,
        c: &CompletedFlow,
        size: Option<f64>,
        driver: &mut FlowDriver,
    ) -> Option<SpawnSpec> {
        let t = self.rec.borrow_mut().enter(Stage::Other);
        let spawn = self.inner.on_complete(c, size, driver);
        self.rec.borrow_mut().leave(SpanKind::Complete, t);
        spawn
    }

    fn finish(&mut self, result: &mut RunResult) {
        self.inner.finish(result);
    }
}

impl<A: Accounting> Accounting for Timed<A> {
    fn obs(&self) -> &Obs {
        self.inner.obs()
    }

    fn audit(&self) -> &scda_audit::Audit {
        self.inner.audit()
    }

    fn on_tick(&mut self, now: f64, delivered_bytes: f64, active: usize) {
        let t = self.rec.borrow_mut().tick_ended(active);
        self.inner.on_tick(now, delivered_bytes, active);
        self.rec.borrow_mut().leave(SpanKind::Account, t);
    }

    fn on_completion(&mut self, rec: FlowRecord) {
        let t = self.rec.borrow_mut().enter(Stage::Other);
        self.inner.on_completion(rec);
        self.rec.borrow_mut().leave(SpanKind::Account, t);
    }

    fn finish(&mut self, result: &mut RunResult) {
        self.inner.finish(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            replay: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(SpanKind::Run, None, 0, 100),
            span(SpanKind::Admit, Some(0), 10, 30),
            span(SpanKind::Tick, Some(0), 40, 90),
            // A grandchild shortens its parent, not the root.
            span(SpanKind::Account, Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // Self times add back up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tick_span_runs_from_last_return_to_on_tick() {
        let mut rec = Recorder::new(8);
        rec.begin_run(3);
        let t = rec.enter(Stage::Admit);
        rec.leave(SpanKind::Admit, t);
        let admit_end = rec.spans[1].end_ns;
        let tick_end = rec.tick_ended(7);
        rec.leave(SpanKind::Account, tick_end);
        rec.end_run();

        let tick = rec.spans[2];
        assert_eq!(tick.kind, SpanKind::Tick);
        assert_eq!((tick.start_ns, tick.end_ns), (admit_end, tick_end));
        assert_eq!(tick.parent, Some(0));
        assert_eq!(tick.replay, 3);
        assert_eq!((rec.steps, rec.peak_active), (1, 7));
        // Children never stick out of the root.
        let root = rec.spans[0];
        assert!(rec.spans[1..]
            .iter()
            .all(|s| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns));
    }

    #[test]
    fn sources_keep_first_pairing_in_admission_order() {
        let mut rec = Recorder::new(0);
        rec.admitted(NodeId(5), NodeId(1));
        rec.admitted(NodeId(2), NodeId(1));
        rec.admitted(NodeId(5), NodeId(9));
        assert_eq!(
            rec.sources,
            vec![(NodeId(5), NodeId(1)), (NodeId(2), NodeId(1))]
        );
        assert_eq!(rec.peak_pending, 3);
        assert_eq!(rec.pairs.len(), 3);
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_span() {
        let mut rec = Recorder::new(2);
        rec.begin_run(0);
        let t = rec.enter(Stage::Round);
        rec.leave(SpanKind::Round, t);
        rec.end_run();
        let mut buf = Vec::new();
        rec.write_jsonl("{\"header\":true}", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("{\"id\":0,\"name\":\"kernel.run\""));
        assert!(lines[1].ends_with("\"parent\":null}"));
        assert!(lines[2].contains("\"name\":\"control.round\""));
        assert!(lines[2].ends_with("\"parent\":0}"));
    }
}
