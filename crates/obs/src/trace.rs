//! Typed run-time trace events and the bounded ring buffer that holds them.
//!
//! Events use plain integer identifiers (`u64` flows, `u32` network nodes
//! and links, `u8` tree levels) rather than the newtypes of the upper
//! crates, so this crate stays dependency-free and every layer —
//! transport, control plane, experiment runner — can emit into the same
//! buffer. Export is JSON Lines: one self-describing object per event,
//! hand-rolled here (no serde) with an `"event"` tag naming the variant.

use std::fmt::Write as _;

/// One candidate considered by a server-selection decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Network node id of the candidate block server.
    pub server: u32,
    /// The (outstanding-load discounted) rate it advertised, bytes/s.
    pub rate: f64,
}

/// Everything the instrumented layers can report.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A transfer opened on the data plane.
    FlowStarted {
        /// Simulation time.
        now: f64,
        /// Flow id.
        flow: u64,
        /// Sender network node.
        src: u32,
        /// Receiver network node.
        dst: u32,
        /// Transfer size, bytes.
        size_bytes: f64,
    },
    /// The control plane installed a fresh explicit-rate window (§VIII-D).
    FlowRewindowed {
        /// Simulation time.
        now: f64,
        /// Flow id.
        flow: u64,
        /// The installed rate, bytes/s.
        rate: f64,
    },
    /// A transfer delivered its last byte.
    FlowCompleted {
        /// Completion time (includes the final one-way propagation).
        now: f64,
        /// Flow id.
        flow: u64,
        /// Transfer size, bytes.
        size_bytes: f64,
        /// Flow completion time, seconds.
        fct: f64,
    },
    /// A transfer was still unfinished when the run's horizon expired.
    FlowTimedOut {
        /// The horizon, simulation seconds.
        now: f64,
        /// Flow id.
        flow: u64,
        /// Bytes it never delivered.
        remaining_bytes: f64,
    },
    /// An RM/RA control round is starting.
    CtrlRoundBegin {
        /// Simulation time.
        now: f64,
        /// Monotone round number (the priming round is 0).
        round: u64,
    },
    /// A control round finished.
    CtrlRoundEnd {
        /// Simulation time.
        now: f64,
        /// Round number matching the preceding [`TraceEvent::CtrlRoundBegin`].
        round: u64,
        /// SLA violations detected this round.
        violations: u32,
        /// Node-directions whose allocation moved > 5% — the Δ-reporting
        /// message count for this round.
        changed_dirs: u32,
        /// Wall-clock cost of the round, microseconds.
        duration_us: f64,
    },
    /// Per-level summary of the figure-2 rate propagation: the upward
    /// `R̂` fold and the downward `Ř` floors after one round.
    RatePropagation {
        /// Simulation time.
        now: f64,
        /// Round number.
        round: u64,
        /// Tree level (0 = RMs).
        level: u8,
        /// Best subtree write rate `R̂_d` reaching this level, bytes/s.
        r_hat_down_max: f64,
        /// Best subtree read rate `R̂_u` reaching this level, bytes/s.
        r_hat_up_max: f64,
        /// Worst cumulative write bottleneck `Ř_d` up to this level.
        r_check_down_min: f64,
        /// Worst cumulative read bottleneck `Ř_u` up to this level.
        r_check_up_min: f64,
    },
    /// The NNS placed a request on a block server.
    ServerSelected {
        /// Simulation time.
        now: f64,
        /// The flow being placed.
        flow: u64,
        /// The chosen server (network node id).
        server: u32,
        /// The rate the winner advertised, bytes/s.
        rate: f64,
        /// The top candidates considered, best first (bounded; see
        /// [`MAX_CANDIDATES`]).
        candidates: Vec<Candidate>,
    },
    /// A link exceeded its §IV-A capacity term (`S > α·C − β·Q/d`).
    SlaViolationDetected {
        /// Detection time.
        now: f64,
        /// Tree level of the monitoring node.
        level: u8,
        /// The violated link.
        link: u32,
        /// True for the write (down) direction, false for read (up).
        down: bool,
        /// Offered load on the link, bytes/s.
        demand: f64,
        /// The capacity term it exceeded, bytes/s.
        capacity_term: f64,
    },
}

/// Cap on the candidate set recorded per [`TraceEvent::ServerSelected`],
/// so a 16k-server cloud does not turn every placement into a 16k-entry
/// record.
pub const MAX_CANDIDATES: usize = 8;

/// JSON string fragment for an `f64` (non-finite values become `null`,
/// like serde_json).
fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

macro_rules! jfield {
    ($out:expr, $first:expr, $name:literal, f64 $v:expr) => {{
        sep($out, &mut $first);
        $out.push_str(concat!("\"", $name, "\":"));
        json_f64($out, $v);
    }};
    ($out:expr, $first:expr, $name:literal, int $v:expr) => {{
        sep($out, &mut $first);
        let _ = write!($out, concat!("\"", $name, "\":{}"), $v);
    }};
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

impl TraceEvent {
    /// The variant's `"event"` tag in the JSONL export.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FlowStarted { .. } => "flow_started",
            TraceEvent::FlowRewindowed { .. } => "flow_rewindowed",
            TraceEvent::FlowCompleted { .. } => "flow_completed",
            TraceEvent::FlowTimedOut { .. } => "flow_timed_out",
            TraceEvent::CtrlRoundBegin { .. } => "ctrl_round_begin",
            TraceEvent::CtrlRoundEnd { .. } => "ctrl_round_end",
            TraceEvent::RatePropagation { .. } => "rate_propagation",
            TraceEvent::ServerSelected { .. } => "server_selected",
            TraceEvent::SlaViolationDetected { .. } => "sla_violation",
        }
    }

    /// The event's simulation timestamp.
    pub fn time(&self) -> f64 {
        match self {
            TraceEvent::FlowStarted { now, .. }
            | TraceEvent::FlowRewindowed { now, .. }
            | TraceEvent::FlowCompleted { now, .. }
            | TraceEvent::FlowTimedOut { now, .. }
            | TraceEvent::CtrlRoundBegin { now, .. }
            | TraceEvent::CtrlRoundEnd { now, .. }
            | TraceEvent::RatePropagation { now, .. }
            | TraceEvent::ServerSelected { now, .. }
            | TraceEvent::SlaViolationDetected { now, .. } => *now,
        }
    }

    /// Append the event as one JSON object (no trailing newline).
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        sep(out, &mut first);
        let _ = write!(out, "\"event\":\"{}\"", self.kind());
        match self {
            TraceEvent::FlowStarted {
                now,
                flow,
                src,
                dst,
                size_bytes,
            } => {
                jfield!(out, first, "now", f64 * now);
                jfield!(out, first, "flow", int flow);
                jfield!(out, first, "src", int src);
                jfield!(out, first, "dst", int dst);
                jfield!(out, first, "size_bytes", f64 * size_bytes);
            }
            TraceEvent::FlowRewindowed { now, flow, rate } => {
                jfield!(out, first, "now", f64 * now);
                jfield!(out, first, "flow", int flow);
                jfield!(out, first, "rate", f64 * rate);
            }
            TraceEvent::FlowCompleted {
                now,
                flow,
                size_bytes,
                fct,
            } => {
                jfield!(out, first, "now", f64 * now);
                jfield!(out, first, "flow", int flow);
                jfield!(out, first, "size_bytes", f64 * size_bytes);
                jfield!(out, first, "fct", f64 * fct);
            }
            TraceEvent::FlowTimedOut {
                now,
                flow,
                remaining_bytes,
            } => {
                jfield!(out, first, "now", f64 * now);
                jfield!(out, first, "flow", int flow);
                jfield!(out, first, "remaining_bytes", f64 * remaining_bytes);
            }
            TraceEvent::CtrlRoundBegin { now, round } => {
                jfield!(out, first, "now", f64 * now);
                jfield!(out, first, "round", int round);
            }
            TraceEvent::CtrlRoundEnd {
                now,
                round,
                violations,
                changed_dirs,
                duration_us,
            } => {
                jfield!(out, first, "now", f64 * now);
                jfield!(out, first, "round", int round);
                jfield!(out, first, "violations", int violations);
                jfield!(out, first, "changed_dirs", int changed_dirs);
                jfield!(out, first, "duration_us", f64 * duration_us);
            }
            TraceEvent::RatePropagation {
                now,
                round,
                level,
                r_hat_down_max,
                r_hat_up_max,
                r_check_down_min,
                r_check_up_min,
            } => {
                jfield!(out, first, "now", f64 * now);
                jfield!(out, first, "round", int round);
                jfield!(out, first, "level", int level);
                jfield!(out, first, "r_hat_down_max", f64 * r_hat_down_max);
                jfield!(out, first, "r_hat_up_max", f64 * r_hat_up_max);
                jfield!(out, first, "r_check_down_min", f64 * r_check_down_min);
                jfield!(out, first, "r_check_up_min", f64 * r_check_up_min);
            }
            TraceEvent::ServerSelected {
                now,
                flow,
                server,
                rate,
                candidates,
            } => {
                jfield!(out, first, "now", f64 * now);
                jfield!(out, first, "flow", int flow);
                jfield!(out, first, "server", int server);
                jfield!(out, first, "rate", f64 * rate);
                sep(out, &mut first);
                out.push_str("\"candidates\":[");
                for (i, c) in candidates.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"server\":{},\"rate\":", c.server);
                    json_f64(out, c.rate);
                    out.push('}');
                }
                out.push(']');
            }
            TraceEvent::SlaViolationDetected {
                now,
                level,
                link,
                down,
                demand,
                capacity_term,
            } => {
                jfield!(out, first, "now", f64 * now);
                jfield!(out, first, "level", int level);
                jfield!(out, first, "link", int link);
                jfield!(out, first, "down", int down);
                jfield!(out, first, "demand", f64 * demand);
                jfield!(out, first, "capacity_term", f64 * capacity_term);
            }
        }
        out.push('}');
    }

    /// The event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// Pushing past capacity overwrites the *oldest* event and counts it as
/// dropped — a long run keeps its most recent history instead of growing
/// without bound or losing the interesting tail.
#[derive(Debug)]
pub struct Tracer {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    total: u64,
}

/// Default ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// A tracer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            buf: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
            total: 0,
        }
    }

    /// Record one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events were recorded (or all were evicted — impossible,
    /// eviction replaces).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events ever pushed (held + dropped).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The whole buffer as JSON Lines, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len() * 96);
        for ev in self.iter() {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Stream the buffer as JSON Lines into a writer (e.g. a `--trace`
    /// file).
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut line = String::with_capacity(128);
        for ev in self.iter() {
            line.clear();
            ev.write_json(&mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::FlowStarted {
            now: i as f64,
            flow: i,
            src: 0,
            dst: 1,
            size_bytes: 100.0,
        }
    }

    #[test]
    fn ring_holds_everything_below_capacity() {
        let mut t = Tracer::new(8);
        for i in 0..5 {
            t.push(ev(i));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.dropped(), 0);
        let times: Vec<f64> = t.iter().map(|e| e.time()).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest() {
        let mut t = Tracer::new(4);
        for i in 0..10 {
            t.push(ev(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.total(), 10);
        let times: Vec<f64> = t.iter().map(|e| e.time()).collect();
        assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0], "oldest first, newest kept");
    }

    #[test]
    fn jsonl_lines_are_tagged_and_ordered() {
        let mut t = Tracer::new(16);
        t.push(TraceEvent::CtrlRoundBegin {
            now: 0.05,
            round: 1,
        });
        t.push(TraceEvent::ServerSelected {
            now: 0.06,
            flow: 9,
            server: 3,
            rate: 1.5e6,
            candidates: vec![Candidate {
                server: 3,
                rate: 1.5e6,
            }],
        });
        let out = t.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"ctrl_round_begin\""));
        assert!(lines[1].contains("\"candidates\":[{\"server\":3,\"rate\":1500000}]"));
    }

    #[test]
    fn non_finite_floats_render_null() {
        let e = TraceEvent::FlowRewindowed {
            now: 1.0,
            flow: 2,
            rate: f64::INFINITY,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"flow_rewindowed\",\"now\":1,\"flow\":2,\"rate\":null}"
        );
    }
}
