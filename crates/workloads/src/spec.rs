//! Workload representation: a time-ordered list of flow requests.

use serde::{Deserialize, Serialize};

/// What kind of request a flow is (drives content classification and the
//  paper's with/without-control-flow experiment split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowKind {
    /// HTTP control exchange before a video plays (< 5 KB by the paper's
    /// trace classification).
    Control,
    /// A YouTube-style video transfer.
    Video,
    /// A general datacenter flow (Benson/VL2-style mice & elephants).
    Datacenter,
    /// Synthetic Pareto-sized flow (§X-B).
    Synthetic,
    /// A message in an interactive (HWHR) session — chat/collaboration
    /// traffic from the `interactive` generator.
    Interactive,
}

/// Whether the client uploads to or downloads from the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowDirection {
    /// Client → block server (external write, figure 3).
    Write,
    /// Block server → client (external read, figure 5).
    Read,
}

/// One requested transfer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Arrival (request) time in seconds.
    pub arrival: f64,
    /// Content size in bytes.
    pub size_bytes: f64,
    /// Request kind.
    pub kind: FlowKind,
    /// Upload or download.
    pub direction: FlowDirection,
    /// Index of the requesting client (mapped onto topology clients
    /// modulo the client count).
    pub client: usize,
}

/// A complete workload: flows sorted by arrival time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Workload {
    /// The flows, non-decreasing in `arrival`.
    pub flows: Vec<FlowSpec>,
}

impl Workload {
    /// Wrap and sort a flow list.
    pub fn new(mut flows: Vec<FlowSpec>) -> Self {
        flows.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        Workload { flows }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Total requested bytes.
    pub fn total_bytes(&self) -> f64 {
        self.flows.iter().map(|f| f.size_bytes).sum()
    }

    /// Merge two workloads (re-sorting by arrival).
    pub fn merged(mut self, other: Workload) -> Workload {
        self.flows.extend(other.flows);
        Workload::new(self.flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(t: f64, kind: FlowKind) -> FlowSpec {
        FlowSpec {
            arrival: t,
            size_bytes: 100.0,
            kind,
            direction: FlowDirection::Write,
            client: 0,
        }
    }

    #[test]
    fn new_sorts_by_arrival() {
        let w = Workload::new(vec![f(3.0, FlowKind::Video), f(1.0, FlowKind::Control)]);
        assert_eq!(w.flows[0].arrival, 1.0);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn merged_interleaves() {
        let a = Workload::new(vec![f(1.0, FlowKind::Video), f(5.0, FlowKind::Video)]);
        let b = Workload::new(vec![f(3.0, FlowKind::Control)]);
        let m = a.merged(b);
        let times: Vec<f64> = m.flows.iter().map(|x| x.arrival).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn total_bytes_sums() {
        let w = Workload::new(vec![f(1.0, FlowKind::Video), f(2.0, FlowKind::Video)]);
        assert_eq!(w.total_bytes(), 200.0);
    }
}
