//! Per-phase wall-clock profiling: cheap accumulating timers keyed by
//! [`Phase`], reported as a table sorted by total cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::Phase;

/// Accumulated cost of one named phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Times the phase ran.
    pub calls: u64,
    /// Total wall-clock seconds across all calls.
    pub total_s: f64,
}

impl PhaseStat {
    /// Mean cost per call in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            1e6 * self.total_s / self.calls as f64
        }
    }
}

/// Accumulates [`PhaseStat`]s by phase name.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    phases: BTreeMap<&'static str, PhaseStat>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Charge `elapsed` to `phase` (one call).
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        let s = self.phases.entry(phase.name()).or_default();
        s.calls += 1;
        s.total_s += elapsed.as_secs_f64();
    }

    /// Snapshot the accumulated stats as a report.
    pub fn report(&self) -> ProfileReport {
        let mut phases: Vec<(String, PhaseStat)> = self
            .phases
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        phases.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s));
        ProfileReport { phases }
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

/// A finished profile: phases sorted by total wall-clock cost.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// `(phase name, accumulated stat)`, most expensive first.
    pub phases: Vec<(String, PhaseStat)>,
}

impl ProfileReport {
    /// Total seconds across all phases.
    pub fn total_s(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s.total_s).sum()
    }

    /// Look up one phase.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The run-report table: phase, calls, total, mean, share.
    pub fn to_table(&self) -> String {
        let total = self.total_s().max(1e-12);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12} {:>12} {:>7}",
            "phase", "calls", "total (s)", "mean (us)", "share"
        );
        for (name, s) in &self.phases {
            let _ = writeln!(
                out,
                "{name:<28} {:>10} {:>12.4} {:>12.2} {:>6.1}%",
                s.calls,
                s.total_s,
                s.mean_us(),
                100.0 * s.total_s / total,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase;

    #[test]
    fn phases_accumulate_and_sort_by_cost() {
        let mut p = Profiler::new();
        p.add(phase::OPEN, Duration::from_millis(1));
        p.add(phase::TICK, Duration::from_millis(30));
        p.add(phase::OPEN, Duration::from_millis(2));
        let r = p.report();
        assert_eq!(r.phases[0].0, "kernel.tick", "most expensive first");
        let open = r.phase("kernel.open").unwrap();
        assert_eq!(open.calls, 2);
        assert!((open.total_s - 0.003).abs() < 1e-6);
        assert!((open.mean_us() - 1500.0).abs() < 1.0);
        assert!(r.to_table().contains("kernel.tick"));
    }
}
