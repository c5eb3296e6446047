//! The aggregate run report: per-class counts, time-to-mitigation and
//! wake-latency distributions, shed and mitigation causes.
//!
//! Reports **merge** across runs (seeds, ablation cells) with the same
//! discipline as the scda-obs registry: counters add, keyed maps add
//! key-wise, histograms merge bucket-wise — so aggregation is associative
//! and order-independent (pinned by the crate's property tests).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use scda_obs::Histogram;

use crate::{jnum, AuditCore, FlowOutcome};

/// Aggregated audit statistics for one run (or a merge of several).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Flows admitted, keyed by class name.
    pub flows_admitted: BTreeMap<String, u64>,
    /// Flows completed, keyed by class name.
    pub flows_completed: BTreeMap<String, u64>,
    /// Flows shed, keyed by shed-cause name.
    pub shed_causes: BTreeMap<String, u64>,
    /// SLA violations, keyed by the saturated link's dominant class.
    pub violations_by_class: BTreeMap<String, u64>,
    /// Total SLA violations.
    pub violations: u64,
    /// Violations whose episode closed, keyed by mitigation cause.
    pub mitigation_causes: BTreeMap<String, u64>,
    /// Violation time-to-mitigation, seconds.
    pub time_to_mitigation_s: Histogram,
    /// Dormant-server wakeups.
    pub wakeups: u64,
    /// Wakeup latency, seconds.
    pub wake_latency_s: Histogram,
    /// Explicit-rate re-windows across all flows.
    pub rate_updates: u64,
    /// Flow completion times, seconds.
    pub fct_s: Histogram,
}

fn add_key(map: &mut BTreeMap<String, u64>, key: &str, n: u64) {
    *map.entry(key.to_string()).or_insert(0) += n;
}

impl AuditReport {
    /// Build the report from a run's audit core.
    pub fn from_core(core: &AuditCore) -> AuditReport {
        let mut r = AuditReport::default();
        for s in core.spans.values() {
            add_key(&mut r.flows_admitted, s.class.as_str(), 1);
            r.rate_updates += s.rate_updates;
            match s.outcome {
                FlowOutcome::Completed { fct, .. } => {
                    add_key(&mut r.flows_completed, s.class.as_str(), 1);
                    r.fct_s.observe(fct);
                }
                FlowOutcome::Shed { cause, .. } => {
                    add_key(&mut r.shed_causes, cause.as_str(), 1);
                }
                FlowOutcome::Pending => {}
            }
        }
        for v in &core.violations {
            r.violations += 1;
            add_key(
                &mut r.violations_by_class,
                v.rec.attribution.dominant_class.as_str(),
                1,
            );
            if let Some(c) = v.mitigation_cause {
                add_key(&mut r.mitigation_causes, c, 1);
            }
            if let Some(t) = v.time_to_mitigation {
                r.time_to_mitigation_s.observe(t);
            }
        }
        for w in &core.wakeups {
            r.wakeups += 1;
            r.wake_latency_s.observe(w.latency_s);
        }
        r
    }

    /// Fold another report into this one. Counters and keyed counts add;
    /// histograms merge bucket-wise. Associative and commutative, so any
    /// merge tree over per-run reports yields the same aggregate.
    pub fn merge(&mut self, other: &AuditReport) {
        for (k, n) in &other.flows_admitted {
            add_key(&mut self.flows_admitted, k, *n);
        }
        for (k, n) in &other.flows_completed {
            add_key(&mut self.flows_completed, k, *n);
        }
        for (k, n) in &other.shed_causes {
            add_key(&mut self.shed_causes, k, *n);
        }
        for (k, n) in &other.violations_by_class {
            add_key(&mut self.violations_by_class, k, *n);
        }
        self.violations += other.violations;
        for (k, n) in &other.mitigation_causes {
            add_key(&mut self.mitigation_causes, k, *n);
        }
        self.time_to_mitigation_s.merge(&other.time_to_mitigation_s);
        self.wakeups += other.wakeups;
        self.wake_latency_s.merge(&other.wake_latency_s);
        self.rate_updates += other.rate_updates;
        self.fct_s.merge(&other.fct_s);
    }

    /// A human-readable summary table, for run reports.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>10}",
            "class", "admitted", "completed", "violations"
        );
        let mut classes: Vec<&String> = self.flows_admitted.keys().collect();
        for c in self.violations_by_class.keys() {
            if !classes.contains(&c) {
                classes.push(c);
            }
        }
        for class in classes {
            let _ = writeln!(
                out,
                "{class:<28} {:>10} {:>10} {:>10}",
                self.flows_admitted.get(class).copied().unwrap_or(0),
                self.flows_completed.get(class).copied().unwrap_or(0),
                self.violations_by_class.get(class).copied().unwrap_or(0),
            );
        }
        let _ = writeln!(out, "total SLA violations: {}", self.violations);
        if self.time_to_mitigation_s.count() > 0 {
            let _ = writeln!(
                out,
                "time-to-mitigation: n={} mean={:.4}s p50={:.4}s p99={:.4}s max={:.4}s",
                self.time_to_mitigation_s.count(),
                self.time_to_mitigation_s.mean().unwrap_or(0.0),
                self.time_to_mitigation_s.quantile(0.5).unwrap_or(0.0),
                self.time_to_mitigation_s.quantile(0.99).unwrap_or(0.0),
                self.time_to_mitigation_s.max(),
            );
        }
        for (cause, n) in &self.mitigation_causes {
            let _ = writeln!(out, "  mitigated by {cause}: {n}");
        }
        for (cause, n) in &self.shed_causes {
            let _ = writeln!(out, "shed ({cause}): {n}");
        }
        if self.wakeups > 0 {
            let _ = writeln!(
                out,
                "dormant wakeups: {} (mean latency {:.3}s)",
                self.wakeups,
                self.wake_latency_s.mean().unwrap_or(0.0),
            );
        }
        let _ = writeln!(out, "rate re-windows: {}", self.rate_updates);
        out
    }

    /// The report as one JSON object.
    pub fn to_json(&self) -> String {
        fn map_json(m: &BTreeMap<String, u64>) -> String {
            let mut s = String::from("{");
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{k}\":{v}");
            }
            s.push('}');
            s
        }
        fn hist_json(h: &Histogram) -> String {
            format!(
                "{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                h.count(),
                jnum(h.mean().unwrap_or(0.0)),
                jnum(h.quantile(0.5).unwrap_or(0.0)),
                jnum(h.quantile(0.99).unwrap_or(0.0)),
                jnum(h.max()),
            )
        }
        format!(
            "{{\"flows_admitted\":{},\"flows_completed\":{},\"shed_causes\":{},\
             \"violations\":{},\"violations_by_class\":{},\"mitigation_causes\":{},\
             \"time_to_mitigation_s\":{},\"wakeups\":{},\"wake_latency_s\":{},\
             \"rate_updates\":{},\"fct_s\":{}}}",
            map_json(&self.flows_admitted),
            map_json(&self.flows_completed),
            map_json(&self.shed_causes),
            self.violations,
            map_json(&self.violations_by_class),
            map_json(&self.mitigation_causes),
            hist_json(&self.time_to_mitigation_s),
            self.wakeups,
            hist_json(&self.wake_latency_s),
            self.rate_updates,
            hist_json(&self.fct_s),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{Attribution, Audit, AuditClass, ShedCause, ViolationRecord};

    fn sample_audit(seedish: u64) -> Audit {
        let a = Audit::enabled();
        for i in 0..4 {
            a.admitted(i as f64, seedish * 100 + i, AuditClass::Interactive, 1, 1e6);
            a.opened(i as f64 + 0.1, seedish * 100 + i);
        }
        a.completed(5.0, seedish * 100, 5.0);
        a.shed(9.0, seedish * 100 + 1, ShedCause::Horizon, 2e5);
        a.violation(
            ViolationRecord {
                time: 2.0,
                link: 3,
                level: 1,
                down: true,
                demand: 2e8,
                capacity_term: 1e8,
                attribution: Attribution {
                    bottleneck_link: 3,
                    bottleneck_level: 1,
                    dominant_class: AuditClass::Interactive,
                    affected_flows: 2,
                    dormant_wake: false,
                },
            },
            &[seedish * 100],
        );
        a.finalize(10.0);
        a
    }

    #[test]
    fn report_counts_match_events() {
        let r = sample_audit(1).report().unwrap();
        assert_eq!(r.flows_admitted["interactive"], 4);
        assert_eq!(r.flows_completed["interactive"], 1);
        assert_eq!(r.shed_causes["horizon"], 1);
        assert_eq!(r.violations, 1);
        assert_eq!(r.violations_by_class["interactive"], 1);
        assert_eq!(r.time_to_mitigation_s.count(), 1);
        assert_eq!(r.mitigation_causes["unresolved_at_horizon"], 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample_audit(1).report().unwrap();
        let b = sample_audit(2).report().unwrap();
        a.merge(&b);
        assert_eq!(a.flows_admitted["interactive"], 8);
        assert_eq!(a.violations, 2);
        assert_eq!(a.time_to_mitigation_s.count(), 2);
    }

    #[test]
    fn table_and_json_mention_key_fields() {
        let r = sample_audit(1).report().unwrap();
        let t = r.to_table();
        assert!(t.contains("interactive"));
        assert!(t.contains("time-to-mitigation"));
        assert!(t.contains("shed (horizon): 1"));
        let j = r.to_json();
        assert!(j.contains("\"violations\":1"));
        assert!(j.contains("\"time_to_mitigation_s\":{\"count\":1"));
    }
}
