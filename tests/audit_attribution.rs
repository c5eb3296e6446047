//! SLA-audit acceptance: for a seeded figure-7-style run with induced
//! overload, every violation record in the audit JSONL carries a
//! non-empty attribution (a bottleneck link id, a dominant class, the
//! dormancy flag) and a time-to-mitigation value — the episode model
//! closes every violation by mitigation, clearance, or horizon censoring,
//! so nothing exports half-attributed.

use scda_audit::Audit;
use scda_experiments::{run_scda, Scale, ScdaOptions, Scenario};
use serde::Value;

fn str_of(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

#[test]
fn every_violation_is_attributed_with_time_to_mitigation() {
    // Figure-7 video traces with control flows, capacity squeezed to a
    // quarter so the SLA monitor actually fires, mitigation on so
    // episodes close by action as well as by horizon.
    let mut sc = Scenario::video(Scale::Quick, true, 7);
    sc.topo.base_bw_bps *= 0.25;
    let audit = Audit::enabled();
    let opts = ScdaOptions {
        audit: audit.clone(),
        mitigation: true,
        ..Default::default()
    };
    let r = run_scda(&sc, &opts);
    assert!(
        r.sla_violations > 0,
        "overload was not induced — the acceptance check would be vacuous"
    );

    let jsonl = audit.to_jsonl().expect("enabled audit exports JSONL");
    let mut violations = 0usize;
    for line in jsonl.lines() {
        let v: Value = serde_json::from_str(line).expect("every audit line parses as JSON");
        if v.get("record").and_then(str_of) != Some("violation") {
            continue;
        }
        violations += 1;
        let attribution = v
            .get("attribution")
            .unwrap_or_else(|| panic!("violation without attribution: {line}"));
        attribution
            .get("bottleneck_link")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("violation without bottleneck link: {line}"));
        let class = attribution
            .get("dominant_class")
            .and_then(str_of)
            .unwrap_or_else(|| panic!("violation without dominant class: {line}"));
        assert!(!class.is_empty(), "empty dominant class: {line}");
        v.get("time_to_mitigation")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("violation without time-to-mitigation: {line}"));
        let cause = v
            .get("mitigation_cause")
            .and_then(str_of)
            .unwrap_or_else(|| panic!("violation without mitigation cause: {line}"));
        assert!(!cause.is_empty(), "empty mitigation cause: {line}");
    }
    assert_eq!(
        violations, r.sla_violations,
        "audit JSONL and the run result disagree on the violation count"
    );

    // The aggregate report closes the loop: every violation contributed a
    // time-to-mitigation observation.
    let report = audit.report().expect("enabled audit reports");
    assert_eq!(report.violations as usize, r.sla_violations);
    assert_eq!(report.time_to_mitigation_s.count() as usize, violations);
}
