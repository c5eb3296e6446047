//! Property tests for the audit aggregation: merging per-run
//! [`AuditReport`]s must be a true monoid action (associative and
//! order-independent, like the scda-obs histogram merge it builds on), so
//! multi-seed and multi-group runs can fold their audits in any order.
//! Plus a golden test pinning the JSON Lines export schema for a small
//! deterministic event sequence — consumers parse these lines.

use proptest::prelude::*;

use scda_audit::{
    Attribution, Audit, AuditClass, AuditReport, ShedCause, ViolationRecord,
    MITIGATION_ADD_BANDWIDTH,
};

fn class_of(k: u8) -> AuditClass {
    match k % 4 {
        0 => AuditClass::Interactive,
        1 => AuditClass::SemiInteractiveRead,
        2 => AuditClass::SemiInteractiveWrite,
        _ => AuditClass::Passive,
    }
}

fn violation_at(time: f64, link: u32, class: AuditClass, affected: u32) -> ViolationRecord {
    ViolationRecord {
        time,
        link,
        level: (link % 3) as u8,
        down: link.is_multiple_of(2),
        demand: 2e8 + link as f64,
        capacity_term: 1e8,
        attribution: Attribution {
            bottleneck_link: link,
            bottleneck_level: (link % 3) as u8,
            dominant_class: class,
            affected_flows: affected,
            dormant_wake: link.is_multiple_of(5),
        },
    }
}

/// Drive one audit from a generated event script and report it. Each
/// `kinds[i]` decides flow `i`'s class and fate; every fifth flow also
/// raises a violation on a small link set, half of which get mitigated.
fn report_of(kinds: &[u8]) -> AuditReport {
    let a = Audit::enabled();
    for (i, &k) in kinds.iter().enumerate() {
        let id = i as u64;
        let t = i as f64 * 0.01;
        a.admitted(t, id, class_of(k), (k % 7) as u32, 1e6 + k as f64);
        if k % 8 != 7 {
            a.opened(t + 0.001, id);
            a.rate_update(id);
        }
        match k % 5 {
            0 => a.completed(t + 1.0, id, 1.0 + k as f64 * 0.1),
            1 => a.shed(t + 2.0, id, ShedCause::Horizon, 5e5),
            2 => {
                let link = (k % 3) as u32;
                a.violation(violation_at(t, link, class_of(k), 1), &[id]);
                if k % 2 == 0 {
                    a.mitigation(t + 0.5, link, MITIGATION_ADD_BANDWIDTH);
                }
            }
            3 => a.wakeup(t, (k % 7) as u32, 0.25),
            _ => a.shed(t + 1.5, id, ShedCause::NeverOpened, 1e6),
        }
    }
    a.finalize(kinds.len() as f64);
    a.report().expect("enabled audit always reports")
}

/// Histograms equal in everything discrete; float sums only to rounding
/// (f64 addition is commutative but not exactly associative — same
/// tolerance discipline as the scda-obs histogram proptest).
fn hists_equivalent(a: &scda_obs::Histogram, b: &scda_obs::Histogram) -> bool {
    a.count() == b.count()
        && a.buckets() == b.buckets()
        && (a.count() == 0 || (a.min() == b.min() && a.max() == b.max()))
        && (a.sum() - b.sum()).abs() <= 1e-6 * a.sum().abs().max(1.0)
}

/// Report equality: every discrete field exact, histograms equivalent.
fn reports_equivalent(a: &AuditReport, b: &AuditReport) -> bool {
    a.flows_admitted == b.flows_admitted
        && a.flows_completed == b.flows_completed
        && a.shed_causes == b.shed_causes
        && a.violations_by_class == b.violations_by_class
        && a.violations == b.violations
        && a.mitigation_causes == b.mitigation_causes
        && a.wakeups == b.wakeups
        && a.rate_updates == b.rate_updates
        && hists_equivalent(&a.time_to_mitigation_s, &b.time_to_mitigation_s)
        && hists_equivalent(&a.wake_latency_s, &b.wake_latency_s)
        && hists_equivalent(&a.fct_s, &b.fct_s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(a, merge(b, c)) == merge(merge(a, b), c), field for field.
    #[test]
    fn report_merge_is_associative(
        a in proptest::collection::vec(0u8..=255, 0..40),
        b in proptest::collection::vec(0u8..=255, 0..40),
        c in proptest::collection::vec(0u8..=255, 0..40),
    ) {
        let (ra, rb, rc) = (report_of(&a), report_of(&b), report_of(&c));

        let mut left = ra.clone();
        left.merge(&rb);
        left.merge(&rc);

        let mut bc = rb.clone();
        bc.merge(&rc);
        let mut right = ra.clone();
        right.merge(&bc);

        prop_assert!(reports_equivalent(&left, &right), "{left:?}\n!=\n{right:?}");
    }

    /// Folding the same per-run reports in any order gives one aggregate.
    #[test]
    fn report_merge_is_order_independent(
        runs in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..25), 1..6),
    ) {
        let reports: Vec<AuditReport> = runs.iter().map(|r| report_of(r)).collect();

        let mut forward = AuditReport::default();
        for r in &reports {
            forward.merge(r);
        }
        let mut backward = AuditReport::default();
        for r in reports.iter().rev() {
            backward.merge(r);
        }
        prop_assert!(
            reports_equivalent(&forward, &backward),
            "{forward:?}\n!=\n{backward:?}"
        );
    }

    /// Merging an empty report is the identity.
    #[test]
    fn empty_report_is_identity(
        a in proptest::collection::vec(0u8..=255, 0..40),
    ) {
        let ra = report_of(&a);
        let mut merged = ra.clone();
        merged.merge(&AuditReport::default());
        prop_assert_eq!(&merged, &ra);
        let mut other = AuditReport::default();
        other.merge(&ra);
        prop_assert_eq!(&other, &ra);
    }
}

/// Golden test: the JSONL export for one small deterministic run, line by
/// line. This is the external schema (`record` discriminators and field
/// names) the CI audit check and any downstream tooling parse — change it
/// deliberately, updating this pin and DESIGN.md together.
#[test]
fn jsonl_schema_is_pinned() {
    let a = Audit::enabled();
    a.admitted(0.5, 7, AuditClass::Interactive, 3, 1e6);
    a.opened(0.6, 7);
    a.rate_update(7);
    a.admitted(0.7, 8, AuditClass::SemiInteractiveRead, 4, 2e6);
    a.violation(violation_at(1.0, 2, AuditClass::Interactive, 1), &[7]);
    a.mitigation(1.5, 2, MITIGATION_ADD_BANDWIDTH);
    a.wakeup(2.0, 9, 0.25);
    a.completed(3.0, 7, 2.4);
    a.shed(4.0, 8, ShedCause::NeverOpened, 2e6);
    a.finalize(5.0);

    let jsonl = a.to_jsonl().expect("enabled audit exports");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(
        lines[..lines.len() - 1],
        [
            "{\"record\":\"flow\",\"flow\":7,\"class\":\"interactive\",\"server\":3,\
             \"admitted\":0.5,\"opened\":0.6,\"size_bytes\":1000000,\"rate_updates\":1,\
             \"violations_hit\":1,\"outcome\":\"completed\",\"finish\":3,\"fct\":2.4}",
            "{\"record\":\"flow\",\"flow\":8,\"class\":\"semi_interactive_read\",\"server\":4,\
             \"admitted\":0.7,\"opened\":null,\"size_bytes\":2000000,\"rate_updates\":0,\
             \"violations_hit\":0,\"outcome\":\"shed\",\"cause\":\"never_opened\",\
             \"remaining_bytes\":2000000}",
            "{\"record\":\"violation\",\"time\":1,\"link\":2,\"level\":2,\
             \"direction\":\"down\",\"demand\":200000002,\"capacity_term\":100000000,\
             \"attribution\":{\"bottleneck_link\":2,\"bottleneck_level\":2,\
             \"dominant_class\":\"interactive\",\"affected_flows\":1,\"dormant_wake\":false},\
             \"mitigation_cause\":\"add_bandwidth\",\"time_to_mitigation\":0.5}",
            "{\"record\":\"episode\",\"link\":2,\"opened\":1,\"closed\":1.5,\
             \"violations\":1,\"cause\":\"add_bandwidth\"}",
            "{\"record\":\"wakeup\",\"time\":2,\"server\":9,\"latency_s\":0.25}",
        ],
        "span / violation / episode / wakeup lines changed shape"
    );
    let last = lines.last().expect("report line present");
    assert!(
        last.starts_with("{\"record\":\"report\",\"report\":{"),
        "final line is the aggregate report: {last}"
    );
    assert!(last.contains("\"violations\":1"));
    assert!(last.contains("\"time_to_mitigation_s\":{\"count\":1"));
}
