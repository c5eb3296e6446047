//! Fixture tests: every lint has at least one snippet proving it fires,
//! one proving clean code passes, and one proving an inline
//! `allow(<lint>, reason)` suppresses it — plus driver-level tests for
//! the allow-hygiene findings themselves.

use scda_analyze::graph::Workspace;
use scda_analyze::lints::{
    doc_units::DocUnits, float_eq::NoFloatEq, hot_transitive::HotPathTransitiveAlloc,
    phase_names::PhaseNameCanonical, unwrap_hot::NoUnwrapHotPath, Lint,
};
use scda_analyze::{run_lints, Finding, Report, SourceFile, ALLOW_HYGIENE};

/// Run one lint over one snippet under a pretend path.
fn check(lint: &dyn Lint, path: &str, src: &str) -> Vec<Finding> {
    let file = SourceFile::parse(path, src);
    let mut out = Vec::new();
    lint.check(&file, &mut out);
    out
}

/// Run the full driver (suppressions applied) for one lint.
fn drive(lint_box: Box<dyn Lint>, path: &str, src: &str) -> Report {
    run_lints(&[SourceFile::parse(path, src)], &[lint_box])
}

/// Parse a pretend multi-file workspace, build its call graph, construct
/// one interprocedural lint over it, and run the driver.
fn drive_ws(
    sources: &[(&str, &str)],
    mk: impl FnOnce(&Workspace, &[SourceFile]) -> Box<dyn Lint>,
) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|&(p, s)| SourceFile::parse(p, s))
        .collect();
    let ws = Workspace::build(&files);
    let lint = mk(&ws, &files);
    run_lints(&files, &[lint])
}

const SIM_PATH: &str = "crates/core/src/fixture.rs";
const HOT_PATH: &str = "crates/core/src/tree.rs";

// ---------------------------------------------------------------- no-float-eq

#[test]
fn float_eq_fires_on_literal_and_const_comparisons() {
    let src = "
fn f(n: f64) -> bool {
    let a = n == 0.0;
    let b = 1e-9 != n;
    let c = n == f64::INFINITY;
    let d = f64::NAN == n;
    a || b || c || d
}
";
    let found = check(&NoFloatEq, SIM_PATH, src);
    assert_eq!(found.len(), 4, "{found:?}");
}

#[test]
fn float_eq_ignores_int_comparisons_orderings_and_tests() {
    let clean = "
fn f(n: usize, x: f64) -> bool { n == 0 || x > 0.0 || x.total_cmp(&0.0).is_eq() }
#[cfg(test)]
mod tests {
    fn t(x: f64) { assert!(x == 0.5); }
}
";
    assert!(check(&NoFloatEq, SIM_PATH, clean).is_empty());
    // Whole test files are exempt.
    assert!(check(&NoFloatEq, "tests/end_to_end.rs", "let b = x == 0.0;").is_empty());
}

#[test]
fn float_eq_allow_suppresses() {
    let src = "let exact = x == 1.0; // scda-analyze: allow(no-float-eq, sentinel set by us two lines up)\n";
    let report = drive(Box::new(NoFloatEq), SIM_PATH, src);
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 1);
}

// ------------------------------------------------------- no-unwrap-hot-path

#[test]
fn unwrap_hot_fires_on_unwrap_and_weak_expect() {
    let src = "
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect(\"something went wrong\");
    let c = x.expect(msg);
    a + b + c
}
";
    let found = check(&NoUnwrapHotPath, HOT_PATH, src);
    assert_eq!(found.len(), 3, "{found:?}");
    assert_eq!(found[0].line, 3);
}

#[test]
fn unwrap_hot_accepts_invariant_expects_and_unwrap_or() {
    let clean = "
fn f(x: Option<u32>) -> u32 {
    x.expect(\"invariant: constructed non-empty\") + x.unwrap_or(0) + x.unwrap_or_default()
}
";
    assert!(check(&NoUnwrapHotPath, HOT_PATH, clean).is_empty());
}

#[test]
fn unwrap_hot_only_applies_to_hot_path_files() {
    let dirty = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(check(&NoUnwrapHotPath, "crates/workloads/src/spec.rs", dirty).is_empty());
    assert!(!check(&NoUnwrapHotPath, "crates/transport/src/flow.rs", dirty).is_empty());
    // Test modules inside a hot file are fine.
    let in_tests = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
    assert!(check(&NoUnwrapHotPath, HOT_PATH, in_tests).is_empty());
}

#[test]
fn unwrap_hot_allow_suppresses() {
    let src = "
// scda-analyze: allow(no-unwrap-hot-path, documented constructor panic; not per-τ)
params.validate().expect(\"invalid params\");
";
    let report = drive(Box::new(NoUnwrapHotPath), HOT_PATH, src);
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ---------------------------------------------------- phase-name-canonical

fn phase_lint() -> PhaseNameCanonical {
    PhaseNameCanonical::new(vec!["kernel.tick".into(), "engine.drain".into()])
}

#[test]
fn phase_names_fire_on_unknown_literals() {
    let src =
        "fn f(obs: &Obs) { obs.phase_add(\"kernel.tck\", d); obs.time_phase(\"bogus\", || ()); }\n";
    let found = check(&phase_lint(), SIM_PATH, src);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].message.contains("kernel.tck"));
}

#[test]
fn phase_names_accept_canonical_literals_and_constants() {
    let src = "
fn f(obs: &Obs) {
    obs.phase_add(\"kernel.tick\", d);
    obs.phase_add(phase::TICK, d);
    obs.time_phase(scda_obs::phase::ENGINE_DRAIN, || ());
}
";
    assert!(check(&phase_lint(), SIM_PATH, src).is_empty());
}

#[test]
fn phase_names_allow_suppresses() {
    let src = "obs.phase_add(\"experimental.stage\", d); // scda-analyze: allow(phase-name-canonical, one-off probe in a local branch)\n";
    let report = drive(Box::new(phase_lint()), SIM_PATH, src);
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 1);
}

#[test]
fn phase_names_harvested_from_obs_source() {
    let obs_src = "
pub mod phase {
    /// Tick.
    pub const TICK: &str = \"kernel.tick\";
    pub const DRAIN: &str = \"engine.drain\";
}
";
    let files = [
        SourceFile::parse("crates/obs/src/lib.rs", obs_src),
        SourceFile::parse(SIM_PATH, "fn f() { obs.phase_add(\"kernel.tick\", d); }"),
    ];
    let names = scda_analyze::lints::phase_names::harvest_canonical(&files);
    assert_eq!(names, ["kernel.tick", "engine.drain"]);
}

// ----------------------------------------------------------------- doc-units

#[test]
fn doc_units_fires_on_undocumented_multi_f64_fn() {
    let src = "
/// Advance the model.
pub fn advance(&mut self, offered: f64, cap: f64) -> f64 { offered.min(cap) }
";
    let found = check(&DocUnits, SIM_PATH, src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].message.contains("advance"));
}

#[test]
fn doc_units_fires_on_missing_doc_entirely() {
    let src = "pub fn f(a: f64, b: f64) -> f64 { a + b }\n";
    assert_eq!(check(&DocUnits, SIM_PATH, src).len(), 1);
}

#[test]
fn doc_units_accepts_documented_units_and_single_f64() {
    let src = "
/// Advance by `dt` seconds at `offered` bytes/s.
pub fn advance(&mut self, offered: f64, dt: f64) {}

/// One raw f64 is unambiguous enough.
pub fn scale(&mut self, factor: f64) {}

/// Wrapped floats don't count as raw.
pub fn wrapped(&mut self, a: Option<f64>, b: f64) {}

fn private(a: f64, b: f64) {}
";
    assert!(check(&DocUnits, SIM_PATH, src).is_empty());
}

#[test]
fn doc_units_out_of_scope_crates_and_tests_pass() {
    let dirty = "pub fn f(a: f64, b: f64) {}\n";
    assert!(check(&DocUnits, "crates/experiments/src/x.rs", dirty).is_empty());
    assert!(check(&DocUnits, "crates/core/examples/x.rs", dirty).is_empty());
}

#[test]
fn doc_units_handles_attributes_and_generics() {
    let src = "
/// Clamp `lo`/`hi`, both in bytes.
#[inline]
#[must_use]
pub fn clamp<T: Into<f64>>(&self, lo: f64, hi: f64) -> f64 { lo.max(hi) }
";
    assert!(check(&DocUnits, SIM_PATH, src).is_empty());
    // The attribute must not detach the (unit-free) doc either.
    let bad = "
/// No mention of measures here.
#[inline]
pub fn clamp(&self, lo: f64, hi: f64) -> f64 { lo.max(hi) }
";
    assert_eq!(check(&DocUnits, SIM_PATH, bad).len(), 1);
}

#[test]
fn doc_units_allow_suppresses() {
    let src = "
// scda-analyze: allow(doc-units, dimensionless tuning knobs; documented on the struct)
pub fn tune(&mut self, alpha: f64, beta: f64) {}
";
    let report = drive(Box::new(DocUnits), SIM_PATH, src);
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ------------------------------------------------------------ allow hygiene

#[test]
fn allow_without_reason_is_a_finding() {
    let src = "
// scda-analyze: allow(no-float-eq, )
let b = x == 0.0;
";
    let report = drive(Box::new(NoFloatEq), SIM_PATH, src);
    // The float-eq finding stays AND the empty reason is flagged.
    let lints: Vec<&str> = report.findings.iter().map(|f| f.lint).collect();
    assert!(lints.contains(&"no-float-eq"), "{:?}", report.findings);
    assert!(lints.contains(&ALLOW_HYGIENE), "{:?}", report.findings);
}

#[test]
fn unused_and_unknown_allows_are_findings() {
    let src = "
// scda-analyze: allow(no-float-eq, nothing here actually fires)
let x = 1;
// scda-analyze: allow(not-a-lint, whatever)
";
    let report = drive(Box::new(NoFloatEq), SIM_PATH, src);
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.lint == ALLOW_HYGIENE));
    assert!(report.findings.iter().any(|f| f.message.contains("unused")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("unknown lint")));
}

#[test]
fn malformed_annotation_is_a_finding() {
    let src = "// scda-analyze: allo(no-float-eq, typo)\n";
    let report = drive(Box::new(NoFloatEq), SIM_PATH, src);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].lint, ALLOW_HYGIENE);
    assert!(report.findings[0].message.contains("unparsable"));
}

#[test]
fn allow_on_preceding_line_covers_the_next_line_only() {
    let src = "
// scda-analyze: allow(no-float-eq, covers the next line)
let a = x == 0.0;
let b = x == 0.0;
";
    let report = drive(Box::new(NoFloatEq), SIM_PATH, src);
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].line, 4);
}

// ----------------------------------------------- hot-path-transitive-alloc

/// The canonical phase set the hot-path fixtures assume.
fn hot_phases() -> Vec<String> {
    vec!["kernel.control".to_string(), "engine.drain".to_string()]
}

fn hot_lint(sources: &[(&str, &str)]) -> Report {
    drive_ws(sources, |ws, files| {
        Box::new(HotPathTransitiveAlloc::new(ws, files, &hot_phases()))
    })
}

#[test]
fn hot_transitive_fires_on_direct_allocs_in_tagged_fn() {
    let src = "
// scda-analyze: hot(kernel.control)
fn round(xs: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect();
    let copy = doubled.to_vec();
    let turbo = xs.iter().collect::<Vec<_>>();
    out.extend(copy);
    out.extend(turbo.into_iter().copied());
    out
}
";
    let report = hot_lint(&[(HOT_PATH, src)]);
    let findings = &report.findings;
    assert!(findings.iter().any(|f| f.message.contains("Vec::new")));
    assert!(findings.iter().any(|f| f.message.contains("to_vec")));
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.message.contains("collect"))
            .count(),
        2,
        "both plain and turbofish collect: {findings:?}"
    );
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.message.contains("growth"))
            .count(),
        2,
        "both extends into the local (not an out-param): {findings:?}"
    );
}

#[test]
fn hot_transitive_reaches_through_helpers_with_a_witness_chain() {
    // The allocation is two call hops below the tag — the predecessor
    // intra-fn lint could not see it.
    let helper = "
pub fn outer(n: usize) -> f64 { inner(n) }
fn inner(n: usize) -> f64 {
    let v: Vec<f64> = Vec::with_capacity(n);
    v.len() as f64
}
";
    let hot = "
// scda-analyze: hot(kernel.control)
fn round() -> f64 { outer(4) }
";
    let report = hot_lint(&[(HOT_PATH, hot), ("crates/metrics/src/helper.rs", helper)]);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.file, "crates/metrics/src/helper.rs");
    assert!(f.message.contains("kernel.control"), "{}", f.message);
    assert!(
        f.message.contains("round → outer → inner"),
        "witness chain: {}",
        f.message
    );
}

#[test]
fn hot_transitive_exempts_growth_into_out_params() {
    // Pushing into a `&mut` out-parameter IS the caller-held-buffer
    // pattern the lint's fix-it recommends, one field projection deep.
    let src = "
// scda-analyze: hot(engine.drain)
fn drain(buf: &mut Vec<u32>, rep: &mut Report) {
    buf.clear();
    buf.push(1);
    buf.extend_from_slice(&[2, 3]);
    rep.flows.push(4);
}
fn cold_after(xs: &[u32]) -> Vec<u32> { xs.to_vec() }
";
    let report = hot_lint(&[(HOT_PATH, src)]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn hot_transitive_allow_suppresses_with_reason() {
    let src = "
// scda-analyze: hot(kernel.control)
fn round() -> Vec<u32> {
    // scda-analyze: allow(hot-path-transitive-alloc, the result Vec is handed to the caller)
    let out = Vec::new();
    out
}
";
    let report = hot_lint(&[(HOT_PATH, src)]);
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn hot_transitive_rejects_unknown_phase() {
    let src = "
// scda-analyze: hot(kernel.made-up)
fn round() {}
";
    let report = hot_lint(&[(HOT_PATH, src)]);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.findings[0].message.contains("kernel.made-up"));
    // With no harvested set (obs crate absent), validation is skipped.
    let report = drive_ws(&[(HOT_PATH, src)], |ws, files| {
        Box::new(HotPathTransitiveAlloc::new(ws, files, &[]))
    });
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn hot_transitive_flags_a_dangling_tag() {
    let src = "
// scda-analyze: hot(kernel.control)
const X: u32 = 1;
";
    let report = hot_lint(&[(HOT_PATH, src)]);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.findings[0]
        .message
        .contains("not followed by a function"));
}

#[test]
fn hot_transitive_exempts_test_code() {
    let src = "
// scda-analyze: hot(kernel.control)
fn helper() -> Vec<u32> { Vec::new() }
";
    let report = hot_lint(&[("crates/core/tests/fixture.rs", src)]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn malformed_hot_tag_is_a_finding() {
    // Empty phase, and a phase with a stray comma, both fail to parse.
    let src = "
// scda-analyze: hot()
fn a() {}
// scda-analyze: hot(kernel.control, extra)
fn b() {}
";
    let report = hot_lint(&[(HOT_PATH, src)]);
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .all(|f| f.lint == ALLOW_HYGIENE && f.message.contains("unparsable")));
}

// ------------------------------------------------------- unit-dimension

fn units(sources: &[(&str, &str)]) -> Report {
    drive_ws(sources, |ws, files| {
        Box::new(scda_analyze::lints::unit_dimension::UnitDimension::new(
            ws, files,
        ))
    })
}

#[test]
fn unit_dimension_fires_on_seconds_into_bytes_per_sec() {
    let src = "
/// Advance by `dt` seconds.
pub fn advance(dt: f64) { push_rate(dt); }
/// Record `rate` in bytes/s.
pub fn push_rate(rate: f64) {}
";
    let report = units(&[(SIM_PATH, src)]);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert!(f.message.contains("seconds"), "{}", f.message);
    assert!(f.message.contains("bytes/s"), "{}", f.message);
    assert!(f.message.contains("push_rate"), "{}", f.message);
}

#[test]
fn unit_dimension_accepts_agreement_and_synonyms() {
    let src = "
/// Advance by `dt` seconds at `rate` bytes per second.
pub fn advance(dt: f64, rate: f64) { record(rate); wait(dt); }
/// Record `r` in bytes/s.
pub fn record(r: f64) {}
/// Sleep `secs` seconds.
pub fn wait(secs: f64) {}
";
    let report = units(&[(SIM_PATH, src)]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn unit_dimension_stays_silent_without_documented_units() {
    // Undocumented params (doc-units' job) produce no dimension verdict.
    let src = "
/// Advance the model.
pub fn advance(dt: f64) { helper(dt); }
pub fn helper(x: f64) {}
";
    let report = units(&[(SIM_PATH, src)]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn unit_dimension_unit_word_window_stops_at_next_identifier() {
    // \"bytes\" belongs to `size`, not to `start` — the window must not
    // leak across the next backticked mention.
    let src = "
/// Start at `start` with `size` bytes.
pub fn begin(start: f64, size: f64) { at(start); }
/// Schedule at `t` seconds.
pub fn at(t: f64) {}
";
    let report = units(&[(SIM_PATH, src)]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn unit_dimension_allow_suppresses() {
    let src = "
/// Advance by `dt` seconds.
pub fn advance(dt: f64) {
    // scda-analyze: allow(unit-dimension, dt is re-interpreted as a byte budget by design here)
    push_rate(dt);
}
/// Record `rate` in bytes/s.
pub fn push_rate(rate: f64) {}
";
    let report = units(&[(SIM_PATH, src)]);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}
