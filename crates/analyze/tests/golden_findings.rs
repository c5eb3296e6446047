//! Golden snapshot over the lint fixture corpus.
//!
//! Every file in `tests/fixtures/lints/` opens with a
//! `//@path crates/<crate>/src/<file>.rs` directive naming the pretend
//! workspace path it is parsed under — crate scoping is what drives the
//! interprocedural lints (unit-documented crates, phase harvesting). The
//! directive line stays in the parsed source so finding line numbers
//! match the file on disk.
//!
//! Contract: `*_pos.rs` fixtures trip exactly their lint, `*_neg.rs`
//! fixtures stay silent, support fixtures stay silent, and the full
//! rendered report matches `tests/fixtures/golden_findings.txt` byte
//! for byte. Regenerate deliberately (then re-read the diff) with:
//!
//! ```text
//! SCDA_UPDATE_GOLDENS=1 cargo test -p scda-analyze --test golden_findings
//! ```

use std::fs;
use std::path::PathBuf;

use scda_analyze::{run_lints, stock_lints, Report, SourceFile};

/// Lint exercised by each fixture stem prefix.
const LINT_OF_PREFIX: &[(&str, &str)] = &[
    ("hot_alloc", "hot-path-transitive-alloc"),
    ("unit_dim", "unit-dimension"),
];

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// `(stem, pretend workspace path, source)` for every lint fixture, in
/// filename order (stable across platforms).
fn load_fixtures() -> Vec<(String, String, String)> {
    let dir = fixtures_dir().join("lints");
    let mut names: Vec<String> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "lint fixture corpus is empty");
    names
        .into_iter()
        .map(|n| {
            let src = fs::read_to_string(dir.join(&n)).unwrap();
            let pretend = src
                .lines()
                .next()
                .and_then(|l| l.strip_prefix("//@path "))
                .unwrap_or_else(|| {
                    panic!("{n}: first line must be `//@path crates/<crate>/src/<file>.rs`")
                })
                .trim()
                .to_string();
            (n.trim_end_matches(".rs").to_string(), pretend, src)
        })
        .collect()
}

/// Parse the corpus under its pretend paths and run the stock lints.
fn run() -> (Vec<(String, String)>, Report) {
    let fixtures = load_fixtures();
    let files: Vec<SourceFile> = fixtures
        .iter()
        .map(|(_, pretend, src)| SourceFile::parse(pretend.clone(), src))
        .collect();
    let lints = stock_lints(&files);
    let report = run_lints(&files, &lints);
    let names = fixtures.into_iter().map(|(s, p, _)| (s, p)).collect();
    (names, report)
}

#[test]
fn golden_snapshot() {
    let (_, report) = run();
    let mut rendered = String::new();
    for f in &report.findings {
        rendered.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.lint, f.message
        ));
    }
    rendered.push_str(&format!("suppressed: {}\n", report.suppressed));

    let golden_path = fixtures_dir().join("golden_findings.txt");
    if std::env::var_os("SCDA_UPDATE_GOLDENS").is_some() {
        fs::write(&golden_path, &rendered).unwrap();
        return;
    }
    let golden = fs::read_to_string(&golden_path).unwrap_or_default();
    assert_eq!(
        rendered, golden,
        "fixture findings drifted from tests/fixtures/golden_findings.txt — \
         if the change is intentional, regenerate with SCDA_UPDATE_GOLDENS=1 \
         and review the diff"
    );
}

#[test]
fn positives_fire_and_negatives_stay_silent() {
    let (fixtures, report) = run();
    for (stem, pretend) in &fixtures {
        let Some(&(_, lint)) = LINT_OF_PREFIX.iter().find(|(p, _)| stem.starts_with(p)) else {
            continue;
        };
        if stem.ends_with("_pos") {
            assert!(
                report
                    .findings
                    .iter()
                    .any(|f| &f.file == pretend && f.lint == lint),
                "positive fixture {stem} did not trip {lint}"
            );
            assert!(
                report
                    .findings
                    .iter()
                    .all(|f| &f.file != pretend || f.lint == lint),
                "positive fixture {stem} tripped a lint other than {lint}"
            );
        } else if stem.ends_with("_neg") {
            assert!(
                report.findings.iter().all(|f| &f.file != pretend),
                "negative fixture {stem} produced findings"
            );
        }
    }
    // Corpus-rot guard: each lint keeps one positive and one negative.
    for &(prefix, lint) in LINT_OF_PREFIX {
        assert!(
            fixtures
                .iter()
                .any(|(s, _)| s.starts_with(prefix) && s.ends_with("_pos")),
            "no positive fixture for {lint}"
        );
        assert!(
            fixtures
                .iter()
                .any(|(s, _)| s.starts_with(prefix) && s.ends_with("_neg")),
            "no negative fixture for {lint}"
        );
    }
}

#[test]
fn support_fixtures_stay_silent() {
    let (fixtures, report) = run();
    for (stem, pretend) in fixtures
        .iter()
        .filter(|(s, _)| !s.ends_with("_pos") && !s.ends_with("_neg"))
    {
        assert!(
            report.findings.iter().all(|f| &f.file != pretend),
            "support fixture {stem} produced findings"
        );
    }
}
