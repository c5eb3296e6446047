//! `scda-analyze` — the workspace's domain lint driver.
//!
//! The SCDA reproduction's headline guarantee is *determinism*: the rate
//! metric (Table I, eqs. 2–5) and the max/min control-tree propagation
//! reproduce the paper only if every control round computes the same
//! numbers in the same order on every run. The golden kernel tests pin
//! the results bit-exact, but a pinned result cannot tell you *which*
//! change broke it. The bans clippy can check by name resolution —
//! `HashMap`/`HashSet` and wall-clock reads — live in the root
//! `clippy.toml`; this crate checks what clippy cannot: every `.rs` file
//! in the workspace is tokenized by a hand-rolled [`lexer`] (no `syn` —
//! the workspace builds offline) and checked by a pluggable set of
//! [`lints`]:
//!
//! | lint | guards |
//! |------|--------|
//! | `no-float-eq` | no `==`/`!=` against float expressions outside tests |
//! | `no-unwrap-hot-path` | no `.unwrap()`, and only `expect("invariant: …")`, on per-τ paths |
//! | `phase-name-canonical` | phase-name string literals must match `scda_obs::phase` constants |
//! | `doc-units` | `pub fn`s taking ≥2 raw `f64`s must document units |
//! | `unit-dimension` | documented `f64` units must *agree* across call sites (bytes vs bytes/s vs seconds) |
//! | `hot-path-transitive-alloc` | no allocation in any function *reachable* from a `// scda-analyze: hot(<phase>)` root |
//!
//! `unit-dimension` and `hot-path-transitive-alloc` ride on an AST +
//! call-graph layer ([`ast`], [`graph`]) grown over the same lexer: a
//! recursive-descent parser recovers items, impls, signatures and call
//! sites, and a conservative name+arity resolver links them into a
//! workspace call graph (unresolved edges are recorded, never dropped).
//! See DESIGN.md §13.
//!
//! Findings are suppressed *only* via an inline
//! `// scda-analyze: allow(<lint>, <reason>)` annotation on the finding's
//! line or the line above, so every exception is visible in a diff and
//! carries its justification. Unused or reason-less allows are findings
//! themselves — the suppression set can never rot.
//!
//! Run it as `cargo run -p scda-analyze -- --deny` (CI does).

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![deny(deprecated)]

pub mod ast;
pub mod graph;
pub mod lexer;
pub mod lints;

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use lexer::{lex, Allow, HotTag, Lexed, Token};
use lints::Lint;

/// A lexed source file plus the path-derived and token-derived context
/// lints scope on.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Suppression annotations found in comments.
    pub allows: Vec<Allow>,
    /// `hot(<phase>)` hot-path function markers found in comments.
    pub hot_tags: Vec<HotTag>,
    /// Lines carrying a `scda-analyze:` marker that failed to parse.
    pub malformed_allows: Vec<u32>,
    /// `true` for files under a `tests/`, `examples/` or `benches/`
    /// directory — test-support code exempt from runtime-hygiene lints.
    pub is_test_code: bool,
    /// Line spans (inclusive) of `#[cfg(test)]`-gated items.
    test_regions: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lex `src` under the given workspace-relative path.
    pub fn parse(path: impl Into<String>, src: &str) -> Self {
        let path = path.into().replace('\\', "/");
        let Lexed {
            tokens,
            allows,
            hot_tags,
            malformed_allows,
        } = lex(src);
        let is_test_code = path
            .split('/')
            .any(|seg| matches!(seg, "tests" | "examples" | "benches"));
        let test_regions = find_test_regions(&tokens);
        SourceFile {
            path,
            tokens,
            allows,
            hot_tags,
            malformed_allows,
            is_test_code,
            test_regions,
        }
    }

    /// Is `line` inside a `#[cfg(test)]` item (or is this whole file
    /// test-support code)?
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_code
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// The crate this file is the `src/` of: `Some("core")` for
    /// `crates/core/src/tree.rs`, `None` for tests, examples, or the
    /// root package.
    pub fn crate_src(&self) -> Option<&str> {
        let mut segs = self.path.split('/').peekable();
        while let Some(seg) = segs.next() {
            if seg == "crates" {
                let name = segs.next()?;
                return (segs.peek() == Some(&"src")).then_some(name);
            }
        }
        None
    }
}

/// Locate `#[cfg(test)]`-gated items: the attribute, any further
/// attributes, then either a braced item (scan to the matching `}`) or a
/// single `;`-terminated statement.
fn find_test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    use lexer::Tok::*;
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_test = matches!(&tokens[i].tok, Punct('#'))
            && matches!(&tokens[i + 1].tok, Punct('['))
            && matches!(&tokens[i + 2].tok, Ident(s) if s == "cfg")
            && matches!(&tokens[i + 3].tok, Punct('('))
            && matches!(&tokens[i + 4].tok, Ident(s) if s == "test")
            && matches!(&tokens[i + 5].tok, Punct(')'))
            && matches!(&tokens[i + 6].tok, Punct(']'));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut end_line = start_line;
        while j < tokens.len() {
            match &tokens[j].tok {
                Punct('{') => depth += 1,
                Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end_line = tokens[j].line;
                        break;
                    }
                }
                Punct(';') if depth == 0 => {
                    end_line = tokens[j].line;
                    break;
                }
                _ => {}
            }
            end_line = tokens[j].line;
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j + 1;
    }
    regions
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The lint that fired (`"no-float-eq"`, …, or the driver's own
    /// `"allow-hygiene"`).
    pub lint: &'static str,
    /// Human-readable description of the problem and the fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Driver-owned pseudo-lint name for suppression-annotation problems
/// (missing reason, unknown lint, unused allow, unparsable annotation).
pub const ALLOW_HYGIENE: &str = "allow-hygiene";

/// Result of linting a batch of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by `allow` annotations.
    pub suppressed: usize,
}

impl Report {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run `lints` over `files`, applying `allow` suppressions and checking
/// the annotations themselves for hygiene.
pub fn run_lints(files: &[SourceFile], lints: &[Box<dyn Lint>]) -> Report {
    let known: BTreeSet<&str> = lints.iter().map(|l| l.name()).collect();
    let mut report = Report::default();
    for file in files {
        let mut raw = Vec::new();
        for lint in lints {
            lint.check(file, &mut raw);
        }
        // An allow covers findings of its lint on its own line and the
        // line below.
        let mut used = vec![false; file.allows.len()];
        raw.retain(|f| {
            let covered = file.allows.iter().enumerate().find(|(_, a)| {
                a.lint == f.lint
                    && !a.reason.is_empty()
                    && (a.line == f.line || a.line + 1 == f.line)
            });
            match covered {
                Some((idx, _)) => {
                    used[idx] = true;
                    report.suppressed += 1;
                    false
                }
                None => true,
            }
        });
        for (a, used) in file.allows.iter().zip(&used) {
            if a.reason.is_empty() {
                raw.push(Finding {
                    file: file.path.clone(),
                    line: a.line,
                    lint: ALLOW_HYGIENE,
                    message: format!(
                        "allow({}) without a reason — write `// scda-analyze: \
                         allow({}, <why this exception is sound>)`",
                        a.lint, a.lint
                    ),
                });
            } else if !known.contains(a.lint.as_str()) {
                raw.push(Finding {
                    file: file.path.clone(),
                    line: a.line,
                    lint: ALLOW_HYGIENE,
                    message: format!("allow names unknown lint `{}`", a.lint),
                });
            } else if !used {
                raw.push(Finding {
                    file: file.path.clone(),
                    line: a.line,
                    lint: ALLOW_HYGIENE,
                    message: format!(
                        "unused allow({}) — nothing on this or the next line fires it; remove it",
                        a.lint
                    ),
                });
            }
        }
        for &line in &file.malformed_allows {
            raw.push(Finding {
                file: file.path.clone(),
                line,
                lint: ALLOW_HYGIENE,
                message: "unparsable scda-analyze annotation — expected \
                          `// scda-analyze: allow(<lint>, <reason>)` or \
                          `// scda-analyze: hot(<phase>)`"
                    .to_string(),
            });
        }
        report.findings.append(&mut raw);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Collect every first-party `.rs` file under `root`, skipping `vendor/`
/// (API stand-ins for external crates), `target/`, `results/`,
/// `fixtures/` (lint-test corpora seeded with intentional violations)
/// and hidden directories (VCS metadata; `.bench_build/`, where `make
/// bench-compare` exports a second copy of the tree). Paths in the
/// returned files are workspace-relative.
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile::parse(rel, &src));
    }
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.')
                || matches!(&*name, "vendor" | "target" | "results" | "fixtures")
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// The full stock lint set, with canonical phase names harvested from
/// `files` (the `scda_obs::phase` module) when present. The
/// interprocedural lints parse `files` into a call graph once, up
/// front; their findings are precomputed here and replayed per file.
pub fn stock_lints(files: &[SourceFile]) -> Vec<Box<dyn Lint>> {
    let phases = lints::phase_names::harvest_canonical(files);
    let ws = graph::Workspace::build(files);
    vec![
        Box::new(lints::float_eq::NoFloatEq),
        Box::new(lints::unwrap_hot::NoUnwrapHotPath),
        Box::new(lints::phase_names::PhaseNameCanonical::new(phases.clone())),
        Box::new(lints::hot_transitive::HotPathTransitiveAlloc::new(
            &ws, files, &phases,
        )),
        Box::new(lints::unit_dimension::UnitDimension::new(&ws, files)),
        Box::new(lints::doc_units::DocUnits),
    ]
}
