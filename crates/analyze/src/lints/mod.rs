//! The pluggable lint set.
//!
//! Each lint is a zero-state (or small-config) struct implementing
//! [`Lint`] over a [`SourceFile`]'s token stream. Before writing one,
//! check whether clippy can carry the rule: a banned type or method
//! belongs in the root `clippy.toml` (`disallowed-types`,
//! `disallowed-methods`), a built-in lint in a crate-level
//! `#![warn(..)]`. Those resolve names, so an alias or a re-export
//! cannot slip past them the way it slips past a token match. What is
//! left — rules about doc comments, phase-name literals, or properties
//! of the call graph — is a four-step recipe (see DESIGN.md §8):
//!
//! 1. create `src/lints/<name>.rs` with a struct implementing [`Lint`] —
//!    scope first (`file.crate_src()`, `file.is_test_code`,
//!    `file.in_test(line)`), then match token patterns;
//! 2. register it in [`crate::stock_lints`];
//! 3. add fixture tests in `tests/lints.rs`: one snippet proving it
//!    fires, one proving clean code passes, one proving
//!    `// scda-analyze: allow(<name>, reason)` suppresses it;
//! 4. burn down (or annotate) every finding the new lint reports on the
//!    workspace — CI's `--deny` run fails until the tree is clean.

pub mod doc_units;
pub mod float_eq;
pub mod hot_transitive;
pub mod phase_names;
pub mod unit_dimension;
pub mod unwrap_hot;

use crate::lexer::{Tok, Token};
use crate::{Finding, SourceFile};

/// One workspace lint over a lexed file.
pub trait Lint {
    /// Stable kebab-case name — what `allow(<name>, …)` references.
    fn name(&self) -> &'static str;
    /// One-line description for `--list`.
    fn summary(&self) -> &'static str;
    /// Append findings for `file` to `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// Does the identifier token at `i` equal `name`?
pub(crate) fn is_ident(tokens: &[Token], i: usize, name: &str) -> bool {
    matches!(&tokens.get(i).map(|t| &t.tok), Some(Tok::Ident(s)) if s == name)
}

/// Is token `i` the operator `op`?
pub(crate) fn is_op(tokens: &[Token], i: usize, op: &str) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Op(s)) if *s == op)
}

/// Is token `i` the punctuation `c`?
pub(crate) fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Build a finding at token `i` of `file`.
pub(crate) fn finding(
    file: &SourceFile,
    i: usize,
    lint: &'static str,
    message: impl Into<String>,
) -> Finding {
    Finding {
        file: file.path.clone(),
        line: file.tokens[i].line,
        lint,
        message: message.into(),
    }
}
