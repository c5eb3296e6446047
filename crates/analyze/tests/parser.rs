//! Structural tests for the recursive-descent parser over the corpus
//! in `tests/fixtures/corpus/` — generics, trait impls, closures and
//! macros-as-opaque. The corpus is data, never compiled: cargo ignores
//! subdirectories of `tests/`, and `collect_workspace` skips
//! `fixtures/` dirs so the workspace lint run never sees it either.

use std::fs;
use std::path::PathBuf;

use scda_analyze::ast::{parse_file, CallKind, FnDef, ParsedFile};
use scda_analyze::graph::Workspace;
use scda_analyze::SourceFile;

fn corpus_source(name: &str) -> SourceFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/corpus")
        .join(name);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("corpus fixture {name} unreadable: {e}"));
    SourceFile::parse(format!("fixtures/corpus/{name}"), &src)
}

fn corpus(name: &str) -> ParsedFile {
    parse_file(&corpus_source(name).tokens)
}

fn find<'a>(p: &'a ParsedFile, name: &str) -> &'a FnDef {
    p.fns
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("fn `{name}` not parsed"))
}

#[test]
fn generic_fn_and_impl_signatures() {
    let p = corpus("generics.rs");

    let push = find(&p, "push");
    assert_eq!(push.owner.as_deref(), Some("Stack"));
    assert!(push.has_self());
    assert_eq!(push.value_arity(), 1);
    assert_eq!(push.params[1].name, "item");
    assert_eq!(push.params[1].ty, "T");

    // Generic params and a where clause don't derail the signature.
    let interp = find(&p, "interpolate");
    assert_eq!(interp.owner.as_deref(), Some("Stack"));
    assert_eq!(interp.trait_name, None);
    assert!(interp.is_pub);
    assert_eq!(interp.ret, "f64");
    assert_eq!(interp.value_arity(), 2);
}

#[test]
fn free_call_with_bare_ident_args() {
    let p = corpus("generics.rs");
    let interp = find(&p, "interpolate");
    let mid = interp
        .calls
        .iter()
        .find(|c| c.name == "midpoint")
        .expect("midpoint call site");
    assert!(matches!(mid.kind, CallKind::Free));
    assert_eq!(mid.arity, 2);
    assert_eq!(mid.args, vec![Some("x".to_string()), Some("y".to_string())]);
}

#[test]
fn turbofish_method_calls() {
    let p = corpus("generics.rs");
    let cs = find(&p, "collect_squares");
    assert!(cs
        .calls
        .iter()
        .any(|c| c.name == "collect" && matches!(c.kind, CallKind::Method) && c.arity == 0));
    assert!(cs
        .calls
        .iter()
        .any(|c| c.name == "map" && matches!(c.kind, CallKind::Method)));
}

#[test]
fn trait_decls_impls_and_qualified_trait_names() {
    let p = corpus("trait_impls.rs");

    // Required method: declared under the trait, no body.
    let decl = p
        .fns
        .iter()
        .find(|f| f.name == "observe" && f.owner.as_deref() == Some("Estimator"))
        .expect("trait-declared observe");
    assert!(decl.body.is_none());

    // Default method: body under the trait owner, calls recorded.
    let twice = find(&p, "observe_twice");
    assert_eq!(twice.owner.as_deref(), Some("Estimator"));
    assert!(twice.body.is_some());
    assert_eq!(
        twice.calls.iter().filter(|c| c.name == "observe").count(),
        2
    );

    // Trait impl: owner is the type, trait recorded.
    let obs_impl = p
        .fns
        .iter()
        .find(|f| f.name == "observe" && f.owner.as_deref() == Some("Ewma"))
        .expect("impl Estimator for Ewma :: observe");
    assert_eq!(obs_impl.trait_name.as_deref(), Some("Estimator"));

    // Path-qualified trait: last segment wins.
    let fmt = find(&p, "fmt");
    assert_eq!(fmt.owner.as_deref(), Some("Ewma"));
    assert_eq!(fmt.trait_name.as_deref(), Some("Display"));
    assert!(fmt.macros.iter().any(|m| m.name == "write"));

    // Inherent impl: owner without a trait.
    let new = find(&p, "new");
    assert_eq!(new.owner.as_deref(), Some("Ewma"));
    assert_eq!(new.trait_name, None);
}

#[test]
fn closure_calls_attribute_to_enclosing_fn() {
    let p = corpus("closures.rs");
    let drive = find(&p, "drive");
    // `scale` is called inside `.map(|x| …)`; `clamp` is a local
    // closure invoked by name — both belong to `drive`.
    assert!(drive
        .calls
        .iter()
        .any(|c| c.name == "scale" && matches!(c.kind, CallKind::Free)));
    assert!(drive
        .calls
        .iter()
        .any(|c| c.name == "clamp" && matches!(c.kind, CallKind::Free)));
}

#[test]
fn nested_fn_is_a_hole_in_the_outer_body() {
    let p = corpus("closures.rs");
    let outer = find(&p, "outer");
    let inner = find(&p, "inner");
    assert!(inner.body.is_some());
    assert!(outer.calls.iter().any(|c| c.name == "inner"));
    // The nested body's calls must not leak into the outer fn.
    assert!(!outer.calls.iter().any(|c| c.name == "checked_mul"));
    assert!(inner.calls.iter().any(|c| c.name == "checked_mul"));
}

#[test]
fn macros_are_opaque() {
    let p = corpus("macros.rs");
    // A `fn` inside a macro_rules body is not a definition.
    assert!(p.fns.iter().all(|f| f.name != "generated"));

    let um = find(&p, "uses_macros");
    let macro_names: Vec<&str> = um.macros.iter().map(|m| m.name.as_str()).collect();
    assert!(macro_names.contains(&"format"));
    assert!(macro_names.contains(&"assert_ne"));
    // Macro uses are not call sites, but real calls inside macro
    // arguments still surface.
    assert!(um
        .calls
        .iter()
        .all(|c| c.name != "format" && c.name != "assert_ne"));
    assert!(um.calls.iter().any(|c| c.name == "push"));
    assert!(um.calls.iter().any(|c| c.name == "len"));
}

#[test]
fn workspace_resolves_free_calls_and_records_unresolved() {
    let files = [corpus_source("generics.rs"), corpus_source("closures.rs")];
    let ws = Workspace::build(&files);
    let id = |name: &str| {
        ws.fns
            .iter()
            .position(|n| n.def.name == name)
            .unwrap_or_else(|| panic!("fn `{name}` not in workspace"))
    };
    let (drive, scale) = (id("drive"), id("scale"));
    assert!(ws.callees[drive].iter().any(|&(_, f)| f.0 == scale));
    // std methods with no workspace definition (`sum`, `max`, …) are
    // recorded as unresolved, never dropped.
    assert!(!ws.unresolved.is_empty());
}
