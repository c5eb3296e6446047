//! The static half of the determinism contract is clippy configuration:
//! the root `clippy.toml` bans hash-ordered collections and wall-clock
//! reads in every crate, and each library crate's `lib.rs` sets its print
//! and deprecation lint levels. CI's clippy job enforces them, but an
//! entry deleted from the configuration would leave that job green, so
//! these tests pin the configuration itself inside plain `cargo test`.

use std::path::Path;

fn workspace_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Does `section` hold a `{ path = "<path>", reason = "…" }` entry?
fn bans(section: &str, path: &str) -> bool {
    section
        .lines()
        .any(|l| l.contains(&format!("path = \"{path}\"")) && l.contains("reason = \""))
}

#[test]
fn clippy_toml_bans_hash_collections_and_wall_clock() {
    let cfg = workspace_file("clippy.toml");
    let (types, methods) = cfg
        .split_once("disallowed-methods")
        .expect("clippy.toml lists disallowed-types, then disallowed-methods");
    assert!(types.contains("disallowed-types"));
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(bans(types, ty), "disallowed-types lacks {ty} with a reason");
    }
    for method in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            bans(methods, method),
            "disallowed-methods lacks {method} with a reason"
        );
    }
}

#[test]
fn library_crates_warn_on_prints_and_deny_deprecated() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut names: Vec<String> = std::fs::read_dir(&crates)
        .unwrap_or_else(|e| panic!("{}: {e}", crates.display()))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(names.len() >= 9, "expected every crate, got {names:?}");
    for name in names {
        let lib = workspace_file(&format!("crates/{name}/src/lib.rs"));
        assert!(
            lib.contains("#![warn(clippy::print_stdout, clippy::print_stderr)]"),
            "crates/{name}/src/lib.rs does not warn on prints"
        );
        assert!(
            lib.contains("#![deny(deprecated)]"),
            "crates/{name}/src/lib.rs does not deny deprecated items"
        );
    }
}
