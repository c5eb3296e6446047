//! Workspace symbol index and conservative call graph.
//!
//! [`Workspace::build`] parses every source file with [`crate::ast`] and
//! links call sites to definitions by *name and arity* — the strongest
//! resolution a dependency-free analyzer can do without type inference,
//! and exactly strong enough for the interprocedural lints, because
//! every ambiguity is resolved **conservatively**:
//!
//! * a method call `.f(a, b)` links to *every* workspace method named
//!   `f` taking two non-`self` parameters — if any of them is
//!   hot-reachable, the property propagates;
//! * a path call `Type::f(…)` links to methods/associated functions of
//!   any type named `Type` (`Self` resolves to the caller's `impl`
//!   target), falling back to free functions for module-qualified
//!   calls like `units::mbps(x)`;
//! * a free call `f(…)` links to free functions named `f` with a
//!   matching parameter count;
//! * a call that matches *nothing* in the workspace is recorded in
//!   [`Workspace::unresolved`] — never silently dropped. Std and
//!   vendored-stub calls land there by design; the lints treat their
//!   effects (allocation) via direct token patterns instead.
//!
//! Everything is keyed and ordered deterministically (`BTreeMap`,
//! file-then-definition order), so findings derived from the graph are
//! byte-stable across runs — a requirement for the golden findings
//! snapshot test.

use std::collections::BTreeMap;

use crate::ast::{parse_file, CallKind, FnDef, ParsedFile};
use crate::SourceFile;

/// Index of a function in [`Workspace::fns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId(pub usize);

/// One function definition plus its file context.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the `files` slice the workspace was built from.
    pub file: usize,
    /// Workspace-relative path of that file (owned copy for messages).
    pub path: String,
    /// `true` when the definition lives in test code.
    pub is_test: bool,
    /// The parsed definition.
    pub def: FnDef,
}

/// A call site that resolved to no workspace definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedCall {
    /// Calling function.
    pub caller: FnId,
    /// Index into the caller's `def.calls`.
    pub call: usize,
}

/// The workspace-wide symbol index and call graph.
pub struct Workspace {
    /// All parsed functions, in file order then definition order.
    pub fns: Vec<FnNode>,
    /// Per function: resolved `(call index, callee)` edges, in call
    /// order; a call with several candidates contributes several edges.
    pub callees: Vec<Vec<(usize, FnId)>>,
    /// Call sites that matched no workspace definition.
    pub unresolved: Vec<UnresolvedCall>,
}

impl Workspace {
    /// Parse `files` and link the call graph. `files` must be the same
    /// slice (same order) later passed to the lints.
    pub fn build(files: &[SourceFile]) -> Workspace {
        let mut fns: Vec<FnNode> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let ParsedFile { fns: defs } = parse_file(&file.tokens);
            for def in defs {
                fns.push(FnNode {
                    file: fi,
                    path: file.path.clone(),
                    is_test: file.is_test_code || file.in_test(def.line),
                    def,
                });
            }
        }

        // Indexes. Keys are (name, arity); owner_methods additionally
        // keys on the impl/trait target type name.
        let mut free: BTreeMap<(String, usize), Vec<FnId>> = BTreeMap::new();
        let mut methods: BTreeMap<(String, usize), Vec<FnId>> = BTreeMap::new();
        let mut owner_methods: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        for (i, node) in fns.iter().enumerate() {
            let id = FnId(i);
            let d = &node.def;
            match &d.owner {
                None => free
                    .entry((d.name.clone(), d.params.len()))
                    .or_default()
                    .push(id),
                Some(owner) => {
                    owner_methods
                        .entry((owner.clone(), d.name.clone()))
                        .or_default()
                        .push(id);
                    if d.has_self() {
                        methods
                            .entry((d.name.clone(), d.value_arity()))
                            .or_default()
                            .push(id);
                    }
                }
            }
        }

        let mut callees: Vec<Vec<(usize, FnId)>> = vec![Vec::new(); fns.len()];
        let mut unresolved = Vec::new();
        for (i, node) in fns.iter().enumerate() {
            for (ci, call) in node.def.calls.iter().enumerate() {
                let mut cands: Vec<FnId> = Vec::new();
                match &call.kind {
                    CallKind::Method => {
                        if let Some(v) = methods.get(&(call.name.clone(), call.arity)) {
                            cands.extend_from_slice(v);
                        }
                    }
                    CallKind::Path { qualifier } => {
                        let q = if qualifier == "Self" {
                            node.def.owner.clone().unwrap_or_default()
                        } else {
                            qualifier.clone()
                        };
                        if let Some(v) = owner_methods.get(&(q, call.name.clone())) {
                            // `Type::f(recv, a)` passes the receiver
                            // explicitly; `Type::assoc(a)` has none —
                            // accept either parameter count.
                            cands.extend(v.iter().copied().filter(|&FnId(j)| {
                                let d = &fns[j].def;
                                call.arity == d.params.len() || call.arity == d.value_arity()
                            }));
                        }
                        if cands.is_empty() {
                            // Module-qualified free call.
                            if let Some(v) = free.get(&(call.name.clone(), call.arity)) {
                                cands.extend_from_slice(v);
                            }
                        }
                    }
                    CallKind::Free => {
                        if let Some(v) = free.get(&(call.name.clone(), call.arity)) {
                            cands.extend_from_slice(v);
                        }
                    }
                }
                if cands.is_empty() {
                    unresolved.push(UnresolvedCall {
                        caller: FnId(i),
                        call: ci,
                    });
                } else {
                    for c in cands {
                        callees[i].push((ci, c));
                    }
                }
            }
        }

        Workspace {
            fns,
            callees,
            unresolved,
        }
    }

    /// The first function in `file` whose `fn` keyword sits on or after
    /// `line` — how a `// scda-analyze: hot(…)` tag finds its function.
    pub fn fn_at_or_after(&self, file: usize, line: u32) -> Option<FnId> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file == file && n.def.line >= line)
            .min_by_key(|(_, n)| n.def.line)
            .map(|(i, _)| FnId(i))
    }

    /// Forward reachability from `roots` along call edges, excluding
    /// test code. Returns, for every reached function, its BFS parent
    /// (`parent[root] = Some(root)` marks roots) — `None` means
    /// unreached. Deterministic: roots are visited in the given order,
    /// edges in call order.
    pub fn reach_forward(&self, roots: &[FnId]) -> Vec<Option<FnId>> {
        let mut parent: Vec<Option<FnId>> = vec![None; self.fns.len()];
        let mut queue: std::collections::VecDeque<FnId> = std::collections::VecDeque::new();
        for &r in roots {
            if parent[r.0].is_none() {
                parent[r.0] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for &(_, callee) in &self.callees[cur.0] {
                if parent[callee.0].is_none() && !self.fns[callee.0].is_test {
                    parent[callee.0] = Some(cur);
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// Body token ranges of *other* functions nested inside `f`'s body
    /// (local fns, local impl methods), sorted — scans of `f`'s own code
    /// must skip these so a site is attributed to exactly one function.
    pub fn nested_holes(&self, f: FnId) -> Vec<(usize, usize)> {
        let node = &self.fns[f.0];
        let Some((lo, hi)) = node.def.body else {
            return Vec::new();
        };
        let mut holes: Vec<(usize, usize)> = self
            .fns
            .iter()
            .filter(|n| n.file == node.file)
            .filter_map(|n| n.def.body)
            .filter(|&(l, h)| l > lo && h <= hi)
            .collect();
        holes.sort_unstable();
        holes
    }

    /// Reconstruct the witness chain from `f` back to a root via
    /// `parent` pointers: qualified names starting at `f`, ending at the
    /// root (lints reverse it when the call direction reads better).
    pub fn witness_chain(&self, parent: &[Option<FnId>], mut f: FnId) -> Vec<String> {
        let mut names = vec![self.fns[f.0].def.qualified_name()];
        let mut guard = 0;
        while let Some(p) = parent[f.0] {
            if p == f || guard > self.fns.len() {
                break;
            }
            f = p;
            names.push(self.fns[f.0].def.qualified_name());
            guard += 1;
        }
        names
    }
}
