//! The workspace-wide symbol table and approximate call graph.
//!
//! [`Workspace::build`] runs the item parser over every file of a scan and
//! assembles: every function (with impl context), constant, and struct;
//! per-file `use` aliases; and one [`Call`] record per call site found in a
//! function body. Name resolution is deliberately conservative — plain
//! calls resolve through same-file definitions, then `use` aliases, then a
//! workspace-unique name; qualified calls (`Type::f`, `module::f`) resolve
//! through impl blocks and file stems; method calls resolve through the
//! receiver only when it is literally `self`, and otherwise through a
//! workspace-unique method name that is not a common std method. A call
//! that cannot be pinned to exactly one definition is recorded as
//! [`Callee::Unresolved`] — **never guessed** — so reachability-based rules
//! under-approximate rather than hallucinate edges.

use crate::lexer::{Token, TokenKind};
use crate::parse::{self, ParsedFile};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// One function known to the workspace.
#[derive(Debug)]
pub struct FnSym {
    /// Index of the declaring file in [`Workspace::files`].
    pub file: usize,
    /// Declared name.
    pub name: String,
    /// `Self` type for methods declared in an `impl` block.
    pub impl_ty: Option<String>,
    /// Trait for methods declared in an `impl Trait for Type` block.
    pub trait_name: Option<String>,
    /// Whether the declaration takes `self`.
    pub has_self: bool,
    /// Source text of the return type (`""` when none).
    pub ret: String,
    /// Body span (code-index range in the declaring file).
    pub body: Option<(usize, usize)>,
    /// Line of the name token.
    pub line: u32,
    /// Column of the name token.
    pub col: u32,
    /// Whether the declaration sits in a test region.
    pub in_test: bool,
}

impl FnSym {
    /// Display label: `Type::name` for methods, `name` otherwise.
    pub fn label(&self) -> String {
        match &self.impl_ty {
            Some(ty) if !ty.is_empty() => format!("{ty}::{}", self.name),
            _ => self.name.clone(),
        }
    }
}

/// One constant known to the workspace.
#[derive(Debug)]
pub struct ConstSym {
    /// Index of the declaring file in [`Workspace::files`].
    pub file: usize,
    /// Declared name.
    pub name: String,
    /// Source text of the declared type.
    pub ty: String,
    /// Line of the name token.
    pub line: u32,
    /// Whether the declaration sits in a test region.
    pub in_test: bool,
}

/// One struct known to the workspace.
#[derive(Debug)]
pub struct StructSym {
    /// Index of the declaring file in [`Workspace::files`].
    pub file: usize,
    /// Declaration as parsed.
    pub decl: parse::StructDecl,
}

/// Where a call resolved to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// Exactly one workspace definition: an index into [`Workspace::fns`].
    Resolved(usize),
    /// No single workspace definition (std/vendor call, ambiguous name,
    /// macro, field-receiver method). Recorded, never guessed.
    Unresolved,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Resolution outcome.
    pub callee: Callee,
    /// The called name as written.
    pub name: String,
    /// Code-index of the name token in the calling file.
    pub ci: usize,
    /// Line of the name token.
    pub line: u32,
    /// Column of the name token.
    pub col: u32,
}

/// Method names so common on std types that a workspace-unique definition
/// is more likely a coincidence than the actual callee.
const COMMON_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "to_string",
    "contains",
    "contains_key",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "send",
    "recv",
    "join",
    "lock",
    "read",
    "write",
    "parse",
    "unwrap",
    "unwrap_or",
    "expect",
    "ok",
    "err",
    "map",
    "and_then",
    "take",
    "entry",
    "keys",
    "values",
    "retain",
    "drain",
    "last",
    "first",
    "new",
    "default",
    "from",
    "into",
    "as_ref",
    "as_str",
    "to_owned",
    "min",
    "max",
    "abs",
    "floor",
    "ceil",
    "count",
    "sum",
    "any",
    "all",
    "find",
    "filter",
    "collect",
    "rev",
    "chain",
    "zip",
    "split",
    "trim",
    "starts_with",
    "ends_with",
    "replace",
    "serialize",
    "fmt",
    "eq",
    "cmp",
    "hash",
];

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "let", "loop", "move", "else", "fn",
    "impl", "where", "unsafe", "dyn", "ref", "mut", "box", "await", "break", "continue",
];

/// The assembled workspace: symbols, per-function call records, and the
/// resolution maps behind them.
#[derive(Debug)]
pub struct Workspace<'a> {
    /// The files of the scan, in scan order.
    pub files: Vec<&'a SourceFile>,
    /// Item structure per file (parallel to `files`).
    pub parsed: Vec<ParsedFile>,
    /// Every function in the workspace.
    pub fns: Vec<FnSym>,
    /// Every constant in the workspace.
    pub consts: Vec<ConstSym>,
    /// Every struct in the workspace.
    pub structs: Vec<StructSym>,
    /// Call records per function (parallel to `fns`).
    pub calls: Vec<Vec<Call>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
    by_impl: BTreeMap<(String, String), Vec<usize>>,
    consts_by_name: BTreeMap<String, Vec<usize>>,
}

impl<'a> Workspace<'a> {
    /// Parse and index `files`, then extract and resolve every call site.
    pub fn build(files: Vec<&'a SourceFile>) -> Workspace<'a> {
        let parsed: Vec<ParsedFile> = files.iter().map(|f| parse::parse_file(f)).collect();
        let mut fns = Vec::new();
        let mut consts = Vec::new();
        let mut structs = Vec::new();
        for (fi, p) in parsed.iter().enumerate() {
            for f in &p.fns {
                fns.push(FnSym {
                    file: fi,
                    name: f.name.clone(),
                    impl_ty: f.impl_ty.clone(),
                    trait_name: f.trait_name.clone(),
                    has_self: f.has_self,
                    ret: f.ret.clone(),
                    body: f.body,
                    line: f.line,
                    col: f.col,
                    in_test: f.in_test,
                });
            }
            for c in &p.consts {
                consts.push(ConstSym {
                    file: fi,
                    name: c.name.clone(),
                    ty: c.ty.clone(),
                    line: c.line,
                    in_test: c.in_test,
                });
            }
            for s in &p.structs {
                structs.push(StructSym {
                    file: fi,
                    decl: s.clone(),
                });
            }
        }
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_impl: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            match &f.impl_ty {
                Some(ty) => {
                    by_impl
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                    methods_by_name.entry(f.name.clone()).or_default().push(i);
                }
                None => free_by_name.entry(f.name.clone()).or_default().push(i),
            }
        }
        let mut consts_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, c) in consts.iter().enumerate() {
            consts_by_name.entry(c.name.clone()).or_default().push(i);
        }
        let mut ws = Workspace {
            files,
            parsed,
            fns,
            consts,
            structs,
            calls: Vec::new(),
            free_by_name,
            methods_by_name,
            by_impl,
            consts_by_name,
        };
        ws.calls = (0..ws.fns.len()).map(|i| ws.extract_calls(i)).collect();
        ws
    }

    /// The code token at code-index `ci` of file `fi`.
    pub fn tok(&self, fi: usize, ci: usize) -> Option<&Token> {
        let f = self.files[fi];
        f.code.get(ci).map(|&i| &f.tokens[i])
    }

    /// Resolve a `*_STREAM`-style constant name as seen from `fi`:
    /// same-file first, then this file's `use` aliases, then a
    /// workspace-unique name. `None` when nothing (or more than one thing)
    /// matches.
    pub fn resolve_const(&self, fi: usize, name: &str) -> Option<&ConstSym> {
        let candidates = self.consts_by_name.get(name)?;
        if let Some(&i) = candidates.iter().find(|&&i| self.consts[i].file == fi) {
            return Some(&self.consts[i]);
        }
        if self.parsed[fi].uses.iter().any(|u| u.alias == name) {
            let non_test: Vec<&usize> = candidates
                .iter()
                .filter(|&&i| !self.consts[i].in_test)
                .collect();
            if let [only] = non_test.as_slice() {
                return Some(&self.consts[**only]);
            }
        }
        let non_test: Vec<&usize> = candidates
            .iter()
            .filter(|&&i| !self.consts[i].in_test)
            .collect();
        match non_test.as_slice() {
            [only] => Some(&self.consts[**only]),
            _ => None,
        }
    }

    /// Functions reachable from `roots` over resolved call edges, with the
    /// BFS parent edge (`caller fn`, `call`) recorded per reached function
    /// (roots map to `None`).
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, Option<(usize, Call)>> {
        let mut seen: BTreeMap<usize, Option<(usize, Call)>> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if seen.insert(r, None).is_none() {
                queue.push(r);
            }
        }
        let mut at = 0usize;
        while at < queue.len() {
            let cur = queue[at];
            at += 1;
            for call in &self.calls[cur] {
                if let Callee::Resolved(target) = call.callee {
                    if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(target) {
                        e.insert(Some((cur, call.clone())));
                        queue.push(target);
                    }
                }
            }
        }
        seen
    }

    /// Render the BFS chain from a root down to `fn_idx` as
    /// `root → … → target` using the parent edges from [`reachable`].
    ///
    /// [`reachable`]: Self::reachable
    pub fn chain(&self, reach: &BTreeMap<usize, Option<(usize, Call)>>, fn_idx: usize) -> String {
        let mut labels = vec![self.fns[fn_idx].label()];
        let mut cur = fn_idx;
        while let Some(Some((parent, _))) = reach.get(&cur) {
            labels.push(self.fns[*parent].label());
            cur = *parent;
        }
        labels.reverse();
        labels.join(" → ")
    }

    /// The function whose body most tightly encloses code-index `ci` of
    /// file `fi` (nested fns win over their enclosing fn).
    pub fn enclosing_fn(&self, fi: usize, ci: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == fi)
            .filter(|(_, f)| f.body.map(|(lo, hi)| lo <= ci && ci < hi).unwrap_or(false))
            .min_by_key(|(_, f)| {
                let (lo, hi) = f.body.expect("filtered on body");
                hi - lo
            })
            .map(|(i, _)| i)
    }

    /// String-literal token texts inside the body of `fn_idx`.
    pub fn strings_in(&self, fn_idx: usize) -> Vec<&str> {
        let f = &self.fns[fn_idx];
        let Some((lo, hi)) = f.body else {
            return Vec::new();
        };
        (lo..hi)
            .filter_map(|ci| self.tok(f.file, ci))
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect()
    }

    /// Extract and resolve every call site in the body of `fn_idx`.
    fn extract_calls(&self, fn_idx: usize) -> Vec<Call> {
        let f = &self.fns[fn_idx];
        let Some((lo, hi)) = f.body else {
            return Vec::new();
        };
        let fi = f.file;
        let mut out = Vec::new();
        for ci in lo..hi {
            let Some(t) = self.tok(fi, ci) else { continue };
            if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                continue;
            }
            // A call is `name (` — macros are `name ! (` and thus excluded.
            if !self
                .tok(fi, ci + 1)
                .map(|n| n.is_punct("("))
                .unwrap_or(false)
            {
                continue;
            }
            // `fn name (` is a nested declaration, not a call.
            if ci > lo
                && self
                    .tok(fi, ci - 1)
                    .map(|p| p.is_ident("fn"))
                    .unwrap_or(false)
            {
                continue;
            }
            let callee = self.resolve_call(fi, ci, &f.impl_ty);
            out.push(Call {
                callee,
                name: t.text.clone(),
                ci,
                line: t.line,
                col: t.col,
            });
        }
        out
    }

    /// Resolve the call whose name token sits at `ci` of file `fi`.
    fn resolve_call(&self, fi: usize, ci: usize, caller_impl: &Option<String>) -> Callee {
        let name = &self.tok(fi, ci).expect("caller checked").text;
        let prev = ci.checked_sub(1).and_then(|i| self.tok(fi, i));

        // Qualified call: `Seg::name(...)` — walk the path backwards.
        if prev.map(|p| p.is_punct("::")).unwrap_or(false) {
            let mut segs: Vec<String> = Vec::new();
            let mut j = ci - 1;
            while let Some(p) = j.checked_sub(1).and_then(|i| self.tok(fi, i)) {
                if p.kind == TokenKind::Ident {
                    segs.push(p.text.clone());
                    match j.checked_sub(2).and_then(|i| self.tok(fi, i)) {
                        Some(q) if q.is_punct("::") => j -= 2,
                        _ => break,
                    }
                } else if p.is_punct(">") {
                    // Turbofish or qualified generic (`Vec::<u8>::new`):
                    // treat as unresolvable rather than mis-walk it.
                    return Callee::Unresolved;
                } else {
                    break;
                }
            }
            let Some(head) = segs.first() else {
                return Callee::Unresolved;
            };
            return self.resolve_path_call(fi, head, name);
        }

        // Method call: `recv.name(...)`.
        if prev.map(|p| p.is_punct(".")).unwrap_or(false) {
            let recv_is_self = ci
                .checked_sub(2)
                .and_then(|i| self.tok(fi, i))
                .map(|r| r.is_ident("self"))
                .unwrap_or(false)
                && !ci
                    .checked_sub(3)
                    .and_then(|i| self.tok(fi, i))
                    .map(|r| r.is_punct("."))
                    .unwrap_or(false);
            if recv_is_self {
                if let Some(ty) = caller_impl {
                    if let Some(hits) = self.by_impl.get(&(ty.clone(), name.clone())) {
                        if let [only] = hits.as_slice() {
                            return Callee::Resolved(*only);
                        }
                    }
                }
            }
            return self.resolve_unique_method(name);
        }

        // Plain call: same-file free fn, then use-alias, then unique.
        if let Some(cands) = self.free_by_name.get(name) {
            let same_file: Vec<&usize> =
                cands.iter().filter(|&&i| self.fns[i].file == fi).collect();
            if let [only] = same_file.as_slice() {
                return Callee::Resolved(**only);
            }
            if !same_file.is_empty() {
                return Callee::Unresolved;
            }
            if self.parsed[fi].uses.iter().any(|u| u.alias == *name) {
                let non_test: Vec<&usize> =
                    cands.iter().filter(|&&i| !self.fns[i].in_test).collect();
                if let [only] = non_test.as_slice() {
                    return Callee::Resolved(**only);
                }
            }
            let non_test: Vec<&usize> = cands.iter().filter(|&&i| !self.fns[i].in_test).collect();
            if let [only] = non_test.as_slice() {
                return Callee::Resolved(**only);
            }
        }
        Callee::Unresolved
    }

    /// Resolve `head::name(...)`: `head` is an impl type (possibly behind a
    /// `use` alias) or a module/file stem.
    fn resolve_path_call(&self, fi: usize, head: &str, name: &str) -> Callee {
        // The head may be a use-alias of the real type/module name.
        let real_head = self.parsed[fi]
            .uses
            .iter()
            .find(|u| u.alias == head)
            .and_then(|u| u.path.last())
            .cloned()
            .unwrap_or_else(|| head.to_string());
        if let Some(hits) = self.by_impl.get(&(real_head.clone(), name.to_string())) {
            let non_test: Vec<&usize> = hits.iter().filter(|&&i| !self.fns[i].in_test).collect();
            if let [only] = non_test.as_slice() {
                return Callee::Resolved(**only);
            }
            if let [only] = hits.as_slice() {
                return Callee::Resolved(*only);
            }
            return Callee::Unresolved;
        }
        // Module path: free fns in files whose stem is `head`.
        if let Some(cands) = self.free_by_name.get(name) {
            let in_module: Vec<&usize> = cands
                .iter()
                .filter(|&&i| {
                    let path = &self.files[self.fns[i].file].path;
                    path.ends_with(&format!("/{real_head}.rs"))
                        || path.ends_with(&format!("/{real_head}/mod.rs"))
                })
                .collect();
            if let [only] = in_module.as_slice() {
                return Callee::Resolved(**only);
            }
            let non_test: Vec<&usize> = cands.iter().filter(|&&i| !self.fns[i].in_test).collect();
            if let [only] = non_test.as_slice() {
                return Callee::Resolved(**only);
            }
        }
        Callee::Unresolved
    }

    /// Resolve a field- or local-receiver method call through a
    /// workspace-unique, non-std method name.
    fn resolve_unique_method(&self, name: &str) -> Callee {
        if COMMON_METHODS.contains(&name) {
            return Callee::Unresolved;
        }
        let Some(hits) = self.methods_by_name.get(name) else {
            return Callee::Unresolved;
        };
        let non_test: Vec<&usize> = hits.iter().filter(|&&i| !self.fns[i].in_test).collect();
        match non_test.as_slice() {
            [only] => Callee::Resolved(**only),
            _ => Callee::Unresolved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> (Vec<SourceFile>, ()) {
        let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        (parsed, ())
    }

    fn build(files: &[SourceFile]) -> Workspace<'_> {
        Workspace::build(files.iter().collect())
    }

    fn fn_idx(ws: &Workspace<'_>, name: &str) -> usize {
        ws.fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not indexed"))
    }

    #[test]
    fn plain_calls_resolve_same_file_then_unique() {
        let (files, _) = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); far(); } fn helper() {}",
            ),
            ("crates/b/src/lib.rs", "pub fn far() {}"),
        ]);
        let w = build(&files);
        let entry = fn_idx(&w, "entry");
        let resolved: Vec<&str> = w.calls[entry]
            .iter()
            .filter_map(|c| match c.callee {
                Callee::Resolved(t) => Some(w.fns[t].name.as_str()),
                Callee::Unresolved => None,
            })
            .collect();
        assert_eq!(resolved, vec!["helper", "far"]);
    }

    #[test]
    fn ambiguous_names_stay_unresolved() {
        let (files, _) = ws(&[
            ("crates/a/src/lib.rs", "pub fn dup() {}"),
            ("crates/b/src/lib.rs", "pub fn dup() {}"),
            ("crates/c/src/lib.rs", "pub fn caller() { dup(); }"),
        ]);
        let w = build(&files);
        let caller = fn_idx(&w, "caller");
        assert_eq!(w.calls[caller][0].callee, Callee::Unresolved);
    }

    #[test]
    fn self_method_calls_resolve_through_the_impl() {
        let src = "
            struct Engine;
            impl Engine {
                fn handle(&mut self) { self.endorse(); }
                fn endorse(&mut self) {}
            }
        ";
        let (files, _) = ws(&[("crates/a/src/lib.rs", src)]);
        let w = build(&files);
        let handle = fn_idx(&w, "handle");
        let Callee::Resolved(t) = w.calls[handle][0].callee else {
            panic!("self.endorse() should resolve: {:?}", w.calls[handle]);
        };
        assert_eq!(w.fns[t].name, "endorse");
    }

    #[test]
    fn qualified_calls_resolve_through_impl_and_alias() {
        let (files, _) = ws(&[
            (
                "crates/core/src/rng.rs",
                "pub struct SimRng; impl SimRng { pub fn derive(seed: u64, s: u64) -> SimRng { SimRng } }",
            ),
            (
                "crates/user/src/gen.rs",
                "use core::rng::SimRng;\npub fn generate() { SimRng::derive(1, 2); }",
            ),
        ]);
        let w = build(&files);
        let generate = fn_idx(&w, "generate");
        let Callee::Resolved(t) = w.calls[generate][0].callee else {
            panic!("SimRng::derive should resolve");
        };
        assert_eq!(w.fns[t].name, "derive");
    }

    #[test]
    fn common_method_names_never_resolve_by_uniqueness() {
        let src = "
            struct Stack; impl Stack { fn push(&mut self, x: u32) {} }
            fn caller(v: &mut Vec<u32>) { v.push(1); }
        ";
        let (files, _) = ws(&[("crates/a/src/lib.rs", src)]);
        let w = build(&files);
        let caller = fn_idx(&w, "caller");
        assert_eq!(
            w.calls[caller][0].callee,
            Callee::Unresolved,
            "v.push must not resolve to Stack::push"
        );
    }

    #[test]
    fn reachability_records_parent_chains() {
        let src = "
            fn root() { mid(); }
            fn mid() { leaf(); }
            fn leaf() {}
            fn island() {}
        ";
        let (files, _) = ws(&[("crates/a/src/lib.rs", src)]);
        let w = build(&files);
        let reach = w.reachable(&[fn_idx(&w, "root")]);
        assert!(reach.contains_key(&fn_idx(&w, "leaf")));
        assert!(!reach.contains_key(&fn_idx(&w, "island")));
        assert_eq!(w.chain(&reach, fn_idx(&w, "leaf")), "root → mid → leaf");
    }

    #[test]
    fn const_resolution_prefers_same_file_then_imports() {
        let (files, _) = ws(&[
            (
                "crates/a/src/streams.rs",
                "pub const DROP_STREAM: u64 = 1; pub const LOCAL: u64 = 2;",
            ),
            (
                "crates/b/src/gen.rs",
                "use a::streams::DROP_STREAM;\npub const LOCAL: u64 = 3;\npub fn f() {}",
            ),
        ]);
        let w = build(&files);
        let gen_file = 1usize;
        let local = w.resolve_const(gen_file, "LOCAL").expect("local resolves");
        assert_eq!(local.file, gen_file, "same-file wins over the other LOCAL");
        let drop = w.resolve_const(gen_file, "DROP_STREAM").expect("import");
        assert_eq!(drop.file, 0);
        assert_eq!(drop.ty, "u64");
    }

    #[test]
    fn macros_and_nested_fn_decls_are_not_calls() {
        let src = "fn f() { println!(\"x\"); fn nested(a: u32) {} nested(1); }";
        let (files, _) = ws(&[("crates/a/src/lib.rs", src)]);
        let w = build(&files);
        let f = fn_idx(&w, "f");
        let names: Vec<&str> = w.calls[f].iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["nested"], "{:?}", w.calls[f]);
    }
}
