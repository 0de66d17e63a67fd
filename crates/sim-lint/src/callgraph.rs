//! Conservative call graph over the [`ItemIndex`](crate::items::ItemIndex).
//!
//! Edges are added only when a call site resolves with high confidence:
//!
//! * `helper(...)` — a free function in the caller's own module, a
//!   `use`-imported (possibly renamed) function, or a workspace-unique
//!   free-function name;
//! * `Type::method(...)` — a qualified method on a known type (through
//!   `use ... as` renames too);
//! * `self.method(...)` — a method on the enclosing `impl` type;
//! * `x.method(...)` where `x` is a parameter or `let` binding whose type
//!   is known (annotation or `Type::new(...)`-style construction) — a
//!   method on that type, or every implementor's method for a
//!   `dyn`/`impl Trait` receiver;
//! * `expr.method(...)` with an opaque receiver — only when exactly one
//!   method in the whole workspace has that name.
//!
//! Ambiguous method names on opaque receivers produce **no** edge: the
//! graph under-approximates rather than fabricate chains, so every
//! reported call chain is real. Clippy's per-site panic lints backstop the
//! under-approximation inside the hot crates. Calls inside
//! closures fall within their enclosing function's body range and are
//! attributed to it, which is exactly the attribution the reachability
//! passes want.

use std::collections::HashMap;

use crate::items::{FnItem, ItemIndex, ParamTy};
use crate::lexer::{TokKind, Token};
use crate::workspace::Workspace;

/// One resolved call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling function in `ItemIndex::fns`.
    pub caller: usize,
    /// Index of the called function in `ItemIndex::fns`.
    pub callee: usize,
    /// 1-based line of the call.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every resolved call site, in discovery order.
    pub sites: Vec<CallSite>,
    /// Adjacency: caller fn index → callee fn indices (deduplicated).
    pub callees: HashMap<usize, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph for every non-test function body in the index.
    pub fn build(ws: &Workspace, idx: &ItemIndex) -> Self {
        let mut g = CallGraph::default();
        for (caller_id, f) in idx.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let Some((body_start, body_end)) = f.body else {
                continue;
            };
            let toks = &ws.files[f.file_idx].tokens;
            let locals = collect_locals(f, toks, body_start, body_end);
            let mut i = body_start;
            while i < body_end {
                let t = &toks[i];
                if t.kind == TokKind::Ident
                    && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                {
                    for callee in resolve_call(idx, f, &locals, toks, i) {
                        g.add(caller_id, callee, t.line);
                    }
                }
                i += 1;
            }
        }
        g
    }

    fn add(&mut self, caller: usize, callee: usize, line: u32) {
        self.sites.push(CallSite {
            caller,
            callee,
            line,
        });
        let list = self.callees.entry(caller).or_default();
        if !list.contains(&callee) {
            list.push(callee);
        }
    }

    /// Breadth-first search from `roots`; returns, for every reached
    /// function, the predecessor on a shortest path (roots map to
    /// themselves).
    pub fn reach_with_parents(&self, roots: &[usize]) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &r in roots {
            parent.insert(r, r);
            queue.push_back(r);
        }
        while let Some(n) = queue.pop_front() {
            if let Some(next) = self.callees.get(&n) {
                for &c in next {
                    parent.entry(c).or_insert_with(|| {
                        queue.push_back(c);
                        n
                    });
                }
            }
        }
        parent
    }

    /// Reconstructs the call chain from a root to `node` using the parent
    /// map from [`Self::reach_with_parents`].
    pub fn chain_to(parents: &HashMap<usize, usize>, node: usize) -> Vec<usize> {
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(&p) = parents.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }
}

/// Local bindings with known types inside one function body: parameter
/// types plus `let x: Type = ...` annotations plus `let x = Type::new(...)`
/// constructions.
fn collect_locals(
    f: &FnItem,
    toks: &[Token],
    body_start: usize,
    body_end: usize,
) -> HashMap<String, ParamTy> {
    let mut locals: HashMap<String, ParamTy> = HashMap::new();
    for (name, ty) in &f.params {
        if let Some(ty) = ty {
            locals.insert(name.clone(), ty.clone());
        }
    }
    let mut i = body_start;
    while i + 2 < body_end {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < body_end && toks[j].is_ident("mut") {
                j += 1;
            }
            if j < body_end && toks[j].kind == TokKind::Ident {
                let name = toks[j].text.clone();
                if j + 1 < body_end && toks[j + 1].is_punct(':') {
                    // `let x: Type = ...` — type tokens run to the `=`.
                    let ty_start = j + 2;
                    let mut k = ty_start;
                    let mut angle = 0i32;
                    while k < body_end {
                        match &toks[k].kind {
                            TokKind::Punct('<') => angle += 1,
                            TokKind::Punct('>') => angle -= 1,
                            TokKind::Punct('=') | TokKind::Punct(';') if angle <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    if let Some(ty) = crate::items::extract_type(&toks[ty_start..k]) {
                        locals.insert(name, ty);
                    }
                } else if j + 3 < body_end
                    && toks[j + 1].is_punct('=')
                    && toks[j + 2].kind == TokKind::Ident
                    && toks[j + 3].is_punct(':')
                {
                    // `let x = Type::ctor(...)` — record the type when the
                    // path head is capitalised (a type, not a module).
                    let head = &toks[j + 2].text;
                    if head.chars().next().map(char::is_uppercase).unwrap_or(false) {
                        locals.insert(name, ParamTy::Named(head.clone()));
                    }
                }
            }
        }
        i += 1;
    }
    locals
}

/// Resolves one `ident (` call site to zero or more callee ids.
fn resolve_call(
    idx: &ItemIndex,
    caller: &FnItem,
    locals: &HashMap<String, ParamTy>,
    toks: &[Token],
    name_i: usize,
) -> Vec<usize> {
    let name = toks[name_i].text.as_str();
    if is_keyword(name) {
        return Vec::new();
    }
    let prev = name_i.checked_sub(1).map(|p| &toks[p]);
    match prev {
        Some(p) if p.is_punct('.') => resolve_method_call(idx, caller, locals, toks, name_i),
        Some(p) if p.is_punct(':') => resolve_qualified_call(idx, caller, toks, name_i),
        Some(p) if p.kind == TokKind::Ident && p.text == "fn" => Vec::new(),
        _ => resolve_free_call(idx, caller, name),
    }
}

/// `expr.name(...)`: resolve through the receiver when its type is known.
fn resolve_method_call(
    idx: &ItemIndex,
    caller: &FnItem,
    locals: &HashMap<String, ParamTy>,
    toks: &[Token],
    name_i: usize,
) -> Vec<usize> {
    let name = toks[name_i].text.as_str();
    // Receiver token sits before the `.`.
    let recv_i = name_i.wrapping_sub(2);
    let recv = toks.get(recv_i);
    let recv_starts_expr = recv_i
        .checked_sub(1)
        .map(|p| !matches!(toks[p].kind, TokKind::Punct('.') | TokKind::Punct(':')))
        .unwrap_or(true);
    if let Some(r) = recv {
        if r.kind == TokKind::Ident && recv_starts_expr {
            if r.text == "self" {
                if let Some(ty) = &caller.self_type {
                    let direct = idx.methods_on(ty, name);
                    if !direct.is_empty() {
                        return direct;
                    }
                    // A trait-impl method may call a sibling through the
                    // trait's default body.
                    if let Some(tr) = &caller.trait_name {
                        let via_trait = idx.methods_on(tr, name);
                        if !via_trait.is_empty() {
                            return via_trait;
                        }
                    }
                }
                return Vec::new();
            }
            if let Some(ty) = locals.get(&r.text) {
                return match ty {
                    ParamTy::Named(t) => idx.methods_on(t, name),
                    ParamTy::TraitObj(tr) => idx.trait_dispatch(tr, name),
                };
            }
        }
    }
    // Opaque receiver (field access, chained call, unknown local): only a
    // workspace-unique method name resolves.
    let candidates = idx.methods_named(name);
    if candidates.len() == 1 {
        candidates
    } else {
        Vec::new()
    }
}

/// `Path::name(...)`: the segment before the `::` names a type (method
/// call) or a module (free function).
fn resolve_qualified_call(
    idx: &ItemIndex,
    caller: &FnItem,
    toks: &[Token],
    name_i: usize,
) -> Vec<usize> {
    let name = toks[name_i].text.as_str();
    // Step back over one `::` to the qualifying segment — one segment of
    // qualification is enough to resolve.
    let mut q_i = name_i;
    if q_i >= 2 && toks[q_i - 1].is_punct(':') && toks[q_i - 2].is_punct(':') {
        q_i -= 3;
        if toks
            .get(q_i)
            .map(|t| t.kind != TokKind::Ident)
            .unwrap_or(true)
        {
            return Vec::new();
        }
    }
    if q_i == name_i {
        return Vec::new();
    }
    let mut qualifier = toks[q_i].text.clone();
    // Follow a `use ... as` rename of the qualifier.
    if let Some(uses) = idx.uses.get(&caller.file_idx) {
        if let Some(u) = uses.iter().find(|u| u.alias == qualifier) {
            if let Some(last) = u.path.last() {
                qualifier = last.clone();
            }
        }
    }
    if qualifier == "Self" {
        if let Some(ty) = &caller.self_type {
            qualifier = ty.clone();
        }
    }
    let on_type = idx.methods_on(&qualifier, name);
    if !on_type.is_empty() {
        return on_type;
    }
    // Module-qualified free function: `util::boom()`.
    let in_module: Vec<usize> = idx
        .free_fns_named(name)
        .into_iter()
        .filter(|&i| {
            let f = &idx.fns[i];
            f.module_path
                .last()
                .map(|m| *m == qualifier)
                .unwrap_or(false)
                || f.crate_name.replace('-', "_") == qualifier
        })
        .collect();
    in_module
}

/// Bare `name(...)`: same-module, `use`-imported (possibly renamed), or
/// workspace-unique.
fn resolve_free_call(idx: &ItemIndex, caller: &FnItem, name: &str) -> Vec<usize> {
    let all = idx.free_fns_named(name);
    // Same module and crate first.
    let same_module: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| {
            let f = &idx.fns[i];
            f.crate_name == caller.crate_name && f.module_path == caller.module_path
        })
        .collect();
    if !same_module.is_empty() {
        return same_module;
    }
    // A `use` import visible as this identifier: resolve through the
    // import's real path (so `use crate::util::boom as blast;` still
    // resolves `blast()`). If the import exists but names something we
    // cannot see (std, another workspace item kind), resolve to nothing
    // rather than guess.
    if let Some(uses) = idx.uses.get(&caller.file_idx) {
        if let Some(u) = uses.iter().find(|u| u.alias == name) {
            let real = u.path.last().map(String::as_str).unwrap_or(name);
            return idx
                .free_fns_named(real)
                .into_iter()
                .filter(|&i| use_path_matches(&idx.fns[i], &u.path))
                .collect();
        }
    }
    if all.len() == 1 {
        return all;
    }
    Vec::new()
}

/// Whether a `use` path (`["crate", "util", "helpers", "fizz"]`) plausibly
/// names this function: the final segment must be the function's name (the
/// alias already matched) and the preceding segments must be a suffix of
/// the function's module path.
fn use_path_matches(f: &FnItem, path: &[String]) -> bool {
    let Some((last, prefix)) = path.split_last() else {
        return false;
    };
    if *last != f.name {
        return false;
    }
    let meaningful: Vec<&String> = prefix
        .iter()
        .filter(|s| s.as_str() != "crate" && s.as_str() != "self" && s.as_str() != "super")
        .collect();
    // Segments may start with the crate name (external-path import).
    let mut mods: Vec<String> = vec![f.crate_name.replace('-', "_")];
    mods.extend(f.module_path.iter().cloned());
    meaningful.iter().all(|s| mods.iter().any(|m| m == *s))
}

fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "fn"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "where"
            | "impl"
            | "dyn"
            | "break"
            | "continue"
            | "else"
            | "unsafe"
            | "await"
            | "yield"
            | "box"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemIndex;
    use crate::source::SourceFile;
    use crate::workspace::Workspace;

    fn ws(files: Vec<(&str, &str, &str)>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(c, p, s)| SourceFile::parse(c, p, s, false))
                .collect(),
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        }
    }

    fn graph(files: Vec<(&str, &str, &str)>) -> (Workspace, ItemIndex, CallGraph) {
        let w = ws(files);
        let idx = ItemIndex::build(&w);
        let g = CallGraph::build(&w, &idx);
        (w, idx, g)
    }

    fn has_edge(idx: &ItemIndex, g: &CallGraph, caller: &str, callee: &str) -> bool {
        g.sites
            .iter()
            .any(|s| idx.fns[s.caller].display() == caller && idx.fns[s.callee].display() == callee)
    }

    #[test]
    fn direct_same_module_call() {
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "fn a() { b(); }\nfn b() {}\n",
        )]);
        assert!(has_edge(&idx, &g, "a", "b"));
    }

    #[test]
    fn self_method_call_resolves_to_enclosing_impl() {
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "struct Channel;\nimpl Channel {\n    fn tick(&mut self) { self.step(); }\n    fn step(&mut self) {}\n}\n",
        )]);
        assert!(has_edge(&idx, &g, "Channel::tick", "Channel::step"));
    }

    #[test]
    fn typed_param_receiver_resolves_shadowed_method_names() {
        // Two types share a method name; the typed receiver picks the right
        // one and ONLY that one.
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "struct Bank;\nimpl Bank { fn fire(&self) {} }\n\
             struct Gun;\nimpl Gun { fn fire(&self) {} }\n\
             fn go(b: &Bank) { b.fire(); }\n",
        )]);
        assert!(has_edge(&idx, &g, "go", "Bank::fire"));
        assert!(!has_edge(&idx, &g, "go", "Gun::fire"));
    }

    #[test]
    fn opaque_receiver_with_ambiguous_name_produces_no_edge() {
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "struct Bank;\nimpl Bank { fn fire(&self) {} }\n\
             struct Gun;\nimpl Gun { fn fire(&self) {} }\n\
             struct Holder { item: Gun }\n\
             fn go(h: &Holder) { h.item.fire(); }\n",
        )]);
        // Field receivers are opaque; with two candidate `fire`s the graph
        // stays silent rather than guess.
        assert!(!has_edge(&idx, &g, "go", "Bank::fire"));
        assert!(!has_edge(&idx, &g, "go", "Gun::fire"));
    }

    #[test]
    fn opaque_receiver_with_unique_name_resolves() {
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "struct Bank;\nimpl Bank { fn only_here(&self) {} }\n\
             struct Holder { item: Bank }\n\
             fn go(h: &Holder) { h.item.only_here(); }\n",
        )]);
        assert!(has_edge(&idx, &g, "go", "Bank::only_here"));
    }

    #[test]
    fn qualified_type_method_call() {
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "struct Bank;\nimpl Bank { fn new() -> Bank { Bank } }\nfn go() { let _b = Bank::new(); }\n",
        )]);
        assert!(has_edge(&idx, &g, "go", "Bank::new"));
    }

    #[test]
    fn trait_object_call_fans_out_to_all_impls() {
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "trait Sink { fn push(&mut self); }\n\
             struct A;\nimpl Sink for A { fn push(&mut self) {} }\n\
             struct B;\nimpl Sink for B { fn push(&mut self) {} }\n\
             fn go(s: &mut dyn Sink) { s.push(); }\n",
        )]);
        assert!(has_edge(&idx, &g, "go", "A::push"));
        assert!(has_edge(&idx, &g, "go", "B::push"));
    }

    #[test]
    fn use_rename_resolves_cross_module() {
        let (_, idx, g) = graph(vec![
            (
                "dram-sim",
                "crates/dram-sim/src/util.rs",
                "pub fn boom() {}\n",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/channel.rs",
                "use crate::util::boom as blast;\nfn go() { blast(); }\n",
            ),
        ]);
        assert!(has_edge(&idx, &g, "go", "boom"));
    }

    #[test]
    fn closure_calls_attributed_to_enclosing_fn() {
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "fn helper(v: u64) -> u64 { v }\n\
             fn go(xs: &[u64]) -> u64 { xs.iter().map(|x| helper(*x)).sum() }\n",
        )]);
        assert!(has_edge(&idx, &g, "go", "helper"));
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "fn push() {}\nfn go() { println!(\"push()\"); }\n",
        )]);
        assert!(!has_edge(&idx, &g, "go", "push"));
    }

    #[test]
    fn bfs_chain_reconstruction() {
        let (_, idx, g) = graph(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "struct Channel;\nimpl Channel { fn tick(&mut self) { mid(); } }\n\
             fn mid() { deep(); }\nfn deep() {}\n",
        )]);
        let tick = idx
            .fns
            .iter()
            .position(|f| f.display() == "Channel::tick")
            .unwrap();
        let deep = idx.fns.iter().position(|f| f.name == "deep").unwrap();
        let parents = g.reach_with_parents(&[tick]);
        assert!(parents.contains_key(&deep));
        let chain: Vec<String> = CallGraph::chain_to(&parents, deep)
            .into_iter()
            .map(|i| idx.fns[i].display())
            .collect();
        assert_eq!(chain, ["Channel::tick", "mid", "deep"]);
    }
}
