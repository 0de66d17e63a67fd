//! Workspace item index: a hand-rolled item-level parser on top of the
//! lexer.
//!
//! The index records every `fn` (free functions, inherent and trait-impl
//! methods, trait default methods) with its module path, enclosing type,
//! parameter types, and the token range of its body — enough for the call-graph builder and the interprocedural
//! passes to work without ever type-checking. It also records trait
//! definitions (for trait-object dispatch), which types implement which
//! traits, and per-file `use` renames (so a call through
//! `use crate::a::b as c;` still resolves).
//!
//! The parser is deliberately conservative: anything it cannot classify it
//! skips, so an exotic construct degrades analysis precision, never
//! correctness of the build.

use std::collections::HashMap;

use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// How a parameter (or `let` binding) is typed, as far as the index cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamTy {
    /// A concrete nominal type; the stored name is the path's last segment
    /// before any generic arguments (`&mut Vec<Foo>` records `Vec`).
    Named(String),
    /// A trait object or `impl Trait` (`&dyn Sink`, `Box<dyn Sink>`,
    /// `impl Iterator`); the stored name is the trait.
    TraitObj(String),
}

/// One indexed function.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index into `Workspace::files`.
    pub file_idx: usize,
    /// Crate directory name (`dram-sim`).
    pub crate_name: String,
    /// Module path inside the crate (`["channel"]`), file- and inline-mods
    /// combined. The crate root is the empty path.
    pub module_path: Vec<String>,
    /// Enclosing `impl` type (or trait, for default methods); `None` for
    /// free functions.
    pub self_type: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range `[start, end]` of the body braces; `None` for
    /// bodyless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// Parameter names and types, `self` excluded.
    pub params: Vec<(String, Option<ParamTy>)>,
    /// Whether the item sits inside test-only code.
    pub is_test: bool,
}

impl FnItem {
    /// Display name for diagnostics: `Type::method` or `fn_name`.
    pub fn display(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

/// A trait definition and the methods it declares.
#[derive(Debug, Clone)]
pub struct TraitDef {
    /// Trait name.
    pub name: String,
    /// Declared method names (with or without default bodies).
    pub methods: Vec<String>,
}

/// A `use` rename visible in one file: simple name → path segments.
#[derive(Debug, Clone)]
pub struct UseEntry {
    /// The name the import is visible as in this file.
    pub alias: String,
    /// Full path segments as written (`["crate", "util", "boom"]`).
    pub path: Vec<String>,
}

/// The workspace-wide item index.
#[derive(Debug, Default)]
pub struct ItemIndex {
    /// Every indexed function.
    pub fns: Vec<FnItem>,
    /// Every trait definition.
    pub traits: Vec<TraitDef>,
    /// `impl Trait for Type` pairs: trait name → implementing type names.
    pub trait_impls: HashMap<String, Vec<String>>,
    /// Per-file `use` entries, keyed by file index.
    pub uses: HashMap<usize, Vec<UseEntry>>,
}

impl ItemIndex {
    /// Builds the index over every file in the workspace.
    pub fn build(ws: &Workspace) -> Self {
        let mut idx = ItemIndex::default();
        for (file_idx, file) in ws.files.iter().enumerate() {
            let mut p = Parser {
                file,
                file_idx,
                module_path: module_path_of(&file.rel_path),
                idx: &mut idx,
            };
            p.scan(0, file.tokens.len(), &ImplCtx::None);
        }
        idx
    }

    /// All non-test functions named `name` that are methods (have a self
    /// type).
    pub fn methods_named(&self, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test && f.self_type.is_some() && f.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// All non-test free functions named `name`.
    pub fn free_fns_named(&self, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test && f.self_type.is_none() && f.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// Methods named `name` on the concrete type `ty`.
    pub fn methods_on(&self, ty: &str, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test && f.self_type.as_deref() == Some(ty) && f.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// Methods named `name` reachable through a `dyn Trait` receiver: every
    /// implementation on a type implementing the trait, plus the trait's
    /// default body if indexed.
    pub fn trait_dispatch(&self, trait_name: &str, name: &str) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(types) = self.trait_impls.get(trait_name) {
            for ty in types {
                out.extend(self.methods_on(ty, name));
            }
        }
        // Default method body on the trait itself.
        out.extend(self.methods_on(trait_name, name));
        out
    }
}

/// Derives the module path from a workspace-relative file path:
/// `crates/dram-sim/src/channel.rs` → `["channel"]`,
/// `crates/x/src/passes/mod.rs` → `["passes"]`,
/// `crates/x/src/passes/foo.rs` → `["passes", "foo"]`, crate roots → `[]`.
fn module_path_of(rel_path: &str) -> Vec<String> {
    let Some(src_pos) = rel_path.find("src/") else {
        return Vec::new();
    };
    let tail = &rel_path[src_pos + 4..];
    let mut segs: Vec<String> = tail
        .trim_end_matches(".rs")
        .split('/')
        .map(str::to_string)
        .collect();
    if let Some(last) = segs.last() {
        if last == "lib" || last == "main" || last == "mod" {
            segs.pop();
        }
    }
    segs
}

/// What encloses the tokens currently being scanned.
enum ImplCtx {
    /// Module level.
    None,
    /// Inside `impl Type` / `impl Trait for Type`.
    Impl {
        type_name: String,
        trait_name: Option<String>,
    },
    /// Inside `trait Name { ... }`.
    Trait { name: String },
}

struct Parser<'a> {
    file: &'a SourceFile,
    file_idx: usize,
    module_path: Vec<String>,
    idx: &'a mut ItemIndex,
}

impl Parser<'_> {
    /// Scans tokens in `[start, end)` at item level.
    fn scan(&mut self, start: usize, end: usize, ctx: &ImplCtx) {
        let toks = &self.file.tokens;
        let mut i = start;
        while i < end {
            let t = &toks[i];
            match (&t.kind, t.text.as_str()) {
                (TokKind::Punct('#'), _) => {
                    // Attribute: skip to the matching `]`.
                    i = skip_attribute(toks, i, end);
                }
                (TokKind::Ident, "mod") => {
                    if i + 1 < end && toks[i + 1].kind == TokKind::Ident {
                        let name = toks[i + 1].text.clone();
                        if let Some(open) = find_punct(toks, i + 2, end, '{', ';') {
                            let close = match_brace(toks, open, end);
                            self.module_path.push(name);
                            self.scan(open + 1, close, &ImplCtx::None);
                            self.module_path.pop();
                            i = close + 1;
                            continue;
                        }
                    }
                    i += 1;
                }
                (TokKind::Ident, "impl") => {
                    let (type_name, trait_name, open) = parse_impl_header(toks, i + 1, end);
                    match open {
                        Some(open) => {
                            let close = match_brace(toks, open, end);
                            if let Some(tn) = &type_name {
                                if let Some(tr) = &trait_name {
                                    self.idx
                                        .trait_impls
                                        .entry(tr.clone())
                                        .or_default()
                                        .push(tn.clone());
                                }
                                let ctx = ImplCtx::Impl {
                                    type_name: tn.clone(),
                                    trait_name: trait_name.clone(),
                                };
                                self.scan(open + 1, close, &ctx);
                            }
                            i = close + 1;
                        }
                        None => i += 1,
                    }
                }
                (TokKind::Ident, "trait") => {
                    if i + 1 < end && toks[i + 1].kind == TokKind::Ident {
                        let name = toks[i + 1].text.clone();
                        if let Some(open) = find_punct(toks, i + 2, end, '{', ';') {
                            let close = match_brace(toks, open, end);
                            let before = self.idx.fns.len();
                            self.scan(open + 1, close, &ImplCtx::Trait { name: name.clone() });
                            let methods = self.idx.fns[before..]
                                .iter()
                                .map(|f| f.name.clone())
                                .collect();
                            self.idx.traits.push(TraitDef { name, methods });
                            i = close + 1;
                            continue;
                        }
                    }
                    i += 1;
                }
                (TokKind::Ident, "fn") => {
                    i = self.parse_fn(i, end, ctx);
                }
                (TokKind::Ident, "use") => {
                    i = self.parse_use(i + 1, end);
                }
                (TokKind::Ident, "struct" | "enum" | "union") => {
                    i = skip_type_item(toks, i + 1, end);
                }
                (TokKind::Ident, "const" | "static" | "type") => {
                    // `const fn` / `static` items; let the `fn` branch handle
                    // functions, otherwise skip to the terminating `;`.
                    if i + 1 < end && toks[i + 1].is_ident("fn") {
                        i += 1;
                    } else {
                        i = skip_to_semi(toks, i + 1, end);
                    }
                }
                (TokKind::Ident, "macro_rules") => {
                    if let Some(open) = find_punct(toks, i + 1, end, '{', ';') {
                        i = match_brace(toks, open, end) + 1;
                    } else {
                        i += 1;
                    }
                }
                _ => i += 1,
            }
        }
    }

    /// Parses one `fn` item starting at the `fn` keyword; returns the index
    /// just past the item.
    fn parse_fn(&mut self, fn_kw: usize, end: usize, ctx: &ImplCtx) -> usize {
        let toks = &self.file.tokens;
        let Some(name_tok) = toks.get(fn_kw + 1) else {
            return fn_kw + 1;
        };
        if name_tok.kind != TokKind::Ident {
            return fn_kw + 1;
        }
        let name = name_tok.text.clone();
        // Skip generics between the name and the parameter list.
        let mut j = fn_kw + 2;
        if j < end && toks[j].is_punct('<') {
            j = match_angle(toks, j, end) + 1;
        }
        if j >= end || !toks[j].is_punct('(') {
            return fn_kw + 1;
        }
        let params_open = j;
        let params_close = match_delim(toks, params_open, end, '(', ')');
        let params = parse_params(toks, params_open + 1, params_close);

        // Return type: tokens between `->` and the body `{`, a `;`, or a
        // `where` clause.
        let mut k = params_close + 1;
        if k + 1 < end && toks[k].is_punct('-') && toks[k + 1].is_punct('>') {
            k += 2;
            let mut angle = 0i32;
            while k < end {
                match &toks[k].kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => angle -= 1,
                    TokKind::Punct('{') | TokKind::Punct(';') if angle <= 0 => break,
                    TokKind::Ident if toks[k].text == "where" && angle <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
        }
        // Skip a where clause.
        while k < end && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
            k += 1;
        }
        let (body, next) = if k < end && toks[k].is_punct('{') {
            let close = match_brace(toks, k, end);
            (Some((k, close)), close + 1)
        } else {
            (None, (k + 1).min(end))
        };

        let (self_type, trait_name) = match ctx {
            ImplCtx::None => (None, None),
            ImplCtx::Impl {
                type_name,
                trait_name,
            } => (Some(type_name.clone()), trait_name.clone()),
            ImplCtx::Trait { name } => (Some(name.clone()), Some(name.clone())),
        };
        self.idx.fns.push(FnItem {
            file_idx: self.file_idx,
            crate_name: self.file.crate_name.clone(),
            module_path: self.module_path.clone(),
            self_type,
            trait_name,
            name,
            line: toks[fn_kw].line,
            body,
            params,
            is_test: self.file.test_mask.get(fn_kw).copied().unwrap_or(false),
        });
        next
    }

    /// Parses a `use` declaration after the `use` keyword; returns the index
    /// just past the terminating `;`. Handles `a::b`, `a::b as c` and one
    /// level of `{...}` groups.
    fn parse_use(&mut self, start: usize, end: usize) -> usize {
        let toks = &self.file.tokens;
        let mut prefix: Vec<String> = Vec::new();
        let mut i = start;
        while i < end {
            match &toks[i].kind {
                TokKind::Ident => {
                    prefix.push(toks[i].text.clone());
                    i += 1;
                }
                TokKind::Punct(':') => i += 1,
                TokKind::Punct('{') => {
                    let close = match_brace(toks, i, end);
                    let mut item: Vec<String> = Vec::new();
                    let mut alias: Option<String> = None;
                    let mut saw_as = false;
                    let mut j = i + 1;
                    let mut depth = 0i32;
                    while j <= close {
                        let done = j == close || (depth == 0 && toks[j].is_punct(','));
                        if done {
                            if let Some(entry) = use_entry(&prefix, &item, alias.take()) {
                                self.idx.uses.entry(self.file_idx).or_default().push(entry);
                            }
                            item.clear();
                            saw_as = false;
                            j += 1;
                            continue;
                        }
                        match &toks[j].kind {
                            TokKind::Punct('{') => depth += 1,
                            TokKind::Punct('}') => depth -= 1,
                            TokKind::Ident if toks[j].text == "as" && depth == 0 => saw_as = true,
                            TokKind::Ident if depth == 0 => {
                                if saw_as {
                                    alias = Some(toks[j].text.clone());
                                } else {
                                    item.push(toks[j].text.clone());
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    return skip_to_semi(toks, close + 1, end);
                }
                TokKind::Punct(';') => {
                    // Flat path, possibly with a trailing `as alias`.
                    let (path, alias) = split_as(&prefix);
                    if let Some(entry) = use_entry(&[], &path, alias) {
                        self.idx.uses.entry(self.file_idx).or_default().push(entry);
                    }
                    return i + 1;
                }
                TokKind::Punct('*') => {
                    // Glob import: nothing nameable to record.
                    return skip_to_semi(toks, i + 1, end);
                }
                _ => i += 1,
            }
        }
        end
    }
}

/// Splits `["a", "b", "as", "c"]` into (`["a","b"]`, `Some("c")`).
fn split_as(segs: &[String]) -> (Vec<String>, Option<String>) {
    if let Some(pos) = segs.iter().position(|s| s == "as") {
        (segs[..pos].to_vec(), segs.get(pos + 1).cloned())
    } else {
        (segs.to_vec(), None)
    }
}

/// Builds a [`UseEntry`] from a path prefix, item segments, and an optional
/// alias. Returns `None` for empty or `self`-only items.
fn use_entry(prefix: &[String], item: &[String], alias: Option<String>) -> Option<UseEntry> {
    let (item, alias) = match alias {
        Some(a) => (item.to_vec(), Some(a)),
        None => {
            let (path, a) = split_as(item);
            (path, a)
        }
    };
    let mut path: Vec<String> = prefix.to_vec();
    path.extend(item.iter().cloned());
    // `use a::b::{self}` imports `b` itself.
    if path.last().map(|s| s == "self").unwrap_or(false) {
        path.pop();
    }
    let last = path.last()?.clone();
    let alias = alias.unwrap_or(last);
    Some(UseEntry { alias, path })
}

/// Parses a parameter list token range into `(name, type)` pairs, skipping
/// any `self` receiver.
fn parse_params(toks: &[Token], start: usize, end: usize) -> Vec<(String, Option<ParamTy>)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        // One parameter: tokens up to a top-level comma.
        let mut depth = 0i32;
        let p_start = i;
        while i < end {
            match &toks[i].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => depth -= 1,
                TokKind::Punct(',') if depth <= 0 => break,
                _ => {}
            }
            i += 1;
        }
        let p_end = i;
        i += 1; // past the comma
                // Find the top-level `:` separating pattern and type.
        let mut colon = None;
        let mut depth = 0i32;
        for j in p_start..p_end {
            match &toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => depth -= 1,
                TokKind::Punct(':') if depth == 0 => {
                    // `::` is two adjacent colons; a lone `:` is the separator.
                    let double = (j + 1 < p_end && toks[j + 1].is_punct(':'))
                        || (j > p_start && toks[j - 1].is_punct(':'));
                    if !double {
                        colon = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(colon) = colon else {
            continue; // `self`, `&mut self`, or an unreadable pattern
        };
        // Name: last ident of the pattern (handles `mut x`).
        let name = toks[p_start..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
            .map(|t| t.text.clone());
        let Some(name) = name else { continue };
        if name == "self" {
            continue;
        }
        let ty = extract_type(&toks[colon + 1..p_end]);
        out.push((name, ty));
    }
    out
}

/// Extracts the analysable type from a type token slice: a trait object /
/// `impl Trait` becomes [`ParamTy::TraitObj`]; otherwise the last plain
/// ident of the leading path at angle depth zero (`&mut a::Vec<Foo>` →
/// `Vec`).
pub fn extract_type(toks: &[Token]) -> Option<ParamTy> {
    for (j, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && (t.text == "dyn" || t.text == "impl") {
            let tr = toks[j + 1..].iter().find(|t| t.kind == TokKind::Ident)?;
            return Some(ParamTy::TraitObj(tr.text.clone()));
        }
    }
    let mut last: Option<String> = None;
    let mut angle = 0i32;
    for t in toks {
        match &t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Ident if angle == 0 => {
                if t.text == "mut" || t.text == "ref" {
                    continue;
                }
                last = Some(t.text.clone());
            }
            // A container like `Box<dyn _>` was handled above; for
            // `Option<Foo>` we keep the container name, which is the honest
            // conservative answer (we cannot see through the generic).
            _ => {}
        }
        if angle > 0 && last.is_some() {
            break; // keep the container, don't descend into generics
        }
    }
    last.map(ParamTy::Named)
}

/// Parses an `impl` header after the `impl` keyword. Returns
/// `(type_name, trait_name, index_of_open_brace)`.
fn parse_impl_header(
    toks: &[Token],
    start: usize,
    end: usize,
) -> (Option<String>, Option<String>, Option<usize>) {
    let mut i = start;
    // Skip generic parameters right after `impl`.
    if i < end && toks[i].is_punct('<') {
        i = match_angle(toks, i, end) + 1;
    }
    let mut first_path_last: Option<String> = None;
    let mut second_path_last: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0i32;
    while i < end {
        match (&toks[i].kind, toks[i].text.as_str()) {
            (TokKind::Punct('<'), _) => angle += 1,
            (TokKind::Punct('>'), _) => angle -= 1,
            (TokKind::Punct('{'), _) if angle <= 0 => {
                return if saw_for {
                    (second_path_last, first_path_last, Some(i))
                } else {
                    (first_path_last, None, Some(i))
                };
            }
            (TokKind::Ident, "for") if angle <= 0 => saw_for = true,
            (TokKind::Ident, "where") if angle <= 0 => {
                // Skip the where clause to the brace.
                while i < end && !toks[i].is_punct('{') {
                    i += 1;
                }
                continue;
            }
            (TokKind::Ident, name) if angle <= 0 && name != "dyn" => {
                if saw_for {
                    second_path_last = Some(name.to_string());
                } else {
                    first_path_last = Some(name.to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    (None, None, None)
}

// ---------------------------------------------------------------- helpers

/// Finds the first `want` punct in `[start, end)`, stopping early at `stop`.
fn find_punct(toks: &[Token], start: usize, end: usize, want: char, stop: char) -> Option<usize> {
    (start..end)
        .find(|&j| toks[j].is_punct(want))
        .filter(|&j| !(start..j).any(|k| toks[k].is_punct(stop)))
}

/// From the index of an opening `{`, returns the index of its matching `}`
/// (or the last token if unterminated).
pub fn match_brace(toks: &[Token], open: usize, end: usize) -> usize {
    match_delim(toks, open, end, '{', '}')
}

fn match_delim(toks: &[Token], open: usize, end: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < end {
        if toks[j].is_punct(o) {
            depth += 1;
        } else if toks[j].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    end.saturating_sub(1)
}

/// From the index of an opening `<`, returns the index of the matching `>`;
/// treats `->` and shifts conservatively (lint-level parsing only needs to
/// get past generics in signatures, where neither occurs).
fn match_angle(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < end {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    end.saturating_sub(1)
}

/// Skips an attribute starting at `#`; returns the index past the `]`.
fn skip_attribute(toks: &[Token], hash: usize, end: usize) -> usize {
    let mut j = hash + 1;
    if j < end && toks[j].is_punct('!') {
        j += 1;
    }
    if j < end && toks[j].is_punct('[') {
        return match_delim(toks, j, end, '[', ']') + 1;
    }
    hash + 1
}

/// Skips a struct/enum/union item body: to the first top-level `;` or
/// through the matching `{}` block.
fn skip_type_item(toks: &[Token], start: usize, end: usize) -> usize {
    let mut j = start;
    let mut paren = 0i32;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct(';') if paren == 0 => return j + 1,
            TokKind::Punct('{') if paren == 0 => return match_brace(toks, j, end) + 1,
            _ => {}
        }
        j += 1;
    }
    end
}

/// Skips to just past the next top-level `;`.
fn skip_to_semi(toks: &[Token], start: usize, end: usize) -> usize {
    let mut j = start;
    let mut depth = 0i32;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct(';') if depth <= 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn index(src: &str) -> ItemIndex {
        let ws = Workspace {
            files: vec![SourceFile::parse(
                "dram-sim",
                "crates/dram-sim/src/channel.rs",
                src,
                false,
            )],
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        };
        ItemIndex::build(&ws)
    }

    #[test]
    fn free_fn_and_method_are_indexed_with_module_path() {
        let idx = index(
            "pub fn helper(x: u64) -> u64 { x }\n\
             pub struct Channel { q: Vec<u64> }\n\
             impl Channel {\n    pub fn tick(&mut self, now: u64) { helper(now); }\n}\n",
        );
        assert_eq!(idx.fns.len(), 2);
        let helper = &idx.fns[0];
        assert_eq!(helper.name, "helper");
        assert_eq!(helper.module_path, ["channel"]);
        assert!(helper.self_type.is_none());
        let tick = &idx.fns[1];
        assert_eq!(tick.display(), "Channel::tick");
        assert_eq!(
            tick.params,
            [("now".to_string(), Some(ParamTy::Named("u64".into())))]
        );
        assert!(tick.body.is_some());
    }

    #[test]
    fn trait_impl_records_trait_and_type() {
        let idx = index(
            "pub trait Sink {\n    fn push(&mut self, v: u64);\n    fn twice(&mut self, v: u64) { self.push(v); }\n}\n\
             pub struct Ring;\n\
             impl Sink for Ring {\n    fn push(&mut self, v: u64) {}\n}\n",
        );
        let tr = idx.traits.iter().find(|t| t.name == "Sink").unwrap();
        assert!(tr.methods.contains(&"push".to_string()));
        assert!(tr.methods.contains(&"twice".to_string()));
        assert_eq!(idx.trait_impls["Sink"], ["Ring"]);
        let push_impl = idx
            .fns
            .iter()
            .find(|f| f.name == "push" && f.self_type.as_deref() == Some("Ring"))
            .unwrap();
        assert_eq!(push_impl.trait_name.as_deref(), Some("Sink"));
    }

    #[test]
    fn inline_mod_extends_the_module_path() {
        let idx = index("mod inner {\n    pub fn deep() {}\n}\nfn outer() {}\n");
        let deep = idx.fns.iter().find(|f| f.name == "deep").unwrap();
        assert_eq!(deep.module_path, ["channel", "inner"]);
        let outer = idx.fns.iter().find(|f| f.name == "outer").unwrap();
        assert_eq!(outer.module_path, ["channel"]);
    }

    #[test]
    fn use_renames_and_groups_are_recorded() {
        let idx = index(
            "use crate::util::boom;\n\
             use crate::util::helpers::{spark, fizz as buzz};\n\
             use std::collections::HashMap as Map;\n",
        );
        let uses = &idx.uses[&0];
        let get = |a: &str| uses.iter().find(|u| u.alias == a).unwrap();
        assert_eq!(get("boom").path, ["crate", "util", "boom"]);
        assert_eq!(get("spark").path, ["crate", "util", "helpers", "spark"]);
        assert_eq!(get("buzz").path, ["crate", "util", "helpers", "fizz"]);
        assert_eq!(get("Map").path, ["std", "collections", "HashMap"]);
    }

    #[test]
    fn trait_object_and_impl_trait_params() {
        let idx = index(
            "trait Sink { fn push(&mut self); }\n\
             fn a(s: &mut dyn Sink) {}\n\
             fn b(s: Box<dyn Sink>) {}\n\
             fn c(s: impl Sink) {}\n",
        );
        for name in ["a", "b", "c"] {
            let f = idx.fns.iter().find(|f| f.name == name).unwrap();
            assert_eq!(
                f.params[0].1,
                Some(ParamTy::TraitObj("Sink".into())),
                "{name}"
            );
        }
    }

    #[test]
    fn test_fns_are_marked() {
        let idx = index("fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n");
        assert!(!idx.fns.iter().find(|f| f.name == "live").unwrap().is_test);
        assert!(idx.fns.iter().find(|f| f.name == "t").unwrap().is_test);
    }

    #[test]
    fn const_fn_and_generic_fn_parse() {
        let idx = index(
            "pub const fn cap() -> usize { 8 }\n\
             pub fn pick<T: Clone>(items: &[T], n: usize) -> T where T: Default { items[n].clone() }\n",
        );
        assert!(idx.fns.iter().any(|f| f.name == "cap"));
        let pick = idx.fns.iter().find(|f| f.name == "pick").unwrap();
        assert_eq!(pick.params.len(), 2);
    }

    #[test]
    fn module_paths_from_file_layout() {
        assert_eq!(
            module_path_of("crates/dram-sim/src/lib.rs"),
            Vec::<String>::new()
        );
        assert_eq!(module_path_of("crates/x/src/passes/mod.rs"), ["passes"]);
        assert_eq!(
            module_path_of("crates/x/src/passes/foo.rs"),
            ["passes", "foo"]
        );
        assert_eq!(module_path_of("src/main.rs"), Vec::<String>::new());
    }
}
