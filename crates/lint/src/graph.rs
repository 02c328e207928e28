//! Intra-workspace call graph: name resolution, hot-path roots, and BFS
//! reachability with parent pointers for chain diagnostics.
//!
//! Resolution is deliberately conservative (see DESIGN.md for the full
//! approximation list): `self.method()` resolves through the enclosing
//! `impl`; field chains (`self.events.push(…)`) resolve through parsed
//! struct field types, peeling `&`/`Box`/`Option` wrappers; a field or
//! binding typed as a workspace *trait* (e.g. `Box<dyn Policy>`) fans out
//! to every impl of that trait plus the trait's default bodies;
//! `Type::func(…)` resolves exactly after `use`-alias rewriting; bare
//! lowercase `func(…)` resolves to free functions by name. A method call
//! on an *unresolvable* receiver falls back to a unique-name match across
//! all impl methods, but only when the name is unambiguous workspace-wide
//! and not a common std method name.

use crate::parse::{core_type, FnDef, ParsedFile};
use crate::scrub::{is_ident_byte, next_nonws, prev_nonws, word_occurrences};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Hot-path root functions: the fault/touch entry points and the reclaim
/// and aging slices. Any function transitively reachable from these (or
/// from a `Policy` impl's hot methods) is in the *cone* the H-series
/// hygiene rules apply to.
pub const HOT_ROOTS: &[&str] = &[
    "Kernel::fault",
    "Kernel::touch",
    "Kernel::complete_major_fault",
    "Kernel::run_kswapd_slice",
    "Kernel::run_aging_slice",
];

/// `Policy` trait methods that run on the fault/reclaim path. `name`,
/// `stats`, `occupancy`, `introspect`, and `check_invariants` are
/// reporting/debug surface and deliberately excluded from the cone.
pub const POLICY_HOT_METHODS: &[&str] = &[
    "on_page_resident",
    "on_page_evicted",
    "forget",
    "on_fd_access",
    "reclaim",
    "wants_background",
    "background_work",
];

/// Std methods excluded from the unique-name fallback: linking `x.push()`
/// on an untyped receiver to the one workspace type with a `push` method
/// would fabricate edges.
const COMMON_METHODS: &[&str] = &[
    "new",
    "default",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "next",
    "clone",
    "fmt",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "take",
    "min",
    "max",
    "expect",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map",
    "and_then",
    "or_else",
    "ok",
    "err",
    "filter",
    "find",
    "any",
    "all",
    "fold",
    "count",
    "last",
    "first",
    "extend",
    "entry",
    "append",
    "retain",
    "drain",
    "front",
    "back",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "sort",
    "sort_unstable",
    "binary_search",
    "split_off",
    "write",
    "read",
    "flush",
    "abs",
    "sum",
    "rev",
];

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "loop", "fn", "move", "in", "as", "let",
    "unsafe", "ref", "mut", "box", "dyn", "impl", "where", "use", "pub", "enum", "struct", "trait",
    "type", "const", "static", "break", "continue", "crate", "super", "Self", "self", "async",
    "await", "true", "false",
];

/// A function node in the graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index into the workspace file list.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
    /// `Owner::name` symbol.
    pub symbol: String,
}

/// Workspace-wide name-resolution tables plus the call graph itself.
pub struct Graph {
    /// All function nodes, in (file, fn) order.
    pub nodes: Vec<FnNode>,
    /// Outgoing call edges per node (sorted, deduplicated).
    pub edges: Vec<Vec<usize>>,
    /// Root node indexes (hot-path entry points).
    pub roots: Vec<usize>,
    /// Per-node local typing environment (param/let bindings → core type).
    pub envs: Vec<BTreeMap<String, String>>,
    rets: Vec<String>,
    method_index: BTreeMap<(String, String), Vec<usize>>,
    free_index: BTreeMap<String, Vec<usize>>,
    trait_impls: BTreeMap<String, Vec<String>>,
    traits: BTreeSet<String>,
    structs: BTreeMap<String, BTreeMap<String, String>>,
    copy_types: BTreeSet<String>,
    method_owners: BTreeMap<String, BTreeSet<String>>,
}

impl Graph {
    /// The parsed function behind a node.
    pub fn def<'a>(&self, files: &'a [ParsedFile], node: usize) -> &'a FnDef {
        &files[self.nodes[node].file].fns[self.nodes[node].fn_idx]
    }

    /// Whether `ty` is a known `Copy` type (workspace derive or primitive).
    pub fn is_copy(&self, ty: &str) -> bool {
        const PRIMITIVES: &[&str] = &[
            "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
            "bool", "char", "f32", "f64",
        ];
        PRIMITIVES.contains(&ty) || self.copy_types.contains(ty)
    }

    /// Builds the graph over all parsed files.
    pub fn build(files: &[ParsedFile]) -> Graph {
        let mut nodes = Vec::new();
        for (fi, pf) in files.iter().enumerate() {
            for (gi, fd) in pf.fns.iter().enumerate() {
                nodes.push(FnNode {
                    file: fi,
                    fn_idx: gi,
                    symbol: fd.symbol(),
                });
            }
        }
        let rets = nodes
            .iter()
            .map(|n| files[n.file].fns[n.fn_idx].ret.clone())
            .collect();
        let mut g = Graph {
            edges: vec![Vec::new(); nodes.len()],
            roots: Vec::new(),
            envs: vec![BTreeMap::new(); nodes.len()],
            rets,
            method_index: BTreeMap::new(),
            free_index: BTreeMap::new(),
            trait_impls: BTreeMap::new(),
            traits: BTreeSet::new(),
            structs: BTreeMap::new(),
            copy_types: BTreeSet::new(),
            method_owners: BTreeMap::new(),
            nodes,
        };
        for pf in files {
            for (name, fields) in &pf.structs {
                g.structs
                    .entry(name.clone())
                    .or_default()
                    .extend(fields.iter().map(|(k, v)| (k.clone(), v.clone())));
            }
            g.copy_types.extend(pf.copy_types.iter().cloned());
            g.traits.extend(pf.traits_declared.iter().cloned());
        }
        for (ni, node) in g.nodes.iter().enumerate() {
            let fd = &files[node.file].fns[node.fn_idx];
            match &fd.owner {
                Some(owner) => {
                    g.method_index
                        .entry((owner.clone(), fd.name.clone()))
                        .or_default()
                        .push(ni);
                    g.method_owners
                        .entry(fd.name.clone())
                        .or_default()
                        .insert(owner.clone());
                    if let Some(tr) = &fd.trait_impl {
                        let impls = g.trait_impls.entry(tr.clone()).or_default();
                        if !impls.contains(owner) {
                            impls.push(owner.clone());
                        }
                    }
                }
                None => {
                    g.free_index.entry(fd.name.clone()).or_default().push(ni);
                }
            }
        }
        // Environments, then edges (edges consult envs for receiver types).
        for ni in 0..g.nodes.len() {
            g.envs[ni] = g.build_env(files, ni);
        }
        for ni in 0..g.nodes.len() {
            let mut out = g.calls_of(files, ni);
            out.sort_unstable();
            out.dedup();
            g.edges[ni] = out;
        }
        // Roots: named kernel entry points + Policy hot methods (impls and
        // trait default bodies).
        for (ni, node) in g.nodes.iter().enumerate() {
            let fd = &files[node.file].fns[node.fn_idx];
            if fd.body.is_none() {
                continue;
            }
            let named_root = HOT_ROOTS.contains(&node.symbol.as_str());
            let policy_impl = fd.trait_impl.as_deref() == Some("Policy")
                && POLICY_HOT_METHODS.contains(&fd.name.as_str());
            let policy_default = fd.in_trait
                && fd.owner.as_deref() == Some("Policy")
                && POLICY_HOT_METHODS.contains(&fd.name.as_str());
            if named_root || policy_impl || policy_default {
                g.roots.push(ni);
            }
        }
        g.roots
            .sort_by(|&a, &b| g.nodes[a].symbol.cmp(&g.nodes[b].symbol).then(a.cmp(&b)));
        g
    }

    /// The local typing environment for one function: parameters plus
    /// `let` bindings whose initializer type is inferable.
    fn build_env(&self, files: &[ParsedFile], ni: usize) -> BTreeMap<String, String> {
        let node = &self.nodes[ni];
        let pf = &files[node.file];
        let fd = &pf.fns[node.fn_idx];
        let mut env = BTreeMap::new();
        for (name, ty) in &fd.params {
            if !ty.is_empty() {
                env.insert(name.clone(), ty.clone());
            }
        }
        let Some((b0, b1)) = fd.body else {
            return env;
        };
        let body = &pf.text[b0..b1.min(pf.text.len())];
        for pos in word_occurrences(body, "let") {
            let mut k = pos + 3;
            if let Some((s, e, w)) = read_word_at(body, k) {
                if w == "mut" {
                    k = e;
                } else {
                    let _ = s;
                }
            }
            let Some((_, name_end, name)) = read_word_at(body, k) else {
                continue;
            };
            if KEYWORDS.contains(&name.as_str()) {
                continue;
            }
            let Some((p, c)) = next_nonws(body, name_end) else {
                continue;
            };
            let ty = match c {
                b':' if body.get(p + 1) != Some(&b':') => {
                    // `let name: Type = …`
                    let end = stmt_delim(body, p + 1);
                    let eq = eq_at_depth0(body, p + 1, end).unwrap_or(end);
                    core_type(&String::from_utf8_lossy(&body[p + 1..eq]))
                }
                b'=' if body.get(p + 1) != Some(&b'=') => {
                    let end = stmt_delim(body, p + 1);
                    self.expr_type(pf, &env, fd, body, p + 1, end)
                }
                _ => String::new(),
            };
            if !ty.is_empty() {
                env.insert(name, ty);
            }
        }
        env
    }

    /// Best-effort type of the expression in `body[from..end)`.
    fn expr_type(
        &self,
        pf: &ParsedFile,
        env: &BTreeMap<String, String>,
        fd: &FnDef,
        body: &[u8],
        from: usize,
        end: usize,
    ) -> String {
        let Some((start, c)) = next_nonws(body, from) else {
            return String::new();
        };
        if start >= end || (!is_ident_byte(c) || c.is_ascii_digit()) {
            return String::new();
        }
        // `Type::func(…)` / `module::func(…)` heads.
        if let Some((_, we, w)) = read_word_at(body, start) {
            if body.get(we) == Some(&b':') && body.get(we + 1) == Some(&b':') {
                if w.chars().next().is_some_and(|ch| ch.is_ascii_uppercase()) {
                    // Constructor-style call: the qualifier is the type.
                    return resolve_alias(pf, &w);
                }
                if let Some((_, me, m)) = read_word_at(body, we + 2) {
                    if next_nonws(body, me).is_some_and(|(_, ch)| ch == b'(') {
                        // `module::func(…)` → that free fn's return type.
                        if let Some(nodes) = self.free_index.get(&m) {
                            return self.node_ret(nodes);
                        }
                    }
                }
                return String::new();
            }
        }
        // Postfix chain: find the last `.ident(`/`.ident` step at depth 0
        // and resolve the chain up to and including it.
        let mut depth = 0i32;
        let mut last_dot: Option<usize> = None;
        let mut i = start;
        while i < end.min(body.len()) {
            match body[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b'.' if depth == 0 => last_dot = Some(i),
                b'?' if depth == 0 => {}
                _ => {}
            }
            i += 1;
        }
        match last_dot {
            Some(dot) => {
                let Some((_, me, m)) = read_word_at(body, dot + 1) else {
                    return String::new();
                };
                let recv = self.chain_type(pf, env, fd, body, dot);
                let is_call = next_nonws(body, me).is_some_and(|(_, ch)| ch == b'(');
                match (recv, is_call) {
                    (Some(t), true) => self.method_ret(&t, &m),
                    (Some(t), false) => self.field_type(&t, &m),
                    (None, _) => String::new(),
                }
            }
            None => {
                // A bare identifier or call.
                let Some((_, we, w)) = read_word_at(body, start) else {
                    return String::new();
                };
                if next_nonws(body, we).is_some_and(|(_, ch)| ch == b'(') {
                    if w.chars().next().is_some_and(|ch| ch.is_ascii_uppercase()) {
                        return w; // tuple-struct constructor
                    }
                    if let Some(nodes) = self.free_index.get(&w) {
                        return self.node_ret(nodes);
                    }
                    return String::new();
                }
                env.get(&w).cloned().unwrap_or_default()
            }
        }
    }

    /// First non-empty return type among same-name definitions
    /// (deterministic: node order is file order).
    fn node_ret(&self, nodes: &[usize]) -> String {
        nodes
            .iter()
            .map(|&n| self.rets[n].clone())
            .find(|r| !r.is_empty())
            .unwrap_or_default()
    }

    fn field_type(&self, ty: &str, field: &str) -> String {
        self.structs
            .get(ty)
            .and_then(|f| f.get(field))
            .cloned()
            .unwrap_or_default()
    }

    fn method_ret(&self, ty: &str, method: &str) -> String {
        for (owner, m) in candidate_owners(ty, method, &self.trait_impls, &self.traits) {
            if let Some(nodes) = self.method_index.get(&(owner, m)) {
                let r = self.node_ret(nodes);
                if !r.is_empty() {
                    return r;
                }
            }
        }
        String::new()
    }

    /// Resolves the receiver type of the postfix chain ending at the `.`
    /// at `dot` (e.g. for `self.mem.space(sp).pte(vpn)`, called with the
    /// final dot, returns the type of `self.mem.space(sp)`).
    pub fn chain_type(
        &self,
        pf: &ParsedFile,
        env: &BTreeMap<String, String>,
        fd: &FnDef,
        body: &[u8],
        dot: usize,
    ) -> Option<String> {
        let segs = chain_before(body, dot)?;
        let mut it = segs.iter();
        let first = it.next()?;
        let mut ty = match first {
            Seg::Name(n) if n == "self" => self.owner_type(fd)?,
            Seg::Name(n) => env.get(n).cloned().filter(|t| !t.is_empty())?,
            Seg::Call(n) => {
                let nodes = self.free_index.get(n)?;
                let t = self.node_ret(nodes);
                if t.is_empty() {
                    return None;
                }
                t
            }
            Seg::QualCall(t, m) => {
                let t = resolve_alias(pf, t);
                let r = self.method_ret(&t, m);
                if r.is_empty() {
                    return None;
                }
                r
            }
        };
        for seg in it {
            ty = match seg {
                Seg::Name(f) => self.field_type(&ty, f),
                Seg::Call(m) => self.method_ret(&ty, m),
                Seg::QualCall(..) => String::new(),
            };
            if ty.is_empty() {
                return None;
            }
        }
        Some(ty)
    }

    fn owner_type(&self, fd: &FnDef) -> Option<String> {
        fd.owner.clone()
    }

    /// All call edges out of one function body.
    fn calls_of(&self, files: &[ParsedFile], ni: usize) -> Vec<usize> {
        let node = &self.nodes[ni];
        let pf = &files[node.file];
        let fd = &pf.fns[node.fn_idx];
        let env = &self.envs[ni];
        let Some((b0, b1)) = fd.body else {
            return Vec::new();
        };
        let text = &pf.text;
        let mut out = Vec::new();
        let mut i = b0;
        let b1 = b1.min(text.len());
        while i < b1 {
            let c = text[i];
            if !is_ident_byte(c) || c.is_ascii_digit() || (i > 0 && is_ident_byte(text[i - 1])) {
                i += 1;
                continue;
            }
            let start = i;
            let mut j = i;
            while j < b1 && is_ident_byte(text[j]) {
                j += 1;
            }
            i = j;
            let word = String::from_utf8_lossy(&text[start..j]).into_owned();
            if KEYWORDS.contains(&word.as_str()) {
                continue;
            }
            let Some((_, after)) = next_nonws(text, j) else {
                continue;
            };
            if after == b'!' {
                continue; // macro invocation
            }
            if after != b'(' {
                continue;
            }
            // Classify by what precedes the callee name.
            match prev_nonws(text, start) {
                Some((p, b'.')) => {
                    // Method call: type the receiver chain.
                    let recv = self.chain_type(pf, env, fd, text, p);
                    match recv {
                        Some(t) => out.extend(self.method_edges(&t, &word)),
                        None => out.extend(self.unique_fallback(&word)),
                    }
                }
                Some((p, b':')) if p > 0 && text[p - 1] == b':' => {
                    // `Qual::word(…)`.
                    let Some((_, qual)) = word_ending_before(text, p - 1) else {
                        continue;
                    };
                    if qual
                        .chars()
                        .next()
                        .is_some_and(|ch| ch.is_ascii_uppercase())
                    {
                        let t = if qual == "Self" {
                            fd.owner.clone().unwrap_or_default()
                        } else {
                            resolve_alias(pf, &qual)
                        };
                        out.extend(self.method_edges(&t, &word));
                    } else {
                        // `module::func(…)` — free fn by name.
                        let real = pf.uses.get(&word).cloned().unwrap_or(word.clone());
                        out.extend(self.free_edges(files, node.file, &real));
                    }
                }
                _ => {
                    // Bare call: free fn (skip Uppercase constructors).
                    if word
                        .chars()
                        .next()
                        .is_some_and(|ch| ch.is_ascii_lowercase() || ch == '_')
                    {
                        let real = pf.uses.get(&word).cloned().unwrap_or(word.clone());
                        out.extend(self.free_edges(files, node.file, &real));
                    }
                }
            }
        }
        out
    }

    /// Free-function edges for `name`, preferring same-crate definitions
    /// when any exist (cuts cross-crate name collisions).
    fn free_edges(&self, files: &[ParsedFile], from_file: usize, name: &str) -> Vec<usize> {
        let Some(nodes) = self.free_index.get(name) else {
            return Vec::new();
        };
        let crate_dir = &files[from_file].crate_dir;
        let same: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|&n| files[self.nodes[n].file].crate_dir == *crate_dir)
            .collect();
        if same.is_empty() {
            nodes.clone()
        } else {
            same
        }
    }

    /// Edges for a method call on a receiver of known core type `ty`.
    pub fn method_edges(&self, ty: &str, method: &str) -> Vec<usize> {
        let mut out = Vec::new();
        for key in candidate_owners(ty, method, &self.trait_impls, &self.traits) {
            if let Some(nodes) = self.method_index.get(&key) {
                out.extend(nodes.iter().copied());
            }
        }
        // A struct whose method isn't inherent may get it from a trait
        // default body: `impl Trait for Type {}` with the body on the trait.
        if out.is_empty() {
            for (tr, impls) in &self.trait_impls {
                if impls.iter().any(|t| t == ty) {
                    if let Some(nodes) = self.method_index.get(&(tr.clone(), method.to_owned())) {
                        out.extend(nodes.iter().copied());
                    }
                }
            }
        }
        out
    }

    /// Unique-name fallback for calls on untyped receivers.
    fn unique_fallback(&self, method: &str) -> Vec<usize> {
        if COMMON_METHODS.contains(&method) {
            return Vec::new();
        }
        match self.method_owners.get(method) {
            Some(owners) if owners.len() == 1 => {
                let owner = owners.iter().next().cloned().unwrap_or_default();
                self.method_index
                    .get(&(owner, method.to_owned()))
                    .cloned()
                    .unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }
}

/// Candidate `(owner, method)` keys for dispatch on `ty`: the type itself,
/// and — when `ty` is a workspace trait — every impl of it plus the trait's
/// own default bodies.
fn candidate_owners(
    ty: &str,
    method: &str,
    trait_impls: &BTreeMap<String, Vec<String>>,
    traits: &BTreeSet<String>,
) -> Vec<(String, String)> {
    let mut out = vec![(ty.to_owned(), method.to_owned())];
    if traits.contains(ty) {
        if let Some(impls) = trait_impls.get(ty) {
            for t in impls {
                out.push((t.clone(), method.to_owned()));
            }
        }
    }
    out
}

fn resolve_alias(pf: &ParsedFile, name: &str) -> String {
    pf.uses
        .get(name)
        .cloned()
        .unwrap_or_else(|| name.to_owned())
}

/// One step of a postfix receiver chain, front-to-back.
#[derive(Debug, PartialEq, Eq)]
enum Seg {
    /// Plain identifier (`self`, a local, or a field access).
    Name(String),
    /// Method/function call step `name(…)`.
    Call(String),
    /// Qualified call head `Type::name(…)`.
    QualCall(String, String),
}

/// Parses the postfix chain ending at the `.` at `dot`, back-to-front,
/// returning front-to-back segments. Gives up (None) on anything beyond
/// idents, calls, and one leading `Type::call(…)` head — parenthesized
/// expressions, indexing, literals.
fn chain_before(text: &[u8], dot: usize) -> Option<Vec<Seg>> {
    let mut segs: Vec<Seg> = Vec::new();
    let mut pos = dot; // looking at the byte just before `pos`
    loop {
        let (q, ch) = prev_nonws(text, pos)?;
        if is_ident_byte(ch) {
            let (start, name) = word_ending_at_checked(text, q + 1)?;
            // What precedes this ident?
            match prev_nonws(text, start) {
                Some((p, b'.')) => {
                    segs.push(Seg::Name(name));
                    pos = p;
                    continue;
                }
                Some((p, b':')) if p > 0 && text[p - 1] == b':' => {
                    // Qualified head must be `Type::ident` and `ident` is
                    // the chain root only if it's a field-like const — too
                    // ambiguous; bail.
                    return None;
                }
                _ => {
                    segs.push(Seg::Name(name));
                    break;
                }
            }
        } else if ch == b')' {
            let open = paren_back(text, q)?;
            let (start, name) = word_ending_before_checked(text, open)?;
            match prev_nonws(text, start) {
                Some((p, b'.')) => {
                    segs.push(Seg::Call(name));
                    pos = p;
                    continue;
                }
                Some((p, b':')) if p > 0 && text[p - 1] == b':' => {
                    let (_, qual) = word_ending_before_checked(text, p - 1)?;
                    if qual.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                        segs.push(Seg::QualCall(qual, name));
                        break;
                    }
                    return None;
                }
                _ => {
                    segs.push(Seg::Call(name));
                    break;
                }
            }
        } else {
            return None;
        }
    }
    segs.reverse();
    Some(segs)
}

fn word_ending_at_checked(text: &[u8], end: usize) -> Option<(usize, String)> {
    let mut start = end;
    while start > 0 && is_ident_byte(text[start - 1]) {
        start -= 1;
    }
    (start < end && !text[start].is_ascii_digit()).then(|| {
        (
            start,
            String::from_utf8_lossy(&text[start..end]).into_owned(),
        )
    })
}

fn word_ending_before(text: &[u8], pos: usize) -> Option<(usize, String)> {
    let (q, ch) = prev_nonws(text, pos)?;
    if !is_ident_byte(ch) {
        return None;
    }
    word_ending_at_checked(text, q + 1)
}

fn word_ending_before_checked(text: &[u8], pos: usize) -> Option<(usize, String)> {
    word_ending_before(text, pos)
}

fn paren_back(text: &[u8], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = close + 1;
    while i > 0 {
        i -= 1;
        match text[i] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

fn read_word_at(text: &[u8], from: usize) -> Option<(usize, usize, String)> {
    let (start, c) = next_nonws(text, from)?;
    if !is_ident_byte(c) || c.is_ascii_digit() {
        return None;
    }
    let mut end = start;
    while end < text.len() && is_ident_byte(text[end]) {
        end += 1;
    }
    Some((
        start,
        end,
        String::from_utf8_lossy(&text[start..end]).into_owned(),
    ))
}

/// First `;`, `{`, or top-level `,` after `from` — the end of a `let`
/// initializer expression.
fn stmt_delim(body: &[u8], from: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < body.len() {
        match body[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' if depth <= 0 => return i,
            b'{' if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    body.len()
}

/// Offset of a top-level `=` (not `==`, `<=`, etc.) in `body[from..end)`.
fn eq_at_depth0(body: &[u8], from: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = from;
    let end = end.min(body.len());
    while i < end {
        match body[i] {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b'=' if depth <= 0 => {
                let prev_op = i > from
                    && matches!(
                        body[i - 1],
                        b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/'
                    );
                let next_eq = body.get(i + 1) == Some(&b'=');
                if !prev_op && !next_eq {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// BFS reachability from the graph's roots, with parent pointers so any
/// reached node can be rendered as a root→…→node chain.
pub struct Reach {
    /// Parent node per reached node (roots have none).
    pub parent: Vec<Option<usize>>,
    /// Whether each node is reachable from a root.
    pub seen: Vec<bool>,
}

impl Reach {
    /// Computes reachability over `graph`.
    pub fn compute(graph: &Graph) -> Reach {
        let mut seen = vec![false; graph.nodes.len()];
        let mut parent = vec![None; graph.nodes.len()];
        let mut q = VecDeque::new();
        for &r in &graph.roots {
            if !seen[r] {
                seen[r] = true;
                q.push_back(r);
            }
        }
        while let Some(n) = q.pop_front() {
            for &m in &graph.edges[n] {
                if !seen[m] {
                    seen[m] = true;
                    parent[m] = Some(n);
                    q.push_back(m);
                }
            }
        }
        Reach { parent, seen }
    }

    /// Node chain root→…→`node` (inclusive).
    pub fn chain(&self, node: usize) -> Vec<usize> {
        let mut out = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent[cur] {
            out.push(p);
            cur = p;
            if out.len() > 1024 {
                break; // defensive: parent pointers cannot cycle, but cap anyway
            }
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::scrub::scrub;

    fn build(srcs: &[(&str, &str, &str)]) -> (Vec<ParsedFile>, Graph) {
        let files: Vec<ParsedFile> = srcs
            .iter()
            .map(|(rel, crate_dir, src)| parse_file(rel, crate_dir, scrub(src)))
            .collect();
        let g = Graph::build(&files);
        (files, g)
    }

    fn node(g: &Graph, sym: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.symbol == sym)
            .unwrap_or_else(|| panic!("no node {sym}"))
    }

    fn has_edge(g: &Graph, from: &str, to: &str) -> bool {
        g.edges[node(g, from)].contains(&node(g, to))
    }

    #[test]
    fn self_method_and_field_chain_edges() {
        let (_f, g) = build(&[(
            "a.rs",
            "core",
            "struct Q { h: u64 } impl Q { fn push(&mut self, x: u64) { self.h += x; } }\n\
             struct K { events: Q }\n\
             impl K {\n\
               fn fault(&mut self) { self.step(); self.events.push(1); }\n\
               fn step(&mut self) {}\n\
             }\n",
        )]);
        assert!(has_edge(&g, "K::fault", "K::step"));
        assert!(has_edge(&g, "K::fault", "Q::push"), "field-typed receiver");
    }

    #[test]
    fn trait_object_field_fans_out_to_impls() {
        let (_f, g) = build(&[(
            "a.rs",
            "core",
            "trait Policy { fn reclaim(&mut self) -> u32; fn warm(&mut self) { self.reclaim(); } }\n\
             struct Clock; impl Policy for Clock { fn reclaim(&mut self) -> u32 { 1 } }\n\
             struct Lru; impl Policy for Lru { fn reclaim(&mut self) -> u32 { 2 } }\n\
             struct K { policy: Box<dyn Policy> }\n\
             impl K { fn fault(&mut self) { self.policy.reclaim(); } }\n",
        )]);
        assert!(has_edge(&g, "K::fault", "Clock::reclaim"));
        assert!(has_edge(&g, "K::fault", "Lru::reclaim"));
        // Trait default bodies dispatch back through impls too.
        assert!(has_edge(&g, "Policy::warm", "Clock::reclaim"));
    }

    #[test]
    fn use_renames_resolve_free_and_type_calls() {
        let (_f, g) = build(&[
            (
                "util.rs",
                "util",
                "pub fn helper_a() { helper_b(); } pub fn helper_b() {}",
            ),
            (
                "k.rs",
                "core",
                "use crate::util::helper_a as ha;\n\
                 use crate::q::Queue as Q;\n\
                 struct Queue; impl Queue { fn push_raw(&mut self) {} }\n\
                 impl K { fn fault(&mut self) { ha(); Q::push_raw(); } }\n\
                 struct K;\n",
            ),
        ]);
        assert!(has_edge(&g, "K::fault", "helper_a"), "use-renamed free fn");
        assert!(has_edge(&g, "helper_a", "helper_b"));
        assert!(
            has_edge(&g, "K::fault", "Queue::push_raw"),
            "use-renamed type-qualified call"
        );
    }

    #[test]
    fn recursion_cycles_terminate_with_stable_chains() {
        let (_f, g) = build(&[(
            "a.rs",
            "core",
            "impl Kernel {\n\
               fn fault(&mut self) { ping(); }\n\
             }\n\
             struct Kernel;\n\
             fn ping() { pong(); }\n\
             fn pong() { ping(); }\n",
        )]);
        let reach = Reach::compute(&g);
        let pong = node(&g, "pong");
        assert!(reach.seen[pong]);
        let syms: Vec<&str> = reach
            .chain(pong)
            .into_iter()
            .map(|n| g.nodes[n].symbol.as_str())
            .collect();
        assert_eq!(syms, vec!["Kernel::fault", "ping", "pong"]);
    }

    #[test]
    fn untyped_receiver_unique_fallback_skips_common_names() {
        let (_f, g) = build(&[(
            "a.rs",
            "core",
            "struct Ring; impl Ring { fn enqueue_special(&mut self) {} fn push(&mut self) {} }\n\
             impl Kernel { fn fault(&mut self) { self.mystery.enqueue_special(); self.mystery.push(); } }\n\
             struct Kernel;\n",
        )]);
        assert!(
            has_edge(&g, "Kernel::fault", "Ring::enqueue_special"),
            "unique name links"
        );
        assert!(
            !has_edge(&g, "Kernel::fault", "Ring::push"),
            "common std name must not link on an untyped receiver"
        );
    }

    #[test]
    fn local_let_bindings_type_receivers() {
        let (files, g) = build(&[(
            "a.rs",
            "core",
            "struct Out { victims: Vec<u64> }\n\
             impl Out { fn grow(&mut self) {} }\n\
             impl Kernel { fn fault(&mut self) { let out = Out::default(); out.grow(); } }\n\
             struct Kernel;\n",
        )]);
        let ni = node(&g, "Kernel::fault");
        assert_eq!(g.envs[ni].get("out").map(String::as_str), Some("Out"));
        let _ = files;
        assert!(has_edge(&g, "Kernel::fault", "Out::grow"));
    }
}
