//! Lightweight item parser: extracts `fn`/`impl`/`trait`/`struct`/`use`
//! structure from scrubbed source, per file.
//!
//! This is not a Rust parser — the offline build has no `syn` — but a
//! single forward pass that recognizes item keywords at item position,
//! balances braces (sound on scrubbed text, where no brace hides inside a
//! literal or comment), and records just enough structure for the call
//! graph: function signatures with parameter/return types, impl/trait
//! ownership, struct field types, `Copy` derives, and `use` aliases.
//! Function *bodies* are skipped during item scanning, so expression-level
//! braces never confuse the item structure; nested items inside bodies are
//! a documented blind spot.

use crate::scrub::{
    is_ident_byte, match_brace, next_nonws, prev_nonws, word_occurrences, LineIndex,
};
use std::collections::{BTreeMap, BTreeSet};

/// One parsed function (or trait default method).
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type or `trait` name, if any.
    pub owner: Option<String>,
    /// For `impl Trait for Type` methods, the trait name.
    pub trait_impl: Option<String>,
    /// True for methods declared inside a `trait` block (default bodies).
    pub in_trait: bool,
    /// 1-based line of the function name.
    pub line: u32,
    /// Byte range of the signature (from `fn` through the byte before the
    /// body brace or terminating semicolon) in the scrubbed text.
    pub sig: (usize, usize),
    /// Byte range of the body interior (between the braces), if present.
    pub body: Option<(usize, usize)>,
    /// Non-`self` parameters as `(name, core type)`.
    pub params: Vec<(String, String)>,
    /// Core return type, or empty.
    pub ret: String,
}

impl FnDef {
    /// `Owner::name` or bare `name`.
    pub fn symbol(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the graph needs from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Crate directory name under `crates/` (or a synthetic label).
    pub crate_dir: String,
    /// Scrubbed, `#[cfg(test)]`-stripped text.
    pub text: Vec<u8>,
    /// Functions in source order.
    pub fns: Vec<FnDef>,
    /// `use` aliases: visible name → real (last) path segment.
    pub uses: BTreeMap<String, String>,
    /// Struct fields: type name → field name → core field type.
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
    /// Types with `#[derive(.. Copy ..)]`.
    pub copy_types: Vec<String>,
    /// Trait method names seen here, keyed by trait — from `trait` blocks
    /// *and* `impl Trait for Type` blocks (so external traits appear too).
    pub traits: BTreeMap<String, Vec<String>>,
    /// Traits *declared* in this file with the `trait` keyword. Only these
    /// get dynamic-dispatch fan-out in the call graph: a trait we cannot
    /// see (std `Default`, `Display`, …) would link every implementor to
    /// every call site and fabricate edges.
    pub traits_declared: BTreeSet<String>,
}

/// Reduces a type expression to its nominal core: strips references,
/// `mut`/`dyn`/`impl`, peels smart-pointer/option wrappers, and keeps the
/// last path segment before any generics. Non-nominal types (tuples,
/// slices, fn pointers) reduce to the empty string.
pub fn core_type(s: &str) -> String {
    let mut t = s.trim();
    loop {
        t = t.trim();
        if let Some(r) = t.strip_prefix('&') {
            t = r;
            continue;
        }
        let mut stripped = false;
        for kw in ["mut ", "dyn ", "impl "] {
            if let Some(r) = t.strip_prefix(kw) {
                t = r;
                stripped = true;
                break;
            }
        }
        if stripped {
            continue;
        }
        let mut peeled = false;
        for w in ["Box", "Rc", "Arc", "Option", "Cell", "RefCell"] {
            if let Some(r) = t.strip_prefix(w) {
                let r2 = r.trim_start();
                if let Some(inner) = r2.strip_prefix('<') {
                    t = inner.strip_suffix('>').unwrap_or(inner);
                    peeled = true;
                    break;
                }
            }
        }
        if !peeled {
            break;
        }
    }
    let t = t.split('<').next().unwrap_or(t).trim();
    let t = t.rsplit("::").next().unwrap_or(t).trim();
    if !t.is_empty() && t.bytes().all(is_ident_byte) {
        t.to_owned()
    } else {
        String::new()
    }
}

const MODIFIERS: &[&str] = &["pub", "unsafe", "async", "const", "default", "extern"];

/// Whether the keyword starting at `pos` sits at item position: preceded
/// (after skipping modifier words and `pub(crate)` groups) by `;`, `}`,
/// `{`, `]` (attribute end), or start of file.
fn item_pos(text: &[u8], pos: usize) -> bool {
    let mut p = pos;
    loop {
        let Some((q, ch)) = prev_nonws(text, p) else {
            return true;
        };
        if ch == b')' {
            // Possibly the `(crate)` of `pub(crate)`.
            let Some(open) = paren_back(text, q) else {
                return false;
            };
            let Some(w) = word_ending_before(text, open) else {
                return false;
            };
            if w.1 != "pub" {
                return false;
            }
            p = w.0;
            continue;
        }
        if is_ident_byte(ch) {
            let Some((start, w)) = word_ending_at(text, q + 1) else {
                return false;
            };
            if MODIFIERS.contains(&w.as_str()) {
                p = start;
                continue;
            }
            return false;
        }
        return matches!(ch, b';' | b'}' | b'{' | b']');
    }
}

/// Matching `(` for the `)` at `close`, scanning backward.
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

fn word_ending_before(text: &[u8], pos: usize) -> Option<(usize, String)> {
    let (q, ch) = prev_nonws(text, pos)?;
    if !is_ident_byte(ch) {
        return None;
    }
    word_ending_at(text, q + 1)
}

fn word_ending_at(text: &[u8], end: usize) -> Option<(usize, String)> {
    let mut start = end;
    while start > 0 && is_ident_byte(text[start - 1]) {
        start -= 1;
    }
    (start < end).then(|| {
        (
            start,
            String::from_utf8_lossy(&text[start..end]).into_owned(),
        )
    })
}

fn read_word(text: &[u8], from: usize) -> Option<(usize, usize, String)> {
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

/// Skips a balanced `<…>` group starting at `open` (which must be `<`),
/// tolerating `->` arrows inside. Returns the offset just past `>`.
fn skip_angles(text: &[u8], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < text.len() {
        match text[i] {
            b'<' => depth += 1,
            b'>' => {
                if i > 0 && text[i - 1] == b'-' {
                    // `->` arrow, not a closer.
                } else {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            b';' | b'{' => return i, // malformed; bail before the item body
            _ => {}
        }
        i += 1;
    }
    text.len()
}

/// Splits `text` on top-level commas (paren/angle/bracket depth 0).
fn split_top_commas(text: &[u8]) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, &c) in text.iter().enumerate() {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' => depth += 1,
            b'>' if i > 0 && text[i - 1] != b'-' => depth -= 1,
            b',' if depth == 0 => {
                parts.push((start, i));
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < text.len() {
        parts.push((start, text.len()));
    }
    parts
}

fn parse_params(text: &[u8]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (a, b) in split_top_commas(text) {
        let part = String::from_utf8_lossy(&text[a..b]).trim().to_owned();
        if part.is_empty() || part == "self" || part.ends_with("self") && !part.contains(':') {
            continue;
        }
        let Some((name, ty)) = split_top_colon(&part) else {
            continue;
        };
        let name = name.trim().trim_start_matches("mut ").trim().to_owned();
        if name.bytes().all(is_ident_byte) && !name.is_empty() {
            out.push((name, core_type(ty)));
        }
    }
    out
}

/// Splits on the first `:` at depth 0 that is not part of `::`.
fn split_top_colon(s: &str) -> Option<(&str, &str)> {
    let b = s.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' | b'<' => depth += 1,
            b')' | b']' | b'}' | b'>' => depth -= 1,
            b':' if depth == 0 => {
                if i + 1 < b.len() && b[i + 1] == b':' {
                    i += 2;
                    continue;
                }
                return Some((&s[..i], &s[i + 1..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

enum Ctx {
    Impl {
        ty: String,
        trait_name: Option<String>,
    },
    Trait {
        name: String,
    },
}

/// Parses one file's scrubbed text into its item structure.
pub fn parse_file(rel: &str, crate_dir: &str, text: Vec<u8>) -> ParsedFile {
    let lines = LineIndex::new(&text);
    let mut pf = ParsedFile {
        rel: rel.to_owned(),
        crate_dir: crate_dir.to_owned(),
        ..ParsedFile::default()
    };
    collect_copy_derives(&text, &mut pf.copy_types);
    let n = text.len();
    // (end offset, context)
    let mut ctxs: Vec<(usize, Ctx)> = Vec::new();
    let mut i = 0usize;
    while i < n {
        while ctxs.last().is_some_and(|(end, _)| i >= *end) {
            ctxs.pop();
        }
        let c = text[i];
        if !is_ident_byte(c) || c.is_ascii_digit() {
            i += 1;
            continue;
        }
        if i > 0 && is_ident_byte(text[i - 1]) {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i;
        while j < n && is_ident_byte(text[j]) {
            j += 1;
        }
        match &text[start..j] {
            b"use" if item_pos(&text, start) => {
                let end = parse_use(&text, j, &mut pf.uses);
                i = end;
                continue;
            }
            b"struct" if item_pos(&text, start) => {
                i = parse_struct(&text, j, &mut pf.structs);
                continue;
            }
            b"trait" if item_pos(&text, start) => {
                if let Some((header, open)) = parse_block_header(&text, j) {
                    let end = match_brace(&text, open);
                    // Drop supertrait bounds: `trait Policy: Send {`.
                    let name = core_type(header.split(':').next().unwrap_or(&header));
                    if !name.is_empty() {
                        pf.traits.entry(name.clone()).or_default();
                        pf.traits_declared.insert(name.clone());
                        ctxs.push((end, Ctx::Trait { name }));
                        i = open + 1;
                        continue;
                    }
                }
                i = j;
                continue;
            }
            b"impl" if item_pos(&text, start) => {
                if let Some((header, open)) = parse_block_header(&text, j) {
                    let end = match_brace(&text, open);
                    let header = header.split(" where ").next().unwrap_or(&header).to_owned();
                    let (ty, trait_name) = match split_for(&header) {
                        Some((tr, ty)) => (core_type(&ty), Some(core_type(&tr))),
                        None => (core_type(&header), None),
                    };
                    if !ty.is_empty() {
                        ctxs.push((end, Ctx::Impl { ty, trait_name }));
                        i = open + 1;
                        continue;
                    }
                }
                i = j;
                continue;
            }
            b"fn" if item_pos(&text, start) => {
                let (owner, trait_impl, in_trait) = match ctxs.last() {
                    Some((_, Ctx::Impl { ty, trait_name })) => {
                        (Some(ty.clone()), trait_name.clone(), false)
                    }
                    Some((_, Ctx::Trait { name })) => (Some(name.clone()), None, true),
                    None => (None, None, false),
                };
                match parse_fn(&text, start, j, &lines, owner, trait_impl, in_trait) {
                    Some((fd, next)) => {
                        if let (Some(owner), Some((_, Ctx::Trait { name }))) =
                            (&fd.owner, ctxs.last())
                        {
                            debug_assert_eq!(owner, name);
                            pf.traits
                                .entry(name.clone())
                                .or_default()
                                .push(fd.name.clone());
                        }
                        // Record decl-only trait methods too (body=None).
                        pf.fns.push(fd);
                        i = next;
                        continue;
                    }
                    None => {
                        i = j;
                        continue;
                    }
                }
            }
            _ => {}
        }
        i = j;
    }
    // Trait methods from impl-for blocks count toward trait method lists.
    let impl_traits: Vec<(String, String)> = pf
        .fns
        .iter()
        .filter_map(|f| f.trait_impl.clone().map(|t| (t, f.name.clone())))
        .collect();
    for (t, m) in impl_traits {
        let methods = pf.traits.entry(t).or_default();
        if !methods.contains(&m) {
            methods.push(m);
        }
    }
    pf.text = text;
    pf
}

/// `#[derive(.. Copy ..)]` → the next `struct`/`enum` name.
fn collect_copy_derives(text: &[u8], out: &mut Vec<String>) {
    for pos in word_occurrences(text, "derive") {
        let Some((_, prev)) = prev_nonws(text, pos) else {
            continue;
        };
        if prev != b'[' {
            continue;
        }
        let Some((open, c)) = next_nonws(text, pos + "derive".len()) else {
            continue;
        };
        if c != b'(' {
            continue;
        }
        let mut close = open;
        let mut depth = 0i32;
        while close < text.len() {
            match text[close] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        let inner = &text[open..close.min(text.len())];
        if word_occurrences(inner, "Copy").is_empty() {
            continue;
        }
        // Find the annotated item's name: next `struct` or `enum` word.
        let mut k = close;
        let limit = (close + 400).min(text.len());
        while k < limit {
            if let Some((_, e2, w)) = read_word(text, k) {
                if w == "struct" || w == "enum" {
                    if let Some((_, _, name)) = read_word(text, e2) {
                        out.push(name);
                    }
                    break;
                }
                k = e2;
            } else {
                k += 1;
            }
        }
    }
}

/// Parses `use path::{a, b as c};` starting just past the `use` keyword.
/// Records visible-name → real-name mappings. Returns the offset past `;`.
fn parse_use(text: &[u8], from: usize, uses: &mut BTreeMap<String, String>) -> usize {
    let n = text.len();
    let mut end = from;
    while end < n && text[end] != b';' {
        end += 1;
    }
    let stmt = String::from_utf8_lossy(&text[from..end]).trim().to_owned();
    let record = |uses: &mut BTreeMap<String, String>, item: &str| {
        let item = item.trim();
        if item.is_empty() || item == "*" {
            return;
        }
        let (path, alias) = match item.split_once(" as ") {
            Some((p, a)) => (p.trim(), Some(a.trim())),
            None => (item, None),
        };
        let real = path.rsplit("::").next().unwrap_or(path).trim();
        if real.is_empty() || real == "self" {
            return;
        }
        let visible = alias.unwrap_or(real);
        if visible.bytes().all(is_ident_byte) && real.bytes().all(is_ident_byte) {
            uses.insert(visible.to_owned(), real.to_owned());
        }
    };
    if let Some(brace) = stmt.find('{') {
        let inner = stmt[brace + 1..].trim_end_matches('}');
        for item in inner.split(',') {
            record(uses, item);
        }
    } else {
        record(uses, &stmt);
    }
    (end + 1).min(n)
}

/// Parses `struct Name { fields }` starting just past the keyword; returns
/// the offset to resume scanning at.
fn parse_struct(
    text: &[u8],
    from: usize,
    structs: &mut BTreeMap<String, BTreeMap<String, String>>,
) -> usize {
    let Some((_, name_end, name)) = read_word(text, from) else {
        return from;
    };
    let mut k = name_end;
    if let Some((p, b'<')) = next_nonws(text, k) {
        k = skip_angles(text, p);
    }
    match next_nonws(text, k) {
        Some((open, b'{')) => {
            let close = match_brace(text, open);
            let body = &text[open + 1..close.min(text.len())];
            let mut fields = BTreeMap::new();
            for (a, b) in split_top_commas(body) {
                let part = String::from_utf8_lossy(&body[a..b]).trim().to_owned();
                // Drop attributes and visibility modifiers.
                let part = part
                    .rsplit(']')
                    .next()
                    .unwrap_or(&part)
                    .trim()
                    .trim_start_matches("pub(crate)")
                    .trim_start_matches("pub(super)")
                    .trim()
                    .to_owned();
                let part = part.strip_prefix("pub ").unwrap_or(&part).trim().to_owned();
                if let Some((fname, fty)) = split_top_colon(&part) {
                    let fname = fname.trim();
                    if fname.bytes().all(is_ident_byte) && !fname.is_empty() {
                        fields.insert(fname.to_owned(), core_type(fty));
                    }
                }
            }
            structs.insert(name, fields);
            close + 1
        }
        Some((open, b'(')) => {
            // Tuple struct: skip to the `;`.
            let mut depth = 0i32;
            let mut i = open;
            while i < text.len() {
                match text[i] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            structs.insert(name, BTreeMap::new());
            i + 1
        }
        _ => {
            structs.insert(name, BTreeMap::new());
            name_end
        }
    }
}

/// For `impl`/`trait`: captures the header text from `from` up to the
/// opening `{` at angle depth 0, skipping a leading generics group.
fn parse_block_header(text: &[u8], from: usize) -> Option<(String, usize)> {
    let mut k = from;
    if let Some((p, b'<')) = next_nonws(text, k) {
        k = skip_angles(text, p);
    }
    let start = k;
    let mut depth = 0i32;
    while k < text.len() {
        match text[k] {
            b'<' => depth += 1,
            b'>' if k > 0 && text[k - 1] != b'-' => depth -= 1,
            b'{' if depth <= 0 => {
                let header = String::from_utf8_lossy(&text[start..k]).trim().to_owned();
                return Some((header, k));
            }
            b';' => return None, // `impl Trait for Type;` / malformed
            _ => {}
        }
        k += 1;
    }
    None
}

/// Splits `Trait for Type` at a top-level ` for `.
fn split_for(header: &str) -> Option<(String, String)> {
    let b = header.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i + 5 <= b.len() {
        match b[i] {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => depth -= 1,
            b'f' if depth == 0
                && header[i..].starts_with("for ")
                && i > 0
                && b[i - 1].is_ascii_whitespace() =>
            {
                return Some((
                    header[..i].trim().to_owned(),
                    header[i + 4..].trim().to_owned(),
                ));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

type FnParse = Option<(FnDef, usize)>;

/// Parses a `fn` starting at the keyword offset `kw` (name begins after
/// `name_from`). Returns the FnDef and the offset to resume scanning at.
fn parse_fn(
    text: &[u8],
    kw: usize,
    name_from: usize,
    lines: &LineIndex,
    owner: Option<String>,
    trait_impl: Option<String>,
    in_trait: bool,
) -> FnParse {
    let n = text.len();
    let (name_start, name_end, name) = read_word(text, name_from)?;
    let mut k = name_end;
    if let Some((p, b'<')) = next_nonws(text, k) {
        k = skip_angles(text, p);
    }
    let (open_paren, c) = next_nonws(text, k)?;
    if c != b'(' {
        return None;
    }
    let mut depth = 0i32;
    let mut close_paren = open_paren;
    while close_paren < n {
        match text[close_paren] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        close_paren += 1;
    }
    if close_paren >= n {
        return None;
    }
    let params = parse_params(&text[open_paren + 1..close_paren]);
    // After the params: optional `-> Ret`, optional `where …`, then `{` or `;`.
    let mut ret = String::new();
    let mut angle = 0i32;
    let mut i = close_paren + 1;
    let mut ret_start: Option<usize> = None;
    let mut ret_end: Option<usize> = None;
    let (body, sig_end, resume);
    loop {
        if i >= n {
            return None;
        }
        let c = text[i];
        match c {
            b'-' if i + 1 < n && text[i + 1] == b'>' => {
                if ret_start.is_none() {
                    ret_start = Some(i + 2);
                }
                i += 2;
                continue;
            }
            b'<' => angle += 1,
            b'>' if text[i - 1] != b'-' => angle -= 1,
            b'w' if angle <= 0
                && text[i..].starts_with(b"where")
                && !is_ident_byte(*text.get(i + 5).unwrap_or(&b' '))
                && (i == 0 || !is_ident_byte(text[i - 1]))
                && ret_end.is_none() =>
            {
                ret_end = Some(i);
            }
            b'{' if angle <= 0 => {
                if ret_end.is_none() {
                    ret_end = Some(i);
                }
                let close = match_brace(text, i);
                body = Some((i + 1, close));
                sig_end = i;
                resume = (close + 1).min(n);
                break;
            }
            b';' if angle <= 0 => {
                if ret_end.is_none() {
                    ret_end = Some(i);
                }
                body = None;
                sig_end = i;
                resume = i + 1;
                break;
            }
            _ => {}
        }
        i += 1;
    }
    if let (Some(a), Some(b)) = (ret_start, ret_end) {
        if a < b {
            ret = core_type(&String::from_utf8_lossy(&text[a..b]));
        }
    }
    Some((
        FnDef {
            name,
            owner,
            trait_impl,
            in_trait,
            line: lines.line_of(name_start),
            sig: (kw, sig_end),
            body,
            params,
            ret,
        },
        resume,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    fn parse(src: &str) -> ParsedFile {
        parse_file("t.rs", "core", scrub(src))
    }

    #[test]
    fn fns_impls_and_traits_are_extracted() {
        let src = "\
struct Kernel { policy: Box<dyn Policy>, now: u64 }
trait Policy { fn reclaim(&mut self, want: u32) -> u32; fn noop(&self) {} }
impl Kernel {
    pub fn fault(&mut self, vpn: u64) -> Result<(), SimError> { self.step(vpn) }
    fn step(&mut self, vpn: u64) -> Result<(), SimError> { Ok(()) }
}
impl Policy for Clock { fn reclaim(&mut self, want: u32) -> u32 { want } }
fn free_helper(x: u32) -> u32 { x }
";
        let pf = parse(src);
        let syms: Vec<String> = pf.fns.iter().map(|f| f.symbol()).collect();
        assert_eq!(
            syms,
            vec![
                "Policy::reclaim",
                "Policy::noop",
                "Kernel::fault",
                "Kernel::step",
                "Clock::reclaim",
                "free_helper",
            ]
        );
        let fault = pf.fns.iter().find(|f| f.name == "fault").unwrap();
        assert_eq!(fault.params, vec![("vpn".to_owned(), "u64".to_owned())]);
        assert_eq!(fault.ret, "Result");
        assert!(fault.body.is_some());
        let clock = pf
            .fns
            .iter()
            .find(|f| f.symbol() == "Clock::reclaim")
            .unwrap();
        assert_eq!(clock.trait_impl.as_deref(), Some("Policy"));
        assert_eq!(
            pf.structs["Kernel"]["policy"], "Policy",
            "Box<dyn Policy> reduces to the trait"
        );
        assert!(pf.traits["Policy"].contains(&"reclaim".to_owned()));
    }

    #[test]
    fn use_aliases_are_recorded() {
        let src = "use pagesim_util::helper_a as ha;\nuse crate::x::{A, b as c, d};\n";
        let pf = parse(src);
        assert_eq!(pf.uses["ha"], "helper_a");
        assert_eq!(pf.uses["c"], "b");
        assert_eq!(pf.uses["d"], "d");
        assert_eq!(pf.uses["A"], "A");
    }

    #[test]
    fn copy_derives_are_collected() {
        let src = "#[derive(Clone, Copy, Debug)]\npub struct PageKey { a: u64 }\n\
                   #[derive(Clone)]\nstruct NotCopy { b: u64 }\n";
        let pf = parse(src);
        assert_eq!(pf.copy_types, vec!["PageKey".to_owned()]);
    }

    #[test]
    fn impl_in_return_position_is_not_an_item() {
        let src = "fn mk() -> impl Iterator<Item = u32> { (0..3).filter(|x| x % 2 == 0) }\n\
                   fn after() {}\n";
        let pf = parse(src);
        let syms: Vec<String> = pf.fns.iter().map(|f| f.symbol()).collect();
        assert_eq!(syms, vec!["mk", "after"]);
    }

    #[test]
    fn core_type_reduction() {
        assert_eq!(core_type("&mut dyn MemView"), "MemView");
        assert_eq!(core_type("Box<dyn Policy>"), "Policy");
        assert_eq!(core_type("Option<Box<Tracer>>"), "Tracer");
        assert_eq!(core_type("std::collections::BTreeMap<K, V>"), "BTreeMap");
        assert_eq!(core_type("Vec<Option<u32>>"), "Vec");
        assert_eq!(core_type("(u32, u32)"), "");
        assert_eq!(core_type("[u8; 4]"), "");
    }
}
