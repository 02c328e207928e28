//! Source preparation: comment/string scrubbing, stripping of test- and
//! sanitize-gated items, line mapping, and shared token helpers.
//!
//! Everything downstream — the item parser, the call graph, and the
//! H-series detectors — operates on *scrubbed* text: comments and string/char
//! literals blanked byte-for-byte, with newlines preserved so offsets map
//! back to the original lines. The scrubber understands every literal
//! shape the workspace uses: line and nested block comments, raw strings
//! with arbitrary hash fences (`r#"…"#`, `r##"…"##`), byte and C-string
//! variants (`b"…"`, `br#"…"#`, `c"…"`, `cr#"…"#`), escaped chars, and
//! char-vs-lifetime disambiguation.

/// Blanks comments, string literals, and char literals byte-for-byte,
/// preserving newlines so scrubbed offsets map to the original lines.
pub fn scrub(src: &str) -> Vec<u8> {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = Vec::with_capacity(n);
    let blank = |c: u8| if c == b'\n' { b'\n' } else { b' ' };
    let mut i = 0;
    while i < n {
        let c = b[i];
        // Line comment (also doc comments).
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            while i < n && b[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        // Block comment, nested.
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    out.extend([b' ', b' ']);
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    out.extend([b' ', b' ']);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // String literals, all prefix shapes: "…", b"…", c"…", r"…",
        // r#"…"#, br#"…"#, cr#"…"# (byte / C-string / raw variants).
        if c == b'"' || ((c == b'r' || c == b'b' || c == b'c') && !prev_is_ident(&out)) {
            let mut j = i;
            let mut raw = false;
            if c != b'"' {
                if (b[j] == b'b' || b[j] == b'c') && j + 1 < n && b[j + 1] == b'r' {
                    j += 1;
                }
                if b[j] == b'r' {
                    raw = true;
                }
                j += 1; // past the final prefix letter
            }
            if raw {
                let mut k = j;
                let mut hashes = 0usize;
                while k < n && b[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && b[k] == b'"' {
                    // Blank the whole literal including the prefix.
                    out.extend(std::iter::repeat_n(b' ', k - i + 1));
                    i = k + 1;
                    // Scan for `"` followed by `hashes` hashes.
                    while i < n {
                        if b[i] == b'"' {
                            let mut h = 0usize;
                            while h < hashes && i + 1 + h < n && b[i + 1 + h] == b'#' {
                                h += 1;
                            }
                            if h == hashes {
                                out.extend(std::iter::repeat_n(b' ', hashes + 1));
                                i += 1 + hashes;
                                break;
                            }
                        }
                        out.push(blank(b[i]));
                        i += 1;
                    }
                    continue;
                }
                // Not a raw string after all (plain identifier starting
                // with r/b/c, e.g. `break`): fall through.
            } else if c == b'"' || (j < n && b[j] == b'"') {
                // Normal, byte, or C string: blank any prefix letter,
                // then the quoted body with escape handling.
                while i < j {
                    out.push(b' ');
                    i += 1;
                }
                out.push(b' ');
                i += 1;
                while i < n {
                    if b[i] == b'\\' && i + 1 < n {
                        out.push(b' ');
                        out.push(blank(b[i + 1]));
                        i += 2;
                    } else if b[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
                continue;
            }
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if i + 1 < n && b[i + 1] == b'\\' {
                // Escaped char literal: blank through the closing quote.
                out.push(b' ');
                i += 1;
                while i < n && b[i] != b'\'' {
                    if b[i] == b'\\' && i + 1 < n {
                        out.push(b' ');
                        out.push(blank(b[i + 1]));
                        i += 2;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
                if i < n {
                    out.push(b' ');
                    i += 1;
                }
                continue;
            }
            if i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                out.extend([b' ', b' ', b' ']);
                i += 3;
                continue;
            }
            // Lifetime: blank the quote, keep the identifier.
            out.push(b' ');
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

pub(crate) fn prev_is_ident(out: &[u8]) -> bool {
    out.last()
        .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
}

/// Attribute forms whose annotated items are stripped before linting:
/// test-gated and sanitizer-gated code never feeds figure output, so it
/// may allocate, clone, or use floats on hot paths freely.
const STRIPPED_CFG_MARKERS: [&str; 3] = [
    "#[cfg(test)]",
    "#[cfg(feature = \"sanitize\")]",
    "#[cfg(any(test, feature = \"sanitize\"))]",
];

/// Blanks every test- or sanitize-gated item (test modules, invariant
/// checkers, sanitizer-only fields) in scrubbed source. The sanitize
/// markers contain a string literal — blanked in the scrubbed text — so
/// markers are located in the *original* source (`scrub` is
/// byte-preserving, offsets coincide) and confirmed real by the `#`
/// surviving at the same scrubbed offset (a mention inside a comment or
/// string is all spaces there).
pub(crate) fn strip_cfg_gated(scrubbed: &mut [u8], original: &str) {
    for marker in STRIPPED_CFG_MARKERS {
        strip_marker(scrubbed, original.as_bytes(), marker.as_bytes());
    }
}

fn strip_marker(scrubbed: &mut [u8], original: &[u8], marker: &[u8]) {
    let mut i = 0;
    while let Some(pos) = find_from(original, marker, i) {
        i = pos + marker.len();
        if scrubbed.get(pos) != Some(&b'#') {
            continue;
        }
        let mut j = pos + marker.len();
        // Blank from the attribute to the end of the annotated item: the
        // `}` closing its first brace, or a `;` (statement, `use`) or `,`
        // (struct field) at bracket depth zero. Parens and square
        // brackets count toward depth so argument-list and attribute
        // commas (`f(a, b)`, `#[derive(Clone, Debug)]`) never terminate.
        let mut depth = 0usize;
        let end;
        loop {
            if j >= scrubbed.len() {
                end = scrubbed.len();
                break;
            }
            match scrubbed[j] {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                b')' | b']' => depth = depth.saturating_sub(1),
                b';' | b',' if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for byte in &mut scrubbed[pos..end] {
            if *byte != b'\n' {
                *byte = b' ';
            }
        }
        i = end;
    }
}

pub(crate) fn find_from(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= hay.len() {
        return None;
    }
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Byte offsets where each line starts; `line_of` maps offsets to 1-based
/// line numbers.
pub(crate) struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    pub(crate) fn new(text: &[u8]) -> LineIndex {
        let mut starts = vec![0usize];
        for (i, &c) in text.iter().enumerate() {
            if c == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    pub(crate) fn line_of(&self, offset: usize) -> u32 {
        match self.starts.binary_search(&offset) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }
}

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

pub(crate) fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Offsets of whole-word occurrences of `word`.
pub(crate) fn word_occurrences(text: &[u8], word: &str) -> Vec<usize> {
    let w = word.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = find_from(text, w, i) {
        let before_ok = pos == 0 || !is_ident_byte(text[pos - 1]);
        let after = pos + w.len();
        let after_ok = after >= text.len() || !is_ident_byte(text[after]);
        if before_ok && after_ok {
            out.push(pos);
        }
        i = pos + w.len();
    }
    out
}

/// The identifier ending immediately before `end` (skipping trailing
/// whitespace), if any.
pub(crate) fn ident_before(text: &[u8], end: usize) -> Option<String> {
    let mut j = end;
    while j > 0 && text[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let stop = j;
    while j > 0 && is_ident_byte(text[j - 1]) {
        j -= 1;
    }
    (j < stop).then(|| String::from_utf8_lossy(&text[j..stop]).into_owned())
}

/// First non-whitespace byte at or after `pos`.
pub(crate) fn next_nonws(text: &[u8], mut pos: usize) -> Option<(usize, u8)> {
    while pos < text.len() {
        if !text[pos].is_ascii_whitespace() {
            return Some((pos, text[pos]));
        }
        pos += 1;
    }
    None
}

/// Last non-whitespace byte strictly before `pos`.
pub(crate) fn prev_nonws(text: &[u8], pos: usize) -> Option<(usize, u8)> {
    let mut j = pos;
    while j > 0 {
        j -= 1;
        if !text[j].is_ascii_whitespace() {
            return Some((j, text[j]));
        }
    }
    None
}

/// Offset of the `}` matching the `{` at `open` (depth-balanced), or the
/// end of text if unbalanced. Scrubbed text has no braces inside literals,
/// so plain depth counting is sound.
pub(crate) fn match_brace(text: &[u8], open: usize) -> usize {
    debug_assert_eq!(text.get(open), Some(&b'{'));
    let mut depth = 0usize;
    let mut i = open;
    while i < text.len() {
        match text[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    text.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(src: &str) -> String {
        String::from_utf8_lossy(&scrub(src)).into_owned()
    }

    #[test]
    fn c_string_literals_are_blanked() {
        // Rust 1.77 C-string literals, plain and raw: tokens inside must
        // not leak into the scrubbed text (regression: `cr#"…"#` used to
        // be scanned as `c` + normal string, exposing the interior).
        let src = "let a = c\"SystemTime\"; let b = cr#\"say \"thread_rng\" loud\"#; f();";
        let text = s(src);
        assert!(!text.contains("SystemTime"), "{text}");
        assert!(!text.contains("thread_rng"), "{text}");
        assert!(text.contains("f();"), "{text}");
    }

    #[test]
    fn raw_string_hash_fences_nest_correctly() {
        let src = "let a = r##\"inner \"# fence\"##; thread_rng();";
        let text = s(src);
        assert!(!text.contains("fence"), "{text}");
        assert!(
            text.contains("thread_rng"),
            "code after must survive: {text}"
        );
    }

    #[test]
    fn idents_starting_with_prefix_letters_survive() {
        let src = "break_even(); crate_fn(); let r = 1; let b = 2; let c = 3; rb(); cr();";
        assert_eq!(s(src), src);
    }

    #[test]
    fn nested_block_comments_scrub_fully() {
        let src = "/* outer /* inner thread_rng */ still comment */ ok();";
        let text = s(src);
        assert!(!text.contains("thread_rng"), "{text}");
        assert!(text.contains("ok();"), "{text}");
    }

    #[test]
    fn byte_char_r_does_not_open_a_raw_string() {
        let src = "let x = b'r'; let y = \"done\"; tail();";
        let text = s(src);
        assert!(text.contains("tail();"), "{text}");
        assert!(!text.contains("done"), "{text}");
    }

    #[test]
    fn match_brace_balances() {
        let t = b"fn f() { if x { y(); } }";
        let open = t.iter().position(|&c| c == b'{').unwrap();
        assert_eq!(match_brace(t, open), t.len() - 1);
    }
}
