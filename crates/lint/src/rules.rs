//! The H-series hot-path hygiene rules, applied to one cone function at a
//! time. Detectors emit [`Construct`]s — `(rule, byte offset, message)` —
//! that the workspace pass maps to a line and the function's call chain.

use crate::graph::Graph;
use crate::parse::ParsedFile;
use crate::scrub::{ident_before, is_ident_byte, next_nonws, prev_nonws, word_occurrences};
use crate::Rule;

/// One detected forbidden construct, positioned by byte offset into the
/// scrubbed text.
#[derive(Clone, Debug)]
pub struct Construct {
    /// Which rule the construct violates.
    pub rule: Rule,
    /// Byte offset in the scrubbed text.
    pub offset: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Std containers whose growth methods allocate.
const STD_GROWABLE: &[&str] = &[
    "Vec",
    "VecDeque",
    "String",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "BinaryHeap",
];

/// Methods that allocate regardless of receiver.
const ALWAYS_ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "collect", "into_owned"];

/// Growth methods that allocate when the receiver is a std container.
const GROWTH_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
    "reserve",
    "reserve_exact",
    "push_str",
];

/// Type-qualified constructors that allocate.
const ALLOC_CTORS: &[(&str, &[&str])] = &[
    ("Box", &["new"]),
    ("Rc", &["new"]),
    ("Arc", &["new"]),
    ("Vec", &["with_capacity", "from"]),
    ("VecDeque", &["with_capacity", "from"]),
    ("String", &["with_capacity", "from"]),
];

/// Crates exempt from H4 — floats are allowed to live in the stats layer.
const FLOAT_EXEMPT_CRATES: &[&str] = &["stats"];

/// H1–H4 constructs inside one cone function (node `ni`).
pub fn detect_hot_constructs(g: &Graph, files: &[ParsedFile], ni: usize) -> Vec<Construct> {
    let node_file = g.nodes[ni].file;
    let pf = &files[node_file];
    let fd = &pf.fns[g.nodes[ni].fn_idx];
    let env = &g.envs[ni];
    let mut out = Vec::new();
    let Some((b0, b1)) = fd.body else {
        return out;
    };
    let b1 = b1.min(pf.text.len());
    let text = &pf.text;

    // H1 method calls + H2 clones: walk call sites in the body.
    let mut i = b0;
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
        let Some((_, after)) = next_nonws(text, j) else {
            continue;
        };
        if after == b'!' {
            // Allocating macros.
            if word == "vec" || word == "format" {
                out.push(Construct {
                    rule: Rule::HotAlloc,
                    offset: start,
                    message: format!(
                        "`{word}!` allocates on the fault/reclaim path; \
                         preallocate or reuse a scratch buffer"
                    ),
                });
            }
            continue;
        }
        if after != b'(' {
            continue;
        }
        let is_method = matches!(prev_nonws(text, start), Some((_, b'.')));
        if is_method {
            if ALWAYS_ALLOC_METHODS.contains(&word.as_str()) {
                out.push(Construct {
                    rule: Rule::HotAlloc,
                    offset: start,
                    message: format!(
                        "`.{word}()` allocates an owned value on the fault/reclaim path"
                    ),
                });
                continue;
            }
            let recv = |g: &Graph| {
                let (p, _) = prev_nonws(text, start)?;
                g.chain_type(pf, env, fd, text, p)
            };
            if GROWTH_METHODS.contains(&word.as_str()) {
                if let Some(t) = recv(g) {
                    if STD_GROWABLE.contains(&t.as_str()) {
                        out.push(Construct {
                            rule: Rule::HotAlloc,
                            offset: start,
                            message: format!(
                                "`.{word}()` on a `{t}` may (re)allocate on the \
                                 fault/reclaim path; preallocate or use a fixed structure"
                            ),
                        });
                    }
                }
                continue;
            }
            if word == "clone" {
                if let Some(t) = recv(g) {
                    if !g.is_copy(&t) {
                        out.push(Construct {
                            rule: Rule::HotClone,
                            offset: start,
                            message: format!(
                                "`.clone()` of non-Copy `{t}` on the fault/reclaim path; \
                                 borrow or restructure ownership instead"
                            ),
                        });
                    }
                }
                continue;
            }
        } else if let Some((p, b':')) = prev_nonws(text, start) {
            // `Qual::word(…)` allocating constructors.
            if p > 0 && text[p - 1] == b':' {
                if let Some(qual) = ident_before(text, p - 1) {
                    for (ty, ctors) in ALLOC_CTORS {
                        if qual == *ty && ctors.contains(&word.as_str()) {
                            out.push(Construct {
                                rule: Rule::HotAlloc,
                                offset: start,
                                message: format!(
                                    "`{qual}::{word}` allocates on the fault/reclaim path"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // H3: `dyn` introduced inside a cone function body (signatures carry
    // pre-existing trait-object params and are exempt).
    for pos in word_occurrences(&text[b0..b1], "dyn") {
        out.push(Construct {
            rule: Rule::HotDyn,
            offset: b0 + pos,
            message: "`dyn` dispatch introduced inside the fault/reclaim cone; \
                      use the statically-dispatched form"
                .to_owned(),
        });
    }

    // H4: float types/arithmetic anywhere in the signature or body, outside
    // the stats crate.
    if !FLOAT_EXEMPT_CRATES.contains(&pf.crate_dir.as_str()) {
        let lo = fd.sig.0;
        for ty in ["f32", "f64"] {
            for pos in word_occurrences(&text[lo..b1], ty) {
                out.push(Construct {
                    rule: Rule::HotFloat,
                    offset: lo + pos,
                    message: format!(
                        "`{ty}` in kernel sim state reachable from the hot path; \
                         floats stay confined to pagesim-stats (fixed-point otherwise)"
                    ),
                });
            }
        }
    }
    out
}
