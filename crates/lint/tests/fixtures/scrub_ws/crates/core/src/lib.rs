//! Fixture: scrubber stress crate. Every function is in the hot cone. Every
//! H-series token below is inside a string or comment and must NOT fire;
//! the single real violation at the end must fire at its exact line,
//! proving the scrubber stayed aligned.

pub struct Kernel;

impl Kernel {
    pub fn fault(&mut self) -> usize {
        strings() + comments() + not_raw_strings() + real_violation()
    }
}

fn strings() -> usize {
    let plain = "vec![1] and name.clone() in a plain string";
    let raw = r"Box::new(0) in a raw string";
    let fenced = r#"say "format!" loud"#;
    let double_fenced = r##"outer r#"x.to_owned()"# inner"##;
    let byte = b"dyn Fn() as bytes";
    let byte_raw = br#"let f: f64 = 0.5; as raw bytes"#;
    let c_str = c"x.collect() as a C string";
    let c_raw = cr#"say "vec![2]" loud in C"#;
    let escaped = "a \"quoted\" String::from(3) escape";
    plain.len()
        + raw.len()
        + fenced.len()
        + double_fenced.len()
        + byte.len()
        + byte_raw.len()
        + c_str.count_bytes()
        + c_raw.count_bytes()
        + escaped.len()
}

/* Block comments nest in Rust: /* vec![0] inside */ still inside,
   format!("x") still inside. */
fn comments() -> usize {
    // line comment: Box::new(1)
    /* simple block: x.clone() as f32 */
    0
}

fn not_raw_strings() -> usize {
    let br_ident = 1usize; // identifiers starting with b/r/c are not prefixes
    let crx = br_ident + 1;
    let r = crx; // single letters too
    r
}

fn real_violation() -> usize {
    let v = vec![1usize, 2];
    v.len()
}
