//! The workspace's one JSON reader and string escaper.
//!
//! The workspace vendors no serialization crates, so every on-disk format
//! (trace JSONL, the bench history, the run journal) is written by hand
//! with [`escape`] and read back with [`parse`]. Objects keep their
//! members in document order and numbers keep their source text: the bench
//! history re-serializes byte-for-byte, and u64 seeds and hashes never
//! round-trip through `f64`.

use std::fmt;

/// A parsed JSON value. Object keys keep document order (no hash
/// containers: clippy.toml bans them workspace-wide, rule L1).
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other value kinds.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an integral, non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Short tag for error messages and schema matching.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "num",
            Json::Str(_) => "str",
            Json::Arr(_) => "arr",
            Json::Obj(_) => "obj",
        }
    }
}

/// Why a document failed to parse. Offsets are byte offsets into the
/// input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Non-whitespace after the document.
    Trailing(usize),
    /// A required byte is missing.
    Expected(char, usize),
    /// An array or object continues with neither `,` nor its closer.
    ExpectedSeparator(char, usize),
    /// Something starting like `null`, `true` or `false` is not one.
    BadLiteral(usize),
    /// A byte no value can start with.
    Unexpected(usize),
    /// A number that breaks the JSON grammar.
    BadNumber(usize),
    /// A string without its closing quote.
    UnterminatedString,
    /// A backslash at the end of the input.
    UnterminatedEscape,
    /// A backslash followed by a byte JSON gives no meaning.
    BadEscape(usize),
    /// `\u` followed by fewer than four bytes.
    TruncatedUnicodeEscape,
    /// `\u` followed by four bytes that are not hex digits.
    BadUnicodeEscape,
    /// An unescaped control character inside a string.
    ControlByte(usize),
    /// Arrays and objects nested deeper than the parser allows.
    TooDeep,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Trailing(at) => write!(f, "trailing content at byte {at}"),
            JsonError::Expected(c, at) => write!(f, "expected '{c}' at byte {at}"),
            JsonError::ExpectedSeparator(c, at) => write!(f, "expected ',' or '{c}' at byte {at}"),
            JsonError::BadLiteral(at) => write!(f, "bad literal at byte {at}"),
            JsonError::Unexpected(at) => write!(f, "unexpected byte at {at}"),
            JsonError::BadNumber(at) => write!(f, "bad number at byte {at}"),
            JsonError::UnterminatedString => f.write_str("unterminated string"),
            JsonError::UnterminatedEscape => f.write_str("unterminated escape"),
            JsonError::BadEscape(at) => write!(f, "bad escape at byte {at}"),
            JsonError::TruncatedUnicodeEscape => f.write_str("truncated \\u escape"),
            JsonError::BadUnicodeEscape => f.write_str("bad \\u escape"),
            JsonError::ControlByte(at) => write!(f, "raw control byte at {at}"),
            JsonError::TooDeep => f.write_str("nesting too deep"),
        }
    }
}

/// Parses one complete JSON document. Trailing content is an error, which
/// is what makes a torn or truncated file detectable.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(JsonError::Trailing(p.pos));
    }
    Ok(v)
}

/// Escapes `s` for the inside of a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nesting depth guard: exported traces nest three levels at most; a
/// generous cap keeps the recursive parser safe on hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::Expected(char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::BadLiteral(self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::Unexpected(self.pos)),
        }
    }

    /// After an element: a `,` (then whitespace) continues, `close` ends.
    /// Returns whether the container ended.
    fn separator(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(JsonError::ExpectedSeparator(char::from(close), self.pos)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            if self.separator(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            if self.separator(b'}')? {
                return Ok(Json::Obj(fields));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(JsonError::UnterminatedString);
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(JsonError::UnterminatedEscape);
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos..self.pos + 4)
                                .ok_or(JsonError::TruncatedUnicodeEscape)?;
                            let cp = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(JsonError::BadUnicodeEscape)?;
                            self.pos += 4;
                            // Surrogates never appear in our own files;
                            // map them to the replacement character.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(JsonError::BadEscape(self.pos)),
                    }
                }
                0x00..=0x1F => return Err(JsonError::ControlByte(self.pos - 1)),
                _ => {
                    // The input is a `str`, so a non-ASCII lead byte always
                    // starts a whole scalar.
                    let start = self.pos - 1;
                    let ch = self.text[start..].chars().next().unwrap_or('\u{FFFD}');
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            if p.pos == from {
                Err(JsonError::BadNumber(start))
            } else {
                Ok(())
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        Ok(Json::Num(self.text[start..self.pos].to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":null,"e":true}"#).expect("valid json");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num("1".to_owned()),
                Json::Num("2.5".to_owned()),
                Json::Num("-3e2".to_owned()),
            ]))
        );
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(|a| a[1].as_f64()),
            Some(Some(2.5))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ny")
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn numbers_keep_their_source_text() {
        let v =
            parse(r#"{"seed":18446744073709551615,"x":0.30000000000000004}"#).expect("valid json");
        assert_eq!(
            v.get("seed"),
            Some(&Json::Num("18446744073709551615".to_owned()))
        );
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(
            v.get("x"),
            Some(&Json::Num("0.30000000000000004".to_owned()))
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "tru",
            "1.",
            "01x",
            r#""\q""#,
            "{} extra",
            "\"unterminated",
            "[1 2]",
            "",
            "{\"a\": ",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn errors_name_what_and_where() {
        assert_eq!(parse("[1 2]"), Err(JsonError::ExpectedSeparator(']', 3)));
        assert_eq!(
            parse("{} x").map_err(|e| e.to_string()),
            Err("trailing content at byte 3".into())
        );
        assert_eq!(
            parse("\"a\u{1}\"").map_err(|e| e.to_string()),
            Err("raw control byte at 2".into())
        );
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "quote\" back\\slash \n\t\u{1} end café — ✓";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).expect("valid json").as_str(), Some(nasty));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn object_member_order_is_preserved() {
        let Json::Obj(members) = parse(r#"{"z": 1, "a": 2}"#).expect("valid json") else {
            panic!("not an object")
        };
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
    }
}
