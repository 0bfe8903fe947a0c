//! A small, dependency-free JSON reader/writer for the serving protocol.
//!
//! The workspace builds hermetically (no serde), and the wire format is a
//! handful of flat objects, so this module implements exactly RFC 8259:
//! parsing into a [`Json`] tree and compact serialisation with proper
//! string escaping. Object member order is preserved (responses print
//! fields in a stable, readable order).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }
}

/// Why parsing failed, with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Maximum container nesting accepted by [`parse`]. The serving protocol
/// is flat; the cap exists so one hostile request line (100k `[`s)
/// cannot overflow the recursive-descent stack and kill the process.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    /// The document: scanned bytewise, string runs sliced back out.
    src: &'a str,
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Parser<'a>) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let result = container(self);
        self.depth -= 1;
        result
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the maximal run of plain bytes in one `push_str`: time
            // linear in the string, where re-validating the rest of the
            // document per character was quadratic. A run starts after
            // the opening quote or an escape and ends at `"`, `\`, a
            // control byte or the end of input — ASCII or the end on
            // both sides, so always char boundaries of `src`; `get`
            // keeps even "can't happen" a typed error on this
            // untrusted-input path, never a panic.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            let run = self
                .src
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            out.push_str(run);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decodes one escape sequence (the backslash already consumed).
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // an escaped low surrogate.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect_byte(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(combined)
                            .ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                };
                out.push(c);
                return Ok(());
            }
            _ => return Err(self.err("invalid escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes().len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes()[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Consumes one or more digits; errors if none are present.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        let before = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == before {
            return Err(self.err(format!("expected {what}")));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        // RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(c) if c.is_ascii_digit() => self.digits("integer digits")?,
            _ => return Err(self.err("expected digits after '-'")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("digits after decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("exponent digits")?;
        }
        // The scanned span is all ASCII digits/signs, so this cannot
        // fail — but a panic here would be a remote crash, so it stays
        // a typed error like everything else on this path.
        let text = std::str::from_utf8(&self.bytes()[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            message: format!("bad number '{text}'"),
        })
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity; null keeps the document
                    // parseable and signals "no meaningful value" (e.g. a
                    // diverged model emitting NaN probabilities).
                    write!(f, "null")
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                write!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal. Maximal runs that need no
/// escaping go out in one `write_str` each (the mirror image of
/// [`Parser::string`]); every byte that needs an escape is ASCII, so
/// the run boundaries are always char boundaries of `s`.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[start..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        start = i + 1;
    }
    f.write_str(&s[start..])?;
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reader [`Parser::string`] replaced, kept verbatim as the
    /// oracle: it re-validates the whole rest of the document for every
    /// plain character (quadratic), and is otherwise the same automaton.
    fn string_per_char(p: &mut Parser<'_>) -> Result<String, JsonError> {
        p.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            p.pos += 1;
                            let cp = p.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if p.peek() == Some(b'\\') {
                                    p.pos += 1;
                                    p.expect_byte(b'u')?;
                                    let lo = p.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(p.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| p.err("invalid surrogate pair"))?
                                } else {
                                    return Err(p.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(p.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| p.err("invalid code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(p.err("invalid escape")),
                    }
                    p.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(p.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is
                    // guaranteed valid — but this is the untrusted-input
                    // path, so even "can't happen" stays a typed error,
                    // never a panic).
                    let rest = &p.bytes()[p.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| p.err("invalid UTF-8"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| p.err("unterminated string"))?;
                    out.push(c);
                    p.pos += c.len_utf8();
                }
            }
        }
    }

    /// [`parse`] of a document that is one string literal, through the
    /// per-character oracle.
    fn oracle_parse(doc: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src: doc,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = string_per_char(&mut p)?;
        p.skip_ws();
        if p.pos != doc.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(Json::Str(value))
    }

    /// The writer `write_escaped` replaced (one `write!` per character),
    /// as the oracle for the run-copying one.
    fn escaped_per_char(s: &str) -> String {
        let mut out = String::from("\"");
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
        out.push('"');
        out
    }

    /// Pieces of a string literal's inside: plain ASCII runs, 2/3/4-byte
    /// UTF-8, every escape, surrogate pairs, lone and mispaired
    /// surrogates, malformed escapes, raw control bytes and a raw quote.
    fn literal_piece() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-zA-Z0-9 (){};=+<>/,.]{0,12}",
            prop::sample::select(
                [
                    "é",
                    "ß",
                    "✓",
                    "中",
                    "😀",
                    "\u{10FFFF}",
                    "\\\"",
                    "\\\\",
                    "\\/",
                    "\\b",
                    "\\f",
                    "\\n",
                    "\\r",
                    "\\t",
                    "\\u00e9",
                    "\\u0041",
                    "\\u0000",
                    "\\uFFFF",
                    "\\ud83d\\ude00",
                    "\\uD800",
                    "\\udc00",
                    "\\ud800\\u0041",
                    "\\ud800x",
                    "\\x",
                    "\\u12G4",
                    "\\u+123",
                    "\\ué",
                    "\u{1}",
                    "\n",
                    "\t",
                    "\u{1f}",
                    "\u{7f}",
                    "\"",
                ]
                .map(str::to_string)
                .to_vec()
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        #[test]
        fn run_copying_reader_matches_the_per_character_oracle(
            pieces in prop::collection::vec(literal_piece(), 0..10),
            padded in any::<bool>(),
        ) {
            let mut doc = format!("\"{}\"", pieces.concat());
            if padded {
                doc = format!(" \t{doc}\r\n ");
            }
            // The whole document and its truncation at every prefix that
            // still opens the literal: same value, or same error at the
            // same byte.
            let open = doc.find('"').expect("the literal's opening quote");
            for end in (open + 1..=doc.len()).filter(|&e| doc.is_char_boundary(e)) {
                let prefix = &doc[..end];
                prop_assert_eq!(parse(prefix), oracle_parse(prefix), "document {:?}", prefix);
            }
        }

        #[test]
        fn writer_round_trips_and_matches_the_per_character_oracle(
            pieces in prop::collection::vec(literal_piece(), 0..10),
        ) {
            // Decode each piece that is a valid literal on its own, so the
            // value holds controls, quotes, backslashes and multi-byte
            // scalars in decoded form.
            let text: String = pieces
                .iter()
                .filter_map(|piece| parse(&format!("\"{piece}\"")).ok())
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect();
            let printed = Json::str(text.clone()).to_string();
            prop_assert_eq!(&printed, &escaped_per_char(&text));
            let value = Json::Obj(vec![(
                text.clone(),
                Json::Arr(vec![Json::str(text.clone()), Json::num(1.5)]),
            )]);
            prop_assert_eq!(parse(&value.to_string()), Ok(value));
        }
    }

    #[test]
    fn string_literals_parse_in_linear_time() {
        // A request line is up to 8 MiB of mostly one string. The old
        // reader was quadratic in it (8× the bytes = 64× the time);
        // linear is 8×. The bound sits between the two, and each side
        // takes its best of five so a scheduling hiccup cannot fail it.
        let literal = |bytes: usize| format!("\"{}\"", "int x = 0; // ééé\\n".repeat(bytes / 20));
        let best_ns = |doc: &str| {
            (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let value = parse(std::hint::black_box(doc)).unwrap();
                    let ns = start.elapsed().as_nanos();
                    assert!(value.as_str().is_some_and(|s| s.len() > doc.len() / 2));
                    ns
                })
                .min()
                .unwrap()
        };
        let (small, large) = (literal(64 << 10), literal(512 << 10));
        let (small_ns, large_ns) = (best_ns(&small), best_ns(&large));
        assert!(
            large_ns < 16 * small_ns,
            "512 KiB took {large_ns} ns, 64 KiB took {small_ns} ns"
        );
    }

    #[test]
    fn malformed_input_errors_without_panicking() {
        // The parser sits on the untrusted request path: every failure
        // mode must be a typed JsonError (ccsa-audit's `unwrap` rule
        // keeps this file panic-free; this test exercises the corners
        // the conversions at `string()`/`number()` cover).
        let cases = [
            "",
            "\"",
            "\"\\",
            "\"\\u",
            "\"\\uD8",
            "\"\\uD800\"",
            "\"\\uD800\\uD800\"",
            "{\"a\"",
            "{\"a\":",
            "[1,",
            "-",
            "0.",
            "1e",
            "1e+",
            "00",
            "1e309",
            "-1e309",
            "{",
            "truncated",
            "\u{7f}",
        ];
        for case in cases {
            match parse(case) {
                Ok(v) => assert!(
                    case.trim().parse::<f64>().is_ok() || v == Json::Null,
                    "{case:?}"
                ),
                Err(e) => assert!(!e.message.is_empty(), "{case:?}"),
            }
        }
        // Multi-byte scalars still copy through the hardened path.
        let v = parse("\"héllo ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ✓"));
    }

    #[test]
    fn parses_flat_request() {
        let v = parse(r#"{"op": "compare", "a": "int main() {}", "b": "x", "n": 3}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("compare"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn roundtrips_through_display() {
        let original = r#"{"s":"line1\nline2\t\"q\"","arr":[1,2.5,true,null],"nested":{"k":-7}}"#;
        let v = parse(original).unwrap();
        let printed = v.to_string();
        assert_eq!(parse(&printed).unwrap(), v);
        assert_eq!(printed, original);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""\u00e9\u0041 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("éA 😀"));
        let s = Json::str("tab\there\n").to_string();
        assert_eq!(s, "\"tab\\there\\n\"");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        // One line of 100k open brackets must come back as a JsonError,
        // not take the process down via unbounded recursion.
        let deep_arrays = "[".repeat(100_000);
        let err = parse(&deep_arrays).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");

        let deep_objects = "{\"k\":".repeat(100_000);
        assert!(parse(&deep_objects).is_err());

        // Reasonable nesting still parses: depth 100 is inside the cap.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
        // And exactly at the cap boundary it fails cleanly.
        let at_limit = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(parse(&at_limit).is_err());
    }

    #[test]
    fn numbers_parse_and_print() {
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("0.5").unwrap().as_f64(), Some(0.5));
        assert_eq!(parse("0").unwrap().as_f64(), Some(0.0));
        assert_eq!(parse("-0").unwrap().as_f64(), Some(0.0));
        assert_eq!(Json::num(5.0).to_string(), "5");
        assert_eq!(Json::num(0.25).to_string(), "0.25");
    }

    #[test]
    fn numbers_follow_rfc_8259_strictly() {
        for bad in ["1.", "-.5", ".5", "007", "01", "1e", "1e+", "-", "1.e3"] {
            assert!(parse(bad).is_err(), "accepted non-RFC number {bad:?}");
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
        // The emitted document stays parseable.
        let doc = Json::obj(vec![("p", Json::Num(f64::NAN))]).to_string();
        assert_eq!(parse(&doc).unwrap().get("p"), Some(&Json::Null));
    }

    #[test]
    fn source_code_payloads_roundtrip() {
        let src = "int main() {\n  int n; cin >> n;\n  cout << \"x\\n\";\n  return 0;\n}";
        let v = Json::obj(vec![("source", Json::str(src))]);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back.get("source").unwrap().as_str(), Some(src));
    }
}
