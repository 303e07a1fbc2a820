//! The workspace's one JSON reader, and the string escaper its writers
//! share.
//!
//! Every JSON document the workspace reads goes through [`Value::parse`]:
//! service wire frames and HTTP bodies, the result-cache journal,
//! robustness checkpoints, and probe JSONL traces. The workspace is
//! std-only by charter and every document is small and flat, so a
//! recursive-descent parser beats an external dependency. It departs
//! from a general-purpose parser on purpose:
//!
//! * numbers are kept as their **raw source text** ([`Value::Num`]) —
//!   seeds are full-range `u64`s that an eager `f64` conversion would
//!   corrupt, so conversion happens at the access site where the caller
//!   knows the intended type;
//! * objects keep their members in document order, and a duplicate
//!   key's **last** occurrence wins ([`Value::get`]);
//! * arrays and objects nest at most [`MAX_DEPTH`] levels deep; a deeper
//!   document is an error, not a stack overflow on the thread parsing
//!   it;
//! * there is no writer — writers compose strings directly (with
//!   [`escape`] for string literals), keeping every rendered byte under
//!   the caller's control, which the bit-identical cache and checkpoint
//!   contracts depend on.

/// The deepest nesting of arrays and objects [`Value::parse`] accepts.
/// The deepest document the workspace writes (a sweep report, or a
/// `result` frame around its fragment) nests 4 levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw source text (lossless for `u64` seeds).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members in document order. Duplicate keys are kept;
    /// [`Value::get`] answers with the last occurrence.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage and nesting deeper than [`MAX_DEPTH`] rejected).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut parser = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let v = parser.value()?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", parser.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (the last occurrence of a duplicate
    /// key); `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u32`, if this is an integral number in range.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Value::Null),
            Some(b't') => self.expect("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
    }

    /// Enter an array or object (at its opening bracket) one level
    /// deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(":")?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw = &self.text[start..self.pos];
        // Validate once so as_u64/as_f64 can't both fail silently. A
        // run of digits always parses, so it skips the check.
        if !raw.bytes().all(|b| b.is_ascii_digit()) {
            raw.parse::<f64>()
                .map_err(|e| format!("bad number {raw:?}: {e}"))?;
        }
        Ok(Value::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go. Both
            // are ASCII, so the run ends on a char boundary.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .text
                        .as_bytes()
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                    out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                    self.pos += 4;
                }
                other => return Err(format!("bad escape {other:?}")),
            }
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Value::parse(
            "{\"type\":\"submit\",\"job\":{\"load\":25,\"seed\":18446744073709551615,\
             \"audit\":false,\"timeout\":null,\"loads\":[1,2,3]}}",
        )
        .unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("submit"));
        let job = v.get("job").unwrap();
        assert_eq!(job.get("load").and_then(Value::as_u64), Some(25));
        assert_eq!(
            job.get("seed").and_then(Value::as_u64),
            Some(u64::MAX),
            "u64 seeds survive losslessly"
        );
        assert_eq!(job.get("audit").and_then(Value::as_bool), Some(false));
        assert!(job.get("timeout").unwrap().is_null());
        assert_eq!(job.get("loads").and_then(Value::as_array).unwrap().len(), 3);
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(original));
        // Runs between escapes keep multi-byte characters intact.
        let v = Value::parse("\"é\\u00e9\\\"ü\"").unwrap();
        assert_eq!(v.as_str(), Some("éé\"ü"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} extra",
            "\"unterminated",
            "\"dangling\\",
            "\"\\u12",
            "{\"a\":01x}",
            "-",
            "nul",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn numbers_parse_both_ways() {
        let v = Value::parse("{\"i\":42,\"f\":-1.5e3,\"z\":007}").unwrap();
        assert_eq!(v.get("i").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(-1500.0));
        assert_eq!(v.get("f").and_then(Value::as_u64), None);
        assert_eq!(v.get("z").and_then(Value::as_u64), Some(7));
        let v = Value::parse("[4294967295,4294967296]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u32(), Some(u32::MAX));
        assert_eq!(items[1].as_u32(), None, "narrowing is checked");
    }

    #[test]
    fn the_last_duplicate_key_wins() {
        let v = Value::parse("{\"k\":1,\"other\":true,\"k\":2}").unwrap();
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("k"), None);
    }

    fn nested(levels: usize) -> String {
        format!("{}{}", "[".repeat(levels), "]".repeat(levels))
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Value::parse(&objects).is_err());
        // The cap counts open levels, not brackets seen: siblings at the
        // cap are fine.
        let wide = format!("[{},{}]", nested(MAX_DEPTH - 1), nested(MAX_DEPTH - 1));
        assert!(Value::parse(&wide).is_ok());
    }

    #[test]
    fn a_mebibyte_of_brackets_is_an_error_on_a_default_stack_thread() {
        let doc = "[".repeat(1 << 20);
        let result = std::thread::spawn(move || Value::parse(&doc))
            .join()
            .expect("the parsing thread must not overflow its stack");
        assert!(result.is_err());
    }
}
