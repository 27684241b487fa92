//! A small JSON reader for the files this workspace writes: the JSONL
//! traces of [`export::to_jsonl`](crate::export::to_jsonl) (read back by
//! [`export::from_jsonl`](crate::export::from_jsonl)) and the bench result
//! files. Numbers keep their text, so a `u64` above 2^53 reads back
//! exactly and two files' numbers compare as written.

/// Nesting deeper than this is rejected, so hostile input cannot exhaust
/// the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their fields in file order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its text in the file.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's fields, in file order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The field `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// A number that is a `u64`, exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// A number, as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }
}

/// Parses one JSON value surrounded by optional whitespace. An error
/// gives the line and column where the text stops being JSON.
pub fn parse(text: &str) -> Result<Value, String> {
    parse_from(text, 1)
}

/// [`parse`] for text that starts on line `first_line` of its file.
pub(crate) fn parse_from(text: &str, first_line: usize) -> Result<Value, String> {
    let mut p = Parser {
        text: text.as_bytes(),
        pos: 0,
        first_line,
    };
    p.whitespace();
    let value = p.value(0)?;
    p.whitespace();
    if p.pos < p.text.len() {
        return Err(p.error("trailing characters after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a [u8],
    pos: usize,
    /// The file line the text starts on, for error messages.
    first_line: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> String {
        let before = &self.text[..self.pos.min(self.text.len())];
        let line = self.first_line + before.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + before.iter().rev().take_while(|&&b| b != b'\n').count();
        format!("line {line}, column {column}: {msg}")
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` or fails with `expected`.
    fn expect(&mut self, b: u8, expected: &str) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {expected}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a field name"));
            }
            let key = self.string()?;
            self.whitespace();
            self.expect(b':', "':'")?;
            self.whitespace();
            fields.push((key, self.value(depth + 1)?));
            self.whitespace();
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else {
                self.expect(b'}', "',' or '}'")?;
                return Ok(Value::Object(fields));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.whitespace();
            items.push(self.value(depth + 1)?);
            self.whitespace();
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else {
                self.expect(b']', "',' or ']'")?;
                return Ok(Value::Array(items));
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.required_digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.required_digits()?;
        }
        let text = std::str::from_utf8(&self.text[start..self.pos]).expect("ASCII digits");
        Ok(Value::Number(text.to_string()))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn required_digits(&mut self) -> Result<(), String> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error("expected a digit"));
        }
        self.digits();
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    // The input is a &str and escapes decode to chars.
                    return Ok(String::from_utf8(out).expect("UTF-8 in, UTF-8 out"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("control character in string"));
                }
                Some(b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    /// The character an escape after `\` stands for.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            // The writers escape only control characters this way, so a
            // surrogate (half of a UTF-16 pair) is not read.
            Some(b'u') => {
                self.pos += 1;
                let code = self.hex4()?;
                return char::from_u32(code).ok_or_else(|| self.error("surrogate escape"));
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(hex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_kind_of_value() {
        let text = "{\"a\": [1, -2.5e3, true, false, null],\n \"b\": {\"c\": \"x\\\"y\\u00e9\\u0001/\"},\n \"n\": 18446744073709551615}";
        let v = parse(text).expect("valid JSON");
        let a = v.get("a").expect("field a");
        assert_eq!(
            a,
            &Value::Array(vec![
                Value::Number("1".into()),
                Value::Number("-2.5e3".into()),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
            ])
        );
        let c = v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str);
        assert_eq!(c, Some("x\"y\u{e9}\u{1}/"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(parse(" [] ").expect("empty array"), Value::Array(vec![]));
    }

    #[test]
    fn malformed_input_names_its_line_and_column() {
        for (text, line, column) in [
            ("{\"a\": 1,\n \"b\" 2}", 2, 6),
            ("[1, 2", 1, 6),
            ("{\"a\": 01}", 1, 8),
            ("\"tab\there\"", 1, 5),
            ("[1] x", 1, 5),
            ("{\"a\": tru}", 1, 7),
            ("\"\\ud800\"", 1, 8),
            ("\"\\u+123\"", 1, 4),
        ] {
            let err = parse(text).expect_err(text);
            let at = format!("line {line}, column {column}:");
            assert!(err.starts_with(&at), "{text:?}: {err}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).expect_err("too deep").contains("nesting"));
    }
}
