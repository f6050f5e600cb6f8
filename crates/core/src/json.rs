//! The one JSON value, reader and string escaper. Chrome-trace export and
//! validation ([`crate::obs`]) and diagnostics ([`crate::diag`]) share them;
//! the workspace is offline and vendors no serde.
//!
//! The reader is linear in its input: string contents are copied one run
//! (up to the next quote or backslash) at a time, never re-validated.
//! Errors name the byte offset where parsing stopped.

/// A parsed JSON value (numbers as `f64`, objects in insertion order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number view for non-negative integers that fit a `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Num(n) if *n >= 0.0 && *n <= u32::MAX as f64 && n.fract() == 0.0 => {
                Some(*n as u32)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string literal.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
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
}

/// Parses one JSON document; anything but whitespace after it is an error.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let mut p = JsonParser { src: input, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct JsonParser<'a> {
    src: &'a str,
    /// Byte offset; always on a char boundary.
    pos: usize,
}

impl JsonParser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
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

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Quote and backslash are ASCII, so the run ends on a char
            // boundary and copies as one slice.
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => out.push(self.escape()?),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the escape sequence at the backslash under the cursor.
    fn escape(&mut self) -> Result<char, String> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .src
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                self.pos += 4;
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_value_kind_and_rejects_bad_tokens() {
        let v =
            parse_json(r#" {"n": -2.5e3, "z": null, "t": true, "f": false, "o": {}} "#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-2500.0));
        assert_eq!(v.get("z"), Some(&Json::Null));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("f"), Some(&Json::Bool(false)));
        assert_eq!(v.get("o").and_then(Json::as_obj), Some(&[][..]));
        for bad in ["", "+1", ".5", "nul", "\"\\q\"", "\"\\u12\"", "\"open"] {
            assert!(parse_json(bad).is_err(), "input: {bad:?}");
        }
    }

    #[test]
    fn errors_name_the_byte_offset() {
        assert_eq!(
            parse_json("[1, 2 x").unwrap_err(),
            "json error at byte 6: expected ',' or ']'"
        );
    }

    #[test]
    fn escaped_strings_round_trip() {
        let s = "quote\" back\\slash\n\r\t \u{1} ünïcode ✓ /";
        let mut out = String::new();
        push_string(&mut out, s);
        assert!(out.contains("\\u0001"), "{out}");
        assert_eq!(parse_json(&out).unwrap().as_str(), Some(s));
        assert_eq!(
            parse_json(r#""\u00fc\ud800\b\f\/""#).unwrap().as_str(),
            Some("ü\u{fffd}\u{8}\u{c}/")
        );
    }

    #[test]
    fn as_u32_accepts_only_unsigned_integers() {
        let v = parse_json("[0, 7, 4294967295, 4294967296, -1, 1.5]").unwrap();
        let got: Vec<Option<u32>> = v.as_arr().unwrap().iter().map(Json::as_u32).collect();
        assert_eq!(got, [Some(0), Some(7), Some(u32::MAX), None, None, None]);
    }
}
