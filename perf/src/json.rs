//! Hand-written JSON: a value tree, a writer and a recursive-descent
//! reader — enough for the result line, the set files `compare` reads,
//! `BENCHMARK.json` and the trace files. No dependency.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered, so written files read in the order they were built.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented rendering with a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                // Arrays of scalars stay on one line even when indenting.
                let flat = items
                    .iter()
                    .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)));
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat && indent.is_some() { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    v.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Numbers keep every digit they were measured with (`{}` on an `f64`
/// is the shortest text that reads back to the same value); JSON has no
/// NaN or infinity, so those become `null`.
fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON: {msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(fields));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| self.err("bad number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("bad escape")),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_keeps_every_digit() {
        let v = Value::obj([
            ("s", Value::str("a\"b\\c\nd\u{1}")),
            ("n", Value::Num(1.2034567890123)),
            ("i", Value::Num(1000.0)),
            ("nan", Value::Num(f64::NAN)),
            ("a", Value::Arr(vec![Value::Bool(true), Value::Null])),
        ]);
        let expected = concat!(
            r#"{"s":"a\"b\\c\nd\u"#,
            r#"0001","n":1.2034567890123,"i":1000,"nan":null,"a":[true,null]}"#
        );
        assert_eq!(v.render(), expected);
    }

    #[test]
    fn reader_round_trips_both_renderings() {
        let v = Value::obj([
            (
                "metrics",
                Value::obj([("x.y", Value::obj([("value", Value::Num(-0.5e-3))]))]),
            ),
            (
                "list",
                Value::Arr(vec![
                    Value::obj([("k", Value::str("é\t"))]),
                    Value::Arr(vec![]),
                ]),
            ),
            ("empty", Value::obj::<String>([])),
        ]);
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(parse(&v.render_pretty()).unwrap(), v);
        let value = v
            .get("metrics")
            .and_then(|m| m.get("x.y"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert_eq!(value, Some(-0.0005));
    }

    #[test]
    fn reader_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"abc", "1 2", "{\"a\":tru}"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
