//! A minimal JSON value + serializer + parser for the `BENCH_*.json` and
//! `hybridc` artifacts.
//!
//! The build environment has no registry access, so instead of `serde` the
//! bench binaries assemble a small [`Json`] tree and render it. Output is
//! deterministic (object keys keep insertion order) so artifact diffs
//! between CI runs are meaningful. [`Json::parse`] reads the same format
//! back — the `hybridc` plan cache persists and reloads its entries
//! through this round trip.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (kept separate from floats so counters render exactly).
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Float; non-finite values render as `null` (JSON has no NaN).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Counts [`Json::parse`] calls, on every thread, whose input contains a
/// watched marker — lets a test assert how often a request line is
/// parsed on its way through the serving loop's threads.
#[cfg(test)]
pub(crate) mod parse_probe {
    use std::sync::{Mutex, MutexGuard};

    static WATCHED: Mutex<Vec<(&str, u64)>> = Mutex::new(Vec::new());

    fn watched() -> MutexGuard<'static, Vec<(&'static str, u64)>> {
        WATCHED.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The parses so far of inputs containing `marker`; the first call
    /// starts watching it.
    pub(crate) fn parses_of(marker: &'static str) -> u64 {
        let mut watched = watched();
        match watched.iter().find(|(m, _)| *m == marker) {
            Some(&(_, n)) => n,
            None => {
                watched.push((marker, 0));
                0
            }
        }
    }

    pub(super) fn record(src: &str) {
        for (marker, n) in watched().iter_mut() {
            *n += src.contains(*marker) as u64;
        }
    }
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a signed integer ([`Json::Int`] or a fitting
    /// [`Json::UInt`]).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a float (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this module renders: no
    /// exponent-free-integer/float ambiguity games — numbers without `.`,
    /// `e` or a sign parse as [`Json::UInt`], with a leading `-` as
    /// [`Json::Int`], anything else as [`Json::Num`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, with its byte
    /// offset.
    pub fn parse(src: &str) -> Result<Json, String> {
        #[cfg(test)]
        parse_probe::record(src);
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Renders the value as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value on a single line with no whitespace — the
    /// newline-delimited wire format of the `hybridd` compile service
    /// (one response per line, greppable as `"key":value`). Parses back
    /// with [`Json::parse`] exactly like the pretty form.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogates are not emitted by the serializer;
                        // map them to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape \\{}", *other as char)),
                }
            }
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8")?;
                let c = s.chars().next().expect("non-empty by guard");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII number");
    if text.contains(['.', 'e', 'E']) {
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    } else if text.starts_with('-') {
        // Keep the sign inside the parse so "--3" is rejected, not
        // double-negated.
        text.parse::<i64>()
            .ok()
            .filter(|_| text[1..].bytes().all(|c| c.is_ascii_digit()))
            .map(Json::Int)
            .ok_or_else(|| format!("bad number {text:?} at byte {start}"))
    } else {
        text.parse::<u64>()
            .map(Json::UInt)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected {:?} at byte {}", *c as char, *pos)),
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let v = Json::obj(vec![
            ("name", Json::str("jacobi2d")),
            ("score", Json::Num(1.5)),
            ("counts", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = v.render();
        assert!(s.contains("\"name\": \"jacobi2d\""));
        assert!(s.contains("\"score\": 1.5"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let v = Json::obj(vec![
            ("name", Json::str("heat\"3d\"")),
            ("score", Json::Num(-1.5)),
            ("hit", Json::Bool(true)),
            ("miss", Json::Null),
            ("h", Json::Int(-3)),
            ("counts", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "nested",
                Json::obj(vec![("w", Json::Arr(vec![Json::UInt(3), Json::UInt(32)]))]),
            ),
        ]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
        // Accessors walk the parsed tree.
        assert_eq!(back.get("name").and_then(Json::as_str), Some("heat\"3d\""));
        assert_eq!(back.get("h").and_then(Json::as_i64), Some(-3));
        assert_eq!(back.get("score").and_then(Json::as_f64), Some(-1.5));
        assert_eq!(back.get("hit").and_then(Json::as_bool), Some(true));
        let w = back.get("nested").and_then(|n| n.get("w")).unwrap();
        let w: Vec<u64> = w
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(w, vec![3, 32]);
    }

    #[test]
    fn compact_rendering_is_one_line_and_round_trips() {
        let v = Json::obj(vec![
            ("name", Json::str("jacobi\n2d")),
            ("ok", Json::Bool(true)),
            ("h", Json::Int(-3)),
            ("w", Json::Arr(vec![Json::UInt(3), Json::UInt(32)])),
            ("nested", Json::obj(vec![("x", Json::Null)])),
            ("empty", Json::Obj(vec![])),
        ]);
        let s = v.render_compact();
        assert!(!s.contains('\n') || s.contains("\\n"), "{s}");
        assert!(!s.contains(": "), "no space after colons: {s}");
        assert_eq!(
            s,
            r#"{"name":"jacobi\n2d","ok":true,"h":-3,"w":[3,32],"nested":{"x":null},"empty":{}}"#
        );
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\": 1} extra",
            "--3",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_handles_escapes_and_number_classes() {
        let v = Json::parse(r#"{"s": "a\nbA", "f": 1.25, "neg": -7, "pos": 7}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\nbA"));
        assert_eq!(v.get("f"), Some(&Json::Num(1.25)));
        assert_eq!(v.get("neg"), Some(&Json::Int(-7)));
        assert_eq!(v.get("pos"), Some(&Json::UInt(7)));
    }

    #[test]
    fn escapes_strings_and_hides_nan() {
        let v = Json::obj(vec![
            ("q", Json::str("a\"b\\c\nd")),
            ("bad", Json::Num(f64::NAN)),
        ]);
        let s = v.render();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"bad\": null"));
    }
}
