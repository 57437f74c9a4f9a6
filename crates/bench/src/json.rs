//! The workspace's one JSON dialect: every report, Chrome trace,
//! monitor line, `bgserve` wire line and disk-cache entry is written by
//! a [`Writer`] and read back by [`parse`] (no serde). Keys and strings
//! are always escaped; an `f64` is written by [`Num`]; a u64 that must
//! survive a round trip exactly is a decimal string, because the parser
//! reads numbers into an `f64` ([`parse_u64`] reads it back); digests
//! are `"0x%016x"` strings. The parser recurses once per level and reads
//! request lines off a socket, so it refuses documents nested deeper
//! than [`MAX_DEPTH`].

use std::fmt::{self, Write as _};

/// The deepest nesting [`parse`] accepts. The deepest document the
/// workspace writes or reads (`BENCH_baseline.json`) has 8 levels.
pub const MAX_DEPTH: usize = 64;

/// Writes one JSON document straight into one `String`, placing the
/// commas: chain `obj`/`arr`, `key` and value calls in document order,
/// e.g. `w.obj().key("job").u64(3).end_obj()`.
pub struct Writer {
    out: String,
    /// A value ended last, so the next key or array item needs a comma.
    comma: bool,
}

impl Default for Writer {
    /// Room for a wire line or a small snapshot up front: bgserve renders
    /// two lines per cache hit, and growing each from empty took ~40% of
    /// the snapshot's render time.
    fn default() -> Writer {
        let out = String::with_capacity(1024);
        Writer { out, comma: false }
    }
}

impl Writer {
    /// The document written so far; the writer is left empty.
    pub fn finish(&mut self) -> String {
        self.comma = false;
        std::mem::take(&mut self.out)
    }

    /// The buffer, after the comma the next token needs; `value` tells
    /// whether that token completes a value.
    fn next(&mut self, value: bool) -> &mut String {
        if std::mem::replace(&mut self.comma, value) {
            self.out.push(',');
        }
        &mut self.out
    }

    /// A number or literal (writing into a `String` cannot fail).
    fn display(&mut self, v: impl fmt::Display) -> &mut Writer {
        let _ = write!(self.next(true), "{v}");
        self
    }

    pub fn obj(&mut self) -> &mut Writer {
        self.next(false).push('{');
        self
    }

    pub fn end_obj(&mut self) -> &mut Writer {
        self.out.push('}');
        self.comma = true;
        self
    }

    pub fn arr(&mut self) -> &mut Writer {
        self.next(false).push('[');
        self
    }

    pub fn end_arr(&mut self) -> &mut Writer {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// The next key of the open object; its value comes next.
    pub fn key(&mut self, k: &str) -> &mut Writer {
        quote(self.next(false), k).push(':');
        self
    }

    pub fn str(&mut self, v: &str) -> &mut Writer {
        quote(self.next(true), v);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.display(v)
    }

    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.display(v)
    }

    /// An `f64` as [`Num`] renders it.
    pub fn f64(&mut self, v: f64) -> &mut Writer {
        self.display(Num(v))
    }

    /// An `f64` with exactly `decimals` digits after the point.
    pub fn f64_fixed(&mut self, v: f64, decimals: usize) -> &mut Writer {
        self.display(format_args!("{:.*}", decimals, Num(v)))
    }

    /// A u64 as a decimal string, exact through any JSON reader.
    pub fn u64_str(&mut self, v: u64) -> &mut Writer {
        self.display(format_args!("\"{v}\""))
    }

    /// A 64-bit digest as a `"0x%016x"` string.
    pub fn hex(&mut self, v: u64) -> &mut Writer {
        self.display(format_args!("\"0x{v:016x}\""))
    }
}

/// An `f64` as this dialect writes it: `Display` (which never uses an
/// exponent and drops the fraction of integral values), and `null` for
/// NaN and the infinities. Width and precision pass through, so the
/// flat `stats.txt` format pads the same text.
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.pad("null")
        }
    }
}

/// Append `s` to `out` as a JSON string literal. Only ASCII bytes are
/// escaped, so every split falls on a char boundary.
fn quote<'a>(out: &'a mut String, s: &str) -> &'a mut String {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `obj.get(a).get(b)...num()` as one call, for dotted lookups.
    pub fn path_num(&self, path: &[&str]) -> Option<f64> {
        let mut v = self;
        for k in path {
            v = v.get(k)?;
        }
        v.num()
    }
}

/// Exact u64 from a JSON value: an integral number (≤ 2^53, the f64
/// exactness bound), a decimal string, or a `0x` hex string.
pub fn parse_u64(v: &Json) -> Option<u64> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match v {
        Json::Num(n) if *n >= 0.0 && *n <= EXACT && n.fract() == 0.0 => Some(*n as u64),
        Json::Str(s) => {
            if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).ok()
            } else {
                s.parse().ok()
            }
        }
        _ => None,
    }
}

/// `parse_u64` of `obj[key]`, with a field-naming error.
pub fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(parse_u64)
        .ok_or_else(|| format!("missing or non-u64 field {key:?}"))
}

/// `obj[key]` as an owned string, with a field-naming error.
pub fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// The most characters of outside text that an error message quotes.
const QUOTE_CHARS: usize = 64;

/// `text` quoted as `{:?}` does, cut to its first 64 characters, so an
/// error that names bad input stays short however long the input was.
pub fn quote_head(text: &str) -> String {
    let end = text
        .char_indices()
        .nth(QUOTE_CHARS)
        .map_or(text.len(), |(i, _)| i);
    format!("{:?}", &text[..end])
}

/// Parse one JSON document (object, array, or scalar). Malformed input,
/// including a torn final line from a still-running writer or nesting
/// deeper than [`MAX_DEPTH`], is an error string with a byte offset,
/// never a panic.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, which sits inside `depth` arrays and
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut kvs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(kvs));
            }
            loop {
                skip_ws(b, pos);
                let k = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                kvs.push((k, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(kvs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf8".to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number at offset {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut s = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece:
        // both are ASCII, so the run ends on a char boundary.
        let Some(n) = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\') else {
            return Err("unterminated string".to_string());
        };
        let run = std::str::from_utf8(&b[*pos..*pos + n]).map_err(|_| "bad utf8".to_string())?;
        s.push_str(run);
        *pos += n + 1;
        if b[*pos - 1] == b'"' {
            return Ok(s);
        }
        let Some(&e) = b.get(*pos) else {
            return Err("unterminated escape".to_string());
        };
        *pos += 1;
        match e {
            b'"' => s.push('"'),
            b'\\' => s.push('\\'),
            b'/' => s.push('/'),
            b'n' => s.push('\n'),
            b't' => s.push('\t'),
            b'r' => s.push('\r'),
            b'u' => {
                let hex = b
                    .get(*pos..*pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| "bad \\u escape".to_string())?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                *pos += 4;
                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(format!("bad escape at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        Writer::default().str(s).finish()
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("é\r\t"), "\"é\\r\\t\"");
        let mut w = Writer::default();
        w.obj().key("k\"").str("v").end_obj();
        assert_eq!(w.finish(), "{\"k\\\"\":\"v\"}");
    }

    #[test]
    fn commas_follow_values_not_openers_or_keys() {
        let mut w = Writer::default();
        w.obj().key("a").obj().end_obj().key("b").arr();
        w.arr().end_arr().obj().end_obj().bool(false).end_arr();
        w.key("c").u64(0).end_obj();
        assert_eq!(w.finish(), "{\"a\":{},\"b\":[[],{},false],\"c\":0}");
    }

    #[test]
    fn numbers_render_in_the_dialect() {
        let mut w = Writer::default();
        w.arr().f64(2.0).f64(1.5).f64(f64::NAN).f64(f64::INFINITY);
        w.f64_fixed(246.33333, 3).u64(0).u64(10).u64(u64::MAX);
        w.u64_str(u64::MAX).hex(0xff).end_arr();
        assert_eq!(
            w.finish(),
            "[2,1.5,null,null,246.333,0,10,18446744073709551615,\
             \"18446744073709551615\",\"0x00000000000000ff\"]"
        );
        assert_eq!(
            format!("{:>6}|{:<6}|", Num(1.5), Num(f64::NAN)),
            "   1.5|null  |"
        );
    }

    #[test]
    fn non_finite_scalars_are_null() {
        assert_eq!(Num(f64::NAN).to_string(), "null");
        assert_eq!(Num(2.0).to_string(), "2");
    }

    #[test]
    fn parser_rejects_torn_lines_without_panicking() {
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"a\":1}x").is_err());
        // Escapes and unicode round-trip.
        let v = parse("{\"k\\n\":\"v\\u00e9\",\"n\":-1.5e2}").unwrap();
        assert_eq!(v.get("k\n").and_then(Json::str), Some("vé"));
        assert_eq!(v.path_num(&["n"]), Some(-150.0));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        let deep = format!("{{\"a\":{}}}", nested("[", "]", MAX_DEPTH - 1));
        assert!(parse(&deep).is_ok());
        for too_deep in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"a\":", "}", MAX_DEPTH + 1),
            "[".repeat(1 << 20),
        ] {
            let e = parse(&too_deep).expect_err("too deep");
            assert!(e.contains(&format!("{MAX_DEPTH} levels")), "{e}");
        }
    }

    #[test]
    fn quote_head_cuts_at_a_char_boundary() {
        assert_eq!(quote_head("warp"), "\"warp\"");
        let long = "é".repeat(100);
        assert_eq!(quote_head(&long), format!("{:?}", "é".repeat(QUOTE_CHARS)));
    }
}
