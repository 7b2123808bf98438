//! A minimal JSON **parser** for the wire protocol.
//!
//! The workspace has no serde (offline build); `warptree-obs` already
//! hand-rolls JSON *emission* ([`warptree_obs::json`]) and this module
//! adds the other direction: a small recursive-descent parser producing
//! a [`Json`] value tree. It accepts standard JSON (RFC 8259) with two
//! deliberate serving-oriented restrictions: nesting depth is capped
//! (stack safety against adversarial frames) and numbers are parsed as
//! `f64` (every field the protocol defines fits).

use std::collections::BTreeMap;

/// Maximum nesting depth accepted by the parser. Protocol messages are
/// at most ~3 levels deep; the cap exists so a hostile frame of ten
/// thousand `[` cannot overflow the parse stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (keys sorted; duplicate keys keep the last value).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, if this is a non-negative integer
    /// small enough to round-trip through `f64` exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value back to JSON text: keys in sorted (`BTreeMap`)
    /// order, numbers through the shared shortest-round-trip formatter
    /// ([`warptree_obs::json::num`]), strings re-escaped. Parsing and
    /// re-rendering is stable, which is what lets a coordinator embed a
    /// shard's parsed sub-objects (span trees) in its own output.
    pub fn render(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(v) => warptree_obs::json::num(*v),
            Json::Str(s) => format!("\"{}\"", warptree_obs::json::escape(s)),
            Json::Arr(items) => {
                let mut out = String::from("[");
                for (i, x) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&x.render());
                }
                out.push(']');
                out
            }
            Json::Obj(map) => {
                let mut out = String::from("{");
                for (i, (k, x)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\"{}\":{}",
                        warptree_obs::json::escape(k),
                        x.render()
                    ));
                }
                out.push('}');
                out
            }
        }
    }
}

/// Parses `input` as a single JSON value (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes: every delimiter the grammar branches on is
    /// ASCII, so scanning is byte-wise and slicing stays on char
    /// boundaries.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected {:?} at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let v: f64 = text
            .parse()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number {text:?} at byte {start}"));
        }
        Ok(Json::Num(v))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
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
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates (and only surrogates) are not
                            // scalar values; map them to U+FFFD rather
                            // than implementing pair decoding the
                            // protocol never emits.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in
                    // one slice: time linear in the string, not in what
                    // is left of the input.
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        if c < 0x20 {
                            return Err(format!("raw control character at byte {}", self.pos));
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v =
            parse(r#"{"op":"search","query":[1.0,-2.5,3e2],"epsilon":0.5,"window":null}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("search"));
        let q: Vec<f64> = v
            .get("query")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(q, vec![1.0, -2.5, 300.0]);
        assert_eq!(v.get("epsilon").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("window"), Some(&Json::Null));
    }

    #[test]
    fn round_trips_obs_snapshot_json() {
        // The parser must read what `warptree-obs` emits (the `stats`
        // response embeds a MetricsSnapshot verbatim).
        let reg = warptree_obs::MetricsRegistry::new();
        reg.counter("a.count").add(7);
        reg.set_gauge("b.rate", 0.5);
        reg.histogram("c.ns").record(100);
        let v = parse(&reg.snapshot().to_json()).unwrap();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.count"))
                .and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("b.rate"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\":1}extra",
            "NaN",
            "1e999", // overflows to infinity — rejected as non-finite
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Depth bomb: rejected, not a stack overflow.
        let bomb = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn strings_reject_what_they_always_rejected() {
        for bad in [
            "\"raw\ncontrol\"",
            "\"tab\there\"",
            r#""bad \q escape""#,
            r#""truncated \u12"#,
            r#""truncated \u12""#,
            r#""not hex \uzzzz""#,
            r#""split \u00é0""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Runs between escapes, multi-byte characters and an escape at
        // either end all survive the run-at-a-time copy.
        let v = parse(r#""\\héllo \u00e9 wörld\"""#).unwrap();
        assert_eq!(v.as_str(), Some("\\héllo é wörld\""));
    }

    /// Finding (e): every string character used to re-validate the rest
    /// of the input, so a reply's parse time grew with the square of
    /// its size (5.6 s for 320 KB). Parsing must be linear: a 1 MB
    /// `matches` array in well under a second even unoptimized, at no
    /// more than 3x the time per byte of a 64 KB one.
    #[test]
    fn parse_time_is_linear_in_the_response_size() {
        fn matches_array(bytes: usize) -> String {
            let mut out = String::from("{\"matches\":[");
            let mut i = 0u32;
            while out.len() < bytes {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"seq\":{},\"start\":{},\"len\":12,\"dist\":1.25}}",
                    i % 97,
                    i
                ));
                i += 1;
            }
            out.push_str("]}");
            out
        }
        // Fastest of five: the host's speed drifts, the minimum does not.
        fn ns_per_byte(text: &str) -> f64 {
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    assert!(parse(text).is_ok());
                    t.elapsed().as_nanos() as f64 / text.len() as f64
                })
                .fold(f64::INFINITY, f64::min)
        }
        let small = ns_per_byte(&matches_array(64 << 10));
        let big_text = matches_array(1 << 20);
        let big = ns_per_byte(&big_text);
        assert!(
            big * (big_text.len() as f64) < 1e9,
            "1 MB took {:.0} ms",
            big * big_text.len() as f64 / 1e6
        );
        assert!(
            big <= 3.0 * small,
            "{big:.1} ns/byte at 1 MB against {small:.1} at 64 KB"
        );
    }

    #[test]
    fn render_round_trips() {
        for text in [
            "null",
            "true",
            "[1,2.5,-3]",
            r#"{"a":[{"b":"x\"y"},null],"c":0.75}"#,
            r#"{"spans":[{"attrs":{"op":"search"},"dur_ns":12}]}"#,
        ] {
            let v = parse(text).unwrap();
            let rendered = v.render();
            assert_eq!(parse(&rendered).unwrap(), v, "{text}");
        }
        // Rendering is a fixed point: parse(render(v)) renders the same.
        let v = parse(r#"{"z":1,"a":[true,"s"]}"#).unwrap();
        assert_eq!(parse(&v.render()).unwrap().render(), v.render());
    }

    #[test]
    fn u64_accessor_checks_integrality() {
        assert_eq!(parse("5").unwrap().as_u64(), Some(5));
        assert_eq!(parse("5.5").unwrap().as_u64(), None);
        assert_eq!(parse("-5").unwrap().as_u64(), None);
    }
}
