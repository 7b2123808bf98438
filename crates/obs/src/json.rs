//! Minimal JSON emission helpers (the workspace has no serde).
//!
//! Only what the snapshot/report writers need: string escaping and
//! locale-independent number formatting. Parsing is out of scope.

/// Escapes `s` for inclusion in a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Renders an `f64` as a JSON value: finite numbers in `{}` format
/// (always containing enough precision to round-trip; integral floats
/// print without a fractional part, which is still valid JSON),
/// non-finite values as `null` (JSON has no NaN/Infinity).
pub fn num(v: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, v);
    out
}

/// Appends what [`num`] renders to `out`, without the intermediate
/// `String` — for encoders that emit one number per array element.
pub fn write_num(out: &mut String, v: f64) {
    use std::fmt::Write;
    if v.is_finite() {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        let mut out = String::from("[");
        write_num(&mut out, -0.25);
        write_num(&mut out, f64::NEG_INFINITY);
        assert_eq!(out, "[-0.25null");
    }
}
