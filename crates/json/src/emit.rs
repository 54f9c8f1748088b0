//! Appending JSON text to a byte buffer.
//!
//! These are the one definition of how numbers and strings are written:
//! the [`Value`](crate::Value) printer uses them, and so do streaming
//! encoders that write JSON straight into a reused buffer without
//! building a tree first. Both therefore produce the same bytes.

use std::fmt;

/// Hex digits for `\u00XX` escapes (lower case, like `{:04x}`).
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Append `x` as a JSON number.
///
/// NaN and ±∞ are written as `null` (JSON has no spelling for them).
/// A finite float uses std's shortest round-trip form, except that an
/// integral value below 1e15 in magnitude keeps one decimal (`1.0`,
/// `-0.0`), so it reads back as a float rather than an integer.
pub fn push_f64(out: &mut Vec<u8>, x: f64) {
    // Writing to a `Vec` cannot fail, and neither can f64's `Display`.
    let _ = write_f64(&mut Bytes(out), x);
}

/// Append a non-negative integer.
pub fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Append a signed integer.
pub(crate) fn push_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Append `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// `\n`, `\r` and `\t` use their short forms, other control characters
/// use `\u00XX`, and everything else (multi-byte UTF-8 included) is
/// copied as is.
pub fn push_escaped(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.push(b'"');
    // Copy unescaped runs in one go; every byte needing an escape is
    // ASCII, so a run never splits a multi-byte character.
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => &[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ],
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(short);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// The float rule of [`push_f64`], written to any text sink (the
/// [`Number`](crate::Number) `Display` impl shares it).
pub(crate) fn write_f64(w: &mut impl fmt::Write, x: f64) -> fmt::Result {
    if !x.is_finite() {
        w.write_str("null")
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        // `{}` drops the decimal point of integral values; keep it.
        write!(w, "{x:.1}")
    } else {
        write!(w, "{x}")
    }
}

/// A byte buffer as a `fmt::Write` target.
struct Bytes<'a>(&'a mut Vec<u8>);

impl fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(f: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        f(&mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn floats_follow_the_json_rule() {
        assert_eq!(text(|o| push_f64(o, 1.0)), "1.0");
        assert_eq!(text(|o| push_f64(o, -0.0)), "-0.0");
        assert_eq!(text(|o| push_f64(o, 0.125)), "0.125");
        assert_eq!(text(|o| push_f64(o, 1e14)), "100000000000000.0");
        assert_eq!(text(|o| push_f64(o, 1e15)), "1000000000000000");
        assert_eq!(text(|o| push_f64(o, f64::NAN)), "null");
        assert_eq!(text(|o| push_f64(o, f64::NEG_INFINITY)), "null");
    }

    #[test]
    fn integers_match_display() {
        for n in [0, 7, 10, 99, 1_000_000, u64::MAX] {
            assert_eq!(text(|o| push_u64(o, n)), n.to_string());
        }
        for n in [i64::MIN, -1, 0, 42, i64::MAX] {
            assert_eq!(text(|o| push_i64(o, n)), n.to_string());
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(text(|o| push_escaped(o, "plain")), r#""plain""#);
        assert_eq!(
            text(|o| push_escaped(o, "a\"b\\c\nd\re\tf")),
            r#""a\"b\\c\nd\re\tf""#
        );
        assert_eq!(
            text(|o| push_escaped(o, "\u{0}\u{8}\u{1f}")),
            r#""\u0000\u0008\u001f""#
        );
        assert_eq!(text(|o| push_escaped(o, "é\"ü€")), "\"é\\\"ü€\"");
    }
}
