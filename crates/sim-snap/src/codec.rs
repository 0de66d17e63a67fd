//! The workspace's one codec module: FNV-1a digests, one-line JSON
//! objects and `key = value` config files.
//!
//! Every crate that hashes state, writes or reads a JSON line, or parses a
//! plan or matrix file goes through here, so the encodings cannot drift
//! apart: a string [`json_escape`] writes is exactly what [`json_str`]
//! reads back, and a config typo gets the same `line N: …` message whether
//! it sits in a fault plan or a campaign matrix.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes` — the digest behind snapshot checksums,
/// configuration digests and `Report::state_digest`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Escapes `s` for use inside a JSON string literal (quotes not included).
/// Control characters become `\n`, `\t`, `\r` or `\u00XX`; everything else
/// outside `"` and `\` passes through unchanged, non-ASCII included.
pub fn json_escape(s: &str) -> String {
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

fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// The text after the first `"key":` of a flat one-line JSON object. Keys
/// inside string values cannot match: [`json_escape`] puts a backslash in
/// front of every quote they contain.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    Some(&line[start..])
}

/// Reads the string value of `"key":"…"`, undoing [`json_escape`].
/// `None` when the key is missing, its value is not a string, or the
/// string is unterminated.
pub fn json_str(line: &str, key: &str) -> Option<String> {
    let rest = json_field(line, key)?.strip_prefix('"')?;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Some(json_unescape(&rest[..i]));
        }
    }
    None
}

/// Reads the unsigned integer value of `"key":N`. `None` when the key is
/// missing or the value is negative, quoted, non-numeric or overflows.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = json_field(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads the boolean value of `"key":true|false`.
pub fn json_bool(line: &str, key: &str) -> Option<bool> {
    let rest = json_field(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// One `key = value` assignment read by [`kv_lines`]. The value helpers
/// return their error as `line N: <key> wants …` text for the caller to
/// wrap in its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvLine<'a> {
    /// 1-based line number in the source text.
    pub lineno: usize,
    /// The key, trimmed.
    pub key: &'a str,
    /// The value, trimmed, with any `#` comment removed.
    pub value: &'a str,
}

impl KvLine<'_> {
    /// `line N: <msg>`.
    pub fn error(&self, msg: impl fmt::Display) -> String {
        format!("line {}: {msg}", self.lineno)
    }

    /// `line N: <key> wants <what>, got "<value>"`.
    pub fn wants(&self, what: &str) -> String {
        self.error(format_args!(
            "{} wants {what}, got {:?}",
            self.key, self.value
        ))
    }

    /// The value as an unsigned integer.
    ///
    /// # Errors
    ///
    /// `… wants an integer …` when it is not one.
    pub fn u64(&self) -> Result<u64, String> {
        self.value.parse().map_err(|_| self.wants("an integer"))
    }

    /// The value as a number.
    ///
    /// # Errors
    ///
    /// `… wants a number …` when it is not one.
    pub fn f64(&self) -> Result<f64, String> {
        self.value.parse().map_err(|_| self.wants("a number"))
    }

    /// The value as `true` or `false`.
    ///
    /// # Errors
    ///
    /// `… wants true|false …` for anything else.
    pub fn bool(&self) -> Result<bool, String> {
        match self.value {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(self.wants("true|false")),
        }
    }
}

/// Reads the assignments of a minimal TOML subset: `key = value` lines,
/// `#` comments, blank lines, and the one allowed `section` header (for
/// example `"[faults]"`). Yields `Err("line N: …")` for any other section
/// header and for lines that are not `key = value`; the caller decides
/// which keys exist.
pub fn kv_lines<'a>(
    text: &'a str,
    section: &'a str,
) -> impl Iterator<Item = Result<KvLine<'a>, String>> + 'a {
    text.lines().enumerate().filter_map(move |(index, raw)| {
        let lineno = index + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() || line == section {
            return None;
        }
        if line.starts_with('[') {
            return Some(Err(format!(
                "line {lineno}: unknown section {line:?} (only {section} is allowed)"
            )));
        }
        Some(match line.split_once('=') {
            Some((key, value)) => Ok(KvLine {
                lineno,
                key: key.trim(),
                value: value.trim(),
            }),
            None => Err(format!(
                "line {lineno}: expected `key = value`, got {line:?}"
            )),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 reference values: the empty input is the offset basis.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn escape_then_read_round_trips_every_awkward_char() {
        let mut awkward: Vec<String> = (0u32..0x20)
            .filter_map(char::from_u32)
            .map(String::from)
            .collect();
        awkward.extend(
            ["\"", "\\", "\\\"", "é", "日本", "🦀", "a\"b\\c\u{1}\u{7f}"].map(String::from),
        );
        awkward.push(awkward.concat());
        for s in &awkward {
            let escaped = json_escape(s);
            assert!(
                escaped.chars().all(|c| (c as u32) >= 0x20),
                "raw control char left in {escaped:?}"
            );
            let line = format!("{{\"k\":\"{escaped}\",\"n\":42,\"b\":false}}");
            assert_eq!(json_str(&line, "k").as_deref(), Some(s.as_str()), "{line}");
            assert_eq!(json_u64(&line, "n"), Some(42), "{line}");
            assert_eq!(json_bool(&line, "b"), Some(false), "{line}");
        }
    }

    #[test]
    fn kv_lines_skip_comments_and_header_and_name_bad_lines() {
        let text = "# plan\n[faults]\n\nseed = 9 # inline\nrate=0.5\non = maybe\n";
        let lines: Vec<KvLine> = kv_lines(text, "[faults]").map(Result::unwrap).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            (lines[0].lineno, lines[0].key, lines[0].value),
            (4, "seed", "9")
        );
        assert_eq!(lines[0].u64(), Ok(9));
        assert_eq!(lines[1].f64(), Ok(0.5));
        assert_eq!(
            lines[2].bool(),
            Err("line 6: on wants true|false, got \"maybe\"".to_string())
        );
        let errors: Vec<String> = kv_lines("[other]\njust words\n", "[faults]")
            .map(Result::unwrap_err)
            .collect();
        assert_eq!(
            errors,
            [
                "line 1: unknown section \"[other]\" (only [faults] is allowed)",
                "line 2: expected `key = value`, got \"just words\"",
            ]
        );
    }
}
