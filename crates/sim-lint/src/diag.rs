//! Diagnostics and their human / JSON renderings.

use std::fmt;

use sim_snap::codec::json_escape;

/// One lint finding, pinned to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Name of the lint that produced it (`no-panic-hot-path`, …).
    pub lint: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(lint: &str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            lint: lint.to_string(),
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {}:{}: {}",
            self.lint, self.file, self.line, self.message
        )
    }
}

/// Renders diagnostics as a JSON array (stable field order).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"lint\":\"{}\",", json_escape(&d.lint)));
        out.push_str(&format!("\"file\":\"{}\",", json_escape(&d.file)));
        out.push_str(&format!("\"line\":{},", d.line));
        out.push_str(&format!("\"message\":\"{}\"", json_escape(&d.message)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Renders diagnostics as a versioned JSON report object:
/// `{"schema_version": N, "diagnostics": [...]}`. Consumers key on
/// `schema_version` to survive future field additions.
pub fn to_json_report(diags: &[Diagnostic]) -> String {
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"diagnostics\":{}}}",
        to_json(diags)
    )
}

/// Version of the `--json` report schema.
pub const SCHEMA_VERSION: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering() {
        let d = Diagnostic::new(
            "no-panic-hot-path",
            "crates/x/src/a.rs",
            7,
            "call to `unwrap`",
        );
        assert_eq!(
            d.to_string(),
            "error[no-panic-hot-path]: crates/x/src/a.rs:7: call to `unwrap`"
        );
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let d = Diagnostic::new("metric-registry", "a.rs", 1, "name \"x\\y\" bad");
        let j = to_json(&[d]);
        assert!(j.contains("\\\"x\\\\y\\\""));
        assert!(j.starts_with('[') && j.ends_with(']'));
    }

    #[test]
    fn empty_is_empty_array() {
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn report_carries_schema_version() {
        let r = to_json_report(&[]);
        assert_eq!(r, "{\"schema_version\":1,\"diagnostics\":[]}");
        let d = Diagnostic::new("cycle-arith", "a.rs", 3, "m");
        let r = to_json_report(&[d]);
        assert!(r.starts_with("{\"schema_version\":1,\"diagnostics\":["));
        assert!(r.contains("\"lint\":\"cycle-arith\""));
        assert!(r.ends_with("]}"));
    }
}
