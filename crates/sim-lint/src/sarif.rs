//! Minimal SARIF 2.1.0 export, hand-rendered (no external crates), for CI
//! code-scanning annotations.
//!
//! Only the fields code-scanning consumers actually read are emitted: one
//! run, a driver with one rule per lint, and one `error`-level result per
//! diagnostic with a single physical location.

use sim_snap::codec::json_escape;

use crate::diag::Diagnostic;
use crate::passes::LINT_NAMES;

/// Renders diagnostics as a SARIF 2.1.0 log.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"sim-lint\",\n          \"rules\": [",
    );
    let mut rules: Vec<&str> = LINT_NAMES.to_vec();
    rules.push("pragma");
    for (i, rule) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"defaultConfiguration\": {{\"level\": \"error\"}}}}",
            json_escape(rule)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \
             \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            \
             {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}\n          ]\n        }}",
            json_escape(&d.lint),
            json_escape(&d.message),
            json_escape(&d.file),
            d.line
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_contains_schema_rules_and_results() {
        let d = Diagnostic::new(
            "cycle-arith",
            "crates/dram-sim/src/bank.rs",
            42,
            "unchecked `+` with \"quotes\"",
        );
        let s = to_sarif(&[d]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"sim-lint\""));
        assert!(s.contains("\"id\": \"cycle-arith\""));
        assert!(s.contains("\"ruleId\": \"cycle-arith\""));
        assert!(s.contains("\"uri\": \"crates/dram-sim/src/bank.rs\""));
        assert!(s.contains("\"startLine\": 42"));
        assert!(s.contains("\\\"quotes\\\""));
    }

    #[test]
    fn empty_log_has_empty_results() {
        let s = to_sarif(&[]);
        assert!(s.contains("\"results\": []"));
        // Rules are declared even with no findings.
        assert!(s.contains("\"id\": \"no-panic-hot-path\""));
    }
}
