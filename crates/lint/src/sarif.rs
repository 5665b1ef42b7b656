//! SARIF 2.1.0 output, so CI can upload diagnostics to GitHub code
//! scanning (`github/codeql-action/upload-sarif`).
//!
//! The workspace is offline (no `serde`), so the document is emitted by
//! a small purpose-built JSON writer. The shape follows the SARIF 2.1.0
//! schema's minimum for a static-analysis run: one `run` with the tool's
//! rule metadata and one `result` per diagnostic, each carrying a
//! `physicalLocation` with `startLine`/`startColumn` and the full
//! message (reachability chain notes included) as text.
#![allow(
    clippy::let_underscore_must_use,
    reason = "every `write!` here targets a `String`, which never fails"
)]

use crate::rules::{Diagnostic, Rule};
use std::fmt::Write as _;

/// Schema URI pinned in every report.
pub const SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Escapes `s` as JSON string *contents* (no surrounding quotes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders `diags` as a complete SARIF 2.1.0 document.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut s = String::with_capacity(4096 + diags.len() * 512);
    s.push_str("{\n");
    let _ = writeln!(s, "  \"$schema\": \"{}\",", esc(SCHEMA));
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"sdp-lint\",\n");
    s.push_str("          \"informationUri\": \"https://github.com/sdplace/sdplace\",\n");
    s.push_str("          \"rules\": [\n");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let _ = writeln!(
            s,
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"help\": {{\"text\": \"{}\"}}}}{}",
            esc(rule.name()),
            esc(rule.short_description()),
            esc(rule.help()),
            if i + 1 < Rule::ALL.len() { "," } else { "" }
        );
    }
    s.push_str("          ]\n        }\n      },\n");
    s.push_str("      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let rule_index = Rule::ALL
            .iter()
            .position(|r| *r == d.rule)
            .unwrap_or_default();
        let mut text = d.message.clone();
        for note in &d.notes {
            text.push_str("; ");
            text.push_str(note);
        }
        if d.marker_missing_reason {
            text.push_str("; an allow-marker is present but has no `-- <reason>`");
        }
        let uri = esc(&d.rel_path.replace('\\', "/"));
        let _ = write!(
            s,
            "        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{uri}\", \"uriBaseId\": \"SRCROOT\"}}, \
             \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]",
            esc(d.rule.name()),
            rule_index,
            esc(&text),
            d.line.max(1),
            d.col.max(1),
        );
        let _ = writeln!(s, "}}{}", if i + 1 < diags.len() { "," } else { "" });
    }
    s.push_str("      ],\n");
    s.push_str(
        "      \"originalUriBaseIds\": {\"SRCROOT\": {\"description\": \
         {\"text\": \"workspace root\"}}}\n",
    );
    s.push_str("    }\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_metacharacters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_report_is_still_a_full_document() {
        let doc = to_sarif(&[]);
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("\"name\": \"sdp-lint\""));
        assert!(doc.contains("\"results\": ["));
        for rule in Rule::ALL {
            assert!(doc.contains(rule.name()), "rule {rule} listed");
        }
    }
}
