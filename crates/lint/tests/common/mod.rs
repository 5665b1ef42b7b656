//! The fixture harness the rule tests share: seeded corpora under
//! `tests/corpus/`, their `//~ ERROR <rule>` expectations, and synthetic
//! mini-workspace sources for the call-graph passes.
#![allow(
    dead_code,
    reason = "each test crate that includes this module uses a subset of it"
)]

use sdp_lint::FileCtx;
use std::collections::BTreeSet;
use std::path::Path;

/// Reads a seeded fixture from `tests/corpus/`.
pub fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parses `//~ ERROR <rule>` expectations out of a fixture.
pub fn expectations(source: &str) -> BTreeSet<(usize, String)> {
    source
        .lines()
        .enumerate()
        .flat_map(|(i, line)| {
            line.split("//~ ERROR ")
                .nth(1)
                .into_iter()
                .flat_map(|r| r.split(','))
                .map(move |r| (i + 1, r.trim().to_string()))
        })
        .collect()
}

/// Prepares one synthetic source for the workspace-level passes. Kernel
/// and library flags stay off so only the call-graph rules speak.
pub fn src_file(crate_name: &str, rel: &str, source: &str) -> sdp_lint::SourceFile {
    sdp_lint::prepare_source(
        source,
        FileCtx {
            rel_path: rel.into(),
            crate_name: crate_name.into(),
            kernel: false,
            library: false,
            test_code: false,
        },
    )
}

/// Lints a fixture through the full workspace pipeline (the graph rules
/// need the call graph) and compares the produced (line, rule) set
/// against the `//~ ERROR` markers exactly — so an unexpected finding
/// from ANY rule fails the test, not just the rule under test.
pub fn check_graph(name: &str, crate_name: &str) -> Vec<sdp_lint::Diagnostic> {
    let source = fixture(name);
    let f = src_file(crate_name, &format!("corpus/{name}"), &source);
    let diags = sdp_lint::lint_sources(&[f]);
    let got: BTreeSet<(usize, String)> = diags
        .iter()
        .map(|d| (d.line, d.rule.name().to_string()))
        .collect();
    let want = expectations(&source);
    assert_eq!(
        got, want,
        "{name}: diagnostics (left) must match //~ ERROR markers (right)"
    );
    diags
}
