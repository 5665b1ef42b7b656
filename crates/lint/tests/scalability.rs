//! Regression tests for the scalability rule, `quadratic-scan`: a seeded
//! fixture corpus checked exactly against `//~ ERROR` markers —
//! including the pinned false-positive negative (a constant-size-array
//! loop) — plus targeted call-graph tests for the chain notes and the
//! reachability gate.

mod common;

use common::{check_graph, src_file};
use sdp_lint::Rule;

// ---------------------------------------------------------------------
// quadratic-scan

#[test]
fn quadratic_scan_fires_and_suppresses() {
    // Seeds: membership scan, remove(0), iter().position, per-pass sort,
    // per-iteration collect, nested same-domain loops; negatives: the
    // constant-size-array loop (pinned), a loop-local sort, a reasoned
    // marker, and an unreachable orphan with the same pattern.
    let diags = check_graph("quadratic_scan.rs", "gp");
    let member = diags
        .iter()
        .find(|d| d.message.contains("out.contains"))
        .unwrap_or_else(|| panic!("no membership-scan finding: {diags:#?}"));
    assert!(
        member
            .notes
            .iter()
            .any(|n| n.contains("collection-sized `xs`")),
        "the loop's domain must be named: {:#?}",
        member.notes
    );
    assert!(
        member
            .notes
            .iter()
            .any(|n| n.contains("itself a flow entry point")),
        "a root's own site needs no chain: {:#?}",
        member.notes
    );
    let nested = diags
        .iter()
        .find(|d| d.message.contains("nested loops"))
        .unwrap_or_else(|| panic!("no nested-loop finding: {diags:#?}"));
    assert!(
        nested
            .notes
            .iter()
            .any(|n| n.contains("already ranges over `cells`")),
        "the enclosing loop must be pointed at: {:#?}",
        nested.notes
    );
}

#[test]
fn quadratic_scan_reports_root_to_site_chain() {
    // The scan lives two crates deep; the chain must start at the flow
    // root, like panic-reachability's.
    let core = src_file(
        "core",
        "crates/core/src/flow.rs",
        "pub fn run_flow(cells: &[u64]) -> Vec<u64> { sdp_gp::spread(cells) }\n",
    );
    let gp = src_file(
        "gp",
        "crates/gp/src/spread.rs",
        "fn spread(cells: &[u64]) -> Vec<u64> {\n\
             let mut out = Vec::new();\n\
             for c in cells {\n\
                 if !out.contains(c) {\n\
                     out.push(*c);\n\
                 }\n\
             }\n\
             out\n\
         }\n",
    );
    let diags = sdp_lint::lint_sources(&[core, gp]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, Rule::QuadraticScan);
    let chain = diags
        .iter()
        .flat_map(|d| &d.notes)
        .find(|n| n.contains("reached via"))
        .unwrap_or_else(|| panic!("no chain note: {diags:#?}"));
    assert!(
        chain.contains("core::run_flow") && chain.contains("gp::spread"),
        "root\u{2192}site chain: {chain}"
    );
}

#[test]
fn constant_range_loops_are_not_collection_sized() {
    // Pinned false-positive guard, mini-workspace form: a loop over a
    // numeric range (even a large one) has no collection-sized domain,
    // so linear work inside it stays silent.
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn warm(acc: &mut Vec<u64>) -> usize {\n\
             for i in 0..64 {\n\
                 if acc.contains(&i) {\n\
                     acc.push(i);\n\
                 }\n\
             }\n\
             acc.len()\n\
         }\n",
    );
    let diags = sdp_lint::lint_sources(&[gp]);
    assert!(
        diags.iter().all(|d| d.rule != Rule::QuadraticScan),
        "{diags:#?}"
    );
}
