//! Regression tests for the scalability families: `quadratic-scan` and
//! `unbounded-growth`. Each family gets a seeded
//! fixture corpus checked exactly against `//~ ERROR` markers —
//! including the pinned false-positive negatives (a constant-size-array
//! loop; the bounded-LRU insert path) — plus targeted call-graph tests
//! for the chain notes and the reachability gates.

use sdp_lint::{FileCtx, Rule};
use std::collections::BTreeSet;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn expectations(source: &str) -> BTreeSet<(usize, String)> {
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
/// and library flags stay off so only the call-graph families speak.
fn src_file(crate_name: &str, rel: &str, source: &str) -> sdp_lint::SourceFile {
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

/// Lints a fixture through the full workspace pipeline and compares the
/// produced (line, rule) set against the `//~ ERROR` markers exactly.
fn check_graph(name: &str, crate_name: &str) -> Vec<sdp_lint::Diagnostic> {
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

// ---------------------------------------------------------------------
// unbounded-growth

#[test]
fn unbounded_growth_fires_and_suppresses() {
    // Seeds: a field with no eviction anywhere, a field whose eviction
    // is unreachable; negatives: the bounded LRU-style field (pinned)
    // and a marker-suppressed audit log.
    let diags = check_graph("unbounded_growth.rs", "serve");
    let records = diags
        .iter()
        .find(|d| d.message.contains("Registry.records"))
        .unwrap_or_else(|| panic!("no `records` finding: {diags:#?}"));
    assert!(
        records
            .notes
            .iter()
            .any(|n| n.contains("no eviction/cap/clear call")),
        "{:#?}",
        records.notes
    );
    assert!(
        records
            .notes
            .iter()
            .any(|n| n.contains("serve::Shared::handle_submit")),
        "the grow chain names the handler: {:#?}",
        records.notes
    );
    let stale = diags
        .iter()
        .find(|d| d.message.contains("Registry.stale"))
        .unwrap_or_else(|| panic!("no `stale` finding: {diags:#?}"));
    assert!(
        stale
            .notes
            .iter()
            .any(|n| n.contains("sweep") && n.contains("not reachable")),
        "the unreachable eviction must be pointed at: {:#?}",
        stale.notes
    );
}

#[test]
fn bounded_lru_is_pinned_clean() {
    // Pinned false-positive guard: the result cache's shape — insert
    // plus a same-path while-loop eviction down to a cap. Flagging this
    // would push people to delete the bound, not add one.
    let s = src_file(
        "serve",
        "crates/serve/src/cache.rs",
        "use std::collections::BTreeMap;\n\
         use std::sync::Mutex;\n\
         pub struct Cache {\n\
             entries: BTreeMap<u64, u64>,\n\
             order: Vec<u64>,\n\
             cap: usize,\n\
         }\n\
         pub struct Shared {\n\
             cache: Mutex<Cache>,\n\
         }\n\
         impl Shared {\n\
             pub fn handle_put(&self, k: u64, v: u64) {\n\
                 let mut c = self.cache.lock().unwrap();\n\
                 c.entries.insert(k, v);\n\
                 c.order.push(k);\n\
                 while c.order.len() > c.cap {\n\
                     let oldest = c.order.remove(0);\n\
                     c.entries.remove(&oldest);\n\
                 }\n\
             }\n\
         }\n",
    );
    let diags = sdp_lint::lint_sources(&[s]);
    assert!(
        diags.iter().all(|d| d.rule != Rule::UnboundedGrowth),
        "{diags:#?}"
    );
}

#[test]
fn unwrapped_short_lived_structs_stay_silent() {
    // A struct never parked behind Arc/Mutex/static is not long-lived
    // state; growing a builder's Vec is normal construction.
    let s = src_file(
        "serve",
        "crates/serve/src/build.rs",
        "pub struct Builder {\n\
             parts: Vec<u64>,\n\
         }\n\
         impl Builder {\n\
             pub fn handle_build(&mut self, p: u64) {\n\
                 self.parts.push(p);\n\
             }\n\
         }\n",
    );
    let diags = sdp_lint::lint_sources(&[s]);
    assert!(
        diags.iter().all(|d| d.rule != Rule::UnboundedGrowth),
        "{diags:#?}"
    );
}
