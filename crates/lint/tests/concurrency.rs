//! Regression tests for the workspace-level concurrency & determinism
//! families: lock-discipline, determinism-taint, and hot-loop-alloc.
//!
//! Each family gets (a) a seeded fixture corpus checked exactly against
//! `//~ ERROR` markers — including at least one pinned known-false-
//! positive negative per family — and (b) targeted call-graph tests.
//! The serve queue→jobs hierarchy is reconstructed from the real
//! workspace sources at the bottom.

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

/// Lints a fixture through the full workspace pipeline (the graph
/// families need the call graph) and compares the produced (line, rule)
/// set against the `//~ ERROR` markers exactly — so an unexpected
/// finding from ANY rule fails the test, not just the family under
/// test.
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
// lock-discipline

#[test]
fn lock_discipline_fires_and_suppresses() {
    // The fixture seeds: an m1→m2 / m2→m1 order cycle (reported once),
    // a Condvar::wait parking with a foreign mutex held, join/send/recv
    // under a guard, a re-acquisition, and a marker-suppressed send.
    let diags = check_graph("lock_discipline.rs", "serve");
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("opposite nesting order")
                || d.message.contains("lock-order cycle")),
        "the m1/m2 inversion must be called out as an ordering cycle: {diags:#?}"
    );
}

#[test]
fn lock_discipline_drain_then_join_is_pinned_clean() {
    // Pinned false-positive guard: the shutdown idiom — drain the
    // handle list through a temporary guard, then join lock-free. The
    // temporary dies at the statement; flagging the join would push
    // people back toward joining under the lock.
    let source = fixture("lock_discipline.rs");
    let f = src_file("serve", "corpus/lock_discipline.rs", &source);
    let diags = sdp_lint::lint_sources(&[f]);
    let drain_line = source
        .lines()
        .position(|l| l.contains("pub fn drain_then_join"))
        .expect("fixture keeps the drain_then_join fn")
        + 1;
    assert!(
        !diags
            .iter()
            .any(|d| d.line > drain_line && d.line < drain_line + 6),
        "drain-then-join must stay clean: {diags:#?}"
    );
}

#[test]
fn lock_order_cycle_is_found_through_calls() {
    // forward() holds q and picks up j inside a callee; backward() nests
    // them lexically the other way. The cycle needs the acquisition
    // summaries to surface.
    let s = src_file(
        "serve",
        "crates/serve/src/engine.rs",
        "pub struct S { q: std::sync::Mutex<u32>, j: std::sync::Mutex<u32> }\n\
         impl S {\n\
             pub fn forward(&self) {\n\
                 let g = self.q.lock().unwrap();\n\
                 self.take_j();\n\
                 drop(g);\n\
             }\n\
             fn take_j(&self) {\n\
                 let _inner = self.j.lock().unwrap();\n\
             }\n\
             pub fn backward(&self) {\n\
                 let g = self.j.lock().unwrap();\n\
                 let h = self.q.lock().unwrap();\n\
                 drop(h);\n\
                 drop(g);\n\
             }\n\
         }\n",
    );
    let diags = sdp_lint::lint_sources(&[s]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, Rule::LockDiscipline);
    assert!(
        diags[0].message.contains("opposite nesting order")
            || diags[0].message.contains("lock-order cycle"),
        "got: {}",
        diags[0].message
    );

    // The interprocedural q→j edge itself must exist and be marked as
    // coming through a call.
    let files = [src_file(
        "serve",
        "crates/serve/src/engine.rs",
        "pub struct S { q: std::sync::Mutex<u32>, j: std::sync::Mutex<u32> }\n\
         impl S {\n\
             pub fn forward(&self) {\n\
                 let g = self.q.lock().unwrap();\n\
                 self.take_j();\n\
                 drop(g);\n\
             }\n\
             fn take_j(&self) {\n\
                 let _inner = self.j.lock().unwrap();\n\
             }\n\
         }\n",
    )];
    let graph = sdp_lint::callgraph::Graph::build(&files);
    let edges = sdp_lint::locks::lock_order_edges(&graph);
    let qj = edges
        .iter()
        .find(|e| e.from.1 == "q" && e.to.1 == "j")
        .unwrap_or_else(|| panic!("missing q→j edge: {edges:#?}"));
    assert!(qj.via_call, "the j acquisition lives in take_j: {qj:#?}");
    assert!(qj.site.contains("forward"), "witness fn: {}", qj.site);
}

// ---------------------------------------------------------------------
// determinism-taint

#[test]
fn determinism_taint_fires_and_suppresses() {
    // Seeds: a clock read and a thread-id read in helpers of `generate`,
    // a hash-ordered iteration feeding result bytes, a marker-suppressed
    // clock, an order-insensitive HashSet (pinned negative), and an
    // unreachable clock fn (the cone gates, not the lexical pattern).
    let diags = check_graph("determinism_taint.rs", "serve");
    let clock = diags
        .iter()
        .find(|d| d.message.contains("Instant"))
        .unwrap_or_else(|| panic!("no clock finding: {diags:#?}"));
    let note = clock.notes.first().expect("chain note");
    assert!(
        note.contains("serve::generate") && note.contains("serve::jitter"),
        "the sink→source call chain must be printed: {note}"
    );
}

#[test]
fn membership_only_hash_use_is_pinned_clean() {
    // Pinned false-positive guard: collect-into-HashSet + len/contains
    // never observes iteration order even inside the result cone.
    let s = src_file(
        "gp",
        "crates/gp/src/solve.rs",
        "pub fn solve(xs: &[u64]) -> usize {\n\
             let seen: std::collections::HashSet<u64> = xs.iter().copied().collect();\n\
             if seen.contains(&7) { seen.len() } else { 0 }\n\
         }\n",
    );
    let diags = sdp_lint::lint_sources(&[s]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn taint_sources_outside_the_cone_stay_silent() {
    let s = src_file(
        "serve",
        "crates/serve/src/metrics.rs",
        "pub fn uptime_line() -> String {\n\
             let t = std::time::Instant::now();\n\
             format!(\"{:?}\", t.elapsed())\n\
         }\n",
    );
    // `uptime_line` is not a result-affecting entry point and nothing
    // result-affecting calls it: no finding.
    let diags = sdp_lint::lint_sources(&[s]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn library_clock_reads_are_left_to_clippy_but_entropy_is_not() {
    // In a library crate clippy's `disallowed-methods` owns the clock
    // read; clippy bans no entropy source, so the taint pass reports it.
    let s = sdp_lint::prepare_source(
        "pub fn generate(n: u64) -> u64 {\n\
             let t = std::time::Instant::now();\n\
             let r = rand::thread_rng();\n\
             n + t.elapsed().as_nanos() as u64 + r.next_u64()\n\
         }\n",
        FileCtx {
            rel_path: "crates/dpgen/src/lib.rs".into(),
            crate_name: "dpgen".into(),
            kernel: false,
            library: true,
            test_code: false,
        },
    );
    let diags = sdp_lint::lint_sources(&[s]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!((diags[0].rule, diags[0].line), (Rule::DeterminismTaint, 3));
}

// ---------------------------------------------------------------------
// hot-loop-alloc

#[test]
fn hot_loop_alloc_fires_and_suppresses() {
    // Seeds: a vec! in the root's iteration loop, allocations in two
    // loop-called helpers, a marker-suppressed helper, a top-of-body
    // scratch buffer (negative), a for-header clone (pinned negative),
    // and a constructor outside every loop (negative).
    let diags = check_graph("hot_loop_alloc.rs", "gp");
    let helper = diags
        .iter()
        .find(|d| d.message.contains("gp::inner"))
        .unwrap_or_else(|| panic!("no loop-called helper finding: {diags:#?}"));
    assert!(
        helper
            .notes
            .iter()
            .any(|n| n.contains("solver-inner via") && n.contains("minimize_nesterov")),
        "the loop→helper chain must be printed: {:#?}",
        helper.notes
    );
}

#[test]
fn for_header_clone_is_pinned_clean() {
    // Pinned false-positive guard: `for i in r.clone()` evaluates the
    // clone once when the loop starts, not once per iteration.
    let s = src_file(
        "gp",
        "crates/gp/src/nesterov.rs",
        "pub fn minimize_nesterov(n: usize) -> usize {\n\
             let r = 0..n;\n\
             let mut acc = 0;\n\
             for i in r.clone() {\n\
                 acc += i;\n\
             }\n\
             acc\n\
         }\n",
    );
    let diags = sdp_lint::lint_sources(&[s]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn hot_roots_outside_gp_do_not_seed() {
    // A serve-side fn that happens to share a root name must not pull
    // its callees into the hot set.
    let s = src_file(
        "serve",
        "crates/serve/src/engine.rs",
        "pub fn minimize_nesterov(n: usize) -> Vec<usize> {\n\
             let mut v = Vec::new();\n\
             for i in 0..n {\n\
                 v.push(helper(i));\n\
             }\n\
             v\n\
         }\n\
         fn helper(i: usize) -> usize {\n\
             format!(\"{i}\").len()\n\
         }\n",
    );
    let diags = sdp_lint::lint_sources(&[s]);
    assert!(
        diags.iter().all(|d| d.rule != Rule::HotLoopAlloc),
        "{diags:#?}"
    );
}

// ---------------------------------------------------------------------
// the real workspace: serve's lock hierarchy, reconstructed

#[test]
fn serve_lock_hierarchy_is_reconstructed() {
    let root = sdp_lint::find_root(None).expect("workspace root");
    let files = sdp_lint::workspace_files(&root).expect("scan workspace");
    let prepared: Vec<sdp_lint::SourceFile> = files
        .into_iter()
        .map(|f| {
            let source = std::fs::read_to_string(root.join(&f.ctx.rel_path))
                .unwrap_or_else(|e| panic!("read {}: {e}", f.ctx.rel_path));
            sdp_lint::prepare_source(&source, f.ctx)
        })
        .collect();
    let graph = sdp_lint::callgraph::Graph::build(&prepared);
    let edges = sdp_lint::locks::lock_order_edges(&graph);

    // Engine::submit reserves a queue slot and registers the job in the
    // job map while still holding the queue lock: queue → jobs.
    let qj = edges
        .iter()
        .find(|e| {
            e.from == ("serve".to_string(), "queue".to_string())
                && e.to == ("serve".to_string(), "jobs".to_string())
        })
        .unwrap_or_else(|| panic!("submit must witness the queue→jobs hierarchy: {edges:#?}"));
    assert!(
        qj.site.contains("Engine::submit"),
        "hierarchy witness: {}",
        qj.site
    );

    // ...and nothing anywhere in serve nests them the other way round.
    assert!(
        !edges.iter().any(|e| {
            e.from == ("serve".to_string(), "jobs".to_string())
                && e.to == ("serve".to_string(), "queue".to_string())
        }),
        "jobs is always the innermost serve lock: {edges:#?}"
    );
}

// ---------------------------------------------------------------------
// --explain coverage

#[test]
fn every_rule_has_a_real_explanation() {
    for rule in Rule::ALL {
        let text = rule.explain();
        assert!(
            text.len() > 120,
            "{rule}: --explain must carry real rationale, got {} bytes",
            text.len()
        );
        // Every rule's help names a concrete remediation: the allow marker.
        assert!(
            rule.help().contains("sdp-lint: allow"),
            "{rule}: help must show the remediation syntax"
        );
    }
}
