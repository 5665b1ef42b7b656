//! Fixture-corpus tests: every rule must fire on the seeded-bad lines
//! (marked `//~ ERROR <rule>` in the fixture) and nowhere else, and every
//! allow-marker must suppress. Plus a self-test that the workspace the
//! lint ships in is clean — which makes `cargo test` itself enforce the
//! determinism invariants — a check that the binary lints the workspace
//! it runs in, and a guard that every crate opts into the clippy policy
//! that carries the single-file checks.

mod common;

use common::{expectations, fixture, src_file};
use sdp_lint::{lint_source, FileCtx, Rule};
use std::collections::BTreeSet;
use std::path::Path;

/// Lints a fixture as kernel+library code and compares the produced
/// (line, rule) set against the `//~ ERROR` markers exactly.
fn check(name: &str) {
    let source = fixture(name);
    let ctx = FileCtx {
        rel_path: format!("corpus/{name}"),
        crate_name: "gp".into(),
        kernel: true,
        library: true,
        test_code: false,
    };
    let got: BTreeSet<(usize, String)> = lint_source(&source, &ctx)
        .into_iter()
        .map(|d| (d.line, d.rule.name().to_string()))
        .collect();
    let want = expectations(&source);
    assert_eq!(
        got, want,
        "{name}: diagnostics (left) must match //~ ERROR markers (right)"
    );
}

#[test]
fn nondeterministic_iter_fires_and_suppresses() {
    check("nondet_iter.rs");
}

#[test]
fn reasonless_marker_is_called_out() {
    let source = fixture("nondet_iter.rs");
    let ctx = FileCtx {
        rel_path: "corpus/nondet_iter.rs".into(),
        crate_name: "gp".into(),
        kernel: true,
        library: true,
        test_code: false,
    };
    let diags = lint_source(&source, &ctx);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::NondeterministicIter && d.marker_missing_reason),
        "a marker without `-- <reason>` must not suppress and must be noted"
    );
}

#[test]
fn test_context_skips_determinism_rules() {
    let source = "fn f(m: std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
                  m.keys().copied().collect()\n\
                  }\n";
    let kernel = FileCtx {
        rel_path: "crates/gp/src/whatever.rs".into(),
        crate_name: "gp".into(),
        kernel: true,
        library: true,
        test_code: false,
    };
    let diags = lint_source(source, &kernel);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, Rule::NondeterministicIter);

    let test = FileCtx {
        rel_path: "tests/whatever.rs".into(),
        crate_name: String::new(),
        kernel: false,
        library: false,
        test_code: true,
    };
    let diags = lint_source(source, &test);
    assert!(diags.is_empty(), "{diags:#?}");
}

// ---------------------------------------------------------------------
// panic-reachability: driven through `lint_sources` with synthetic mini
// workspaces, since the rule needs the cross-crate call graph.

#[test]
fn panic_reachability_reports_call_chain() {
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn entry(xs: &[f64]) -> f64 { helper(xs) }\n\
         fn helper(xs: &[f64]) -> f64 { *xs.first().unwrap() }\n",
    );
    let diags = sdp_lint::lint_sources(&[gp]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::PanicReachability);
    assert_eq!((d.rel_path.as_str(), d.line), ("crates/gp/src/lib.rs", 2));
    let note = d.notes.first().expect("chain note");
    assert!(
        note.contains("gp::entry") && note.contains("gp::helper"),
        "diagnostic must print the root\u{2192}site call chain, got: {note}"
    );
}

#[test]
fn panic_reachability_crosses_crates() {
    let core = src_file(
        "core",
        "crates/core/src/flow.rs",
        "pub fn run_flow() { sdp_legal::legalize_rows(); }\n",
    );
    let legal = src_file(
        "legal",
        "crates/legal/src/lib.rs",
        "fn legalize_rows() { panic!(\"no rows\"); }\n",
    );
    let diags = sdp_lint::lint_sources(&[core, legal]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let note = diags[0].notes.first().expect("chain note");
    assert!(
        note.contains("core::run_flow") && note.contains("legal::legalize_rows"),
        "chain must start in the calling crate, got: {note}"
    );
}

#[test]
fn unreachable_panic_is_excused() {
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn entry() -> u32 { 1 }\n\
         fn orphan(xs: &[u32]) -> u32 { *xs.first().unwrap() }\n",
    );
    assert!(
        sdp_lint::lint_sources(&[gp]).is_empty(),
        "a panic in a function no flow root reaches is excused"
    );
}

#[test]
fn reachable_panic_allow_marker_suppresses() {
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn entry(xs: &[f64]) -> f64 {\n\
         // sdp-lint: allow(panic-reachability) -- callers are documented to pass non-empty slices; asserted upstream\n\
         *xs.first().unwrap()\n\
         }\n",
    );
    assert!(
        sdp_lint::lint_sources(&[gp]).is_empty(),
        "a reasoned allow-marker must suppress a reachable panic site"
    );
}

#[test]
fn entry_point_panic_and_constant_index_slicing() {
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn entry(xs: &[f64]) -> f64 { xs[0] }\n",
    );
    let diags = sdp_lint::lint_sources(&[gp]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("constant-index slicing"));
    assert!(
        diags[0].notes[0].contains("itself a flow entry point"),
        "a panic in a root itself needs no chain, got: {:?}",
        diags[0].notes
    );
}

#[test]
fn catch_unwind_is_a_panic_boundary() {
    // The serve job engine runs each job under `catch_unwind`, so a
    // deliberate panic inside the job body must not count as reachable
    // from the flow root that spawned it...
    let caught = src_file(
        "core",
        "crates/core/src/lib.rs",
        "pub fn entry(spec: &str) -> bool {\n\
             std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(spec))).is_ok()\n\
         }\n\
         fn execute(spec: &str) { panic!(\"chaos: {spec}\"); }\n",
    );
    assert!(
        sdp_lint::lint_sources(&[caught]).is_empty(),
        "a call dispatched under catch_unwind is crash-isolated, not flow-reachable"
    );

    // ...while the same callee invoked directly stays flagged.
    let direct = src_file(
        "core",
        "crates/core/src/lib.rs",
        "pub fn entry(spec: &str) {\n\
             execute(spec);\n\
             let _caught = std::panic::catch_unwind(|| execute(spec));\n\
         }\n\
         fn execute(spec: &str) { panic!(\"chaos: {spec}\"); }\n",
    );
    let diags = sdp_lint::lint_sources(&[direct]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(
        diags[0].notes[0].contains("core::execute"),
        "the unguarded call keeps the panic reachable: {:?}",
        diags[0].notes
    );
}

#[test]
fn clock_crate_is_the_sanctioned_time_source() {
    let root = sdp_lint::find_root(None).expect("workspace root");
    let files = sdp_lint::workspace_files(&root).expect("scan workspace");
    let ctx_of = |needle: &str| {
        files
            .iter()
            .map(|f| &f.ctx)
            .find(|c| c.rel_path.replace('\\', "/").ends_with(needle))
            .unwrap_or_else(|| panic!("no workspace file matches {needle}"))
    };
    let progress = ctx_of("crates/progress/src/lib.rs");
    assert!(
        !progress.library && !progress.kernel,
        "sdp-progress may wrap Instant::now: it is the injectable Clock"
    );
    // The flow crates it serves leave their clock reads to clippy's
    // `disallowed-methods` policy.
    let flow = ctx_of("crates/core/src/flow.rs");
    assert!(flow.library, "sdp-core must keep timing through the Clock");
    // The job server is a tool (timeouts, metrics) but NOT call-graph
    // exempt: its request handlers are held to the panic policy.
    assert!(sdp_lint::TOOL_CRATES.contains(&"serve"));
    assert!(!sdp_lint::callgraph::EXEMPT_CRATES.contains(&"serve"));
}

#[test]
fn test_functions_are_outside_the_call_graph() {
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn entry() -> u32 { 1 }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn drives_entry() { assert_eq!(entry(), [1][0]); entry_helper(); }\n\
             fn entry_helper() { Vec::<u32>::new().first().unwrap(); }\n\
         }\n",
    );
    assert!(
        sdp_lint::lint_sources(&[gp]).is_empty(),
        "panics inside #[cfg(test)] modules are not flow-reachable"
    );
}

// ---------------------------------------------------------------------
// lexer edge cases the call graph depends on: a mis-lexed literal or
// comment would fabricate (or hide) call edges and panic sites.

#[test]
fn raw_strings_hide_panic_sites_but_not_real_ones() {
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn entry() -> String {\n\
             let doc = r#\"call .unwrap() or panic!(\"x\") here\"#;\n\
             let tail = r\"also .unwrap()\";\n\
             format(doc, tail)\n\
         }\n\
         fn format(a: &str, b: &str) -> String { join(a, b).unwrap() }\n\
         fn join(a: &str, b: &str) -> Option<String> { Some(a.to_owned() + b) }\n",
    );
    let diags = sdp_lint::lint_sources(&[gp]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(
        diags[0].line, 6,
        "only the real unwrap fires; raw-string contents are blanked"
    );
    assert!(
        diags[0].notes[0].contains("gp::format"),
        "calls after a raw string still resolve: {:?}",
        diags[0].notes
    );
}

#[test]
fn nested_block_comments_hide_panic_sites() {
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn entry() -> u32 {\n\
             /* outer /* nested .unwrap() */ still comment: panic!(\"x\") */\n\
             compute()\n\
         }\n\
         fn compute() -> u32 { 7 }\n",
    );
    assert!(
        sdp_lint::lint_sources(&[gp]).is_empty(),
        "panic-looking tokens inside nested block comments must not fire"
    );
}

#[test]
fn lifetimes_are_not_char_literals() {
    // A mis-lexed `'a` would swallow `, xs: &'a [f64])` as a char
    // literal and hide both the parameter list and the call that follows.
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn entry<'a>(tag: char, xs: &'a [f64]) -> f64 {\n\
             let _ = tag == 'x';\n\
             pick(xs)\n\
         }\n\
         fn pick(xs: &[f64]) -> f64 { xs.iter().copied().next().unwrap() }\n",
    );
    let diags = sdp_lint::lint_sources(&[gp]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].line, 5);
    assert!(diags[0].notes[0].contains("gp::pick"));
}

#[test]
fn raw_identifiers_resolve_like_bare_names() {
    // `r#struct` (definition) and a call through the escaped form must
    // land on the same node; the tokenizer normalizes away the `r#`.
    let gp = src_file(
        "gp",
        "crates/gp/src/lib.rs",
        "pub fn entry() -> u32 { r#struct() }\n\
         fn r#struct() -> u32 { Vec::<u32>::new().first().copied().unwrap() }\n",
    );
    let diags = sdp_lint::lint_sources(&[gp]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].line, 2);
    let note = &diags[0].notes[0];
    assert!(
        note.contains("gp::r#struct"),
        "r#-escaped fn is reached through the call graph: {note}"
    );
}

#[test]
fn workspace_is_clean() {
    let root = sdp_lint::find_root(None).expect("workspace root");
    let (diags, scanned) = sdp_lint::lint_workspace(&root).expect("scan workspace");
    assert!(
        scanned > 50,
        "expected to scan the whole workspace, got {scanned} files"
    );
    assert!(
        diags.is_empty(),
        "workspace must be lint-clean; found:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n\n")
    );
}

#[test]
fn the_binary_lints_the_workspace_it_runs_in() {
    // A copy of the tree (the probe workflow) must be linted as the copy,
    // not as the tree the binary was built from: with no `--root`, the
    // root is found upward from the current directory.
    let ws = std::env::temp_dir().join(format!("sdp-lint-cwd-{}", std::process::id()));
    let gp = ws.join("crates/gp");
    std::fs::create_dir_all(gp.join("src")).expect("create the scratch workspace");
    std::fs::write(
        ws.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/gp\"]\n",
    )
    .expect("write the workspace manifest");
    std::fs::write(gp.join("Cargo.toml"), "[package]\nname = \"sdp-gp\"\n")
        .expect("write the member manifest");
    std::fs::write(
        gp.join("src/lib.rs"),
        "pub fn keys(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
             m.keys().copied().collect()\n\
         }\n",
    )
    .expect("write the member source");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sdp-lint"))
        .current_dir(&gp)
        .output()
        .expect("run sdp-lint");
    std::fs::remove_dir_all(&ws).expect("remove the scratch workspace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains("error[nondeterministic-iter]")
            && stdout.contains("--> crates/gp/src/lib.rs:2:"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn every_crate_opts_into_the_clippy_policy() {
    // The clippy lints that replaced sdp-lint's single-file rules only
    // reach crates that opt in: a `[lints]` table in each manifest, and
    // the float/cast lints at each kernel crate root.
    let root = sdp_lint::find_root(None).expect("workspace root");
    let read = |p: &Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    };
    let mut manifests: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|m| m.is_file())
        .collect();
    manifests.sort();
    assert!(manifests.len() > 10, "found only {manifests:?}");
    for m in &manifests {
        assert!(
            read(m)
                .lines()
                .any(|l| matches!(l.trim(), "[lints]" | "[lints.clippy]")),
            "{} declares no [lints] table",
            m.display()
        );
    }

    let attr = "#![cfg_attr(not(test),warn(clippy::float_cmp,\
                clippy::cast_possible_truncation,clippy::cast_sign_loss))]";
    for name in sdp_lint::KERNEL_CRATES {
        let lib = root.join("crates").join(name).join("src/lib.rs");
        let flat: String = read(&lib).split_whitespace().collect();
        assert!(
            flat.contains(attr),
            "{} lacks the kernel float/cast lint attribute",
            lib.display()
        );
    }
}
