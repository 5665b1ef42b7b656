//! `sdp-lint` — workspace determinism & soundness static analysis.
//!
//! The placer's calibration methodology depends on bitwise-reproducible
//! runs (reconstructed DAC 2012 tables are only comparable run-to-run if
//! the flow is deterministic), and PR 1 made the parallel kernels
//! bitwise-identical at any thread count. This crate makes those
//! properties *build-time guarantees* instead of conventions: it scans
//! every workspace source file at the token level (the workspace is
//! offline, so `syn` is unavailable; a small lexer strips comments and
//! literals first) and enforces seven named, allowlistable rules:
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `nondeterministic-iter` | kernel crates | no iteration over `HashMap`/`HashSet` unless sorted or re-collected into a `BTree*` in the same statement |
//! | `panic-reachability` | call graph | no panic site reachable from a flow entry point without a reasoned allow-marker |
//! | `lock-discipline` | call graph | consistent lock-acquisition order; no guard held across `Condvar::wait` on another mutex, `join`, or blocking channel ops |
//! | `determinism-taint` | call graph | no nondeterminism source (hash iteration, clock, entropy, thread identity) reachable from a result-affecting entry point |
//! | `hot-loop-alloc` | call graph | no heap allocation inside solver inner loops or the functions they call |
//! | `quadratic-scan` | call graph | no linear-time collection work inside collection-sized loops on flow-reachable paths |
//! | `unbounded-growth` | call graph | long-lived collections with reachable inserts need a reachable eviction/cap path |
//!
//! A site is suppressed by `// sdp-lint: allow(<rule>) -- <reason>` on
//! the same line or up to five lines above; the reason is mandatory.
//! Test code (`#[cfg(test)]` modules, `tests/` directories) is exempt.
//!
//! Checks that need only one file and resolved types are clippy's, set in
//! the workspace `clippy.toml` and `[workspace.lints]`: clock reads
//! outside `sdp-progress` ([`CLOCK_CRATE`]), undocumented `unsafe`,
//! discarded `#[must_use]` results, and float comparisons and lossy casts
//! in the [`KERNEL_CRATES`].

pub mod callgraph;
pub mod complexity;
pub mod growth;
pub mod hot;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod sarif;
pub mod taint;

pub use callgraph::SourceFile;
pub use rules::{lint_source, Diagnostic, FileCtx, Rule};

use std::path::{Path, PathBuf};

/// Kernel crates: hash-iteration order feeds directly into placement
/// results here, and each crate root enables clippy's float-comparison
/// and lossy-cast lints.
pub const KERNEL_CRATES: &[&str] = &["gp", "extract", "legal", "eval", "netlist"];

/// Non-library crates: binaries/harnesses that may legitimately time and
/// randomize (`bench`, `cli`, the `serve` job server) plus this tool
/// itself.
pub const TOOL_CRATES: &[&str] = &["bench", "cli", "lint", "serve"];

/// The one sanctioned time source: `sdp-progress` wraps the workspace's
/// only library-crate `Instant::now` behind the injectable `Clock`
/// trait, so every other library crate times phases through an
/// `Observer`.
pub const CLOCK_CRATE: &str = "progress";

/// A source file scheduled for linting.
#[derive(Debug)]
pub struct WorkspaceFile {
    pub path: PathBuf,
    pub ctx: FileCtx,
}

/// Collects every lintable source file under the workspace root:
/// `crates/*/src/**` and `crates/*/tests/**` (test context), plus the
/// top-level `tests/` and `examples/` trees. `vendor/` (third-party) and
/// `target/` are excluded. Deterministic (sorted) order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<WorkspaceFile>> {
    let mut out = Vec::new();

    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let kernel = KERNEL_CRATES.contains(&name.as_str());
        let library = !TOOL_CRATES.contains(&name.as_str()) && name != CLOCK_CRATE;
        for (sub, test_code) in [("src", false), ("tests", true)] {
            let tree = dir.join(sub);
            if !tree.is_dir() {
                continue;
            }
            for path in rust_files(&tree)? {
                let rel = rel_to(&path, root);
                out.push(WorkspaceFile {
                    path,
                    ctx: FileCtx {
                        rel_path: rel,
                        crate_name: name.clone(),
                        kernel: kernel && !test_code,
                        library: library && !test_code,
                        test_code,
                    },
                });
            }
        }
    }

    // Workspace-level integration tests and examples: soundness rules
    // only (they are driver code, not kernels or libraries).
    for (sub, test_code) in [("tests", true), ("examples", false)] {
        let tree = root.join(sub);
        if !tree.is_dir() {
            continue;
        }
        for path in rust_files(&tree)? {
            let rel = rel_to(&path, root);
            out.push(WorkspaceFile {
                path,
                ctx: FileCtx {
                    rel_path: rel,
                    crate_name: String::new(),
                    kernel: false,
                    library: false,
                    test_code,
                },
            });
        }
    }
    Ok(out)
}

fn rel_to(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned()
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let p = entry?.path();
            if p.is_dir() {
                // Fixture corpora (seeded-bad files) are linted by their
                // own test harness, not as workspace source.
                if p.file_name().is_some_and(|n| n == "corpus") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Prepares one file for workspace-level analysis: lex, tokenize, and
/// recover its item tree.
pub fn prepare_source(source: &str, ctx: FileCtx) -> SourceFile {
    let file = lexer::clean(source);
    let toks = lexer::tokenize(&file.code);
    let fns = items::parse_items(&toks, &ctx.crate_name);
    SourceFile {
        ctx,
        file,
        toks,
        fns,
    }
}

/// Runs every rule — the per-file passes plus the call-graph-backed
/// workspace passes — over an in-memory set of sources. This is the
/// whole analysis; [`lint_workspace`] is the filesystem front end, and
/// the fixture corpus drives this directly with synthetic mini
/// workspaces.
pub fn lint_sources(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in files {
        diags.extend(rules::lint_prepared(f));
    }
    let graph = callgraph::Graph::build(files);
    graph.check_panic_reachability(&mut diags);
    locks::check_lock_discipline(&graph, &mut diags);
    taint::check_determinism_taint(&graph, &mut diags);
    hot::check_hot_loop_alloc(&graph, &mut diags);
    complexity::check_quadratic_scan(&graph, &mut diags);
    growth::check_unbounded_growth(&graph, &mut diags);
    diags.sort_by(|a, b| {
        (&a.rel_path, a.line, a.col, a.rule).cmp(&(&b.rel_path, b.line, b.col, b.rule))
    });
    diags
}

/// Lints the whole workspace; returns diagnostics plus the number of
/// files scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let (diags, scanned, _) = lint_workspace_graph(root)?;
    Ok((diags, scanned))
}

/// Per-crate `(reachable, total)` non-test function counts from the call
/// graph — the `--stats` view.
pub type ReachStats = std::collections::BTreeMap<String, (usize, usize)>;

/// Like [`lint_workspace`], but also returns per-crate reachability
/// counts from the call graph.
pub fn lint_workspace_graph(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize, ReachStats)> {
    let files = workspace_files(root)?;
    let mut prepared = Vec::with_capacity(files.len());
    for f in files {
        let source = std::fs::read_to_string(&f.path)?;
        prepared.push(prepare_source(&source, f.ctx));
    }
    let diags = lint_sources(&prepared);
    let graph = callgraph::Graph::build(&prepared);
    let stats = callgraph::reach_stats(&graph);
    Ok((diags, prepared.len(), stats))
}

/// Locates the workspace root: an explicit argument, else the manifest
/// dir baked in at compile time (works under `cargo run -p sdp-lint`),
/// else upward search from the current directory for a `[workspace]`
/// manifest.
pub fn find_root(explicit: Option<&Path>) -> Option<PathBuf> {
    if let Some(p) = explicit {
        return Some(p.to_path_buf());
    }
    let compiled = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled.join("Cargo.toml").is_file() {
        if let Ok(c) = compiled.canonicalize() {
            return Some(c);
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
