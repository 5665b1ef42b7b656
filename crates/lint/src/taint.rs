//! `determinism-taint`: interprocedural nondeterminism-source tracking.
//!
//! The placer's contract is bitwise reproducibility: the same netlist
//! and config must produce the same placement, byte for byte, on every
//! run. The per-file rules (`nondeterministic-iter`,
//! `wall-clock-in-library`) police the kernel and library crates
//! lexically; this rule closes the interprocedural gap. It computes the
//! *result cone* — every function reachable from a result-affecting
//! entry point (`place`, `solve`, the CG/Nesterov minimizers, the serve
//! result serializer) — and flags any nondeterminism source inside it,
//! printing the full entry-point→source call chain so the reader can see
//! exactly how the tainted value reaches a result.
//!
//! Sources:
//! - iteration over hash-ordered containers (shared detector with the
//!   local rule; skipped in kernel crates where the local rule owns it);
//! - wall-clock / entropy reads (`Instant::now`, `SystemTime::now`,
//!   `rand::random`, entropy-seeded RNG constructors; skipped in library
//!   crates where the local rule owns it, and in `sdp-progress`, the
//!   sanctioned clock wrapper);
//! - thread-identity reads (`thread::current`), never sanctioned inside
//!   the cone.
//!
//! `std::thread::available_parallelism` is deliberately *not* a source:
//! the executor's chunked reductions are bitwise identical at any worker
//! count, and the lint suite pins that with its own test.

use crate::callgraph::{Graph, NodeId};
use crate::lexer::Tok;
use crate::rules::{
    diag_if_unsuppressed, hash_iter_sites, matches_seq, Diagnostic, FileCtx, Rule, ENTROPY_IDENTS,
};
use crate::CLOCK_CRATE;

/// Result-affecting entry points: any function with one of these names
/// anchors the cone. Name-approximate on purpose — same-named helpers
/// being pulled in is the sound direction for a determinism lint.
pub const SINK_ROOTS: &[&str] = &[
    "place",
    "place_with",
    "place_inflated",
    "solve",
    "minimize_nesterov",
    "result_body",
    "generate",
    "route",
    "route_observed",
    "rudy_map_exec",
    "inflate_cells",
];

/// Runs the `determinism-taint` rule over the workspace graph.
pub fn check_determinism_taint(graph: &Graph<'_>, out: &mut Vec<Diagnostic>) {
    let roots: Vec<NodeId> = SINK_ROOTS
        .iter()
        .flat_map(|n| graph.nodes_named(n))
        .collect();
    if roots.is_empty() {
        return;
    }
    // Follow guarded (`catch_unwind`) edges: panics don't cross them,
    // but the closure's data — and therefore its nondeterminism — does.
    let (reach, pred) = graph.reach_from(&roots, true);
    for (id, &reachable) in reach.iter().enumerate() {
        if !reachable {
            continue;
        }
        let (f, item) = graph.source(id);
        let Some((open, close)) = item.body else {
            continue;
        };
        let sources = source_sites(&f.toks, open, close, &f.ctx);
        if sources.is_empty() {
            continue;
        }
        let chain = graph.chain_through(&pred, id);
        let note = if chain.len() == 1 {
            format!("`{}` is itself a result-affecting entry point", chain[0])
        } else {
            format!("result-affecting call chain: {}", chain.join(" → "))
        };
        for (tok_ix, what) in sources {
            if let Some(mut d) = diag_if_unsuppressed(
                &f.file,
                &f.ctx,
                Rule::DeterminismTaint,
                &f.toks[tok_ix],
                format!("{what} inside the result cone (in `{}`)", item.qual),
                vec![note.clone()],
            ) {
                // A hash-iteration source is mechanically fixable the
                // same way the local rule is: re-declare as BTree.
                if what.starts_with("iteration over hash-ordered") {
                    d.fix = crate::rules::btree_fix(&f.toks, &f.toks[tok_ix].text);
                }
                out.push(d);
            }
        }
    }
}

/// Nondeterminism sources in one fn body, as `(tok_ix, description)`.
fn source_sites(toks: &[Tok], open: usize, close: usize, ctx: &FileCtx) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    // Hash-order iteration: the local `nondeterministic-iter` rule owns
    // kernel crates; the taint rule covers the rest of the cone.
    if !ctx.kernel {
        for i in hash_iter_sites(toks) {
            if i > open && i < close {
                out.push((
                    i,
                    format!(
                        "iteration over hash-ordered container via `{}`",
                        toks[i].text
                    ),
                ));
            }
        }
    }
    let clock_owned = ctx.library || ctx.crate_name == CLOCK_CRATE;
    for k in open + 1..close {
        let t = toks[k].text.as_str();
        if !clock_owned {
            let flagged = match t {
                "Instant" | "SystemTime" => matches_seq(toks, k + 1, &[":", ":", "now"]),
                "rand" => matches_seq(toks, k + 1, &[":", ":", "random"]),
                s => ENTROPY_IDENTS.contains(&s),
            };
            if flagged {
                out.push((k, format!("wall-clock/entropy source `{t}`")));
            }
        }
        if t == "thread" && matches_seq(toks, k + 1, &[":", ":", "current"]) {
            out.push((k, "thread-identity read `thread::current`".to_string()));
        }
    }
    out.sort_by_key(|&(i, _)| i);
    out.dedup_by_key(|&mut (i, _)| i);
    out
}
