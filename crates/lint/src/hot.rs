//! `hot-loop-alloc`: heap allocation in solver inner loops.
//!
//! The Nesterov minimizer calls the objective hundreds of times per
//! placement; an allocation inside its iteration loops — or anywhere in
//! a function those loops call — runs per gradient evaluation and shows
//! up directly in GP evals/sec. The sanctioned
//! idiom is hoisted scratch: allocate once at the top of the minimizer
//! (or in the objective struct) and reuse via `clear()`/`fill()`.
//!
//! The rule finds the lexical loop regions of [`HOT_ROOTS`], collects
//! every callee invoked from inside one, closes that set transitively
//! over the call graph, and flags allocation tokens (`Vec::new`,
//! `with_capacity`, `vec!`, `format!`, `Box::new`, `.collect()`,
//! `.clone()`, `.to_vec()`, `.to_string()`, `.to_owned()`) inside a
//! root's loops and anywhere in a loop-called fn. Top-of-body
//! allocations in the roots themselves are the hoist target and stay
//! clean. The closure is restricted to the `gp` crate: the graph's
//! name-approximate resolution would otherwise pull same-named accessors
//! from every crate into the hot set.
//!
//! Known-FP carve-out: `.clone()` inside a `for`-loop *header*
//! (`for i in range.clone()`) runs once per loop entry, not per
//! iteration, and is exempt.

use crate::callgraph::{Graph, NodeId};
use crate::lexer::Tok;
use crate::rules::{diag_if_unsuppressed, matches_seq, matching_brace, Diagnostic, Rule};
use std::collections::VecDeque;

/// Solver inner-iteration roots.
pub const HOT_ROOTS: &[&str] = &["minimize_nesterov"];

/// The only crate whose fns can join the hot set (see module docs).
const HOT_CRATE: &str = "gp";

/// One lexical loop region: the keyword, and the body braces.
pub(crate) struct LoopSpan {
    pub(crate) kw: usize,
    pub(crate) body_open: usize,
    pub(crate) body_close: usize,
}

/// Runs the `hot-loop-alloc` rule over the workspace graph.
pub fn check_hot_loop_alloc(graph: &Graph<'_>, out: &mut Vec<Diagnostic>) {
    let nodes = graph.nodes();
    let roots: Vec<NodeId> = HOT_ROOTS
        .iter()
        .flat_map(|n| graph.nodes_named(n))
        .filter(|&id| nodes[id].crate_name == HOT_CRATE)
        .collect();
    if roots.is_empty() {
        return;
    }

    // Seed: callees invoked from inside a loop region of a hot root.
    let mut loop_called = vec![false; nodes.len()];
    let mut pred = vec![usize::MAX; nodes.len()];
    let mut queue = VecDeque::new();
    for &r in &roots {
        let (f, item) = graph.source(r);
        let Some((open, close)) = item.body else {
            continue;
        };
        let spans = loop_spans(&f.toks, open, close);
        for call in &nodes[r].calls {
            if !in_loop_body(call.tok_ix, &spans) {
                continue;
            }
            for &c in &call.callees {
                if nodes[c].crate_name == HOT_CRATE && !loop_called[c] {
                    loop_called[c] = true;
                    pred[c] = r;
                    queue.push_back(c);
                }
            }
        }
    }
    // Transitive closure: everything a loop-called fn calls is also hot.
    while let Some(id) = queue.pop_front() {
        for call in &nodes[id].calls {
            for &c in &call.callees {
                if nodes[c].crate_name == HOT_CRATE && !loop_called[c] {
                    loop_called[c] = true;
                    pred[c] = id;
                    queue.push_back(c);
                }
            }
        }
    }

    for (id, &called) in loop_called.iter().enumerate() {
        let is_root = roots.contains(&id);
        if !is_root && !called {
            continue;
        }
        let (f, item) = graph.source(id);
        let Some((open, close)) = item.body else {
            continue;
        };
        let spans = loop_spans(&f.toks, open, close);
        for (k, what) in alloc_sites(&f.toks, open, close) {
            // In a root, only allocations inside its loops count:
            // top-of-body scratch is the sanctioned hoist target.
            if is_root && !in_loop_body(k, &spans) {
                continue;
            }
            // `for i in range.clone()` — once per loop entry, exempt.
            if what == "`.clone()`" && in_loop_header(k, &spans) {
                continue;
            }
            let (message, notes) = if is_root {
                (
                    format!(
                        "heap allocation {what} inside a solver inner loop of `{}`",
                        item.qual
                    ),
                    Vec::new(),
                )
            } else {
                (
                    format!(
                        "heap allocation {what} in `{}`, which runs per solver iteration",
                        item.qual
                    ),
                    vec![format!(
                        "solver-inner via: {}",
                        graph.chain_through(&pred, id).join(" → ")
                    )],
                )
            };
            if let Some(d) = diag_if_unsuppressed(
                &f.file,
                &f.ctx,
                Rule::HotLoopAlloc,
                &f.toks[k],
                message,
                notes,
            ) {
                out.push(d);
            }
        }
    }
}

/// `true` when `k` is inside the body braces of some loop.
pub(crate) fn in_loop_body(k: usize, spans: &[LoopSpan]) -> bool {
    spans.iter().any(|s| k > s.body_open && k < s.body_close)
}

/// `true` when `k` is in a `for`/`while` header (between keyword and
/// body `{`).
pub(crate) fn in_loop_header(k: usize, spans: &[LoopSpan]) -> bool {
    spans.iter().any(|s| k > s.kw && k < s.body_open)
}

/// Lexical loop regions (`for`/`while`/`loop`) in a fn body.
pub(crate) fn loop_spans(toks: &[Tok], open: usize, close: usize) -> Vec<LoopSpan> {
    let mut out = Vec::new();
    for kw in open + 1..close {
        match toks[kw].text.as_str() {
            "for" => {
                // `for<'a>` (HRTB) is not a loop.
                if toks.get(kw + 1).map(|t| t.text.as_str()) == Some("<") {
                    continue;
                }
            }
            "while" | "loop" => {}
            _ => continue,
        }
        // `break 'label loop`? No — `loop` after `break` is a label-less
        // value break; only a `{` right after counts, which the scan
        // below requires anyway.
        // Find the body `{`: first brace at bracket/paren depth 0 after
        // the keyword (struct literals can't appear un-parenthesized in
        // loop headers, so this is the body).
        let mut depth = 0i32;
        let mut body_open = None;
        for (j, t) in toks.iter().enumerate().take(close).skip(kw + 1) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        if let Some(bo) = body_open {
            out.push(LoopSpan {
                kw,
                body_open: bo,
                body_close: matching_brace(toks, bo),
            });
        }
    }
    out
}

/// Allocation tokens in a fn body, as `(tok_ix, description)`.
fn alloc_sites(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for k in open + 1..close {
        let t = toks[k].text.as_str();
        let next = |i: usize| toks.get(k + i).map(|t| t.text.as_str());
        match t {
            "Vec" | "String" | "Box" if matches_seq(toks, k + 1, &[":", ":"]) => {
                let ctor = next(3);
                let call = next(4) == Some("(");
                if !call {
                    continue;
                }
                match (t, ctor) {
                    ("Vec", Some("new")) => out.push((k, "`Vec::new`")),
                    ("Vec", Some("with_capacity")) => out.push((k, "`Vec::with_capacity`")),
                    ("String", Some("new")) => out.push((k, "`String::new`")),
                    ("String", Some("with_capacity")) => out.push((k, "`String::with_capacity`")),
                    ("String", Some("from")) => out.push((k, "`String::from`")),
                    ("Box", Some("new")) => out.push((k, "`Box::new`")),
                    _ => {}
                }
            }
            "vec" if next(1) == Some("!") => out.push((k, "`vec!`")),
            "format" if next(1) == Some("!") => out.push((k, "`format!`")),
            "collect" | "to_vec" | "to_string" | "to_owned"
                if toks[k - 1].text == "." && (next(1) == Some("(") || next(1) == Some(":")) =>
            {
                out.push((
                    k,
                    match t {
                        "collect" => "`.collect()`",
                        "to_vec" => "`.to_vec()`",
                        "to_string" => "`.to_string()`",
                        _ => "`.to_owned()`",
                    },
                ));
            }
            "clone" if toks[k - 1].text == "." && next(1) == Some("(") && next(2) == Some(")") => {
                out.push((k, "`.clone()`"));
            }
            _ => {}
        }
    }
    out
}
