//! Name-resolution-approximate cross-crate call graph, and the
//! `panic-reachability` rule built on top of it.
//!
//! The graph's nodes are every non-test `fn` in the workspace's flow
//! crates (everything except the `bench` harness and this tool). Edges
//! are recovered token-wise: a call site `name(…)`, `recv.name(…)`, or
//! `Qual::name(…)` links to every workspace function with that name —
//! narrowed by the qualifier's impl type, the path's crate segment, or
//! the module name when one is available. This *over*-approximates
//! reachability (a `.get(…)` call links to every workspace `fn get`),
//! which is the sound direction for a panic lint: a site is only excused
//! as unreachable when no chain of same-named calls connects it to a
//! flow entry point.
//!
//! Entry points ("flow roots") are the CLI binary (`main` plus its `pub`
//! command fns) and the public API of the kernel crates and `core` — the
//! functions a production flow invokes directly.

use crate::items::FnItem;
use crate::lexer::{CleanFile, Tok};
use crate::rules::{is_ident, Diagnostic, FileCtx, Rule};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Crates whose `pub fn`s are flow entry points besides the CLI.
pub const ROOT_API_CRATES: &[&str] =
    &["core", "gp", "extract", "legal", "eval", "netlist", "route"];

/// Crates excluded from the graph and from panic-reachability entirely:
/// the experiment harness and this tool are driver code that may panic.
pub const EXEMPT_CRATES: &[&str] = &["bench", "lint"];

/// A lexed, item-parsed source file ready for workspace analysis.
#[derive(Debug)]
pub struct SourceFile {
    pub ctx: FileCtx,
    pub file: CleanFile,
    pub toks: Vec<Tok>,
    pub fns: Vec<FnItem>,
}

/// One call site inside a function body.
#[derive(Debug)]
struct CallSite {
    /// Token index of the callee name.
    tok_ix: usize,
    /// Callee's bare name.
    name: String,
    /// `Qual::name(…)` qualifier (the segment right before the name).
    qualifier: Option<String>,
    /// Workspace crate named at the head of the path (`sdp_gp::…`).
    crate_hint: Option<String>,
    /// Method-call syntax (`recv.name(…)`).
    is_method: bool,
    /// Lexically inside a `catch_unwind(…)` argument list.
    guarded: bool,
}

/// Node id into the graph's node table.
pub type NodeId = usize;

/// One resolved call edge bundle: a call site plus every workspace
/// function it may invoke.
#[derive(Debug)]
pub struct Call {
    /// Token index of the callee name in the caller's file.
    pub tok_ix: usize,
    /// Candidate callee nodes (name-resolution-approximate).
    pub callees: Vec<NodeId>,
    /// Inside a `catch_unwind(…)` argument list: panics do not cross
    /// this edge, but data-flow (the closure's result) does.
    pub guarded: bool,
}

/// One function in the workspace call graph.
#[derive(Debug)]
pub struct Node {
    pub file_ix: usize,
    pub fn_ix: usize,
    pub crate_name: String,
    pub qual: String,
    pub is_root: bool,
    /// Resolved call sites in body order.
    pub calls: Vec<Call>,
}

/// The workspace call graph plus reachability from the flow roots.
pub struct Graph<'a> {
    files: &'a [SourceFile],
    nodes: Vec<Node>,
    /// Predecessor in a shortest root→node chain; `usize::MAX` for roots.
    pred: Vec<usize>,
    reachable: Vec<bool>,
    by_pos: HashMap<(usize, usize), NodeId>,
}

/// Keywords and constructors that look like `name(…)` but are never
/// workspace function calls.
const NOT_CALLS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "impl", "trait", "struct", "enum", "union", "mod", "use", "pub",
    "where", "unsafe", "dyn", "as", "const", "static", "type", "Some", "None", "Ok", "Err", "true",
    "false", "Box", "Vec", "self",
];

impl<'a> Graph<'a> {
    /// Builds the graph over `files` and runs root-set reachability.
    pub fn build(files: &'a [SourceFile]) -> Graph<'a> {
        let mut nodes = Vec::new();
        for (file_ix, f) in files.iter().enumerate() {
            if !in_graph(&f.ctx) {
                continue;
            }
            for (fn_ix, item) in f.fns.iter().enumerate() {
                if item.is_test {
                    continue;
                }
                let cn = &f.ctx.crate_name;
                let is_root = (cn == "cli" && (item.name == "main" || item.is_pub))
                    || (ROOT_API_CRATES.contains(&cn.as_str()) && item.is_pub);
                nodes.push(Node {
                    file_ix,
                    fn_ix,
                    crate_name: cn.clone(),
                    qual: item.qual.clone(),
                    is_root,
                    calls: Vec::new(),
                });
            }
        }

        let mut by_name: HashMap<&str, Vec<NodeId>> = HashMap::new();
        let mut by_pos: HashMap<(usize, usize), NodeId> = HashMap::new();
        for (id, n) in nodes.iter().enumerate() {
            let item = &files[n.file_ix].fns[n.fn_ix];
            by_name.entry(item.name.as_str()).or_default().push(id);
            by_pos.insert((n.file_ix, n.fn_ix), id);
        }

        // Resolve every node's call sites eagerly: determinism taint and
        // lock discipline walk edges from their own root sets, not just
        // the flow roots.
        let mut all_calls: Vec<Vec<Call>> = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let f = &files[n.file_ix];
            let item = &f.fns[n.fn_ix];
            let mut calls = Vec::new();
            for site in call_sites(&f.toks, item) {
                let callees = resolve(&site, &by_name, &nodes, files, item);
                if !callees.is_empty() {
                    calls.push(Call {
                        tok_ix: site.tok_ix,
                        callees,
                        guarded: site.guarded,
                    });
                }
            }
            all_calls.push(calls);
        }
        for (n, calls) in nodes.iter_mut().zip(all_calls) {
            n.calls = calls;
        }

        let mut g = Graph {
            files,
            nodes,
            pred: Vec::new(),
            reachable: Vec::new(),
            by_pos,
        };
        let roots: Vec<NodeId> = (0..g.nodes.len())
            .filter(|&id| g.nodes[id].is_root)
            .collect();
        // Panic-reachability does not follow guarded edges: a panic inside
        // a `catch_unwind` closure is contained at the boundary.
        let (reachable, pred) = g.reach_from(&roots, false);
        g.reachable = reachable;
        g.pred = pred;
        g
    }

    /// The graph's nodes (one per non-test fn in a flow crate).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The source files the graph was built over.
    pub fn files(&self) -> &[SourceFile] {
        self.files
    }

    /// The file and item behind a node.
    pub fn source(&self, id: NodeId) -> (&SourceFile, &FnItem) {
        let n = &self.nodes[id];
        let f = &self.files[n.file_ix];
        (f, &f.fns[n.fn_ix])
    }

    /// Node for `(file_ix, fn_ix)`, if it is in the graph.
    pub fn node_id(&self, file_ix: usize, fn_ix: usize) -> Option<NodeId> {
        self.by_pos.get(&(file_ix, fn_ix)).copied()
    }

    /// All nodes whose bare fn name is `name`.
    pub fn nodes_named<'g>(&'g self, name: &'g str) -> impl Iterator<Item = NodeId> + 'g {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, n)| self.files[n.file_ix].fns[n.fn_ix].name == name)
            .map(|(id, _)| id)
    }

    /// Breadth-first reachability from `roots`. Returns per-node
    /// reachability plus the BFS predecessor tree (`usize::MAX` for
    /// roots and unreached nodes). `follow_guarded` decides whether
    /// edges inside `catch_unwind(…)` argument lists are crossed —
    /// panics stop at the unwind boundary, data-flow does not.
    pub fn reach_from(&self, roots: &[NodeId], follow_guarded: bool) -> (Vec<bool>, Vec<usize>) {
        let mut reachable = vec![false; self.nodes.len()];
        let mut pred = vec![usize::MAX; self.nodes.len()];
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for &r in roots {
            if !reachable[r] {
                reachable[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for call in &self.nodes[id].calls {
                if call.guarded && !follow_guarded {
                    continue;
                }
                for &callee in &call.callees {
                    if !reachable[callee] {
                        reachable[callee] = true;
                        pred[callee] = id;
                        queue.push_back(callee);
                    }
                }
            }
        }
        (reachable, pred)
    }

    /// `call`'s callees after the *precision* filter used by the
    /// lock-discipline summary propagation: path-qualified calls are
    /// trusted as resolved (the tiers are precise and external
    /// qualifiers resolve to nothing); `self.method(…)` and bare calls
    /// are restricted to the caller's crate (a bare call can only name a
    /// same-module or imported fn, and `self`'s impl lives in the
    /// caller's crate); every other method call — iterator adapters,
    /// trait methods on fields — is dropped. That name-only resolution
    /// is the *sound* direction for panic reachability, but for lock
    /// summaries it floods every `.map(…)` with `Executor::map`'s locks.
    pub fn trusted_callees(&self, id: NodeId, call: &Call) -> Vec<NodeId> {
        let n = &self.nodes[id];
        let toks = &self.files[n.file_ix].toks;
        let k = call.tok_ix;
        let prev = if k > 0 { toks[k - 1].text.as_str() } else { "" };
        if prev == ":" {
            return call.callees.clone();
        }
        if prev == "." && (k < 2 || toks[k - 2].text != "self") {
            return Vec::new();
        }
        call.callees
            .iter()
            .copied()
            .filter(|&c| self.nodes[c].crate_name == n.crate_name)
            .collect()
    }

    /// The root→…→`id` chain (display-qualified names) through an
    /// arbitrary predecessor tree from [`Graph::reach_from`].
    pub fn chain_through(&self, pred: &[usize], id: NodeId) -> Vec<String> {
        let mut chain = vec![self.nodes[id].qual.clone()];
        let mut cur = id;
        while pred[cur] != usize::MAX {
            cur = pred[cur];
            chain.push(self.nodes[cur].qual.clone());
            if chain.len() > 32 {
                break; // cycles cannot occur (pred is a BFS tree); belt and braces
            }
        }
        chain.reverse();
        chain
    }

    /// The root→…→node flow chain; `None` when the node is unreachable
    /// from every flow root.
    fn chain(&self, id: NodeId) -> Option<Vec<String>> {
        if !self.reachable[id] {
            return None;
        }
        Some(self.chain_through(&self.pred, id))
    }

    /// Runs the `panic-reachability` rule over every file in the graph:
    /// flags `unwrap`/`expect`/`panic!`-family macros and constant-index
    /// slicing inside any function reachable from a flow root, printing
    /// the reachability chain in the diagnostic.
    pub fn check_panic_reachability(&self, out: &mut Vec<Diagnostic>) {
        for (file_ix, f) in self.files.iter().enumerate() {
            if !in_graph(&f.ctx) {
                continue;
            }
            for site in panic_sites(&f.toks) {
                let tok = &f.toks[site.tok_ix];
                let Some((fn_ix, item)) = enclosing_fn(f, site.tok_ix) else {
                    continue; // file-scope token (const initializer …)
                };
                if item.is_test {
                    continue;
                }
                let Some(id) = self.node_id(file_ix, fn_ix) else {
                    continue;
                };
                let Some(chain) = self.chain(id) else {
                    continue; // unreachable from every flow root — excused
                };
                let mut notes = vec![format!(
                    "reached via: {}",
                    chain.join(" \u{2192} ") // →
                )];
                if chain.len() == 1 {
                    notes[0] = format!("`{}` is itself a flow entry point", chain[0]);
                }
                if let Some(d) = crate::rules::diag_if_unsuppressed(
                    &f.file,
                    &f.ctx,
                    Rule::PanicReachability,
                    tok,
                    format!(
                        "{} in `{}`, reachable from a flow entry point",
                        site.what, item.qual
                    ),
                    notes,
                ) {
                    out.push(d);
                }
            }
        }
    }
}

/// Is this file part of the call graph / workspace-analysis scope?
pub fn in_graph(ctx: &FileCtx) -> bool {
    !ctx.test_code
        && !ctx.crate_name.is_empty()
        && !EXEMPT_CRATES.contains(&ctx.crate_name.as_str())
}

/// The innermost non-test fn whose body contains `tok_ix` (bodies nest
/// for inner fns).
fn enclosing_fn(f: &SourceFile, tok_ix: usize) -> Option<(usize, &FnItem)> {
    f.fns
        .iter()
        .enumerate()
        .filter(|(_, it)| it.body_contains(tok_ix))
        .min_by_key(|(_, it)| it.body_len())
}

/// Extracts every call site in `item`'s body. Sites lexically inside a
/// `catch_unwind(…)` argument list are marked `guarded`: the unwind
/// boundary is the sanctioned crash-isolation mechanism (`sdp-serve`
/// runs each job under one so a panicking job becomes a structured
/// error instead of taking the server down), so work dispatched there
/// does not make its panics reachable from a flow root — but its
/// *results* still flow back, which matters for determinism taint.
fn call_sites(toks: &[Tok], item: &FnItem) -> Vec<CallSite> {
    let Some((open, close)) = item.body else {
        return Vec::new();
    };
    let guarded_spans = unwind_guarded_spans(toks, open, close);
    let mut out = Vec::new();
    for k in open + 1..close {
        if toks[k + 1].text != "(" || !is_ident(&toks[k].text) {
            continue;
        }
        let guarded = guarded_spans.iter().any(|&(a, b)| a < k && k < b);
        let name = toks[k].text.as_str();
        if NOT_CALLS.contains(&name) {
            continue;
        }
        let prev = toks[k - 1].text.as_str();
        if prev == "fn" || prev == "!" || prev == "#" {
            continue;
        }
        let is_method = prev == ".";
        let mut qualifier = None;
        let mut crate_hint = None;
        if prev == ":" && k >= 3 && toks[k - 2].text == ":" {
            // Walk the path backwards: `a :: b :: name`.
            let mut segs: Vec<&str> = Vec::new();
            let mut j = k - 1; // at the `:` adjacent to the name
            while j >= 2
                && toks[j].text == ":"
                && toks[j - 1].text == ":"
                && is_ident(&toks[j - 2].text)
            {
                segs.push(toks[j - 2].text.as_str());
                if j < 4 {
                    break;
                }
                j -= 3;
            }
            qualifier = segs.first().map(|s| s.to_string());
            crate_hint = segs.iter().find_map(|s| crate_of_path_head(s));
        }
        out.push(CallSite {
            tok_ix: k,
            name: name.to_string(),
            qualifier,
            crate_hint,
            is_method,
            guarded,
        });
    }
    out
}

/// Token ranges `(open_paren, close_paren)` of every `catch_unwind(…)`
/// argument list between `open` and `close`. An unclosed paren run ends
/// at `close` (the body's closing brace), which can only over-guard the
/// tail of a malformed body.
fn unwind_guarded_spans(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut k = open + 1;
    while k + 1 < close {
        if toks[k].text == "catch_unwind" && toks[k + 1].text == "(" {
            let mut depth = 0usize;
            let mut j = k + 1;
            while j < close {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            spans.push((k + 1, j));
            k = j;
        }
        k += 1;
    }
    spans
}

/// Maps a path-head identifier to a workspace crate directory name:
/// `sdp_gp` → `gp`, `sdp_netlist` → `netlist`.
fn crate_of_path_head(head: &str) -> Option<String> {
    head.strip_prefix("sdp_").map(str::to_string)
}

/// Resolves a call site to candidate nodes, most precise non-empty tier
/// first: impl-type match, then crate match, then module match, then
/// name-only (the sound over-approximating fallback).
fn resolve(
    call: &CallSite,
    by_name: &HashMap<&str, Vec<NodeId>>,
    nodes: &[Node],
    files: &[SourceFile],
    caller: &FnItem,
) -> Vec<NodeId> {
    let Some(named) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    let qualifier = match call.qualifier.as_deref() {
        Some("Self") => caller.impl_type.as_deref(),
        q => q,
    };
    if let Some(q) = qualifier {
        let tier: Vec<NodeId> = named
            .iter()
            .copied()
            .filter(|&id| {
                let item = &files[nodes[id].file_ix].fns[nodes[id].fn_ix];
                item.impl_type.as_deref() == Some(q)
            })
            .collect();
        if !tier.is_empty() {
            return tier;
        }
        if let Some(cn) = &call.crate_hint {
            let tier: Vec<NodeId> = named
                .iter()
                .copied()
                .filter(|&id| &nodes[id].crate_name == cn)
                .collect();
            if !tier.is_empty() {
                return tier;
            }
        }
        // Module-segment match: `module::name(…)`.
        let mid = format!("::{q}::");
        let head = format!("{q}::");
        let tier: Vec<NodeId> = named
            .iter()
            .copied()
            .filter(|&id| nodes[id].qual.contains(&mid) || nodes[id].qual.starts_with(&head))
            .collect();
        if !tier.is_empty() {
            return tier;
        }
        // A qualifier that matches no workspace impl type, crate, or
        // module names an external item (`Box::new`, `Instant::now`):
        // falling through to name-only would link it to every same-named
        // workspace fn, which is noise, not sound over-approximation.
        return Vec::new();
    }
    let _ = call.is_method;
    named.clone()
}

/// One potential panic site.
struct PanicSite {
    tok_ix: usize,
    what: &'static str,
}

/// Panic-family macros.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Finds `.unwrap()`, `.expect(…)`, `panic!`-family macros, and
/// constant-index slicing (`xs[0]`) in a token stream. `assert!`,
/// `debug_assert!`, and `unreachable!` are *not* flagged: they state
/// invariants, which the panic policy allows (DESIGN.md §7).
fn panic_sites(toks: &[Tok]) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = &toks[k];
        let next = |i: usize| toks.get(k + i).map(|t| t.text.as_str());
        if (t.text == "unwrap" || t.text == "expect")
            && k > 0
            && toks[k - 1].text == "."
            && next(1) == Some("(")
        {
            out.push(PanicSite {
                tok_ix: k,
                what: if t.text == "unwrap" {
                    "`unwrap()`"
                } else {
                    "`expect(…)`"
                },
            });
        } else if PANIC_MACROS.contains(&t.text.as_str()) && next(1) == Some("!") {
            out.push(PanicSite {
                tok_ix: k,
                what: "panicking macro",
            });
        } else if t.text == "["
            && k > 0
            && (is_ident(&toks[k - 1].text) || toks[k - 1].text == ")" || toks[k - 1].text == "]")
            && !NOT_CALLS.contains(&toks[k - 1].text.as_str())
            && next(1).is_some_and(|s| s.chars().all(|c| c.is_ascii_digit()))
            && next(2) == Some("]")
        {
            out.push(PanicSite {
                tok_ix: k,
                what: "constant-index slicing",
            });
        }
    }
    out
}

/// Per-crate `(reachable, total)` function counts — surfaced by
/// `--stats` for auditing how wide the root set casts.
pub fn reach_stats(g: &Graph<'_>) -> BTreeMap<String, (usize, usize)> {
    let mut m: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for (id, n) in g.nodes.iter().enumerate() {
        let e = m.entry(n.crate_name.clone()).or_insert((0, 0));
        e.1 += 1;
        if g.reachable[id] {
            e.0 += 1;
        }
    }
    m
}
