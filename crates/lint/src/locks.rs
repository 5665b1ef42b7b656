//! `lock-discipline`: workspace lock-acquisition analysis.
//!
//! Every function's lock acquisitions are extracted token-wise —
//! zero-argument `.lock()`/`.read()`/`.write()` method calls and
//! `lock(&…)` helper calls (the `sdp-serve` poison-surviving idiom) —
//! and each guard's lifetime is approximated by lexical scope: a
//! `let`-bound guard lives to the end of its enclosing block (or an
//! explicit `drop`); a temporary lives to the end of its statement, or
//! through the whole `match`/`if let` it scrutinizes. Acquisition sets
//! are then propagated over the call graph as per-function summaries, so
//! "lock `b` acquired while `a` is held" is seen whether the nesting is
//! lexical or hidden behind a call.
//!
//! Reported hazards:
//! - **lock-order cycles** — two paths nesting the same locks in
//!   opposite orders can deadlock;
//! - **a lock held across `Condvar::wait` on a different mutex** — the
//!   wait releases only its own mutex and can park for a long time;
//! - **guards held across `JoinHandle::join` or blocking channel
//!   `send`/`recv`** — the peer thread may need that lock to progress;
//! - **re-acquiring a held lock** — `std::sync::Mutex` is not
//!   reentrant.
//!
//! Lock identity is `(crate, name)`: the receiver field/variable name,
//! scoped by the acquiring crate so same-named locks in different
//! crates never alias.

use crate::callgraph::{in_graph, Graph, NodeId};
use crate::lexer::Tok;
use crate::rules::{
    diag_if_unsuppressed, is_ident, matching_close, matching_open, statement_end, statement_start,
    Diagnostic, Rule,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A lock's identity: the crate it lives in plus its field/variable
/// name.
pub type LockKey = (String, String);

/// One lock-order edge: somewhere in `site`, lock `from` was held while
/// `to` was acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub from: LockKey,
    pub to: LockKey,
    /// Display-qualified fn where the nested acquisition happens.
    pub site: String,
    /// The inner lock comes from a callee's acquisition summary rather
    /// than a lexical nesting in `site` itself.
    pub via_call: bool,
}

/// Zero-argument guard-creating methods.
const ACQ_METHODS: &[&str] = &["lock", "read", "write"];

/// Condvar wait family (first argument is the guard being released).
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while"];

/// Call-site names modeled directly by this analysis — their callee
/// summaries must not be folded in a second time.
const MODELED: &[&str] = &[
    "lock",
    "read",
    "write",
    "wait",
    "wait_timeout",
    "wait_while",
    "join",
    "send",
    "recv",
];

/// One lock acquisition inside a function body.
#[derive(Debug)]
struct Acq {
    /// Token index of the acquiring name (diagnostic anchor).
    tok_ix: usize,
    /// Lock name (receiver field/variable, or helper-call argument).
    name: String,
    /// `let`-bound guard variable, when there is one.
    guard_var: Option<String>,
    /// Exclusive end of the guard's lexical hold span.
    hold_end: usize,
}

/// The full analysis result: the lock-order graph plus hazard reports
/// (pre-suppression).
struct Analysis {
    /// Edge → first site that witnesses it.
    edges: BTreeMap<(LockKey, LockKey), (NodeId, usize, bool)>,
    /// `(node, tok_ix, message)` hazard reports.
    reports: Vec<(NodeId, usize, String, Vec<String>)>,
}

/// All lock-order edges in the workspace (lexical and via callee
/// summaries) — the hierarchy view DESIGN.md documents and the unit
/// tests assert on.
pub fn lock_order_edges(graph: &Graph<'_>) -> Vec<LockEdge> {
    let a = analyze(graph);
    a.edges
        .into_iter()
        .map(|((from, to), (node, _, via_call))| LockEdge {
            from,
            to,
            site: graph.nodes()[node].qual.clone(),
            via_call,
        })
        .collect()
}

/// Runs the `lock-discipline` rule over the workspace graph.
pub fn check_lock_discipline(graph: &Graph<'_>, out: &mut Vec<Diagnostic>) {
    let a = analyze(graph);

    // Hazards found during extraction (waits, joins, sends, re-locks).
    for (node, tok_ix, message, notes) in a.reports {
        let (f, _) = graph.source(node);
        if let Some(d) = diag_if_unsuppressed(
            &f.file,
            &f.ctx,
            Rule::LockDiscipline,
            &f.toks[tok_ix],
            message,
            notes,
        ) {
            out.push(d);
        }
    }

    // Lock-order cycles over the edge digraph: an edge a→b closes a
    // cycle when b already reaches a. Each cycle (as a lock set) is
    // reported once, at the witnessing edge's site.
    let mut adj: BTreeMap<&LockKey, BTreeSet<&LockKey>> = BTreeMap::new();
    for (from, to) in a.edges.keys() {
        adj.entry(from).or_default().insert(to);
    }
    let mut seen: BTreeSet<BTreeSet<&LockKey>> = BTreeSet::new();
    for ((from, to), &(node, tok_ix, via_call)) in &a.edges {
        let Some(path) = path_between(&adj, to, from) else {
            continue;
        };
        let cycle: BTreeSet<&LockKey> = path.iter().copied().chain([from, to]).collect();
        if !seen.insert(cycle.clone()) {
            continue;
        }
        let render = |k: &LockKey| format!("{}::{}", k.0, k.1);
        let mut notes = vec![format!(
            "reverse path: {}",
            path.iter()
                .map(|k| render(k))
                .collect::<Vec<_>>()
                .join(" → ")
        )];
        if via_call {
            notes.push("the inner acquisition happens inside a callee".to_string());
        }
        let (f, _) = graph.source(node);
        if let Some(d) = diag_if_unsuppressed(
            &f.file,
            &f.ctx,
            Rule::LockDiscipline,
            &f.toks[tok_ix],
            format!(
                "lock-order cycle: `{}` is acquired while `{}` is held here, but the \
                 opposite order exists elsewhere — potential deadlock",
                render(to),
                render(from)
            ),
            notes,
        ) {
            out.push(d);
        }
    }
}

/// Shortest path `from → … → to` in the edge digraph (inclusive), or
/// `None`.
fn path_between<'k>(
    adj: &BTreeMap<&'k LockKey, BTreeSet<&'k LockKey>>,
    from: &'k LockKey,
    to: &'k LockKey,
) -> Option<Vec<&'k LockKey>> {
    let mut pred: BTreeMap<&LockKey, &LockKey> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut visited: BTreeSet<&LockKey> = BTreeSet::from([from]);
    while let Some(cur) = queue.pop_front() {
        if cur == to {
            let mut path = vec![cur];
            let mut c = cur;
            while let Some(&p) = pred.get(c) {
                path.push(p);
                c = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(cur).into_iter().flatten() {
            if visited.insert(next) {
                pred.insert(next, cur);
                queue.push_back(next);
            }
        }
    }
    None
}

fn analyze(graph: &Graph<'_>) -> Analysis {
    let nodes = graph.nodes();

    // Per-node direct acquisitions.
    let acqs: Vec<Vec<Acq>> = (0..nodes.len())
        .map(|id| {
            let (f, item) = graph.source(id);
            match item.body {
                Some((open, close)) => acquisitions(&f.toks, open, close),
                None => Vec::new(),
            }
        })
        .collect();

    // Interprocedural acquisition summaries: which locks can a call into
    // this fn (transitively) acquire? Fixpoint over the call graph;
    // per-node sets are capped to bound the name-approximate blowup.
    const SUMMARY_CAP: usize = 16;
    let mut summary: Vec<BTreeSet<LockKey>> = (0..nodes.len())
        .map(|id| {
            acqs[id]
                .iter()
                .map(|a| (nodes[id].crate_name.clone(), a.name.clone()))
                .collect()
        })
        .collect();
    for _ in 0..32 {
        let mut changed = false;
        for id in 0..nodes.len() {
            let (f, _) = graph.source(id);
            for call in &nodes[id].calls {
                if MODELED.contains(&f.toks[call.tok_ix].text.as_str()) {
                    continue;
                }
                for callee in graph.trusted_callees(id, call) {
                    let add: Vec<LockKey> = summary[callee].iter().cloned().collect();
                    for k in add {
                        if summary[id].len() >= SUMMARY_CAP {
                            break;
                        }
                        changed |= summary[id].insert(k);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Analysis {
        edges: BTreeMap::new(),
        reports: Vec::new(),
    };

    for id in 0..nodes.len() {
        let (f, _) = graph.source(id);
        if !in_graph(&f.ctx) {
            continue;
        }
        let toks = &f.toks;
        for a in &acqs[id] {
            let a_key = (nodes[id].crate_name.clone(), a.name.clone());
            // Lexical nestings and blocking calls inside the hold span.
            for b in &acqs[id] {
                if b.tok_ix > a.tok_ix && b.tok_ix < a.hold_end {
                    let b_key = (nodes[id].crate_name.clone(), b.name.clone());
                    if b_key == a_key {
                        out.reports.push((
                            id,
                            b.tok_ix,
                            format!(
                                "lock `{}` re-acquired while already held — \
                                 `std::sync::Mutex` is not reentrant",
                                a.name
                            ),
                            Vec::new(),
                        ));
                    } else {
                        out.edges
                            .entry((a_key.clone(), b_key))
                            .or_insert((id, b.tok_ix, false));
                    }
                }
            }
            for k in a.tok_ix + 1..a.hold_end.min(toks.len().saturating_sub(1)) {
                let t = toks[k].text.as_str();
                let method = toks[k - 1].text == "." && toks[k + 1].text == "(";
                if !method {
                    continue;
                }
                let zero_arg = toks.get(k + 2).map(|t| t.text.as_str()) == Some(")");
                if WAIT_METHODS.contains(&t) {
                    // The wait releases only the guard it is handed; any
                    // *other* held lock stays locked for the whole park.
                    let passed = first_arg_ident(toks, k + 1);
                    if a.guard_var.as_deref() != passed.as_deref() {
                        out.reports.push((
                            id,
                            k,
                            format!(
                                "lock `{}` held across `Condvar::{t}` on a different \
                                 mutex — the wait does not release it",
                                a.name
                            ),
                            Vec::new(),
                        ));
                    }
                } else if t == "join" && zero_arg {
                    out.reports.push((
                        id,
                        k,
                        format!(
                            "guard on `{}` held across `JoinHandle::join` — the joined \
                             thread may need the lock to finish",
                            a.name
                        ),
                        Vec::new(),
                    ));
                } else if (t == "send" && !zero_arg) || (t == "recv" && zero_arg) {
                    out.reports.push((
                        id,
                        k,
                        format!(
                            "guard on `{}` held across blocking channel `{t}` — the \
                             peer may need the lock to make progress",
                            a.name
                        ),
                        Vec::new(),
                    ));
                }
            }
            // Interprocedural: calls inside the hold span acquire the
            // callee's summarized locks while `a` is held.
            for call in &nodes[id].calls {
                if call.tok_ix <= a.tok_ix || call.tok_ix >= a.hold_end {
                    continue;
                }
                if MODELED.contains(&toks[call.tok_ix].text.as_str()) {
                    continue;
                }
                for callee in graph.trusted_callees(id, call) {
                    for key in &summary[callee] {
                        if *key == a_key {
                            out.reports.push((
                                id,
                                call.tok_ix,
                                format!(
                                    "lock `{}` may be re-acquired through the call to \
                                     `{}` while already held",
                                    a.name, nodes[callee].qual
                                ),
                                vec![format!("callee acquires: {}::{}", key.0, key.1)],
                            ));
                        } else {
                            out.edges.entry((a_key.clone(), key.clone())).or_insert((
                                id,
                                call.tok_ix,
                                true,
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// First identifier inside the parens opened at `open` (skipping `&` /
/// `mut`).
fn first_arg_ident(toks: &[Tok], open: usize) -> Option<String> {
    let close = matching_close(toks, open);
    toks[open + 1..close]
        .iter()
        .find(|t| is_ident(&t.text) && t.text != "mut")
        .map(|t| t.text.clone())
}

/// Extracts every lock acquisition in a fn body with its hold span.
fn acquisitions(toks: &[Tok], open: usize, close: usize) -> Vec<Acq> {
    let mut out = Vec::new();
    for k in open + 1..close.min(toks.len().saturating_sub(1)) {
        let t = toks[k].text.as_str();
        let method_acq = ACQ_METHODS.contains(&t)
            && toks[k - 1].text == "."
            && toks[k + 1].text == "("
            && toks.get(k + 2).map(|t| t.text.as_str()) == Some(")");
        let helper_acq = t == "lock"
            && toks[k - 1].text != "."
            && toks[k - 1].text != "fn"
            && toks[k + 1].text == "(";
        let name = if method_acq {
            receiver_name(toks, k - 1)
        } else if helper_acq {
            let end = matching_close(toks, k + 1);
            toks[k + 2..end]
                .iter()
                .rev()
                .find(|t| is_ident(&t.text) && t.text != "mut")
                .map(|t| t.text.clone())
        } else {
            None
        };
        let Some(name) = name else {
            continue;
        };

        let s = statement_start(toks, k);
        let (guard_var, hold_end) = if toks[s].text == "let" && binds_guard(toks, k, method_acq) {
            let mut j = s + 1;
            if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
                j += 1;
            }
            match toks.get(j).map(|t| t.text.as_str()) {
                // `let _ = …` drops the guard at the end of the statement.
                Some("_") => (None, statement_end(toks, k)),
                Some(pat) if is_ident(pat) => {
                    let scope_end = enclosing_block_end(toks, open, k);
                    let var = pat.to_string();
                    // An explicit `drop(name)` shortens the hold span.
                    let mut end = scope_end;
                    for d in k..scope_end.min(toks.len().saturating_sub(3)) {
                        if toks[d].text == "drop"
                            && toks[d + 1].text == "("
                            && toks[d + 2].text == var
                            && toks[d + 3].text == ")"
                        {
                            end = d;
                            break;
                        }
                    }
                    (Some(var), end)
                }
                _ => (None, statement_end(toks, k)),
            }
        } else {
            // A temporary guard lives to the end of its statement — or
            // through the whole block when it is a `match`/`if let`
            // scrutinee (the temporary is kept alive for every arm).
            let e = statement_end(toks, k);
            if toks.get(e).map(|t| t.text.as_str()) == Some("{") {
                (None, matching_close(toks, e))
            } else {
                (None, e)
            }
        };
        out.push(Acq {
            tok_ix: k,
            name,
            guard_var,
            hold_end,
        });
    }
    out
}

/// Does the `let` statement containing the acquisition at `k` bind the
/// *guard*? Only when the acquisition expression ends the initializer,
/// possibly through `unwrap`/`expect` adapters — `let g = m.lock();` and
/// `let g = m.lock().unwrap();` bind guards, while
/// `let depth = lock(&q).len();` binds the `usize` result and drops the
/// guard at the end of the statement.
fn binds_guard(toks: &[Tok], k: usize, method_acq: bool) -> bool {
    // End of the acquisition call: `.lock()` closes at k+2; the helper's
    // argument list closes at its matching paren.
    let mut e = if method_acq {
        k + 3
    } else {
        matching_close(toks, k + 1) + 1
    };
    while e + 2 < toks.len()
        && toks[e].text == "."
        && matches!(toks[e + 1].text.as_str(), "unwrap" | "expect")
        && toks[e + 2].text == "("
    {
        e = matching_close(toks, e + 2) + 1;
    }
    toks.get(e).map(|t| t.text.as_str()) == Some(";")
}

/// The receiver name of a method call: the identifier before `dot`
/// (following a call/index back over its parens: `stdout().lock()` →
/// `stdout`).
fn receiver_name(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let r = dot - 1;
    match toks[r].text.as_str() {
        ")" | "]" => {
            let o = matching_open(toks, r);
            (o > 0 && is_ident(&toks[o - 1].text)).then(|| toks[o - 1].text.clone())
        }
        s if is_ident(s) => Some(s.to_string()),
        _ => None,
    }
}

/// Exclusive end of the innermost brace block containing `k` (the fn
/// body's own close when `k` sits at top level).
fn enclosing_block_end(toks: &[Tok], open: usize, k: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    for (j, t) in toks.iter().enumerate().take(k + 1).skip(open) {
        match t.text.as_str() {
            "{" => stack.push(j),
            "}" => {
                stack.pop();
            }
            _ => {}
        }
    }
    match stack.last() {
        Some(&o) => matching_close(toks, o),
        None => k,
    }
}
