//! The `quadratic-scan` rule: linear-time collection work inside
//! collection-sized loops, on call paths reachable from flow roots.
//!
//! An accidental O(n²) pattern — a membership scan per inserted element,
//! a `remove(0)` per drained item, a whole-collection sort per pass — can
//! hide where no timing gate looks: a per-cell `movable.iter().position`
//! in `DensityModel::new` took `place_huge`'s global placement from
//! 4.2–4.9 s to 4.9–6.2 s, and the perf gate passed (DESIGN.md §7).
//!
//! The analysis is lexical-plus-interprocedural: token scanning decides
//! what is a collection-sized loop and what is a linear-time site, the
//! call graph decides whether the enclosing function is on a production
//! path at all, and the diagnostic prints the same root→function chain
//! the panic-reachability rule does.
//!
//! The collection-sized test is name-based: a loop counts when its
//! header (between the `for`/`while` keyword and the body `{`) mentions
//! a name whose declaration tracks a growable collection (`Vec`, the
//! maps/sets, a slice parameter). Loops over literal arrays, constant
//! ranges, or fixed windows have no such name and never count — that is
//! the pinned false-positive class in the corpus.

use crate::callgraph::{Graph, NodeId};
use crate::lexer::Tok;
use crate::rules::{
    chain_has, diag_if_unsuppressed, is_ident, matches_seq, matching_close, Diagnostic, Rule,
};

/// Growable collection types whose loops count as collection-sized.
const COLL_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Vector-like types with O(len) membership/positional operations.
const LINEAR_TYPES: &[&str] = &["Vec", "VecDeque"];

/// Methods that are O(len) on a vector-like receiver.
const LINEAR_METHODS: &[&str] = &["contains", "remove", "insert"];

/// One lexical loop region: the keyword, and the body braces.
struct LoopSpan {
    kw: usize,
    body_open: usize,
    body_close: usize,
}

/// Lexical loop regions (`for`/`while`/`loop`) in a fn body.
fn loop_spans(toks: &[Tok], open: usize, close: usize) -> Vec<LoopSpan> {
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
                body_close: matching_close(toks, bo),
            });
        }
    }
    out
}

/// Runs the `quadratic-scan` rule over the workspace graph.
pub fn check_quadratic_scan(graph: &Graph<'_>, out: &mut Vec<Diagnostic>) {
    let nodes = graph.nodes();
    let roots: Vec<NodeId> = (0..nodes.len()).filter(|&id| nodes[id].is_root).collect();
    if roots.is_empty() {
        return;
    }
    // Follow guarded edges: work dispatched under `catch_unwind` still
    // burns its quadratic time.
    let (reach, pred) = graph.reach_from(&roots, true);

    for (id, &reachable) in reach.iter().enumerate() {
        if !reachable {
            continue;
        }
        let (f, item) = graph.source(id);
        let Some((open, close)) = item.body else {
            continue;
        };
        let toks = &f.toks;
        let scope = &toks[item.fn_tok..=close];
        let colls = crate::rules::tracked_names(scope, COLL_TYPES);
        let mut linear = crate::rules::tracked_names(scope, LINEAR_TYPES);
        for n in slice_param_names(toks, item.fn_tok, open) {
            if !linear.contains(&n) {
                linear.push(n);
            }
        }
        let mut all: Vec<String> = colls.clone();
        for n in &linear {
            if !all.contains(n) {
                all.push(n.clone());
            }
        }
        if all.is_empty() {
            continue;
        }

        let spans = loop_spans(toks, open, close);
        // Per-span collection domains: tracked names mentioned in the
        // loop header as values (not `x.name` fields of something else,
        // not `name[i]` sub-collection indexing).
        let domains: Vec<Vec<String>> = spans
            .iter()
            .map(|s| {
                all.iter()
                    .filter(|n| (s.kw + 1..s.body_open).any(|k| domain_mention(toks, k, n)))
                    .cloned()
                    .collect()
            })
            .collect();

        let chain = graph.chain_through(&pred, id);
        let chain_note = if chain.len() == 1 {
            format!("`{}` is itself a flow entry point", chain[0])
        } else {
            format!("reached via: {}", chain.join(" \u{2192} "))
        };

        let flag = |tok_ix: usize, span_ix: usize, what: String, out: &mut Vec<Diagnostic>| {
            let s = &spans[span_ix];
            let domain = domains[span_ix].join("`/`");
            let mut d = diag_if_unsuppressed(
                &f.file,
                &f.ctx,
                Rule::QuadraticScan,
                &toks[tok_ix],
                format!("{what} — O(n\u{b2}) on netlist-scale inputs"),
                vec![
                    format!(
                        "inside the loop at line {} over collection-sized `{domain}`",
                        toks[s.kw].line
                    ),
                    chain_note.clone(),
                ],
            );
            out.extend(d.take());
        };

        for k in open + 1..close {
            // Only sites inside some collection-sized loop body matter.
            let Some(span_ix) = innermost_sized_span(k, &spans, &domains) else {
                continue;
            };
            let t = &toks[k];
            if !all.iter().any(|n| n == &t.text) || !value_position(toks, k) {
                continue;
            }
            // `name.contains(…)` / `name.remove(i)` / `name.insert(i, _)`
            // on a vector-like receiver.
            if linear.iter().any(|n| n == &t.text)
                && toks.get(k + 1).map(|t| t.text.as_str()) == Some(".")
                && toks
                    .get(k + 2)
                    .is_some_and(|m| LINEAR_METHODS.contains(&m.text.as_str()))
                && toks.get(k + 3).map(|t| t.text.as_str()) == Some("(")
            {
                let m = &toks[k + 2].text;
                flag(
                    k,
                    span_ix,
                    format!("linear-time `{}.{m}(\u{2026})`", t.text),
                    out,
                );
                continue;
            }
            // `name.iter().position(…)` — a linear search per iteration.
            if linear.iter().any(|n| n == &t.text)
                && matches_seq(toks, k + 1, &[".", "iter", "(", ")", "."])
                && toks
                    .get(k + 6)
                    .is_some_and(|m| m.text == "position" || m.text == "rposition")
                && toks.get(k + 7).map(|t| t.text.as_str()) == Some("(")
            {
                flag(
                    k,
                    span_ix,
                    format!("linear search `{}.iter().position(\u{2026})`", t.text),
                    out,
                );
                continue;
            }
            // Whole-collection `sort*`/`collect` per iteration, unless the
            // receiver is a loop-local (declared inside this loop's body).
            if toks.get(k + 1).map(|t| t.text.as_str()) == Some(".")
                && !declared_in_span(toks, &spans[span_ix], &t.text)
            {
                if toks.get(k + 2).is_some_and(|m| m.text.starts_with("sort"))
                    && toks.get(k + 3).map(|t| t.text.as_str()) == Some("(")
                {
                    flag(
                        k,
                        span_ix,
                        format!(
                            "repeated whole-collection `{}.{}()`",
                            t.text,
                            toks[k + 2].text
                        ),
                        out,
                    );
                    continue;
                }
                if chain_has(toks, k, &["collect"]).is_some() {
                    flag(
                        k,
                        span_ix,
                        format!("whole-collection `collect` from `{}` per iteration", t.text),
                        out,
                    );
                    continue;
                }
            }
        }

        // Nested loops ranging over the same collection-sized domain.
        for (inner_ix, inner) in spans.iter().enumerate() {
            if domains[inner_ix].is_empty() {
                continue;
            }
            let Some((outer, shared)) = spans.iter().enumerate().find_map(|(outer_ix, outer)| {
                if outer.body_open < inner.kw && inner.body_close < outer.body_close {
                    domains[inner_ix]
                        .iter()
                        .find(|d| domains[outer_ix].contains(d))
                        .map(|d| (outer, d.clone()))
                } else {
                    None
                }
            }) else {
                continue;
            };
            let mut d = diag_if_unsuppressed(
                &f.file,
                &f.ctx,
                Rule::QuadraticScan,
                &toks[inner.kw],
                format!(
                    "nested loops over the same collection-sized domain `{shared}` — \
                     O(n\u{b2}) on netlist-scale inputs"
                ),
                vec![
                    format!(
                        "the enclosing loop at line {} already ranges over `{shared}`",
                        toks[outer.kw].line
                    ),
                    chain_note.clone(),
                ],
            );
            out.extend(d.take());
        }
    }
}

/// The innermost loop span whose *body* contains `k` and whose domain is
/// collection-sized.
fn innermost_sized_span(k: usize, spans: &[LoopSpan], domains: &[Vec<String>]) -> Option<usize> {
    spans
        .iter()
        .enumerate()
        .filter(|(ix, s)| k > s.body_open && k < s.body_close && !domains[*ix].is_empty())
        .min_by_key(|(_, s)| s.body_close - s.body_open)
        .map(|(ix, _)| ix)
}

/// Is the tracked-name occurrence at `k` a value use of the name itself —
/// not a field of another value (`x.name`, unless `self.name`) and not
/// sub-collection indexing (`name[i]`)?
fn value_position(toks: &[Tok], k: usize) -> bool {
    if k > 0 && toks[k - 1].text == "." && !(k >= 2 && toks[k - 2].text == "self") {
        return false;
    }
    toks.get(k + 1).map(|t| t.text.as_str()) != Some("[")
}

/// Does the loop header token at `k` mention tracked name `n` as a value?
fn domain_mention(toks: &[Tok], k: usize, n: &str) -> bool {
    toks[k].text == *n && value_position(toks, k)
}

/// `let [mut] name` appears inside the span's body — the receiver is
/// loop-local, so per-iteration work on it is not whole-collection work.
fn declared_in_span(toks: &[Tok], span: &LoopSpan, name: &str) -> bool {
    (span.body_open + 1..span.body_close).any(|k| {
        toks[k].text == "let"
            && (toks.get(k + 1).is_some_and(|t| t.text == name)
                || (toks.get(k + 1).is_some_and(|t| t.text == "mut")
                    && toks.get(k + 2).is_some_and(|t| t.text == name)))
    })
}

/// Parameter names declared as slices (`name: &[T]` / `name: &mut [T]`),
/// which share `Vec`'s O(len) scan profile.
fn slice_param_names(toks: &[Tok], fn_tok: usize, body_open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = fn_tok + 1;
    while k < body_open {
        if toks[k].text == ":" && k > fn_tok + 1 && is_ident(&toks[k - 1].text) {
            let name = &toks[k - 1].text;
            // Skip `&`, `'lifetime`, `mut` to the type head.
            let mut j = k + 1;
            while j < body_open {
                match toks[j].text.as_str() {
                    "&" | "mut" => j += 1,
                    "'" => j += 2, // lifetime tick + ident
                    _ => break,
                }
            }
            if j < body_open && toks[j].text == "[" {
                // An array type carries `[T; N]` — a `;` inside the
                // brackets; a slice does not.
                let mut depth = 0i32;
                let mut fixed = false;
                let mut m = j;
                while m < body_open {
                    match toks[m].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ";" if depth == 1 => fixed = true,
                        _ => {}
                    }
                    m += 1;
                }
                if !fixed && !out.contains(name) {
                    out.push(name.clone());
                }
            }
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean, tokenize};

    #[test]
    fn slice_params_are_recognized_and_arrays_are_not() {
        let src = "fn f(xs: &[f64], w: &[f64; 3], ys: &mut [u32], n: usize) {}";
        let file = clean(src);
        let toks = tokenize(&file.code);
        let fn_tok = toks.iter().position(|t| t.text == "fn").unwrap();
        let open = toks.iter().position(|t| t.text == "{").unwrap();
        assert_eq!(slice_param_names(&toks, fn_tok, open), vec!["xs", "ys"]);
    }
}
