//! The seven named rules, the per-file `nondeterministic-iter` checker,
//! and the token machinery the call-graph passes share.
//!
//! Every rule is named and allowlistable: a site is suppressed by a
//! comment `// sdp-lint: allow(<rule-name>) -- <reason>` on the same line
//! or up to five lines above it (`MARKER_WINDOW`). A marker without a reason
//! does **not** suppress — the reason is the audit trail.

use crate::lexer::{clean, tokenize, CleanFile, Tok};
use std::fmt;

/// How many lines above a site an allow-marker is searched for.
const MARKER_WINDOW: usize = 5;

/// The named rules enforced by `sdp-lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over `HashMap`/`HashSet` in a kernel crate: hash
    /// iteration order is randomized per process and silently feeds cell
    /// or net order into extraction/placement.
    NondeterministicIter,
    /// An `unwrap`/`expect`/`panic!`-family site (or constant-index
    /// slicing) inside a function the cross-crate call graph shows is
    /// reachable from a flow entry point (CLI subcommands, kernel public
    /// APIs). A malformed input must surface as a typed error, not a
    /// backtrace.
    PanicReachability,
    /// Lock-acquisition ordering problems found by propagating each
    /// function's guard scopes over the call graph: lock-order cycles
    /// (potential deadlocks), a lock held across `Condvar::wait` on a
    /// *different* mutex, and guards held across blocking channel
    /// operations or `JoinHandle::join`.
    LockDiscipline,
    /// A nondeterministic source (hash iteration, wall clock, thread
    /// identity) inside a function the call graph shows is invoked by a
    /// result-affecting entry point (`place`/`solve`/serve result
    /// serialization) — its output can vary run-to-run and leak into
    /// placement results. The diagnostic prints the full call chain.
    DeterminismTaint,
    /// A heap allocation (`Vec::new`, `collect`, `clone`, `format!`, …)
    /// inside the solver's inner loops — functions the call graph marks
    /// as reachable from the Nesterov iteration body. Per-iteration
    /// allocation is the hot-path bug class PR 6 fixed by hand.
    HotLoopAlloc,
    /// A linear-time collection operation (`contains`, `iter().position`,
    /// `remove(idx)`, `insert(idx, _)`, repeated `sort`/whole-collection
    /// `collect`) inside a loop whose iteration domain is itself
    /// collection-sized — or nested loops over the same collection-sized
    /// domain — in a function reachable from a flow entry point. O(n²)
    /// on netlist-scale inputs (ROADMAP item 4).
    QuadraticScan,
    /// A collection field of a long-lived type (a struct held in
    /// `Arc`/`Mutex`/`RwLock`/`static`) with an insert path reachable
    /// from a request handler or flow root but no reachable
    /// eviction/cap/clear path — the retention-cap and cache-budget bug
    /// class PRs 5 and 8 fixed by hand.
    UnboundedGrowth,
}

impl Rule {
    pub const ALL: [Rule; 7] = [
        Rule::NondeterministicIter,
        Rule::PanicReachability,
        Rule::LockDiscipline,
        Rule::DeterminismTaint,
        Rule::HotLoopAlloc,
        Rule::QuadraticScan,
        Rule::UnboundedGrowth,
    ];

    /// The kebab-case name used in diagnostics and allow-markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondeterministicIter => "nondeterministic-iter",
            Rule::PanicReachability => "panic-reachability",
            Rule::LockDiscipline => "lock-discipline",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::HotLoopAlloc => "hot-loop-alloc",
            Rule::QuadraticScan => "quadratic-scan",
            Rule::UnboundedGrowth => "unbounded-growth",
        }
    }

    /// One-line fix guidance appended to diagnostics.
    pub fn help(self) -> &'static str {
        match self {
            Rule::NondeterministicIter => {
                "sort the items, switch to BTreeMap/BTreeSet, or add \
                 `// sdp-lint: allow(nondeterministic-iter) -- <reason>`"
            }
            Rule::PanicReachability => {
                "return a typed error (see netlist::ParseError), handle the None/Err case, or add \
                 `// sdp-lint: allow(panic-reachability) -- <reason>` stating why the panic is \
                 unreachable"
            }
            Rule::LockDiscipline => {
                "acquire locks in the documented hierarchy order (DESIGN.md), drop guards before \
                 blocking calls, or add `// sdp-lint: allow(lock-discipline) -- <reason>`"
            }
            Rule::DeterminismTaint => {
                "sort the iteration, inject the clock through sdp-progress, keep the value out \
                 of result bodies, or add `// sdp-lint: allow(determinism-taint) -- <reason>`"
            }
            Rule::HotLoopAlloc => {
                "hoist the buffer into a reused scratch field (see gp::wirelength::NetScratch), \
                 or add `// sdp-lint: allow(hot-loop-alloc) -- <reason>`"
            }
            Rule::QuadraticScan => {
                "use a set/map keyed lookup, hoist the scan out of the loop, or add \
                 `// sdp-lint: allow(quadratic-scan) -- <reason>` stating the size bound"
            }
            Rule::UnboundedGrowth => {
                "add a reachable eviction/cap path (budget, retention window, clear), or add \
                 `// sdp-lint: allow(unbounded-growth) -- <reason>` stating the bound"
            }
        }
    }

    /// SARIF `shortDescription` text for the rule metadata block.
    pub fn short_description(self) -> &'static str {
        match self {
            Rule::NondeterministicIter => "Kernel crates must not iterate hash-ordered containers",
            Rule::PanicReachability => {
                "No unwrap/expect/panic! in functions reachable from flow entry points"
            }
            Rule::LockDiscipline => {
                "No lock-order cycles, no locks held across Condvar::wait on another mutex, no \
                 guards held across blocking channel ops or thread joins"
            }
            Rule::DeterminismTaint => {
                "No nondeterministic sources in functions reachable from result-affecting entry \
                 points"
            }
            Rule::HotLoopAlloc => {
                "No per-iteration heap allocation in functions called from solver inner loops"
            }
            Rule::QuadraticScan => {
                "No linear-time collection scans inside collection-sized loops on flow-reachable \
                 paths"
            }
            Rule::UnboundedGrowth => {
                "Long-lived collections with reachable inserts need a reachable eviction or cap \
                 path"
            }
        }
    }

    /// Long-form rationale and allow-marker guidance — the `--explain`
    /// text, so suppressing a rule never requires DESIGN.md archaeology.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::NondeterministicIter => {
                "Std hash containers seed SipHash per process, so `HashMap`/`HashSet` \
                 iteration order differs between runs of the same binary on the same \
                 input. In a kernel crate that order silently becomes cell or net \
                 order, and the placement stops being reproducible — which breaks the \
                 bitwise determinism guarantee the calibration methodology depends on.\n\
                 \n\
                 Fix by switching to `BTreeMap`/`BTreeSet`, sorting the collected \
                 items, or ending the chain in an order-insensitive terminal \
                 (`count`, `any`, `min`, …). Iteration that is provably \
                 order-insensitive for another reason can carry\n\
                 `// sdp-lint: allow(nondeterministic-iter) -- <reason>`\n\
                 on the line or up to five lines above; the reason is mandatory."
            }
            Rule::PanicReachability => {
                "An `unwrap`/`expect`/`panic!` (or constant-index slicing) in a \
                 function reachable from a flow entry point turns malformed input \
                 into a backtrace instead of a typed error. The cross-crate call \
                 graph computes reachability from the CLI commands and kernel public \
                 APIs; the diagnostic prints the root→site chain. `catch_unwind(…)` \
                 argument spans are a sanctioned crash-isolation boundary and stop \
                 propagation.\n\
                 \n\
                 Fix by returning a typed error (see `netlist::ParseError`). A panic \
                 that is provably unreachable (checked invariant) can carry\n\
                 `// sdp-lint: allow(panic-reachability) -- <reason>`."
            }
            Rule::LockDiscipline => {
                "The analysis extracts every lock acquisition (`.lock()`, `.read()`, \
                 `.write()`, and `lock(&…)` helper calls), approximates guard \
                 lifetimes by lexical scope (a `let` guard lives to its block end or \
                 an explicit `drop`; a temporary lives to its statement, or through \
                 the `match` it scrutinizes), and propagates acquisitions over the \
                 call graph. It reports: (1) lock-order cycles — two code paths that \
                 nest the same locks in opposite orders can deadlock; (2) a lock held \
                 across `Condvar::wait` on a *different* mutex — the wait releases \
                 only its own mutex, so the held lock blocks every other thread for \
                 the whole wait; (3) guards held across `JoinHandle::join` or \
                 blocking channel `send`/`recv` — the joined/peer thread may need \
                 that lock to make progress. The workspace hierarchy (serve: queue → \
                 jobs) is documented in DESIGN.md.\n\
                 \n\
                 Fix by acquiring in hierarchy order and dropping guards before \
                 blocking calls. A deliberate protocol (e.g. holding a shared \
                 `Receiver`'s mutex across `recv` to serialize consumers) can carry\n\
                 `// sdp-lint: allow(lock-discipline) -- <reason>`."
            }
            Rule::DeterminismTaint => {
                "Interprocedural taint: the result-affecting cone is every function \
                 reachable (through the call graph, including `catch_unwind` \
                 boundaries — data flows back even when panics do not) from \
                 `place`/`solve`/the serve result serializer. A nondeterministic \
                 source inside that cone — hash-container iteration, \
                 `Instant::now`/`SystemTime::now`/entropy outside `sdp-progress`, \
                 `thread::current` — can change placement results run-to-run. The \
                 diagnostic prints the entry-point→source call chain. Hash iteration \
                 in kernel crates is left to `nondeterministic-iter`, and clock reads \
                 in library crates to clippy's `disallowed-methods` policy, so each \
                 site is reported once.\n\
                 \n\
                 Fix by sorting the iteration, injecting the clock through \
                 `sdp-progress`, or keeping the value out of result bodies. A value \
                 that provably never reaches result bytes (e.g. a deadline check \
                 that only decides *whether* a job completes) can carry\n\
                 `// sdp-lint: allow(determinism-taint) -- <reason>`."
            }
            Rule::HotLoopAlloc => {
                "The call graph marks functions invoked from the Nesterov solver's \
                 iteration body (`gp::minimize_nesterov`) as solver-inner. A heap \
                 allocation there — `Vec::new`, `with_capacity`, `collect`, zero-arg \
                 `clone`, `format!`, \
                 `to_vec`/`to_string`/`to_owned`, `Box::new` — runs per evaluation × \
                 per net/cell, exactly the allocation class PR 6 hand-hoisted out of \
                 the wirelength and optimizer loops.\n\
                 \n\
                 Fix by hoisting the buffer into a caller-owned scratch struct that \
                 is cleared and refilled (see `gp::wirelength::NetScratch`). An \
                 allocation that amortizes (one exact-sized buffer per chunk, not \
                 per item) can carry\n\
                 `// sdp-lint: allow(hot-loop-alloc) -- <reason>`."
            }
            Rule::QuadraticScan => {
                "ROADMAP item 4 targets 100k–1M-cell designs, where an accidental \
                 O(n²) scan is the difference between seconds and hours. The \
                 analysis walks every function the call graph shows is reachable \
                 from a flow entry point, finds loops whose iteration domain is a \
                 growable collection (a `Vec`/map/set local, parameter, field, or \
                 slice), and flags linear-time work inside them: \
                 `contains`/`remove(idx)`/`insert(idx, _)` on vector-like values, \
                 `iter().position(…)`, repeated whole-collection `sort`/`collect`, \
                 and nested loops ranging over the *same* collection-sized domain. \
                 The diagnostic prints the flow-root→function chain like \
                 panic-reachability does, plus the loop and its domain.\n\
                 \n\
                 Fix with a keyed lookup (`HashSet`/`BTreeSet` membership, a \
                 position map built once), by hoisting the scan out of the loop, or \
                 by restructuring to a single pass. A scan whose domain is provably \
                 small (a fixed stage list, a per-group bound) can carry\n\
                 `// sdp-lint: allow(quadratic-scan) -- <reason>` stating the bound."
            }
            Rule::UnboundedGrowth => {
                "PR 5 added the job-record retention cap and PR 8 the result-cache \
                 byte budget — both after the collections had already shipped \
                 unbounded. This rule detects the class statically: a struct field \
                 holding a growable collection, in a type the crate keeps alive \
                 (wrapped in `Arc`/`Mutex`/`RwLock`/`OnceLock` or stored in a \
                 `static`), whose insert path (`insert`/`push`/`extend`/`entry`…) \
                 is reachable from a request handler or flow root while no \
                 eviction path (`remove`/`pop`/`clear`/`truncate`/`drain`/`retain`…) \
                 is. Each finding names the growing field, the insert chain from \
                 its root, and whether an eviction exists but is unreachable.\n\
                 \n\
                 Fix by capping at insert time (LRU byte budget, retention window) \
                 or wiring the eviction into the live path. A collection that is \
                 bounded by construction (one entry per worker, per preset) can \
                 carry\n\
                 `// sdp-lint: allow(unbounded-growth) -- <reason>` stating the bound."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of file is being linted; decides which rules run.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path used in diagnostics.
    pub rel_path: String,
    /// Crate directory name (`gp`, `netlist`, `cli`…); empty for
    /// workspace-level `tests/` and `examples/` files. Drives the
    /// call-graph root set and the panic-reachability scope.
    pub crate_name: String,
    /// Member of a kernel crate (`gp`, `extract`, `legal`, `eval`,
    /// `netlist`): nondeterministic-iter applies.
    pub kernel: bool,
    /// Member of a library crate (everything except the tool crates and
    /// the clock crate): clippy's `disallowed-methods` owns its clock
    /// reads, so determinism-taint leaves them alone.
    pub library: bool,
    /// Whole file is test code (`tests/` dir): every rule is skipped.
    pub test_code: bool,
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    pub rel_path: String,
    pub line: usize,
    pub col: usize,
    pub message: String,
    /// Extra context lines (e.g. the panic-reachability call chain),
    /// printed as `= note:` lines and embedded in SARIF messages.
    pub notes: Vec<String>,
    /// Set when an allow-marker was found but carried no `-- <reason>`.
    pub marker_missing_reason: bool,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error[{}]: {}\n  --> {}:{}:{}",
            self.rule, self.message, self.rel_path, self.line, self.col
        )?;
        for note in &self.notes {
            writeln!(f, "   = note: {note}")?;
        }
        if self.marker_missing_reason {
            writeln!(
                f,
                "   = note: an allow-marker is present but has no `-- <reason>`; \
                 a reason is required to suppress"
            )?;
        }
        write!(f, "   = help: {}", self.rule.help())
    }
}

/// Methods whose call on a hash container iterates it in hash order.
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "intersection",
    "union",
    "difference",
];

/// Tokens that make a flagged iteration order-insensitive when they occur
/// later in the same statement: the stream is sorted, re-collected into an
/// ordered container, or reduced by an order-independent terminal.
pub(crate) const ORDER_INSENSITIVE: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "count",
    "is_empty",
    "all",
    "any",
    "min",
    "max",
];

/// Entropy sources determinism-taint flags inside the result cone.
/// Seeded generators (`seed_from_u64`, `from_seed`) are fine and not
/// listed.
pub(crate) const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "try_from_os_rng",
];

/// Lints one file's source text under `ctx` with the per-file rules
/// (the workspace-level call-graph rules need [`crate::lint_sources`]).
pub fn lint_source(source: &str, ctx: &FileCtx) -> Vec<Diagnostic> {
    let file = clean(source);
    let toks = tokenize(&file.code);
    lint_tokens(&toks, &file, ctx)
}

/// Per-file rules over an already-prepared source file.
pub(crate) fn lint_prepared(sf: &crate::callgraph::SourceFile) -> Vec<Diagnostic> {
    lint_tokens(&sf.toks, &sf.file, &sf.ctx)
}

fn lint_tokens(toks: &[Tok], file: &CleanFile, ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.kernel && !ctx.test_code {
        rule_nondeterministic_iter(toks, file, ctx, &test_mod_lines(toks), &mut out);
    }
    out.sort_by_key(|d| (d.line, d.col, d.rule));
    out
}

// ---------------------------------------------------------------------
// shared machinery

/// Line ranges covered by `#[cfg(test)] mod … { … }` blocks.
pub(crate) fn test_mod_lines(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // Match `# [ cfg ( test ) ]`.
        if toks[i].text == "#"
            && (matches_seq(toks, i + 1, &["[", "cfg", "(", "test", ")", "]"])
                || matches_seq(toks, i + 1, &["[", "cfg", "(", "all", "(", "test"]))
        {
            // Find the next `mod` and its opening brace.
            let mut j = i + 7;
            while j < toks.len() && toks[j].text != "mod" {
                j += 1;
            }
            let mut k = j;
            while k < toks.len() && toks[k].text != "{" {
                k += 1;
            }
            if k < toks.len() {
                let end = matching_brace(toks, k);
                ranges.push((toks[i].line, toks[end.min(toks.len() - 1)].line));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

pub(crate) fn in_ranges(line: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

pub(crate) fn matches_seq(toks: &[Tok], start: usize, seq: &[&str]) -> bool {
    seq.iter()
        .enumerate()
        .all(|(k, s)| toks.get(start + k).map(|t| t.text.as_str()) == Some(*s))
}

/// Index of the `}` matching the `{` at `open` (or last token).
pub(crate) fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len() - 1
}

/// Index of the `(`/`[` matching the `)`/`]` at `close` (backward scan).
pub(crate) fn matching_open(toks: &[Tok], close: usize) -> usize {
    let (open_s, close_s) = match toks[close].text.as_str() {
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        _ => return close,
    };
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        let s = toks[k].text.as_str();
        if s == close_s {
            depth += 1;
        } else if s == open_s {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    0
}

/// Index of the `)` matching the `(` at `open` (or last token).
pub(crate) fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

fn is_open(t: &str) -> bool {
    matches!(t, "(" | "[" | "{")
}
fn is_close(t: &str) -> bool {
    matches!(t, ")" | "]" | "}")
}

/// Scans forward from `start` to the end of the enclosing statement:
/// stops at a `;` at the statement's own nesting depth, or when a closer
/// drops below it (end of an enclosing argument list). Returns the token
/// range `[start, end)`.
pub(crate) fn statement_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(start) {
        let s = t.text.as_str();
        // A block opening at the expression's own depth (for/if/while
        // body) ends the chain; scanning into the body and beyond could
        // falsely credit later statements' adapters to this site.
        if s == "{" && depth == 0 && k > start {
            return k;
        }
        if is_open(s) {
            depth += 1;
        } else if is_close(s) {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        } else if (s == ";" || s == ",") && depth == 0 && k > start {
            return k;
        }
        if k - start > 400 {
            return k; // pathological one-statement file; bail bounded
        }
    }
    toks.len()
}

/// Walks backward from `site` to the start of its statement: the token
/// after the previous `;`, `{`, or `}` (bounded).
pub(crate) fn statement_start(toks: &[Tok], site: usize) -> usize {
    let mut k = site;
    while k > 0 && site - k < 60 {
        let s = toks[k - 1].text.as_str();
        if s == ";" || s == "{" || s == "}" {
            break;
        }
        k -= 1;
    }
    k
}

/// Scans the method chain following token `site` (to the end of the
/// statement), reporting the first token from `wanted` that sits at the
/// chain's own nesting depth — i.e. not inside a closure or argument
/// list. Returns its index.
pub(crate) fn chain_has(toks: &[Tok], site: usize, wanted: &[&str]) -> Option<usize> {
    let end = statement_end(toks, site);
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(end).skip(site) {
        let s = t.text.as_str();
        if is_open(s) {
            depth += 1;
        } else if is_close(s) {
            depth -= 1;
        } else if depth == 0 && wanted.contains(&s) {
            return Some(k);
        }
    }
    None
}

fn nearby_comment_texts(file: &CleanFile, line: usize) -> impl Iterator<Item = &String> {
    let lo = line.saturating_sub(MARKER_WINDOW + 1);
    let hi = line.min(file.comments.len());
    file.comments[lo..hi].iter().flatten()
}

/// Allow-marker state for `rule` near `line`.
enum MarkerState {
    None,
    /// Marker with a nonempty `-- reason`.
    Allowed,
    /// Marker present but reasonless — does not suppress.
    MissingReason,
}

fn marker_state(file: &CleanFile, line: usize, rule: Rule) -> MarkerState {
    let tag = format!("sdp-lint: allow({})", rule.name());
    let mut found = false;
    for c in nearby_comment_texts(file, line) {
        if let Some(pos) = c.find(&tag) {
            found = true;
            let rest = &c[pos + tag.len()..];
            if let Some(dashes) = rest.find("--") {
                if !rest[dashes + 2..].trim().is_empty() {
                    return MarkerState::Allowed;
                }
            }
        }
    }
    if found {
        MarkerState::MissingReason
    } else {
        MarkerState::None
    }
}

/// Builds a diagnostic at `tok` unless a reasoned allow-marker
/// suppresses it. Shared by the per-file rules and the workspace-level
/// call-graph rules.
pub(crate) fn diag_if_unsuppressed(
    file: &CleanFile,
    ctx: &FileCtx,
    rule: Rule,
    tok: &Tok,
    message: String,
    notes: Vec<String>,
) -> Option<Diagnostic> {
    match marker_state(file, tok.line, rule) {
        MarkerState::Allowed => None,
        state => Some(Diagnostic {
            rule,
            rel_path: ctx.rel_path.clone(),
            line: tok.line,
            col: tok.col,
            message,
            notes,
            marker_missing_reason: matches!(state, MarkerState::MissingReason),
        }),
    }
}

/// Names of local variables / parameters / fields whose declared type (or
/// initializer) mentions any of `type_names` in this file.
pub(crate) fn tracked_names(toks: &[Tok], type_names: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    let mut push = |n: &str| {
        if !n.is_empty() && !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    let mentions = |range: &[Tok]| range.iter().any(|t| type_names.contains(&t.text.as_str()));

    let mut i = 0;
    while i < toks.len() {
        match toks[i].text.as_str() {
            // `let [mut] name … ;` whose statement mentions the type.
            "let" => {
                let mut j = i + 1;
                if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
                    j += 1;
                }
                let end = statement_end(toks, i);
                if let Some(name_tok) = toks.get(j) {
                    if is_ident(&name_tok.text) && mentions(&toks[j..end]) {
                        push(&name_tok.text);
                    }
                }
                // Continue just past the name: statements nest (closures
                // hold their own `let`s) and every one must be visited.
                i = j + 1;
            }
            // fn params: `name : …Type…` split on top-level commas.
            "fn" => {
                let mut j = i + 1;
                while j < toks.len() && toks[j].text != "(" && toks[j].text != "{" {
                    j += 1;
                }
                if j >= toks.len() || toks[j].text != "(" {
                    i = j;
                    continue;
                }
                // Walk the parameter list.
                let mut depth = 0i32;
                let mut seg_start = j + 1;
                let mut k = j;
                while k < toks.len() {
                    let s = toks[k].text.as_str();
                    if is_open(s) {
                        depth += 1;
                    } else if is_close(s) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if s == "," && depth == 1 {
                        if let Some(n) = param_name(&toks[seg_start..k], &mentions) {
                            push(&n);
                        }
                        seg_start = k + 1;
                    }
                    k += 1;
                }
                if seg_start < k {
                    if let Some(n) = param_name(&toks[seg_start..k.min(toks.len())], &mentions) {
                        push(&n);
                    }
                }
                i = k + 1;
            }
            // struct fields: `name : …Type…` at depth 1 inside the braces.
            "struct" => {
                let mut j = i + 1;
                while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                    j += 1;
                }
                if j >= toks.len() || toks[j].text != "{" {
                    i = j;
                    continue;
                }
                let end = matching_brace(toks, j);
                let mut depth = 0i32;
                let mut seg_start = j + 1;
                for k in j..=end {
                    let s = toks[k].text.as_str();
                    if is_open(s) {
                        depth += 1;
                    } else if is_close(s) {
                        depth -= 1;
                    } else if s == "," && depth == 1 {
                        if let Some(n) = field_name(&toks[seg_start..k], &mentions) {
                            push(&n);
                        }
                        seg_start = k + 1;
                    }
                }
                if let Some(n) = field_name(&toks[seg_start..end], &mentions) {
                    push(&n);
                }
                i = end + 1;
            }
            _ => i += 1,
        }
    }
    names
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// `[mut] [&] name : Type…` → name, when Type mentions the target.
fn param_name(seg: &[Tok], mentions: &dyn Fn(&[Tok]) -> bool) -> Option<String> {
    let colon = seg.iter().position(|t| t.text == ":")?;
    if !mentions(&seg[colon..]) {
        return None;
    }
    seg[..colon]
        .iter()
        .rev()
        .find(|t| is_ident(&t.text) && t.text != "mut")
        .map(|t| t.text.clone())
}

/// `[pub] [(crate)] name : Type…` → name; attributes already tokenized
/// away from the segment by the comma split.
fn field_name(seg: &[Tok], mentions: &dyn Fn(&[Tok]) -> bool) -> Option<String> {
    let colon = seg.iter().position(|t| t.text == ":")?;
    if !mentions(&seg[colon..]) {
        return None;
    }
    seg[..colon]
        .iter()
        .rev()
        .find(|t| is_ident(&t.text) && !matches!(t.text.as_str(), "pub" | "crate" | "super"))
        .map(|t| t.text.clone())
}

// ---------------------------------------------------------------------
// nondeterministic-iter

/// Hash-iteration sites: `name.keys()`-family calls and `for … in name`
/// loops over names tracked as `HashMap`/`HashSet`, minus sites
/// neutralized by an order-insensitive consumer in the same statement
/// (sorting, BTree re-collection, counting) or a sort at the head of the
/// immediately following statement. Shared by the local kernel rule and
/// the workspace determinism-taint pass.
pub(crate) fn hash_iter_sites(toks: &[Tok]) -> Vec<usize> {
    let names = tracked_names(toks, &["HashMap", "HashSet"]);
    if names.is_empty() {
        return Vec::new();
    }
    let mut sites: Vec<usize> = Vec::new();

    for i in 0..toks.len() {
        let t = &toks[i];
        // `name . method (` where method hash-iterates.
        if names.iter().any(|n| n == &t.text)
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some(".")
            && toks
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && toks.get(i + 3).map(|t| t.text.as_str()) == Some("(")
        {
            sites.push(i);
        }
        // `for pat in [&][mut] name {`.
        if t.text == "in" {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|t| t.text == "&" || t.text == "mut")
            {
                j += 1;
            }
            if toks
                .get(j)
                .is_some_and(|n| names.iter().any(|x| x == &n.text))
                && toks.get(j + 1).map(|t| t.text.as_str()) == Some("{")
            {
                sites.push(j);
            }
        }
    }

    sites.retain(|&i| {
        // Order-insensitive consumers in the same statement (sorting,
        // BTree re-collection, counting) neutralize the site. The part
        // before the site (e.g. a `let x: BTreeMap<…> =` ascription) is
        // searched wholesale; the chain after it only at closure-external
        // depth, so a `.max(…)` *inside* a `map` closure doesn't count.
        let start = statement_start(toks, i);
        let pre_ok = toks[start..i]
            .iter()
            .any(|t| ORDER_INSENSITIVE.contains(&t.text.as_str()));
        if pre_ok || chain_has(toks, i, ORDER_INSENSITIVE).is_some() {
            return false;
        }
        // `let v: Vec<_> = map.keys().collect(); v.sort();` — a sort at
        // the head of the immediately following statement is the classic
        // sorted-adapter idiom and neutralizes the site too.
        let end = statement_end(toks, i);
        !toks[end + 1..(end + 14).min(toks.len())]
            .iter()
            .any(|t| t.text.starts_with("sort"))
    });
    sites
}

fn rule_nondeterministic_iter(
    toks: &[Tok],
    file: &CleanFile,
    ctx: &FileCtx,
    skip: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    for i in hash_iter_sites(toks) {
        let t = &toks[i];
        if in_ranges(t.line, skip) {
            continue;
        }
        out.extend(diag_if_unsuppressed(
            file,
            ctx,
            Rule::NondeterministicIter,
            t,
            format!(
                "iteration over hash-ordered container `{}` in a kernel crate",
                t.text
            ),
            Vec::new(),
        ));
    }
}
