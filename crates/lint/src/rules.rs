//! The four determinism & soundness rules and their token-level checkers.
//!
//! Every rule is named and allowlistable: a site is suppressed by a
//! comment `// sdp-lint: allow(<rule-name>) -- <reason>` on the same line
//! or up to [`MARKER_WINDOW`] lines above it. A marker without a reason
//! does **not** suppress — the reason is the audit trail.

use crate::lexer::{clean, tokenize, CleanFile, Tok};
use std::fmt;

/// How many lines above a site an allow-marker or `SAFETY:` comment is
/// searched for.
const MARKER_WINDOW: usize = 5;

/// The named rules enforced by `sdp-lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over `HashMap`/`HashSet` in a kernel crate: hash
    /// iteration order is randomized per process and silently feeds cell
    /// or net order into extraction/placement.
    NondeterministicIter,
    /// Wall-clock or entropy sources (`Instant::now`, `SystemTime::now`,
    /// `thread_rng`, `OsRng`, …) in a library crate: only `bench` and
    /// `cli` may time or randomize non-reproducibly.
    WallClockInLibrary,
    /// A float reduction (`sum`/`fold`/`reduce`/`product`) chained
    /// directly onto `Executor::map` output instead of going through the
    /// fixed-chunk partial-fold convention in `gp::exec`.
    UnchunkedFloatReduction,
    /// An `unsafe` block/impl/fn without a `SAFETY:` (or `# Safety` doc)
    /// comment in the preceding lines.
    UndocumentedUnsafe,
    /// An `unwrap`/`expect`/`panic!`-family site (or constant-index
    /// slicing) inside a function the cross-crate call graph shows is
    /// reachable from a flow entry point (CLI subcommands, kernel public
    /// APIs). A malformed input must surface as a typed error, not a
    /// backtrace.
    PanicReachability,
    /// Float orderings and conversions that misbehave on NaN or lose
    /// precision silently in kernel crates: `partial_cmp(..).unwrap()`
    /// (panics on NaN — use `total_cmp`), NaN-blind `==`/`!=` against
    /// floats, and float→int `as` casts (saturating, NaN → 0).
    FloatSoundness,
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
    /// as reachable from the Nesterov/CG iteration bodies. Per-iteration
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
    /// `let _ = expr;` over a call, or a statement-form `.ok();`, in a
    /// flow crate: a fallible result vanishes without a trace (the
    /// fsync-path bug class in the serve job store).
    SwallowedError,
}

impl Rule {
    pub const ALL: [Rule; 12] = [
        Rule::NondeterministicIter,
        Rule::WallClockInLibrary,
        Rule::UnchunkedFloatReduction,
        Rule::UndocumentedUnsafe,
        Rule::PanicReachability,
        Rule::FloatSoundness,
        Rule::LockDiscipline,
        Rule::DeterminismTaint,
        Rule::HotLoopAlloc,
        Rule::QuadraticScan,
        Rule::UnboundedGrowth,
        Rule::SwallowedError,
    ];

    /// The kebab-case name used in diagnostics and allow-markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondeterministicIter => "nondeterministic-iter",
            Rule::WallClockInLibrary => "wall-clock-in-library",
            Rule::UnchunkedFloatReduction => "unchunked-float-reduction",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::PanicReachability => "panic-reachability",
            Rule::FloatSoundness => "float-soundness",
            Rule::LockDiscipline => "lock-discipline",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::HotLoopAlloc => "hot-loop-alloc",
            Rule::QuadraticScan => "quadratic-scan",
            Rule::UnboundedGrowth => "unbounded-growth",
            Rule::SwallowedError => "swallowed-error",
        }
    }

    /// One-line fix guidance appended to diagnostics.
    pub fn help(self) -> &'static str {
        match self {
            Rule::NondeterministicIter => {
                "sort the items, switch to BTreeMap/BTreeSet, or add \
                 `// sdp-lint: allow(nondeterministic-iter) -- <reason>`"
            }
            Rule::WallClockInLibrary => {
                "move timing/entropy to the bench or cli crate, take a seed, or add \
                 `// sdp-lint: allow(wall-clock-in-library) -- <reason>`"
            }
            Rule::UnchunkedFloatReduction => {
                "fold per-chunk partials in chunk-index order (see gp::exec), or add \
                 `// sdp-lint: allow(unchunked-float-reduction) -- <reason>`"
            }
            Rule::UndocumentedUnsafe => {
                "precede the `unsafe` site with a `// SAFETY: …` comment stating the invariant"
            }
            Rule::PanicReachability => {
                "return a typed error (see netlist::ParseError), handle the None/Err case, or add \
                 `// sdp-lint: allow(panic-reachability) -- <reason>` stating why the panic is \
                 unreachable"
            }
            Rule::FloatSoundness => {
                "order floats with `f64::total_cmp`, compare with an explicit tolerance, guard \
                 casts, or add `// sdp-lint: allow(float-soundness) -- <reason>`"
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
            Rule::SwallowedError => {
                "propagate with `?`, handle the `Err` (metric + log at minimum), or add \
                 `// sdp-lint: allow(swallowed-error) -- <reason>`"
            }
        }
    }

    /// SARIF `shortDescription` text for the rule metadata block.
    pub fn short_description(self) -> &'static str {
        match self {
            Rule::NondeterministicIter => "Kernel crates must not iterate hash-ordered containers",
            Rule::WallClockInLibrary => {
                "Library crates must not read wall clocks or entropy sources"
            }
            Rule::UnchunkedFloatReduction => {
                "Float reductions over Executor::map output must fold fixed-size chunks in order"
            }
            Rule::UndocumentedUnsafe => "Every unsafe site needs a SAFETY: comment",
            Rule::PanicReachability => {
                "No unwrap/expect/panic! in functions reachable from flow entry points"
            }
            Rule::FloatSoundness => {
                "No panicking partial_cmp orderings, NaN-blind float equality, or unguarded \
                 float-int as casts in kernels"
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
            Rule::SwallowedError => {
                "No silently discarded Results (let _ = call, statement-form .ok()) in flow crates"
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
            Rule::WallClockInLibrary => {
                "A library crate that reads `Instant::now`, `SystemTime::now`, or an \
                 entropy source produces values that differ run-to-run, and those \
                 values have a way of leaking into results or control flow. All \
                 timing goes through the injectable `Clock` in `sdp-progress` (the \
                 one sanctioned wall-clock site); binaries (`cli`, `bench`, `serve`) \
                 may time freely.\n\
                 \n\
                 Fix by threading an `Observer`/`Clock` in, taking an explicit seed, \
                 or moving the timing to a tool crate. Suppress with\n\
                 `// sdp-lint: allow(wall-clock-in-library) -- <reason>`."
            }
            Rule::UnchunkedFloatReduction => {
                "Float addition is not associative, so a reduction whose grouping \
                 depends on thread scheduling gives different bits at different \
                 thread counts. `Executor::map` output must be folded as fixed-size \
                 chunk partials combined in chunk-index order (see `gp::exec`), which \
                 replays one canonical addition sequence at any worker count.\n\
                 \n\
                 Fix by following the chunked-partial convention; a reduction that is \
                 provably order-independent can carry\n\
                 `// sdp-lint: allow(unchunked-float-reduction) -- <reason>`."
            }
            Rule::UndocumentedUnsafe => {
                "Every `unsafe` block, fn, or impl encodes an invariant the compiler \
                 cannot check; the reviewer (and the next editor) need that invariant \
                 written down where the code is. Precede the site with a\n\
                 `// SAFETY: <invariant>` comment (or a `# Safety` doc section).\n\
                 There is no allow marker — the SAFETY comment *is* the marker."
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
            Rule::FloatSoundness => {
                "Three float pitfalls that corrupt kernels silently: \
                 `partial_cmp(..).unwrap()` panics on the first NaN (use \
                 `f64::total_cmp`); `==`/`!=` against floats is NaN-blind; float→int \
                 `as` casts saturate and send NaN to 0 without a trace.\n\
                 \n\
                 Fix with `total_cmp`, tolerance comparisons, or the audited helpers \
                 in `geom::cast`. Exact-sentinel comparisons (a value assigned only \
                 from a literal) can carry\n\
                 `// sdp-lint: allow(float-soundness) -- <reason>`."
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
                 diagnostic prints the entry-point→source call chain. Sites already \
                 owned by a local rule (hash iteration in kernel crates, wall clocks \
                 in library crates) are reported once, by the local rule.\n\
                 \n\
                 Fix by sorting the iteration, injecting the clock through \
                 `sdp-progress`, or keeping the value out of result bodies. A value \
                 that provably never reaches result bytes (e.g. a deadline check \
                 that only decides *whether* a job completes) can carry\n\
                 `// sdp-lint: allow(determinism-taint) -- <reason>`."
            }
            Rule::HotLoopAlloc => {
                "The call graph marks functions invoked from the Nesterov solver's \
                 iteration body (`gp::minimize_nesterov`) as solver-inner. A heap allocation there — `Vec::new`, \
                 `with_capacity`, `collect`, zero-arg `clone`, `format!`, \
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
            Rule::SwallowedError => {
                "`let _ = file.sync_data();` made the serve job store lie about \
                 durability: the fsync failed, the record was gone after a crash, \
                 and nothing was logged. In flow crates (everything except `bench` \
                 and `lint` itself) this rule flags the two discard idioms that \
                 erase a fallible call's outcome: `let _ = <call>;` and a \
                 statement-form `.ok();`. Adapter uses — `.ok()?`, \
                 `.ok().and_then(…)`, `let x = ….ok();` — consume the value and \
                 are not flagged; `#[cfg(test)]` modules are skipped.\n\
                 \n\
                 Fix by propagating with `?`, matching on the `Err`, or — for \
                 best-effort paths — recording a metric and logging once (see \
                 `sdp_serve_store_errors_total`). A discard that is genuinely \
                 inconsequential (a double-shutdown race, a best-effort wake) can \
                 carry\n\
                 `// sdp-lint: allow(swallowed-error) -- <reason>`."
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
    /// `netlist`): nondeterministic-iter and unchunked-float-reduction
    /// apply.
    pub kernel: bool,
    /// Member of a library crate (everything except `bench`, `cli`, and
    /// `lint` itself): wall-clock-in-library applies.
    pub library: bool,
    /// Whole file is test code (`tests/` dir): determinism rules are
    /// skipped, undocumented-unsafe still applies.
    pub test_code: bool,
}

/// One span-based text replacement: on `line`, replace the 1-indexed
/// char columns `[col_start, col_end)` with `replacement`. Edits never
/// span lines — the lexer's cleaned text maps 1:1 onto the original
/// source, so token (line, col) pairs address original bytes exactly.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edit {
    pub line: usize,
    pub col_start: usize,
    pub col_end: usize,
    pub replacement: String,
}

/// A machine-applicable fix: a description plus the edits that realize
/// it. Applying every edit and re-linting must clear the diagnostic
/// (idempotence is enforced by `--fix` tests).
#[derive(Debug, Clone)]
pub struct Fix {
    pub description: String,
    pub edits: Vec<Edit>,
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
    /// A machine-applicable rewrite, applied by `--fix` and embedded in
    /// the SARIF `fixes` property.
    pub fix: Option<Fix>,
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
        if let Some(fix) = &self.fix {
            writeln!(
                f,
                "   = note: machine-applicable fix available (--fix): {}",
                fix.description
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

/// Float-reduction adapters that must not be chained onto `Executor::map`.
const REDUCERS: &[&str] = &["sum", "fold", "reduce", "product"];

/// Entropy / wall-clock tokens forbidden in library crates. Seeded
/// generators (`seed_from_u64`, `from_seed`) are fine and not listed.
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
    let skip = test_mod_lines(toks);
    let mut out = Vec::new();

    if ctx.kernel && !ctx.test_code {
        rule_nondeterministic_iter(toks, file, ctx, &skip, &mut out);
        rule_unchunked_float_reduction(toks, file, ctx, &skip, &mut out);
        rule_float_soundness(toks, file, ctx, &skip, &mut out);
    }
    if ctx.library && !ctx.test_code {
        rule_wall_clock(toks, file, ctx, &skip, &mut out);
    }
    if crate::callgraph::in_graph(ctx) {
        rule_swallowed_error(toks, file, ctx, &skip, &mut out);
    }
    rule_undocumented_unsafe(toks, file, ctx, &mut out);

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

/// Does any comment on `line` or the `MARKER_WINDOW` lines above contain
/// `needle`?
fn comment_nearby(file: &CleanFile, line: usize, needle: &str) -> bool {
    nearby_comment_texts(file, line).any(|c| c.contains(needle))
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
            fix: None,
        }),
    }
}

/// Pushes a diagnostic at `tok` unless a reasoned allow-marker suppresses
/// it.
fn report(
    out: &mut Vec<Diagnostic>,
    file: &CleanFile,
    ctx: &FileCtx,
    rule: Rule,
    tok: &Tok,
    message: String,
) {
    out.extend(diag_if_unsuppressed(
        file,
        ctx,
        rule,
        tok,
        message,
        Vec::new(),
    ));
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
// rule 1: nondeterministic-iter

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
        let mut d = diag_if_unsuppressed(
            file,
            ctx,
            Rule::NondeterministicIter,
            t,
            format!(
                "iteration over hash-ordered container `{}` in a kernel crate",
                t.text
            ),
            Vec::new(),
        );
        if let Some(d) = d.as_mut() {
            d.fix = btree_fix(toks, &t.text);
        }
        out.extend(d);
    }
}

// ---------------------------------------------------------------------
// rule 2: wall-clock-in-library

fn rule_wall_clock(
    toks: &[Tok],
    file: &CleanFile,
    ctx: &FileCtx,
    skip: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if in_ranges(t.line, skip) {
            continue;
        }
        let flagged = match t.text.as_str() {
            "Instant" | "SystemTime" => matches_seq(toks, i + 1, &[":", ":", "now"]),
            "rand" => matches_seq(toks, i + 1, &[":", ":", "random"]),
            s => ENTROPY_IDENTS.contains(&s),
        };
        if flagged {
            report(
                out,
                file,
                ctx,
                Rule::WallClockInLibrary,
                t,
                format!("wall-clock/entropy source `{}` in a library crate", t.text),
            );
        }
    }
}

// ---------------------------------------------------------------------
// rule 3: unchunked-float-reduction

fn rule_unchunked_float_reduction(
    toks: &[Tok],
    file: &CleanFile,
    ctx: &FileCtx,
    skip: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let execs = tracked_names(toks, &["Executor"]);
    if execs.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        if !execs.iter().any(|n| n == &t.text)
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some(".")
            || toks.get(i + 2).map(|t| t.text.as_str()) != Some("map")
            || toks.get(i + 3).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        if in_ranges(t.line, skip) {
            continue;
        }
        // Skip over the map(…) call itself (reductions *inside* the job
        // closure are per-item and fine), then scan the rest of the chain.
        let mut depth = 0i32;
        let mut j = i + 3;
        while j < toks.len() {
            let s = toks[j].text.as_str();
            if is_open(s) {
                depth += 1;
            } else if is_close(s) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        // Depth-0 only, starting just past the map call's closing paren:
        // a reduction inside a later closure (per-item work) is fine; one
        // chained onto the map output is not.
        if let Some(red) = chain_has(toks, j + 1, REDUCERS).map(|k| &toks[k]) {
            report(
                out,
                file,
                ctx,
                Rule::UnchunkedFloatReduction,
                red,
                format!(
                    "`{}` chained onto `{}.map(…)` — reduce fixed-size chunk partials \
                     in index order instead",
                    red.text, t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// rule: float-soundness (kernel crates)

/// Integer types a float `as` cast silently saturates/truncates into.
const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Is the token at `k` the head of a float literal (`12 . 5`)? The
/// tokenizer splits on `.`, so a literal spans three tokens.
fn is_float_literal(toks: &[Tok], k: usize) -> bool {
    toks[k].text.chars().all(|c| c.is_ascii_digit())
        && toks.get(k + 1).map(|t| t.text.as_str()) == Some(".")
        && toks
            .get(k + 2)
            .is_some_and(|t| t.text.chars().all(|c| c.is_ascii_digit()))
        // `xs.0` tuple access / `v2.1` version strings have a non-digit
        // (or nothing) before the integral part.
        && (k == 0 || !toks[k - 1].text.ends_with(|c: char| c.is_alphanumeric() || c == '_'))
}

/// Float evidence inside a token span: `f64`/`f32`, a float literal,
/// rounding methods, or a name tracked as float-typed.
fn has_float_evidence(toks: &[Tok], lo: usize, hi: usize, float_names: &[String]) -> bool {
    (lo..hi.min(toks.len())).any(|k| {
        let s = toks[k].text.as_str();
        s == "f64"
            || s == "f32"
            || ((s == "floor" || s == "ceil" || s == "round" || s == "trunc")
                && k > 0
                && toks[k - 1].text == ".")
            || float_names.iter().any(|n| n == s)
            || is_float_literal(toks, k)
    })
}

/// Kernel-crate float soundness: panicking `partial_cmp(..).unwrap()`
/// orderings, NaN-blind `==`/`!=` against floats, and float→int `as`
/// casts (which saturate and send NaN to 0 silently).
fn rule_float_soundness(
    toks: &[Tok],
    file: &CleanFile,
    ctx: &FileCtx,
    skip: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let float_names = tracked_names(toks, &["f64", "f32"]);
    for k in 0..toks.len() {
        let t = &toks[k];
        if in_ranges(t.line, skip) {
            continue;
        }
        match t.text.as_str() {
            // `a.partial_cmp(&b).unwrap()` / `.expect(…)`: panics the
            // flow on the first NaN; `total_cmp` defines a total order.
            "partial_cmp" if toks.get(k + 1).map(|t| t.text.as_str()) == Some("(") => {
                let close = matching_paren(toks, k + 1);
                if matches!(
                    (
                        toks.get(close + 1).map(|t| t.text.as_str()),
                        toks.get(close + 2).map(|t| t.text.as_str()),
                    ),
                    (Some("."), Some("unwrap") | Some("expect"))
                ) {
                    let mut d = diag_if_unsuppressed(
                        file,
                        ctx,
                        Rule::FloatSoundness,
                        t,
                        "`partial_cmp(..).unwrap()` ordering panics on NaN — use `total_cmp`"
                            .to_string(),
                        Vec::new(),
                    );
                    if let Some(d) = d.as_mut() {
                        d.fix = total_cmp_fix(toks, k, close);
                    }
                    out.extend(d);
                }
            }
            // `x == 0.0` / `0.5 != y` / `tracked == tracked`: NaN makes
            // every such comparison silently false (or true for `!=`).
            "=" if toks.get(k + 1).map(|t| t.text.as_str()) == Some("=")
                && k > 0
                && !matches!(toks[k - 1].text.as_str(), "=" | "!" | "<" | ">" | "+" | "-") =>
            {
                let lhs_float = (k >= 3 && is_float_literal(toks, k - 3))
                    || float_names.iter().any(|n| n == &toks[k - 1].text);
                let rhs_start =
                    k + 2 + usize::from(toks.get(k + 2).map(|t| t.text.as_str()) == Some("-"));
                let rhs_float = toks
                    .get(rhs_start)
                    .is_some_and(|_| is_float_literal(toks, rhs_start))
                    || toks
                        .get(rhs_start)
                        .is_some_and(|t| float_names.iter().any(|n| n == &t.text));
                if lhs_float || rhs_float {
                    report(
                        out,
                        file,
                        ctx,
                        Rule::FloatSoundness,
                        t,
                        "NaN-blind `==` on a float — compare with a tolerance or justify"
                            .to_string(),
                    );
                }
            }
            "!" if toks.get(k + 1).map(|t| t.text.as_str()) == Some("=")
                && toks.get(k + 2).map(|t| t.text.as_str()) != Some("=") =>
            {
                let lhs_float = (k >= 3 && is_float_literal(toks, k - 3))
                    || (k > 0 && float_names.iter().any(|n| n == &toks[k - 1].text));
                let rhs_start =
                    k + 2 + usize::from(toks.get(k + 2).map(|t| t.text.as_str()) == Some("-"));
                let rhs_float = toks
                    .get(rhs_start)
                    .is_some_and(|_| is_float_literal(toks, rhs_start))
                    || toks
                        .get(rhs_start)
                        .is_some_and(|t| float_names.iter().any(|n| n == &t.text));
                if lhs_float || rhs_float {
                    report(
                        out,
                        file,
                        ctx,
                        Rule::FloatSoundness,
                        t,
                        "NaN-blind `!=` on a float — compare with a tolerance or justify"
                            .to_string(),
                    );
                }
            }
            // `expr as usize` where the cast operand shows float evidence:
            // the cast saturates and maps NaN to 0 without a trace.
            "as" if toks
                .get(k + 1)
                .is_some_and(|t| INT_TYPES.contains(&t.text.as_str())) =>
            {
                let start = cast_operand_start(toks, k);
                if has_float_evidence(toks, start, k, &float_names) {
                    report(
                        out,
                        file,
                        ctx,
                        Rule::FloatSoundness,
                        t,
                        format!(
                            "float→`{}` `as` cast saturates and sends NaN to 0 silently",
                            toks[k + 1].text
                        ),
                    );
                }
            }
            _ => {}
        }
    }
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

/// Start of the postfix expression `X` in `X as T`: walks backwards over
/// idents, numbers, field/method chains, call parens, and index brackets.
/// Keeping the float-evidence check to this span (instead of the whole
/// statement) is what lets `root as usize` next to f64 arithmetic pass.
fn cast_operand_start(toks: &[Tok], cast: usize) -> usize {
    let atom = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_');
    let mut k = cast;
    loop {
        if k == 0 {
            return 0;
        }
        match toks[k - 1].text.as_str() {
            ")" | "]" => {
                k = matching_open(toks, k - 1);
                // `name(...)` call or `name[...]` index: the callee/base
                // belongs to the operand too.
                if k > 0 && atom(&toks[k - 1].text) {
                    k -= 1;
                }
            }
            s if atom(s) => k -= 1,
            _ => return k,
        }
        if k > 0 && toks[k - 1].text == "." {
            k -= 1;
            continue;
        }
        return k;
    }
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

// ---------------------------------------------------------------------
// fix builders (shared by per-file rules and the taint pass)

/// Token indices of `HashMap`/`HashSet` occurrences inside the
/// declarations (let statements, fn params, struct fields) that make
/// `name` hash-tracked — the spans the `--fix` engine rewrites to
/// `BTreeMap`/`BTreeSet`.
pub(crate) fn hash_decl_sites(toks: &[Tok], name: &str) -> Vec<usize> {
    let mut sites: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "let" => {
                let mut j = i + 1;
                if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
                    j += 1;
                }
                let end = statement_end(toks, i);
                if toks.get(j).is_some_and(|t| t.text == name) {
                    for (k, t) in toks.iter().enumerate().take(end.min(toks.len())).skip(j) {
                        if matches!(t.text.as_str(), "HashMap" | "HashSet") {
                            sites.push(k);
                        }
                    }
                }
                i = j + 1;
            }
            "fn" | "struct" => {
                let head = toks[i].text == "fn";
                let (open_s, close_s) = if head { ("(", ")") } else { ("{", "}") };
                let stop = if head { "{" } else { ";" };
                let mut j = i + 1;
                while j < toks.len() && toks[j].text != open_s && toks[j].text != stop {
                    j += 1;
                }
                if j >= toks.len() || toks[j].text != open_s {
                    i = j.max(i + 1);
                    continue;
                }
                let mut depth = 0i32;
                let mut seg_start = j + 1;
                let mut k = j;
                while k < toks.len() {
                    let s = toks[k].text.as_str();
                    if is_open(s) {
                        depth += 1;
                    } else if is_close(s) {
                        depth -= 1;
                        if depth == 0 && s == close_s {
                            break;
                        }
                    } else if s == "," && depth == 1 {
                        seg_hash_sites(toks, seg_start, k, name, &mut sites);
                        seg_start = k + 1;
                    }
                    k += 1;
                }
                seg_hash_sites(toks, seg_start, k.min(toks.len()), name, &mut sites);
                i = k + 1;
            }
            _ => i += 1,
        }
    }
    sites.sort_unstable();
    sites.dedup();
    sites
}

/// Collects `HashMap`/`HashSet` token indices from one `name : Type…`
/// param/field segment when the declared name matches `name`.
fn seg_hash_sites(
    toks: &[Tok],
    seg_start: usize,
    seg_end: usize,
    name: &str,
    sites: &mut Vec<usize>,
) {
    if seg_start >= seg_end {
        return;
    }
    let seg = &toks[seg_start..seg_end];
    let Some(colon) = seg.iter().position(|t| t.text == ":") else {
        return;
    };
    let always = |_: &[Tok]| true;
    let declared = param_name(seg, &always);
    if declared.as_deref() != Some(name) {
        return;
    }
    for (k, t) in toks
        .iter()
        .enumerate()
        .take(seg_end)
        .skip(seg_start + colon)
    {
        if matches!(t.text.as_str(), "HashMap" | "HashSet") {
            sites.push(k);
        }
    }
}

/// The `--fix` rewrite for a hash-iteration finding on `name`: replace
/// the `HashMap`/`HashSet` tokens in `name`'s declarations with their
/// ordered equivalents. `None` when no declaration is in this file.
pub(crate) fn btree_fix(toks: &[Tok], name: &str) -> Option<Fix> {
    let sites = hash_decl_sites(toks, name);
    if sites.is_empty() {
        return None;
    }
    let edits = sites
        .iter()
        .map(|&k| {
            let t = &toks[k];
            let ordered = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            Edit {
                line: t.line,
                col_start: t.col,
                col_end: t.col + t.text.chars().count(),
                replacement: ordered.to_string(),
            }
        })
        .collect();
    Some(Fix {
        description: format!("declare `{name}` as ordered `BTreeMap`/`BTreeSet`"),
        edits,
    })
}

/// The `--fix` rewrite for `partial_cmp(..).unwrap()`: rename to
/// `total_cmp` and delete the `.unwrap()`/`.expect(…)` tail. `pc` is the
/// `partial_cmp` token, `close` its argument list's `)`. `None` when the
/// tail spans lines (edits are single-line by construction).
fn total_cmp_fix(toks: &[Tok], pc: usize, close: usize) -> Option<Fix> {
    let open = close + 3;
    if toks.get(open).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let uclose = matching_paren(toks, open);
    let dot = toks.get(close + 1)?;
    let endtok = toks.get(uclose)?;
    if dot.line != endtok.line {
        return None;
    }
    let pc_tok = &toks[pc];
    Some(Fix {
        description: "replace `partial_cmp(..).unwrap()` with the total order `total_cmp(..)`"
            .to_string(),
        edits: vec![
            Edit {
                line: pc_tok.line,
                col_start: pc_tok.col,
                col_end: pc_tok.col + "partial_cmp".chars().count(),
                replacement: "total_cmp".to_string(),
            },
            Edit {
                line: dot.line,
                col_start: dot.col,
                col_end: endtok.col + 1,
                replacement: String::new(),
            },
        ],
    })
}

// ---------------------------------------------------------------------
// rule: swallowed-error (flow crates)

/// Is token `j` the head of a call — an ident followed by `(`, or a
/// macro ident followed by `!(`?
fn is_call_head(toks: &[Tok], j: usize) -> bool {
    if !is_ident(&toks[j].text) {
        return false;
    }
    match toks.get(j + 1).map(|t| t.text.as_str()) {
        Some("(") => true,
        Some("!") => toks.get(j + 2).map(|t| t.text.as_str()) == Some("("),
        _ => false,
    }
}

/// `=` that is a plain assignment — not `==`, `!=`, `<=`, `>=`, `=>`, or
/// a compound-assign tail.
fn is_plain_assign(toks: &[Tok], k: usize) -> bool {
    toks[k].text == "="
        && !matches!(
            toks.get(k + 1).map(|t| t.text.as_str()),
            Some("=") | Some(">")
        )
        && (k == 0
            || !matches!(
                toks[k - 1].text.as_str(),
                "=" | "!" | "<" | ">" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
            ))
}

/// Flags the two discard idioms that erase a fallible call's outcome in
/// flow crates: `let _ = <call>;` and a statement-form `.ok();`.
/// Adapter uses (`.ok()?`, `.ok().and_then(…)`, `let x = ….ok();`) keep
/// the value and pass; `#[cfg(test)]` modules are skipped.
fn rule_swallowed_error(
    toks: &[Tok],
    file: &CleanFile,
    ctx: &FileCtx,
    skip: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    for k in 0..toks.len() {
        let t = &toks[k];
        if in_ranges(t.line, skip) {
            continue;
        }
        // `let _ = expr;` where the expr performs a call.
        if t.text == "let"
            && toks.get(k + 1).map(|t| t.text.as_str()) == Some("_")
            && toks.get(k + 2).map(|t| t.text.as_str()) == Some("=")
        {
            let end = statement_end(toks, k + 3);
            if (k + 3..end.min(toks.len())).any(|j| is_call_head(toks, j)) {
                report(
                    out,
                    file,
                    ctx,
                    Rule::SwallowedError,
                    t,
                    "`let _ =` discards a fallible call's result without a trace".to_string(),
                );
            }
        }
        // Statement-form `.ok();`.
        if t.text == "ok"
            && k > 0
            && toks[k - 1].text == "."
            && matches_seq(toks, k + 1, &["(", ")", ";"])
        {
            let start = statement_start(toks, k);
            let consumed = matches!(toks[start].text.as_str(), "let" | "return")
                || (start..k).any(|j| is_plain_assign(toks, j));
            if !consumed {
                report(
                    out,
                    file,
                    ctx,
                    Rule::SwallowedError,
                    t,
                    "statement-form `.ok();` silently discards a `Result`".to_string(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// rule 4: undocumented-unsafe

fn rule_undocumented_unsafe(
    toks: &[Tok],
    file: &CleanFile,
    ctx: &FileCtx,
    out: &mut Vec<Diagnostic>,
) {
    for t in toks {
        if t.text != "unsafe" {
            continue;
        }
        if comment_nearby(file, t.line, "SAFETY:") || comment_nearby(file, t.line, "# Safety") {
            continue;
        }
        report(
            out,
            file,
            ctx,
            Rule::UndocumentedUnsafe,
            t,
            "`unsafe` without a preceding `SAFETY:` comment".to_string(),
        );
    }
}
