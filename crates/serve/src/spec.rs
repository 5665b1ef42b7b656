//! Job-spec parsing: the `POST /jobs` body → a validated, runnable job.
//!
//! A spec names its design either as a generator preset
//! (`{"design": {"preset": "dp_small", "seed": 7}}`) or as an inline
//! Bookshelf bundle (`{"design": {"bookshelf": {"nodes": …, "nets": …,
//! "pl": …, "scl": …}}}`), plus optional flow overrides and a deadline.
//! Parsing is strict — unknown keys are rejected — and *complete*: a
//! spec that parses is guaranteed to run (the Bookshelf payload is fully
//! parsed here, so a syntax error in it becomes a synchronous 400 with
//! the netlist reader's own [`sdp_netlist::ParseError`] rendering, never
//! an asynchronous job failure).

use sdp_core::{FlowConfig, LegalizerKind, MAX_DP_NET_WEIGHT, MAX_THREADS};
use sdp_dpgen::GenConfig;
use sdp_json::Json;
use sdp_netlist::BookshelfCase;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a spec was rejected (always a client error → 400).
#[derive(Debug)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// Where the job's design comes from.
#[derive(Debug)]
pub enum CaseSource {
    /// Generate with `sdp-dpgen` in the worker (cheap to queue).
    Generated(GenConfig),
    /// An already-parsed inline Bookshelf bundle.
    Loaded {
        /// The parsed netlist/design/placement bundle.
        case: Box<BookshelfCase>,
        /// FNV-1a 64 over the canonical JSON of the raw member text,
        /// taken at parse time (the text is dropped after parsing).
        /// Feeds [`crate::canon::spec_hash`]'s design component.
        digest: u64,
    },
}

/// A validated job, ready for the worker pool.
#[derive(Debug)]
pub struct JobSpec {
    /// Display label (preset name or `"bookshelf"`).
    pub label: String,
    /// The design to place.
    pub source: CaseSource,
    /// Full flow configuration after overrides.
    pub flow: FlowConfig,
    /// Wall-clock budget; the job is cancelled when it runs longer.
    pub deadline_ms: Option<u64>,
    /// Test hook: the worker panics instead of placing, exercising the
    /// per-job `catch_unwind` crash isolation.
    pub chaos_panic: bool,
}

/// Largest accepted `deadline_ms`: one year. Anything longer is
/// indistinguishable from "no deadline" for a placement job, and the cap
/// keeps `Instant + Duration` arithmetic far from its representable
/// edge on every platform (the engine still uses `checked_add` as
/// defense in depth).
pub const MAX_DEADLINE_MS: u64 = 366 * 24 * 60 * 60 * 1000;

/// Parses and validates a `POST /jobs` body.
pub fn parse_spec(body: &str) -> Result<JobSpec, SpecError> {
    let v = sdp_json::parse(body).map_err(|e| SpecError(format!("invalid JSON: {e}")))?;
    let obj = v
        .as_obj()
        .ok_or_else(|| SpecError("spec must be a JSON object".into()))?;
    reject_unknown(obj, &["design", "flow", "deadline_ms", "chaos"], "spec")?;

    let design = v
        .get("design")
        .ok_or_else(|| SpecError("spec needs a `design`".into()))?;
    let (label, source) = parse_design(design)?;

    let flow = parse_flow(v.get("flow"))?;

    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => Some(
            d.as_u64()
                .filter(|&ms| ms > 0 && ms <= MAX_DEADLINE_MS)
                .ok_or_else(|| {
                    SpecError(format!(
                        "`deadline_ms` must be an integer in 1..={MAX_DEADLINE_MS}"
                    ))
                })?,
        ),
    };

    let chaos_panic = match v.get("chaos") {
        None => false,
        Some(c) if c.as_str() == Some("panic") => true,
        Some(c) => return Err(SpecError(format!("unknown `chaos` mode {c}"))),
    };

    Ok(JobSpec {
        label,
        source,
        flow,
        deadline_ms,
        chaos_panic,
    })
}

fn reject_unknown(
    obj: &BTreeMap<String, Json>,
    known: &[&str],
    what: &str,
) -> Result<(), SpecError> {
    for k in obj.keys() {
        // sdp-lint: allow(quadratic-scan) -- `known` is the fixed list of
        // legal spec keys for one object (at most eight entries), not a
        // netlist-sized collection; the scan is O(8) per key.
        if !known.contains(&k.as_str()) {
            return Err(SpecError(format!("unknown {what} key `{k}`")));
        }
    }
    Ok(())
}

fn parse_design(design: &Json) -> Result<(String, CaseSource), SpecError> {
    let obj = design
        .as_obj()
        .ok_or_else(|| SpecError("`design` must be an object".into()))?;
    reject_unknown(obj, &["preset", "seed", "bookshelf"], "design")?;
    match (design.get("preset"), design.get("bookshelf")) {
        (Some(_), Some(_)) => Err(SpecError(
            "`design` takes either `preset` or `bookshelf`, not both".into(),
        )),
        (Some(p), None) => {
            let name = p
                .as_str()
                .ok_or_else(|| SpecError("`preset` must be a string".into()))?;
            let seed = match design.get("seed") {
                None => 1,
                Some(s) => s
                    .as_u64()
                    .ok_or_else(|| SpecError("`seed` must be a non-negative integer".into()))?,
            };
            let cfg = GenConfig::named(name, seed)
                .ok_or_else(|| SpecError(format!("unknown preset `{name}`")))?;
            Ok((name.to_string(), CaseSource::Generated(cfg)))
        }
        (None, Some(bs)) => {
            if design.get("seed").is_some() {
                return Err(SpecError("`seed` only applies to `preset` designs".into()));
            }
            // Content-address the raw member text (canonically
            // re-serialized, so whitespace in the *envelope* JSON does
            // not matter but every byte of the payload members does)
            // while it still exists — the parsed case drops it.
            let digest = sdp_json::fnv1a_64(bs.to_string().as_bytes());
            let case = load_bookshelf(bs)?;
            Ok((
                "bookshelf".to_string(),
                CaseSource::Loaded {
                    case: Box::new(case),
                    digest,
                },
            ))
        }
        (None, None) => Err(SpecError(
            "`design` needs a `preset` or a `bookshelf` payload".into(),
        )),
    }
}

/// Monotonic scratch-directory discriminator (no wall clock: directory
/// names must not depend on time for the lint's sake and for debuggable
/// collisions — pid + counter is unique per process lifetime).
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes the inline Bookshelf payload to a scratch directory, parses it
/// with the real reader (same code path as the CLI), and cleans up.
fn load_bookshelf(bs: &Json) -> Result<BookshelfCase, SpecError> {
    let obj = bs
        .as_obj()
        .ok_or_else(|| SpecError("`bookshelf` must be an object".into()))?;
    reject_unknown(obj, &["nodes", "nets", "pl", "scl", "wts"], "bookshelf")?;
    for required in ["nodes", "nets", "pl", "scl"] {
        if bs.get(required).and_then(Json::as_str).is_none() {
            return Err(SpecError(format!(
                "`bookshelf` needs a string `{required}` member"
            )));
        }
    }

    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sdp-serve-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| SpecError(format!("scratch dir {}: {e}", dir.display())))?;
    let result = write_and_read(&dir, bs);
    #[allow(
        clippy::let_underscore_must_use,
        reason = "best-effort scratch cleanup; a leaked temp dir must not turn a successfully \
                  parsed case into an error, and the parse result itself is what matters"
    )]
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn write_and_read(dir: &std::path::Path, bs: &Json) -> Result<BookshelfCase, SpecError> {
    let mut aux = String::from("RowBasedPlacement : case.nodes case.nets");
    if bs.get("wts").is_some() {
        aux.push_str(" case.wts");
    }
    aux.push_str(" case.pl case.scl\n");
    let mut files = vec![("case.aux".to_string(), aux.as_str())];
    for member in ["nodes", "nets", "pl", "scl", "wts"] {
        if let Some(text) = bs.get(member).and_then(Json::as_str) {
            files.push((format!("case.{member}"), text));
        }
    }
    for (name, text) in files {
        std::fs::write(dir.join(&name), text)
            .map_err(|e| SpecError(format!("writing {name}: {e}")))?;
    }
    sdp_netlist::read_bookshelf(dir.join("case.aux"))
        .map_err(|e| SpecError(format!("bookshelf payload: {e}")))
}

fn parse_flow(flow: Option<&Json>) -> Result<FlowConfig, SpecError> {
    let Some(flow) = flow else {
        return Ok(FlowConfig::fast());
    };
    let obj = flow
        .as_obj()
        .ok_or_else(|| SpecError("`flow` must be an object".into()))?;
    reject_unknown(
        obj,
        &[
            "fast",
            "baseline",
            "rigid",
            "abacus",
            "seed",
            "threads",
            "detailed_passes",
            "refine_outers",
            "dp_net_weight",
            "mode",
        ],
        "flow",
    )?;

    let get_bool = |key: &str| -> Result<Option<bool>, SpecError> {
        match flow.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_bool()
                .map(Some)
                .ok_or_else(|| SpecError(format!("`{key}` must be a boolean"))),
        }
    };
    let get_u64 = |key: &str| -> Result<Option<u64>, SpecError> {
        match flow.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| SpecError(format!("`{key}` must be a non-negative integer"))),
        }
    };

    let mut cfg = if get_bool("fast")?.unwrap_or(true) {
        FlowConfig::fast()
    } else {
        FlowConfig::default()
    };
    if get_bool("baseline")?.unwrap_or(false) {
        cfg = cfg.baseline();
    }
    if get_bool("rigid")?.unwrap_or(false) {
        cfg = cfg.rigid();
    }
    if get_bool("abacus")?.unwrap_or(false) {
        cfg.legalizer = LegalizerKind::Abacus;
    }
    if let Some(seed) = get_u64("seed")? {
        cfg.gp.seed = seed;
    }
    if let Some(threads) = get_u64("threads")? {
        // Each GP run spawns its kernel threads up front, so the count is
        // capped here rather than left to fail at spawn time.
        cfg.gp.threads = usize::try_from(threads)
            .ok()
            .filter(|&t| t <= MAX_THREADS)
            .ok_or_else(|| {
                SpecError(format!(
                    "`threads` must be in 0..={MAX_THREADS} (0 = all cores)"
                ))
            })?;
    }
    if let Some(passes) = get_u64("detailed_passes")? {
        cfg.detailed_passes = passes as usize;
    }
    if let Some(outers) = get_u64("refine_outers")? {
        cfg.refine_outers = outers as usize;
    }
    if let Some(m) = flow.get("mode") {
        let name = m
            .as_str()
            .ok_or_else(|| SpecError("`mode` must be a string".into()))?;
        cfg.mode = match name {
            "hpwl" => sdp_core::FlowMode::Hpwl,
            "route" => sdp_core::FlowMode::Route,
            other => {
                return Err(SpecError(format!(
                    "unknown `mode` `{other}` (hpwl | route)"
                )))
            }
        };
    }
    if let Some(w) = flow.get("dp_net_weight") {
        cfg.dp_net_weight = w
            .as_f64()
            .filter(|w| (1.0..=MAX_DP_NET_WEIGHT).contains(w))
            .ok_or_else(|| {
                SpecError(format!(
                    "`dp_net_weight` must be a number in 1..={MAX_DP_NET_WEIGHT}"
                ))
            })?;
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_spec_parses() {
        let s = parse_spec(r#"{"design": {"preset": "dp_tiny", "seed": 7}}"#).unwrap();
        assert_eq!(s.label, "dp_tiny");
        assert!(matches!(s.source, CaseSource::Generated(_)));
        assert!(s.deadline_ms.is_none());
        assert!(!s.chaos_panic);
    }

    #[test]
    fn flow_overrides_apply() {
        let s = parse_spec(
            r#"{"design": {"preset": "dp_tiny"},
                "flow": {"baseline": true, "seed": 9, "threads": 2, "detailed_passes": 0},
                "deadline_ms": 5000}"#,
        )
        .unwrap();
        assert!(!s.flow.structure_aware);
        assert_eq!(s.flow.gp.seed, 9);
        assert_eq!(s.flow.gp.threads, 2);
        assert_eq!(s.flow.detailed_passes, 0);
        assert_eq!(s.deadline_ms, Some(5000));
    }

    #[test]
    fn mode_parses_and_rejects_unknown() {
        let s = parse_spec(r#"{"design": {"preset": "dp_tiny"}}"#).unwrap();
        assert_eq!(s.flow.mode, sdp_core::FlowMode::Hpwl);
        let s =
            parse_spec(r#"{"design": {"preset": "dp_tiny"}, "flow": {"mode": "route"}}"#).unwrap();
        assert_eq!(s.flow.mode, sdp_core::FlowMode::Route);
        let s =
            parse_spec(r#"{"design": {"preset": "dp_tiny"}, "flow": {"mode": "hpwl"}}"#).unwrap();
        assert_eq!(s.flow.mode, sdp_core::FlowMode::Hpwl);
        for bad in [
            r#"{"design": {"preset": "dp_tiny"}, "flow": {"mode": "steiner"}}"#,
            r#"{"design": {"preset": "dp_tiny"}, "flow": {"mode": 1}}"#,
        ] {
            assert!(parse_spec(bad).is_err(), "must reject {bad}");
        }
    }

    #[test]
    fn thread_counts_above_the_cap_are_rejected() {
        let spec = |threads: u64| {
            parse_spec(&format!(
                r#"{{"design": {{"preset": "dp_tiny"}}, "flow": {{"threads": {threads}}}}}"#
            ))
        };
        assert_eq!(
            spec(MAX_THREADS as u64).unwrap().flow.gp.threads,
            MAX_THREADS
        );
        for threads in [MAX_THREADS as u64 + 1, 1_000_000, 1 << 40] {
            let err = spec(threads).unwrap_err();
            assert!(
                err.0.contains(&format!("0..={MAX_THREADS}")),
                "{threads}: error names the range: {}",
                err.0
            );
        }
    }

    #[test]
    fn dp_net_weight_is_bounded() {
        let spec = |w: &str| {
            parse_spec(&format!(
                r#"{{"design": {{"preset": "dp_tiny"}}, "flow": {{"dp_net_weight": {w}}}}}"#
            ))
        };
        assert_eq!(spec("1000").unwrap().flow.dp_net_weight, MAX_DP_NET_WEIGHT);
        for w in ["0.5", "1000.5", "1e308"] {
            let err = spec(w).unwrap_err();
            assert!(err.0.contains("1..=1000"), "{w}: {}", err.0);
        }
    }

    #[test]
    fn strictness_rejects_bad_specs() {
        for bad in [
            "not json",
            "[]",
            "{}",
            r#"{"design": {}}"#,
            r#"{"design": {"preset": "nope"}}"#,
            r#"{"design": {"preset": "dp_tiny"}, "unknown": 1}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": -1}}"#,
            r#"{"design": {"preset": "dp_tiny"}, "flow": {"warp": true}}"#,
            r#"{"design": {"preset": "dp_tiny"}, "flow": {"solver": "nesterov"}}"#,
            r#"{"design": {"preset": "dp_tiny"}, "flow": {"routability_rounds": 2}}"#,
            r#"{"design": {"preset": "dp_tiny"}, "deadline_ms": 0}"#,
            r#"{"design": {"preset": "dp_tiny"}, "deadline_ms": 31622400001}"#,
            r#"{"design": {"preset": "dp_tiny"}, "deadline_ms": 18446744073709551615}"#,
            r#"{"design": {"preset": "dp_tiny"}, "chaos": "fire"}"#,
            r#"{"design": {"bookshelf": {"nodes": "x"}}}"#,
        ] {
            assert!(parse_spec(bad).is_err(), "must reject {bad}");
        }
    }

    #[test]
    fn bookshelf_payload_round_trips_through_the_real_reader() {
        // Generate a tiny case, serialize it, and feed it back inline.
        let d = sdp_dpgen::generate(&GenConfig::named("dp_tiny", 3).unwrap());
        let dir = std::env::temp_dir().join(format!("sdp-serve-spec-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        sdp_netlist::write_bookshelf(&dir, "t", &d.netlist, &d.design, &d.placement).unwrap();
        let member = |ext: &str| std::fs::read_to_string(dir.join(format!("t.{ext}"))).unwrap();
        let body = Json::obj([(
            "design",
            Json::obj([(
                "bookshelf",
                Json::obj([
                    ("nodes", Json::str(member("nodes"))),
                    ("nets", Json::str(member("nets"))),
                    ("pl", Json::str(member("pl"))),
                    ("scl", Json::str(member("scl"))),
                ]),
            )]),
        )])
        .to_string();
        std::fs::remove_dir_all(&dir).unwrap();
        let s = parse_spec(&body).unwrap();
        let CaseSource::Loaded { case, digest } = s.source else {
            panic!("expected a loaded case");
        };
        assert_eq!(case.netlist.num_cells(), d.netlist.num_cells());
        assert_ne!(digest, 0, "raw payload digest recorded at parse time");
        // A corrupt member surfaces the netlist reader's ParseError text.
        let bad = body.replace("NumNodes", "NumNoodles");
        let e = parse_spec(&bad).unwrap_err();
        assert!(e.0.contains("bookshelf payload"), "{e}");
    }
}
