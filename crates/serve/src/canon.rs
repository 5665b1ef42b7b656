//! Canonical job-spec form and content-address hashing.
//!
//! The engine's determinism invariant — a result body is a pure
//! function of (design, seed, resolved flow config), bitwise identical
//! at any worker or thread count — makes results *content-addressable*:
//! two specs with the same canonical form may share one cached body.
//! This module defines that canonical form and hashes it with
//! [`sdp_json::fnv1a_64`] over the deterministic `sdp-json`
//! serialization (object keys sorted, one spelling per value), so the
//! hash is stable across processes, machines, and restarts.
//!
//! What is *in* the canonical form: the design source (resolved
//! generator config, or a digest of the raw inline Bookshelf text), the
//! full resolved [`FlowConfig`], the chaos hook (a chaos job must never
//! alias a real one), and [`RESULT_REVISION`] (a body computed by older
//! code must never alias today's). What is deliberately *out*:
//!
//! - `label` — display only, never affects result bytes;
//! - `deadline_ms` — decides *whether* a job completes, never what
//!   bytes it produces when it does;
//! - `gp.threads` — kernel reductions are fixed-chunk folded, so
//!   results are bitwise identical at every thread count (pinned by
//!   cross-crate tests); hashing it would needlessly split the cache.
//!
//! Every struct is exhaustively destructured: adding a field to any
//! config type breaks this module's build until the author decides
//! whether the field is result-affecting.

use crate::spec::{CaseSource, JobSpec};
use sdp_core::{AlignConfig, ExtractConfig, FlowConfig, GpConfig, LegalizerKind, WirelengthModel};
use sdp_dpgen::GenConfig;
use sdp_json::Json;

/// The revision of the code that turns a spec into result bytes.
///
/// Bump it in any change that alters the result bytes of some spec. A
/// server restarted on an older `--state-dir` replays bodies logged under
/// the old hashes; with the revision in the hash they can no longer be
/// served as cache hits for today's specs. Canonical forms without a
/// `revision` member count as revision 0. Revision 1: the maze router
/// became A*, which moves route-mode bodies.
pub const RESULT_REVISION: u64 = 1;

/// The content-address of a spec: FNV-1a 64 over the canonical JSON.
pub fn spec_hash(spec: &JobSpec) -> u64 {
    sdp_json::fnv1a_64(canonical_spec(spec).to_string().as_bytes())
}

/// The canonical JSON form of a spec (see the module docs for what is
/// included and what is deliberately left out).
pub fn canonical_spec(spec: &JobSpec) -> Json {
    let JobSpec {
        label: _,
        source,
        flow,
        deadline_ms: _,
        chaos_panic,
    } = spec;
    Json::obj([
        ("chaos", Json::Bool(*chaos_panic)),
        ("design", canonical_source(source)),
        ("flow", canonical_flow(flow)),
        ("revision", Json::num(RESULT_REVISION as f64)),
    ])
}

fn canonical_source(source: &CaseSource) -> Json {
    match source {
        CaseSource::Generated(cfg) => {
            let GenConfig {
                name,
                seed,
                blocks,
                glue_gates,
                utilization,
                macros,
            } = cfg;
            // `BlockSpec`'s Display form encodes the variant and every
            // parameter (`csel64b8`, `pipe16x4`, …) — a unique compact
            // spelling per block.
            let blocks: Vec<Json> = blocks.iter().map(|b| Json::str(b.to_string())).collect();
            Json::obj([
                ("blocks", Json::Arr(blocks)),
                ("glue_gates", Json::num(*glue_gates as f64)),
                ("macros", Json::num(*macros as f64)),
                ("name", Json::str(name.clone())),
                ("seed", Json::num(*seed as f64)),
                ("utilization", Json::num(*utilization)),
            ])
        }
        // Inline Bookshelf: the digest was taken over the raw member
        // text at parse time (see `spec::parse_design`), before the
        // text was turned into a netlist and dropped.
        CaseSource::Loaded { digest, .. } => {
            Json::obj([("bookshelf_fnv64", Json::str(format!("{digest:016x}")))])
        }
    }
}

fn canonical_flow(flow: &FlowConfig) -> Json {
    let FlowConfig {
        gp,
        extract,
        align,
        structure_aware,
        rigid_groups,
        lock_groups_in_detailed,
        dp_net_weight,
        refine_outers,
        detailed_passes,
        legalizer,
        mode,
    } = flow;
    Json::obj([
        ("align", canonical_align(align)),
        ("detailed_passes", Json::num(*detailed_passes as f64)),
        ("dp_net_weight", Json::num(*dp_net_weight)),
        ("extract", canonical_extract(extract)),
        ("gp", canonical_gp(gp)),
        (
            "legalizer",
            Json::str(match legalizer {
                LegalizerKind::Tetris => "tetris",
                LegalizerKind::Abacus => "abacus",
            }),
        ),
        ("mode", Json::str(mode.name())),
        (
            "lock_groups_in_detailed",
            Json::Bool(*lock_groups_in_detailed),
        ),
        ("refine_outers", Json::num(*refine_outers as f64)),
        ("rigid_groups", Json::Bool(*rigid_groups)),
        ("structure_aware", Json::Bool(*structure_aware)),
    ])
}

fn canonical_gp(gp: &GpConfig) -> Json {
    let GpConfig {
        model,
        target_density,
        target_overflow,
        max_outer,
        inner_iters,
        lambda_factor,
        bins,
        seed,
        cluster_threshold,
        // Excluded on purpose: kernel reductions are fixed-chunk folded,
        // so result bytes are identical at every thread count.
        threads: _,
    } = gp;
    Json::obj([
        (
            "bins",
            match bins {
                Some(b) => Json::num(*b as f64),
                None => Json::Null,
            },
        ),
        ("cluster_threshold", Json::num(*cluster_threshold as f64)),
        ("inner_iters", Json::num(*inner_iters as f64)),
        ("lambda_factor", Json::num(*lambda_factor)),
        ("max_outer", Json::num(*max_outer as f64)),
        (
            "model",
            Json::str(match model {
                WirelengthModel::Lse => "lse",
                WirelengthModel::Wa => "wa",
            }),
        ),
        (
            "seed",
            // Seeds are u64; above 2^53 the f64-backed number would
            // round. The decimal string keeps every bit.
            Json::str(seed.to_string()),
        ),
        ("target_density", Json::num(*target_density)),
        ("target_overflow", Json::num(*target_overflow)),
    ])
}

fn canonical_extract(e: &ExtractConfig) -> Json {
    let ExtractConfig {
        rounds,
        max_net_degree,
        min_bits,
        min_stages,
        min_coverage,
    } = e;
    Json::obj([
        ("max_net_degree", Json::num(*max_net_degree as f64)),
        ("min_bits", Json::num(*min_bits as f64)),
        ("min_coverage", Json::num(*min_coverage)),
        ("min_stages", Json::num(*min_stages as f64)),
        ("rounds", Json::num(*rounds as f64)),
    ])
}

fn canonical_align(a: &AlignConfig) -> Json {
    let AlignConfig {
        beta,
        activate_at,
        ramp,
        max_ramp,
        hysteresis,
        row_height,
    } = a;
    Json::obj([
        ("activate_at", Json::num(*activate_at)),
        ("beta", Json::num(*beta)),
        ("hysteresis", Json::num(*hysteresis)),
        ("max_ramp", Json::num(*max_ramp)),
        ("ramp", Json::num(*ramp)),
        ("row_height", Json::num(*row_height)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    const BASE: &str = r#"{"design": {"preset": "dp_tiny", "seed": 11}}"#;

    #[test]
    fn hash_is_stable_for_equal_specs() {
        let a = spec_hash(&parse_spec(BASE).unwrap());
        let b = spec_hash(&parse_spec(BASE).unwrap());
        assert_eq!(a, b, "parsing the same body twice must hash the same");
    }

    #[test]
    fn hash_of_a_fixed_spec_is_pinned() {
        // A change to the canonical form or to its serialization moves
        // every hash and silently empties every warm cache. If this moves,
        // the change must be deliberate: bump `RESULT_REVISION` if result
        // bytes changed, then re-pin.
        assert_eq!(spec_hash(&parse_spec(BASE).unwrap()), 0xff92_d741_7c57_1945);
    }

    #[test]
    fn thread_count_and_labels_do_not_split_the_cache() {
        let base = spec_hash(&parse_spec(BASE).unwrap());
        for alias in [
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"threads": 4}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "deadline_ms": 60000}"#,
        ] {
            assert_eq!(
                spec_hash(&parse_spec(alias).unwrap()),
                base,
                "{alias} must alias the base spec"
            );
        }
    }

    #[test]
    fn every_result_affecting_knob_changes_the_hash() {
        let base = spec_hash(&parse_spec(BASE).unwrap());
        for distinct in [
            r#"{"design": {"preset": "dp_tiny", "seed": 12}}"#,
            r#"{"design": {"preset": "dp_small", "seed": 11}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"fast": false}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"baseline": true}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"rigid": true}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"abacus": true}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"seed": 12}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"detailed_passes": 0}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"refine_outers": 9}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"dp_net_weight": 3.5}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "flow": {"mode": "route"}}"#,
            r#"{"design": {"preset": "dp_tiny", "seed": 11}, "chaos": "panic"}"#,
        ] {
            assert_ne!(
                spec_hash(&parse_spec(distinct).unwrap()),
                base,
                "{distinct} must not alias the base spec"
            );
        }
    }

    #[test]
    fn bookshelf_digest_tracks_raw_member_text() {
        let d = sdp_dpgen::generate(&GenConfig::named("dp_tiny", 3).unwrap());
        let dir = std::env::temp_dir().join(format!("sdp-serve-canon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        sdp_netlist::write_bookshelf(&dir, "t", &d.netlist, &d.design, &d.placement).unwrap();
        let member = |ext: &str| std::fs::read_to_string(dir.join(format!("t.{ext}"))).unwrap();
        let (nodes, nets, pl, scl) = (member("nodes"), member("nets"), member("pl"), member("scl"));
        std::fs::remove_dir_all(&dir).unwrap();
        let body = |nodes: &str| {
            Json::obj([(
                "design",
                Json::obj([(
                    "bookshelf",
                    Json::obj([
                        ("nodes", Json::str(nodes)),
                        ("nets", Json::str(nets.clone())),
                        ("pl", Json::str(pl.clone())),
                        ("scl", Json::str(scl.clone())),
                    ]),
                )]),
            )])
            .to_string()
        };
        let a = spec_hash(&parse_spec(&body(&nodes)).unwrap());
        let b = spec_hash(&parse_spec(&body(&nodes)).unwrap());
        assert_eq!(a, b, "same inline payload, same hash");
        // A one-character comment change alters the raw text but not the
        // parsed netlist — the digest is over the text, so it must differ.
        let touched = format!("{nodes}\n# trailing comment\n");
        let c = spec_hash(&parse_spec(&body(&touched)).unwrap());
        assert_ne!(a, c, "raw-text change must change the content address");
    }
}
