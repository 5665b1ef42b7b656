#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

//! Automatic datapath extraction from flat gate-level netlists.
//!
//! This crate implements the first half of the reproduced paper's
//! contribution: recovering `bits × stages` regular structures
//! ([`sdp_netlist::DatapathGroup`]) from an unannotated netlist, so the
//! placer can align them.
//!
//! The pipeline:
//!
//! 1. **Structural signatures** ([`signature`]) — Weisfeiler–Leman-style
//!    iterative hashing of each cell's neighbourhood. Cells implementing
//!    the same bit position of the same logic stage end up with identical
//!    signatures.
//! 2. **Slot relations** ([`relations`]) — for every cell, the driver
//!    behind each input pin slot and the sinks of its output, restricted to
//!    low-fanout nets (high-fanout control/clock nets carry no bit-level
//!    structure).
//! 3. **Chain seeds** ([`grow`]) — carry/shift chains appear as
//!    distance-two successor links between same-signature cells; following
//!    them yields bit-ordered seed columns.
//! 4. **Column growth** ([`grow`]) — from each seed, neighbouring columns
//!    are annexed through injective per-slot driver/sink maps, assembling
//!    the full `bits × stages` matrix.
//! 5. **Filtering** — candidate groups below the minimum bit width
//!    ([`MIN_BITS`]) or stage count ([`MIN_STAGES`]) are discarded (this is
//!    what keeps random glue logic from producing false structures).
//!
//! Extraction quality against generator ground truth is measured by
//! [`metrics`] (benchmark table T2).
//!
//! # Examples
//!
//! ```
//! use sdp_dpgen::{generate, GenConfig};
//! use sdp_extract::{extract, ExtractConfig};
//!
//! let d = generate(&GenConfig::named("dp_tiny", 1).unwrap());
//! let result = extract(&d.netlist, &ExtractConfig::default());
//! assert!(!result.groups.is_empty());
//! let m = sdp_extract::metrics::score(&result.groups, &d.truth.groups, &d.netlist);
//! assert!(m.recall > 0.5);
//! ```

pub mod grow;
pub mod metrics;
pub mod relations;
pub mod signature;

use sdp_netlist::{DatapathGroup, Netlist};
use sdp_progress::{Cancelled, Observer, Phase};

/// Nets with more pins than this carry no bit-level structure (clock,
/// reset, tie cells) and are ignored by the signatures and relations.
pub const MAX_NET_DEGREE: usize = 6;

/// Minimum bit width for a group to be kept.
pub const MIN_BITS: usize = 4;

/// Minimum stage count for a *fallback-seeded* group to be kept
/// (chain-seeded groups are trusted at any stage count).
pub const MIN_STAGES: usize = 2;

/// Column coverage: a grown column must fill at least this fraction of the
/// group's bit rows.
pub const MIN_COVERAGE: f64 = 0.75;

/// Tuning knobs for extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractConfig {
    /// Signature refinement rounds. More rounds discriminate finer but
    /// peel more boundary bits off each chain; with layered seeds handling
    /// uniform towers, one round is the sweet spot on the whole suite
    /// (measured in table T2).
    pub rounds: usize,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig { rounds: 1 }
    }
}

/// The outcome of an extraction run.
#[derive(Debug, Clone)]
pub struct ExtractionResult {
    /// Recovered datapath groups.
    pub groups: Vec<DatapathGroup>,
    /// Number of signature classes that passed the size filter.
    pub num_classes: usize,
    /// Wall-clock seconds spent.
    pub seconds: f64,
}

impl ExtractionResult {
    /// Total number of cells claimed by any group.
    pub fn num_datapath_cells(&self) -> usize {
        self.groups.iter().map(|g| g.num_cells()).sum()
    }
}

/// Runs the full extraction pipeline on a netlist.
pub fn extract(netlist: &Netlist, config: &ExtractConfig) -> ExtractionResult {
    match extract_observed(netlist, config, &Observer::noop()) {
        Ok(r) => r,
        Err(Cancelled) => unreachable!("the noop observer never cancels"),
    }
}

/// [`extract`] with progress reporting and cooperative cancellation:
/// `obs` is polled between pipeline stages and supplies the clock for the
/// `seconds` field, so replay harnesses with a manual clock get bitwise
/// stable results.
pub fn extract_observed(
    netlist: &Netlist,
    config: &ExtractConfig,
    obs: &Observer,
) -> Result<ExtractionResult, Cancelled> {
    let start = obs.now();
    obs.checkpoint()?;
    let sigs = signature::signatures(netlist, config.rounds, MAX_NET_DEGREE);
    obs.report(Phase::Extract, 0.4);
    obs.checkpoint()?;
    let rel = relations::Relations::build(netlist, MAX_NET_DEGREE);
    obs.report(Phase::Extract, 0.7);
    obs.checkpoint()?;
    let (groups, num_classes) = grow::grow_groups(netlist, &sigs, &rel);
    obs.report(Phase::Extract, 1.0);
    Ok(ExtractionResult {
        groups,
        num_classes,
        seconds: obs.seconds_since(start),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_dpgen::{generate, GenConfig};

    #[test]
    fn default_config_is_sane() {
        assert!(ExtractConfig::default().rounds >= 1);
        const { assert!(MIN_BITS >= 2) };
        const { assert!(MIN_COVERAGE > 0.0 && MIN_COVERAGE <= 1.0) };
    }

    #[test]
    fn extraction_is_deterministic() {
        let d = generate(&GenConfig::named("dp_tiny", 5).unwrap());
        let a = extract(&d.netlist, &ExtractConfig::default());
        let b = extract(&d.netlist, &ExtractConfig::default());
        assert_eq!(a.groups.len(), b.groups.len());
        for (x, y) in a.groups.iter().zip(&b.groups) {
            assert_eq!(x.cell_set(), y.cell_set());
        }
    }

    #[test]
    fn groups_never_overlap() {
        let d = generate(&GenConfig::named("dp_small", 3).unwrap());
        let r = extract(&d.netlist, &ExtractConfig::default());
        let mut seen = std::collections::HashSet::new();
        for g in &r.groups {
            for (_, _, c) in g.iter() {
                assert!(seen.insert(c), "cell {c} in two groups");
            }
        }
    }

    #[test]
    fn pure_glue_extracts_almost_nothing() {
        // A design with no datapath blocks: extraction should claim very
        // few cells (false positives only).
        let cfg = GenConfig::with_datapath_fraction("glue_only", 3, 1500, 0.0);
        let d = generate(&cfg);
        let r = extract(&d.netlist, &ExtractConfig::default());
        let claimed = r.num_datapath_cells();
        assert!(
            (claimed as f64) < 0.15 * d.netlist.num_movable() as f64,
            "claimed {claimed} of {}",
            d.netlist.num_movable()
        );
    }
}
