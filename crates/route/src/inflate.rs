//! Congestion-feedback cell inflation.
//!
//! The RoutePlacer / NTUplace4 recipe for routability-driven placement:
//! cells sitting in congested bins get their density footprint scaled up
//! so the next global-placement pass pushes real free space into the
//! hotspot. Growth is utilization-weighted (hotter bins grow their cells
//! faster), the total virtual area added is capped by a budget (inflating
//! without bound just dilutes the whole die), and factors decay toward 1
//! for cells that have left the hotspots so transient congestion does not
//! permanently bloat them.
//!
//! Both reductions in here (mean demand, inflated-area totals) follow the
//! fixed-chunk [`Executor`] discipline: chunk boundaries depend only on
//! element counts and partial results merge in chunk order, so the
//! factors are bitwise identical at every thread count.

use sdp_geom::BinGrid;
use sdp_gp::exec::chunk_ranges;
use sdp_gp::Executor;
use sdp_netlist::{CellId, Netlist, Placement};

/// Cells per fixed chunk in the parallel inflation pass.
const CELL_CHUNK: usize = 4096;

/// Bins per fixed chunk in the demand-statistics reduction.
const BIN_CHUNK: usize = 8192;

/// Maximum per-round multiplicative growth of one cell's factor (reached
/// when a bin is at ≥ 2× the hotspot threshold).
const MAX_GROWTH: f64 = 0.25;

/// Hard cap on any single cell's accumulated inflation factor.
const CELL_CAP: f64 = 2.0;

/// Per-round decay of the factor of a cell outside every hotspot:
/// `f ← 1 + (f − 1) · DECAY`.
const DECAY: f64 = 0.85;

/// Tuning knobs of one inflation round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflateConfig {
    /// Bins with demand above `hot_factor × mean demand` are hotspots.
    pub hot_factor: f64,
    /// Total-inflation budget: the virtual area added across all cells
    /// may not exceed this fraction of the total movable area.
    pub budget: f64,
}

impl Default for InflateConfig {
    fn default() -> Self {
        InflateConfig {
            hot_factor: 2.0,
            budget: 0.15,
        }
    }
}

/// What one inflation round did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflateStats {
    /// Bins above the hotspot threshold.
    pub hot_bins: usize,
    /// Cells whose factor grew this round.
    pub grown: usize,
    /// Virtual area added, as a fraction of the total movable area
    /// (after budget clamping; ≤ `config.budget`).
    pub inflated_area_frac: f64,
    /// 1.0 when the budget did not bind; < 1.0 is the uniform scale
    /// applied to every cell's excess to meet it.
    pub budget_scale: f64,
}

/// Runs one congestion-feedback inflation round, updating `factors` in
/// place (`factors[c] ≥ 1` is cell `c`'s density-area multiplier, as
/// consumed by `GlobalPlacer::place_inflated_observed`). `demand` is a
/// per-bin congestion map over `grid` — RUDY demand density or routed
/// utilization; only its shape relative to its own mean matters.
///
/// Returns what happened; `grown == 0` means no movable cell sits in a
/// hotspot and the caller's feedback loop has converged.
///
/// # Panics
///
/// Panics if `factors.len() != netlist.num_cells()` or
/// `demand.len() != grid.len()`.
pub fn inflate_cells(
    netlist: &Netlist,
    placement: &Placement,
    grid: &BinGrid,
    demand: &[f64],
    config: &InflateConfig,
    factors: &mut [f64],
    exec: &Executor,
) -> InflateStats {
    assert_eq!(
        factors.len(),
        netlist.num_cells(),
        "one inflation factor per cell"
    );
    assert_eq!(demand.len(), grid.len(), "one demand entry per bin");

    // Demand statistics, fixed-chunk reduced.
    let bin_chunks = chunk_ranges(demand.len(), BIN_CHUNK);
    let partials = exec.map(bin_chunks.len(), |ci| {
        let r = bin_chunks[ci].clone();
        demand[r].iter().sum::<f64>()
    });
    let mean = partials.iter().sum::<f64>() / demand.len().max(1) as f64;
    // No demand signal: everything decays, nothing is hot.
    let hot = if mean > 0.0 {
        config.hot_factor * mean
    } else {
        f64::INFINITY
    };
    let hot_bins = demand.iter().filter(|&&d| d > hot).count();

    // Per-cell proposals plus the area sums the budget needs, one fixed
    // chunk of cells at a time.
    struct ChunkOut {
        proposed: Vec<f64>,
        extra_area: f64,
        movable_area: f64,
        grown: usize,
    }
    let cell_chunks = chunk_ranges(netlist.num_cells(), CELL_CHUNK);
    let outs = exec.map(cell_chunks.len(), |ci| {
        let r = cell_chunks[ci].clone();
        let mut out = ChunkOut {
            proposed: Vec::with_capacity(r.len()),
            extra_area: 0.0,
            movable_area: 0.0,
            grown: 0,
        };
        for c in r.map(CellId::new) {
            let old = factors[c.ix()];
            if netlist.cell(c).fixed {
                out.proposed.push(old);
                continue;
            }
            let d = demand[grid.flat(grid.bin_of(placement.get(c)))];
            let f = if d > hot {
                // Utilization-weighted growth, saturating at 2× the
                // hotspot threshold, capped per cell.
                let grow = 1.0 + MAX_GROWTH * ((d / hot - 1.0).min(1.0));
                (old * grow).min(CELL_CAP)
            } else {
                1.0 + (old - 1.0) * DECAY
            };
            if f > old {
                out.grown += 1;
            }
            let area = netlist.cell_area(c);
            out.extra_area += (f - 1.0) * area;
            out.movable_area += area;
            out.proposed.push(f);
        }
        out
    });

    // In-chunk-order merge keeps the area sums bitwise stable.
    let mut extra_area = 0.0;
    let mut movable_area = 0.0;
    let mut grown = 0;
    for o in &outs {
        extra_area += o.extra_area;
        movable_area += o.movable_area;
        grown += o.grown;
    }

    // Total-inflation budget: scale every cell's excess uniformly when
    // the round would overshoot.
    let allowed = config.budget * movable_area;
    let budget_scale = if extra_area > allowed && extra_area > 0.0 {
        allowed / extra_area
    } else {
        1.0
    };
    for (range, out) in cell_chunks.iter().zip(&outs) {
        for (i, &f) in range.clone().zip(&out.proposed) {
            factors[i] = 1.0 + (f - 1.0) * budget_scale;
        }
    }

    InflateStats {
        hot_bins,
        grown,
        inflated_area_frac: if movable_area > 0.0 {
            (extra_area * budget_scale) / movable_area
        } else {
            0.0
        },
        budget_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rudy::rudy_map;
    use sdp_dpgen::{generate, GenConfig};

    fn stacked() -> (sdp_netlist::Netlist, sdp_netlist::Design, Placement) {
        // dpgen leaves every movable cell at the origin-ish centre: an
        // extreme hotspot by construction.
        let d = generate(&GenConfig::named("dp_tiny", 7).unwrap());
        (d.netlist, d.design, d.placement)
    }

    #[test]
    fn hotspots_grow_and_budget_binds() {
        let (nl, design, pl) = stacked();
        let (grid, demand) = rudy_map(&nl, &pl, &design, 16, 16);
        let mut factors = vec![1.0; nl.num_cells()];
        let cfg = InflateConfig::default();
        let exec = Executor::new(1);
        let stats = inflate_cells(&nl, &pl, &grid, &demand, &cfg, &mut factors, &exec);
        assert!(stats.grown > 0, "a stacked placement must inflate");
        assert!(factors.iter().all(|&f| (1.0..=CELL_CAP).contains(&f)));
        assert!(stats.inflated_area_frac <= cfg.budget + 1e-12);
        // The budget is respected against the real area ledger.
        let extra: f64 = nl
            .movable_ids()
            .map(|c| (factors[c.ix()] - 1.0) * nl.cell_area(c))
            .sum();
        let movable: f64 = nl.movable_ids().map(|c| nl.cell_area(c)).sum();
        assert!(extra <= cfg.budget * movable * (1.0 + 1e-9));
    }

    #[test]
    fn factors_are_identical_at_any_thread_count() {
        let (nl, design, pl) = stacked();
        let (grid, demand) = rudy_map(&nl, &pl, &design, 16, 16);
        let cfg = InflateConfig::default();
        let mut seq = vec![1.0; nl.num_cells()];
        let mut par = vec![1.0; nl.num_cells()];
        // Two rounds so accumulated factors (growth + decay paths) are
        // exercised, not just the first proposal.
        for _ in 0..2 {
            inflate_cells(&nl, &pl, &grid, &demand, &cfg, &mut seq, &Executor::new(1));
            inflate_cells(&nl, &pl, &grid, &demand, &cfg, &mut par, &Executor::new(4));
        }
        assert!(
            seq.iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "inflation must be bitwise identical at any thread count"
        );
    }

    #[test]
    fn decay_pulls_factors_back_toward_one() {
        let (nl, design, pl) = stacked();
        let (grid, _) = rudy_map(&nl, &pl, &design, 8, 8);
        // Zero demand: every factor decays, none grows.
        let demand = vec![0.0; grid.len()];
        let mut factors = vec![1.5; nl.num_cells()];
        let cfg = InflateConfig::default();
        let stats = inflate_cells(
            &nl,
            &pl,
            &grid,
            &demand,
            &cfg,
            &mut factors,
            &Executor::new(1),
        );
        assert_eq!(stats.grown, 0);
        assert_eq!(stats.hot_bins, 0);
        for c in nl.movable_ids() {
            let f = factors[c.ix()];
            assert!((1.0..1.5).contains(&f), "decay moves {f} toward 1");
        }
    }

    #[test]
    fn fixed_cells_never_inflate() {
        let (nl, design, pl) = stacked();
        let (grid, demand) = rudy_map(&nl, &pl, &design, 16, 16);
        let mut factors = vec![1.0; nl.num_cells()];
        inflate_cells(
            &nl,
            &pl,
            &grid,
            &demand,
            &InflateConfig::default(),
            &mut factors,
            &Executor::new(1),
        );
        for c in nl.cell_ids() {
            if nl.cell(c).fixed {
                assert_eq!(factors[c.ix()], 1.0);
            }
        }
    }
}
