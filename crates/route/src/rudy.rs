//! RUDY (Rectangular Uniform wire DensitY) congestion estimation.
//!
//! RUDY spreads each net's expected wire volume (its HPWL) uniformly over
//! its bounding box, giving a fast routing-demand map straight from a
//! placement with no routing. It is the standard quick congestion proxy in
//! routability-driven placement.

use sdp_geom::{BinGrid, Rect};
use sdp_gp::exec::chunk_ranges;
use sdp_gp::Executor;
use sdp_netlist::{Design, NetId, Netlist, Placement};

/// Nets per fixed chunk in the parallel RUDY reduction. Chunk boundaries
/// depend only on the net count — never on the thread count — so the
/// in-order partial-map merge is bitwise identical at any parallelism.
const NET_CHUNK: usize = 2048;

/// Computes a RUDY map over an `nx × ny` grid. Returns the grid and the
/// per-bin demand density (wirelength per unit area).
///
/// # Panics
///
/// Panics if `nx == 0` or `ny == 0`.
pub fn rudy_map(
    netlist: &Netlist,
    placement: &Placement,
    design: &Design,
    nx: usize,
    ny: usize,
) -> (BinGrid, Vec<f64>) {
    rudy_map_exec(netlist, placement, design, nx, ny, &Executor::new(1))
}

/// [`rudy_map`] with the reduction parallelized over `exec` under the
/// fixed-chunk discipline: nets are split into 2048-net chunks (`NET_CHUNK`),
/// each chunk accumulates a private demand map, and the partial maps are
/// summed in chunk order — the result is bitwise identical to the
/// sequential map at every thread count.
pub fn rudy_map_exec(
    netlist: &Netlist,
    placement: &Placement,
    design: &Design,
    nx: usize,
    ny: usize,
    exec: &Executor,
) -> (BinGrid, Vec<f64>) {
    let grid = BinGrid::new(design.region(), nx, ny);
    let chunks = chunk_ranges(netlist.num_nets(), NET_CHUNK);
    let partials = exec.map(chunks.len(), |ci| {
        let mut local = vec![0.0f64; grid.len()];
        for n in chunks[ci].clone().map(NetId::new) {
            splat_net(netlist, placement, &grid, n, &mut local);
        }
        local
    });
    let mut demand = vec![0.0f64; grid.len()];
    for local in &partials {
        for (d, l) in demand.iter_mut().zip(local) {
            *d += l;
        }
    }
    (grid, demand)
}

/// Adds one net's RUDY contribution to `demand`.
fn splat_net(
    netlist: &Netlist,
    placement: &Placement,
    grid: &BinGrid,
    n: NetId,
    demand: &mut [f64],
) {
    let Some(bbox) = placement.net_bbox(netlist, n) else {
        return;
    };
    let Some(clipped) = bbox.intersection(&grid.region()) else {
        return;
    };
    // Degenerate boxes still carry wire: pad to one unit.
    let w = clipped.width().max(1.0);
    let h = clipped.height().max(1.0);
    let r = Rect::with_size(clipped.lo(), w, h);
    let wire = netlist.net(n).weight * (bbox.width() + bbox.height());
    let density = wire / (w * h);
    grid.splat_area(&r, |bix, area| {
        demand[grid.flat(bix)] += density * area / grid.bin_area();
    });
}

/// Summary statistics of a RUDY map: `(max, mean)` demand density.
pub fn rudy_stats(demand: &[f64]) -> (f64, f64) {
    let max = demand.iter().copied().fold(0.0, f64::max);
    let mean = if demand.is_empty() {
        0.0
    } else {
        demand.iter().sum::<f64>() / demand.len() as f64
    };
    (max, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_dpgen::{generate, GenConfig};
    use sdp_gp::{GlobalPlacer, GpConfig};

    #[test]
    fn clustered_placement_has_hotter_rudy() {
        let mut d = generate(&GenConfig::named("dp_tiny", 1).unwrap());
        // All cells stacked at the centre: extreme local demand.
        let (_, demand_stacked) = rudy_map(&d.netlist, &d.placement, &d.design, 16, 16);
        let (max_stacked, _) = rudy_stats(&demand_stacked);

        GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
        let (_, demand_spread) = rudy_map(&d.netlist, &d.placement, &d.design, 16, 16);
        let (max_spread, _) = rudy_stats(&demand_spread);

        assert!(
            max_spread < max_stacked,
            "spreading must reduce peak RUDY: {max_stacked} -> {max_spread}"
        );
    }

    #[test]
    fn map_dimensions_match() {
        let d = generate(&GenConfig::named("dp_tiny", 2).unwrap());
        let (grid, demand) = rudy_map(&d.netlist, &d.placement, &d.design, 8, 12);
        assert_eq!(grid.nx(), 8);
        assert_eq!(grid.ny(), 12);
        assert_eq!(demand.len(), 96);
        assert!(demand.iter().all(|&d| d >= 0.0 && d.is_finite()));
    }

    #[test]
    fn empty_region_nets_are_skipped() {
        // Nets entirely outside the region (pads) must not contribute.
        let d = generate(&GenConfig::named("dp_tiny", 3).unwrap());
        let (_, demand) = rudy_map(&d.netlist, &d.placement, &d.design, 4, 4);
        // No NaNs and finite totals even with pad-ring nets.
        assert!(demand.iter().sum::<f64>().is_finite());
    }
}
