//! First-choice netlist clustering for the multilevel V-cycle.
//!
//! Each movable cell is paired with its most-connected neighbour (the
//! classic "first choice" heuristic with connectivity score `Σ w/(deg−1)`
//! over shared nets, normalized by combined area) until the number of
//! clusters drops below `ratio × movable`. A coarse netlist is then built
//! in which clusters become single cells and fully-internal nets vanish.

use sdp_netlist::{CellId, Netlist, NetlistBuilder, PinDir};
use std::collections::{BTreeMap, HashMap};

/// The result of one clustering level.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// The coarse netlist.
    pub coarse: Netlist,
    /// `cluster_of[fine_cell.ix()]` = coarse cell holding it.
    pub cluster_of: Vec<CellId>,
}

/// Clusters a netlist until about `ratio × movable` coarse cells remain
/// (`0 < ratio ≤ 1`; `0.25` quarters the cell count). Fixed cells are never
/// merged.
///
/// # Panics
///
/// Panics unless `0 < ratio <= 1`.
#[allow(
    clippy::cast_possible_truncation,
    reason = "union-find slots are cell indices, and `CellId` is u32-backed"
)]
pub fn cluster_netlist(netlist: &Netlist, ratio: f64) -> Clustering {
    assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
    let n = netlist.num_cells();
    let target = sdp_geom::cast::saturating_usize(((netlist.num_movable() as f64) * ratio).ceil());

    // Union-find over cells.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut i: u32) -> u32 {
        while parent[i as usize] != i {
            parent[i as usize] = parent[parent[i as usize] as usize];
            i = parent[i as usize];
        }
        i
    }

    let mut cluster_area: Vec<f64> = netlist.cell_ids().map(|c| netlist.cell_area(c)).collect();
    let mut num_clusters = netlist.num_movable();
    // Cap cluster area so clusters stay placeable objects.
    let max_area = (netlist.movable_area() / target.max(1) as f64) * 4.0;

    // First-choice passes: for each cell pick the best-connected partner.
    for _pass in 0..3 {
        if num_clusters <= target {
            break;
        }
        for seed in netlist.movable_ids() {
            if num_clusters <= target {
                break;
            }
            let root = find(&mut parent, seed.ix() as u32);
            // Score candidate partners over incident nets.
            let mut scores: BTreeMap<u32, f64> = BTreeMap::new();
            for net_id in netlist.nets_of_cell(seed) {
                let net = netlist.net(net_id);
                let deg = net.pins.len();
                if !(2..=16).contains(&deg) {
                    continue; // huge nets carry no clustering signal
                }
                let w = net.weight / (deg as f64 - 1.0);
                for &p in &net.pins {
                    let other = netlist.pin(p).cell;
                    if netlist.cell(other).fixed {
                        continue;
                    }
                    let oroot = find(&mut parent, other.ix() as u32);
                    if oroot != root {
                        *scores.entry(oroot).or_insert(0.0) += w;
                    }
                }
            }
            let best = scores
                .into_iter()
                .map(|(cand, s)| {
                    let combined = cluster_area[root as usize] + cluster_area[cand as usize];
                    (cand, s / combined.max(1e-9))
                })
                .filter(|&(cand, _)| {
                    cluster_area[root as usize] + cluster_area[cand as usize] <= max_area
                })
                // Ties broken by candidate id: identical bit slices produce
                // identical scores, and the explicit total order keeps the
                // winner independent of how `scores` was populated.
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
            if let Some((partner, _)) = best {
                let (a, b) = (root.min(partner), root.max(partner));
                parent[b as usize] = a;
                cluster_area[a as usize] += cluster_area[b as usize];
                num_clusters -= 1;
            }
        }
    }

    // Build the coarse netlist.
    let mut b = NetlistBuilder::new();
    let mut coarse_of_root: HashMap<u32, CellId> = HashMap::new();
    let mut cluster_of: Vec<CellId> = Vec::with_capacity(n);

    // Masters: clusters get synthetic masters keyed by their area; fixed
    // cells keep their own master.
    for c in netlist.cell_ids() {
        let root = find(&mut parent, c.ix() as u32);
        let coarse_id = *coarse_of_root.entry(root).or_insert_with(|| {
            let root_cell = CellId::new(root as usize);
            if netlist.cell(root_cell).fixed {
                let m = netlist.master_of(root_cell);
                let lib = b.add_lib_cell(&m.name, m.width, m.height, m.num_inputs, m.num_outputs);
                b.add_fixed_cell(&format!("k{root}"), lib)
            } else {
                let area = cluster_area[root as usize];
                // Clusters are square-ish blobs one "row" tall per unit area.
                let w = area.sqrt().max(1.0);
                let h = (area / w).max(1.0);
                let lib = b.add_lib_cell(&format!("CL_{root}"), w, h, 0, 0);
                b.add_cell(&format!("k{root}"), lib)
            }
        });
        cluster_of.push(coarse_id);
    }

    // Nets: drop internal nets, dedupe multiple pins on one cluster.
    for net_id in netlist.net_ids() {
        let net = netlist.net(net_id);
        let mut members: Vec<(CellId, PinDir)> = Vec::new();
        for &p in &net.pins {
            let pin = netlist.pin(p);
            let cc = cluster_of[pin.cell.ix()];
            if let Some(e) = members.iter_mut().find(|(m, _)| *m == cc) {
                if pin.dir == PinDir::Output {
                    e.1 = PinDir::Output;
                }
            } else {
                members.push((cc, pin.dir));
            }
        }
        if members.len() >= 2 {
            b.add_weighted_net(
                &net.name,
                net.weight,
                members
                    .into_iter()
                    .map(|(c, d)| (c, sdp_geom::Point::ORIGIN, d)),
            );
        }
    }

    Clustering {
        // sdp-lint: allow(panic-reachability) -- the coarse builder's input
        // is generated above with unique `k{root}` names and validated
        // masters; finish() failing would be an internal clustering bug.
        coarse: b.finish().expect("coarse netlist is well formed"),
        cluster_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_dpgen::{generate, GenConfig};

    #[test]
    fn reduces_cell_count() {
        let d = generate(&GenConfig::named("dp_tiny", 1).unwrap());
        let cl = cluster_netlist(&d.netlist, 0.25);
        let fine_movable = d.netlist.num_movable();
        let coarse_movable = cl.coarse.num_movable();
        assert!(
            coarse_movable < fine_movable / 2,
            "coarse {coarse_movable} vs fine {fine_movable}"
        );
        // Area is conserved.
        let fa = d.netlist.movable_area();
        let ca = cl.coarse.movable_area();
        assert!((fa - ca).abs() / fa < 0.25, "area {fa} vs {ca}");
    }

    #[test]
    fn mapping_covers_every_cell() {
        let d = generate(&GenConfig::named("dp_tiny", 2).unwrap());
        let cl = cluster_netlist(&d.netlist, 0.3);
        assert_eq!(cl.cluster_of.len(), d.netlist.num_cells());
        for &cc in &cl.cluster_of {
            assert!(cc.ix() < cl.coarse.num_cells());
        }
    }

    #[test]
    fn fixed_cells_stay_singleton_and_fixed() {
        let d = generate(&GenConfig::named("dp_tiny", 3).unwrap());
        let cl = cluster_netlist(&d.netlist, 0.25);
        let mut seen = std::collections::HashSet::new();
        for c in d.netlist.cell_ids() {
            if d.netlist.cell(c).fixed {
                let cc = cl.cluster_of[c.ix()];
                assert!(cl.coarse.cell(cc).fixed);
                assert!(seen.insert(cc), "fixed cells must not merge");
            }
        }
    }

    #[test]
    fn no_degenerate_coarse_nets() {
        let d = generate(&GenConfig::named("dp_tiny", 4).unwrap());
        let cl = cluster_netlist(&d.netlist, 0.25);
        for n in cl.coarse.net_ids() {
            assert!(cl.coarse.net_degree(n) >= 2);
        }
        assert!(cl.coarse.num_nets() < d.netlist.num_nets());
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn bad_ratio_panics() {
        let d = generate(&GenConfig::named("dp_tiny", 1).unwrap());
        let _ = cluster_netlist(&d.netlist, 0.0);
    }
}
