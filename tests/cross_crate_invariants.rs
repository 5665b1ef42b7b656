//! Invariants that hold *across* crate boundaries: the same quantity
//! computed by two different layers must agree.

use sdp_dpgen::{generate, GenConfig};
use sdp_gp::{cluster::cluster_netlist, hpwl, GlobalPlacer, GpConfig, WirelengthModel};
use sdp_legal::{legalize, LegalizeOptions};
use sdp_netlist::Placement;
use sdp_route::router::grid_hpwl_lower_bound;
use sdp_route::{route, RouteConfig};

fn placed_tiny(seed: u64) -> (sdp_dpgen::GeneratedDesign, Placement) {
    let mut d = generate(&GenConfig::named("dp_tiny", seed).expect("known preset"));
    GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
    legalize(
        &d.netlist,
        &d.design,
        &mut d.placement,
        &LegalizeOptions::default(),
    );
    let p = d.placement.clone();
    (d, p)
}

#[test]
fn gp_hpwl_agrees_with_placement_hpwl() {
    let (d, p) = placed_tiny(1);
    let a = hpwl(&d.netlist, p.positions());
    let b = p.total_hpwl(&d.netlist);
    assert!((a - b).abs() < 1e-9 * (1.0 + a), "{a} vs {b}");
}

#[test]
fn smooth_models_bracket_exact_hpwl_on_real_designs() {
    let (d, p) = placed_tiny(2);
    let exact = hpwl(&d.netlist, p.positions());
    let mut grad = vec![sdp_geom::Point::ORIGIN; d.netlist.num_cells()];
    let lse = sdp_gp::wirelength::eval_wirelength(
        WirelengthModel::Lse,
        &d.netlist,
        p.positions(),
        1.0,
        &mut grad,
    );
    grad.fill(sdp_geom::Point::ORIGIN);
    let wa = sdp_gp::wirelength::eval_wirelength(
        WirelengthModel::Wa,
        &d.netlist,
        p.positions(),
        1.0,
        &mut grad,
    );
    assert!(lse >= exact, "LSE {lse} >= HPWL {exact}");
    assert!(wa <= exact + 1e-9, "WA {wa} <= HPWL {exact}");
}

#[test]
fn routed_wirelength_dominates_grid_hpwl() {
    let (d, p) = placed_tiny(3);
    let report = route(&d.netlist, &p, &d.design, &RouteConfig::default());
    // With the same default grid the router's length can never beat the
    // per-net bounding-box lower bound on that grid.
    let pitch = d.design.row_height() * 4.0;
    let nx = ((d.design.region().width() / pitch).round() as usize).clamp(2, 256);
    let ny = ((d.design.region().height() / pitch).round() as usize).clamp(2, 256);
    let lb = grid_hpwl_lower_bound(&d.netlist, &p, &d.design, nx, ny);
    assert!(
        report.wirelength >= lb - 1e-6,
        "routed {} >= bound {lb}",
        report.wirelength
    );
}

#[test]
fn clustering_conserves_external_connectivity() {
    let d = generate(&GenConfig::named("dp_tiny", 4).expect("known preset"));
    let cl = cluster_netlist(&d.netlist, 0.3);
    // Any two cells in different clusters that share a net in the fine
    // netlist must still share a net in the coarse netlist.
    for n in d.netlist.net_ids() {
        let fine: Vec<_> = d.netlist.cells_of_net(n).collect();
        let coarse: std::collections::HashSet<_> =
            fine.iter().map(|&c| cl.cluster_of[c.ix()]).collect();
        if coarse.len() < 2 {
            continue; // fully internal net, allowed to vanish
        }
        let name = &d.netlist.net(n).name;
        let found = cl
            .coarse
            .net_ids()
            .any(|cn| cl.coarse.net(cn).name == *name);
        assert!(found, "external net {name} lost by clustering");
    }
}

#[test]
fn eval_breakdown_sums_to_total() {
    let d = generate(&GenConfig::named("dp_tiny", 5).expect("known preset"));
    let r = sdp_extract::extract(&d.netlist, &sdp_extract::ExtractConfig::default());
    let bd = sdp_eval::hpwl_breakdown(&d.netlist, &d.placement, &r.groups);
    assert!(
        (bd.datapath + bd.other - bd.total).abs() < 1e-9 * (1.0 + bd.total),
        "{} + {} != {}",
        bd.datapath,
        bd.other,
        bd.total
    );
    let direct = d.placement.total_hpwl(&d.netlist);
    assert!((bd.total - direct).abs() < 1e-9 * (1.0 + direct));
}

#[test]
fn generator_truth_matches_extraction_universe() {
    // Every ground-truth cell is a movable netlist cell; extraction's
    // claimed cells are a subset of movable cells.
    let d = generate(&GenConfig::named("dp_small", 6).expect("known preset"));
    for g in &d.truth.groups {
        for (_, _, c) in g.iter() {
            assert!(!d.netlist.cell(c).fixed);
        }
    }
    let r = sdp_extract::extract(&d.netlist, &sdp_extract::ExtractConfig::default());
    for g in &r.groups {
        for (_, _, c) in g.iter() {
            assert!(!d.netlist.cell(c).fixed);
            assert!(c.ix() < d.netlist.num_cells());
        }
    }
}

#[test]
fn legalization_never_increases_violations() {
    let mut d = generate(&GenConfig::named("dp_tiny", 7).expect("known preset"));
    GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
    let stats = legalize(
        &d.netlist,
        &d.design,
        &mut d.placement,
        &LegalizeOptions::default(),
    );
    assert_eq!(stats.failed, 0);
    assert!(sdp_legal::check_legal(&d.netlist, &d.design, &d.placement).is_empty());
}

#[test]
fn nesterov_place_inflated_is_bitwise_identical_across_thread_counts() {
    // A full `place_inflated` run — inflation factors engaged — through
    // the preconditioned Nesterov solver must produce byte-identical
    // placements at 1 and 4 threads: every float reduction in the solver
    // and the kernels is chunk-folded in an order independent of the
    // thread count.
    let run = |threads: usize| {
        let mut d = generate(&GenConfig::named("dp_tiny", 11).expect("known preset"));
        let inflation = vec![1.25; d.netlist.num_cells()];
        let placer = GlobalPlacer::new(GpConfig {
            threads,
            ..GpConfig::fast()
        });
        let stats = placer.place_inflated(
            &d.netlist,
            &d.design,
            &mut d.placement,
            None,
            Some(&inflation),
            None,
        );
        (stats, d.placement.positions().to_vec())
    };
    let (s1, p1) = run(1);
    let (s4, p4) = run(4);
    assert_eq!(s1.outer_iters, s4.outer_iters);
    assert_eq!(s1.evals, s4.evals, "solver trajectory must match exactly");
    assert_eq!(s1.final_hpwl.to_bits(), s4.final_hpwl.to_bits());
    assert_eq!(p1.len(), p4.len());
    for (k, (a, b)) in p1.iter().zip(&p4).enumerate() {
        assert_eq!(
            (a.x.to_bits(), a.y.to_bits()),
            (b.x.to_bits(), b.y.to_bits()),
            "cell {k} differs between 1 and 4 threads"
        );
    }
}
