//! End-to-end integration tests spanning every crate: generator →
//! extraction → global placement → legalization → detailed placement →
//! routing → metrics, in both baseline and structure-aware modes.

use sdp_core::{FlowConfig, StructurePlacer};
use sdp_dpgen::{generate, GenConfig};
use sdp_eval::hpwl_breakdown;
use sdp_extract::metrics;
use sdp_legal::check_legal;
use sdp_netlist::{read_bookshelf, write_bookshelf};
use sdp_route::{route, RouteConfig};

fn tiny(seed: u64) -> sdp_dpgen::GeneratedDesign {
    generate(&GenConfig::named("dp_tiny", seed).expect("known preset"))
}

#[test]
fn baseline_flow_end_to_end() {
    let d = tiny(100);
    let out = StructurePlacer::new(FlowConfig::fast().baseline()).place(
        &d.netlist,
        &d.design,
        &d.placement,
    );
    assert_eq!(out.legal_violations, 0);
    assert!(out.report.hpwl.total > 0.0);
    assert_eq!(out.report.num_groups, 0);
    // Independent recheck.
    assert!(check_legal(&d.netlist, &d.design, &out.placement).is_empty());
}

#[test]
fn structure_aware_flow_end_to_end() {
    let d = tiny(101);
    let out = StructurePlacer::new(FlowConfig::fast()).place(&d.netlist, &d.design, &d.placement);
    assert_eq!(out.legal_violations, 0);
    assert!(out.report.num_groups > 0, "extraction must find structure");
    assert!(out.report.num_group_cells > 50);
    // Extraction quality against ground truth.
    let m = metrics::score(&out.groups, &d.truth.groups, &d.netlist);
    assert!(m.precision > 0.9, "precision {}", m.precision);
    assert!(m.recall > 0.7, "recall {}", m.recall);
}

#[test]
fn datapath_hpwl_stays_competitive() {
    // The reproduced claim (T3 shape): structure-aware placement keeps
    // datapath-net HPWL within a few percent of (or below) the baseline.
    let d = generate(&GenConfig::named("dp_small", 5).expect("known preset"));
    let base = StructurePlacer::new(FlowConfig::fast().baseline()).place(
        &d.netlist,
        &d.design,
        &d.placement,
    );
    let aware = StructurePlacer::new(FlowConfig::fast()).place(&d.netlist, &d.design, &d.placement);
    let base_bd = hpwl_breakdown(&d.netlist, &base.placement, &aware.groups);
    let ratio = aware.report.hpwl.datapath / base_bd.datapath;
    assert!(
        ratio < 1.15,
        "datapath HPWL ratio {ratio} should stay close to baseline"
    );
}

#[test]
fn rigid_mode_aligns_every_row() {
    let d = tiny(102);
    let out =
        StructurePlacer::new(FlowConfig::fast().rigid()).place(&d.netlist, &d.design, &d.placement);
    assert_eq!(out.legal_violations, 0);
    assert_eq!(out.report.alignment.aligned_row_fraction, 1.0);
    assert_eq!(out.report.alignment.mean_row_y_spread, 0.0);
}

#[test]
fn routed_placement_has_bounded_congestion() {
    let d = tiny(103);
    let out = StructurePlacer::new(FlowConfig::fast()).place(&d.netlist, &d.design, &d.placement);
    let report = route(
        &d.netlist,
        &out.placement,
        &d.design,
        &RouteConfig::default(),
    );
    assert!(report.wirelength > 0.0);
    assert_eq!(report.overflow, 0, "tiny design must route cleanly");
}

#[test]
fn placed_result_round_trips_through_bookshelf() {
    let d = tiny(104);
    let out = StructurePlacer::new(FlowConfig::fast()).place(&d.netlist, &d.design, &d.placement);
    // Unique per-invocation dir: concurrent test binaries (or stale
    // artifacts from an aborted run) must not collide.
    let dir = std::env::temp_dir().join(format!("sdp_fullflow_bookshelf_{}", std::process::id()));
    let aux =
        write_bookshelf(&dir, "t", &d.netlist, &d.design, &out.placement).expect("write bookshelf");
    let case = read_bookshelf(&aux).expect("read bookshelf");
    #[allow(
        clippy::unused_result_ok,
        reason = "best-effort cleanup after the round trip succeeded"
    )]
    std::fs::remove_dir_all(&dir).ok();
    // Same HPWL after the round trip (positions and offsets preserved).
    let before = out.placement.total_hpwl(&d.netlist);
    let after = case.placement.total_hpwl(&case.netlist);
    // The text format carries 6 decimal places; allow that much drift.
    assert!(
        (before - after).abs() / before < 1e-5,
        "HPWL drift: {before} vs {after}"
    );
    // The re-imported placement is still legal.
    assert!(check_legal(&case.netlist, &case.design, &case.placement).is_empty());
}

#[test]
fn whole_flow_is_deterministic_across_runs() {
    let run = || {
        let d = tiny(105);
        let out =
            StructurePlacer::new(FlowConfig::fast()).place(&d.netlist, &d.design, &d.placement);
        (
            out.placement.positions().to_vec(),
            out.report.hpwl.total,
            out.report.num_groups,
        )
    };
    let (p1, h1, g1) = run();
    let (p2, h2, g2) = run();
    assert_eq!(p1, p2);
    assert_eq!(h1, h2);
    assert_eq!(g1, g2);
}

#[test]
fn thread_count_is_transparent_to_the_flow() {
    // The parallel wirelength/density kernels replay their reductions in
    // a fixed order, so the entire flow must be bitwise identical at any
    // thread count.
    let run = |threads: usize| {
        let d = tiny(106);
        let out = StructurePlacer::new(FlowConfig::fast().with_threads(threads)).place(
            &d.netlist,
            &d.design,
            &d.placement,
        );
        (out.placement.positions().to_vec(), out.report.hpwl.total)
    };
    let (pos_seq, hpwl_seq) = run(1);
    let (pos_par, hpwl_par) = run(4);
    assert_eq!(pos_seq, pos_par);
    assert_eq!(hpwl_seq, hpwl_par);
}

#[test]
fn flow_navigates_fixed_macros() {
    let cfg = GenConfig::named("dp_tiny", 21)
        .expect("preset")
        .with_macros(2);
    let d = generate(&cfg);
    for aware in [false, true] {
        let fc = if aware {
            FlowConfig::fast()
        } else {
            FlowConfig::fast().baseline()
        };
        let out = StructurePlacer::new(fc).place(&d.netlist, &d.design, &d.placement);
        assert_eq!(out.legal_violations, 0, "aware={aware}");
        // Macros did not move.
        for c in d.netlist.cell_ids() {
            if d.netlist.cell(c).name.starts_with("ram") {
                assert_eq!(out.placement.get(c), d.placement.get(c));
            }
        }
    }
}

#[test]
fn generated_suite_validates_structurally() {
    for name in ["dp_tiny", "dp_small"] {
        let d = generate(&GenConfig::named(name, 1).expect("preset"));
        let issues = sdp_netlist::validate_netlist(&d.netlist);
        assert!(issues.is_empty(), "{name}: {issues:?}");
    }
}

#[test]
fn fraction_sweep_designs_flow_cleanly() {
    // The F2 sweep's endpoints: pure glue and heavy datapath.
    for frac in [0.0, 0.8] {
        let cfg = GenConfig::with_datapath_fraction("sweep_it", 9, 1200, frac);
        let d = generate(&cfg);
        let out =
            StructurePlacer::new(FlowConfig::fast()).place(&d.netlist, &d.design, &d.placement);
        assert_eq!(out.legal_violations, 0, "fraction {frac}");
    }
}
