//! `sdplace place` — run the placement flow on a bundle.

use crate::args::Args;
use crate::commands::{load_case, split_out, threads_flag};
use sdp_core::{FlowConfig, StructurePlacer};
use sdp_eval::{write_placement_svg, Table};
use sdp_netlist::write_bookshelf;

/// Runs the subcommand.
pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &[
            "baseline", "rigid", "fast", "abacus", "mode", "seed", "threads", "out", "svg",
        ],
    )?;
    let path = args.positional(0).ok_or("place needs a .aux path")?;
    if args.flag("baseline") && args.flag("rigid") {
        return Err("--baseline and --rigid are mutually exclusive".into());
    }
    let threads = threads_flag(&args)?;
    let case = load_case(path)?;

    let mut config = if args.flag("fast") {
        FlowConfig::fast()
    } else {
        FlowConfig::default()
    };
    if args.flag("baseline") {
        config = config.baseline();
    }
    if args.flag("rigid") {
        config = config.rigid();
    }
    if let Some(seed) = args.number::<u64>("seed")? {
        config.gp.seed = seed;
    }
    if args.flag("abacus") {
        config.legalizer = sdp_core::LegalizerKind::Abacus;
    }
    if let Some(threads) = threads {
        config = config.with_threads(threads);
    }
    if let Some(name) = args.value("mode") {
        config.mode = match name {
            "hpwl" => sdp_core::FlowMode::Hpwl,
            "route" => sdp_core::FlowMode::Route,
            other => return Err(format!("unknown --mode '{other}' (expected hpwl or route)")),
        };
    }

    let out = StructurePlacer::new(config).place(&case.netlist, &case.design, &case.placement);
    let r = &out.report;
    let stwl = sdp_eval::steiner_wl(&case.netlist, &out.placement);

    let mut t = Table::new(["metric", "value"]);
    t.row(["groups", &r.num_groups.to_string()]);
    t.row(["group cells", &r.num_group_cells.to_string()]);
    t.row(["HPWL", &format!("{:.0}", r.hpwl.total)]);
    t.row(["datapath HPWL", &format!("{:.0}", r.hpwl.datapath)]);
    t.row(["Steiner WL", &format!("{stwl:.0}")]);
    t.row([
        "aligned rows",
        &format!("{:.0}%", 100.0 * r.alignment.aligned_row_fraction),
    ]);
    t.row(["legal violations", &out.legal_violations.to_string()]);
    if let Some(route) = &r.route {
        let (nx, ny) = route.grid;
        let lb =
            sdp_route::grid_hpwl_lower_bound(&case.netlist, &out.placement, &case.design, nx, ny);
        t.row(["routed WL", &format!("{:.0}", route.wirelength)]);
        t.row([
            "routed WL / grid HPWL bound",
            &format!("{:.3}", route.wirelength / lb.max(1.0)),
        ]);
        t.row(["routed overflow", &route.overflow.to_string()]);
        t.row(["max utilization", &format!("{:.3}", route.max_utilization)]);
        t.row(["RRR iterations", &route.iterations.to_string()]);
        t.row(["feedback rounds", &r.route_rounds.to_string()]);
    }
    t.row(["runtime", &format!("{:.2}s", r.times.total())]);
    println!("{t}");

    if let Some(prefix) = args.value("out") {
        let (dir, name) = split_out(prefix)?;
        let aux = write_bookshelf(dir, name, &case.netlist, &case.design, &out.placement)
            .map_err(|e| e.to_string())?;
        println!("wrote {}", aux.display());
    }
    if let Some(svg) = args.value("svg") {
        write_placement_svg(
            svg,
            &case.netlist,
            &case.design,
            &out.placement,
            &out.groups,
        )
        .map_err(|e| e.to_string())?;
        println!("wrote {svg}");
    }
    if out.legal_violations > 0 {
        return Err(format!("{} legality violations", out.legal_violations));
    }
    Ok(())
}
