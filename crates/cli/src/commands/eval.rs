//! `sdplace eval` — quality metrics for a (placed) bundle.

use crate::args::Args;
use crate::commands::load_case;
use sdp_eval::{alignment_report, hpwl_breakdown, steiner_wl, Table};
use sdp_extract::{extract, ExtractConfig};
use sdp_legal::check_legal;
use sdp_netlist::validate_netlist;

/// Runs the subcommand.
pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["route"])?;
    let path = args.positional(0).ok_or("eval needs a .aux path")?;
    let case = load_case(path)?;

    // Groups come from extraction — the bundle carries no annotations.
    let groups = extract(&case.netlist, &ExtractConfig::default()).groups;
    let bd = hpwl_breakdown(&case.netlist, &case.placement, &groups);
    let align = alignment_report(&case.placement, &groups, case.design.row_height());
    let stwl = steiner_wl(&case.netlist, &case.placement);
    let violations = check_legal(&case.netlist, &case.design, &case.placement);
    let structure = validate_netlist(&case.netlist);

    let mut t = Table::new(["metric", "value"]);
    t.row(["HPWL", &format!("{:.0}", bd.total)]);
    t.row(["datapath HPWL", &format!("{:.0}", bd.datapath)]);
    t.row(["datapath nets", &bd.datapath_nets.to_string()]);
    t.row(["Steiner WL", &format!("{stwl:.0}")]);
    t.row(["extracted groups", &groups.len().to_string()]);
    t.row([
        "aligned rows",
        &format!("{:.0}%", 100.0 * align.aligned_row_fraction),
    ]);
    t.row([
        "row y-spread (rows)",
        &format!("{:.2}", align.mean_row_y_spread),
    ]);
    if args.flag("route") {
        let rep = sdp_route::route(
            &case.netlist,
            &case.placement,
            &case.design,
            &sdp_route::RouteConfig::default(),
        );
        let (nx, ny) = rep.grid;
        let lb =
            sdp_route::grid_hpwl_lower_bound(&case.netlist, &case.placement, &case.design, nx, ny);
        t.row(["routed WL", &format!("{:.0}", rep.wirelength)]);
        t.row([
            "routed WL / grid HPWL bound",
            &format!("{:.3}", rep.wirelength / lb.max(1.0)),
        ]);
        t.row(["routed overflow", &rep.overflow.to_string()]);
        t.row(["max utilization", &format!("{:.3}", rep.max_utilization)]);
        t.row(["RRR iterations", &rep.iterations.to_string()]);
    }
    t.row(["legal violations", &violations.len().to_string()]);
    t.row(["netlist issues", &structure.len().to_string()]);
    println!("{t}");
    for v in violations.iter().take(10) {
        println!("  violation: {v}");
    }
    for i in structure.iter().take(10) {
        println!("  netlist issue: {i}");
    }
    Ok(())
}
