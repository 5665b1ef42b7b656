//! `sdplace route` — globally route a placed bundle.

use crate::args::Args;
use crate::commands::load_case;
use sdp_eval::Table;
use sdp_route::{route, rudy_map, RouteConfig};

/// Runs the subcommand.
pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["tracks", "svg"])?;
    let tracks_per_gcell = match args.number::<u64>("tracks")? {
        None => 12,
        Some(t) => u32::try_from(t)
            .ok()
            .filter(|&t| t >= 1)
            .ok_or_else(|| format!("--tracks: {t} is out of range 1..={}", u32::MAX))?,
    };
    let path = args.positional(0).ok_or("route needs a .aux path")?;
    let case = load_case(path)?;
    let config = RouteConfig {
        tracks_per_gcell,
        ..RouteConfig::default()
    };

    let report = route(&case.netlist, &case.placement, &case.design, &config);
    let mut t = Table::new(["metric", "value"]);
    t.row(["segments", &report.segments.to_string()]);
    t.row(["routed wirelength", &format!("{:.0}", report.wirelength)]);
    t.row(["overflow", &report.overflow.to_string()]);
    t.row(["overflowed edges", &report.overflowed_edges.to_string()]);
    t.row(["max utilization", &format!("{:.2}", report.max_utilization)]);
    t.row(["rrr iterations", &report.iterations.to_string()]);
    println!("{t}");
    if let Some(svg) = args.value("svg") {
        let (grid, demand) = rudy_map(&case.netlist, &case.placement, &case.design, 64, 64);
        sdp_eval::write_heatmap_svg(svg, grid.region(), grid.nx(), grid.ny(), &demand)
            .map_err(|e| e.to_string())?;
        println!("wrote congestion heat map {svg}");
    }
    Ok(())
}
