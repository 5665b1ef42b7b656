//! `sdplace extract` — datapath extraction inventory for a bundle.

use crate::args::Args;
use crate::commands::load_case;
use sdp_eval::Table;
use sdp_extract::{extract, ExtractConfig};

/// Runs the subcommand.
pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["rounds"])?;
    let path = args.positional(0).ok_or("extract needs a .aux path")?;
    let case = load_case(path)?;
    let config = ExtractConfig {
        rounds: args.number("rounds")?.unwrap_or(1),
        ..ExtractConfig::default()
    };

    let result = extract(&case.netlist, &config);
    let mut t = Table::new(["group", "bits", "stages", "cells"]);
    for g in &result.groups {
        t.row([
            g.name().to_string(),
            g.bits().to_string(),
            g.stages().to_string(),
            g.num_cells().to_string(),
        ]);
    }
    println!("{}", case.netlist);
    println!(
        "{} signature classes, {} groups, {} cells claimed ({:.1} ms)\n",
        result.num_classes,
        result.groups.len(),
        result.num_datapath_cells(),
        result.seconds * 1e3
    );
    println!("{t}");
    Ok(())
}
