//! `sdplace gen` — generate a benchmark and write it as Bookshelf.

use crate::args::Args;
use crate::commands::split_out;
use sdp_dpgen::{generate, GenConfig};
use sdp_netlist::{write_bookshelf, NetlistStats};

/// Runs the subcommand.
pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["seed", "gates", "fraction", "out"])?;
    let seed: u64 = args.number("seed")?.unwrap_or(1);

    let config = match (args.positional(0), args.number::<usize>("gates")?) {
        (Some(preset), None) => GenConfig::named(preset, seed).ok_or_else(|| {
            format!(
                "unknown preset `{preset}` (known: {})",
                sdp_dpgen::suite_names().join(" ")
            )
        })?,
        (None, Some(gates)) => {
            let fraction: f64 = args.number("fraction")?.unwrap_or(0.4);
            if !(0.0..=1.0).contains(&fraction) {
                return Err("--fraction must be in [0, 1]".into());
            }
            GenConfig::with_datapath_fraction("custom", seed, gates, fraction)
        }
        (Some(_), Some(_)) => return Err("give a preset OR --gates, not both".into()),
        (None, None) => return Err("need a preset name or --gates N".into()),
    };

    let out = args
        .value("out")
        .ok_or("gen requires --out PATH (bundle prefix)")?;
    let (dir, name) = split_out(out)?;

    let d = generate(&config);
    let stats = NetlistStats::of(&d.netlist);
    let aux = write_bookshelf(dir, name, &d.netlist, &d.design, &d.placement)
        .map_err(|e| e.to_string())?;
    println!("generated `{}`: {stats}", d.name);
    println!(
        "datapath: {} ground-truth groups, fraction {:.2}",
        d.truth.groups.len(),
        d.truth.datapath_fraction(&d.netlist)
    );
    println!("wrote {}", aux.display());
    Ok(())
}
