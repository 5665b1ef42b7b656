//! Extraction scenario: run datapath extraction on a suite design and
//! inspect what it recovered — the group inventory, quality against the
//! generator's ground truth, and how the config knobs move the trade-off.
//!
//! ```text
//! cargo run --release -p sdp-core --example extraction_lab
//! ```

use sdp_dpgen::{generate, GenConfig};
use sdp_eval::Table;
use sdp_extract::{extract, metrics, ExtractConfig};

fn main() {
    let d = generate(&GenConfig::named("dp_small", 11).expect("known preset"));
    println!("design `{}`: {}", d.name, d.netlist);
    println!(
        "ground truth: {} groups / {} cells\n",
        d.truth.groups.len(),
        d.truth.num_datapath_cells()
    );

    // Inventory at the default configuration.
    let result = extract(&d.netlist, &ExtractConfig::default());
    let mut inv = Table::new(["group", "bits", "stages", "cells"]);
    for g in &result.groups {
        inv.row([
            g.name().to_string(),
            g.bits().to_string(),
            g.stages().to_string(),
            g.num_cells().to_string(),
        ]);
    }
    println!(
        "extracted inventory ({:.1} ms):\n{inv}",
        result.seconds * 1e3
    );

    // Knob sweep: signature rounds trade recall for discrimination.
    let mut sweep = Table::new(["rounds", "precision", "recall", "f1", "coherence"]);
    for rounds in 1..=4 {
        let cfg = ExtractConfig { rounds };
        let r = extract(&d.netlist, &cfg);
        let m = metrics::score(&r.groups, &d.truth.groups, &d.netlist);
        sweep.row([
            rounds.to_string(),
            format!("{:.3}", m.precision),
            format!("{:.3}", m.recall),
            format!("{:.3}", m.f1),
            format!("{:.3}", m.column_coherence),
        ]);
    }
    println!("signature-depth sweep:\n{sweep}");

    let m = metrics::score(&result.groups, &d.truth.groups, &d.netlist);
    assert!(m.f1 > 0.8, "default config should recover most structure");
}
