//! Regenerates every table and figure of the reconstructed evaluation.
//!
//! ```text
//! cargo run --release -p sdp-bench --bin tables            # all, full effort
//! cargo run --release -p sdp-bench --bin tables -- t3 f2   # a subset
//! cargo run --release -p sdp-bench --bin tables -- --quick # smoke profile
//! ```
//!
//! An unknown flag or id prints the usage and exits 2 before any
//! experiment runs.

use sdp_bench::{all_ids, run_experiment, Mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut ids = Vec::new();
    for arg in std::env::args().skip(1) {
        let id = arg.to_lowercase();
        if arg == "--quick" {
            quick = true;
        } else if let Some(&k) = all_ids().iter().find(|&&k| k == id) {
            ids.push(k);
        } else {
            eprintln!(
                "tables: unknown argument `{arg}`\nusage: tables [--quick] [ID ...]; ids: {}",
                all_ids().join(" ")
            );
            return ExitCode::from(2);
        }
    }
    if ids.is_empty() {
        ids = all_ids().to_vec();
    }

    println!(
        "sdplace evaluation harness — mode: {}\n",
        if quick { "quick" } else { "full" }
    );
    let mode = if quick { Mode::Quick } else { Mode::Full };
    for id in ids {
        let r = run_experiment(id, mode).expect("validated above");
        println!(
            "=== {} — {} ({:.1}s) ===",
            r.id.to_uppercase(),
            r.title,
            r.seconds
        );
        println!("{}", r.table);
        println!("expected shape: {}\n", r.expected);
    }
    ExitCode::SUCCESS
}
