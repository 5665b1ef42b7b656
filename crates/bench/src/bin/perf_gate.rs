//! Perf-regression gate: compares a freshly measured
//! `BENCH_trajectory.json` against the committed
//! `BENCH_trajectory_baseline.json` and exits nonzero when any gated
//! metric regresses by more than the tolerance (default 10%).
//!
//! ```text
//! cargo run --release -p sdp-bench --bin tables -- trajectory
//! cargo run -p sdp-bench --bin perf_gate
//! cargo run -p sdp-bench --bin perf_gate -- --tolerance 0.25
//! ```
//!
//! Gated metrics: `gp.evals_per_sec`, `extract.cells_per_sec`,
//! `serve.jobs_per_sec`, `serve_soak.jobs_per_sec`,
//! `serve_soak.hit_ratio`, `route_loop.overflow_reduction`, and
//! `route_loop.gcells_per_sec` (higher is better) and `peak_rss_bytes`
//! (lower is better). A metric that is zero or missing on either side is
//! reported and skipped — peak RSS is unavailable off Linux, and a
//! hand-edited baseline may predate a metric. The baseline is refreshed deliberately, never by CI: rerun
//! the trajectory experiment on the reference machine class and copy
//! the snapshot over the baseline when a change is *supposed* to move
//! these numbers.

use sdp_json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One gated metric: a dotted path into the snapshot and its direction.
struct Metric {
    path: &'static [&'static str],
    higher_is_better: bool,
}

const METRICS: &[Metric] = &[
    Metric {
        path: &["gp", "evals_per_sec"],
        higher_is_better: true,
    },
    Metric {
        path: &["extract", "cells_per_sec"],
        higher_is_better: true,
    },
    Metric {
        path: &["serve", "jobs_per_sec"],
        higher_is_better: true,
    },
    Metric {
        path: &["serve_soak", "jobs_per_sec"],
        higher_is_better: true,
    },
    Metric {
        path: &["serve_soak", "hit_ratio"],
        higher_is_better: true,
    },
    Metric {
        path: &["route_loop", "overflow_reduction"],
        higher_is_better: true,
    },
    Metric {
        path: &["route_loop", "gcells_per_sec"],
        higher_is_better: true,
    },
    Metric {
        path: &["peak_rss_bytes"],
        higher_is_better: false,
    },
];

fn lookup(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut v = doc;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64()
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    sdp_json::parse(&text).map_err(|e| format!("parse {}: {e:?}", path.display()))
}

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut current = root.join("BENCH_trajectory.json");
    let mut baseline = root.join("BENCH_trajectory_baseline.json");
    let mut tolerance = 0.10_f64;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("--{what} needs a value"))
        };
        match a.as_str() {
            "--current" => current = PathBuf::from(take("current")),
            "--baseline" => baseline = PathBuf::from(take("baseline")),
            "--tolerance" => tolerance = take("tolerance").parse().expect("--tolerance is a float"),
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: perf_gate [--current <f>] [--baseline <f>] [--tolerance <frac>]");
                return ExitCode::from(2);
            }
        }
    }

    let (cur, base) = match (load(&current), load(&baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for r in [c, b] {
                if let Err(e) = r {
                    eprintln!("error: {e}");
                }
            }
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for m in METRICS {
        let name = m.path.join(".");
        let (Some(c), Some(b)) = (lookup(&cur, m.path), lookup(&base, m.path)) else {
            println!("perf-gate: {name:<22} SKIP (missing on one side)");
            continue;
        };
        if c <= 0.0 || b <= 0.0 {
            println!("perf-gate: {name:<22} SKIP (not measured: current {c:.3}, baseline {b:.3})");
            continue;
        }
        // Positive change = improvement, in the metric's own direction.
        let change = if m.higher_is_better {
            c / b - 1.0
        } else {
            b / c - 1.0
        };
        let verdict = if change < -tolerance {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "perf-gate: {name:<22} {verdict:<4} baseline {b:>12.3}  current {c:>12.3}  ({:+.1}%)",
            change * 100.0
        );
    }

    if failed {
        eprintln!(
            "perf-gate: regression beyond {:.0}% tolerance — if intentional, refresh \
             BENCH_trajectory_baseline.json from a full `tables -- trajectory` run",
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
