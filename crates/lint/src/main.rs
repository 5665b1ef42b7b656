//! `sdp-lint` binary: lints the workspace, prints rustc-style or SARIF
//! diagnostics, exits nonzero on violations.
//!
//! ```text
//! USAGE: sdp-lint [--root <dir>] [--rule <name>]... [--format rustc|sarif]
//!                 [--output <file>] [--stats] [--list-rules] [--explain <rule>]
//! ```

use sdp_lint::{find_root, lint_workspace_graph, sarif, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(PartialEq)]
enum Format {
    Rustc,
    Sarif,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut format = Format::Rustc;
    let mut output: Option<PathBuf> = None;
    let mut stats = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--rule" => match args.next() {
                Some(r) => only.push(r),
                None => {
                    eprintln!("error: --rule needs a rule name");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("rustc") => format = Format::Rustc,
                Some("sarif") => format = Format::Sarif,
                Some(other) => {
                    eprintln!("error: unknown format `{other}` (rustc|sarif)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --format needs a value (rustc|sarif)");
                    return ExitCode::from(2);
                }
            },
            "--output" => match args.next() {
                Some(p) => output = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --output needs a file path");
                    return ExitCode::from(2);
                }
            },
            "--stats" => stats = true,
            "--explain" => {
                let Some(name) = args.next() else {
                    eprintln!("error: --explain needs a rule name (see --list-rules)");
                    return ExitCode::from(2);
                };
                let Some(rule) = Rule::ALL.iter().find(|r| r.name() == name) else {
                    eprintln!("error: unknown rule `{name}` (see --list-rules)");
                    return ExitCode::from(2);
                };
                println!(
                    "{}: {}\n\n{}\n\nhelp: {}",
                    rule,
                    rule.short_description(),
                    rule.explain(),
                    rule.help()
                );
                return ExitCode::SUCCESS;
            }
            "--list-rules" => {
                for r in Rule::ALL {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "USAGE: sdp-lint [--root <dir>] [--rule <name>]... \
                     [--format rustc|sarif] [--output <file>] [--stats] [--list-rules] \
                     [--explain <rule>]\n\n\
                     Lints the sdplace workspace for determinism, soundness,\n\
                     scalability, and concurrency invariants (hash iteration in\n\
                     kernels, plus call-graph panic-reachability,\n\
                     lock-discipline, determinism-taint, hot-loop-alloc,\n\
                     quadratic-scan, unbounded-growth). Exits 1 when\n\
                     violations are found.\n\n\
                     --format sarif emits a SARIF 2.1.0 document for CI code scanning;\n\
                     --output writes the report to a file instead of stdout;\n\
                     --stats prints per-crate call-graph reachability;\n\
                     --explain prints a rule's full rationale and marker syntax."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    for r in &only {
        if !Rule::ALL.iter().any(|known| known.name() == r) {
            eprintln!("error: unknown rule `{r}` (see --list-rules)");
            return ExitCode::from(2);
        }
    }

    let Some(root) = find_root(root.as_deref()) else {
        eprintln!("error: could not locate the workspace root (pass --root)");
        return ExitCode::from(2);
    };

    let (mut diags, scanned, reach) = match lint_workspace_graph(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if !only.is_empty() {
        diags.retain(|d| only.iter().any(|r| r == d.rule.name()));
    }

    let report = match format {
        Format::Sarif => sarif::to_sarif(&diags),
        Format::Rustc => {
            let mut s = String::new();
            for d in &diags {
                s.push_str(&format!("{d}\n\n"));
            }
            s
        }
    };
    match &output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        None => print!("{report}"),
    }

    if stats {
        eprintln!("call-graph reachability (reachable / total non-test fns):");
        for (krate, (reachable, total)) in &reach {
            eprintln!("  {krate:<10} {reachable:>4} / {total}");
        }
    }

    if diags.is_empty() {
        if format == Format::Rustc && output.is_none() {
            println!("sdp-lint: clean — {scanned} files scanned, 0 violations");
        } else {
            eprintln!("sdp-lint: clean — {scanned} files scanned, 0 violations");
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "sdp-lint: {} violation(s) across {scanned} scanned files",
            diags.len()
        );
        ExitCode::FAILURE
    }
}
