//! `sdplace` — the command-line interface to the structure-aware
//! placement flow.
//!
//! ```text
//! sdplace gen dp_small --seed 7 --out /tmp/bs/dp_small
//! sdplace extract /tmp/bs/dp_small.aux
//! sdplace place   /tmp/bs/dp_small.aux --out /tmp/bs/placed --svg /tmp/place.svg
//! sdplace place   /tmp/bs/dp_small.aux --baseline
//! sdplace route   /tmp/bs/placed.aux
//! sdplace eval    /tmp/bs/placed.aux
//! ```
//!
//! Every subcommand works on standard Bookshelf bundles, so the tool
//! composes with external generators and evaluators.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
sdplace — structure-aware placement for datapath-intensive designs

USAGE:
  sdplace gen <preset | --gates N --fraction F> [--seed S] --out PATH
  sdplace extract <case.aux> [--rounds K]
  sdplace place <case.aux> [--baseline | --rigid] [--fast] [--abacus]
                [--mode hpwl|route] [--seed S] [--threads T]
                [--out PATH] [--svg FILE]
  sdplace route <case.aux> [--tracks N]
  sdplace eval <case.aux> [--route]
  sdplace serve [--port P] [--workers N] [--queue-depth D] [--retain R]
                [--cache-bytes B] [--state-dir DIR] [--threads T]

SUBCOMMANDS:
  gen      generate a benchmark (presets: dp_tiny dp_small dp_medium
           dp_large dp_huge; or --gates/--fraction for a custom sweep
           design) and write it as a Bookshelf bundle
  extract  run datapath extraction and print the group inventory
  place    run the placement flow (default: structure-aware soft profile)
           and optionally write the placed bundle / an SVG rendering
  route    globally route a placed bundle and report wirelength/overflow
  eval     report HPWL, Steiner WL, and alignment metrics of a bundle
  serve    run the placement job server (POST /jobs, GET /metrics, …);
           shuts down gracefully when stdin closes

OPTIONS:
  --out PATH      output bundle path prefix (directory/name, no extension)
  --seed S        generator / placer seed                  [default: 1]
  --baseline      disable structure awareness (oblivious placer)
  --rigid         maximal-regularity profile (snap + row-lock groups)
  --fast          reduced-effort placer profile
  --abacus        Abacus legalizer (displacement-optimal rows)
  --mode M        place: `hpwl` (default) or `route` — route mode runs the
                  RUDY-feedback inflation loop and reports routed metrics
  --route         eval: also globally route the bundle and report routed
                  wirelength, overflow, and utilization
  --threads T     placement kernel threads, at most 256; 0 = all cores,
                  1 = sequential (results are bitwise identical)
                                                         [default: 0]
  --rounds K      signature refinement depth for extract   [default: 1]
  --gates N       custom design size (with gen)
  --fraction F    custom datapath fraction in [0,1] (with gen)
  --tracks N      routing tracks per gcell edge, at least 1
                                                         [default: 12]
  --svg FILE      write an SVG rendering (place: cells+groups; route:
                  RUDY congestion heat map)
  --port P        serve: TCP port on 127.0.0.1         [default: 7878]
  --workers N     serve: placement worker threads         [default: 2]
  --queue-depth D serve: bounded job-queue depth         [default: 16]
  --retain R      serve: finished job records kept before the oldest
                  are evicted (bounds memory)           [default: 256]
  --cache-bytes B serve: content-addressed result-cache byte budget;
                  0 disables caching             [default: 67108864]
  --state-dir DIR serve: persist terminal jobs to DIR/jobs.log and
                  replay them on startup            [default: in-memory]
";

fn main() -> ExitCode {
    // Dying mid-pipe (`sdplace eval … | head`) raises a broken-pipe panic
    // from println!; exit quietly like other Unix tools instead.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().cloned();
        if msg.as_deref().is_some_and(|m| m.contains("Broken pipe")) {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "gen" => commands::gen::run(rest),
        "extract" => commands::extract::run(rest),
        "place" => commands::place::run(rest),
        "route" => commands::route::run(rest),
        "eval" => commands::eval::run(rest),
        "serve" => commands::serve::run(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
