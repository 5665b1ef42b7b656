//! The sdplace benchmark: end-to-end metrics of three workloads, checked
//! outputs, and with `--trace 1` a per-layer breakdown rebuilt from
//! outside the program (see README.md).
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric as `workload name value unit`, then per workload
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (or with `--trace 1` the per-layer metrics). Without
//! `--workload`, every repetition runs all three workloads in turn.

mod flows;
mod measure;
mod serve;
mod stats;
mod trace;

use sdp_json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order a run without `--workload` takes them.
const WORKLOADS: [&str; 3] = ["place_huge", "route_congested", "serve_mixed"];

/// The dpgen seed of every workload's design. It is pinned rather than
/// drawn from `--seed` because a flow's cost is chaotic in its input:
/// across dpgen seeds `dp_huge` takes 15–20 s and the route loop keeps
/// 1–5 rounds, so a seed-drawn design would make the run-to-run spread
/// wider than any useful bound.
pub const DESIGN_SEED: u64 = 2012;

/// `BENCHMARK.json`'s `end_to_end` metrics, `(name, unit)`: every
/// workload reports each, and none is ever 0.
const END_TO_END: [(&str, &str); 6] = [
    ("flow_wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("hpwl", "dbu"),
    ("dp_hpwl", "dbu"),
    ("peak_rss_bytes", "bytes"),
];

/// `BENCHMARK.json`'s `per_layer` metrics, `(name, unit)`; 0 where a
/// layer does not run on a workload.
const PER_LAYER: [(&str, &str); 56] = [
    ("flow.p25_s", "s"),
    ("flow.p75_s", "s"),
    ("flow.n", "count"),
    ("flow.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("host.ref_ms", "ms"),
    ("dpgen.generate_s", "s"),
    ("extract.s", "s"),
    ("extract.signatures_s", "s"),
    ("extract.relations_s", "s"),
    ("extract.grow_s", "s"),
    ("gp.s", "s"),
    ("gp.evals", "count"),
    ("gp.outer_iters", "count"),
    ("gp.coarse_s", "s"),
    ("gp.outer_p50_s", "s"),
    ("gp.wl_grad_s", "s"),
    ("gp.density_grad_s", "s"),
    ("align.s", "s"),
    ("gp.other_s", "s"),
    ("gp.wl_call_ms", "ms"),
    ("gp.density_call_ms", "ms"),
    ("align.call_ms", "ms"),
    ("legal.s", "s"),
    ("legal.calls", "count"),
    ("legal.displacement", "dbu"),
    ("detailed.s", "s"),
    ("detailed.calls", "count"),
    ("route.s", "s"),
    ("route.pattern_s", "s"),
    ("route.rrr_s", "s"),
    ("route.calls", "count"),
    ("route.rrr_iters", "count"),
    ("route.segments", "count"),
    ("route.feedback_rounds", "count"),
    ("route.kept_rounds", "count"),
    ("route.kept_round_ratio", "ratio"),
    ("route.rudy_call_ms", "ms"),
    ("route.inflate_call_ms", "ms"),
    ("route.overflow", "count"),
    ("route.overflow_oneshot", "count"),
    ("route.wl", "dbu"),
    ("serve.requests", "count"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.hit_p50_s", "s"),
    ("serve.hit_tail_s", "s"),
    ("serve.hit_tail_pct", "pct"),
    ("serve.miss_tail_s", "s"),
    ("serve.miss_tail_pct", "pct"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.run_p50_s", "s"),
    ("serve.http_overhead_p50_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.placements_run", "count"),
    ("serve.hit_ratio", "ratio"),
];

/// Metric values by name; every name is one of the catalogue's.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`END_TO_END`] and [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit(name).is_some(), "metric `{name}` is not catalogued");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// How one run measures.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the Chrome trace goes (`None`: not written).
    pub trace_path: Option<PathBuf>,
}

/// What one workload run measured and how its checks went.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Writes `spans` as Chrome trace-event JSON to `opts.trace_path`.
    pub fn write_trace(&mut self, opts: &Opts, spans: &[trace::Span]) {
        let Some(path) = &opts.trace_path else {
            return;
        };
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, format!("{}\n", trace::chrome_trace(spans))));
        match written {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => self.errors.push(format!("writing {}: {e}", path.display())),
        }
    }
}

/// A workload after its set-up: repetitions, then its metrics.
pub trait Workload {
    /// Repetitions run whatever the time budget.
    fn min_reps(&self) -> usize;

    /// Runs repetition number `rep`.
    fn rep(&mut self, rep: usize);

    /// The metrics of the repetitions run, plus with `opts.trace` one
    /// extra traced repetition for the layer breakdown.
    fn finish(self: Box<Self>, opts: &Opts) -> Outcome;
}

fn setup(name: &str, opts: &Opts) -> Box<dyn Workload> {
    match name {
        "place_huge" => Box::new(flows::Flow::setup(flows::FlowSpec::place_huge(), opts)),
        "route_congested" => Box::new(flows::Flow::setup(flows::FlowSpec::route_congested(), opts)),
        "serve_mixed" => Box::new(serve::Serve::setup(serve::ServeSpec::mixed(), opts)),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// Sets up `names`, then runs repetitions until `opts.seconds` (and at
/// least every workload's minimum); each repetition runs every workload
/// once, in turn, so a drifting host slows all of them alike.
fn run(names: &[&'static str], opts: &Opts) -> Vec<(&'static str, Box<dyn Workload>)> {
    let mut workloads: Vec<_> = names.iter().map(|&n| (n, setup(n, opts))).collect();
    let min_reps = workloads
        .iter()
        .map(|(_, w)| w.min_reps())
        .max()
        .unwrap_or(0);
    measure::repeat(opts.seconds, min_reps, |rep| {
        for (_, w) in &mut workloads {
            w.rep(rep);
        }
    });
    workloads
}

/// Prints every measured metric as `workload name value unit`, then the
/// result object; returns whether the run is correct: no check failed
/// and every listed end-to-end metric is a positive measurement.
fn report(workload: &str, out: &Outcome, trace: bool) -> bool {
    for e in &out.errors {
        eprintln!("{workload}: check failed: {e}");
    }
    for (name, value) in &out.metrics.0 {
        let unit = unit(name).expect("set() only takes catalogued names");
        println!("{workload} {name} {value} {unit}");
    }
    let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = out.failed == 0 && out.errors.is_empty() && out.attempted > 0;
    let mut metrics = BTreeMap::new();
    for &(name, unit) in listed {
        let value = out.metrics.get(name).unwrap_or(0.0);
        let usable = if trace {
            value.is_finite()
        } else {
            value.is_finite() && value > 0.0
        };
        if !usable {
            eprintln!("{workload}: metric {name} = {value} is not a measurement");
            correct = false;
        }
        metrics.insert(
            name.to_string(),
            Json::obj([
                (
                    "value",
                    Json::num(if value.is_finite() { value } else { 0.0 }),
                ),
                ("unit", Json::str(unit)),
            ]),
        );
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(out.attempted as f64)),
        ("failed", Json::num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    correct
}

const USAGE: &str =
    "usage: benchmark [--workload place_huge|route_congested|serve_mixed] [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<&'static str>,
    opts: Opts,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = WORKLOADS.to_vec();
    let mut opts = Opts {
        seed: 2012,
        seconds: 30.0,
        trace: false,
        trace_path: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|&&w| w == value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                workloads = vec![w];
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args { workloads, opts })
}

fn main() -> ExitCode {
    let mut args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for (name, w) in run(&args.workloads, &args.opts) {
        if args.opts.trace {
            args.opts.trace_path = Some(PathBuf::from(format!(
                ".bench_trace/{name}-seed{}.json",
                args.opts.seed
            )));
        }
        let out = w.finish(&args.opts);
        correct &= report(name, &out, args.opts.trace);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trace: bool) -> Opts {
        Opts {
            seed: 7,
            seconds: 0.0,
            trace,
            trace_path: None,
        }
    }

    fn assert_clean(name: &str, out: &Outcome) {
        assert!(out.errors.is_empty(), "{name}: {:?}", out.errors);
        assert_eq!(out.failed, 0, "{name}");
        assert!(out.attempted > 0, "{name}");
        for (metric, _) in END_TO_END {
            let v = out.metrics.get(metric);
            assert!(v.is_some_and(|v| v > 0.0), "{name}: {metric} = {v:?}");
        }
    }

    /// Every workload function on a tiny input: checks pass, the
    /// end-to-end metrics are measured, and the traced layers add up.
    #[test]
    fn workloads_smoke() {
        let started = std::time::Instant::now();
        let mut place = flows::FlowSpec::place_huge();
        place.preset = "dp_tiny";
        place.config = sdp_core::FlowConfig::fast().with_threads(2);
        let mut route = flows::FlowSpec::route_congested();
        route.preset = "dp_tiny";
        route.config = sdp_core::FlowConfig {
            mode: sdp_core::FlowMode::Route,
            ..sdp_core::FlowConfig::fast().with_threads(2)
        };
        let serve = serve::ServeSpec {
            preset: "dp_tiny",
            requests_per_client: 4,
            min_reps: 1,
        };
        let opts = quick(true);
        let mut workloads: Vec<(&str, Box<dyn Workload>)> = vec![
            ("place", Box::new(flows::Flow::setup(place, &opts))),
            ("route", Box::new(flows::Flow::setup(route, &opts))),
            ("serve", Box::new(serve::Serve::setup(serve, &opts))),
        ];
        // Two repetitions, interleaved as a run without `--workload` does.
        for rep in 0..2 {
            for (_, w) in &mut workloads {
                w.rep(rep);
            }
        }
        let mut outs: Vec<_> = workloads
            .into_iter()
            .map(|(name, w)| (name, w.finish(&opts)))
            .collect();
        let (_, out) = outs.pop().expect("serve ran");
        assert_clean("serve", &out);
        assert_eq!(out.metrics.get("serve.placements_run"), Some(4.0));
        assert_eq!(out.metrics.get("serve.cache_hits"), Some(12.0));

        for (name, out) in outs {
            assert_clean(name, &out);
            let m = |k| out.metrics.get(k).unwrap_or(f64::NAN);
            let parts = m("gp.wl_grad_s") + m("gp.density_grad_s") + m("align.s") + m("gp.other_s");
            assert!(
                (parts - m("gp.s")).abs() < 1e-9,
                "{name}: GP parts sum to gp.s"
            );
            let phases = [
                "extract.s",
                "gp.s",
                "legal.s",
                "detailed.s",
                "route.s",
                "flow.self_s",
            ]
            .map(m)
            .iter()
            .sum::<f64>();
            let wall = m("flow_wall_s") * (1.0 + m("trace.overhead_frac"));
            assert!(
                (phases - wall).abs() < 1e-3 * wall.max(1e-3),
                "{name}: phases tile the flow"
            );
        }
        assert!(
            started.elapsed().as_secs_f64() < 10.0,
            "smoke run took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let mut dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "BENCHMARK.json above the manifest directory");
        };
        let json = sdp_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<_> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload serve_mixed --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workloads, ["serve_mixed"]);
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (9, 3.0, true));
        assert_eq!(parse("").expect("defaults").workloads, WORKLOADS);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seconds -1",
            "--frob 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
