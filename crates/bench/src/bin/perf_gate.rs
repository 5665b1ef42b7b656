//! Perf-regression gate over the benchmark's own output.
//!
//! ```text
//! cargo run --release --locked -p sdp-bench --bin benchmark -- --seconds 0 --trace 1 > bench.txt
//! cargo run --release --locked -p sdp-bench --bin perf_gate -- BENCH_flow.txt bench.txt
//! ```
//!
//! Both files are the benchmark's stdout: `workload name value unit`
//! metric lines and one JSON result line per workload. `--seconds 0` runs
//! the minimum three repetitions, so every count repeats exactly. The
//! gate exits 1 when
//!
//! * a result line of CURRENT is not `"correct": true`, or the files hold
//!   different numbers of result lines;
//! * the files do not list the same `(workload, metric)` pairs;
//! * a `count` or `dbu` value, or any unit, differs as printed — Rust
//!   prints the shortest text that round-trips, so equal text is equal
//!   bits;
//! * `flow_wall_s`, `jobs_per_s` or `peak_rss_bytes` is worse than the
//!   baseline by more than its `bound` in `BENCHMARK.json`.
//!
//! Every other metric (`setup_s`, the per-layer seconds) is printed with
//! its change but not gated. Usage errors, unreadable files and lines
//! that are neither kind exit 2. A change that moves a count or a dbu
//! value on purpose refreshes `BENCH_flow.txt` with the command above.

use sdp_json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics held within their `BENCHMARK.json` bound.
const BOUNDED: [&str; 3] = ["flow_wall_s", "jobs_per_s", "peak_rss_bytes"];

/// Units whose values must match exactly.
const EXACT: [&str; 2] = ["count", "dbu"];

const USAGE: &str = "usage: perf_gate BASELINE CURRENT";

/// One metric line.
#[derive(Debug)]
struct Metric {
    text: String,
    value: f64,
    unit: String,
}

/// One benchmark output.
#[derive(Debug, Default)]
struct Run {
    metrics: BTreeMap<(String, String), Metric>,
    /// Per result line: the workload printed before it, and whether it
    /// says `"correct": true`.
    results: Vec<(String, bool)>,
}

fn parse(text: &str) -> Result<Run, String> {
    let mut run = Run::default();
    let mut workload = String::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('{') {
            let result = sdp_json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
            run.results.push((workload.clone(), correct));
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("line {}: neither a metric nor a result: `{line}`", i + 1);
        let [w, name, text, unit] = tokens[..] else {
            return Err(bad());
        };
        let value = text.parse().map_err(|_| bad())?;
        workload = w.to_string();
        let metric = Metric {
            text: text.to_string(),
            value,
            unit: unit.to_string(),
        };
        let key = (w.to_string(), name.to_string());
        if run.metrics.insert(key, metric).is_some() {
            return Err(format!("line {}: `{w} {name}` is printed twice", i + 1));
        }
    }
    Ok(run)
}

/// `(bound, higher_is_better)` of each [`BOUNDED`] metric, from the
/// `end_to_end` list of `BENCHMARK.json`.
type Bounds = BTreeMap<&'static str, (f64, bool)>;

fn bounds(benchmark_json: &str) -> Result<Bounds, String> {
    let doc = sdp_json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]);
    BOUNDED
        .into_iter()
        .map(|name| {
            let m = listed
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name));
            let bound = m.and_then(|m| m.get("bound")?.as_f64());
            let better = m.and_then(|m| m.get("better")?.as_str());
            match (bound, better) {
                (Some(b), Some("higher")) => Ok((name, (b, true))),
                (Some(b), Some("lower")) => Ok((name, (b, false))),
                _ => Err(format!("BENCHMARK.json: no `{name}` bound")),
            }
        })
        .collect()
}

/// Every verdict of CURRENT against BASELINE, `(failed, message)`.
fn gate(base: &Run, cur: &Run, bounds: &Bounds) -> Vec<(bool, String)> {
    let mut verdicts: Vec<(bool, String)> = cur
        .results
        .iter()
        .filter(|(_, correct)| !correct)
        .map(|(w, _)| (true, format!("{w}: result is not \"correct\": true")))
        .collect();
    if cur.results.len() != base.results.len() {
        let (c, b) = (cur.results.len(), base.results.len());
        verdicts.push((true, format!("{c} result lines, baseline {b}")));
    }
    let mut exact = 0;
    for (key @ (w, name), b) in &base.metrics {
        let Some(c) = cur.metrics.get(key) else {
            verdicts.push((true, format!("{w} {name}: missing")));
            continue;
        };
        if EXACT.contains(&b.unit.as_str()) || c.unit != b.unit {
            if (&c.text, &c.unit) == (&b.text, &b.unit) {
                exact += 1;
            } else {
                let (bt, bu, ct, cu) = (&b.text, &b.unit, &c.text, &c.unit);
                verdicts.push((true, format!("{w} {name}: {bt} {bu} → {ct} {cu}")));
            }
            continue;
        }
        let change = c.value / b.value - 1.0;
        let (failed, limit) = match bounds.get(name.as_str()) {
            Some(&(bound, higher)) => {
                let worse = if higher { -change } else { change };
                let limit = format!("bound {:.0} %", bound * 100.0);
                (worse.is_nan() || worse > bound, limit)
            }
            None => (false, "not gated".to_string()),
        };
        let (bt, ct, unit, pct) = (&b.text, &c.text, &c.unit, change * 100.0);
        let message = format!("{w} {name}: {bt} → {ct} {unit} ({pct:+.1} %, {limit})");
        verdicts.push((failed, message));
    }
    for (w, name) in cur.metrics.keys().filter(|k| !base.metrics.contains_key(k)) {
        verdicts.push((true, format!("{w} {name}: not in the baseline")));
    }
    verdicts.push((false, format!("{exact} count/dbu values equal")));
    verdicts
}

fn check(baseline: &str, current: &str) -> Result<Vec<(bool, String)>, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let benchmark_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let bounds = bounds(&read(benchmark_json)?)?;
    let base = parse(&read(baseline)?).map_err(|e| format!("{baseline}: {e}"))?;
    let cur = parse(&read(current)?).map_err(|e| format!("{current}: {e}"))?;
    Ok(gate(&base, &cur, &bounds))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdicts = match &args[..] {
        [b, c] if !b.starts_with('-') && !c.starts_with('-') => check(b, c),
        _ => Err(USAGE.to_string()),
    };
    let verdicts = match verdicts {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::from(2);
        }
    };
    for (failed, message) in &verdicts {
        let verdict = if *failed { "FAIL" } else { "ok  " };
        println!("perf-gate: {verdict} {message}");
    }
    if verdicts.iter().any(|(failed, _)| *failed) {
        eprintln!(
            "perf-gate: failed — if a count or dbu value moved on purpose, refresh \
             BENCH_flow.txt from the benchmark command and say why"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = r#"place_huge flow_wall_s 10 s
place_huge gp.evals 280 count
place_huge gp.s 6.5 s
place_huge hpwl 682475.9699262314 dbu
place_huge jobs_per_s 0.1 1/s
place_huge peak_rss_bytes 1000 bytes
place_huge setup_s 0.1 s
{"attempted":5,"correct":true,"failed":0,"metrics":{}}
serve_mixed jobs_per_s 100 1/s
serve_mixed serve.requests 720 count
{"attempted":975,"correct":true,"failed":0,"metrics":{}}
"#;

    fn real_bounds() -> Bounds {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        bounds(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("bounds")
    }

    /// Whether CURRENT passes against [`RUN`]; `edit` is `(from, to)`.
    fn passes(edit: (&str, &str)) -> bool {
        assert!(RUN.contains(edit.0), "{edit:?}");
        let cur = RUN.replacen(edit.0, edit.1, 1);
        let (base, cur) = (parse(RUN).expect("baseline"), parse(&cur).expect("current"));
        let verdicts = gate(&base, &cur, &real_bounds());
        !verdicts.iter().any(|(failed, _)| *failed)
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let b = real_bounds();
        assert_eq!(b["flow_wall_s"], (0.25, false));
        assert_eq!(b["jobs_per_s"], (0.25, true));
        assert_eq!(b["peak_rss_bytes"], (0.2, false));
    }

    #[test]
    fn equal_runs_and_noise_within_bounds_pass() {
        assert!(passes(("", "")));
        assert!(passes(("flow_wall_s 10 s", "flow_wall_s 12.4 s")));
        assert!(passes(("setup_s 0.1 s", "setup_s 0.3 s")));
        assert!(passes(("gp.s 6.5 s", "gp.s 13 s")));
        assert!(passes(("jobs_per_s 0.1 1/s", "jobs_per_s 0.2 1/s")));
    }

    #[test]
    fn exact_values_must_match_as_printed() {
        assert!(!passes(("gp.evals 280", "gp.evals 281")));
        assert!(!passes(("serve.requests 720", "serve.requests 719")));
        assert!(!passes(("682475.9699262314", "682475.9699262315")));
        assert!(!passes(("280 count", "280 s")));
    }

    #[test]
    fn bounded_metrics_fail_past_their_bound() {
        assert!(!passes(("flow_wall_s 10 s", "flow_wall_s 12.6 s")));
        assert!(!passes(("jobs_per_s 100 1/s", "jobs_per_s 74 1/s")));
        assert!(!passes(("peak_rss_bytes 1000", "peak_rss_bytes 1210")));
        assert!(!passes(("flow_wall_s 10 s", "flow_wall_s NaN s")));
    }

    #[test]
    fn metric_sets_and_results_must_match() {
        assert!(!passes(("place_huge gp.s 6.5 s\n", "")));
        assert!(!passes((
            "place_huge gp.s 6.5 s\n",
            "place_huge gp.t 6.5 s\n"
        )));
        assert!(!passes((
            "place_huge hpwl",
            "place_huge gp.x 1 s\nplace_huge hpwl"
        )));
        assert!(!passes((r#""correct":true"#, r#""correct":false"#)));
        let cut = RUN.rfind("\n{").expect("a result line") + 1;
        let base = parse(RUN).expect("baseline");
        let cur = parse(&RUN[..cut]).expect("a cut at a line end parses");
        assert!(gate(&base, &cur, &real_bounds()).iter().any(|(f, _)| *f));
    }

    #[test]
    fn other_lines_are_usage_errors() {
        for bad in [
            "place_huge hpwl 1",
            "place_huge hpwl one dbu",
            "place_huge hpwl 1 dbu extra",
            "warning: something",
            "",
            r#"{"attempted":5,"correct":tr"#,
        ] {
            assert!(parse(&format!("{RUN}{bad}\n")).is_err(), "{bad:?}");
        }
        assert!(parse(&format!("{RUN}place_huge hpwl 1 dbu\n")).is_err());
    }
}
