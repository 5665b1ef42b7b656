//! Outside-in tracing: a benchmark-owned [`Clock`] and [`ProgressSink`]
//! timestamp every progress report a flow makes, and [`flow_spans`]
//! rebuilds the span tree (phases, extraction stages, GP runs and outer
//! iterations, route pattern and rip-up-and-reroute passes) from that
//! report stream. Spans are kept in memory and written once, as Chrome
//! trace-event JSON that Perfetto opens.

use sdp_core::{Clock, Phase, ProgressSink};
use sdp_json::Json;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timestamped progress report, in seconds since the recorder's
/// anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    pub t: f64,
    pub phase: Phase,
    pub frac: f64,
}

/// Clock and progress sink in one: hand the same `Arc` to
/// `Observer::new` as both, so report timestamps and the flow's own
/// timers read one clock.
pub struct Recorder {
    anchor: Instant,
    reports: Mutex<Vec<Report>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            anchor: Instant::now(),
            reports: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the anchor.
    pub fn seconds(&self) -> f64 {
        self.anchor.elapsed().as_secs_f64()
    }

    /// Everything reported so far, in order.
    pub fn reports(&self) -> Vec<Report> {
        self.reports
            .lock()
            .expect("a report push never panics while holding the lock")
            .clone()
    }
}

impl Clock for Recorder {
    fn now(&self) -> Duration {
        self.anchor.elapsed()
    }
}

impl ProgressSink for Recorder {
    fn report(&self, phase: Phase, frac: f64) {
        let t = self.seconds();
        self.reports
            .lock()
            .expect("a report push never panics while holding the lock")
            .push(Report { t, phase, frac });
    }
}

/// A closed interval of work. `parent` indexes the same span list;
/// `lane` becomes the trace-event thread id.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub lane: u32,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

fn push(spans: &mut Vec<Span>, name: &'static str, start: f64, end: f64, parent: usize) -> usize {
    let lane = spans[parent].lane;
    spans.push(Span {
        name,
        start,
        end,
        parent: Some(parent),
        lane,
    });
    spans.len() - 1
}

/// Span name of a phase; the layer prefix of its metrics.
fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::Extract => "extract",
        Phase::Global => "gp",
        Phase::Legalize => "legal",
        Phase::Detailed => "detailed",
        Phase::Route => "route",
    }
}

/// Rebuilds the span tree of one flow call that ran from `start` to
/// `end` and made `reports`. Every report closes the interval since the
/// previous one, attributed to the reporting phase, so the phase spans
/// and the root's self time tile `[start, end]` exactly. `vcycle` says
/// the first global-placement run is the multilevel coarse pass.
///
/// The report protocol this relies on: extraction reports 0.4, 0.7 and
/// 1.0 after its three stages and the flow 1.0 again after folding;
/// every GP run reports once per outer iteration and ends with a 1.0
/// (so a run that exhausts its outer budget ends with two 1.0 reports);
/// the router reports `k/iters` at the start of each rip-up-and-reroute
/// pass — 0.0 right after pattern routing — and 1.0 when done.
pub fn flow_spans(start: f64, end: f64, reports: &[Report], vcycle: bool) -> Vec<Span> {
    let mut spans = vec![Span {
        name: "flow",
        start,
        end,
        parent: None,
        lane: 1,
    }];
    let mut prev = start;
    let mut first_gp = true;
    for block in reports.chunk_by(|a, b| a.phase == b.phase) {
        let phase = block[0].phase;
        let block_end = block[block.len() - 1].t;
        let p = push(&mut spans, phase_span(phase), prev, block_end, 0);
        let mut seg = prev;
        match phase {
            Phase::Extract if block.len() == 4 => {
                let stages = ["extract.signatures", "extract.relations", "extract.grow"];
                for (name, r) in stages.into_iter().zip(block) {
                    push(&mut spans, name, seg, r.t, p);
                    seg = r.t;
                }
            }
            Phase::Global => {
                let mut run_start = prev;
                let mut runs = 0;
                let mut outers = Vec::new();
                for (k, r) in block.iter().enumerate() {
                    let next_is_one = block.get(k + 1).is_some_and(|n| n.frac >= 1.0);
                    if r.frac >= 1.0 && !next_is_one {
                        let coarse = vcycle && first_gp && runs == 0;
                        let name = if coarse { "gp.vcycle" } else { "gp.run" };
                        let run = push(&mut spans, name, run_start, r.t, p);
                        for (s, e) in outers.drain(..) {
                            push(&mut spans, "gp.outer", s, e, run);
                        }
                        run_start = r.t;
                        runs += 1;
                    } else {
                        outers.push((seg, r.t));
                    }
                    seg = r.t;
                }
                first_gp = false;
            }
            Phase::Route => {
                for (k, r) in block.iter().enumerate() {
                    let name = if k == 0 { "route.pattern" } else { "route.rrr" };
                    push(&mut spans, name, seg, r.t, p);
                    seg = r.t;
                }
            }
            _ => {}
        }
        prev = block_end;
    }
    spans
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children covers.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Total duration of the spans called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.dur())
}

/// Chrome trace-event JSON of `spans` (complete `"X"` events in
/// microseconds, with span ids and parents in `args`).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str("sdplace")),
                ("ph", Json::str("X")),
                ("ts", Json::num(s.start * 1e6)),
                ("dur", Json::num(s.dur() * 1e6)),
                ("pid", Json::num(1.0)),
                ("tid", Json::num(f64::from(s.lane))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::num(i as f64)),
                        ("parent", Json::num(s.parent.map_or(-1.0, |p| p as f64))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(t: f64, phase: Phase, frac: f64) -> Report {
        Report { t, phase, frac }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            lane: 1,
        };
        let spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 5.0, Some(0)),
            span("c", 8.0, 12.0, Some(0)),
            span("a.x", 1.0, 2.0, Some(1)),
        ];
        let selfs = self_times(&spans);
        // Root: children cover [1, 5] and [8, 10] → 6 of 10.
        assert_eq!(selfs, vec![4.0, 2.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn spans_tile_the_flow_and_split_gp_runs() {
        use Phase::*;
        let reports = [
            r(1.0, Extract, 0.4),
            r(2.0, Extract, 0.7),
            r(3.0, Extract, 1.0),
            r(3.5, Extract, 1.0),
            // Coarse V-cycle: two outers, converged early.
            r(4.0, Global, 0.1),
            r(5.0, Global, 0.2),
            r(5.0, Global, 1.0),
            // Flat run: exhausts a 2-outer budget (1.0 twice).
            r(7.0, Global, 0.5),
            r(9.0, Global, 1.0),
            r(9.0, Global, 1.0),
            r(10.0, Legalize, 1.0),
            r(11.0, Detailed, 1.0),
            r(12.0, Route, 0.0),
            r(13.0, Route, 0.5),
            r(14.0, Route, 1.0),
        ];
        let spans = flow_spans(0.0, 15.0, &reports, true);
        let selfs = self_times(&spans);
        let phases: f64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.parent.is_none() || s.parent == Some(0))
            .map(|(s, &own)| if s.parent.is_none() { own } else { s.dur() })
            .sum();
        assert!((phases - 15.0).abs() < 1e-12, "phases tile the flow");
        assert_eq!(total(&spans, "extract.signatures"), 1.0);
        assert_eq!(total(&spans, "extract.grow"), 1.0);
        assert_eq!(total(&spans, "extract"), 3.5);
        assert_eq!(total(&spans, "gp"), 5.5);
        assert_eq!(total(&spans, "gp.vcycle"), 1.5);
        assert_eq!(total(&spans, "gp.run"), 4.0);
        assert_eq!(spans.iter().filter(|s| s.name == "gp.outer").count(), 4);
        assert_eq!(total(&spans, "route.pattern"), 1.0);
        assert_eq!(total(&spans, "route.rrr"), 2.0);
        assert_eq!(selfs[0], 1.0, "the tail after the last report");
        let vcycle = spans.iter().position(|s| s.name == "gp.vcycle");
        let coarse_outers = spans
            .iter()
            .filter(|s| s.name == "gp.outer" && s.parent == vcycle)
            .count();
        assert_eq!(coarse_outers, 2);
    }
}
