//! The `serve_mixed` workload: closed-loop clients against a loopback
//! `sdp-serve` server, mixing cache hits with fresh placements.

use crate::flows;
use crate::measure;
use crate::stats::{median, tail};
use crate::trace::Span;
use crate::{Opts, Outcome, Workload, DESIGN_SEED};
use sdp_dpgen::generate;
use sdp_json::Json;
use sdp_serve::client::request;
use sdp_serve::{parse_spec, CaseSource, Server, ServerConfig, ServerHandle};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// How long a client waits for one job before counting it failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// The client's own status poll interval (`client::wait_for_job` sleeps
/// 25 ms, longer than a cache hit takes).
const POLL: Duration = Duration::from_millis(2);

/// Untraced/traced library-flow pairs behind `trace.overhead_frac`.
const OVERHEAD_PAIRS: usize = 5;

/// Server worker threads: one per vCPU of the 2-vCPU reference host.
const SERVE_WORKERS: usize = 2;

/// Closed-loop clients, one per worker, so placements queue only
/// behind each other's.
const CLIENTS: usize = 2;

/// Every `FRESH_EVERY`-th request of a client is a fresh spec.
const FRESH_EVERY: usize = 15;

/// A serve workload: a fresh server per repetition, [`CLIENTS`]
/// closed-loop clients with no think time, each sending
/// `requests_per_client` requests. Every [`FRESH_EVERY`]-th request is a
/// fresh spec (the pinned design with a new flow seed drawn from
/// `--seed`); the others repeat one of that client's completed specs,
/// so they are cache hits and nothing coalesces.
pub struct ServeSpec {
    pub preset: &'static str,
    pub requests_per_client: usize,
    /// Repetitions run whatever the time budget; their fresh jobs give
    /// the quality metrics, so those never depend on how many more
    /// repetitions fit.
    pub min_reps: usize,
}

impl ServeSpec {
    /// Two clients × 120 requests, one in 15 fresh (`dp_small`, sequential
    /// kernels): reads beside writes on two workers.
    pub fn mixed() -> Self {
        ServeSpec {
            preset: "dp_small",
            requests_per_client: 120,
            min_reps: 3,
        }
    }

    fn spec(&self, flow_seed: u64) -> String {
        format!(
            r#"{{"design": {{"preset": "{}", "seed": {DESIGN_SEED}}}, "flow": {{"seed": {flow_seed}, "threads": 1}}}}"#,
            self.preset
        )
    }
}

/// splitmix64: the benchmark's own seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One client's requests for one repetition: the fresh specs it will
/// send and, per request, which spec and whether it is fresh.
struct Plan {
    specs: Vec<String>,
    requests: Vec<(usize, bool)>,
}

/// Deterministic per (`seed`, repetition): fresh flow seeds are unique
/// across clients and repetitions (`used`), and a repeat only names a
/// spec the client sent earlier, so it is answered from the cache.
fn plans(spec: &ServeSpec, seed: u64, rep: usize, used: &mut BTreeSet<u64>) -> Vec<Plan> {
    (0..CLIENTS)
        .map(|client| {
            let mut rng = Rng(seed ^ ((rep as u64) << 32) ^ ((client as u64) << 48));
            let mut specs = Vec::new();
            let requests = (0..spec.requests_per_client)
                .map(|k| {
                    if k % FRESH_EVERY == 0 {
                        // Below 2^53, so the JSON number is exact.
                        let flow_seed = loop {
                            let s = rng.next() % 1_000_000_000;
                            if used.insert(s) {
                                break s;
                            }
                        };
                        specs.push(spec.spec(flow_seed));
                        (specs.len() - 1, true)
                    } else {
                        ((rng.next() % specs.len() as u64) as usize, false)
                    }
                })
                .collect();
            Plan { specs, requests }
        })
        .collect()
}

/// A fresh request's measurements.
struct Miss {
    latency: f64,
    queue_wait: f64,
    run: f64,
    hpwl: f64,
    dp_hpwl: f64,
}

#[derive(Default)]
struct ClientLog {
    hits: Vec<f64>,
    misses: Vec<Miss>,
    failures: Vec<String>,
    spans: Vec<Span>,
}

fn field(body: &str, path: &[&str]) -> Option<f64> {
    let v = sdp_json::parse(body).ok()?;
    path.iter().try_fold(&v, |v, k| v.get(k))?.as_f64()
}

/// Submits one spec, polls it to a terminal state, and fetches its
/// result. Returns the status and result bodies and the three phase
/// boundaries (submitted, settled, fetched) as instants.
fn one_request(port: u16, spec: &str) -> Result<(String, String, [Instant; 3]), String> {
    let io = |e: std::io::Error| e.to_string();
    let (code, body) = request(port, "POST", "/jobs", spec).map_err(io)?;
    if code != 202 {
        return Err(format!("submit answered {code}: {body}"));
    }
    let submitted = Instant::now();
    let id = field(&body, &["id"]).ok_or_else(|| format!("no job id in {body}"))?;
    let status = loop {
        let (code, status) = request(port, "GET", &format!("/jobs/{id}"), "").map_err(io)?;
        let state = sdp_json::parse(&status)
            .ok()
            .and_then(|v| v.get("state").and_then(Json::as_str).map(str::to_string));
        match state.as_deref() {
            Some("done") => break status,
            Some("queued" | "running") if submitted.elapsed() < JOB_TIMEOUT => {
                std::thread::sleep(POLL)
            }
            _ => return Err(format!("job {id} did not reach done ({code}): {status}")),
        }
    };
    let settled = Instant::now();
    let (code, result) = request(port, "GET", &format!("/jobs/{id}/result"), "").map_err(io)?;
    if code != 200 {
        return Err(format!("result of job {id} answered {code}"));
    }
    Ok((status, result, [submitted, settled, Instant::now()]))
}

fn run_client(port: u16, plan: &Plan, lane: u32, anchor: Instant, spans: bool) -> ClientLog {
    let mut log = ClientLog::default();
    let mut bodies: Vec<Option<String>> = vec![None; plan.specs.len()];
    let secs = |t: Instant| t.duration_since(anchor).as_secs_f64();
    for &(ix, fresh) in &plan.requests {
        let t0 = Instant::now();
        let (status, result, [t1, t2, t3]) = match one_request(port, &plan.specs[ix]) {
            Ok(ok) => ok,
            Err(e) => {
                log.failures.push(e);
                continue;
            }
        };
        let latency = t3.duration_since(t0).as_secs_f64();
        if fresh {
            let num = |path: &[&str]| field(&result, path).unwrap_or(f64::NAN);
            if num(&["legal_violations"]) != 0.0 {
                log.failures
                    .push(format!("fresh job not legal: {}", plan.specs[ix]));
                continue;
            }
            log.misses.push(Miss {
                latency,
                queue_wait: field(&status, &["queue_wait_s"]).unwrap_or(0.0),
                run: field(&status, &["run_s"]).unwrap_or(0.0),
                hpwl: num(&["hpwl", "total"]),
                dp_hpwl: num(&["hpwl", "datapath"]),
            });
            bodies[ix] = Some(result);
        } else if bodies[ix].as_deref() == Some(result.as_str()) {
            log.hits.push(latency);
        } else {
            log.failures.push(format!(
                "repeat of {} is not byte-identical to its first result",
                plan.specs[ix]
            ));
            continue;
        }
        if spans {
            let root = log.spans.len();
            let span = |name, a, b, parent| Span {
                name,
                start: secs(a),
                end: secs(b),
                parent,
                lane,
            };
            log.spans.push(span(
                if fresh { "serve.miss" } else { "serve.hit" },
                t0,
                t3,
                None,
            ));
            log.spans.push(span("serve.submit", t0, t1, Some(root)));
            log.spans.push(span("serve.wait", t1, t2, Some(root)));
            log.spans.push(span("serve.result", t2, t3, Some(root)));
        }
    }
    log
}

/// One repetition's outcome.
struct Rep {
    wall: f64,
    requests: usize,
    logs: Vec<ClientLog>,
    cache_hits: f64,
    completed: f64,
    fresh: usize,
}

/// Starts a server on a free loopback port and waits until it answers
/// `/healthz`; returns it with the seconds that took.
fn start_server() -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let server = Server::start(ServerConfig {
        port: 0,
        workers: SERVE_WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    match request(server.port(), "GET", "/healthz", "") {
        Ok((200, _)) => Ok((server, t.elapsed().as_secs_f64())),
        other => Err(format!("healthz: {other:?}")),
    }
}

fn serve_rep(plans: &[Plan], spans: bool) -> Result<Rep, String> {
    let (mut server, _) = start_server()?;
    let port = server.port();
    let anchor = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| s.spawn(move || run_client(port, plan, c as u32 + 2, anchor, spans)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = anchor.elapsed().as_secs_f64();

    let (_, metrics) = request(port, "GET", "/metrics", "").map_err(|e| format!("metrics: {e}"))?;
    let counter = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    server.shutdown();
    Ok(Rep {
        wall,
        requests: plans.iter().map(|p| p.requests.len()).sum(),
        logs,
        cache_hits: counter("sdp_serve_cache_hits_total"),
        completed: counter("sdp_serve_jobs_completed_total"),
        fresh: plans.iter().map(|p| p.specs.len()).sum(),
    })
}

/// Counts a repetition's requests and failed requests, plus its
/// server-side check: one placement ran per fresh spec.
fn account(out: &mut Outcome, rep: &Rep) {
    out.attempted += rep.requests as u64;
    for log in &rep.logs {
        out.failed += log.failures.len() as u64;
        out.errors.extend(log.failures.iter().cloned());
    }
    out.record(if rep.completed == rep.fresh as f64 {
        Ok(())
    } else {
        Err(format!(
            "server completed {} placements for {} fresh specs",
            rep.completed, rep.fresh
        ))
    });
}

/// The serve workload after set-up: the request stream's seed and what
/// its repetitions measured so far.
pub struct Serve {
    spec: ServeSpec,
    seed: u64,
    setup_s: f64,
    /// Flow seeds sent so far, so every fresh spec is new to the run.
    used: BTreeSet<u64>,
    reps: Vec<Rep>,
    refs: Vec<f64>,
    peak_rss: f64,
    out: Outcome,
}

impl Serve {
    /// Times repeated server starts (up to `/healthz` answering) for
    /// `setup_s`; every repetition then starts a fresh server.
    pub fn setup(spec: ServeSpec, opts: &Opts) -> Self {
        let mut out = Outcome::default();
        let setup_s = measure::setup_s(opts.seconds, || match start_server() {
            Ok((_server, s)) => s,
            Err(e) => {
                out.record(Err(e));
                f64::NAN
            }
        });
        Serve {
            spec,
            seed: opts.seed,
            setup_s,
            used: BTreeSet::new(),
            reps: Vec::new(),
            refs: Vec::new(),
            peak_rss: 0.0,
            out,
        }
    }
}

impl Workload for Serve {
    fn min_reps(&self) -> usize {
        self.spec.min_reps
    }

    fn rep(&mut self, rep: usize) {
        self.refs.push(measure::host_ref_ms());
        let plans = plans(&self.spec, self.seed, rep, &mut self.used);
        measure::reset_peak_rss();
        let result = serve_rep(&plans, false);
        self.peak_rss = self.peak_rss.max(measure::peak_rss_bytes());
        match result {
            Ok(r) => self.reps.push(r),
            Err(e) => self.out.record(Err(e)),
        }
    }

    fn finish(mut self: Box<Self>, opts: &Opts) -> Outcome {
        self.set_metrics();
        if opts.trace {
            self.traced(opts);
        }
        self.out
    }
}

impl Serve {
    /// The end-to-end and serve-layer metrics of the untraced repetitions.
    fn set_metrics(&mut self) {
        let reps = &self.reps;
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for rep in reps {
            account(&mut self.out, rep);
            for log in &rep.logs {
                hits.extend(&log.hits);
                misses.extend(&log.misses);
            }
        }
        // Quality over the fresh jobs of the first `min_reps` repetitions.
        let quality: Vec<&Miss> = reps
            .iter()
            .take(self.spec.min_reps)
            .flat_map(|r| r.logs.iter().flat_map(|l| &l.misses))
            .collect();
        let mean =
            |f: fn(&Miss) -> f64| quality.iter().map(|m| f(m)).sum::<f64>() / quality.len() as f64;
        let lat = |v: &[&Miss], f: fn(&Miss) -> f64| v.iter().map(|m| f(m)).collect::<Vec<f64>>();
        let miss_lat = lat(&misses, |m| m.latency);
        let requests: usize = reps.iter().map(|r| r.requests).sum();
        let cache_hits: f64 = reps.iter().map(|r| r.cache_hits).sum();

        let m = &mut self.out.metrics;
        m.set("flow_wall_s", median(&miss_lat));
        m.set(
            "jobs_per_s",
            (hits.len() + misses.len()) as f64 / reps.iter().map(|r| r.wall).sum::<f64>(),
        );
        m.set("setup_s", self.setup_s);
        m.set("hpwl", mean(|m| m.hpwl));
        m.set("dp_hpwl", mean(|m| m.dp_hpwl));
        m.set("peak_rss_bytes", self.peak_rss);
        m.set("host.ref_ms", median(&self.refs));
        m.set("serve.requests", requests as f64);
        m.set("serve.hits", hits.len() as f64);
        m.set("serve.misses", misses.len() as f64);
        m.set("serve.hit_p50_s", median(&hits));
        if let Some((pct, v)) = tail(&hits) {
            m.set("serve.hit_tail_pct", pct);
            m.set("serve.hit_tail_s", v);
        }
        if let Some((pct, v)) = tail(&miss_lat) {
            m.set("serve.miss_tail_pct", pct);
            m.set("serve.miss_tail_s", v);
        }
        m.set(
            "serve.queue_wait_p50_s",
            median(&lat(&misses, |m| m.queue_wait)),
        );
        m.set("serve.run_p50_s", median(&lat(&misses, |m| m.run)));
        m.set(
            "serve.http_overhead_p50_s",
            median(&lat(&misses, |m| m.latency - m.queue_wait - m.run)),
        );
        m.set("serve.cache_hits", cache_hits);
        m.set(
            "serve.placements_run",
            reps.iter().map(|r| r.completed).sum::<f64>(),
        );
        m.set("serve.hit_ratio", cache_hits / requests as f64);
    }

    /// The extra traced repetition: request spans from every client, and the
    /// first fresh spec placed through the library, untraced and traced in
    /// turn, for the layer breakdown and the tracing overhead.
    fn traced(&mut self, opts: &Opts) {
        let plans = plans(&self.spec, self.seed, self.reps.len(), &mut self.used);
        let out = &mut self.out;
        let mut spans = Vec::new();
        match serve_rep(&plans, true) {
            Ok(r) => {
                account(out, &r);
                for log in r.logs {
                    let base = spans.len();
                    spans.extend(log.spans.into_iter().map(|s| Span {
                        parent: s.parent.map(|p| p + base),
                        ..s
                    }));
                }
            }
            Err(e) => out.record(Err(e)),
        }

        let job = parse_spec(&plans[0].specs[0]).expect("the benchmark's specs parse");
        let CaseSource::Generated(gc) = &job.source else {
            unreachable!("the benchmark's specs name a preset")
        };
        let d = generate(gc);
        // A job takes a third of a second, so the overhead compares medians
        // of a few untraced and traced calls.
        let (mut plain, mut walls) = (Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..OVERHEAD_PAIRS {
            let (wall, reference) = flows::place(&d, &job.flow, None);
            plain.push(wall);
            out.record(flows::check(&reference, None));
            let (wall, fo, flow_spans) = flows::traced(&d, &job.flow);
            walls.push(wall);
            out.record(flows::check(&fo, Some(&reference)));
            last = Some((fo, flow_spans));
        }
        let (fo, flow_spans) = last.expect("OVERHEAD_PAIRS > 0");
        let layers = flows::layer_metrics(&mut out.metrics, &d, &job.flow, &fo, &flow_spans);
        out.record(layers);
        out.metrics
            .set("trace.overhead_frac", median(&walls) / median(&plain) - 1.0);
        flows::count_metrics(&mut out.metrics, &fo);

        // The library flow ran after the requests; its clock starts at 0.
        let shift = spans.iter().map(|s| s.end).fold(0.0, f64::max) - flow_spans[0].start;
        let base = spans.len();
        spans.extend(flow_spans.into_iter().map(|s| Span {
            start: s.start + shift,
            end: s.end + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
        out.write_trace(opts, &spans);
    }
}
