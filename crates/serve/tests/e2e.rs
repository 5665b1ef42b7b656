//! End-to-end tests: a real server on a loopback ephemeral port, driven
//! through the HTTP API exactly as an external client would.

use sdp_json::Json;
use sdp_serve::client::{request, wait_for_job};
use sdp_serve::{JobState, Server, ServerConfig};
use std::time::Duration;

fn start(workers: usize, queue_depth: usize) -> sdp_serve::ServerHandle {
    start_cfg(ServerConfig {
        workers,
        queue_depth,
        ..ServerConfig::default()
    })
}

fn start_cfg(cfg: ServerConfig) -> sdp_serve::ServerHandle {
    Server::start(ServerConfig { port: 0, ..cfg }).expect("server starts on an ephemeral port")
}

/// Submits a spec and returns the job id from the 202 body.
fn submit(port: u16, spec: &str) -> u64 {
    let (status, body) = request(port, "POST", "/jobs", spec).expect("submit");
    assert_eq!(status, 202, "submit body: {body}");
    let v = sdp_json::parse(&body).expect("202 body is JSON");
    v.get("id")
        .and_then(|x| x.as_u64())
        .expect("202 body has id")
}

const TINY: &str = r#"{"design": {"preset": "dp_tiny", "seed": 3}, "flow": {"fast": true}}"#;

#[test]
fn submit_poll_result_roundtrip_and_determinism() {
    // Cache disabled and submissions sequential: the second job really
    // re-runs placement, so this pins the determinism invariant itself
    // rather than the cache shortcut built on it.
    let server = start_cfg(ServerConfig {
        workers: 4,
        queue_depth: 16,
        cache_bytes: 0,
        ..ServerConfig::default()
    });
    let port = server.port();

    let (status, body) = request(port, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));

    let a = submit(port, TINY);
    let sa = wait_for_job(port, a, Duration::from_secs(120)).unwrap();
    assert!(sa.contains(r#""state":"done""#), "{sa}");
    assert!(sa.contains("\"phase_s\""), "{sa}");
    let b = submit(port, TINY);
    assert_ne!(a, b);
    let sb = wait_for_job(port, b, Duration::from_secs(120)).unwrap();
    assert!(sb.contains(r#""state":"done""#), "{sb}");

    let (sa, ra) = request(port, "GET", &format!("/jobs/{a}/result"), "").unwrap();
    let (sb, rb) = request(port, "GET", &format!("/jobs/{b}/result"), "").unwrap();
    assert_eq!((sa, sb), (200, 200));
    assert_eq!(
        ra, rb,
        "identical specs must produce byte-identical results"
    );
    assert!(
        ra.contains("\"hpwl\"") && ra.contains("\"placement\""),
        "{ra}"
    );
    // Nothing run-specific may leak into the result body.
    assert!(!ra.contains("\"id\"") && !ra.contains("seconds"), "{ra}");

    // Metrics reflect the completed jobs.
    let (ms, metrics) = request(port, "GET", "/metrics", "").unwrap();
    assert_eq!(ms, 200);
    assert!(
        metrics.contains("sdp_serve_jobs_submitted_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sdp_serve_jobs_completed_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sdp_serve_phase_seconds_bucket"),
        "{metrics}"
    );
}

#[test]
fn full_queue_rejects_with_429() {
    // Zero workers and distinct seeds: the queue cannot drain and
    // nothing coalesces, so the bound is exact.
    let server = start(0, 2);
    let port = server.port();
    let spec = |seed: u64| format!(r#"{{"design": {{"preset": "dp_tiny", "seed": {seed}}}}}"#);
    submit(port, &spec(1));
    submit(port, &spec(2));
    let (status, body) = request(port, "POST", "/jobs", &spec(3)).unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");
    let (_, metrics) = request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.contains("sdp_serve_jobs_rejected_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("sdp_serve_queue_depth 2"), "{metrics}");
}

#[test]
fn cancellation_lands_mid_phase() {
    let server = start(1, 4);
    let port = server.port();
    // Full-effort medium design: long enough that cancellation is
    // requested while global placement is iterating.
    let id = submit(
        port,
        r#"{"design": {"preset": "dp_medium", "seed": 1}, "flow": {"fast": false}}"#,
    );

    // Wait until the job reports a running phase…
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = request(port, "GET", &format!("/jobs/{id}"), "").unwrap();
        if body.contains(r#""state":"running""#) && body.contains("\"phase\"") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never started running: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // …then cancel it mid-flight.
    let (status, body) = request(port, "DELETE", &format!("/jobs/{id}"), "").unwrap();
    assert_eq!(status, 200, "{body}");

    let final_body = wait_for_job(port, id, Duration::from_secs(60)).unwrap();
    assert!(
        final_body.contains(r#""state":"cancelled""#),
        "{final_body}"
    );
    assert!(final_body.contains("cancelled by client"), "{final_body}");

    let (rs, rb) = request(port, "GET", &format!("/jobs/{id}/result"), "").unwrap();
    assert_eq!(rs, 409, "cancelled jobs have no result: {rb}");
}

#[test]
fn malformed_requests_get_structured_400s() {
    let server = start(1, 4);
    let port = server.port();

    // Invalid JSON.
    let (status, body) = request(port, "POST", "/jobs", "{not json").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("invalid JSON"), "{body}");

    // Valid JSON, unknown key (strict parsing).
    let (status, body) = request(
        port,
        "POST",
        "/jobs",
        r#"{"design": {"preset": "dp_tiny"}, "bogus": 1}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("bogus"), "{body}");

    // A Bookshelf payload that fails the netlist reader: the parse error
    // surfaces synchronously in the 400 body.
    let (status, body) = request(
        port,
        "POST",
        "/jobs",
        r#"{"design": {"bookshelf": {"nodes": "NumNoodles : 1", "nets": "", "pl": "", "scl": ""}}}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("bookshelf payload"), "{body}");

    // Unknown job / bad id / wrong method.
    let (status, _) = request(port, "GET", "/jobs/999", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = request(port, "GET", "/jobs/banana", "").unwrap();
    assert_eq!(status, 400);
    let (status, _) = request(port, "PUT", "/jobs", "{}").unwrap();
    assert_eq!(status, 405);
    let (status, _) = request(port, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
}

/// Sends raw bytes (in `chunks`) over one connection and returns the
/// response status line's code, or `None` if the server reset the
/// connection before a response could be read (it closes as soon as it
/// rejects, and unread request bytes then surface as a TCP RST). For
/// requests the `client` helper cannot produce (missing headers,
/// oversized heads).
fn raw_request(port: u16, chunks: &[&[u8]]) -> Option<u16> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    #[allow(
        clippy::let_underscore_must_use,
        reason = "set_read_timeout only fails on a zero Duration, and this one is nonzero"
    )]
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    for chunk in chunks {
        if stream
            .write_all(chunk)
            .and_then(|()| stream.flush())
            .is_err()
        {
            break; // server already gave up on the request
        }
    }
    let mut response = Vec::new();
    if stream.read_to_end(&mut response).is_err() || response.is_empty() {
        return None;
    }
    let text = std::str::from_utf8(&response).unwrap();
    Some(text.split_whitespace().nth(1).unwrap().parse().unwrap())
}

#[test]
fn post_without_content_length_gets_411() {
    let server = start(0, 2);
    let port = server.port();
    let status = raw_request(
        port,
        &[b"POST /jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"],
    );
    assert_eq!(
        status,
        Some(411),
        "body-bearing method without Content-Length"
    );
    // A GET without Content-Length stays fine — no body expected.
    let (status, _) = request(port, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    // So does a POST that declares an empty body explicitly.
    let (status, body) = request(port, "POST", "/jobs", "").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid JSON"), "{body}");
}

#[test]
fn many_chunk_header_parses_and_oversized_header_is_rejected() {
    let server = start(0, 2);
    let port = server.port();

    // A valid request whose head arrives in many small writes, padded
    // with filler headers across many 4KB read chunks — exercises the
    // incremental terminator scan (and would crawl under the old
    // O(n²) rescan if it regressed).
    let filler: String = (0..400)
        .map(|i| format!("X-Pad-{i}: {}\r\n", "v".repeat(100)))
        .collect();
    let head = format!("GET /healthz HTTP/1.1\r\nHost: x\r\n{filler}Connection: close\r\n\r\n");
    assert!(head.len() > 16 * 1024, "filler spans many read chunks");
    let chunks: Vec<&[u8]> = head.as_bytes().chunks(512).collect();
    assert_eq!(raw_request(port, &chunks), Some(200));

    // Past MAX_HEAD the server rejects rather than buffering forever —
    // either a clean 400 or an immediate close (RST when our unread
    // bytes are still in flight), never an accepted request.
    let huge: String = (0..1300)
        .map(|i| format!("X-Pad-{i}: {}\r\n", "v".repeat(100)))
        .collect();
    let head = format!("GET /healthz HTTP/1.1\r\nHost: x\r\n{huge}Connection: close\r\n\r\n");
    assert!(head.len() > 128 * 1024);
    let status = raw_request(port, &[head.as_bytes()]);
    assert!(
        status == Some(400) || status.is_none(),
        "oversized head must be rejected, got {status:?}"
    );
}

#[test]
fn panicking_job_fails_alone_while_server_keeps_serving() {
    let server = start(1, 8);
    let port = server.port();

    let bad = submit(
        port,
        r#"{"design": {"preset": "dp_tiny", "seed": 5}, "chaos": "panic"}"#,
    );
    let good = submit(port, TINY);

    let bad_status = wait_for_job(port, bad, Duration::from_secs(30)).unwrap();
    assert!(bad_status.contains(r#""state":"failed""#), "{bad_status}");

    let (status, body) = request(port, "GET", &format!("/jobs/{bad}/result"), "").unwrap();
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("chaos requested"), "{body}");

    // The same single worker survives the panic and serves the next job.
    let good_status = wait_for_job(port, good, Duration::from_secs(120)).unwrap();
    assert!(good_status.contains(r#""state":"done""#), "{good_status}");
    let (status, _) = request(port, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    let (_, metrics) = request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.contains("sdp_serve_jobs_failed_total 1"),
        "{metrics}"
    );
}

#[test]
fn repeat_submission_is_served_from_the_cache() {
    let server = start(1, 8);
    let port = server.port();

    let a = submit(port, TINY);
    let sa = wait_for_job(port, a, Duration::from_secs(120)).unwrap();
    assert!(sa.contains(r#""state":"done""#), "{sa}");
    let (_, ra) = request(port, "GET", &format!("/jobs/{a}/result"), "").unwrap();

    // The repeat is Done before we ever poll: one status GET suffices.
    let t0 = std::time::Instant::now();
    let b = submit(port, TINY);
    let (_, sb) = request(port, "GET", &format!("/jobs/{b}"), "").unwrap();
    let hit_latency = t0.elapsed();
    assert!(
        sb.contains(r#""state":"done""#),
        "cache hit is done at submit time: {sb}"
    );
    assert!(
        hit_latency < Duration::from_millis(250),
        "submit+status of a hit took {hit_latency:?} — it must not run placement"
    );

    let (status, rb) = request(port, "GET", &format!("/jobs/{b}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ra, rb, "cached bytes identical to the placed bytes");

    let (_, metrics) = request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.contains("sdp_serve_cache_hits_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sdp_serve_jobs_completed_total 1"),
        "placement ran once for two submissions: {metrics}"
    );
    assert!(!metrics.contains("sdp_serve_cache_bytes 0\n"), "{metrics}");
}

#[test]
fn restart_with_state_dir_serves_prior_results() {
    let dir = std::env::temp_dir().join(format!("sdp-e2e-state-{}", std::process::id()));
    #[allow(
        clippy::let_underscore_must_use,
        reason = "clearing a previous run's leftovers; the dir usually does not exist"
    )]
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServerConfig {
        workers: 1,
        queue_depth: 8,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let (id, body) = {
        let mut server = start_cfg(cfg());
        let port = server.port();
        let id = submit(port, TINY);
        let s = wait_for_job(port, id, Duration::from_secs(120)).unwrap();
        assert!(s.contains(r#""state":"done""#), "{s}");
        let (_, body) = request(port, "GET", &format!("/jobs/{id}/result"), "").unwrap();
        server.shutdown();
        (id, body)
    };

    // Restart with zero workers: everything served must come from the
    // replayed log, not from re-running placement.
    let server = start_cfg(ServerConfig {
        workers: 0,
        ..cfg()
    });
    let port = server.port();
    let (status, replayed) = request(port, "GET", &format!("/jobs/{id}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(replayed, body, "pre-restart result survives byte-for-byte");
    let (_, metrics) = request(port, "GET", "/metrics", "").unwrap();
    assert!(metrics.contains("sdp_serve_replayed_total 1"), "{metrics}");

    // The replayed body warmed the cache: a repeat submission completes
    // with no workers at all.
    let dup = submit(port, TINY);
    let (_, s) = request(port, "GET", &format!("/jobs/{dup}"), "").unwrap();
    assert!(s.contains(r#""state":"done""#), "{s}");
    let (_, rb) = request(port, "GET", &format!("/jobs/{dup}/result"), "").unwrap();
    assert_eq!(rb, body);
    drop(server);
    #[allow(
        clippy::let_underscore_must_use,
        reason = "best-effort cleanup after the assertions have passed"
    )]
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn absurd_deadline_is_rejected_and_kills_no_worker() {
    let server = start(1, 8);
    let port = server.port();

    // Over the parse-time cap (≈ one year) and the old panic payload
    // (u64::MAX) both get a clean 400 — never a worker-killing overflow.
    for bad in ["31622400001", "18446744073709551615"] {
        let spec =
            format!(r#"{{"design": {{"preset": "dp_tiny", "seed": 3}}, "deadline_ms": {bad}}}"#);
        let (status, body) = request(port, "POST", "/jobs", &spec).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("deadline_ms"), "{body}");
    }

    // The regression this pins: every worker is still alive, and the
    // next job completes on this same pool.
    let (_, metrics) = request(port, "GET", "/metrics", "").unwrap();
    assert!(metrics.contains("sdp_serve_workers_live 1"), "{metrics}");
    let id = submit(port, TINY);
    let s = wait_for_job(port, id, Duration::from_secs(120)).unwrap();
    assert!(s.contains(r#""state":"done""#), "{s}");
}

#[test]
fn conflicting_content_length_is_rejected() {
    let server = start(0, 2);
    let port = server.port();
    let status = raw_request(
        port,
        &[b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 3\r\nConnection: close\r\n\r\n{}x"],
    );
    assert_eq!(
        status,
        Some(400),
        "smuggling-shaped request must be rejected"
    );
    // Duplicates that agree stay acceptable.
    let status = raw_request(
        port,
        &[b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"],
    );
    assert_eq!(status, Some(200));
}

#[test]
fn graceful_shutdown_drains_the_queue() {
    let mut server = start(1, 8);
    let port = server.port();
    let ids: Vec<u64> = (0..3)
        .map(|k| {
            submit(
                port,
                &format!(r#"{{"design": {{"preset": "dp_tiny", "seed": {k}}}}}"#),
            )
        })
        .collect();

    server.shutdown();

    // Every job — including ones still queued at shutdown — ran to done.
    for id in ids {
        let (state, has_result) = server.engine().peek_state(id).expect("job exists");
        assert_eq!(state, JobState::Done, "job {id} drained");
        assert!(has_result);
    }
}

const ROUTE_SMALL: &str =
    r#"{"design": {"preset": "dp_small", "seed": 3}, "flow": {"fast": true, "mode": "route"}}"#;

#[test]
fn route_mode_results_are_identical_across_workers_and_threads() {
    // Cache disabled on both servers so every submission really runs
    // placement + the feedback loop: this pins the route-mode
    // determinism invariant (fixed-chunk RUDY/inflation reductions),
    // not the cache shortcut built on it.
    let s1 = start_cfg(ServerConfig {
        workers: 1,
        queue_depth: 8,
        cache_bytes: 0,
        ..ServerConfig::default()
    });
    let s4 = start_cfg(ServerConfig {
        workers: 4,
        queue_depth: 8,
        cache_bytes: 0,
        ..ServerConfig::default()
    });

    let body_of = |port: u16, spec: &str| {
        let id = submit(port, spec);
        let s = wait_for_job(port, id, Duration::from_secs(300)).unwrap();
        assert!(s.contains(r#""state":"done""#), "{s}");
        let (status, body) = request(port, "GET", &format!("/jobs/{id}/result"), "").unwrap();
        assert_eq!(status, 200);
        body
    };

    let a = body_of(s1.port(), ROUTE_SMALL);
    // Same spec, explicit kernel thread count: threads are excluded from
    // the canonical form because they may not change result bytes.
    let threaded = ROUTE_SMALL.replace(r#""mode": "route""#, r#""mode": "route", "threads": 4"#);
    let b = body_of(s1.port(), &threaded);
    let c = body_of(s4.port(), ROUTE_SMALL);
    assert_eq!(a, b, "route-mode bytes must not depend on --threads");
    assert_eq!(a, c, "route-mode bytes must not depend on worker count");
    assert!(
        a.contains(r#""route":{"feedback_rounds""#)
            && a.contains("max_utilization")
            && a.contains("rrr_iterations")
            && a.contains("wirelength"),
        "route-mode results carry routed metrics: {a}"
    );
    // HPWL-mode results stay route-free (byte-stable vs older servers).
    let plain = body_of(s1.port(), TINY);
    assert!(!plain.contains(r#""route""#), "{plain}");
}

#[test]
fn route_mode_repeat_submission_is_a_cache_hit() {
    let server = start(1, 8);
    let port = server.port();

    let a = submit(port, ROUTE_SMALL);
    let sa = wait_for_job(port, a, Duration::from_secs(300)).unwrap();
    assert!(sa.contains(r#""state":"done""#), "{sa}");
    let (_, ra) = request(port, "GET", &format!("/jobs/{a}/result"), "").unwrap();

    let t0 = std::time::Instant::now();
    let b = submit(port, ROUTE_SMALL);
    let (_, sb) = request(port, "GET", &format!("/jobs/{b}"), "").unwrap();
    let hit_latency = t0.elapsed();
    assert!(
        sb.contains(r#""state":"done""#),
        "route-mode cache hit is done at submit time: {sb}"
    );
    assert!(
        hit_latency < Duration::from_millis(250),
        "submit+status of a hit took {hit_latency:?} — it must not re-run the loop"
    );
    let (status, rb) = request(port, "GET", &format!("/jobs/{b}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        ra, rb,
        "cached route-mode bytes identical to the placed bytes"
    );
    let (_, metrics) = request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.contains("sdp_serve_cache_hits_total 1"),
        "{metrics}"
    );
}

#[test]
fn route_mode_cancellation_lands_mid_route() {
    let server = start(1, 4);
    let port = server.port();
    // dp_medium overflows under the default track budget, so the RRR
    // loop reroutes through the maze router — long enough that the
    // status poll below reliably observes the route phase.
    let id = submit(
        port,
        r#"{"design": {"preset": "dp_medium", "seed": 1}, "flow": {"fast": true, "mode": "route"}}"#,
    );

    // Wait until the job reports the route phase specifically…
    let deadline = std::time::Instant::now() + Duration::from_secs(300);
    loop {
        let (_, body) = request(port, "GET", &format!("/jobs/{id}"), "").unwrap();
        if body.contains(r#""phase":"route""#) {
            break;
        }
        assert!(
            !body.contains(r#""state":"done""#),
            "job finished before the route phase was observed: {body}"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "job never reached the route phase: {body}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // …then cancel it mid-route: the router's checkpoint stride must
    // surface the token promptly even inside rip-up-and-reroute.
    let t0 = std::time::Instant::now();
    let (status, body) = request(port, "DELETE", &format!("/jobs/{id}"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    let final_body = wait_for_job(port, id, Duration::from_secs(60)).unwrap();
    let cancel_latency = t0.elapsed();
    assert!(
        final_body.contains(r#""state":"cancelled""#),
        "{final_body}"
    );
    assert!(
        cancel_latency < Duration::from_secs(30),
        "cancellation took {cancel_latency:?} — checkpoints must fire inside routing"
    );
    let (rs, rb) = request(port, "GET", &format!("/jobs/{id}/result"), "").unwrap();
    assert_eq!(rs, 409, "cancelled jobs have no result: {rb}");
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_keeps_serving() {
    let server = start(0, 2);
    let port = server.port();
    let (status, body) = request(port, "POST", "/jobs", &"[".repeat(200_000)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    let (status, body) = request(port, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));
}

#[test]
fn absurd_thread_count_is_a_400_and_the_server_keeps_serving() {
    // A million kernel threads would make the job's GP run try to spawn
    // them all; the spec is refused before anything is queued.
    let server = start(1, 2);
    let port = server.port();
    let spec = r#"{"design": {"preset": "dp_tiny"}, "flow": {"threads": 1000000}}"#;
    let (status, body) = request(port, "POST", "/jobs", spec).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("`threads` must be in 0..=256"), "{body}");
    let (status, body) = request(port, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));
}

#[test]
fn malformed_route_mode_is_a_structured_400() {
    let server = start(0, 2);
    let port = server.port();
    for bad in [
        r#"{"design": {"preset": "dp_tiny"}, "flow": {"mode": "steiner"}}"#,
        r#"{"design": {"preset": "dp_tiny"}, "flow": {"mode": 7}}"#,
    ] {
        let (status, body) = request(port, "POST", "/jobs", bad).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("mode"), "{body}");
    }
    // The queue stayed empty: rejected specs never become jobs.
    let (_, metrics) = request(port, "GET", "/metrics", "").unwrap();
    assert!(metrics.contains("sdp_serve_queue_depth 0"), "{metrics}");
}

#[test]
fn out_of_range_numbers_are_400s_and_the_server_keeps_serving() {
    // Each of these once reached a worker, which panicked on a NaN
    // rectangle; now each is refused when the spec is parsed.
    let server = start(1, 2);
    let port = server.port();
    let d = sdp_dpgen::generate(&sdp_dpgen::GenConfig::named("dp_tiny", 3).unwrap());
    let dir = std::env::temp_dir().join(format!("sdp-e2e-range-{}", std::process::id()));
    sdp_netlist::write_bookshelf(&dir, "t", &d.netlist, &d.design, &d.placement).unwrap();
    let member = |ext: &str| std::fs::read_to_string(dir.join(format!("t.{ext}"))).unwrap();
    let nodes = member("nodes");
    assert!(nodes.contains("dp_tiny_0 2 1"));
    let bundle = Json::obj([(
        "design",
        Json::obj([(
            "bookshelf",
            Json::obj([
                (
                    "nodes",
                    Json::str(nodes.replacen("dp_tiny_0 2 1", "dp_tiny_0 NaN 1", 1)),
                ),
                ("nets", Json::str(member("nets"))),
                ("pl", Json::str(member("pl"))),
                ("scl", Json::str(member("scl"))),
            ]),
        )]),
    )])
    .to_string();
    std::fs::remove_dir_all(&dir).unwrap();
    let weight = r#"{"design": {"preset": "dp_tiny"}, "flow": {"dp_net_weight": 1e308}}"#;
    let outers = r#"{"design": {"preset": "dp_tiny"}, "flow": {"refine_outers": 65}}"#;
    for (spec, names) in [
        (bundle.as_str(), "width `NaN` is outside"),
        (weight, "`dp_net_weight` must be a number in 1..=1000"),
        (outers, "`refine_outers` must be an integer in 0..=64"),
    ] {
        let (status, body) = request(port, "POST", "/jobs", spec).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(names), "{body}");
    }
    let (status, body) = request(port, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));
    let (_, metrics) = request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.contains("sdp_serve_jobs_failed_total 0"),
        "{metrics}"
    );
}
