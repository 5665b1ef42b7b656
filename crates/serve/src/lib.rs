#![warn(missing_docs)]

//! Placement-as-a-service: `sdp-serve` wraps the structure-aware flow
//! in a concurrent job engine behind a dependency-free HTTP/1.1 API.
//!
//! ```text
//! POST   /jobs            submit a job spec (dpgen preset or Bookshelf
//!                         payload + flow overrides) → 202 {"id": N}
//! GET    /jobs/:id        status: state, phase, progress, timings
//! GET    /jobs/:id/result the deterministic result body (200),
//!                         409 while unfinished, 500 if the job crashed
//! DELETE /jobs/:id        cooperative cancellation (mid-phase)
//! GET    /metrics         Prometheus text exposition
//! GET    /healthz         liveness
//! ```
//!
//! Design points:
//!
//! - **Backpressure, not buffering.** The queue is bounded; a full queue
//!   rejects with 429 instead of accepting unbounded work.
//! - **Crash isolation.** Each job runs under `catch_unwind`; a panic
//!   fails that job (structured 500) and nothing else.
//! - **Determinism.** Result bodies contain only spec-determined data —
//!   two identical-seed jobs are byte-identical at any worker count.
//!   That invariant is *exploited*, not just promised: identical specs
//!   are answered from a content-addressed result cache ([`canon`],
//!   `cache`), coalesced onto in-flight runs, and replayed from a
//!   persistent store across restarts (`store`).
//! - **Graceful shutdown.** [`ServerHandle::shutdown`] stops accepting,
//!   then drains queued and in-flight jobs before returning.

mod cache;
pub mod canon;
mod engine;
pub mod http;
mod metrics;
mod spec;
mod store;

pub mod client;

pub use canon::spec_hash;
pub use engine::{error_body, Engine, EngineConfig, JobState, SubmitError};
pub use spec::{parse_spec, CaseSource, JobSpec, SpecError, MAX_DEADLINE_MS};

use sdp_json::Json;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Server-level configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port on 127.0.0.1; `0` picks an ephemeral port (tests).
    pub port: u16,
    /// Placement worker threads (`0` allowed: queue-only mode).
    pub workers: usize,
    /// Bounded job-queue depth; beyond it submissions get 429.
    pub queue_depth: usize,
    /// Finished job records kept for result fetches before the oldest
    /// are evicted (their ids then 404); bounds server memory.
    pub retain_terminal: usize,
    /// Byte budget for the content-addressed result cache
    /// (`--cache-bytes`; `0` disables caching).
    pub cache_bytes: usize,
    /// Directory for the persistent job store (`--state-dir`); `None`
    /// keeps all state in memory.
    pub state_dir: Option<std::path::PathBuf>,
    /// Default kernel threads for jobs whose spec leaves `gp.threads`
    /// at 0 (`--threads`; `0` keeps "available parallelism").
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: 2,
            queue_depth: 16,
            retain_terminal: 256,
            cache_bytes: 64 * 1024 * 1024,
            state_dir: None,
            threads: 0,
        }
    }
}

/// The running server. Construct with [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `127.0.0.1:port`, starts the engine's worker pool and the
    /// accept loop, and returns a handle for inspection and shutdown.
    pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        let engine = Arc::new(Engine::start(EngineConfig {
            workers: cfg.workers,
            queue_depth: cfg.queue_depth,
            retain_terminal: cfg.retain_terminal,
            cache_bytes: cfg.cache_bytes,
            state_dir: cfg.state_dir.clone(),
            default_threads: cfg.threads,
        })?);
        let shutting = Arc::new(AtomicBool::new(false));

        let accept = {
            let engine = Arc::clone(&engine);
            let shutting = Arc::clone(&shutting);
            std::thread::Builder::new()
                .name("sdp-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &engine, &shutting))?
        };

        Ok(ServerHandle {
            engine,
            port,
            shutting,
            accept: Some(accept),
        })
    }
}

/// Handle to a running server: its port, engine, and shutdown control.
pub struct ServerHandle {
    engine: Arc<Engine>,
    port: u16,
    shutting: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound port (useful with an ephemeral `port: 0`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The job engine, for in-process inspection (tests, CLI reports).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Graceful shutdown: stop accepting connections, then drain the
    /// queue — every queued and in-flight job runs to completion before
    /// this returns.
    pub fn shutdown(&mut self) {
        if self.shutting.swap(true, Ordering::AcqRel) {
            return;
        }
        // The accept loop blocks in `accept()`; a loopback self-connect
        // wakes it so it can observe the flag and exit.
        #[allow(
            clippy::let_underscore_must_use,
            reason = "a failed self-connect means the listener is already gone, which is exactly \
                      the goal here"
        )]
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(handle) = self.accept.take() {
            #[allow(
                clippy::let_underscore_must_use,
                reason = "a join error only means the accept thread panicked on exit; shutdown \
                          proceeds either way and Drop must not panic"
            )]
            let _ = handle.join();
        }
        self.engine.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>, shutting: &Arc<AtomicBool>) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            // Accept errors are transient (EMFILE, aborted handshake);
            // keep serving unless we are shutting down.
            if shutting.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if shutting.load(Ordering::Acquire) {
            return;
        }
        let engine = Arc::clone(engine);
        let spawned = std::thread::Builder::new()
            .name("sdp-serve-conn".to_string())
            .spawn(move || {
                let mut stream = stream;
                handle_connection(&mut stream, &engine);
            });
        // Thread exhaustion: shed the connection rather than die.
        if spawned.is_err() {
            continue;
        }
    }
}

fn handle_connection(stream: &mut TcpStream, engine: &Engine) {
    let req = match http::read_request(stream) {
        Ok(req) => req,
        Err(http::HttpError::TooLarge) => {
            let body = error_body("request too large", "body exceeds the configured maximum");
            #[allow(
                clippy::let_underscore_must_use,
                reason = "best-effort error reply: the peer may already have hung up, and there \
                          is no channel left to report a failed error report on"
            )]
            let _ = http::write_response(stream, 413, "application/json", &body);
            return;
        }
        Err(http::HttpError::Malformed(m)) => {
            let body = error_body("malformed request", &m);
            #[allow(
                clippy::let_underscore_must_use,
                reason = "best-effort error reply: the peer may already have hung up, and there \
                          is no channel left to report a failed error report on"
            )]
            let _ = http::write_response(stream, 400, "application/json", &body);
            return;
        }
        Err(http::HttpError::LengthRequired) => {
            let body = error_body(
                "length required",
                "body-bearing requests must send Content-Length",
            );
            #[allow(
                clippy::let_underscore_must_use,
                reason = "best-effort error reply: the peer may already have hung up, and there \
                          is no channel left to report a failed error report on"
            )]
            let _ = http::write_response(stream, 411, "application/json", &body);
            return;
        }
        Err(http::HttpError::Io(_)) => return,
    };
    let (status, content_type, body) = route(engine, &req);
    #[allow(
        clippy::let_underscore_must_use,
        reason = "response-write failure means the client went away; the job result is already \
                  recorded and retrievable, so there is nothing to propagate to"
    )]
    let _ = http::write_response(stream, status, content_type, &body);
}

/// Routes one request to `(status, content-type, body)`.
fn route(engine: &Engine, req: &http::Request) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (
            200,
            JSON,
            Json::obj([("status", Json::str("ok"))]).to_string(),
        ),
        ("GET", "/metrics") => (200, "text/plain; version=0.0.4", engine.metrics_text()),
        ("POST", "/jobs") => match parse_spec(&req.body) {
            Err(SpecError(m)) => (400, JSON, error_body("invalid job spec", &m)),
            Ok(spec) => match engine.submit(spec) {
                Ok(id) => (
                    202,
                    JSON,
                    Json::obj([("id", Json::num(id as f64)), ("state", Json::str("queued"))])
                        .to_string(),
                ),
                Err(SubmitError::Busy) => (
                    429,
                    JSON,
                    error_body("queue full", "the job queue is at capacity; retry later"),
                ),
                Err(SubmitError::ShuttingDown) => {
                    (503, JSON, error_body("shutting down", "server is draining"))
                }
            },
        },
        (_, "/jobs") => (
            405,
            JSON,
            error_body("method not allowed", "use POST /jobs"),
        ),
        (method, path) if path.starts_with("/jobs/") => {
            route_job(engine, method, &path["/jobs/".len()..])
        }
        _ => (404, JSON, error_body("not found", &req.path)),
    }
}

/// Routes `/jobs/:id` and `/jobs/:id/result`. `rest` is everything after
/// the `/jobs/` prefix.
fn route_job(engine: &Engine, method: &str, rest: &str) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    let (id_part, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_part.parse::<u64>() else {
        return (400, JSON, error_body("bad job id", id_part));
    };
    match (method, tail) {
        ("GET", None) => match engine.status_json(id) {
            Some(body) => (200, JSON, body),
            None => (404, JSON, error_body("no such job", id_part)),
        },
        ("GET", Some("result")) => match engine.result_response(id) {
            Some((status, body)) => (status, JSON, body),
            None => (404, JSON, error_body("no such job", id_part)),
        },
        ("DELETE", None) => match engine.cancel(id) {
            Some(state) => (
                200,
                JSON,
                Json::obj([("id", Json::num(id as f64)), ("state", Json::str(state))]).to_string(),
            ),
            None => (404, JSON, error_body("no such job", id_part)),
        },
        (_, Some("result")) => (405, JSON, error_body("method not allowed", "use GET")),
        (_, None) => (
            405,
            JSON,
            error_body("method not allowed", "use GET or DELETE"),
        ),
        _ => (404, JSON, error_body("not found", rest)),
    }
}
