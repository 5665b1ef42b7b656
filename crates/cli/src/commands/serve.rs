//! `sdplace serve` — run the placement-as-a-service job server.

use crate::args::Args;
use crate::commands::threads_flag;
use sdp_serve::{Server, ServerConfig};

/// Runs the job server until stdin reaches EOF (Ctrl-D, or the parent
/// closing the pipe), then shuts down gracefully, draining queued and
/// in-flight jobs.
pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &[
            "port",
            "workers",
            "queue-depth",
            "retain",
            "cache-bytes",
            "state-dir",
            "threads",
        ],
    )?;
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        // The library's default port, 0, asks for an ephemeral one (tests);
        // the command listens on a fixed, documented port.
        port: args.number::<u16>("port")?.unwrap_or(7878),
        workers: args.number::<usize>("workers")?.unwrap_or(defaults.workers),
        queue_depth: args
            .number::<usize>("queue-depth")?
            .unwrap_or(defaults.queue_depth),
        retain_terminal: args
            .number::<usize>("retain")?
            .unwrap_or(defaults.retain_terminal),
        cache_bytes: args
            .number::<usize>("cache-bytes")?
            .unwrap_or(defaults.cache_bytes),
        state_dir: args.value("state-dir").map(std::path::PathBuf::from),
        threads: threads_flag(&args)?.unwrap_or(defaults.threads),
    };
    let workers = cfg.workers;
    let queue_depth = cfg.queue_depth;
    let cache_mib = cfg.cache_bytes / (1024 * 1024);
    let state = cfg
        .state_dir
        .as_ref()
        .map(|d| format!(", state dir {}", d.display()))
        .unwrap_or_default();
    let mut server = Server::start(cfg).map_err(|e| format!("starting server: {e}"))?;
    println!(
        "sdp-serve listening on http://127.0.0.1:{} ({workers} workers, queue depth {queue_depth}, {cache_mib} MiB result cache{state})",
        server.port()
    );
    println!("close stdin (Ctrl-D) to shut down gracefully");

    // Block until stdin closes; a dependency-free stand-in for signal
    // handling that works identically under a test harness.
    let mut sink = String::new();
    while let Ok(n) = std::io::stdin().read_line(&mut sink) {
        if n == 0 {
            break;
        }
        sink.clear();
    }

    println!("shutting down: draining queued and in-flight jobs…");
    server.shutdown();
    println!("drained; bye");
    Ok(())
}
