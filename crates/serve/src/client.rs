//! A minimal blocking HTTP client for the serve API — enough for the
//! e2e tests, the `serve-soak` experiment and the benchmark's
//! `serve_mixed` workload to drive a loopback server without external
//! dependencies.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Sends one request to `127.0.0.1:port` and returns `(status, body)`.
/// One connection per request, matching the server's
/// `Connection: close` protocol.
pub fn request(port: u16, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    #[allow(
        clippy::let_underscore_must_use,
        reason = "set_read_timeout only fails on a zero Duration; the constant above is nonzero, \
                  and a missing timeout degrades to blocking reads, not wrong results"
    )]
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    parse_response(&response)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad HTTP response"))
}

/// Splits a raw response into `(status, body)`.
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let text = std::str::from_utf8(raw).ok()?;
    let status: u16 = text.split_whitespace().nth(1)?.parse().ok()?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    Some((status, body.to_string()))
}

/// Polls `GET /jobs/:id` until the job leaves `queued`/`running`, up to
/// `timeout`. Returns the final status body.
pub fn wait_for_job(port: u16, id: u64, timeout: Duration) -> std::io::Result<String> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let (status, body) = request(port, "GET", &format!("/jobs/{id}"), "")?;
        if status != 200 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("status {status} polling job {id}"),
            ));
        }
        let settled = ["\"done\"", "\"failed\"", "\"cancelled\""]
            .iter()
            .any(|s| body.contains(s));
        if settled {
            return Ok(body);
        }
        if std::time::Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("job {id} still unsettled: {body}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parsing() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_response(raw), Some((202, "{}".to_string())));
        assert_eq!(parse_response(b"garbage"), None);
    }
}
