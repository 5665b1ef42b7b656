//! A deliberately small HTTP/1.1 subset: one request per connection,
//! explicit `Content-Length`, `Connection: close` on every response.
//! The workspace is offline, so this replaces a web framework; the
//! surface is exactly what the job API and a Prometheus scraper need.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted header block.
const MAX_HEAD: usize = 64 * 1024;
/// Largest accepted request body (Bookshelf payloads are text; dp_huge
/// serializes to a few MiB).
pub const MAX_BODY: usize = 64 * 1024 * 1024;
/// Per-read socket timeout: a client that sends *nothing* for this long
/// is dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Whole-request wall deadline: a client trickling one byte per poll
/// resets the per-read timeout forever, so without this bound it could
/// pin a connection thread for hours on a 64 MiB body.
const WALL_DEADLINE: Duration = Duration::from_secs(60);

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …
    pub method: String,
    /// Path component only (no query parsing; the API does not use one).
    pub path: String,
    /// Decoded body (empty when the request carries none).
    pub body: String,
}

/// Why a request could not be read. Each variant maps onto one response
/// status so the accept loop never guesses.
#[derive(Debug)]
pub enum HttpError {
    /// Socket error or timeout mid-request.
    Io(std::io::Error),
    /// Syntactically invalid request head or body framing.
    Malformed(String),
    /// Body advertised more than [`MAX_BODY`] bytes.
    TooLarge,
    /// A body-bearing method (POST/PUT/PATCH) arrived without a
    /// `Content-Length` header. Answered with 411 rather than treating
    /// the length as 0, which would silently drop the body and surface
    /// as a confusing JSON parse error.
    LengthRequired,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge => f.write_str("request body too large"),
            HttpError::LengthRequired => f.write_str("body-bearing request without Content-Length"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one request with the default 60 s wall deadline.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    read_request_with(stream, WALL_DEADLINE)
}

/// Returns how much of `deadline` remains, as an `Err(TimedOut)` once it
/// is spent, and arms the socket's read timeout with the smaller of the
/// remainder and the per-read bound.
fn arm_read_timeout(stream: &TcpStream, deadline: Instant) -> Result<(), HttpError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(HttpError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "request wall deadline exceeded",
        )));
    }
    #[allow(
        clippy::let_underscore_must_use,
        reason = "set_read_timeout only fails on a zero Duration, which the is_zero guard above \
                  already excluded; a missing timeout degrades to a blocking read, not a wrong \
                  response"
    )]
    let _ = stream.set_read_timeout(Some(remaining.min(READ_TIMEOUT)));
    Ok(())
}

/// Reads one request from the stream. Three bounds protect the
/// connection thread: head and body byte limits, a per-read timeout
/// (silent client), and `wall` — a whole-request deadline that a
/// slow-trickle client (one byte per read, each read "succeeding")
/// cannot reset.
pub fn read_request_with(stream: &mut TcpStream, wall: Duration) -> Result<Request, HttpError> {
    let deadline = Instant::now()
        .checked_add(wall)
        .unwrap_or_else(|| Instant::now() + WALL_DEADLINE);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Resume the terminator scan where the previous read left off (minus
    // 3 bytes in case `\r\n\r\n` straddles the read boundary) so header
    // parsing stays O(head) instead of re-scanning the whole buffer —
    // O(head²) — after every 4KB read.
    let mut scanned = 0usize;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf, scanned) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(HttpError::Malformed("header block too large".into()));
        }
        scanned = buf.len().saturating_sub(3);
        arm_read_timeout(stream, deadline)?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-header".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let Head {
        method,
        path,
        content_length,
    } = parse_head(&buf[..head_end])?;
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        arm_read_timeout(stream, deadline)?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("non-UTF-8 body".into()))?;
    Ok(Request { method, path, body })
}

/// What a request head says about the request.
#[derive(Debug, PartialEq)]
struct Head {
    method: String,
    path: String,
    /// Body bytes to read: the `Content-Length`, or 0 for a method that
    /// carries no body.
    content_length: usize,
}

/// Parses a request head: the bytes before the `\r\n\r\n` terminator.
/// Pure over its input, so every rejection is testable without a socket.
///
/// Besides the request line it reads only `Content-Length`, but two
/// rules hold for every field line. A line is `field-name ":" value`
/// (RFC 9112 §5), so a line without a colon is a 400. A field name is a
/// token, `1*tchar` (RFC 9110 §5.1, §5.6.2), so an empty name, a name
/// holding whitespace (RFC 9112 §5.1 forbids it before the colon, and at
/// the start of a line it is obsolete line folding, §5.2), a delimiter
/// such as `"` or `(`, or a control byte is a 400. A `Content-Length`
/// value is digits only (`1*DIGIT`, RFC 9110 §8.6), so `+5` is not a
/// length.
fn parse_head(head: &[u8]) -> Result<Head, HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header line without a colon".into()));
        };
        // A field name is `1*tchar` (RFC 9110 §5.1, §5.6.2): this also
        // rejects an empty name and whitespace before the colon.
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return Err(HttpError::Malformed(
                "header field name is empty or not a token (whitespace, a delimiter or a control byte)"
                    .into(),
            ));
        }
        if name.eq_ignore_ascii_case("content-length") {
            let value = value.trim_matches([' ', '\t']);
            let len = value
                .bytes()
                .all(|b| b.is_ascii_digit())
                .then(|| value.parse::<usize>().ok())
                .flatten()
                .ok_or_else(|| HttpError::Malformed("bad Content-Length".into()))?;
            // Duplicate headers that agree are tolerated; ones that
            // disagree are the classic request-smuggling shape — reject
            // rather than silently letting the last one win.
            if content_length.is_some_and(|prev| prev != len) {
                return Err(HttpError::Malformed(
                    "conflicting Content-Length headers".into(),
                ));
            }
            content_length = Some(len);
        }
    }
    let body_bearing = matches!(method.as_str(), "POST" | "PUT" | "PATCH");
    let content_length = match content_length {
        Some(len) => len,
        None if body_bearing => return Err(HttpError::LengthRequired),
        None => 0,
    };
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }
    Ok(Head {
        method,
        path,
        content_length,
    })
}

/// Whether `b` may appear in a token such as a header field name: a
/// `tchar` of RFC 9110 §5.6.2.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Byte offset of the `\r\n\r\n` head terminator at or after `from`, if
/// present. `from` lets the read loop resume where the last scan ended.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    if buf.len() < from + 4 {
        return None;
    }
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| from + p)
}

/// Writes a complete response and flushes. `Connection: close` keeps the
/// protocol one-shot — clients reconnect per request.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reason phrase for the status codes the API emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest", 0), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n", 0), None);
    }

    #[test]
    fn head_end_resume_offset_never_misses_the_terminator() {
        // The read loop resumes at `len - 3`: a terminator straddling any
        // read boundary must still be found, and never found twice at
        // different positions.
        let msg = b"GET / HTTP/1.1\r\nH: v\r\n\r\nbody";
        let full = find_head_end(msg, 0);
        assert_eq!(full, Some(20));
        // Any prefix that does not yet contain the full terminator is a
        // valid "previous read" state; its resume offset must still find it.
        for split in 1..msg.len() {
            if find_head_end(&msg[..split], 0).is_some() {
                continue;
            }
            let from = split.saturating_sub(3);
            assert_eq!(find_head_end(msg, from), full, "resume at {from}");
        }
        // Out-of-range resume offsets are a clean miss, not a panic.
        assert_eq!(find_head_end(b"\r\n\r\n", 1), None);
        assert_eq!(find_head_end(b"ab", 5), None);
    }

    /// A connected loopback pair: (client, server) ends.
    fn pipe() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn conflicting_duplicate_content_length_is_rejected() {
        let (mut client, mut server) = pipe();
        client
            .write_all(
                b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
            )
            .unwrap();
        match read_request(&mut server) {
            Err(HttpError::Malformed(m)) => assert!(m.contains("conflicting"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn agreeing_duplicate_content_length_is_tolerated() {
        let (mut client, mut server) = pipe();
        client
            .write_all(
                b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
            )
            .unwrap();
        let req = read_request(&mut server).unwrap();
        assert_eq!((req.method.as_str(), req.body.as_str()), ("POST", "hello"));
    }

    #[test]
    fn whitespace_before_the_colon_is_rejected() {
        let (mut client, mut server) = pipe();
        client
            .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello")
            .unwrap();
        match read_request(&mut server) {
            Err(HttpError::Malformed(m)) => assert!(m.contains("whitespace"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn signed_content_length_is_rejected() {
        let (mut client, mut server) = pipe();
        client
            .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello")
            .unwrap();
        match read_request(&mut server) {
            Err(HttpError::Malformed(m)) => assert!(m.contains("Content-Length"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn field_line_without_a_colon_or_name_is_rejected() {
        for (head, why) in [
            (&b"GET /healthz HTTP/1.1\r\nHost localhost"[..], "colon"),
            (b"POST /jobs HTTP/1.1\r\nContent-Length 5", "colon"),
            (b"GET / HTTP/1.1\r\n: 5", "empty"),
        ] {
            match parse_head(head) {
                Err(HttpError::Malformed(m)) => assert!(m.contains(why), "{m}"),
                other => panic!(
                    "{:?}: expected Malformed, got {other:?}",
                    String::from_utf8_lossy(head)
                ),
            }
        }
    }

    #[test]
    fn field_name_must_be_a_token() {
        for head in [
            &b"GET / HTTP/1.1\r\nHo\"st: x"[..],
            b"GET / HTTP/1.1\r\nHo(st): x",
            b"GET / HTTP/1.1\r\nX\x01Y: 1",
        ] {
            match parse_head(head) {
                Err(HttpError::Malformed(m)) => assert!(m.contains("token"), "{m}"),
                other => panic!(
                    "{:?}: expected Malformed, got {other:?}",
                    String::from_utf8_lossy(head)
                ),
            }
        }
        // Every tchar kind is still accepted in a name.
        let head = b"GET / HTTP/1.1\r\nX-a1!#$%&'*+.^_`|~: v";
        assert!(parse_head(head).is_ok());
    }

    #[test]
    fn head_parse_never_panics_on_cut_or_mutated_heads() {
        let head = b"POST /jobs?wait=1 HTTP/1.1\r\nHost: localhost:8080\r\nContent-Type: application/json\r\nContent-Length: 42";
        assert_eq!(
            parse_head(head).unwrap(),
            Head {
                method: "POST".into(),
                path: "/jobs".into(),
                content_length: 42,
            }
        );
        const SUBSTITUTES: &[u8] = b" \t:+-09\r\n?aZ\xff";
        let (mut ok, mut err) = (0, 0);
        let mut check = |bytes: &[u8]| match std::panic::catch_unwind(|| parse_head(bytes)) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => err += 1,
            Err(_) => panic!(
                "parse_head panicked on {:?}",
                String::from_utf8_lossy(bytes)
            ),
        };
        for i in 0..head.len() {
            check(&head[..i]);
            for &sub in SUBSTITUTES {
                let mut mutated = head.to_vec();
                mutated[i] = sub;
                check(&mutated);
            }
        }
        assert!(ok > 0 && err > 0, "{ok} accepted, {err} rejected");
    }

    #[test]
    fn slow_trickle_client_hits_the_wall_deadline() {
        let (mut client, mut server) = pipe();
        // Each one-byte write lands within the per-read timeout, so only
        // the wall deadline can end this request.
        let trickler = std::thread::spawn(move || {
            #[allow(
                clippy::let_underscore_must_use,
                reason = "the server may hang up at any byte; the trickle loop below notices"
            )]
            let _ = client.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
            loop {
                if client.write_all(b"x").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let t0 = Instant::now();
        let res = read_request_with(&mut server, Duration::from_millis(300));
        assert!(
            matches!(res, Err(HttpError::Io(_))),
            "wall deadline must cut the request off: {res:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the cut-off happens near the deadline, not after 100k bytes"
        );
        drop(server); // the trickler's next write fails and it exits
        trickler.join().unwrap();
    }

    #[test]
    fn status_phrases_cover_the_api() {
        for s in [200, 202, 400, 404, 405, 409, 411, 413, 429, 500, 503] {
            assert!(!status_text(s).is_empty(), "{s} needs a phrase");
        }
        assert_eq!(status_text(599), "");
        assert_eq!(status_text(411), "Length Required");
    }
}
