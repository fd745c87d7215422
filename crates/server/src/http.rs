//! A deliberately small HTTP/1.1 implementation: exactly what the job API
//! needs and nothing more.
//!
//! Connections are persistent (HTTP/1.1 keep-alive) by default — shard
//! collection makes many small requests, and reconnecting per request
//! dominated their cost. A client opts out per request with
//! `Connection: close`; event streams always close their connection when
//! the stream ends. Plain responses carry `Content-Length`, event
//! streams use chunked transfer, so every response is self-delimiting on
//! a reused connection. Requests are parsed from raw bytes with hard
//! limits on header and body size so a malformed or hostile client
//! cannot balloon daemon memory. Every parse failure maps to a
//! client-error response — nothing on this path may panic (BD010).

use std::io::{Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + headers.
const MAX_HEAD: usize = 8 * 1024;
/// Upper bound on a request body (job specs are a few KB).
const MAX_BODY: usize = 1024 * 1024;

/// A parsed request: method, path, body, connection disposition.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The path, query string stripped.
    pub path: String,
    /// The raw body (empty when none was sent).
    pub body: Vec<u8>,
    /// The client asked for the connection to close after this exchange
    /// (`Connection: close`). HTTP/1.1's default is keep-alive.
    pub close: bool,
}

/// Why a request could not be parsed. Always the client's fault.
#[derive(Debug)]
pub struct BadRequest(pub String);

/// Reads one request from the stream. Returns `Ok(None)` when the
/// connection ends cleanly (or idles out) *between* requests — the normal
/// end of a kept-alive connection, not an error.
///
/// # Errors
///
/// [`BadRequest`] on oversized, truncated, or malformed input (including
/// I/O errors and read timeouts mid-request — from the daemon's view a
/// half-sent request is a bad request), and on any request whose body
/// length is ambiguous: one carrying `Transfer-Encoding`, two
/// `Content-Length` headers that disagree, or a header name with
/// whitespace around it (`Content-Length : 5`, a folded line). The
/// caller must close the connection after an error, since the rest of the
/// stream cannot be framed.
pub fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, BadRequest> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    // Read byte-wise until the blank line; requests are tiny and this
    // keeps the body bytes (which follow immediately) out of any buffer.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(BadRequest("request head too large".to_string()));
        }
        match stream.read(&mut byte) {
            Ok(0) if head.is_empty() => return Ok(None),
            Ok(0) => return Err(BadRequest("connection closed mid-request".to_string())),
            Ok(_) => head.extend_from_slice(&byte),
            Err(_) if head.is_empty() => return Ok(None),
            Err(e) => return Err(BadRequest(format!("read error: {e}"))),
        }
    }
    let head = String::from_utf8(head)
        .map_err(|_| BadRequest("request head is not valid UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| BadRequest("empty request".to_string()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| BadRequest("missing method".to_string()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| BadRequest("missing request target".to_string()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim() != name {
            // RFC 7230 §3.2.4: whitespace before the colon (or a folded
            // line) must draw a 400, since servers that disagree on
            // whether such a header counts can be fed a smuggled request.
            return Err(BadRequest(format!(
                "whitespace around header name {name:?}"
            )));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            // Bodies are framed by Content-Length only. Reading a chunked
            // body as an empty one would leave its chunks on the
            // connection, to be parsed as the next request.
            return Err(BadRequest(
                "Transfer-Encoding is not supported; send Content-Length".to_string(),
            ));
        }
        if name.eq_ignore_ascii_case("content-length") {
            let len = value
                .parse::<usize>()
                .ok()
                .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| BadRequest("bad content-length".to_string()))?;
            if content_length.is_some_and(|seen| seen != len) {
                return Err(BadRequest("conflicting content-length headers".to_string()));
            }
            content_length = Some(len);
        }
        if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(BadRequest(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY} byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| BadRequest(format!("truncated body: {e}")))?;
    Ok(Some(Request {
        method,
        path,
        body,
        close,
    }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete response with the given content type and flushes.
/// `close` advertises (and commits to) closing the connection after this
/// exchange. Write errors are returned for logging; by this point the
/// request is already handled, so callers may ignore a client that hung
/// up.
///
/// # Errors
///
/// The underlying socket write error.
pub fn respond_bytes(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// [`respond_bytes`] for a JSON payload.
///
/// # Errors
///
/// The underlying socket write error.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    respond_bytes(stream, status, "application/json", body.as_bytes(), close)
}

/// [`respond_json`] with an `{"error": ...}` payload.
///
/// # Errors
///
/// The underlying socket write error.
pub fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    msg: &str,
    close: bool,
) -> std::io::Result<()> {
    let body = serde_json::to_string(&serde::Value::Object(vec![(
        "error".to_string(),
        serde::Value::String(msg.to_string()),
    )]))
    .unwrap_or_else(|_| "{\"error\":\"unprintable\"}".to_string());
    respond_json(stream, status, &body, close)
}

/// A chunked `application/x-ndjson` response in progress: one chunk per
/// event line, flushed immediately so clients see results live.
#[derive(Debug)]
pub struct ChunkedWriter<'s> {
    stream: &'s mut TcpStream,
}

impl<'s> ChunkedWriter<'s> {
    /// Sends the streaming response head.
    ///
    /// # Errors
    ///
    /// The underlying socket write error.
    pub fn begin(stream: &'s mut TcpStream) -> std::io::Result<ChunkedWriter<'s>> {
        stream.write_all(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Sends one event line as its own chunk (newline appended).
    ///
    /// # Errors
    ///
    /// The underlying socket write error (client hung up).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let chunk = format!("{:x}\r\n{line}\n\r\n", line.len() + 1);
        self.stream.write_all(chunk.as_bytes())?;
        self.stream.flush()
    }

    /// Sends the terminating zero chunk.
    ///
    /// # Errors
    ///
    /// The underlying socket write error.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};
    use std::time::Duration;

    /// Sends `bytes` from a client socket that then hangs up, and returns
    /// the accepted server end to read requests from.
    fn serve(bytes: &[u8]) -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.write_all(bytes).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        server
    }

    fn error_of(stream: &mut TcpStream) -> String {
        match read_request(stream) {
            Err(BadRequest(msg)) => msg,
            Ok(req) => panic!("expected a bad request, read {req:?}"),
        }
    }

    #[test]
    fn chunked_request_is_one_error_not_two_requests() {
        let mut s = serve(
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        );
        assert!(error_of(&mut s).contains("Transfer-Encoding"));
        // The chunk bytes are still unread, and a caller that closes on
        // error never parses them.
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"5\r\nhello\r\n0\r\n\r\n");
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let mut s =
            serve(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc");
        assert!(error_of(&mut s).contains("conflicting"));
        // Repeating the same length is unambiguous and accepted.
        let mut s =
            serve(b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc");
        let req = read_request(&mut s).unwrap().unwrap();
        assert_eq!(req.body, b"abc");
        let mut s = serve(b"POST /jobs HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc");
        assert!(error_of(&mut s).contains("bad content-length"));
        // A name with whitespace before the colon, or a folded line, is
        // neither read nor ignored.
        for head in [
            &b"POST /jobs HTTP/1.1\r\nContent-Length : 3\r\n\r\nabc"[..],
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding\t: chunked\r\n\r\nabc",
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n Content-Length: 3\r\n\r\nabc",
        ] {
            let mut s = serve(head);
            assert!(error_of(&mut s).contains("whitespace around header name"));
        }
    }

    #[test]
    fn head_over_the_limit_is_rejected() {
        let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(MAX_HEAD + 16, b'a');
        let mut s = serve(&head);
        assert!(error_of(&mut s).contains("head too large"));
    }

    #[test]
    fn body_over_the_limit_is_rejected_before_it_is_read() {
        let head = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let mut s = serve(head.as_bytes());
        assert!(error_of(&mut s).contains("exceeds"));
    }

    #[test]
    fn truncated_body_is_rejected() {
        let mut s = serve(b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert!(error_of(&mut s).contains("truncated body"));
    }

    #[test]
    fn clean_eof_between_keep_alive_requests_ends_the_connection() {
        let mut s = serve(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let first = read_request(&mut s).unwrap().unwrap();
        assert_eq!(
            (first.method.as_str(), first.path.as_str()),
            ("POST", "/jobs")
        );
        assert_eq!((first.body.as_slice(), first.close), (&b"{}"[..], false));
        let second = read_request(&mut s).unwrap().unwrap();
        assert_eq!((second.path.as_str(), second.close), ("/healthz", true));
        assert!(read_request(&mut s).unwrap().is_none());
    }
}
