//! Incremental reader of a job's NDJSON event stream
//! (`GET /jobs/{id}/events`), timestamping each event line as it arrives.
//!
//! The daemon writes every event line as one HTTP chunk, so a line is
//! complete the moment its chunk is; reading chunk by chunk (as
//! `client::await_in_stream` reads the raw stream) gives each event's
//! arrival time without polling.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One event line and when it arrived.
pub struct Event {
    /// Arrival time of the line's last byte.
    pub at: Instant,
    /// The event name (`queued`, `started`, `result`, `diagnostics`,
    /// `done`, `failed`, `interrupted`).
    pub kind: String,
    /// The raw NDJSON line.
    pub line: String,
}

/// The `"event"` member of an event line, read from the line's prefix
/// (the daemon writes it first) so result lines carrying whole chain
/// snapshots are not parsed while the op is timed.
fn event_kind(line: &str) -> String {
    line.strip_prefix(r#"{"event":""#)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
        .to_string()
}

/// Reads the event stream of job `id` until a terminal event (`done`,
/// `failed`, `interrupted`) or the end of the stream. `timeout` bounds
/// each read.
pub fn read_events(addr: &str, id: &str, timeout: Duration) -> Result<Vec<Event>, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("cannot set timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("write failed: {e}"))?;

    let mut buf: Vec<u8> = Vec::new();
    let mut pos = 0usize;
    let mut events = Vec::new();
    let mut chunk = [0u8; 16384];
    let mut head_done = false;
    loop {
        // Consume every complete frame in the buffer.
        loop {
            if !head_done {
                let Some(end) = find(&buf[pos..], b"\r\n\r\n") else {
                    break;
                };
                let status = std::str::from_utf8(&buf[pos..pos + end])
                    .ok()
                    .and_then(|h| h.split_whitespace().nth(1))
                    .unwrap_or("")
                    .to_string();
                if status != "200" {
                    return Err(format!("events stream answered {status}"));
                }
                pos += end + 4;
                head_done = true;
                continue;
            }
            let Some(eol) = find(&buf[pos..], b"\r\n") else {
                break;
            };
            let size_text = std::str::from_utf8(&buf[pos..pos + eol]).unwrap_or("");
            let size = usize::from_str_radix(size_text.trim(), 16)
                .map_err(|_| format!("bad chunk size {size_text:?}"))?;
            if size == 0 {
                return Ok(events);
            }
            let start = pos + eol + 2;
            if buf.len() < start + size + 2 {
                break;
            }
            let at = Instant::now();
            let data = String::from_utf8_lossy(&buf[start..start + size]).into_owned();
            pos = start + size + 2;
            let mut terminal = false;
            for line in data.lines().filter(|l| !l.is_empty()) {
                let kind = event_kind(line);
                terminal |= matches!(kind.as_str(), "done" | "failed" | "interrupted");
                events.push(Event {
                    at,
                    kind,
                    line: line.to_string(),
                });
            }
            if terminal {
                return Ok(events);
            }
        }
        if pos > 0 {
            buf.drain(..pos);
            pos = 0;
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("stream read failed: {e}"))?;
        if n == 0 {
            return if head_done {
                Ok(events)
            } else {
                Err("stream closed before its head".to_string())
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}
