//! A minimal HTTP/1.1 subset over `std::io` — just enough protocol for the
//! transpilation daemon, with zero dependencies.
//!
//! Supported: one request per connection (every response carries
//! `Connection: close`), request line + headers + `Content-Length` bodies,
//! query strings with percent-decoding. Not supported (and rejected
//! cleanly): chunked transfer encoding, multiline headers, bodies above the
//! configured cap.

use std::io::{BufRead, Read, Write};
use std::sync::Arc;

/// Hard cap on a single request/header line, against unbounded buffering.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// Hard cap on the number of request headers.
const MAX_HEADERS: usize = 64;

/// Room for a response's status line, its three fixed headers and the blank
/// line: the longest reason phrase, content type and a 20-digit length fit.
const HEAD_BYTES: usize = 160;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// The path without its query string (e.g. `/transpile`).
    pub path: String,
    /// Percent-decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// The first query parameter named `name`, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A request-level protocol failure, carrying the HTTP status the server
/// should answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The status to respond with (400, 408, 413, …).
    pub status: u16,
    /// Human-readable description for the response body.
    pub message: String,
}

impl HttpError {
    pub(crate) fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {}",
            self.status,
            reason(self.status),
            self.message
        )
    }
}

impl std::error::Error for HttpError {}

/// Reads one line (up to CRLF or LF), rejecting lines above the cap: at
/// most [`MAX_LINE_BYTES`] before the `\n`, a `\r` counted.
fn read_line(reader: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line = Vec::new();
    reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)
        .map_err(|e| HttpError::new(408, format!("reading request: {e}")))?;
    if line.is_empty() {
        return Err(HttpError::new(400, "connection closed before request"));
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE_BYTES {
        return Err(HttpError::new(431, "request line or header too long"));
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::new(400, "request is not valid UTF-8"))
}

/// Percent-decodes a query component (`%41` → `A`, `+` → space). A
/// malformed escape, `%` without two hex digits after it, passes through
/// verbatim together with those two bytes rather than failing the whole
/// request.
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let escape = &bytes[i + 1..bytes.len().min(i + 3)];
                // `to_digit` takes ASCII hex digits only; `from_str_radix`
                // would also take a sign and decode `%+A` as a newline.
                let digit = |b: u8| char::from(b).to_digit(16);
                let decoded = match *escape {
                    [hi, lo] => digit(hi).zip(digit(lo)).map(|(h, l)| (h * 16 + l) as u8),
                    _ => None,
                };
                match decoded {
                    Some(b) => out.push(b),
                    None => {
                        out.push(b'%');
                        out.extend_from_slice(escape);
                    }
                }
                i += escape.len();
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw query string into decoded key/value pairs.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Reads and parses one HTTP request from `reader`.
///
/// An HTTP/1.1 request that carries `Expect: 100-continue` and declares a
/// body within `max_body_bytes` gets the interim `100 Continue` response on
/// `interim` before its body is read: such a client holds the body back
/// until it reads that line or its own timer runs out (1 s for curl).
///
/// # Errors
///
/// [`HttpError`] with the status the caller should answer with: 400 for
/// malformed syntax (a header name holding whitespace, a `Content-Length`
/// that is not all digits or comes twice included), 408 for read timeouts,
/// 413 for bodies above `max_body_bytes`, 431 for oversized header lines.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
    interim: &mut impl Write,
) -> Result<Request, HttpError> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed request line {request_line:?}"),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            400,
            format!("unsupported version {version:?}"),
        ));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(431, "too many headers"));
        }
        // RFC 9112 §5.1: a non-empty field name, no whitespace before ':'.
        let (name, value) = line
            .split_once(':')
            .filter(|(name, _)| {
                !name.is_empty() && !name.contains(|c: char| c.is_ascii_whitespace())
            })
            .ok_or_else(|| HttpError::new(400, format!("malformed header {line:?}")))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::new(
            400,
            "chunked transfer encoding is not supported",
        ));
    }

    // RFC 9112 §6.3: a length that is not all digits, or one of several,
    // leaves the body's end unknown.
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some((_, v)), None) => Some(v)
            .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| HttpError::new(400, format!("bad content-length {v:?}")))?,
        (Some(_), Some(_)) => {
            return Err(HttpError::new(400, "more than one content-length header"));
        }
    };
    if content_length > max_body_bytes {
        return Err(HttpError::new(
            413,
            format!("body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"),
        ));
    }
    // RFC 9110 §10.1.1: an HTTP/1.0 client's expectation is ignored.
    let expects_continue = headers
        .iter()
        .any(|(k, v)| k == "expect" && v.eq_ignore_ascii_case("100-continue"));
    if expects_continue && version == "HTTP/1.1" && content_length > 0 {
        // A failed write surfaces as the failed body read below.
        let _ = interim
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| interim.flush());
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(reader, &mut body)
        .map_err(|e| HttpError::new(408, format!("reading body: {e}")))?;
    let body =
        String::from_utf8(body).map_err(|_| HttpError::new(400, "body is not valid UTF-8"))?;

    let (path, query) = match target.split_once('?') {
        Some((path, raw)) => (path.to_string(), parse_query(raw)),
        None => (target, Vec::new()),
    };

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// The canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (`X-*` metrics and the like).
    pub headers: Vec<(String, String)>,
    /// The response body: shared, so a text the session keeps is copied
    /// only into the send buffer.
    pub body: Arc<str>,
}

impl Response {
    /// A `text/plain` response (the body should end with a newline).
    pub fn text(status: u16, body: impl Into<Arc<str>>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<Arc<str>>) -> Self {
        Self {
            content_type: "application/json",
            ..Self::text(status, body)
        }
    }

    /// A transpiled-QASM response.
    pub fn qasm(body: impl Into<Arc<str>>) -> Self {
        Self {
            content_type: "application/x-qasm",
            ..Self::text(200, body)
        }
    }

    /// Appends one extra header (builder style).
    #[must_use]
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes the response to `writer` (always `Connection: close`).
    ///
    /// The status line, headers, blank line and body are rendered into one
    /// buffer and handed to `writer` in a single `write_all`. The daemon's
    /// sockets set `TCP_NODELAY`, where every `write` leaves as a segment of
    /// its own and wakes the client once more, so a response formatted
    /// piece by piece onto the socket would cost a segment per piece.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the caller drops the connection either way.
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        let headers: usize = self
            .headers
            .iter()
            .map(|(name, value)| name.len() + value.len() + 4)
            .sum();
        let mut out = Vec::with_capacity(HEAD_BYTES + headers + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
        writer.write_all(&out)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024, &mut Vec::new())
    }

    #[test]
    fn expect_100_continue_gets_the_interim_response_before_the_body() {
        // What `read_request` writes for a request with `head`, and the
        // status it answers (200 for a request that parses).
        let read = |head: &str| {
            let raw = format!("{head}\r\n\r\nbody");
            let mut interim = Vec::new();
            let request = read_request(&mut BufReader::new(raw.as_bytes()), 1024, &mut interim);
            let status = request.map_or_else(|e| e.status, |_| 200);
            (String::from_utf8(interim).unwrap(), status)
        };
        let expect = "Content-Length: 4\r\nExpect: 100-Continue";
        assert_eq!(
            read(&format!("POST / HTTP/1.1\r\n{expect}")),
            ("HTTP/1.1 100 Continue\r\n\r\n".to_string(), 200)
        );
        // No interim without the header, for an HTTP/1.0 client, or for a
        // body refused by its declared length.
        assert_eq!(
            read("POST / HTTP/1.1\r\nContent-Length: 4"),
            (String::new(), 200)
        );
        assert_eq!(
            read(&format!("POST / HTTP/1.0\r\n{expect}")),
            (String::new(), 200)
        );
        assert_eq!(
            read("POST / HTTP/1.1\r\nContent-Length: 9999\r\nExpect: 100-continue"),
            (String::new(), 413)
        );
    }

    #[test]
    fn parses_request_line_query_headers_and_body() {
        let req = parse(
            "POST /transpile?router=nassc&seed=7&device=grid%3A3x3 HTTP/1.1\r\n\
             Host: localhost\r\n\
             Content-Length: 4\r\n\
             \r\n\
             body",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/transpile");
        assert_eq!(req.query_param("router"), Some("nassc"));
        assert_eq!(req.query_param("seed"), Some("7"));
        assert_eq!(req.query_param("device"), Some("grid:3x3"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert_eq!(req.body, "body");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let req = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.body, "");
        assert!(req.query.is_empty());
    }

    #[test]
    fn rejects_malformed_requests_with_the_right_status() {
        assert_eq!(parse("").unwrap_err().status, 400);
        assert_eq!(parse("GET\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / SPDY/3\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse("GET / HTTP/1.1\r\nbad header line\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n")
                .unwrap_err()
                .status,
            413
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
    }

    /// Asserts that a request with `headers` is a 400 naming the
    /// `Content-Length` header.
    fn assert_framing_400(headers: &str) {
        let e = parse(&format!("POST / HTTP/1.1\r\n{headers}\r\nbody")).unwrap_err();
        assert_eq!(e.status, 400, "{e}");
        let named = e.message.to_ascii_lowercase().contains("content-length");
        assert!(named, "{e} does not name the header");
    }

    #[test]
    fn signed_content_length_is_rejected() {
        assert_framing_400("Content-Length: +4\r\n");
    }

    #[test]
    fn repeated_content_length_is_rejected() {
        assert_framing_400("Content-Length: 4\r\nContent-Length: 5\r\n");
    }

    #[test]
    fn whitespace_before_a_header_colon_is_rejected() {
        assert_framing_400("Content-Length : 4\r\n");
    }

    #[test]
    fn truncated_body_is_a_timeout_class_error() {
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
                .unwrap_err()
                .status,
            408
        );
    }

    #[test]
    fn a_line_holds_at_most_max_line_bytes_before_its_newline() {
        for end in ["\r\n", "\n"] {
            // A header line with `len` bytes before its `\n`, a `\r` counted.
            let request = |len: usize| {
                let value = "v".repeat(len + 1 - "x: ".len() - end.len());
                parse(&format!("GET / HTTP/1.1\r\nx: {value}{end}\r\n"))
            };
            assert_eq!(request(MAX_LINE_BYTES).map(|r| r.headers.len()), Ok(1));
            assert_eq!(request(MAX_LINE_BYTES + 1).unwrap_err().status, 431);
        }
    }

    #[test]
    fn percent_decoding_handles_escapes_and_plus() {
        assert_eq!(percent_decode("a%3Ab+c"), "a:b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%+A"), "%+A");
    }

    /// A writer that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serializes `response` and returns the one write it must arrive in.
    fn single_write(response: &Response) -> Vec<u8> {
        let mut out = RecordingWriter::default();
        response.write_to(&mut out).unwrap();
        assert_eq!(out.writes.len(), 1, "a response must leave in one write");
        out.writes.pop().unwrap()
    }

    #[test]
    fn response_serializes_with_extra_headers() {
        // A 200 as the daemon sends it: its ten `X-*` headers and a 64 KiB
        // body.
        let body = "h q[0];\n".repeat(8 * 1024);
        assert_eq!(body.len(), 64 * 1024);
        let response = [
            ("X-Device", "montreal"),
            ("X-Elapsed-Ms", "1.500"),
            ("X-Queue-Ms", "0.042"),
            ("X-Cx-Count", "24"),
            ("X-Swap-Count", "3"),
            ("X-Depth", "17"),
            ("X-Chosen-Trial", "0"),
            ("X-Cache-Hits", "2"),
            ("X-Cache-Misses", "1"),
            ("X-Request-Id", "serve-7"),
        ]
        .into_iter()
        .fold(Response::qasm(body.clone()), |response, (name, value)| {
            response.header(name, value)
        });
        let head = "HTTP/1.1 200 OK\r\n\
                    Content-Type: application/x-qasm\r\n\
                    Content-Length: 65536\r\n\
                    Connection: close\r\n\
                    X-Device: montreal\r\n\
                    X-Elapsed-Ms: 1.500\r\n\
                    X-Queue-Ms: 0.042\r\n\
                    X-Cx-Count: 24\r\n\
                    X-Swap-Count: 3\r\n\
                    X-Depth: 17\r\n\
                    X-Chosen-Trial: 0\r\n\
                    X-Cache-Hits: 2\r\n\
                    X-Cache-Misses: 1\r\n\
                    X-Request-Id: serve-7\r\n\
                    \r\n";
        let written = single_write(&response);
        assert_eq!(
            String::from_utf8_lossy(&written[..head.len().min(written.len())]),
            head
        );
        assert!(
            written[head.len()..] == *body.as_bytes(),
            "the body must follow the blank line byte for byte"
        );

        // The acceptor's load-shedding reject.
        assert_eq!(
            String::from_utf8(single_write(&Response::text(429, "queue full\n"))).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\n\
             Content-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 11\r\n\
             Connection: close\r\n\
             \r\n\
             queue full\n"
        );
    }
}
