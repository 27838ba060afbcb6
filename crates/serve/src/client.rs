//! A minimal blocking HTTP client for the daemon's own tests and load
//! generator — the counterpart of [`crate::http`], one request per
//! connection, matching the server's `Connection: close` model.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl ClientResponse {
    /// The first header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }
}

fn invalid(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

/// Sends one request and reads the full response (the server closes the
/// connection after it).
///
/// # Errors
///
/// Connection and read/write failures, plus `InvalidData` for a response
/// that is not parseable HTTP/1.1.
pub fn request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &str,
) -> std::io::Result<ClientResponse> {
    request_with_headers(addr, method, path_and_query, &[], body)
}

/// As [`request`], with extra request headers (e.g. `x-request-id` for
/// correlation, or `accept: text/plain` to select the Prometheus rendering
/// of `/metrics`).
///
/// # Errors
///
/// As [`request`].
pub fn request_with_headers(
    addr: &str,
    method: &str,
    path_and_query: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_nodelay(true)?;
    let extra: String = extra_headers
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect();
    // Formatted first and sent whole: on a `TCP_NODELAY` stream each write
    // is a segment of its own.
    let request = format!(
        "{method} {path_and_query} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
         {extra}content-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed inside headers"));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid(format!("bad header line {line:?}")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| invalid(format!("bad content-length {value:?}")))?,
            );
        }
        headers.push((name, value));
    }

    let body = match content_length {
        Some(length) => {
            let mut buffer = vec![0u8; length];
            reader.read_exact(&mut buffer)?;
            String::from_utf8(buffer).map_err(|_| invalid("non-UTF-8 response body"))?
        }
        None => {
            // `Connection: close` delimits the body.
            let mut buffer = String::new();
            reader.read_to_string(&mut buffer)?;
            buffer
        }
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// `GET` without a body.
///
/// # Errors
///
/// As [`request`].
pub fn get(addr: &str, path_and_query: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", path_and_query, "")
}

/// Extracts and unescapes the first JSON string field named `key` — enough
/// JSON to read the daemon's `/version` body and `?trace=1` envelope.
pub fn json_str_field(body: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = body.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = body[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// `POST` with a body.
///
/// # Errors
///
/// As [`request`].
pub fn post(addr: &str, path_and_query: &str, body: &str) -> std::io::Result<ClientResponse> {
    request(addr, "POST", path_and_query, body)
}
