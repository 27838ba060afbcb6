//! An HTTP/1.1 load client that times connect apart from the request.
//!
//! It asks for keep-alive and reuses its connection whenever a response
//! allows it (HTTP/1.1 without `Connection: close`), so a server that starts
//! keeping connections alive shows up as fewer connects with no change here.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The response headers the benchmark reads.
#[derive(Debug, Default, Clone)]
pub struct Headers {
    pub elapsed_ms: Option<f64>,
    pub queue_ms: Option<f64>,
    pub cache_hits: Option<u64>,
    pub cache_misses: Option<u64>,
    pub cx_count: Option<u64>,
    pub depth: Option<u64>,
}

/// One timed exchange.
#[derive(Debug)]
pub struct Exchange {
    pub status: u16,
    pub headers: Headers,
    pub body: String,
    /// Time to open a connection, when this request had to open one.
    pub connect: Option<Duration>,
    /// From the start of the send to the last body byte.
    pub request: Duration,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }

    /// POSTs `body` to `path`. A reused connection that the server closed
    /// before answering is reopened and the request sent once more.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Exchange> {
        let reused = self.conn.is_some();
        match self.exchange(path, body) {
            Err(_) if reused => {
                self.conn = None;
                self.exchange(path, body)
            }
            other => other,
        }
    }

    fn exchange(&mut self, path: &str, body: &str) -> std::io::Result<Exchange> {
        let connect = match self.conn {
            Some(_) => None,
            None => {
                let start = Instant::now();
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(60)))?;
                self.conn = Some(BufReader::new(stream));
                Some(start.elapsed())
            }
        };
        let reader = self.conn.as_mut().expect("connection opened above");
        let start = Instant::now();
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\
             Content-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        let stream = reader.get_mut();
        stream.write_all(request.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;

        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let mut parts = line.split_whitespace();
        let version = parts.next().unwrap_or_default().to_string();
        let status: u16 = parts
            .next()
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut keep_alive = version == "HTTP/1.1";
        let mut length: Option<usize> = None;
        let mut headers = Headers::default();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            let Some((name, value)) = trimmed.split_once(':') else {
                return Err(invalid(format!("bad header {trimmed:?}")));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse().ok(),
                "connection" => keep_alive &= !value.eq_ignore_ascii_case("close"),
                "x-elapsed-ms" => headers.elapsed_ms = value.parse().ok(),
                "x-queue-ms" => headers.queue_ms = value.parse().ok(),
                "x-cache-hits" => headers.cache_hits = value.parse().ok(),
                "x-cache-misses" => headers.cache_misses = value.parse().ok(),
                "x-cx-count" => headers.cx_count = value.parse().ok(),
                "x-depth" => headers.depth = value.parse().ok(),
                _ => {}
            }
        }
        let mut raw = Vec::new();
        match length {
            Some(n) => {
                raw.resize(n, 0);
                reader.read_exact(&mut raw)?;
            }
            None => {
                keep_alive = false;
                reader.read_to_end(&mut raw)?;
            }
        }
        let request = start.elapsed();
        if !keep_alive {
            self.conn = None;
        }
        let body = String::from_utf8(raw).map_err(|e| invalid(e.to_string()))?;
        Ok(Exchange {
            status,
            headers,
            body,
            connect,
            request,
        })
    }
}
