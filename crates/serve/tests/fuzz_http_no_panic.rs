//! The HTTP framing's no-panic guarantee: for *any* bytes a client sends,
//! `http::read_request` returns a request or an `HttpError` carrying a
//! status the daemon answers with (400, 408, 413 or 431), and never panics;
//! neither do the `query_param` and `header` lookups the daemon then runs.
//! Every daemon worker reads untrusted sockets through this code, so this
//! suite is its fuzz harness, as `fuzz_no_panic.rs` is the QASM parser's.
//! A kept-alive connection reads each request from the bytes the one
//! before it left buffered, so some cases read two requests from one
//! reader.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use nassc::split_seed;
use nassc_serve::http::{read_request, HttpError, Request};

/// The body cap the harness reads under: small, so random `Content-Length`
/// values reach the 413 path without large allocations.
const MAX_BODY: usize = 4096;

/// Generated inputs per kind.
const CASES: u64 = 512;

/// HTTP-ish tokens, `|`-separated: glued together, they reach much deeper
/// into the framing than uniform bytes do.
const VOCAB: &[u8] = b"GET|POST|PUT| |/transpile|/health|?|&|=|device|layout-trials|seed|%|%4|\
%41|%zz|%e2%82%ac|%+A|+|HTTP/1.1|HTTP/1.0|HTTP/2|\r\n|\n|\r|:|Content-Length|content-length: |\
0|17|4097|-1|99999999999999999999999|Transfer-Encoding: chunked|x-request-id|\xc3\xa9|\xff|\0|\t";

/// A counter-mode draw source: draw `i` of case `seed` is
/// `split_seed(seed, i)` reduced below the requested bound, so a failing
/// case replays from its seed alone.
fn draws(seed: u64) -> impl FnMut(usize) -> usize {
    let mut drawn = 0;
    move |bound| {
        drawn += 1;
        (split_seed(seed, drawn) % bound as u64) as usize
    }
}

/// Reads the next request from `reader` under `catch_unwind`, failing the
/// test on a panic or on a status the daemon does not answer framing errors
/// with. Returns the request, or the error status.
fn read_next(reader: &mut Cursor<&[u8]>, context: &str) -> Result<Request, u16> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let request = read_request(reader, MAX_BODY, &mut std::io::sink())?;
        for name in ["device", "router", "seed", "layout-trials", "timeout-ms"] {
            let _ = request.query_param(name);
        }
        for name in ["x-request-id", "x-timeout-ms", "accept", "Content-Length"] {
            let _ = request.header(name);
        }
        Ok::<Request, HttpError>(request)
    }));
    let input = String::from_utf8_lossy(reader.get_ref());
    match outcome {
        Ok(Ok(request)) => Ok(request),
        Ok(Err(e)) => {
            let status = e.status;
            assert!(
                matches!(status, 400 | 408 | 413 | 431),
                "status {status} on {context}: {e}\ninput: {input:?}"
            );
            Err(status)
        }
        Err(_) => panic!("read_request panicked on {context}\ninput: {input:?}"),
    }
}

/// Reads `bytes` as one request (see [`read_next`]). Returns the error
/// status, `None` for a parsed request.
fn read_never_panics(bytes: &[u8], context: &str) -> Option<u16> {
    read_next(&mut Cursor::new(bytes), context).err()
}

/// The request `bytes` holds, read alone.
fn parsed(bytes: &[u8]) -> Request {
    read_next(&mut Cursor::new(bytes), "a valid request").expect("a valid request parses")
}

/// Well-formed requests of the shapes the daemon serves.
const VALID: [&[u8]; 4] = [
    b"GET /health HTTP/1.1\r\nhost: localhost\r\n\r\n",
    b"GET /metrics HTTP/1.0\r\nAccept: text/plain\r\n\r\n",
    b"POST /transpile?device=montreal&router=nassc&seed=7&layout-trials=4&timeout-ms=500 HTTP/1.1\r\n\
      host: 127.0.0.1:7878\r\nx-request-id: req-1\r\ncontent-length: 69\r\n\r\n\
      OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
    b"POST /transpile?device=linear%3A4&seed=1+2&x=%zz HTTP/1.1\r\n\
      Transfer-Encoding: identity\r\nContent-Length: 0\r\n\r\n",
];

#[test]
fn arbitrary_bytes_never_panic_the_framing() {
    for seed in 0..CASES {
        let mut below = draws(seed);
        let bytes: Vec<u8> = (0..below(512)).map(|_| below(256) as u8).collect();
        read_never_panics(&bytes, &format!("arbitrary bytes, seed {seed}"));
    }
}

/// `len` or slightly more bytes of random [`VOCAB`] tokens, appended to
/// `bytes`.
fn extend_with_soup(bytes: &mut Vec<u8>, below: &mut impl FnMut(usize) -> usize, len: usize) {
    let vocab: Vec<&[u8]> = VOCAB.split(|&b| b == b'|').collect();
    let end = bytes.len() + len;
    while bytes.len() < end {
        bytes.extend_from_slice(vocab[below(vocab.len())]);
    }
}

#[test]
fn token_soup_never_panics_the_framing() {
    for seed in 0..CASES {
        let mut below = draws(seed);
        let len = below(600);
        let mut bytes = Vec::new();
        extend_with_soup(&mut bytes, &mut below, len);
        read_never_panics(&bytes, &format!("token soup, seed {seed}"));
    }
}

#[test]
fn joined_valid_requests_read_back_one_at_a_time() {
    for (i, first) in VALID.iter().enumerate() {
        for (j, second) in VALID.iter().enumerate() {
            let joined = [*first, *second].concat();
            let mut reader = Cursor::new(joined.as_slice());
            let context = format!("valid requests {i} then {j}");
            assert_eq!(read_next(&mut reader, &context), Ok(parsed(first)));
            assert_eq!(read_next(&mut reader, &context), Ok(parsed(second)));
        }
    }
}

#[test]
fn a_valid_request_then_token_soup_never_panics_the_framing() {
    for seed in 0..CASES {
        let mut below = draws(seed);
        let first = VALID[below(VALID.len())];
        let mut bytes = first.to_vec();
        let len = below(600);
        extend_with_soup(&mut bytes, &mut below, len);
        let mut reader = Cursor::new(bytes.as_slice());
        let context = format!("a valid request then token soup, seed {seed}");
        assert_eq!(read_next(&mut reader, &context), Ok(parsed(first)));
        let _ = read_next(&mut reader, &context);
    }
}

#[test]
fn mutated_valid_requests_never_panic_the_framing() {
    for seed in 0..CASES {
        let mut below = draws(seed);
        let mut bytes = VALID[below(VALID.len())].to_vec();
        match below(3) {
            // Truncate: cut the request anywhere, mid-line included.
            0 => bytes.truncate(below(bytes.len() + 1)),
            // Splice: copy a random window over another random position.
            1 => {
                let src = below(bytes.len());
                let window = bytes[src..src + below((bytes.len() - src).min(64) + 1)].to_vec();
                let dst = below(bytes.len() + 1);
                bytes.splice(dst..dst, window);
            }
            // Bit-flip: corrupt up to 8 random bytes.
            _ => {
                for _ in 0..=below(8) {
                    let at = below(bytes.len());
                    bytes[at] ^= 1 << below(8);
                }
            }
        }
        read_never_panics(&bytes, &format!("mutated request, seed {seed}"));
    }
}

#[test]
fn fixed_inputs_reach_every_framing_status() {
    for request in VALID {
        assert_eq!(read_never_panics(request, "a valid request"), None);
    }
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
    let many_headers = format!("GET / HTTP/1.1\r\n{}\r\n", "h: v\r\n".repeat(65));
    let cases: [(&[u8], u16); 10] = [
        (b"", 400),
        (b"\r\n", 400),
        (b"GET /\r\n\r\n", 400),
        (b"GET / SPDY/3\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nno-colon\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\n", 400),
        (b"GET / HTTP/1.1\r\ncontent-length: 4097\r\n\r\n", 413),
        (b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc", 408),
        (long_line.as_bytes(), 431),
        (many_headers.as_bytes(), 431),
    ];
    for (input, status) in cases {
        let context = String::from_utf8_lossy(&input[..input.len().min(40)]).into_owned();
        assert_eq!(read_never_panics(input, &context), Some(status));
    }
}
