//! A minimal HTTP/1.1 layer over `std::io` streams: enough protocol for
//! the solve service and its load generator, and nothing more.
//!
//! Supported: request line + headers + `Content-Length` bodies,
//! keep-alive (HTTP/1.1 default) and `Connection: close`, and plain
//! status responses. Not supported (requests using them get `400`/`501`):
//! chunked transfer encoding, upgrades, continuations.
//!
//! Both sides of the repo speak this module. The reactor behind
//! `bi-serve` and `bi-router` parses requests in place with
//! [`parse_head`] and stages every answer through [`write_head_into`].
//! Clients write requests with [`write_request`]; a response head is
//! parsed by one buffer parser, [`parse_response_head`], which a
//! router's reactor runs over each upstream socket's bytes and the
//! blocking [`read_response`] (the load generator, the router's prober
//! and repair worker, the tests) runs over its reader's buffer.

use std::io::{self, BufRead, Write};

/// Longest accepted request line + header block, in bytes.
const MAX_HEAD: usize = 64 * 1024;

/// Largest accepted request/response body, in bytes (a wire-form game of
/// a few thousand states fits comfortably).
const MAX_BODY: usize = 64 * 1024 * 1024;

/// A request parse failure, mapped to a status code by the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpError {
    /// The status the server should answer with (`400`, `413`, `431` or
    /// `501`).
    pub status: u16,
    /// What was wrong.
    pub msg: String,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.msg)
    }
}

impl std::error::Error for HttpError {}

fn bad(msg: impl Into<String>) -> HttpError {
    HttpError {
        status: 400,
        msg: msg.into(),
    }
}

/// One request head parsed **in place** from a connection buffer: all
/// text is addressed as ranges into the scanned bytes, so the reactor's
/// hot path allocates nothing.
#[derive(Clone, Debug)]
pub struct Head {
    /// Byte range of the method verb within the scanned slice.
    pub method: std::ops::Range<usize>,
    /// Byte range of the request target within the scanned slice.
    pub path: std::ops::Range<usize>,
    /// Length of the head (request line + headers + blank line).
    pub head_len: usize,
    /// Declared `Content-Length` (0 when absent).
    pub body_len: usize,
    /// Whether the connection stays open after this exchange.
    pub keep_alive: bool,
    /// The trace id adopted from an `X-Bi-Trace` header (decimal u64),
    /// if the peer sent one — how a router's trace id survives the hop
    /// into a backend. Malformed values and `0` (the recorder's "no
    /// trace" id) are ignored, not errors.
    pub trace_id: Option<u64>,
    /// The parent span id from an `X-Bi-Parent` header (decimal u64):
    /// the upstream span this request's root span nests under.
    pub parent_span: Option<u64>,
}

impl Head {
    /// Total wire length of the request: head plus body.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.head_len + self.body_len
    }
}

/// Incremental head parse over a (possibly partial) buffer: the
/// nonblocking server's entry point, fed by the connection state machine
/// as bytes arrive.
///
/// Returns `Ok(None)` when the head terminator has not arrived yet
/// (read more), `Ok(Some(head))` once the request line and headers are
/// complete (the body may still be in flight — compare
/// [`Head::total_len`] with the buffered length), and `Err` on protocol
/// violations mapped to response statuses.
///
/// # Errors
///
/// `400` malformed line/header/length (a `Content-Length` must be
/// digits only, and repeats must agree), `413` oversized declared body,
/// `431` head larger than the protocol cap, `501` transfer encodings.
pub fn parse_head(buf: &[u8]) -> Result<Option<Head>, HttpError> {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(HttpError {
                status: 431,
                msg: "header block too large".into(),
            });
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD {
        return Err(HttpError {
            status: 431,
            msg: "header block too large".into(),
        });
    }
    let head = &buf[..head_len];
    let line_end = find_crlf(head).ok_or_else(|| bad("malformed request line"))?;
    let mut parts = split_ws(&head[..line_end]);
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad("malformed request line"));
    };
    if parts.next().is_some() || !buf[version.clone()].starts_with(b"HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let mut body_len = None;
    let mut keep_alive = true;
    let mut trace_id = None;
    let mut parent_span = None;
    let mut pos = line_end + 2;
    while pos < head_len - 2 {
        let rel_end = find_crlf(&head[pos..]).ok_or_else(|| bad("malformed header"))?;
        let line = &head[pos..pos + rel_end];
        pos += rel_end + 2;
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or_else(|| bad("malformed header"))?;
        let name = trim_ascii(&line[..colon]);
        let value = trim_ascii(&line[colon + 1..]);
        if name.eq_ignore_ascii_case(b"content-length") {
            let len = parse_content_length(value)?;
            // RFC 9112 §6.3: repeated lengths that disagree make the
            // framing ambiguous.
            if body_len.is_some_and(|prev| prev != len) {
                return Err(bad("conflicting Content-Length headers"));
            }
            if len > MAX_BODY {
                return Err(HttpError {
                    status: 413,
                    msg: "body too large".into(),
                });
            }
            body_len = Some(len);
        } else if name.eq_ignore_ascii_case(b"connection") {
            keep_alive = !value.eq_ignore_ascii_case(b"close");
        } else if name.eq_ignore_ascii_case(b"x-bi-trace") {
            trace_id = parse_decimal_u64(value).filter(|&id| id != 0);
        } else if name.eq_ignore_ascii_case(b"x-bi-parent") {
            parent_span = parse_decimal_u64(value);
        } else if name.eq_ignore_ascii_case(b"transfer-encoding")
            && !value.eq_ignore_ascii_case(b"identity")
        {
            return Err(HttpError {
                status: 501,
                msg: "transfer encodings are not supported".into(),
            });
        }
    }
    Ok(Some(Head {
        method,
        path,
        head_len,
        body_len: body_len.unwrap_or(0),
        keep_alive,
        trace_id,
        parent_span,
    }))
}

/// A `Content-Length` value: `1*DIGIT` only (no sign, no spaces inside),
/// and small enough for `usize`.
fn parse_content_length(value: &[u8]) -> Result<usize, HttpError> {
    if value.is_empty() || !value.iter().all(u8::is_ascii_digit) {
        return Err(bad("invalid Content-Length"));
    }
    std::str::from_utf8(value)
        .ok()
        .and_then(|text| text.parse().ok())
        .ok_or_else(|| bad("invalid Content-Length"))
}

/// A decimal `u64` header value, or `None` when malformed — trace
/// headers are advisory, so garbage degrades to "untraced" rather than
/// rejecting the request.
fn parse_decimal_u64(value: &[u8]) -> Option<u64> {
    std::str::from_utf8(value).ok()?.parse().ok()
}

/// Index just past the `\r\n\r\n` terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Index of the first `\r\n` in `buf`.
fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// Whitespace-separated token ranges of `line` (relative to the buffer
/// `line` was sliced from — which is why the caller passes a prefix
/// slice, keeping offsets absolute).
fn split_ws(line: &[u8]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        while pos < line.len() && line[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if pos >= line.len() {
            return None;
        }
        let start = pos;
        while pos < line.len() && !line[pos].is_ascii_whitespace() {
            pos += 1;
        }
        Some(start..pos)
    })
}

/// `slice` without leading/trailing ASCII whitespace.
fn trim_ascii(slice: &[u8]) -> &[u8] {
    let start = slice
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(slice.len());
    let end = slice
        .iter()
        .rposition(|b| !b.is_ascii_whitespace())
        .map_or(start, |i| i + 1);
    &slice[start..end]
}

/// An outgoing JSON response built off the reactor thread (a pool job's
/// answer), staged by the reactor through [`write_head_into`].
#[derive(Clone, Debug)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
    /// Extra `(name, value)` headers (e.g. `X-Cache`).
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response with the given status and body.
    #[must_use]
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// Adds an extra header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }
}

/// Serializes a response head into `out` (cleared first) — the one
/// response head writer: every answer the reactor stages, and the
/// connection-cap rejection, go through it.
pub fn write_head_into(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
    extra: &[(&str, &str)],
) {
    use std::io::Write as _;
    out.clear();
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason_phrase(status),
        content_type,
        content_length,
        connection,
    )
    .expect("writing to a Vec cannot fail");
    for (name, value) in extra {
        write!(out, "{name}: {value}\r\n").expect("writing to a Vec cannot fail");
    }
    out.extend_from_slice(b"\r\n");
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// Writes one client request (used by the load generator and tests).
///
/// # Errors
///
/// Returns transport failures.
pub fn write_request<S: Write>(
    stream: &mut S,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_request_with(stream, method, path, body, keep_alive, &[])
}

/// [`write_request`] with extra `(name, value)` headers — how trace
/// context (`X-Bi-Trace`, `X-Bi-Parent`) rides along a forwarded
/// request without the router reserializing anything.
///
/// # Errors
///
/// Returns transport failures.
pub fn write_request_with<S: Write>(
    stream: &mut S,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
    extra: &[(&str, String)],
) -> io::Result<()> {
    // Head and body leave in one write: a split write costs the peer an
    // extra wakeup per request.
    let mut message = Vec::with_capacity(160 + body.len());
    request_into(&mut message, method, path, body, keep_alive, extra);
    stream.write_all(&message)?;
    stream.flush()
}

/// Serializes one client request, head and body, into `out` (cleared
/// first) — the one request writer: [`write_request_with`] sends what
/// it builds, and a router's reactor stages it on an upstream socket.
pub fn request_into(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
    extra: &[(&str, String)],
) {
    out.clear();
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        out,
        "{method} {path} HTTP/1.1\r\nHost: bi-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len(),
    )
    .expect("writing to a Vec cannot fail");
    for (name, value) in extra {
        write!(out, "{name}: {value}\r\n").expect("writing to a Vec cannot fail");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// A parsed client-side view of a response: status, headers, body.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The value of header `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One response head parsed from a (possibly partial) buffer by
/// [`parse_response_head`].
#[derive(Clone, Debug)]
pub struct ResponseHead {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Length of the head (status line + headers + blank line).
    pub head_len: usize,
    /// The declared `Content-Length`.
    pub body_len: usize,
}

impl ResponseHead {
    /// Total wire length of the response: head plus body.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.head_len + self.body_len
    }

    /// The whole response once `buf` (which this head was parsed from)
    /// holds [`ResponseHead::total_len`] bytes.
    #[must_use]
    pub fn into_response(self, buf: &[u8]) -> ClientResponse {
        ClientResponse {
            body: buf[self.head_len..self.total_len()].to_vec(),
            status: self.status,
            headers: self.headers,
        }
    }
}

/// Incremental response-head parse over a (possibly partial) buffer —
/// the one response parser: a router's reactor feeds it an upstream
/// socket's bytes as they arrive, and the blocking [`read_response`]
/// feeds it its reader's buffer.
///
/// Returns `Ok(None)` until the blank line ending the head has arrived.
///
/// # Errors
///
/// `io::ErrorKind::InvalidData` for a head past the protocol cap, one
/// that is not UTF-8, a malformed status line, a missing or malformed
/// `Content-Length`, or a body past the body cap.
pub fn parse_response_head(buf: &[u8]) -> io::Result<Option<ResponseHead>> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(invalid("response head exceeds the protocol limit"));
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD {
        return Err(invalid("response head exceeds the protocol limit"));
    }
    let text = std::str::from_utf8(&buf[..head_len - 4])
        .map_err(|_| invalid("response head is not valid UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    let body_len = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .ok_or_else(|| invalid("response without Content-Length"))?;
    if body_len > MAX_BODY {
        return Err(invalid("response body too large"));
    }
    Ok(Some(ResponseHead {
        status,
        headers,
        head_len,
        body_len,
    }))
}

/// Reads one response (used by the load generator, the router's prober
/// and repair worker, and tests) through [`parse_response_head`],
/// consuming exactly its bytes from `stream`.
///
/// # Errors
///
/// Returns `io::ErrorKind::InvalidData` on protocol violations and
/// transport failures as-is.
pub fn read_response<S: BufRead>(stream: &mut S) -> io::Result<ClientResponse> {
    let mut bytes = Vec::new();
    let head = loop {
        let available = stream.fill_buf()?;
        if available.is_empty() {
            let msg = if bytes.is_empty() {
                "connection closed before the status line"
            } else {
                "connection closed inside headers"
            };
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        let seen = bytes.len();
        let taken = available.len();
        bytes.extend_from_slice(available);
        if let Some(head) = parse_response_head(&bytes)? {
            // Leave whatever follows the head in the reader.
            stream.consume(head.head_len - seen);
            break head;
        }
        stream.consume(taken);
    };
    let mut body = vec![0u8; head.body_len];
    stream.read_exact(&mut body)?;
    Ok(ClientResponse {
        status: head.status,
        headers: head.headers,
        body,
    })
}

/// Connects to `addr` (its first resolved address) within `timeout`.
///
/// # Errors
///
/// Propagates resolution failures, connect failures, and the timeout.
pub fn dial(addr: &str, timeout: std::time::Duration) -> io::Result<std::net::TcpStream> {
    use std::net::ToSocketAddrs;
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing"))?;
    std::net::TcpStream::connect_timeout(&resolved, timeout)
}

/// A keep-alive HTTP/1.1 client over one TCP connection: the blocking
/// transport of the load generator, the router's prober and repair
/// worker, and the socket-level test suites.
///
/// One request is in flight at a time ([`HttpClient::request`] writes,
/// then blocks on the response). A transport error poisons the
/// connection — drop the client and connect a fresh one.
#[derive(Debug)]
pub struct HttpClient {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl HttpClient {
    /// Connects to `addr` (blocking, OS default timeout).
    ///
    /// # Errors
    ///
    /// Propagates resolution and connect failures.
    pub fn connect(addr: &str) -> io::Result<HttpClient> {
        Self::from_stream(std::net::TcpStream::connect(addr)?)
    }

    /// Connects to `addr` with a connect deadline ([`dial`]) — the
    /// router's probes and repairs must not hang on a dead backend.
    ///
    /// # Errors
    ///
    /// Propagates resolution failures, connect failures, and the timeout.
    pub fn connect_timeout(addr: &str, timeout: std::time::Duration) -> io::Result<HttpClient> {
        Self::from_stream(dial(addr, timeout)?)
    }

    /// Wraps an already connected stream (nodelay is enabled here).
    ///
    /// # Errors
    ///
    /// Propagates socket option and clone failures.
    pub fn from_stream(stream: std::net::TcpStream) -> io::Result<HttpClient> {
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            reader: std::io::BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Applies a read deadline to the connection (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one keep-alive request and blocks for the response.
    ///
    /// # Errors
    ///
    /// Returns transport failures (the connection should be discarded).
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        write_request(&mut self.writer, method, path, body, true)?;
        read_response(&mut self.reader)
    }

    /// [`HttpClient::request`] with extra headers (trace propagation).
    ///
    /// # Errors
    ///
    /// Returns transport failures (the connection should be discarded).
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        extra: &[(&str, String)],
    ) -> io::Result<ClientResponse> {
        write_request_with(&mut self.writer, method, path, body, true, extra)?;
        read_response(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/solve", b"{\"x\":1}", true).unwrap();
        let head = parse_head(&wire).unwrap().unwrap();
        assert_eq!(&wire[head.method.clone()], b"POST");
        assert_eq!(&wire[head.path.clone()], b"/solve");
        assert_eq!(&wire[head.head_len..head.total_len()], b"{\"x\":1}");
        assert_eq!(head.total_len(), wire.len());
        assert!(head.keep_alive);
        let text = String::from_utf8(wire).unwrap();
        assert!(
            text.contains("\r\nContent-Type: application/json\r\n"),
            "{text}"
        );
    }

    #[test]
    fn connection_close_is_honored() {
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/healthz", b"", false).unwrap();
        let head = parse_head(&wire).unwrap().unwrap();
        assert!(!head.keep_alive);
    }

    /// A writer that records each `write` call separately.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_leaves_in_one_write() {
        let mut writes = Writes::default();
        write_request_with(
            &mut writes,
            "POST",
            "/solve",
            b"{\"x\":1}",
            true,
            &[("X-Bi-Trace", "5".to_string())],
        )
        .unwrap();
        assert_eq!(writes.0.len(), 1, "head and body must share one write");
        let head = parse_head(&writes.0[0]).unwrap().unwrap();
        assert_eq!(head.trace_id, Some(5));
        assert_eq!(head.total_len(), writes.0[0].len());
    }

    #[test]
    fn responses_round_trip() {
        let mut wire = Vec::new();
        write_head_into(
            &mut wire,
            200,
            "application/json",
            11,
            true,
            &[("X-Cache", "hit")],
        );
        wire.extend_from_slice(br#"{"ok":true}"#);
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, br#"{"ok":true}"#);
        assert_eq!(resp.header("x-cache"), Some("hit"));
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        // A 500 (a chain violation, a handler panic, an injected fault)
        // carries its own reason phrase.
        let mut wire = Vec::new();
        write_head_into(&mut wire, 500, "application/json", 2, false, &[]);
        wire.extend_from_slice(b"{}");
        assert!(wire.starts_with(b"HTTP/1.1 500 Internal Server Error\r\n"));
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 500);
        assert_eq!(resp.body, b"{}");
    }

    #[test]
    fn response_heads_parse_incrementally_and_reads_take_one_response() {
        let mut wire = Vec::new();
        write_head_into(
            &mut wire,
            429,
            "application/json",
            2,
            true,
            &[("Retry-After", "1")],
        );
        wire.extend_from_slice(b"{}");
        let first = wire.len();
        let mut second = Vec::new();
        write_head_into(&mut second, 200, "application/json", 4, true, &[]);
        wire.extend_from_slice(&second);
        wire.extend_from_slice(b"null");
        let head = parse_response_head(&wire).unwrap().expect("complete head");
        for cut in 0..head.head_len {
            assert!(
                parse_response_head(&wire[..cut]).unwrap().is_none(),
                "cut {cut}"
            );
        }
        assert_eq!((head.status, head.total_len()), (429, first));
        let whole = head.into_response(&wire);
        assert_eq!(whole.header("retry-after"), Some("1"));
        assert_eq!(whole.body, b"{}");
        // A reader smaller than a head still yields each response whole
        // and leaves the next one's bytes unread.
        let mut reader = BufReader::with_capacity(7, &wire[..]);
        let a = read_response(&mut reader).unwrap();
        let b = read_response(&mut reader).unwrap();
        assert_eq!((a.status, &a.body[..]), (429, &b"{}"[..]));
        assert_eq!((b.status, &b.body[..]), (200, &b"null"[..]));
        let cut = read_response(&mut BufReader::new(&wire[..10])).unwrap_err();
        assert_eq!(cut.kind(), io::ErrorKind::InvalidData);
        let no_length = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n";
        assert!(parse_response_head(no_length).is_err());
    }

    #[test]
    fn malformed_requests_report_protocol_errors() {
        let huge = format!(
            "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let cases: [(&[u8], u16); 11] = [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /x SPDY/3\r\n\r\n", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length: nine\r\n\r\n", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length: +5\r\n\r\n", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length:\r\n\r\n", 400),
            (
                b"POST /solve HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 500\r\n\r\n",
                400,
            ),
            (
                b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
            (b"POST / HTTP/1.1\r\nno-colon-header\r\n\r\n", 400),
            (huge.as_bytes(), 413),
            (
                b"POST /solve HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
                400,
            ),
        ];
        for (wire, status) in cases {
            let err = parse_head(wire).unwrap_err();
            assert_eq!(
                err.status,
                status,
                "wire {:?}",
                String::from_utf8_lossy(wire)
            );
        }
        // Repeats that agree are not ambiguous.
        let twice = b"POST /solve HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\n";
        assert_eq!(parse_head(twice).unwrap().unwrap().body_len, 5);
    }

    #[test]
    fn oversized_bodies_are_rejected_cheaply() {
        // The head alone decides: no body byte has to be buffered.
        let wire = format!(
            "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(parse_head(wire.as_bytes()).unwrap_err().status, 413);
    }

    #[test]
    fn incremental_parse_handles_partial_heads_byte_by_byte() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/solve", b"{\"x\":1}", true).unwrap();
        // Every strict prefix that lacks the head terminator is
        // Incomplete, never an error.
        let full = parse_head(&wire).unwrap().expect("complete head");
        for cut in 0..full.head_len {
            assert!(
                parse_head(&wire[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        assert_eq!(&wire[full.method.clone()], b"POST");
        assert_eq!(&wire[full.path.clone()], b"/solve");
        assert_eq!(full.body_len, 7);
        assert!(full.keep_alive);
        assert_eq!(full.total_len(), wire.len());
        // The body slice is addressable once total_len bytes arrived.
        assert_eq!(&wire[full.head_len..full.total_len()], b"{\"x\":1}");
    }

    #[test]
    fn incremental_parse_matches_the_blocking_parser_on_errors() {
        // A head that arrives a byte at a time must end in the same
        // status as one read whole: every strict prefix before the
        // terminator is Incomplete, and the full head is the error.
        let huge = format!(
            "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let cases: [(&[u8], u16); 6] = [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /x SPDY/3\r\n\r\n", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length: nine\r\n\r\n", 400),
            (
                b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
            (b"POST / HTTP/1.1\r\nno-colon-header\r\n\r\n", 400),
            (huge.as_bytes(), 413),
        ];
        for (wire, status) in cases {
            for cut in 0..wire.len() {
                assert!(
                    parse_head(&wire[..cut]).unwrap().is_none(),
                    "prefix of {cut} bytes of {:?} must be incomplete",
                    String::from_utf8_lossy(wire)
                );
            }
            let err = parse_head(wire).unwrap_err();
            assert_eq!(
                err.status,
                status,
                "wire {:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn incremental_parse_caps_unterminated_heads() {
        // A peer streaming endless header bytes without the terminator
        // must be rejected once the cap is crossed, not buffered forever.
        let mut wire = b"GET / HTTP/1.1\r\nX-Spam: ".to_vec();
        wire.resize(MAX_HEAD + 16, b'a');
        assert_eq!(parse_head(&wire).unwrap_err().status, 431);
        // Under the cap it is just incomplete.
        assert!(parse_head(&wire[..MAX_HEAD - 1]).unwrap().is_none());
    }

    #[test]
    fn incremental_parse_honors_connection_close() {
        let wire = b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let head = parse_head(wire).unwrap().unwrap();
        assert!(!head.keep_alive);
        assert_eq!(head.body_len, 0);
        assert_eq!(head.trace_id, None);
        assert_eq!(head.parent_span, None);
    }

    #[test]
    fn incremental_parse_adopts_trace_headers() {
        let wire =
            b"POST /solve HTTP/1.1\r\nX-Bi-Trace: 424242\r\nx-bi-parent: 7\r\nContent-Length: 0\r\n\r\n";
        let head = parse_head(wire).unwrap().unwrap();
        assert_eq!(head.trace_id, Some(424_242));
        assert_eq!(head.parent_span, Some(7));
        // Malformed values degrade to untraced, never to an error.
        let garbage = b"POST /solve HTTP/1.1\r\nX-Bi-Trace: zebra\r\nContent-Length: 0\r\n\r\n";
        let head = parse_head(garbage).unwrap().unwrap();
        assert_eq!(head.trace_id, None);
        // Trace 0 is the recorder's "untraced" id: the server must mint
        // a fresh trace rather than record spans under it.
        let zero = b"POST /solve HTTP/1.1\r\nX-Bi-Trace: 0\r\nContent-Length: 0\r\n\r\n";
        let head = parse_head(zero).unwrap().unwrap();
        assert_eq!(head.trace_id, None);
    }

    #[test]
    fn extra_request_headers_survive_the_round_trip() {
        let mut wire = Vec::new();
        write_request_with(
            &mut wire,
            "POST",
            "/solve",
            b"{}",
            true,
            &[
                ("X-Bi-Trace", "99".to_string()),
                ("X-Bi-Parent", "3".to_string()),
            ],
        )
        .unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(
            text.contains("\r\nX-Bi-Trace: 99\r\nX-Bi-Parent: 3\r\n"),
            "{text}"
        );
        // The parser adopts them as trace context.
        let head = parse_head(&wire).unwrap().unwrap();
        assert_eq!(head.trace_id, Some(99));
        assert_eq!(head.parent_span, Some(3));
        // Without extras the writers emit byte-identical requests.
        let mut plain = Vec::new();
        let mut with_empty = Vec::new();
        write_request(&mut plain, "GET", "/healthz", b"", true).unwrap();
        write_request_with(&mut with_empty, "GET", "/healthz", b"", true, &[]).unwrap();
        assert_eq!(plain, with_empty);
    }

    #[test]
    fn two_keep_alive_requests_parse_in_sequence() {
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/metrics", b"", true).unwrap();
        write_request(&mut wire, "GET", "/healthz", b"", true).unwrap();
        let a = parse_head(&wire).unwrap().unwrap();
        let rest = &wire[a.total_len()..];
        let b = parse_head(rest).unwrap().unwrap();
        assert_eq!(&wire[a.path.clone()], b"/metrics");
        assert_eq!(&rest[b.path.clone()], b"/healthz");
        assert_eq!(b.total_len(), rest.len());
        assert!(parse_head(&rest[b.total_len()..]).unwrap().is_none());
    }
}
