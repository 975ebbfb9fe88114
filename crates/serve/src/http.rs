//! A deliberately small HTTP/1.1 layer for the event-driven reactor.
//!
//! The offline toolchain has no hyper/axum, and the server needs only a
//! sliver of the protocol: incrementally parse requests (method, path,
//! headers, `Content-Length`-delimited body) out of a per-connection
//! byte buffer, and append framed responses to a per-connection output
//! buffer. Keep-alive and pipelining are supported; chunked encoding
//! and multipart are out of scope by design — `curl` and every HTTP
//! client library speak this subset natively.
//!
//! Parsing is **zero-copy**: [`parse_request`] returns a [`RequestRef`]
//! whose method, path, header, and body slices all borrow from the
//! connection's read buffer. Nothing is allocated per request except
//! the small header `Vec`; request bodies go to the wire codec
//! (`crate::codec`) as a borrowed `&str` without an intermediate `String`.

use std::io::Write;

/// Upper bound on request bodies — far above any sane inference batch, low
/// enough that a misbehaving client cannot balloon server memory.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Upper bound on the header section (request line + headers). A buffer
/// that grows past this without completing its header section is a
/// flood, and the connection is rejected.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// One parsed HTTP request, borrowing from the connection read buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRef<'a> {
    /// Request method as sent (`GET`, `POST`, ...).
    pub method: &'a str,
    /// Request target as sent (path + optional query, no percent-decoding).
    pub path: &'a str,
    /// Whether the request line said `HTTP/1.1` (drives the keep-alive
    /// default; `HTTP/1.0` defaults to close).
    pub version_11: bool,
    /// Header `(name, value)` pairs in arrival order, names as sent,
    /// values trimmed.
    pub headers: Vec<(&'a str, &'a str)>,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: &'a [u8],
}

impl<'a> RequestRef<'a> {
    /// The body as UTF-8 text, or an error message suitable for a 400.
    pub fn body_utf8(&self) -> Result<&'a str, HttpError> {
        std::str::from_utf8(self.body)
            .map_err(|_| HttpError::Malformed("request body is not valid UTF-8".into()))
    }

    /// The first header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| *v)
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version_11,
        }
    }
}

/// Why bytes on the wire could not become a request.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes are not the HTTP subset this server speaks.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Finds the next `\n`, returning the line before it (with a trailing
/// `\r` trimmed) and the index one past the newline.
fn next_line(buf: &[u8], from: usize) -> Option<(&[u8], usize)> {
    let nl = buf[from..].iter().position(|&b| b == b'\n')? + from;
    let mut line = &buf[from..nl];
    if let [rest @ .., b'\r'] = line {
        line = rest;
    }
    Some((line, nl + 1))
}

/// Tries to parse one complete request from the front of `buf`.
///
/// Returns:
/// - `Ok(Some((request, consumed)))` — a full request was present; the
///   caller advances its buffer cursor by `consumed` bytes *after* it is
///   done with the borrowed [`RequestRef`].
/// - `Ok(None)` — the bytes so far are a valid prefix; read more.
/// - `Err(_)` — the bytes can never become a request this server
///   accepts (malformed, header flood, oversized body); the caller
///   answers 400/413 and closes.
///
/// Tolerates bare-`LF` line endings alongside `CRLF`.
pub fn parse_request(buf: &[u8]) -> Result<Option<(RequestRef<'_>, usize)>, HttpError> {
    let header_cap_hit = |upto: usize| upto > MAX_HEADER_BYTES;

    let Some((line, mut pos)) = next_line(buf, 0) else {
        if header_cap_hit(buf.len()) {
            return Err(HttpError::Malformed(
                "header section exceeds the size cap".into(),
            ));
        }
        return Ok(None);
    };
    let line = std::str::from_utf8(line)
        .map_err(|_| HttpError::Malformed("request line is not valid UTF-8".into()))?;
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p, v),
        _ => return Err(HttpError::Malformed(format!("bad request line: {line:?}"))),
    };
    let version_11 = version == "HTTP/1.1";

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        if header_cap_hit(pos) {
            return Err(HttpError::Malformed(
                "header section exceeds the size cap".into(),
            ));
        }
        let Some((line, next)) = next_line(buf, pos) else {
            if header_cap_hit(buf.len()) {
                return Err(HttpError::Malformed(
                    "header section exceeds the size cap".into(),
                ));
            }
            return Ok(None);
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| HttpError::Malformed("header line is not valid UTF-8".into()))?;
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| HttpError::Malformed(format!("bad Content-Length: {value:?}")))?;
            }
            headers.push((name, value));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(content_length));
    }
    let total = pos + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        RequestRef {
            method,
            path,
            version_11,
            headers,
            body: &buf[pos..total],
        },
        total,
    )))
}

/// The reason phrase of the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Appends one complete framed response (status line, `Content-Type`,
/// `Content-Length`, extra headers, `Connection: keep-alive|close`,
/// body) to `out`. The reactor flushes `out` as the socket allows.
pub fn append_response(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    keep_alive: bool,
    body: &[u8],
) {
    // io::Write on Vec<u8> is infallible.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    });
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Option<(RequestRef<'_>, usize)>, HttpError> {
        parse_request(raw.as_bytes())
    }

    fn parse_one(raw: &str) -> (RequestRef<'_>, usize) {
        parse(raw).unwrap().expect("complete request")
    }

    #[test]
    fn parses_post_with_body_and_reports_consumed_length() {
        let raw =
            "POST /v1/models/m/transform HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let (req, consumed) = parse_one(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/models/m/transform");
        assert!(req.version_11);
        assert_eq!(req.body_utf8().unwrap(), "hello");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn parses_get_without_body_and_tolerates_lf_only() {
        let (req, consumed) = parse_one("GET /healthz HTTP/1.1\nHost: x\n\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert_eq!(consumed, "GET /healthz HTTP/1.1\nHost: x\n\n".len());
    }

    #[test]
    fn incomplete_prefixes_ask_for_more_bytes() {
        assert!(parse("").unwrap().is_none());
        assert!(parse("POST / HTT").unwrap().is_none());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n")
            .unwrap()
            .is_none());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel")
            .unwrap()
            .is_none());
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let (first, consumed) = parse_one(raw);
        assert_eq!(first.path, "/a");
        let rest = &raw[consumed..];
        let (second, consumed2) = parse_one(rest);
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"hi");
        let (third, consumed3) = parse_one(&rest[consumed2..]);
        assert_eq!(third.path, "/c");
        assert_eq!(consumed + consumed2 + consumed3, raw.len());
    }

    #[test]
    fn content_length_is_case_insensitive() {
        let (req, _) = parse_one("POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nok");
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn headers_are_captured_and_looked_up_case_insensitively() {
        let (req, _) =
            parse_one("POST / HTTP/1.1\r\nX-Ifair-Deadline-Ms: 250\r\nContent-Length: 2\r\n\r\nok");
        assert_eq!(req.header("x-ifair-deadline-ms"), Some("250"));
        assert_eq!(req.header("X-IFAIR-DEADLINE-MS"), Some("250"));
        assert_eq!(req.header("content-length"), Some("2"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_header() {
        let (req, _) = parse_one("GET / HTTP/1.1\r\n\r\n");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
        let (req, _) = parse_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive());
        let (req, _) = parse_one("GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive(), "HTTP/1.0 defaults to close");
        let (req, _) = parse_one("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
        assert!(req.keep_alive());
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(parse(&huge), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn newline_free_floods_are_cut_off_at_the_header_cap() {
        // A request line with no newline at all must fail once the cap is
        // reached instead of buffering the stream forever.
        let flood = "A".repeat(MAX_HEADER_BYTES * 2);
        assert!(matches!(parse(&flood), Err(HttpError::Malformed(_))));
        // Same for an endless header after a valid request line.
        let flood = format!(
            "POST / HTTP/1.1\r\nX-Junk: {}",
            "j".repeat(MAX_HEADER_BYTES * 2)
        );
        assert!(matches!(parse(&flood), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn response_carries_length_and_connection_disposition() {
        let mut out = Vec::new();
        append_response(
            &mut out,
            200,
            "application/json",
            &[],
            true,
            b"{\"ok\":true}",
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        append_response(&mut out, 200, "application/json", &[], false, b"{}");
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: close\r\n"));
    }

    #[test]
    fn extra_headers_land_between_length_and_close() {
        let mut out = Vec::new();
        append_response(
            &mut out,
            503,
            "application/json",
            &[("Retry-After", "1".to_string())],
            false,
            b"{}",
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn new_status_codes_have_reason_phrases() {
        assert_eq!(status_reason(504), "Gateway Timeout");
        assert_eq!(status_reason(429), "Too Many Requests");
    }
}
