//! The load generator's side of the wire: mirrors of the server's JSON
//! bodies and a pipelining HTTP/1.1 client on one keep-alive connection.

use crate::stats::Reservoir;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Body of `/transform` and `/predict` requests (the optional `group`
/// vector is never sent).
#[derive(Debug, Serialize, Deserialize)]
pub struct RowsRequest {
    pub rows: Vec<Vec<f64>>,
}

/// Body of a `/transform` reply.
#[derive(Debug, Serialize, Deserialize)]
pub struct TransformResponse {
    pub model: String,
    pub rows: Vec<Vec<f64>>,
}

/// Body of a `/predict` reply.
#[derive(Debug, Serialize, Deserialize)]
pub struct PredictResponse {
    pub model: String,
    pub scores: Vec<f64>,
    pub decisions: Vec<f64>,
}

/// The full bytes of one `POST path` request with a JSON body.
pub fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One parsed reply at the front of a buffer: status, body range, and the
/// reply's total length.
fn parse_reply(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).expect("reply head is ASCII");
    let status: u16 = head
        .get(9..12)
        .and_then(|s| s.parse().ok())
        .expect("reply has a status line");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("reply has a Content-Length");
    let total = head_end + len;
    (buf.len() >= total).then_some((status, head_end..total, total))
}

/// What a closed-loop drive observed.
pub struct Drive {
    /// Per-request latency in microseconds, from writing the request's
    /// bytes to reading its reply's last byte.
    pub latencies_us: Reservoir,
    /// Requests whose reply was 200 with exactly the expected body.
    pub ok: u64,
    /// Requests answered with another status or another body.
    pub failed: u64,
    /// Rows answered by the `ok` requests.
    pub rows: u64,
    /// Wall time from the first write to the last read.
    pub wall: Duration,
}

impl Drive {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }
}

/// A request the load generator cycles through, with the reply it must get back.
pub struct Exchange {
    pub request: Vec<u8>,
    pub expected_body: Vec<u8>,
    pub rows: u64,
}

/// A keep-alive connection driven in a closed loop: at most `window`
/// requests in flight, the next one written as soon as a reply completes.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    chunk: Vec<u8>,
    next: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        Client {
            stream,
            buf: Vec::with_capacity(1 << 20),
            out: Vec::with_capacity(1 << 16),
            chunk: vec![0; 1 << 16],
            next: 0,
        }
    }

    /// Cycles through `pool` with `window` requests in flight until `until`
    /// returns true (checked as replies arrive), then drains. Each reply
    /// is checked byte for byte against its expected body.
    pub fn drive(
        &mut self,
        pool: &[Exchange],
        window: usize,
        mut until: impl FnMut(&Drive) -> bool,
    ) -> Drive {
        let mut d = Drive {
            latencies_us: Reservoir::new(),
            ok: 0,
            failed: 0,
            rows: 0,
            wall: Duration::ZERO,
        };
        let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
        let t0 = Instant::now();
        let mut sending = true;
        loop {
            if sending {
                self.out.clear();
                while inflight.len() < window {
                    let i = self.next % pool.len();
                    self.next += 1;
                    self.out.extend_from_slice(&pool[i].request);
                    inflight.push_back((i, Instant::now()));
                }
                if !self.out.is_empty() {
                    self.stream.write_all(&self.out).expect("write requests");
                }
            }
            if inflight.is_empty() {
                break;
            }
            let n = self.stream.read(&mut self.chunk).expect("read replies");
            assert!(n > 0, "server closed the connection");
            self.buf.extend_from_slice(&self.chunk[..n]);
            let now = Instant::now();
            let mut start = 0;
            while let Some((status, body, total)) = parse_reply(&self.buf[start..]) {
                let (i, sent) = inflight.pop_front().expect("a reply answers a request");
                let ex = &pool[i];
                if status == 200 && self.buf[start..][body] == ex.expected_body[..] {
                    d.ok += 1;
                    d.rows += ex.rows;
                } else {
                    d.failed += 1;
                }
                d.latencies_us
                    .push(now.duration_since(sent).as_secs_f64() * 1e6);
                start += total;
            }
            // Keep only the partial reply at the tail, if any.
            self.buf.drain(..start);
            if sending && until(&d) {
                sending = false;
            }
        }
        d.wall = t0.elapsed();
        d
    }
}

/// `GET /metrics` on its own connection, returning `ifair_requests_total`.
pub fn requests_total(addr: SocketAddr) -> u64 {
    let (status, body) = ifair_serve::client::get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200, "/metrics answered {status}");
    body.lines()
        .find_map(|l| l.strip_prefix("ifair_requests_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("/metrics carries ifair_requests_total")
}
