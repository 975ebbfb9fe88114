//! Robustness end-to-end tests: deadline budgets and load shedding, the
//! graceful-shutdown drain, and the retrying client — all over real
//! sockets, no fault injection required (see `chaos.rs` for that half).

use ifair::core::IFairConfig;
use ifair::data::Dataset;
use ifair::linalg::Matrix;
use ifair::Pipeline;
use ifair_serve::client::{self, RetryPolicy};
use ifair_serve::{ModelRegistry, ModelSpec, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn toy_dataset(m: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|i| {
            let t = i as f64 / m as f64;
            vec![t, 1.0 - t + 0.05 * ((i * 7 % 5) as f64), (i % 2) as f64]
        })
        .collect();
    Dataset::new(
        Matrix::from_rows(rows).unwrap(),
        vec!["a".into(), "b".into(), "gender".into()],
        vec![false, false, true],
        Some(
            (0..m)
                .map(|i| f64::from(i as f64 / m as f64 > 0.5))
                .collect(),
        ),
        (0..m).map(|i| (i % 2) as u8).collect(),
    )
    .unwrap()
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ifair-serve-robust-{tag}-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn write_artifact(tag: &str, seed: u64) -> PathBuf {
    let ds = toy_dataset(24);
    let pipeline = Pipeline::builder()
        .standard_scaler()
        .ifair(IFairConfig {
            k: 2,
            max_iters: 15,
            n_restarts: 1,
            seed,
            ..Default::default()
        })
        .logistic_regression_default()
        .fit(&ds)
        .unwrap();
    let path = temp_file(tag);
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    path
}

fn boot(path: &std::path::Path, config: ServerConfig) -> ifair_serve::ServerHandle {
    let registry = ModelRegistry::load(vec![ModelSpec {
        name: "m".into(),
        path: path.to_path_buf(),
        precision: ifair_serve::Precision::F64,
    }])
    .unwrap();
    Server::bind("127.0.0.1:0", registry, config)
        .unwrap()
        .spawn()
}

const BODY: &str = "{\"rows\":[[0.3,0.7,1.0],[0.6,0.4,0.0]]}";

#[test]
fn zero_budget_requests_are_shed_with_retry_after() {
    let path = write_artifact("shed", 3);
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    // A 0ms budget is always exhausted by handler time: deterministic shed.
    // Raw socket so the Retry-After header is visible (the test client
    // keeps only status + body).
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST /v1/models/m/transform HTTP/1.1\r\nHost: x\r\nX-Ifair-Deadline-Ms: 0\r\nContent-Length: {}\r\n\r\n{BODY}",
        BODY.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
    assert!(raw.contains("Retry-After: 1\r\n"), "{raw}");
    assert!(raw.contains("deadline budget exhausted"), "{raw}");
    assert_eq!(handle.metrics().shed_total(), 1);

    // A roomy budget sails through.
    let (status, body) = client::request_with(
        addr,
        "POST",
        "/v1/models/m/transform",
        &[("X-Ifair-Deadline-Ms", "60000".to_string())],
        Some(BODY),
        Some(Duration::from_secs(10)),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");

    // Garbage in the header is a 400, not a guess.
    let (status, body) = client::request_with(
        addr,
        "POST",
        "/v1/models/m/transform",
        &[("X-Ifair-Deadline-Ms", "soon".to_string())],
        Some(BODY),
        None,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("X-Ifair-Deadline-Ms"), "{body}");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Under saturating load with tiny deadlines, transforms may be shed — but
/// `/healthz` and `/metrics` always answer 200, so the operator can watch a
/// saturated server degrade instead of losing sight of it.
#[test]
fn health_and_metrics_answer_while_transforms_shed() {
    let path = write_artifact("saturate", 5);
    // One worker, but a queue deep enough that connections are never shed
    // at accept (which is path-blind): the deadline machinery must do the
    // shedding, after the path is known, so health traffic is exempt.
    let handle = boot(
        &path,
        ServerConfig {
            n_threads: 1,
            queue_capacity: 64,
            max_batch_rows: 64,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..6u64)
        .map(|h| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut shed = 0u64;
                // Even hammers carry an unmeetable 0ms budget (guaranteed
                // shed), odd ones 5ms — beatable only when the queue is
                // short, so saturation decides their fate.
                let budget = if h % 2 == 0 { "0" } else { "5" };
                while !stop.load(Ordering::Relaxed) {
                    match client::request_with(
                        addr,
                        "POST",
                        "/v1/models/m/transform",
                        &[("X-Ifair-Deadline-Ms", budget.to_string())],
                        Some(BODY),
                        Some(Duration::from_secs(10)),
                    ) {
                        Ok((200, _)) => {}
                        Ok((503, body)) => {
                            // Queue-full and deadline sheds both speak 503.
                            assert!(
                                body.contains("deadline budget") || body.contains("queue is full"),
                                "{body}"
                            );
                            shed += 1;
                        }
                        Ok((504, _)) => {} // budget died mid-wait
                        Ok((status, body)) => panic!("unexpected {status}: {body}"),
                        // Connection-level shed (refused while the queue
                        // churns) — acceptable under saturation.
                        Err(_) => {}
                    }
                }
                shed
            })
        })
        .collect();

    // While the hammers run, the observability plane must stay green.
    let mut health_checks = 0u32;
    let deadline = std::time::Instant::now() + Duration::from_millis(800);
    while std::time::Instant::now() < deadline {
        if let Ok((status, body)) = client::get(addr, "/healthz") {
            assert_eq!(status, 200, "{body}");
            health_checks += 1;
        }
        if let Ok((status, body)) = client::get(addr, "/metrics") {
            assert_eq!(status, 200, "{body}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    let total_shed: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();

    assert!(health_checks > 10, "health plane starved: {health_checks}");
    assert!(total_shed > 0, "saturation never shed a single request");
    let rendered = handle.metrics().render(1, 1, &[("m".to_string(), "f64")]);
    assert!(rendered.contains("ifair_requests_shed_total"), "{rendered}");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Graceful shutdown drains: a request already accepted completes with a
/// full 200 even though shutdown started while it was in flight.
#[test]
fn shutdown_drains_in_flight_requests() {
    let path = write_artifact("drain", 7);
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    let in_flight: Vec<_> = (0..6)
        .map(|_| std::thread::spawn(move || client::post(addr, "/v1/models/m/transform", BODY)))
        .collect();
    // Let the requests reach the server, then shut down underneath them.
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();

    for flight in in_flight {
        let (status, body) = flight
            .join()
            .unwrap()
            .expect("in-flight request dropped during drain");
        assert_eq!(status, 200, "in-flight request failed during drain: {body}");
    }

    // The port is actually closed afterwards.
    assert!(client::get(addr, "/healthz").is_err());
    std::fs::remove_file(&path).ok();
}

/// The retrying client rides out a shed: a 0-budget request is always shed,
/// but the retry's fresh attempts carry a sane budget and succeed.
#[test]
fn retry_policy_recovers_from_transient_rejection() {
    let path = write_artifact("retry", 9);
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    // Single-shot: always shed.
    let (status, _) = client::request_with(
        addr,
        "POST",
        "/v1/models/m/transform",
        &[("X-Ifair-Deadline-Ms", "0".to_string())],
        Some(BODY),
        None,
    )
    .unwrap();
    assert_eq!(status, 503);

    // Under the policy, a request with a real budget succeeds first try and
    // the retry machinery does not interfere with a healthy server.
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        attempt_timeout: Duration::from_secs(10),
        seed: 42,
    };
    let (status, body) = policy
        .request(
            addr,
            "POST",
            "/v1/models/m/transform",
            &[("X-Ifair-Deadline-Ms", "60000".to_string())],
            Some(BODY),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Writes every `(path, body)` request on one connection before reading
/// any reply (pipelining, so the batcher sees them queued together), then
/// reads the replies in order as `(status, body)`.
fn pipelined(addr: std::net::SocketAddr, requests: &[(&str, String)]) -> Vec<(u16, String)> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    for (path, body) in requests {
        out.extend_from_slice(
            format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    stream.write_all(&out).unwrap();
    let mut buf = Vec::new();
    let mut replies = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while replies.len() < requests.len() {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed after {} replies", replies.len());
        buf.extend_from_slice(&chunk[..n]);
        while let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok())
                .expect("reply has a Content-Length");
            let total = head_end + 4 + len;
            if buf.len() < total {
                break;
            }
            let status = head[9..12].parse().unwrap();
            let body = String::from_utf8(buf[head_end + 4..total].to_vec()).unwrap();
            replies.push((status, body));
            buf.drain(..total);
        }
    }
    replies
}

/// A body nested 10,000 levels deep used to overflow the reactor thread's
/// stack and abort the process. The parser's nesting cap turns it into a
/// 400, and the server keeps serving.
#[test]
fn deeply_nested_body_is_a_400_and_the_server_survives() {
    let path = write_artifact("deep", 13);
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    let depth = 10_000;
    let deep = format!("{{\"rows\":{}{}}}", "[".repeat(depth), "]".repeat(depth));
    for endpoint in ["transform", "predict", "certify"] {
        let (status, body) =
            client::post(addr, &format!("/v1/models/m/{endpoint}"), &deep).unwrap();
        assert_eq!(status, 400, "{endpoint}: {body}");
        assert!(body.contains("nesting deeper than"), "{endpoint}: {body}");
    }
    // Deep nesting under an ignored key is refused the same way.
    let ignored = format!(
        "{{\"rows\":[[0.3,0.7,1.0]],\"x\":{}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let (status, body) = client::post(addr, "/v1/models/m/transform", &ignored).unwrap();
    assert_eq!(status, 400, "{body}");

    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client::post(addr, "/v1/models/m/transform", BODY).unwrap();
    assert_eq!(status, 200, "{body}");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Inputs whose magnitudes overflow the model used to get a 200 carrying
/// `null`s from `/transform` and `/predict`, and a 500 from `/certify`.
/// Each endpoint now answers the offending request alone with a 400 naming
/// the row, while innocent requests pipelined (and so likely co-batched)
/// with it still get their 200.
#[test]
fn overflowing_inputs_are_a_400_for_their_request_alone() {
    let path = write_artifact("overflow", 17);
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    let innocent = BODY.to_string();
    let overflow = "{\"rows\":[[0.3,0.7,1.0],[1e308,1e308,1e308]]}".to_string();
    let with_eps = |rows: &str| format!("{},\"eps\":0.01,\"delta\":0.5}}", &rows[..rows.len() - 1]);
    for (endpoint, good, bad) in [
        ("transform", innocent.clone(), overflow.clone()),
        ("predict", innocent.clone(), overflow.clone()),
        ("certify", with_eps(&innocent), with_eps(&overflow)),
    ] {
        let path = format!("/v1/models/m/{endpoint}");
        let (status, alone) = client::post(addr, &path, &good).unwrap();
        assert_eq!(status, 200, "{endpoint}: {alone}");

        let requests: Vec<(&str, String)> = (0..6)
            .map(|i| {
                (
                    path.as_str(),
                    if i % 3 == 1 {
                        bad.clone()
                    } else {
                        good.clone()
                    },
                )
            })
            .collect();
        for (i, (status, body)) in pipelined(addr, &requests).into_iter().enumerate() {
            assert!(!body.contains("null"), "{endpoint}: {body}");
            if i % 3 == 1 {
                assert_eq!(status, 400, "{endpoint}: {body}");
                if endpoint != "certify" {
                    assert!(body.contains("row 1"), "{endpoint}: {body}");
                    assert!(body.contains("overflow"), "{endpoint}: {body}");
                }
            } else {
                assert_eq!(status, 200, "{endpoint}: {body}");
                assert_eq!(body, alone, "{endpoint}: co-batched reply differs");
            }
        }
    }

    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
