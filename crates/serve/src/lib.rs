//! # `ifair-serve` — online inference for fitted iFair artifacts
//!
//! The workspace can fit and persist schema-versioned [`ifair::Pipeline`]
//! and [`ifair::core::IFair`] artifacts; this crate serves them over HTTP:
//!
//! | endpoint | effect |
//! |----------|--------|
//! | `POST /v1/models/{name}/transform` | map rows through the transform stages |
//! | `POST /v1/models/{name}/predict`   | full chain + terminal predictor scores |
//! | `GET /healthz`                     | liveness + loaded model names |
//! | `GET /metrics`                     | Prometheus text: counts, p50/p99 latency |
//! | `POST /admin/reload`               | re-read every artifact file, swap atomically |
//!
//! The stack is `std`-only (no tokio/hyper — crates.io is unreachable from
//! this build environment): a single **reactor** thread multiplexes every
//! connection over a level-triggered readiness poller (`epoll(7)` on
//! Linux, `poll(2)` elsewhere; raw syscalls behind one scoped `unsafe`
//! module). Sockets are nonblocking; requests are parsed **zero-copy**
//! out of per-connection reusable buffers; HTTP/1.1 keep-alive and
//! pipelining are first-class, with responses always in request order. A
//! single batcher thread coalesces concurrent requests into one stacked
//! matrix per `(model, op)` before **one** forward pass on the shared
//! [`ifair::core::par::WorkerPool`]. Every stage is row-independent, so
//! micro-batching — and the pool size — never changes a single bit of any
//! response relative to the in-process `Pipeline::transform` / `predict`
//! calls.
//!
//! Overload degrades, it never corrupts: per-model admission control
//! answers `429` with `Retry-After`, a full job queue or connection cap
//! answers `503`, per-request deadlines (`X-Ifair-Deadline-Ms`) shed work
//! whose budget is already spent, and both long-lived threads respawn
//! under supervision if a panic escapes.
//!
//! Hot reload swaps the registry map behind an `RwLock`; requests in flight
//! hold `Arc` snapshots of the model they resolved, so a reload never drops
//! or garbles a response.
//!
//! ```no_run
//! use ifair_serve::{ModelRegistry, ModelSpec, Server, ServerConfig};
//!
//! let registry = ModelRegistry::load(vec![ModelSpec::parse("credit=model.json")?])?;
//! let server = Server::bind("127.0.0.1:8080", registry, ServerConfig::default())?;
//! println!("serving on {} ({})", server.addr(), server.backend_name());
//! server.spawn().wait();
//! # Ok::<(), ifair_serve::ServeError>(())
//! ```
//!
//! The `ifair` binary wraps this as `ifair serve --model path.json`; see
//! `docs/SERVING.md` for the full operations runbook.

#![deny(unsafe_code)] // relaxed only inside `poll::sys` (raw epoll/poll syscalls)
#![warn(missing_docs)]

pub mod artifact;
mod batch;
pub mod client;
pub mod codec;
pub mod error;
pub mod http;
pub mod metrics;
mod poll;
mod reactor;
pub mod registry;
pub mod server;
pub mod supervisor;

pub use artifact::Artifact;
pub use error::ServeError;
pub use ifair::core::Precision;
pub use metrics::Metrics;
pub use poll::PollBackend;
pub use registry::{LoadedModel, ModelRegistry, ModelSpec, ReloadReport};
pub use server::{Server, ServerConfig, ServerHandle};
