//! `serve_small` and `serve_bulk`: a scaler → iFair → logreg
//! pipeline, fitted and served in-process, driven over loopback by one
//! load-generator thread on one keep-alive connection.

use crate::host::Region;
use crate::population::{self, Use};
use crate::wire::{self, Client, Exchange, PredictResponse, RowsRequest, TransformResponse};
use crate::Timed;
use ifair::core::{FairnessPairs, IFairConfig};
use ifair::data::Dataset;
use ifair::linalg::Matrix;
use ifair::{FittedStage, Pipeline};
use ifair_serve::artifact::request_dataset;
use ifair_serve::{
    client, ModelRegistry, ModelSpec, Precision, Server, ServerConfig, ServerHandle,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Name the pipeline is served under.
pub const MODEL: &str = "bench";
/// Records of the full-batch L-BFGS fit behind the served pipeline.
pub const TRAIN_RECORDS: usize = 200;
/// Set-ups before the timed region, and again after it; `setup_s` is the
/// median of both.
pub const SETUP_REPS: usize = 4;
/// Distinct requests the load generator cycles through.
const SMALL_POOL: usize = 1024;
const BULK_POOL: usize = 16;
/// Rows per `serve_bulk` request.
pub const BULK_ROWS: usize = 128;
/// Requests in flight on `serve_small`'s connection.
const SMALL_WINDOW: usize = 16;
/// Records of the fixed yNN evaluation set, and its neighbourhood size.
pub const EVAL_RECORDS: usize = 1000;
pub const YNN_K: usize = 10;
/// Untimed traffic before the timed region.
const WARMUP: Duration = Duration::from_millis(500);

/// The two wire workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 1-row `/predict`, 16 pipelined requests in flight.
    Small,
    /// 128-row `/transform`, one request at a time.
    Bulk,
}

impl Shape {
    fn op(self) -> &'static str {
        match self {
            Shape::Small => "predict",
            Shape::Bulk => "transform",
        }
    }

    pub fn path(self) -> String {
        format!("/v1/models/{MODEL}/{}", self.op())
    }

    fn rows_per_request(self) -> usize {
        match self {
            Shape::Small => 1,
            Shape::Bulk => BULK_ROWS,
        }
    }

    fn pool_len(self) -> usize {
        match self {
            Shape::Small => SMALL_POOL,
            Shape::Bulk => BULK_POOL,
        }
    }

    /// Requests in flight on the workload's connection.
    pub fn window(self) -> usize {
        match self {
            Shape::Small => SMALL_WINDOW,
            Shape::Bulk => 1,
        }
    }
}

/// One compute thread for the forward pass: the host steals time from two
/// busy threads (see `BENCHMARK.json`).
fn server_config() -> ServerConfig {
    ServerConfig {
        n_threads: crate::THREAD_BUDGET,
        ..ServerConfig::default()
    }
}

/// Seed of the served model's training set and initialization. The
/// served model is the same in every run; `--seed` draws the traffic and
/// the evaluation set. Full-batch L-BFGS from a random start ends at losses
/// that differ by several times between seeds, which would hide any change
/// in `final_loss` or `setup_s`.
const MODEL_SEED: u64 = 2019;

/// The iFair stage's full-batch L-BFGS configuration.
pub fn ifair_config() -> IFairConfig {
    IFairConfig {
        k: 10,
        n_restarts: 1,
        max_iters: 150,
        fairness_pairs: FairnessPairs::Exact,
        seed: MODEL_SEED,
        n_threads: crate::THREAD_BUDGET,
        ..IFairConfig::default()
    }
}

/// The served model's training set.
pub fn training_set() -> Dataset {
    population::records(MODEL_SEED, Use::Train, TRAIN_RECORDS)
}

/// A fitted pipeline being served.
pub struct Served {
    pub pipeline: Pipeline,
    pub handle: ServerHandle,
}

impl Served {
    /// The pipeline's iFair stage.
    pub fn ifair(&self) -> &ifair::core::IFair {
        self.pipeline
            .stages()
            .iter()
            .find_map(|s| match s {
                FittedStage::IFair(m) => Some(m),
                _ => None,
            })
            .expect("the served pipeline has an iFair stage")
    }
}

/// All one-time work before the first request: generate the training set,
/// fit the pipeline, persist it, load it into a registry, bind and spawn
/// the server, and get a 200 from it.
fn set_up_once(artifact: &Path) -> Served {
    let pipeline = Pipeline::builder()
        .min_max_scaler()
        .ifair(ifair_config())
        .logistic_regression_default()
        .fit(&training_set())
        .expect("pipeline fit");
    std::fs::write(artifact, pipeline.to_json().expect("pipeline serializes"))
        .expect("write artifact");
    let registry = ModelRegistry::load(vec![ModelSpec {
        name: MODEL.into(),
        path: artifact.to_path_buf(),
        precision: Precision::F64,
    }])
    .expect("registry loads the artifact");
    let handle = Server::bind("127.0.0.1:0", registry, server_config())
        .expect("bind loopback")
        .spawn();
    let (status, _) = client::get(handle.addr(), "/healthz").expect("healthz");
    assert_eq!(status, 200, "/healthz answered {status}");
    Served { pipeline, handle }
}

/// Sets up `reps` times, keeping the last server running; returns it with
/// every set-up's wall time in seconds.
pub fn set_up(dir: &Path, reps: usize) -> (Served, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        if let Some(old) = kept.take() {
            let Served { handle, .. } = old;
            handle.shutdown();
        }
        let t = Instant::now();
        let served = set_up_once(&dir.join(format!("model-{rep}.json")));
        times.push(t.elapsed().as_secs_f64());
        kept = Some(served);
    }
    (kept.expect("at least one set-up"), times)
}

/// Wall times of `reps` set-ups, each server shut down after it.
pub fn set_up_times(dir: &Path, reps: usize) -> Vec<f64> {
    let (served, times) = set_up(dir, reps);
    served.handle.shutdown();
    times
}

/// The request rows of a workload: `pool_len` matrices of
/// `rows_per_request` rows.
pub fn request_rows(shape: Shape, seed: u64) -> Vec<Matrix> {
    let per = shape.rows_per_request();
    let all = population::records(seed, Use::Requests, shape.pool_len() * per);
    (0..shape.pool_len())
        .map(|r| {
            let rows: Vec<Vec<f64>> = (r * per..(r + 1) * per)
                .map(|i| all.x.row(i).to_vec())
                .collect();
            Matrix::from_rows(rows).expect("rectangular rows")
        })
        .collect()
}

/// The request body for `rows`.
pub fn request_body(rows: &Matrix) -> String {
    serde_json::to_string(&RowsRequest {
        rows: (0..rows.rows()).map(|i| rows.row(i).to_vec()).collect(),
    })
    .expect("request serializes")
}

/// The reply body the server must send for `rows`: the in-process
/// pipeline's result, in the server's wire format.
pub fn expected_body(pipeline: &Pipeline, shape: Shape, rows: &Matrix) -> String {
    let ds = request_dataset(rows.clone(), Vec::new()).expect("request dataset");
    match shape {
        Shape::Small => {
            let (scores, decisions) = pipeline
                .predict_scored_on_prec(&ds, None, Precision::F64)
                .expect("in-process predict");
            serde_json::to_string(&PredictResponse {
                model: MODEL.into(),
                scores,
                decisions,
            })
        }
        Shape::Bulk => {
            let out = pipeline
                .transform_on_prec(&ds, None, Precision::F64)
                .expect("in-process transform");
            serde_json::to_string(&TransformResponse {
                model: MODEL.into(),
                rows: (0..out.rows()).map(|i| out.row(i).to_vec()).collect(),
            })
        }
    }
    .expect("reply serializes")
}

/// A wire workload, set up and ready to drive.
pub struct ServeBench {
    pub shape: Shape,
    pub served: Served,
    pub setup_s: Vec<f64>,
    pool: Vec<Exchange>,
    client: Client,
}

impl ServeBench {
    pub fn set_up(shape: Shape, seed: u64, dir: &Path) -> ServeBench {
        let (served, setup_s) = set_up(dir, SETUP_REPS);
        let pool = request_rows(shape, seed)
            .iter()
            .map(|rows| Exchange {
                request: wire::post_bytes(&shape.path(), &request_body(rows)),
                expected_body: expected_body(&served.pipeline, shape, rows).into_bytes(),
                rows: rows.rows() as u64,
            })
            .collect();
        let client = Client::connect(served.handle.addr());
        ServeBench {
            shape,
            served,
            setup_s,
            pool,
            client,
        }
    }

    /// Drives the connection for `secs` seconds after a warm-up, checking
    /// every reply, and checks that the server counted exactly the
    /// requests sent.
    pub fn timed(&mut self, secs: f64) -> Timed {
        let addr = self.served.handle.addr();
        let window = self.shape.window();
        let warm = Instant::now();
        self.client
            .drive(&self.pool, window, |_| warm.elapsed() >= WARMUP);
        let before = wire::requests_total(addr);
        let (d, region) = Region::measure(|| {
            let t = Instant::now();
            self.client
                .drive(&self.pool, window, |_| t.elapsed().as_secs_f64() >= secs)
        });
        let counted = wire::requests_total(addr) - before;
        // The first scrape is counted too, either in its own reading or in
        // the second one. A miscount fails every request of the region.
        let attempted = d.attempted();
        let mut failed = d.failed;
        if counted != attempted + 1 {
            eprintln!(
                "gate: /metrics counted {counted} requests, {} were sent",
                attempted + 1
            );
            failed = attempted;
        }
        Timed::new(d.latencies_us, d.rows, d.wall, attempted, failed, region)
    }

    /// The paper's yNN consistency of served `/predict` decisions on the
    /// fixed evaluation set, neighbours taken on the non-protected input
    /// columns; `None` if a served decision differs from the in-process
    /// one.
    pub fn ynn(&self, seed: u64) -> Option<f64> {
        let eval = population::records(seed, Use::Eval, EVAL_RECORDS);
        let (_, in_process) = self
            .served
            .pipeline
            .predict_scored_on_prec(&eval, None, Precision::F64)
            .expect("in-process predict");
        let mut served = Vec::with_capacity(EVAL_RECORDS);
        let path = Shape::Small.path();
        for lo in (0..EVAL_RECORDS).step_by(100) {
            let rows = Matrix::from_rows((lo..lo + 100).map(|i| eval.x.row(i).to_vec()).collect())
                .expect("rectangular rows");
            let (status, body) =
                client::post(self.served.handle.addr(), &path, &request_body(&rows))
                    .expect("eval predict");
            assert_eq!(status, 200, "eval predict answered {status}");
            let reply: PredictResponse = serde_json::from_str(&body).expect("predict reply");
            served.extend(reply.decisions);
        }
        let same = served
            .iter()
            .zip(&in_process)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            eprintln!("gate: served yNN decisions differ from in-process ones");
            return None;
        }
        Some(ifair::metrics::fairness::consistency(
            &eval.masked_x(),
            &served,
            YNN_K,
        ))
    }

    /// The served iFair stage's final full-batch L-BFGS loss.
    pub fn final_loss(&self) -> f64 {
        self.served.ifair().report().best().loss
    }

    pub fn shut_down(self) {
        drop(self.client);
        self.served.handle.shutdown();
    }
}
