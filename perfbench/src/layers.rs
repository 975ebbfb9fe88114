//! Per-layer metrics of the traced run, timed from here around calls into
//! each layer's public functions.
//!
//! Every metric is measured on its home workload's inputs (named in
//! `BENCHMARK.json`) whichever workload's traced run prints it, so one name
//! always means one measurement.

use crate::alloc;
use crate::fit::{self, FitBench, Strategy, EPOCHS_PER_FIT};
use crate::population::{self, Use};
use crate::serve::{self, Shape};
use crate::stats::{median, median_us, sorted};
use crate::wire::{self, Client, Exchange, PredictResponse, RowsRequest, TransformResponse};
use crate::Metrics;
use ifair::api::ipc::{read_frame, write_frame, PayloadReader, PayloadWriter};
use ifair::core::{CertMethod, IFair, IFairObjective, MiniBatchObjective};
use ifair::data::stream::RecordSource;
use ifair::data::BinRecordSource;
use ifair::linalg::Matrix;
use ifair::optim::adam::{AdamConfig, AdamState};
use ifair::optim::Objective;
use ifair::{FittedStage, Pipeline};
use ifair_serve::artifact::request_dataset;
use ifair_serve::{http, Artifact, Precision};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long each wire probe drives its connection.
const PROBE: Duration = Duration::from_secs(1);
/// Calls per in-process stage timing.
const SMALL_CALLS: usize = 4096;
const BULK_CALLS: usize = 256;
/// Rounds of one fit per strategy, and steps replayed stage by stage after
/// each epoch of the mini-batch fits.
const FIT_ROUNDS: usize = 3;
const STEPS_PER_EPOCH: usize = 4;
/// Rows and input radius of the certification timing.
const CERT_ROWS: usize = 256;
const CERT_EPS: f64 = 0.05;

/// Median per-call times (µs) of the serving stages on one workload's
/// requests, with allocations per decode and encode call.
struct Stages {
    parse: f64,
    decode: f64,
    to_matrix: f64,
    forward: f64,
    encode: f64,
    respond: f64,
    decode_allocs: u64,
    encode_allocs: u64,
}

impl Stages {
    fn sum(&self) -> f64 {
        self.parse + self.decode + self.to_matrix + self.forward + self.encode + self.respond
    }
}

/// Replays a workload's request bytes through the serving stages
/// in-process, in the order the server runs them. Rows-to-matrix and the
/// forward pass run once per batch in the server, over the requests the
/// batcher coalesced; they are timed here on stacks of the workload's
/// in-flight window and reported per request.
fn stages(pipeline: &Pipeline, shape: Shape, seed: u64) -> Stages {
    let calls = match shape {
        Shape::Small => SMALL_CALLS,
        Shape::Bulk => BULK_CALLS,
    };
    let artifact = Artifact::Pipeline(pipeline.clone());
    let bodies: Vec<String> = serve::request_rows(shape, seed)
        .iter()
        .map(serve::request_body)
        .collect();
    let requests: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| wire::post_bytes(&shape.path(), b))
        .collect();
    let nth = |i: usize| i % bodies.len();

    let mut i = 0;
    let parse = median_us(calls, || {
        let parsed = http::parse_request(&requests[nth(i)]).expect("request parses");
        std::hint::black_box(parsed.expect("request is complete"));
        i += 1;
    });
    let decode_one =
        |i: usize| -> RowsRequest { serde_json::from_str(&bodies[nth(i)]).expect("body decodes") };
    let mut i = 0;
    let decode = median_us(calls, || {
        std::hint::black_box(decode_one(i));
        i += 1;
    });
    let (_, decode_allocs) = alloc::counted(|| decode_one(0));

    // The next stages consume their input, so it is made outside the timing.
    let window = shape.window();
    let batches = calls / window;
    let stacked = |b: usize| -> Vec<Vec<f64>> {
        (0..window)
            .flat_map(|j| decode_one(b * window + j).rows)
            .collect()
    };
    let mut decoded: Vec<Vec<Vec<f64>>> = (0..batches).map(stacked).collect();
    let to_matrix = median_us(batches, || {
        let rows = decoded.pop().expect("one input per call");
        let x = Matrix::from_rows(rows).expect("rectangular rows");
        std::hint::black_box(request_dataset(x, Vec::new()).expect("request dataset"));
    }) / window as f64;
    let mut matrices: Vec<Matrix> = (0..batches)
        .map(|b| Matrix::from_rows(stacked(b)).expect("rectangular rows"))
        .collect();
    let forward_one = |x: Matrix| match shape {
        Shape::Small => {
            let (scores, decisions) = artifact
                .predict(x, Vec::new(), None, Precision::F64)
                .expect("predict");
            Reply::Predict(PredictResponse {
                model: serve::MODEL.into(),
                scores,
                decisions,
            })
        }
        Shape::Bulk => {
            let out = artifact
                .transform(x, Vec::new(), None, Precision::F64)
                .expect("transform");
            Reply::Transform(TransformResponse {
                model: serve::MODEL.into(),
                rows: (0..out.rows()).map(|r| out.row(r).to_vec()).collect(),
            })
        }
    };
    let forward = median_us(batches, || {
        let x = matrices.pop().expect("one input per call");
        std::hint::black_box(forward_one(x));
    }) / window as f64;

    let replies: Vec<Reply> = (0..bodies.len())
        .map(|i| forward_one(Matrix::from_rows(decode_one(i).rows).expect("rows")))
        .collect();
    let mut i = 0;
    let encode = median_us(calls, || {
        std::hint::black_box(replies[nth(i)].encode());
        i += 1;
    });
    let (_, encode_allocs) = alloc::counted(|| replies[0].encode());
    let encoded: Vec<String> = replies.iter().map(Reply::encode).collect();
    let mut out = Vec::with_capacity(1 << 20);
    let mut i = 0;
    let respond = median_us(calls, || {
        out.clear();
        http::append_response(
            &mut out,
            200,
            "application/json",
            &[],
            true,
            encoded[nth(i)].as_bytes(),
        );
        std::hint::black_box(&out);
        i += 1;
    });
    Stages {
        parse,
        decode,
        to_matrix,
        forward,
        encode,
        respond,
        decode_allocs: decode_allocs.count,
        encode_allocs: encode_allocs.count,
    }
}

/// A reply body before encoding.
enum Reply {
    Predict(PredictResponse),
    Transform(TransformResponse),
}

impl Reply {
    fn encode(&self) -> String {
        match self {
            Reply::Predict(r) => serde_json::to_string(r),
            Reply::Transform(r) => serde_json::to_string(r),
        }
        .expect("reply encodes")
    }
}

/// Drives a live server for [`PROBE`] with allocation counting off, then
/// for another [`PROBE`] with it on: `(wall µs per request of the first
/// drive, allocations per request and bytes per request of the second)`.
fn wire_probe(served: &serve::Served, shape: Shape, seed: u64) -> (f64, f64, f64) {
    let window = shape.window();
    let pool: Vec<Exchange> = serve::request_rows(shape, seed)
        .iter()
        .map(|rows| Exchange {
            request: wire::post_bytes(&shape.path(), &serve::request_body(rows)),
            expected_body: serve::expected_body(&served.pipeline, shape, rows).into_bytes(),
            rows: rows.rows() as u64,
        })
        .collect();
    let mut client = Client::connect(served.handle.addr());
    let warm = Instant::now();
    client.drive(&pool, window, |_| warm.elapsed() >= PROBE / 2);
    let t = Instant::now();
    let timed = client.drive(&pool, window, |_| t.elapsed() >= PROBE);
    let t = Instant::now();
    let (counted, allocs) =
        alloc::counted(|| client.drive(&pool, window, |_| t.elapsed() >= PROBE));
    assert_eq!(
        timed.failed + counted.failed,
        0,
        "wire probe replies differ from in-process results"
    );
    let n = counted.attempted() as f64;
    (
        timed.wall.as_secs_f64() * 1e6 / timed.attempted() as f64,
        allocs.count as f64 / n,
        allocs.bytes as f64 / n,
    )
}

/// Serving layers, set-up layers and certification, on the served
/// pipeline with the requests and evaluation rows of `seed`.
fn serving(seed: u64, dir: &Path, m: &mut Metrics) {
    let (served, _) = serve::set_up(dir, 1);
    let small = stages(&served.pipeline, Shape::Small, seed);
    let bulk = stages(&served.pipeline, Shape::Bulk, seed);
    let (small_wall, small_allocs, small_bytes) = wire_probe(&served, Shape::Small, seed);
    let (_, bulk_allocs, bulk_bytes) = wire_probe(&served, Shape::Bulk, seed);

    m.push("serve.http_parse_us", small.parse, "us");
    m.push("serve.body_decode_us", bulk.decode, "us");
    m.push("serve.rows_to_matrix_us", bulk.to_matrix, "us");
    m.push("serve.forward_us", bulk.forward, "us");
    m.push("serve.body_encode_us", bulk.encode, "us");
    m.push("serve.http_respond_us", small.respond, "us");
    m.push("serve.wire_residual_us", small_wall - small.sum(), "us");
    m.push("serve.alloc_per_request", small_allocs, "count");
    m.push("serve.alloc_bytes_per_request", small_bytes, "bytes");
    m.push("serve.bulk_alloc_per_request", bulk_allocs, "count");
    m.push("serve.bulk_alloc_bytes_per_request", bulk_bytes, "bytes");
    m.push(
        "serve.body_decode_allocs",
        bulk.decode_allocs as f64,
        "count",
    );
    m.push(
        "serve.body_encode_allocs",
        bulk.encode_allocs as f64,
        "count",
    );

    // Set-up: the full-batch objective on the scaled training set.
    let model = served.ifair();
    m.push(
        "setup.lbfgs_evals",
        model.report().best().n_evals as f64,
        "count",
    );
    let scale = |x: &ifair::data::Dataset| match &served.pipeline.stages()[0] {
        FittedStage::MinMaxScaler(s) => {
            ifair::api::Transform::transform(s, x).expect("scaler transform")
        }
        _ => unreachable!("the served pipeline starts with a min-max scaler"),
    };
    let train = serve::training_set();
    let scaled = scale(&train);
    let objective = IFairObjective::new(&scaled, &train.protected, &serve::ifair_config());
    let theta = theta_of(model);
    let mut grad = vec![0.0; theta.len()];
    m.push(
        "setup.full_value_grad_us",
        median_us(21, || {
            std::hint::black_box(objective.value_and_gradient(&theta, &mut grad));
        }),
        "us",
    );

    // Certification of scaled evaluation rows through the iFair stage.
    let rows = scale(&population::records(seed, Use::Eval, CERT_ROWS));
    let certs = model.certify_rows(&rows, CERT_EPS, None).expect("certify");
    let fallback = certs
        .iter()
        .filter(|c| c.method == CertMethod::GlobalDiameter)
        .count();
    m.push(
        "certify.rows_us",
        median_us(7, || {
            std::hint::black_box(model.certify_rows(&rows, CERT_EPS, None).expect("certify"));
        }),
        "us",
    );
    m.push(
        "certify.fallback_share",
        fallback as f64 / CERT_ROWS as f64,
        "ratio",
    );
    served.handle.shutdown();
}

/// The parameter vector `θ = [α, V]` of a fitted model, in the objective's
/// layout.
fn theta_of(model: &IFair) -> Vec<f64> {
    let mut theta = model.alpha().to_vec();
    theta.extend_from_slice(model.prototypes().as_slice());
    theta
}

/// Training layers on the fit workloads' batch shape.
fn training(seed: u64, dir: &Path, m: &mut Metrics) {
    let bench = FitBench::with_reps(Strategy::MiniBatch, seed, dir, 3);
    let convert = median(&sorted(bench.setup_s.clone()));
    m.push(
        "setup.convert_us_per_record",
        convert * 1e6 / fit::RECORDS as f64,
        "us",
    );

    // The stages of a step are replayed between the epochs of the fits
    // whose epochs give the step time, so a drift of the host's speed moves
    // both alike.
    let cfg = fit::config(Strategy::MiniBatch, seed);
    let mut objective = MiniBatchObjective::new(fit::RECORDS, &bench.protected, &cfg);
    let mut source = BinRecordSource::open(&bench.shards).expect("open shards");
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut mb_epochs, mut dp_epochs) = (Vec::new(), Vec::new());
    let (model, allocs) = alloc::counted(|| bench.fit(Strategy::MiniBatch, &mut mb_epochs));
    let mut theta = theta_of(&model);
    let mut grad = vec![0.0; theta.len()];
    let adam_cfg = AdamConfig {
        learning_rate: fit::LEARNING_RATE,
        bounds: Some(
            std::iter::repeat_n(cfg.alpha_bounds.expect("alpha bounds"), model.n_features())
                .chain(std::iter::repeat_n(
                    (f64::NEG_INFINITY, f64::INFINITY),
                    model.prototypes().as_slice().len(),
                ))
                .collect(),
        ),
        ..AdamConfig::default()
    };
    let mut adam = AdamState::new(theta.len());
    let mut rows = vec![0.0; fit::BATCH * model.n_features()];
    let (mut resample, mut read, mut value, mut value_grad, mut step) =
        (vec![], vec![], vec![], vec![], vec![]);
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    // One step as the fit loop takes it, then the batch read and the loss
    // alone on the same batch.
    let mut replay = || {
        for _ in 0..STEPS_PER_EPOCH {
            let t = Instant::now();
            objective.resample(&mut source, &mut rng).expect("resample");
            resample.push(us(t));
            let t = Instant::now();
            std::hint::black_box(objective.value_and_gradient(&theta, &mut grad));
            value_grad.push(us(t));
            let t = Instant::now();
            adam.step(&mut theta, &grad, &adam_cfg);
            step.push(us(t));
            let indices = objective.batch_indices();
            let t = Instant::now();
            source.read_rows(&indices, &mut rows).expect("read rows");
            read.push(us(t));
            let t = Instant::now();
            std::hint::black_box(objective.value(&theta));
            value.push(us(t));
        }
    };
    // The first fit above counted allocations; these give the step time.
    mb_epochs.clear();
    for _ in 0..FIT_ROUNDS {
        bench.fit_with(Strategy::MiniBatch, &mut mb_epochs, &mut replay);
        bench.fit(Strategy::DataParallel, &mut dp_epochs);
    }
    let steps = fit::steps_per_epoch() as f64;
    let fit_steps = EPOCHS_PER_FIT as f64 * steps;
    let step_mb = median(&sorted(mb_epochs)) / steps;
    let step_dp = median(&sorted(dp_epochs)) / steps;
    let [resample, read, value, value_grad, step] =
        [resample, read, value, value_grad, step].map(|v| median(&sorted(v)));

    m.push("fit.read_batch_us", read, "us");
    m.push("fit.resample_us", resample, "us");
    m.push("fit.value_us", value, "us");
    m.push("fit.value_grad_us", value_grad, "us");
    m.push("fit.backprop_us", value_grad - value, "us");
    m.push("fit.adam_step_us", step, "us");
    m.push("fit.step_us", step_mb, "us");
    m.push("fit.ipc_step_us", step_dp - step_mb, "us");
    m.push("fit.ipc_frame_us", ipc_frame_us(&grad), "us");
    m.push(
        "fit.pairs_per_step",
        objective.realized_pairs_per_batch() as f64,
        "count",
    );
    m.push("fit.steps_per_epoch", steps, "count");
    m.push(
        "fit.alloc_per_step",
        allocs.count as f64 / fit_steps,
        "count",
    );
}

/// Median time of one in-memory frame round trip carrying `payload`:
/// encode, frame, unframe, decode.
fn ipc_frame_us(payload: &[f64]) -> f64 {
    let mut out = vec![0.0; payload.len()];
    median_us(SMALL_CALLS, || {
        let mut w = PayloadWriter::new();
        w.put_f64s(payload);
        let mut pipe = Vec::new();
        // The tag is opaque to the framing layer.
        write_frame(&mut pipe, 6, &w.into_bytes()).expect("frame writes");
        let (_, bytes) = read_frame(&mut pipe.as_slice())
            .expect("frame reads")
            .expect("one frame");
        let mut r = PayloadReader::new(&bytes);
        r.get_f64s_into(&mut out).expect("payload decodes");
        std::hint::black_box(&out);
    })
}

/// Every per-layer metric, on its home workload's inputs.
pub fn sweep(seed: u64, dir: &Path, m: &mut Metrics) {
    serving(seed, dir, m);
    training(seed, dir, m);
}
