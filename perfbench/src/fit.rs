//! `fit_minibatch` and `fit_dp`: mini-batch Adam fits streamed from a
//! seeded `.ifb` shard set, in-process or through one worker process. The
//! shard set is converted from the run's CSV input during set-up.

use crate::host::Region;
use crate::population::{self, Use};
use crate::serve::YNN_K;
use crate::stats::Reservoir;
use crate::Timed;
use ifair::core::{DpDataSpec, FitCheckpoint, FitStrategy, IFair, IFairConfig};
use ifair::data::binfmt::BinDatasetWriter;
use ifair::data::{BinRecordSource, ChunkedCsvReader};
use ifair::models::logreg::LogisticRegression;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records in the shard set, and rows per shard (four shards).
pub const RECORDS: usize = 16_384;
const SHARD_ROWS: usize = 4_096;
/// The schedule both fit workloads share.
pub const BATCH: usize = 256;
pub const PAIRS: usize = 1_024;
pub const EPOCHS_PER_FIT: usize = 20;
pub const LEARNING_RATE: f64 = 0.05;
/// CSV-to-shards conversions before the timed region, and again after it;
/// `setup_s` is the median of both.
pub const SETUP_REPS: usize = 8;
/// Epochs a run times at least, so ten lie beyond its p90.
const MIN_EPOCHS: usize = 110;
/// Records of the yNN evaluation set.
const EVAL_RECORDS: usize = 1_000;

/// Who computes the gradient chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// In-process `FitStrategy::MiniBatch`.
    MiniBatch,
    /// `FitStrategy::DataParallel` with one worker process.
    DataParallel,
}

impl Strategy {
    pub fn other(self) -> Strategy {
        match self {
            Strategy::MiniBatch => Strategy::DataParallel,
            Strategy::DataParallel => Strategy::MiniBatch,
        }
    }
}

/// Steps per epoch of the schedule.
pub const fn steps_per_epoch() -> usize {
    RECORDS.div_ceil(BATCH)
}

/// The fit configuration: one compute thread, one restart.
pub fn config(strategy: Strategy, seed: u64) -> IFairConfig {
    let strategy = match strategy {
        Strategy::MiniBatch => FitStrategy::MiniBatch {
            batch_records: BATCH,
            pairs_per_batch: PAIRS,
            epochs: EPOCHS_PER_FIT,
            learning_rate: LEARNING_RATE,
        },
        Strategy::DataParallel => FitStrategy::DataParallel {
            workers: crate::THREAD_BUDGET,
            batch_records: BATCH,
            pairs_per_batch: PAIRS,
            epochs: EPOCHS_PER_FIT,
            learning_rate: LEARNING_RATE,
        },
    };
    IFairConfig {
        k: 10,
        n_restarts: 1,
        n_threads: crate::THREAD_BUDGET,
        seed,
        strategy,
        ..IFairConfig::default()
    }
}

/// Chunk size of the CSV reader, as `ifair convert` uses.
const CSV_CHUNK_ROWS: usize = 4_096;

/// Writes the [`RECORDS`] rows `seed` draws from the population as the
/// run's numeric CSV input (header row first). Not timed: this is the
/// user's data as it arrives.
fn write_csv(seed: u64, path: &Path) {
    let gen = population::population();
    let lo = population::offset(seed, Use::Shards, RECORDS);
    let n = gen.width();
    let mut text: Vec<String> = vec![(0..n)
        .map(|j| format!("f{j}"))
        .collect::<Vec<_>>()
        .join(",")];
    let mut row = vec![0.0; n];
    for i in lo..lo + RECORDS {
        gen.row_into(i, &mut row);
        text.push(row.iter().map(f64::to_string).collect::<Vec<_>>().join(","));
    }
    std::fs::write(path, text.join("\n") + "\n").expect("write CSV input");
}

/// Converts the CSV at `csv` into the `.ifb` shard set under `stem`, the
/// way `ifair convert --csv` does. Returns the shard paths.
pub fn convert(csv: &Path, stem: &Path) -> Vec<PathBuf> {
    let reader = ChunkedCsvReader::open(csv, CSV_CHUNK_ROWS).expect("open CSV");
    let names = reader.feature_names().to_vec();
    let mut writer = BinDatasetWriter::create(stem, names, SHARD_ROWS).expect("shard writer");
    for chunk in reader {
        let chunk = chunk.expect("CSV chunk");
        for i in 0..chunk.rows() {
            writer.push_row(chunk.row(i)).expect("write row");
        }
    }
    writer.finish().expect("finish shards")
}

/// Converts the run's CSV input `reps` times, keeping the last shard set;
/// returns its paths with every conversion's wall time in seconds.
pub fn set_up(seed: u64, dir: &Path, reps: usize) -> (Vec<PathBuf>, Vec<f64>) {
    let csv = dir.join("input.csv");
    write_csv(seed, &csv);
    let mut times = Vec::with_capacity(reps);
    let mut kept: Vec<PathBuf> = Vec::new();
    for rep in 0..reps {
        for old in kept.drain(..) {
            std::fs::remove_file(old).expect("remove old shard");
        }
        let t = Instant::now();
        kept = convert(&csv, &dir.join(format!("shards-{rep}")));
        times.push(t.elapsed().as_secs_f64());
    }
    (kept, times)
}

/// A fit workload with its shard set converted.
pub struct FitBench {
    pub strategy: Strategy,
    seed: u64,
    pub shards: Vec<PathBuf>,
    pub protected: Vec<bool>,
    pub setup_s: Vec<f64>,
    /// `to_json` of the first fit; every later fit must match it.
    reference: Option<String>,
}

impl FitBench {
    pub fn set_up(strategy: Strategy, seed: u64, dir: &Path) -> FitBench {
        FitBench::with_reps(strategy, seed, dir, SETUP_REPS)
    }

    pub fn with_reps(strategy: Strategy, seed: u64, dir: &Path, reps: usize) -> FitBench {
        let (shards, setup_s) = set_up(seed, dir, reps);
        FitBench {
            strategy,
            seed,
            shards,
            protected: population::population().protected_flags(),
            setup_s,
            reference: None,
        }
    }

    /// One whole fit with `strategy`, pushing each epoch's wall time (µs)
    /// onto `epoch_us`. The first epoch's time includes opening the shards
    /// and, for `fit_dp`, spawning the worker.
    pub fn fit(&self, strategy: Strategy, epoch_us: &mut Vec<f64>) -> IFair {
        self.fit_with(strategy, epoch_us, || {})
    }

    /// [`FitBench::fit`], running `between_epochs` after each epoch outside
    /// the epoch times.
    pub fn fit_with(
        &self,
        strategy: Strategy,
        epoch_us: &mut Vec<f64>,
        mut between_epochs: impl FnMut(),
    ) -> IFair {
        let cfg = config(strategy, self.seed);
        let mut last = Instant::now();
        let sink = |_: &FitCheckpoint| {
            epoch_us.push(last.elapsed().as_secs_f64() * 1e6);
            between_epochs();
            last = Instant::now();
            Ok(())
        };
        match strategy {
            Strategy::MiniBatch => {
                let mut source = BinRecordSource::open(&self.shards).expect("open shards");
                IFair::fit_source_checkpointed(&mut source, &self.protected, &cfg, sink)
            }
            Strategy::DataParallel => {
                let spec = DpDataSpec::Bin {
                    paths: self
                        .shards
                        .iter()
                        .map(|p| p.to_string_lossy().into_owned())
                        .collect(),
                };
                IFair::fit_data_parallel_checkpointed(&spec, &self.protected, &cfg, sink)
            }
        }
        .expect("fit")
    }

    /// Fits back to back for at least `secs` seconds and [`MIN_EPOCHS`]
    /// epochs. An op is one epoch; an epoch fails when its fit's model
    /// differs from the first fit's by a single bit.
    pub fn timed(&mut self, secs: f64) -> (Timed, IFair) {
        let mut epoch_us = Vec::new();
        let mut failed = 0u64;
        let t = Instant::now();
        let (last, region) = Region::measure(|| loop {
            let before = epoch_us.len();
            let model = self.fit(self.strategy, &mut epoch_us);
            let json = model.to_json().expect("model serializes");
            let reference = self.reference.get_or_insert_with(|| json.clone());
            if *reference != json {
                eprintln!("gate: a repeated fit produced a different model");
                failed += (epoch_us.len() - before) as u64;
            }
            if t.elapsed().as_secs_f64() >= secs && epoch_us.len() >= MIN_EPOCHS {
                break model;
            }
        });
        let wall = t.elapsed();
        let epochs = epoch_us.len() as u64;
        let records = epochs * (steps_per_epoch() * BATCH) as u64;
        let mut latencies = Reservoir::new();
        epoch_us.into_iter().for_each(|v| latencies.push(v));
        (
            Timed::new(latencies, records, wall, epochs, failed, region),
            last,
        )
    }

    /// Fits once with the other strategy and checks that both give the same
    /// learned parameters and training report, bit for bit.
    pub fn matches_other_strategy(&self, model: &IFair) -> bool {
        let other = self.fit(self.strategy.other(), &mut Vec::new());
        let same = learned_json(model) == learned_json(&other);
        if !same {
            eprintln!("gate: fit_minibatch and fit_dp models differ");
        }
        same
    }

    /// yNN consistency of a logistic regression trained on the learned
    /// representation of a fixed evaluation set, neighbours taken on the
    /// non-protected input columns.
    pub fn ynn(&self, model: &IFair) -> f64 {
        let eval = population::records(self.seed, Use::Eval, EVAL_RECORDS);
        let repr = model.transform(&eval.x);
        let clf = LogisticRegression::fit_default(&repr, eval.labels()).expect("logreg fit");
        ifair::metrics::fairness::consistency(&eval.masked_x(), &clf.predict(&repr), YNN_K)
    }
}

/// The learned part of a model as JSON: prototypes, attribute weights and
/// training report. Its configuration names the strategy, so it differs
/// between `fit_minibatch` and `fit_dp` by design.
fn learned_json(model: &IFair) -> String {
    serde_json::to_string(&(model.prototypes(), model.alpha(), model.report()))
        .expect("model parts serialize")
}
