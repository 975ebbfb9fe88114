//! Micro-batching of concurrent inference requests.
//!
//! The reactor never runs model math itself: it enqueues a [`Job`]
//! carrying a completion callback and goes back to its event loop. A
//! single batcher thread drains the queue, coalesces whatever is pending
//! (up to `max_batch_rows` rows) into one stacked `Matrix` per
//! `(model, op)` group, runs **one** pooled forward pass on the shared
//! [`WorkerPool`], and scatters the row ranges back through each job's
//! callback (which posts a completion to the reactor and wakes it). A
//! lone job's matrix goes into the pass as is, and its output comes back
//! whole: neither is copied.
//! Because every stage of every artifact is row-independent, the stacked
//! pass is bit-identical to running each request alone — batching is
//! purely a throughput optimization.

use crate::metrics::Metrics;
use crate::registry::LoadedModel;
use crate::supervisor::{recover_lock, supervise, ThreadKind};
use ifair::core::par::WorkerPool;
use ifair::core::{CertifyError, FitError};
use ifair::linalg::Matrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Which model call a job wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Map rows through the transform stages.
    Transform,
    /// Run the full chain and score with the terminal predictor.
    Predict,
    /// Certify each row's ε-box. Carries the radius as raw bits so the op
    /// stays `Copy + Eq` and only jobs with the **same** ε coalesce — a
    /// stacked certify pass is row-independent and ε-uniform, so batching
    /// stays bit-identical to per-request calls.
    Certify {
        /// `f64::to_bits` of the (validated, finite, non-negative) radius.
        eps_bits: u64,
    },
}

/// What a completed job hands back to its connection handler — and,
/// before the scatter, what a whole batch computed.
#[derive(Debug)]
pub(crate) enum JobOutput {
    /// Transformed rows, one per input row.
    Rows(Matrix),
    /// `(predict_proba, predict)` of the terminal predictor.
    Scored {
        /// Continuous scores, one per input row.
        scores: Vec<f64>,
        /// Hard decisions, one per input row.
        decisions: Vec<f64>,
    },
    /// Per-row fairness certificates, one per input row.
    Certified(Vec<ifair::Certificate>),
}

/// Why a job came back without an output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JobError {
    /// The batch computation failed (validation slip, trapped panic): a
    /// server fault, answered with a 500.
    Failed(String),
    /// The job's own input is unusable (e.g. a certification box that
    /// overflows to non-finite bounds): a client fault, answered with a
    /// 400. A batch that fails this way is re-run job by job, so only the
    /// offending requests see it.
    BadInput(String),
    /// The job's deadline budget was exhausted before compute started; the
    /// handler maps this to a 503 with `Retry-After`.
    DeadlineExceeded,
}

/// One queued inference request.
pub(crate) struct Job {
    /// The model snapshot resolved at enqueue time — a reload swapping the
    /// registry cannot invalidate a job already in flight.
    pub model: Arc<LoadedModel>,
    pub op: Op,
    /// Validated, non-empty rows.
    pub rows: Matrix,
    /// Per-row group membership (empty = all zeros).
    pub group: Vec<u8>,
    /// Absolute compute deadline (from `X-Ifair-Deadline-Ms`), if any. A
    /// job past its deadline is shed before compute, never after.
    pub deadline: Option<Instant>,
    /// Set by the requester when it stops waiting (reply timeout, deadline,
    /// connection closed): the job is orphaned, and the batcher drops it
    /// instead of computing for — or replying to — nobody.
    pub cancelled: Arc<AtomicBool>,
    /// Completion callback. The reactor passes a closure that posts a
    /// completion message and wakes the poller; tests pass a channel
    /// sender. Must never block (the batcher thread is shared).
    pub reply: Box<dyn FnOnce(Result<JobOutput, JobError>) + Send>,
}

/// Spawns the supervised batcher thread. Returns the job sender (clone one
/// per worker) and the thread handle; the batcher exits when every sender
/// is dropped, and is respawned (restart counted in `metrics`) if a panic
/// escapes the per-batch trap.
pub(crate) fn spawn_batcher(
    pool: Arc<WorkerPool>,
    queue_capacity: usize,
    max_batch_rows: usize,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
) -> (SyncSender<Job>, JoinHandle<()>) {
    let (tx, rx) = sync_channel::<Job>(queue_capacity.max(1));
    // The receiver sits behind a mutex so the supervisor can re-enter the
    // loop after a panic; `recover_lock` absorbs the poison that panic left.
    let rx = Mutex::new(rx);
    let handle = supervise(
        "ifair-serve-batcher".into(),
        ThreadKind::Batcher,
        shutdown,
        metrics,
        move || batcher_loop(&rx, &pool, max_batch_rows.max(1)),
    );
    (tx, handle)
}

fn batcher_loop(rx: &Mutex<Receiver<Job>>, pool: &WorkerPool, max_batch_rows: usize) {
    let rx = recover_lock(rx);
    while let Ok(first) = rx.recv() {
        // Fault site: a scheduled panic here escapes the per-batch trap and
        // kills the batcher thread — exercising the supervisor respawn.
        ifair::api::faults::check_panic("serve.batcher");
        let mut total = first.rows.rows();
        let mut jobs = vec![first];
        // Opportunistic coalescing: take whatever is already queued, up to
        // the row cap — no artificial latency is added waiting for peers.
        while total < max_batch_rows {
            match rx.try_recv() {
                Ok(job) => {
                    total += job.rows.rows();
                    jobs.push(job);
                }
                Err(_) => break,
            }
        }
        // Deadline triage before any compute: orphaned jobs (whose handler
        // stopped waiting) are dropped outright, jobs past their deadline
        // are shed with a typed error while their handler is still there to
        // translate it into a 503.
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.cancelled.load(Ordering::SeqCst) {
                continue;
            }
            if job.deadline.is_some_and(|d| now >= d) {
                (job.reply)(Err(JobError::DeadlineExceeded));
                continue;
            }
            live.push(job);
        }
        for group in group_jobs(live) {
            execute_group(pool, group);
        }
    }
}

/// Groups jobs by `(model snapshot, op, row width)`, preserving arrival
/// order — only requests against the same loaded artifact and endpoint can
/// share a forward pass, and only rows of one width stack into a matrix
/// (widths differ only for an artifact that fixes none).
fn group_jobs(jobs: Vec<Job>) -> Vec<Vec<Job>> {
    type Key = (*const LoadedModel, Op, usize);
    let mut groups: Vec<(Key, Vec<Job>)> = Vec::new();
    for job in jobs {
        let key = (Arc::as_ptr(&job.model), job.op, job.rows.cols());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(job),
            None => groups.push((key, vec![job])),
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

/// Stacks a group into one matrix, runs one pooled pass, scatters replies.
fn execute_group(pool: &WorkerPool, mut jobs: Vec<Job>) {
    let model = Arc::clone(&jobs[0].model);
    let op = jobs[0].op;
    let sizes: Vec<usize> = jobs.iter().map(|j| j.rows.rows()).collect();
    let (matrix, group) = if let [job] = &mut jobs[..] {
        let group = match std::mem::take(&mut job.group) {
            g if g.is_empty() => vec![0u8; sizes[0]],
            g => g,
        };
        (std::mem::replace(&mut job.rows, Matrix::zeros(0, 0)), group)
    } else {
        // Copy, don't move: a batch that fails on one job's input is re-run
        // job by job from these buffers.
        let total: usize = sizes.iter().sum();
        let mut stacked = Vec::with_capacity(total * jobs[0].rows.cols());
        let mut group = Vec::with_capacity(total);
        for (job, &size) in jobs.iter().zip(&sizes) {
            stacked.extend_from_slice(job.rows.as_slice());
            if job.group.is_empty() {
                group.extend(std::iter::repeat_n(0u8, size));
            } else {
                group.extend_from_slice(&job.group);
            }
        }
        let matrix = Matrix::from_vec(total, jobs[0].rows.cols(), stacked)
            .expect("jobs of one group share a row width");
        (matrix, group)
    };

    // The handlers validated shape and capability, so failures here are
    // defensive; a panic must not kill the batcher (it would starve every
    // future request), so trap it and report a 500 instead.
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Fault site: a scheduled panic here stays inside the trap and
        // becomes a per-request 500 — the batcher survives.
        ifair::api::faults::check_panic("serve.batch.compute");
        let failed = |e: FitError| JobError::Failed(e.to_string());
        match op {
            Op::Transform => model
                .artifact
                .transform(matrix, group, Some(pool), model.precision)
                .map(JobOutput::Rows)
                .map_err(failed),
            Op::Predict => model
                .artifact
                .predict(matrix, group, Some(pool), model.precision)
                .map(|(scores, decisions)| JobOutput::Scored { scores, decisions })
                .map_err(failed),
            Op::Certify { eps_bits } => model
                .artifact
                .certify(
                    matrix,
                    f64::from_bits(eps_bits),
                    Some(pool),
                    model.precision,
                )
                .map(JobOutput::Certified)
                .map_err(|e| match e {
                    CertifyError::Epsilon(_) | CertifyError::Model(FitError::Data(_)) => {
                        JobError::BadInput(e.to_string())
                    }
                    e => JobError::Failed(e.to_string()),
                }),
        }
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("unknown panic");
        Err(JobError::Failed(format!(
            "internal error during batch execution: {msg}"
        )))
    });

    match result {
        Ok(output) => scatter(jobs, &sizes, output),
        // Every stage is row-independent, so a job re-run alone computes
        // the bits it would have had in the batch.
        Err(JobError::BadInput(_)) if jobs.len() > 1 => {
            for job in jobs {
                execute_group(pool, vec![job]);
            }
        }
        Err(err) => {
            for job in jobs {
                // A requester that gave up (timed out, disconnected) has
                // no one listening; skip the dead letter.
                if job.cancelled.load(Ordering::SeqCst) {
                    continue;
                }
                (job.reply)(Err(err.clone()));
            }
        }
    }
}

impl JobOutput {
    /// Rows `start..start + len` of a batch's output.
    fn slice(&self, start: usize, len: usize) -> JobOutput {
        let range = start..start + len;
        match self {
            JobOutput::Rows(m) => {
                let cols = m.cols();
                let data = m.as_slice()[start * cols..(start + len) * cols].to_vec();
                JobOutput::Rows(Matrix::from_vec(len, cols, data).expect("slice of a matrix"))
            }
            JobOutput::Scored { scores, decisions } => JobOutput::Scored {
                scores: scores[range.clone()].to_vec(),
                decisions: decisions[range].to_vec(),
            },
            JobOutput::Certified(certs) => JobOutput::Certified(certs[range].to_vec()),
        }
    }
}

/// Splits the stacked output back into per-job row ranges, in job order;
/// a lone job takes the whole output. Jobs whose handler cancelled them
/// mid-compute are skipped — their slice of the output has no one left
/// to read it.
fn scatter(jobs: Vec<Job>, sizes: &[usize], output: JobOutput) {
    if let [_] = &jobs[..] {
        let job = jobs.into_iter().next().expect("one job");
        if !job.cancelled.load(Ordering::SeqCst) {
            (job.reply)(Ok(output));
        }
        return;
    }
    let mut offset = 0usize;
    for (job, &size) in jobs.into_iter().zip(sizes) {
        if !job.cancelled.load(Ordering::SeqCst) {
            (job.reply)(Ok(output.slice(offset, size)));
        }
        offset += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;
    use ifair::core::{IFair, IFairConfig};
    use std::path::PathBuf;

    fn loaded_model(seed: u64) -> Arc<LoadedModel> {
        let x = Matrix::from_rows(
            (0..16)
                .map(|i| vec![i as f64 / 16.0, 1.0 - i as f64 / 16.0, (i % 2) as f64])
                .collect(),
        )
        .unwrap();
        let config = IFairConfig {
            k: 2,
            max_iters: 10,
            n_restarts: 1,
            seed,
            ..Default::default()
        };
        let model = IFair::fit(&x, &[false, false, true], &config).unwrap();
        Arc::new(LoadedModel {
            name: "m".into(),
            path: PathBuf::from("in-memory"),
            artifact: Artifact::Model(Box::new(model)),
            precision: ifair::core::Precision::F64,
            generation: 1,
        })
    }

    type ReplyFn = Box<dyn FnOnce(Result<JobOutput, JobError>) + Send>;

    /// Wraps a capacity-1 channel in the callback form [`Job::reply`]
    /// takes, so tests can still block on a receiver.
    fn channel_reply() -> (ReplyFn, Receiver<Result<JobOutput, JobError>>) {
        let (tx, rx) = sync_channel(1);
        (
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
            rx,
        )
    }

    fn job(
        model: &Arc<LoadedModel>,
        rows: Vec<Vec<f64>>,
    ) -> (Job, Receiver<Result<JobOutput, JobError>>) {
        let (reply, rx) = channel_reply();
        (
            Job {
                model: Arc::clone(model),
                op: Op::Transform,
                rows: Matrix::from_rows(rows).unwrap(),
                group: vec![],
                deadline: None,
                cancelled: Arc::new(AtomicBool::new(false)),
                reply,
            },
            rx,
        )
    }

    #[test]
    fn stacked_batch_matches_individual_transforms_bitwise() {
        let model = loaded_model(3);
        let pool = WorkerPool::new(2);
        let rows_a = vec![vec![0.1, 0.9, 0.0], vec![0.7, 0.3, 1.0]];
        let rows_b = vec![vec![0.5, 0.5, 1.0]];
        let (job_a, rx_a) = job(&model, rows_a.clone());
        let (job_b, rx_b) = job(&model, rows_b.clone());
        execute_group(&pool, vec![job_a, job_b]);

        let expect = |rows: Vec<Vec<f64>>| {
            let m = match &model.artifact {
                Artifact::Model(m) => m,
                _ => unreachable!(),
            };
            m.transform(&Matrix::from_rows(rows).unwrap())
        };
        match rx_a.recv().unwrap().unwrap() {
            JobOutput::Rows(rows) => assert_eq!(rows, expect(rows_a)),
            other => panic!("unexpected output {other:?}"),
        }
        match rx_b.recv().unwrap().unwrap() {
            JobOutput::Rows(rows) => assert_eq!(rows, expect(rows_b)),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn a_certify_input_fault_fails_only_its_own_job() {
        let model = loaded_model(9);
        let pool = WorkerPool::new(1);
        let certify = |rows| {
            let (mut job, rx) = job(&model, rows);
            job.op = Op::Certify {
                eps_bits: 0.01f64.to_bits(),
            };
            (job, rx)
        };
        // f64::MAX + ε rounds out to an infinite box bound.
        let (guilty, rx_guilty) = certify(vec![vec![f64::MAX, 0.5, 1.0]]);
        let (innocent, rx_innocent) = certify(vec![vec![0.2, 0.8, 1.0], vec![0.4, 0.6, 0.0]]);
        execute_group(&pool, vec![guilty, innocent]);
        match rx_guilty.recv().unwrap() {
            Err(JobError::BadInput(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
            other => panic!("unexpected result {other:?}"),
        }
        match rx_innocent.recv().unwrap() {
            Ok(JobOutput::Certified(certs)) => assert_eq!(certs.len(), 2),
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn groups_split_by_model_and_op() {
        let a = loaded_model(1);
        let b = loaded_model(2);
        let (ja, _ra) = job(&a, vec![vec![0.0; 3]]);
        let (jb, _rb) = job(&b, vec![vec![0.0; 3]]);
        let (ja2, _ra2) = job(&a, vec![vec![1.0; 3]]);
        let groups = group_jobs(vec![ja, jb, ja2]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2, "same-model jobs coalesce");
        assert_eq!(groups[1].len(), 1);
    }

    #[test]
    fn batcher_thread_drains_and_exits_on_disconnect() {
        let pool = Arc::new(WorkerPool::new(1));
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, handle) = spawn_batcher(pool, 8, 64, shutdown, Arc::clone(&metrics));
        let model = loaded_model(5);
        let (job, rx) = job(&model, vec![vec![0.2, 0.8, 1.0]]);
        tx.send(job).unwrap();
        assert!(matches!(rx.recv().unwrap(), Ok(JobOutput::Rows(_))));
        drop(tx);
        handle.join().unwrap();
        assert_eq!(metrics.thread_restarts(ThreadKind::Batcher), 0);
    }

    #[test]
    fn predict_on_bare_model_reports_an_error_not_a_crash() {
        let pool = WorkerPool::new(1);
        let model = loaded_model(7);
        let (reply, rx) = channel_reply();
        execute_group(
            &pool,
            vec![Job {
                model,
                op: Op::Predict,
                rows: Matrix::from_rows(vec![vec![0.1, 0.2, 1.0]]).unwrap(),
                group: vec![],
                deadline: None,
                cancelled: Arc::new(AtomicBool::new(false)),
                reply,
            }],
        );
        match rx.recv().unwrap().unwrap_err() {
            JobError::Failed(msg) => assert!(msg.contains("no predictor")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn expired_jobs_are_shed_before_compute() {
        let pool = Arc::new(WorkerPool::new(1));
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, handle) = spawn_batcher(pool, 8, 64, shutdown, metrics);
        let model = loaded_model(11);
        let (mut expired, rx_expired) = job(&model, vec![vec![0.3, 0.7, 0.0]]);
        expired.deadline = Some(Instant::now() - std::time::Duration::from_millis(1));
        let (fresh, rx_fresh) = job(&model, vec![vec![0.6, 0.4, 1.0]]);
        tx.send(expired).unwrap();
        tx.send(fresh).unwrap();
        assert!(matches!(
            rx_expired.recv().unwrap(),
            Err(JobError::DeadlineExceeded)
        ));
        assert!(matches!(rx_fresh.recv().unwrap(), Ok(JobOutput::Rows(_))));
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn cancelled_jobs_are_dropped_without_a_reply() {
        let pool = Arc::new(WorkerPool::new(1));
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, handle) = spawn_batcher(pool, 8, 64, shutdown, metrics);
        let model = loaded_model(13);
        let (orphan, rx_orphan) = job(&model, vec![vec![0.2, 0.8, 0.0]]);
        orphan.cancelled.store(true, Ordering::SeqCst);
        let (fresh, rx_fresh) = job(&model, vec![vec![0.9, 0.1, 1.0]]);
        tx.send(orphan).unwrap();
        tx.send(fresh).unwrap();
        // The live job completes; the orphan's channel sees only disconnect.
        assert!(matches!(rx_fresh.recv().unwrap(), Ok(JobOutput::Rows(_))));
        drop(tx);
        handle.join().unwrap();
        assert!(rx_orphan.try_recv().is_err(), "orphan got no reply");
    }
}
