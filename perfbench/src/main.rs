//! The repository benchmark: end-to-end and per-layer numbers for iFair's
//! two costs, serving representations and decisions over the wire, and
//! fitting them.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `serve_small`, `serve_bulk`, `fit_minibatch`, `fit_dp`, of
//! which `BENCHMARK.json` lists the two whose figures repeat (see
//! `perfbench/README.md` for why each exists, which layer metric should
//! move which end-to-end metric, and how steady each is). With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it runs the workload untraced and then with
//! allocation counting on (its overhead), and times each layer's public
//! functions from here. The last stdout line is one JSON object; every
//! served reply and every fitted model is checked bit for bit, and a
//! mismatch makes the command exit non-zero. Scratch files go under
//! `.bench_work/` in the working directory and are removed on exit.

mod alloc;
mod fit;
mod host;
mod layers;
mod population;
mod serve;
mod stats;
mod wire;

use host::Region;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <serve_small|serve_bulk|fit_minibatch|fit_dp> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Compute threads each workload may keep busy (server pool, fit pool,
/// data-parallel workers). `run.sh` also pins the wire workloads to one
/// CPU (see `perfbench/README.md`).
const THREAD_BUDGET: usize = 1;

#[derive(Debug, Clone, Copy)]
enum Workload {
    Serve(serve::Shape),
    Fit(fit::Strategy),
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve_small" => Workload::Serve(serve::Shape::Small),
                    "serve_bulk" => Workload::Serve(serve::Shape::Bulk),
                    "fit_minibatch" => Workload::Fit(fit::Strategy::MiniBatch),
                    "fit_dp" => Workload::Fit(fit::Strategy::DataParallel),
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0.0 => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err("every flag is required and --seconds must be positive".into()),
    }
}

/// One timed region of a workload.
pub struct Timed {
    /// Op latencies in microseconds, sorted: every op's, or a uniform
    /// sample of them (see [`stats::Reservoir`]).
    pub latencies_us: Vec<f64>,
    /// Ops timed.
    pub samples: u64,
    /// Rows answered (serve) or records consumed by the optimizer (fit).
    pub records: u64,
    /// Records over the region's wall time. A mean, not a median of
    /// shorter windows: the host alternates between fast and slow phases,
    /// and a median flips between them where a mean moves smoothly.
    pub records_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub region: Region,
}

impl Timed {
    pub fn new(
        latencies_us: stats::Reservoir,
        records: u64,
        wall: std::time::Duration,
        attempted: u64,
        failed: u64,
        region: Region,
    ) -> Timed {
        Timed {
            samples: latencies_us.seen(),
            latencies_us: latencies_us.into_sorted(),
            records,
            records_per_s: records as f64 / wall.as_secs_f64(),
            attempted,
            failed,
            region,
        }
    }

    fn p50(&self) -> f64 {
        stats::median(&self.latencies_us)
    }
}

/// Metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What a workload run leaves behind besides its metrics.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    steal_share: f64,
}

/// The workload under test, set up.
enum Bench {
    Serve(serve::ServeBench),
    Fit(fit::FitBench),
}

impl Bench {
    fn set_up(args: &Args, dir: &Path) -> Bench {
        match args.workload {
            Workload::Serve(shape) => {
                Bench::Serve(serve::ServeBench::set_up(shape, args.seed, dir))
            }
            Workload::Fit(strategy) => Bench::Fit(fit::FitBench::set_up(strategy, args.seed, dir)),
        }
    }

    /// Set-up times of the workload in seconds: those of [`Bench::set_up`]
    /// and as many more taken now. The host's speed changes in phases of
    /// seconds, so set-ups on both sides of the timed region sample two of
    /// them.
    fn setup_times(&self, args: &Args, dir: &Path) -> Vec<f64> {
        let (mut times, again) = match self {
            Bench::Serve(b) => (
                b.setup_s.clone(),
                serve::set_up_times(dir, serve::SETUP_REPS),
            ),
            Bench::Fit(b) => (
                b.setup_s.clone(),
                fit::set_up(args.seed, dir, fit::SETUP_REPS).1,
            ),
        };
        times.extend(again);
        times
    }

    fn timed(&mut self, secs: f64) -> Timed {
        match self {
            Bench::Serve(b) => b.timed(secs),
            Bench::Fit(b) => b.timed(secs).0,
        }
    }

    /// The timed region plus the post-run checks: `(timed, ynn, final
    /// loss, failed checks)`.
    fn run(&mut self, seed: u64, secs: f64) -> (Timed, f64, f64, u64) {
        match self {
            Bench::Serve(b) => {
                let t = b.timed(secs);
                let ynn = b.ynn(seed);
                (
                    t,
                    ynn.unwrap_or(f64::MIN_POSITIVE),
                    b.final_loss(),
                    u64::from(ynn.is_none()),
                )
            }
            Bench::Fit(b) => {
                let (t, model) = b.timed(secs);
                let same = b.matches_other_strategy(&model);
                let loss = model.report().best().loss;
                (t, b.ynn(&model), loss, u64::from(!same))
            }
        }
    }

    fn shut_down(self) {
        if let Bench::Serve(b) = self {
            b.shut_down();
        }
    }
}

/// Failed ops of a timed region. A failed post-run gate (served yNN
/// decisions, the other strategy's model) fails every op of the run, so
/// `success_ratio` breaks its bound whenever the exit code reports it.
fn failed_ops(t: &Timed, failed_checks: u64) -> u64 {
    if failed_checks > 0 {
        t.attempted
    } else {
        t.failed
    }
}

/// `--trace 0`: every end-to-end metric.
fn end_to_end(args: &Args, dir: &Path) -> Outcome {
    let mut bench = Bench::set_up(args, dir);
    let (t, ynn, final_loss, failed_checks) = bench.run(args.seed, args.seconds);
    let setup_s = stats::median(&stats::sorted(bench.setup_times(args, dir)));
    bench.shut_down();

    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    let p90 = stats::tail(&t.latencies_us, 900)
        .unwrap_or_else(|| panic!("{} ops leave fewer than 10 beyond p90", t.attempted));
    m.push("latency_p90_us", p90, "us");
    let failed = failed_ops(&t, failed_checks);
    m.push(
        "success_ratio",
        t.attempted.saturating_sub(failed) as f64 / t.attempted as f64,
        "ratio",
    );
    m.push("peak_rss_mib", t.region.peak_rss_mib, "MiB");
    m.push("ynn_consistency", ynn, "ratio");
    m.push("final_loss", final_loss, "loss");
    Outcome {
        metrics: m,
        attempted: t.attempted,
        failed,
        steal_share: t.region.steal_share,
    }
}

/// `--trace 1`: the workload untraced, then with allocation counting on
/// (half the run each), then every layer timed from here.
fn traced(args: &Args, dir: &Path) -> Outcome {
    let mut bench = Bench::set_up(args, dir);
    let plain = bench.timed(args.seconds / 2.0);
    alloc::set_counting(true);
    let (t, _, _, failed_checks) = bench.run(args.seed, args.seconds / 2.0);
    alloc::set_counting(false);
    bench.shut_down();

    let mut m = Metrics::default();
    let (tail_pct, tail_us) = stats::highest_tail(&t.latencies_us)
        .unwrap_or_else(|| panic!("{} ops leave fewer than 10 beyond p90", t.attempted));
    m.push("trace.latency_p50_us", t.p50(), "us");
    m.push("trace.latency_tail_us", tail_us, "us");
    m.push("trace.tail_percentile", tail_pct, "percent");
    m.push("trace.samples", t.samples as f64, "count");
    m.push("trace.overhead_ratio", t.p50() / plain.p50(), "ratio");
    // Means over the untraced half: they move with the host's speed
    // phases too much to be bounded end-to-end metrics.
    m.push("trace.records_per_s", plain.records_per_s, "1/s");
    m.push(
        "trace.cpu_us_per_record",
        plain.region.cpu.as_secs_f64() * 1e6 / plain.records as f64,
        "us",
    );
    m.push(
        "trace.allocs_per_op",
        t.region.allocs.count as f64 / t.attempted as f64,
        "count",
    );
    layers::sweep(args.seed, dir, &mut m);
    let failed = plain.failed + failed_ops(&t, failed_checks);
    Outcome {
        metrics: m,
        attempted: plain.attempted + t.attempted,
        failed,
        steal_share: t.region.steal_share,
    }
}

/// Scratch directory for artifacts and shards, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> WorkDir {
        let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create .bench_work");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only when no other run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir::create();
    let out = if args.trace {
        traced(&args, &work.0)
    } else {
        end_to_end(&args, &work.0)
    };
    drop(work);
    let correct = out.failed == 0;
    // The host record explains a noisy run; it is not a metric.
    println!(
        "{{\"host\": {{\"steal_share\": {}, \"nproc\": {}, \"thread_budget\": {THREAD_BUDGET}, \"cpus_allowed\": \"{}\"}}}}",
        out.steal_share,
        host::nproc(),
        host::cpus_allowed()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
