//! Readings of this process and its host from `/proc`.

use crate::alloc::{self, Allocs};
use std::time::Duration;

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`, fixed at
/// 100 by the Linux ABI whatever the kernel's internal tick rate).
const USER_HZ: f64 = 100.0;

/// CPU time of this process: user plus system time of every thread it ever
/// ran, exited ones included, plus that of every child it has reaped.
///
/// Summing the live threads of `/proc/self/task` misses threads that have
/// already exited (a fit's pool, a server's batcher after shutdown), and the
/// `fit_dp` worker runs in a child process; `/proc/self/stat` accumulates
/// both.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; the numeric fields follow its `)`.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("stat has a comm field") + 1..]
        .split_whitespace()
        .collect();
    // Fields 14–17 of proc(5): utime, stime, cutime, cstime; `fields[0]`
    // is field 3.
    let ticks: u64 = fields[11..15]
        .iter()
        .map(|f| f.parse::<u64>().expect("tick counts are integers"))
        .sum();
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Aggregate CPU tick counters of the host, from the `cpu` line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostTicks {
    total: u64,
    steal: u64,
}

impl HostTicks {
    /// Reads the counters now.
    pub fn now() -> HostTicks {
        let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
        let line = stat.lines().next().expect("/proc/stat has a cpu line");
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user and nice).
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().expect("tick counts are integers"))
            .collect();
        HostTicks {
            total: v.iter().sum(),
            steal: v[7],
        }
    }

    /// Share of all CPU ticks since `earlier` that the hypervisor stole.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// What a timed region cost the process: CPU (threads and reaped
/// children), resident-set high-water mark, allocations (counted in the
/// traced run only), and the host's steal share over the region.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    pub cpu: Duration,
    pub peak_rss_mib: f64,
    pub allocs: Allocs,
    pub steal_share: f64,
}

impl Region {
    /// Runs `f` as a timed region.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Region) {
        ifair_bench::timing::reset_peak_rss();
        let ticks = HostTicks::now();
        let allocs = alloc::snapshot();
        let cpu = process_cpu();
        let out = f();
        let cpu = process_cpu() - cpu;
        let region = Region {
            cpu,
            peak_rss_mib: peak_rss_mib(),
            allocs: alloc::snapshot() - allocs,
            steal_share: HostTicks::now().steal_share_since(&ticks),
        };
        (out, region)
    }
}

/// This process's resident-set high-water mark, in MiB.
pub fn peak_rss_mib() -> f64 {
    ifair_bench::timing::peak_rss_bytes().expect("VmHWM is readable") as f64 / (1024.0 * 1024.0)
}

/// CPUs the host has online, whatever this process may run on.
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .expect("/proc/cpuinfo is readable")
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count()
}

/// The CPUs this process may run on, as `/proc/self/status` lists them
/// (`0-1`, `0`, ...); `run.sh` narrows them with `taskset`.
pub fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable")
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .expect("status lists the allowed CPUs")
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    /// User plus system ticks of the calling thread.
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("thread stat");
        let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 1..]
            .split_whitespace()
            .collect();
        let ticks: u64 = fields[11..13]
            .iter()
            .map(|f| f.parse::<u64>().unwrap())
            .sum();
        Duration::from_secs_f64(ticks as f64 / USER_HZ)
    }

    /// Burns `d` of CPU time on the calling thread.
    fn spin(d: Duration) {
        let start = thread_cpu();
        let mut x = 0u64;
        while thread_cpu() - start < d {
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        }
    }

    /// Run only as the child process of the test below.
    #[test]
    #[ignore]
    fn child_spinner() {
        spin(Duration::from_millis(300));
    }

    #[test]
    fn process_cpu_counts_exited_threads_and_reaped_children() {
        let before = process_cpu();
        // A thread that has exited by the time of the second reading.
        std::thread::spawn(|| spin(Duration::from_millis(300)))
            .join()
            .expect("spinner thread");
        // A child process, waited for (reaped) before the second reading.
        let status = Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "host::tests::child_spinner",
                "--ignored",
                "--quiet",
            ])
            .stdout(std::process::Stdio::null())
            .status()
            .expect("spawn child");
        assert!(status.success());
        let delta = process_cpu() - before;
        // 300 ms each, less one tick of rounding per reading. A sum over
        // the live threads of /proc/self/task would see neither.
        assert!(
            delta >= Duration::from_millis(580),
            "process CPU grew by only {delta:?}"
        );
    }

    #[test]
    fn steal_share_is_a_fraction() {
        let a = HostTicks::now();
        spin(Duration::from_millis(50));
        let share = HostTicks::now().steal_share_since(&a);
        assert!((0.0..=1.0).contains(&share));
    }
}
