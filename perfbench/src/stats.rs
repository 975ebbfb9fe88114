//! Order statistics over latency samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The tail percentiles tried by [`highest_tail`], in per mille, highest
/// first.
const TAILS_PERMILLE: [usize; 3] = [999, 990, 900];

/// Nearest-rank percentile of `sorted` at `permille` (0–1000), with the
/// number of samples strictly beyond it; `None` for an empty slice.
fn rank(sorted: &[f64], permille: usize) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let idx = (permille * n).div_ceil(1000).clamp(1, n) - 1;
    Some((sorted[idx], n - 1 - idx))
}

/// Median of `sorted` (nearest rank).
pub fn median(sorted: &[f64]) -> f64 {
    rank(sorted, 500).expect("median of an empty sample").0
}

/// The percentile of `sorted` at `permille`, but only when at least
/// [`MIN_BEYOND_TAIL`] samples lie beyond it: a tail read from fewer
/// samples does not repeat.
pub fn tail(sorted: &[f64], permille: usize) -> Option<f64> {
    rank(sorted, permille)
        .filter(|&(_, beyond)| beyond >= MIN_BEYOND_TAIL)
        .map(|(v, _)| v)
}

/// The highest of p99.9, p99 and p90 that [`tail`] can report, as
/// `(percentile, value)` with the percentile in percent.
pub fn highest_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAILS_PERMILLE
        .iter()
        .find_map(|&q| tail(sorted, q).map(|v| (q as f64 / 10.0, v)))
}

/// Sorts a sample in place and returns it (NaN-free inputs only).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Samples a [`Reservoir`] keeps.
const RESERVOIR: usize = 1 << 17;

/// A uniform sample of at most [`RESERVOIR`] values of a stream
/// (Vitter's algorithm R, with a fixed-seed generator). Its memory is
/// allocated and written up front, so the benchmark's resident set does
/// not grow with the number of ops a run completes.
pub struct Reservoir {
    slots: Vec<f64>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    pub fn new() -> Reservoir {
        Reservoir {
            // A non-zero fill: a zero one would come from calloc as
            // untouched pages, made resident only as samples arrive.
            slots: vec![f64::NAN; RESERVOIR],
            seen: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub fn push(&mut self, v: f64) {
        let slot = if self.seen < RESERVOIR as u64 {
            Some(self.seen)
        } else {
            // xorshift64*
            self.rng ^= self.rng >> 12;
            self.rng ^= self.rng << 25;
            self.rng ^= self.rng >> 27;
            let r = self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % (self.seen + 1);
            (r < RESERVOIR as u64).then_some(r)
        };
        if let Some(i) = slot {
            self.slots[i as usize] = v;
        }
        self.seen += 1;
    }

    /// Values pushed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample, sorted: every value when at most [`RESERVOIR`]
    /// were pushed.
    pub fn into_sorted(mut self) -> Vec<f64> {
        self.slots
            .truncate(self.seen.min(RESERVOIR as u64) as usize);
        sorted(self.slots)
    }
}

/// Median of per-call times of `f`, in microseconds, over `calls` calls.
pub fn median_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = std::time::Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&sorted(times))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is the 90th; 10 lie beyond it.
        assert_eq!(tail(&ramp(100), 900), Some(90.0));
        // With 99 samples p90 is the 90th (ceil(89.1)); only 9 lie beyond.
        assert_eq!(tail(&ramp(99), 900), None);
        // p99 needs 1000 samples, p99.9 needs 10 000.
        assert_eq!(tail(&ramp(999), 990), None);
        assert_eq!(tail(&ramp(1000), 990), Some(990.0));
        assert_eq!(tail(&ramp(9999), 999), None);
        assert_eq!(tail(&[], 900), None);
    }

    #[test]
    fn highest_tail_falls_back_to_the_highest_qualifying_percentile() {
        assert_eq!(highest_tail(&ramp(50)), None);
        assert_eq!(highest_tail(&ramp(150)), Some((90.0, 135.0)));
        assert_eq!(highest_tail(&ramp(2000)), Some((99.0, 1980.0)));
        assert_eq!(highest_tail(&ramp(20_000)), Some((99.9, 19_980.0)));
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_bounded_sample() {
        let mut r = Reservoir::new();
        for i in 0..1000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.seen(), 1000);
        assert_eq!(
            r.into_sorted(),
            (0..1000).map(f64::from).collect::<Vec<_>>()
        );

        let mut r = Reservoir::new();
        let n = 4 * RESERVOIR as u64;
        for i in 0..n {
            r.push(i as f64);
        }
        let kept = r.into_sorted();
        assert_eq!(kept.len(), RESERVOIR);
        // A uniform sample of 0..n has its median near n / 2.
        let mid = median(&kept) / n as f64;
        assert!((0.48..0.52).contains(&mid), "median at {mid} of the range");
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(1)), 1.0);
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(median(&ramp(5)), 3.0);
    }
}
