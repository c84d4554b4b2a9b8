//! Sample statistics and the seeded arrival schedule.

use std::time::Duration;

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to count as measured rather than as the maximum.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `[0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The smallest sample count whose `p` percentile has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn samples_for_tail(p: f64) -> usize {
    (1..).find(|&n| beyond(n, p) >= MIN_BEYOND).expect("p < 1")
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Batch workloads repeat the same requests every pass: the median
/// latency of each request across passes, so one slow pass does not
/// decide a percentile.
pub fn per_request_medians(by_request: &[Vec<f64>]) -> Vec<f64> {
    by_request
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect()
}

/// Mean of the middle half of `samples` (the interquartile mean): as
/// robust to a few outliers as the median, but not stuck on the
/// granularity of single samples.
pub fn middle_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Cuts `window` into equal slices of about `slice` and returns, per
/// slice, how many of `finished` (offset, work) fell in it and their work,
/// both per second, so that a stalled moment spoils one slice.
pub fn slice_rates(
    finished: &[(Duration, u64)],
    window: Duration,
    slice: Duration,
) -> (Vec<f64>, Vec<f64>) {
    let n = ((window.as_secs_f64() / slice.as_secs_f64()).round() as usize).max(1);
    let len = window.as_secs_f64() / n as f64;
    let mut count = vec![0u64; n];
    let mut work = vec![0u64; n];
    for &(at, w) in finished {
        let i = ((at.as_secs_f64() / len) as usize).min(n - 1);
        count[i] += 1;
        work[i] += w;
    }
    let per_s = |v: Vec<u64>| v.into_iter().map(|c| c as f64 / len).collect();
    (per_s(count), per_s(work))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// xorshift64 generator: the whole benchmark derives its inputs from the
/// `--seed` through this, so one seed always replays the same inputs.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // Splitmix the seed so that nearby seeds give unrelated streams
        // and seed 0 does not stall the generator.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due offsets of `count` Poisson arrivals at `rate_per_s`, measured from
/// the start of the phase. The same seed gives the same schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<Duration> {
    let mut rng = XorShift::new(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += -rng.unit().ln() / rate_per_s;
            Duration::from_secs_f64(t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(beyond(1000, 0.99), MIN_BEYOND);
        assert!(beyond(999, 0.99) < MIN_BEYOND);
        assert_eq!(samples_for_tail(0.5), 20);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(beyond(v.len(), 0.99), 1);
    }

    #[test]
    fn middle_mean_drops_the_outer_quarters() {
        assert_eq!(middle_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(middle_mean(&[5.0]), 5.0);
        assert_eq!(middle_mean(&[]), 0.0);
    }

    #[test]
    fn slice_rates_count_each_completion_once() {
        let ms = Duration::from_millis;
        let finished = [(ms(10), 5), (ms(490), 1), (ms(510), 2), (ms(999), 3)];
        let (count, work) = slice_rates(&finished, ms(1000), ms(500));
        assert_eq!(count, vec![4.0, 4.0]);
        assert_eq!(work, vec![12.0, 10.0]);
        let (count, _) = slice_rates(&finished, ms(1000), ms(2000));
        assert_eq!(count, vec![4.0]);
    }

    #[test]
    fn poisson_schedule_replays_identically() {
        let a = poisson_schedule(7, 100.0, 2000);
        let b = poisson_schedule(7, 100.0, 2000);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 100.0, 2000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 2000 arrivals at 100/s span about 20 s.
        let span = a.last().unwrap().as_secs_f64();
        assert!((17.0..23.0).contains(&span), "{span}");
    }
}
