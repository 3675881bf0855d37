//! Order statistics, the closed measurement loop, host probes and the
//! seeded generator every workload draws its inputs from.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One named measurement with its unit, as printed in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload's traced pass measured.
#[derive(Debug, Default)]
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest whole percentile that still
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The percentile `value` is, 1 to 99; 0 when the sample is too small
    /// for any percentile to qualify and `value` is the minimum.
    pub percentile: u32,
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentiles p = 99, 98, … 1: the first whose rank leaves
/// at least [`TAIL_BEYOND`] samples above it. Whole percentiles cap the
/// tail at p99 however long the run, so the figure does not slide into
/// the sparse, host-dominated extreme of a run with many thousands of
/// samples.
fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (1..=99u32)
        .rev()
        .map(|p| (p, (p as usize * n).div_ceil(100).max(1)))
        .find(|&(_, rank)| n.saturating_sub(rank) >= TAIL_BEYOND)
        .map_or(
            Tail {
                value: sorted.first().copied().unwrap_or(0.0),
                percentile: 0,
                samples: n,
            },
            |(p, rank)| Tail {
                value: sorted[rank - 1],
                percentile: p,
                samples: n,
            },
        )
}

/// How long a closed loop keeps issuing operations: until `seconds` have
/// passed and at least `min_ops` operations were attempted.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
}

impl Budget {
    pub fn more(&self, start: Instant, ops: usize) -> bool {
        ops < self.min_ops || start.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct Loop {
    /// Wall time of each attempted operation, seconds.
    pub latencies_s: Vec<f64>,
    /// Operations that returned an error or failed their output check.
    pub failed: u64,
    /// Wall time of the whole loop, seconds.
    pub elapsed_s: f64,
}

impl Loop {
    pub fn attempted(&self) -> u64 {
        self.latencies_s.len() as u64
    }

    /// Merges the loops of concurrent clients that ran over one window.
    pub fn merge(loops: Vec<Loop>) -> Loop {
        let mut out = Loop::default();
        for l in loops {
            out.latencies_s.extend(l.latencies_s);
            out.failed += l.failed;
            out.elapsed_s = out.elapsed_s.max(l.elapsed_s);
        }
        out
    }
}

/// Runs `op` back to back within `budget`, timing each call. `op` returns
/// whether the operation succeeded and passed its output check.
pub fn closed_loop(budget: Budget, mut op: impl FnMut() -> bool) -> Loop {
    let mut out = Loop::default();
    let start = Instant::now();
    while budget.more(start, out.latencies_s.len()) {
        let t0 = Instant::now();
        let ok = op();
        out.latencies_s.push(t0.elapsed().as_secs_f64());
        if !ok {
            out.failed += 1;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Runs `setup` `times` times and returns the last state with every
/// set-up's wall time in seconds. Earlier states are dropped before the
/// next set-up starts.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(times);
    let mut state = None;
    for _ in 0..times.max(1) {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), secs))
}

/// The five end-to-end metrics of one untraced run.
pub fn end_to_end(setup_s: &[f64], run: &Loop) -> (Vec<Metric>, Tail) {
    let latencies_ms: Vec<f64> = run.latencies_s.iter().map(|s| s * 1e3).collect();
    let completed = run.attempted() - run.failed;
    let tail = tail(&latencies_ms);
    let metrics = vec![
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("throughput_per_s", completed as f64 / run.elapsed_s, "1/s"),
        Metric::new("p50_ms", median(&latencies_ms), "ms"),
        Metric::new("tail_ms", tail.value, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    (metrics, tail)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times a fixed integer workload, in milliseconds. It touches no code of
/// the workspace, so a change in it between runs is the host, not the
/// program.
pub fn calibrate() -> f64 {
    const ROUNDS: u64 = 5;
    const STEPS: u64 = 4_000_000;
    let mut times = Vec::with_capacity(ROUNDS as usize);
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64 ^ round);
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// SplitMix64: the only source of randomness in the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.value, t.percentile), (90.0, 90));
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many).percentile, 99, "capped at p99");
        assert_eq!(tail(&[2.0, 1.0]).percentile, 0);
        assert_eq!(tail(&[2.0, 1.0]).value, 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn permutations_follow_the_seed() {
        let a = Rng::new(7).permutation(50);
        assert_eq!(a, Rng::new(7).permutation(50));
        assert_ne!(a, Rng::new(8).permutation(50));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
