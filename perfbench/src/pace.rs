//! Paced closed-loop load generation and exact latency quantiles.
//!
//! The serving APIs only offer blocking calls, so a generator thread
//! cannot keep sending while a request is outstanding. Each client
//! thread instead follows a fixed send schedule: operation `i` is due
//! at `start + i·period`, it is never sent early, and a late one is
//! sent at once. Latency is taken from the due time, not the send
//! time, so one stall also counts against every operation scheduled
//! behind it (the coordinated-omission correction).

use std::time::{Duration, Instant};

/// Below this remaining wait the generator spins instead of sleeping:
/// a sleep overshoots by the kernel's timer slack (tens of µs).
const SPIN: Duration = Duration::from_micros(100);

/// Timing of one scheduled operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule wanted the operation sent.
    pub due: Instant,
    /// When it was actually sent.
    pub sent: Instant,
    /// When it completed.
    pub done: Instant,
}

impl Sample {
    /// Due time to completion.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the operation.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Blocks until `due`, sleeping while far from it and spinning the
/// last [`SPIN`].
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs `op(i, due)` for `i in 0..n`, operation `i` due at
/// `start + i·period`, and returns one [`Sample`] per operation.
pub fn run_paced(
    start: Instant,
    period: Duration,
    n: usize,
    mut op: impl FnMut(usize, Instant),
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let due = start + period * i as u32;
        wait_until(due);
        let sent = Instant::now();
        op(i, due);
        samples.push(Sample {
            due,
            sent,
            done: Instant::now(),
        });
    }
    samples
}

/// Nearest-rank quantile `q` of `sorted` (ascending), using the
/// workspace's shared rank rule; `None` for an empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    voyager_obs::nearest_rank(sorted.len(), q).map(|i| sorted[i])
}

/// Slices a window is split into for [`sliced_quantile`].
const SLICES: usize = 10;
/// A window is sliced only while every slice keeps this many samples.
const MIN_SLICE: usize = 20;

/// Quantile `q` of `values` (in schedule order), taken per slice and
/// reported as the median over slices: the window is cut into up to
/// [`SLICES`] consecutive equal-count slices of at least `MIN_SLICE`
/// values, so an interference episode shorter than half the window
/// moves the result little. `None` for no values.
pub fn sliced_quantile(values: &[u64], q: f64) -> Option<f64> {
    let slices = (values.len() / MIN_SLICE).clamp(1, SLICES);
    let per = values.len() / slices;
    let mut at: Vec<u64> = (0..slices)
        .filter_map(|k| {
            let end = if k + 1 == slices {
                values.len()
            } else {
                (k + 1) * per
            };
            let mut slice = values[k * per..end].to_vec();
            slice.sort_unstable();
            quantile(&slice, q)
        })
        .collect();
    at.sort_unstable();
    match at.len() {
        0 => None,
        n if n % 2 == 1 => Some(at[n / 2] as f64),
        n => Some((at[n / 2 - 1] as f64 + at[n / 2] as f64) / 2.0),
    }
}

/// Nanosecond values of `f` over `samples`, in schedule order.
pub fn ns(samples: &[Sample], f: impl Fn(&Sample) -> Duration) -> Vec<u64> {
    samples
        .iter()
        .map(|s| f(s).as_nanos().min(u64::MAX as u128) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_of_a_hand_computed_sample() {
        // Five samples: rank = ceil(q·5), so p30 → rank 2, p40 → rank
        // 2, p50 → rank 3, p90 → rank 5, p100 → rank 5.
        let sorted = [15, 20, 35, 40, 50];
        assert_eq!(quantile(&sorted, 0.05), Some(15));
        assert_eq!(quantile(&sorted, 0.30), Some(20));
        assert_eq!(quantile(&sorted, 0.40), Some(20));
        assert_eq!(quantile(&sorted, 0.50), Some(35));
        assert_eq!(quantile(&sorted, 0.90), Some(50));
        assert_eq!(quantile(&sorted, 1.00), Some(50));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn sliced_quantile_is_the_median_over_slices() {
        // 10 slices of 20: slice k holds 1..=20 plus 100·k, except
        // slice 3, an interference episode 1000 higher. Per-slice p90
        // is rank 18 → 18 + 100·k (1318 for slice 3); the median of
        // the ten is the mean of the 5th and 6th smallest, 518 and 618.
        let values: Vec<u64> = (0..10u64)
            .flat_map(|k| (1..=20u64).map(move |v| v + 100 * k + if k == 3 { 1000 } else { 0 }))
            .collect();
        assert_eq!(sliced_quantile(&values, 0.9), Some((518.0 + 618.0) / 2.0));
        // Too few values to slice: the plain nearest-rank quantile.
        assert_eq!(sliced_quantile(&[5, 1, 3], 0.5), Some(3.0));
        assert_eq!(sliced_quantile(&[], 0.5), None);
    }

    #[test]
    fn one_stalled_operation_makes_the_ones_behind_it_late() {
        let period = Duration::from_millis(2);
        let stall = Duration::from_millis(20);
        let start = Instant::now() + Duration::from_millis(1);
        let samples = run_paced(start, period, 8, |i, _| {
            if i == 1 {
                std::thread::sleep(stall);
            }
        });
        // Operation 1 is sent at about its due time and takes the
        // whole stall. Operations 2.. are due every 2 ms but cannot be
        // sent before operation 1 returns, at due(1) + stall or later.
        assert!(samples[1].latency() >= stall);
        for (i, s) in samples.iter().enumerate().skip(2) {
            let behind = stall.saturating_sub(period * (i as u32 - 1));
            assert!(
                s.lag() >= behind && s.latency() >= behind,
                "op {i}: lag {:?}, latency {:?}, expected at least {behind:?}",
                s.lag(),
                s.latency()
            );
        }
        // Time from the send alone would hide the stall: operation 2
        // itself is instant once sent.
        assert!(samples[2].done - samples[2].sent < samples[2].latency());
    }
}
