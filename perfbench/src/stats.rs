//! The benchmark's own statistics: nearest-rank percentiles that refuse
//! under-supported tails, open-loop turnaround from polled completion
//! counts, and the metric-name rule.

/// Fewest samples that must lie beyond a reported percentile.
const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `sorted` (ascending).
///
/// Returns `None` — refuses — when fewer than [`MIN_TAIL_SAMPLES`] samples
/// lie beyond the chosen rank: a tail read off a handful of samples is a
/// guess, not a measurement.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile must be in (0, 1]");
    let n = sorted.len();
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it (1-based rank ceil(q·n)).
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted samples (the lower middle for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Mean turnaround of an open-loop run without job identities.
///
/// `due` holds every job's due time; `polls` holds `(instant, completed)`
/// observations of a monotone completion counter, in time order. Jobs that
/// completed between two polls are charged the later poll's instant. The
/// sum of turnarounds is the sum of completion instants minus the sum of
/// due times, so which job finished when never matters.
///
/// Returns `None` unless the last poll saw every job complete.
pub fn mean_turnaround(due: &[f64], polls: &[(f64, usize)]) -> Option<f64> {
    let mut seen = 0usize;
    let mut completion_sum = 0.0f64;
    for &(instant, completed) in polls {
        assert!(completed >= seen, "completion counter went backwards");
        completion_sum += (completed - seen) as f64 * instant;
        seen = completed;
    }
    if due.is_empty() || seen != due.len() {
        return None;
    }
    Some((completion_sum - due.iter().sum::<f64>()) / due.len() as f64)
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 64-bit FNV-1a, the digest of the correctness gates' recorded outputs.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90: exactly ten samples beyond it.
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // Rank 91 leaves nine beyond it.
        assert_eq!(percentile(&xs, 0.91), None);
        assert_eq!(percentile(&xs[..99], 0.9), None);
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn polled_turnaround_equals_true_mean() {
        // A synthetic open-loop schedule: job i is due at 0.1·i and takes
        // (i mod 5 + 1)·0.03 s. Completions are polled on a 1 ms grid that
        // contains every completion instant exactly, so the polled mean
        // must equal the true mean up to rounding.
        let jobs = 40;
        let due: Vec<f64> = (0..jobs).map(|i| 0.1 * i as f64).collect();
        let done: Vec<f64> = (0..jobs)
            .map(|i| due[i] + ((i % 5) as f64 + 1.0) * 0.03)
            .collect();
        let true_mean = done.iter().zip(&due).map(|(c, d)| c - d).sum::<f64>() / jobs as f64;
        let ms = |t: f64| (t * 1000.0).round() as i64;
        let last = done.iter().copied().map(ms).max().unwrap();
        let polls: Vec<(f64, usize)> = (0..=last)
            .map(|t| {
                (
                    t as f64 / 1000.0,
                    done.iter().filter(|&&c| ms(c) <= t).count(),
                )
            })
            .collect();
        let polled = mean_turnaround(&due, &polls).unwrap();
        assert!((polled - true_mean).abs() < 1e-9, "{polled} vs {true_mean}");
        // Sparse polls only ever charge later instants: never an underestimate.
        let sparse: Vec<(f64, usize)> = polls
            .iter()
            .copied()
            .step_by(7)
            .chain(polls.last().copied())
            .collect();
        assert!(mean_turnaround(&due, &sparse).unwrap() >= true_mean - 1e-9);
        // A run whose last poll missed a job has no mean.
        assert_eq!(mean_turnaround(&due, &polls[..polls.len() - 1]), None);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for good in ["setup_s", "tensor.pack_ns_per_elem", "p-9", "9a"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
