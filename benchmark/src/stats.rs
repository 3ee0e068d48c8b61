//! The statistics a run is reported with: best repetition, median, quartiles
//! and the tail percentile a sample can support.

/// Linear-interpolated quantile of an ascending-sorted, non-empty sample —
/// the "inclusive" method, so `q = 0.5` is the usual median.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Consecutive batches a run's samples are cut into to see how its own
/// statistic wandered while it ran.
pub const BATCHES: usize = 5;

/// `statistic` of `BATCHES` consecutive, near-equal batches of a time-ordered
/// sample; the samples themselves when there are too few to batch.
pub fn batch_statistics(samples: &[f64], statistic: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    if samples.len() < 2 * BATCHES {
        return samples.to_vec();
    }
    (0..BATCHES)
        .map(|b| {
            statistic(&samples[b * samples.len() / BATCHES..(b + 1) * samples.len() / BATCHES])
        })
        .collect()
}

fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The best of a run's repetitions: the highest rate, the shortest time.
/// Every repetition does the same work on the same data, so its time has a
/// floor the code sets and an excess the host adds: neighbours on this shared
/// machine only ever slow a round down, for seconds or for minutes at a time.
/// The median of a run's rounds lands in whichever kind is the majority and
/// moves by 15-45 % between identical runs; the best round moves by 2-12 %
/// (README, noise floor), and lower quantiles sit in between. A change that
/// slows the code raises the floor, and the best round with it.
pub fn best(samples: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    samples.iter().copied().reduce(pick).expect("best of an empty sample")
}

/// A run's statistic over its rounds with the median, quartiles and sample
/// count it is printed with, plus the quartiles of the same statistic over
/// the run's `BATCHES` batches: the quartiles of the samples say how noisy one
/// round is, those of the batches how far the run's own value can be trusted
/// — what `--compare` judges by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported statistic: the best repetition or the median.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    pub batch_q1: f64,
    pub batch_q3: f64,
}

impl Summary {
    fn with(samples: &[f64], statistic: impl Fn(&[f64]) -> f64) -> Summary {
        let batches = batch_statistics(samples, &statistic);
        Summary {
            value: statistic(samples),
            median: quantile(samples, 0.5),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            n: samples.len(),
            batch_q1: quantile(&batches, 0.25),
            batch_q3: quantile(&batches, 0.75),
        }
    }

    /// Reports the best of a time-ordered sample of repetitions.
    pub fn best(samples: &[f64], higher_is_better: bool) -> Summary {
        Summary::with(samples, |s| best(s, higher_is_better))
    }

    /// Reports the median of a time-ordered sample.
    pub fn median(samples: &[f64]) -> Summary {
        Summary::with(samples, |s| quantile(s, 0.5))
    }

    /// A count or a one-shot measurement: no spread to report.
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
            batch_q1: value,
            batch_q3: value,
        }
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n`; `None` below 40 samples, where only
/// the median and quartiles are reportable.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // Per mille, so that the count beyond is exact integer arithmetic.
    [(999, 0.999), (990, 0.99), (950, 0.95), (900, 0.90), (750, 0.75)]
        .into_iter()
        .find(|&(per_mille, _)| n * (1000 - per_mille) / 1000 >= 10)
        .map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::median(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.value, s.median), (2.5, 2.5));
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.n, 4);
        let odd = Summary::median(&[5.0, 1.0, 3.0]);
        assert_eq!((odd.q1, odd.median, odd.q3), (2.0, 3.0, 4.0));
        assert_eq!(Summary::median(&[7.0]), Summary::exact(7.0));
    }

    #[test]
    fn best_is_the_good_end_whichever_way_is_better() {
        let rounds = [3.0, 9.0, 1.0, 4.0];
        assert_eq!(best(&rounds, true), 9.0);
        assert_eq!(best(&rounds, false), 1.0);
        // Half the rounds disturbed: the median sits between the two kinds,
        // the best with the undisturbed ones.
        let mixed = [100.0, 70.0, 101.0, 71.0, 99.0, 69.0, 100.0, 70.0];
        let s = Summary::best(&mixed, true);
        assert_eq!((s.value, s.median), (101.0, 85.0));
    }

    #[test]
    fn batch_statistics_follow_a_drift_the_sample_quartiles_blur() {
        // Ten rounds at 100 then ten at 80, each with the same jitter.
        let jitter = [-6.0, 3.0, 0.0, 5.0, -2.0, 1.0, -4.0, 6.0, -1.0, 2.0];
        let run: Vec<f64> =
            jitter.iter().map(|j| 100.0 + j).chain(jitter.iter().map(|j| 80.0 + j)).collect();
        let median = |s: &[f64]| quantile(s, 0.5);
        assert_eq!(batch_statistics(&run, median), vec![101.5, 99.5, 91.0, 80.5, 80.5]);
        let s = Summary::median(&run);
        assert_eq!((s.batch_q1, s.batch_q3), (80.5, 99.5));
        assert_eq!(s.n, 20);
        // Too few samples to batch: the samples stand for themselves.
        assert_eq!(batch_statistics(&[3.0, 1.0, 2.0], median), vec![3.0, 1.0, 2.0]);
        let few = Summary::median(&[3.0, 1.0, 2.0]);
        assert_eq!((few.batch_q1, few.batch_q3), (few.q1, few.q3));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(40), Some(0.75));
        assert_eq!(highest_percentile(99), Some(0.75));
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(199), Some(0.90));
        assert_eq!(highest_percentile(200), Some(0.95));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
    }

    #[test]
    fn quantile_hits_the_ends() {
        let v = [1.0, 2.0, 10.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 10.0);
    }
}
