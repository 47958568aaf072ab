//! Sample statistics: nearest-rank percentiles under the ten-beyond
//! rule, and the residual of a layer decomposition.

/// A percentile is reported only when at least this many samples lie
/// strictly above it; with fewer, its value is set by a handful of
/// outliers and does not repeat from run to run.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly above it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    (beyond >= MIN_BEYOND).then_some(value)
}

/// A latency (or any) sample set with its reportable percentiles.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts the samples once; NaNs are not expected and sort last.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.total_cmp(b));
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The reportable `q`-quantile (see [`percentile`]).
    pub fn pct(&self, q: f64) -> Option<f64> {
        percentile(&self.sorted, q)
    }

    /// The median, or 0 when the sample cannot support one — the value a
    /// per-layer metric reports for a layer the workload did not reach.
    pub fn p50_or_zero(&self) -> f64 {
        self.pct(0.5).unwrap_or(0.0)
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// A run cut into `k` equal time slices: `(time, value)` samples go to
/// the slice their time falls in.
pub fn time_slices(samples: &[(u64, f64)], k: usize) -> Vec<Dist> {
    let k = k.max(1);
    let (lo, hi) = samples
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &(t, _)| (lo.min(t), hi.max(t)));
    let width = hi.saturating_sub(lo) / k as u64 + 1;
    let mut slices = vec![Vec::new(); k];
    for &(t, v) in samples {
        slices[(((t - lo) / width) as usize).min(k - 1)].push(v);
    }
    slices.into_iter().map(Dist::new).collect()
}

/// The median over `slices` of each slice's reportable `q`-quantile:
/// a disturbance confined to a few slices (a burst of slow disk writes,
/// a descheduled vCPU) moves it no more than it moves one slice. `None`
/// unless every slice supports the quantile.
pub fn sliced_pct(slices: &[Dist], q: f64) -> Option<f64> {
    let per_slice: Option<Vec<f64>> = slices.iter().map(|d| d.pct(q)).collect();
    per_slice.filter(|v| !v.is_empty()).map(|v| median(&v))
}

/// The exact median of a few values (the mean of the middle two for an
/// even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// The share of an end-to-end median that the per-layer self-time
/// medians do not account for: `(e2e − Σ layers) / e2e`. Positive when
/// time is unattributed, negative when the layers over-count.
pub fn residual_frac(e2e: f64, layer_self: &[f64]) -> f64 {
    if e2e <= 0.0 {
        return 0.0;
    }
    (e2e - layer_self.iter().sum::<f64>()) / e2e
}

/// Relative change of a traced median over its untraced twin.
pub fn overhead_frac(untraced: f64, traced: f64) -> f64 {
    if untraced <= 0.0 {
        return 0.0;
    }
    (traced - untraced) / untraced
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 100 samples: p90 = 90 has exactly 10 above it, p99 = 99 has 1.
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.99), None);
        // 1000 samples support p99 (990 has 10 above it).
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 19 samples cannot support a median (only 9 lie above 10).
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond() {
        // 30 samples, the top 15 tied: only values strictly above count.
        let mut xs = vec![1.0; 15];
        xs.extend(std::iter::repeat_n(2.0, 15));
        assert_eq!(percentile(&xs, 0.5), Some(1.0));
        assert_eq!(percentile(&xs, 0.6), None);
    }

    #[test]
    fn dist_sorts_and_reports_zero_for_unsupported_medians() {
        let d = Dist::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(d.n(), 3);
        assert_eq!(d.p50_or_zero(), 0.0);
        assert_eq!(d.mean(), 2.0);
        let d = Dist::new(ramp(40).into_iter().rev().collect());
        assert_eq!(d.p50_or_zero(), 20.0);
    }

    #[test]
    fn slices_split_by_time_and_their_median_ignores_a_disturbed_slice() {
        // 5 slices of 40 samples each; slice 2 is three times slower.
        let samples: Vec<(u64, f64)> = (0..200u64)
            .map(|i| {
                (
                    i,
                    if (80..120).contains(&i) { 3.0 } else { 1.0 } * (1 + i % 40) as f64,
                )
            })
            .collect();
        let slices = time_slices(&samples, 5);
        assert_eq!(slices.iter().map(Dist::n).collect::<Vec<_>>(), vec![40; 5]);
        assert_eq!(sliced_pct(&slices, 0.5), Some(20.0));
        // The whole-run median is pulled up by the slow slice.
        assert!(
            Dist::new(samples.iter().map(|s| s.1).collect())
                .pct(0.5)
                .unwrap()
                > 20.0
        );
        // A slice too small for the quantile makes it unreportable.
        assert_eq!(sliced_pct(&slices, 0.9), None);
        assert_eq!(sliced_pct(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn residual_is_the_unattributed_share() {
        assert_eq!(residual_frac(100.0, &[60.0, 30.0]), 0.1);
        assert_eq!(residual_frac(100.0, &[70.0, 40.0]), -0.1);
        assert_eq!(residual_frac(100.0, &[]), 1.0);
        assert_eq!(residual_frac(0.0, &[1.0]), 0.0);
        assert_eq!(overhead_frac(10.0, 11.0), 0.1);
    }
}
