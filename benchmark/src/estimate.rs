//! The good-decile estimator.
//!
//! A run is cut into half-second slices. On this kind of machine noise
//! from the host only ever *slows* a slice, and it arrives in regimes
//! that last seconds, so the slice median follows the regime while the
//! best decile of slices estimates the undisturbed machine. A run's
//! throughput is therefore the 90th-percentile slice rate and its
//! latency the 10th-percentile slice p50. The median, the quartile
//! distance and the worst slice are kept beside it so that stalls the
//! program itself makes stay visible.

/// Quantile `q` of an ascending slice, interpolating linearly between
/// neighbours so the result is not quantised to the inputs.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median of integer samples (latencies in ns), reordering `samples`.
pub fn median_u32(samples: &mut [u32]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mid = samples.len() / 2;
    let (_, m, _) = samples.select_nth_unstable(mid);
    f64::from(*m)
}

/// Which way is good for the slices being summarised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A run's estimate from its slices, with the dispersion beside it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Estimate {
    /// Good-decile slice: p90 when higher is better, p10 when lower.
    pub value: f64,
    pub median: f64,
    /// (p75 - p25) / median.
    pub iqr_ratio: f64,
    /// Worst slice over `value` (below 1 for rates, above 1 for times).
    pub worst_ratio: f64,
    /// Share of slices within a tenth of `value`.
    pub settled_share: f64,
    pub slices: usize,
}

impl Estimate {
    pub fn of(slices: &[f64], better: Better) -> Estimate {
        if slices.is_empty() {
            return Estimate::default();
        }
        let s = sorted(slices);
        let (value, worst) = match better {
            Better::Higher => (quantile_sorted(&s, 0.9), s[0]),
            Better::Lower => (quantile_sorted(&s, 0.1), s[s.len() - 1]),
        };
        let med = quantile_sorted(&s, 0.5);
        let near = s.iter().filter(|x| (**x - value).abs() <= 0.1 * value.abs()).count();
        Estimate {
            value,
            median: med,
            iqr_ratio: ratio(quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25), med),
            worst_ratio: ratio(worst, value),
            settled_share: near as f64 / s.len() as f64,
            slices: s.len(),
        }
    }

    /// Fewer than a quarter of the slices sit within a tenth of the
    /// reported value: the good decile is an outlier, not a plateau.
    pub fn unsettled(&self) -> bool {
        self.slices > 0 && self.settled_share < 0.25
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn good_decile_ignores_slow_slices() {
        // Half the slices ran in a slow regime.
        let mut rates = vec![100.0; 10];
        rates.extend(vec![60.0; 10]);
        let e = Estimate::of(&rates, Better::Higher);
        assert_eq!(e.value, 100.0);
        assert_eq!(e.median, 80.0);
        assert!((e.worst_ratio - 0.6).abs() < 1e-12);
        assert!(!e.unsettled());

        let lat = Estimate::of(&[10.0, 10.0, 10.0, 30.0], Better::Lower);
        assert_eq!(lat.value, 10.0);
        assert_eq!(lat.worst_ratio, 3.0);
    }

    #[test]
    fn a_lone_fast_slice_is_unsettled() {
        let mut rates = vec![50.0; 19];
        rates.push(100.0);
        rates.push(100.0);
        rates.push(100.0);
        assert!(Estimate::of(&rates, Better::Higher).unsettled());
    }

    #[test]
    fn median_of_samples() {
        let mut s = [5u32, 1, 9, 3, 7];
        assert_eq!(median_u32(&mut s), 5.0);
        assert_eq!(median_u32(&mut []), 0.0);
    }
}
