//! Sample statistics: medians and the percentile rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, and always together with its sample count: a p99 of 200
//! samples is two observations, not a tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A reportable percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile, e.g. `0.99`.
    pub q: f64,
    /// The nearest-rank value.
    pub value: f64,
    /// Sample size it was taken from.
    pub samples: usize,
    /// Samples ranked after it.
    pub beyond: usize,
}

impl Percentile {
    /// `p50`, `p99`, ... for reports.
    pub fn label(&self) -> String {
        format!("p{}", (self.q * 100.0).round() as u32)
    }
}

/// Sort a sample in place (total order; NaN-free input expected).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Nearest-rank `q`-quantile of an ascending sample, or `None` when fewer
/// than [`MIN_BEYOND`] samples rank after it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let idx = rank - 1;
    let beyond = n - 1 - idx;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        q,
        value: sorted[idx],
        samples: n,
        beyond,
    })
}

/// The highest of p99, p90 and p50 the sample supports.
pub fn tail(sorted: &[f64]) -> Option<Percentile> {
    [0.99, 0.90, 0.50]
        .into_iter()
        .find_map(|q| percentile(sorted, q))
}

/// Median of a small sample of repeated whole measurements (set-up times,
/// per-iteration pipeline times). Unlike [`percentile`] it needs no
/// samples beyond it; the caller reports the sample count.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
