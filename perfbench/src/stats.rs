//! Order statistics over latency samples.

/// The `q`-quantile (0 < q ≤ 1) by nearest rank; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples per window of [`windowed_quantile`]: enough that a window's
/// p99 has ten samples beyond it.
pub const WINDOW_SAMPLES: usize = 1000;

/// The median, over consecutive windows of at least [`WINDOW_SAMPLES`]
/// samples taken in time order, of each window's `q`-quantile. A short
/// stall of the host then moves one window, not the run's figure. With
/// fewer than `2 * WINDOW_SAMPLES` samples this is the plain quantile.
pub fn windowed_quantile(in_time_order: &[f64], q: f64) -> f64 {
    median(&window_quantiles(in_time_order, q))
}

/// Each window's `q`-quantile (see [`windowed_quantile`]).
pub fn window_quantiles(in_time_order: &[f64], q: f64) -> Vec<f64> {
    let windows = (in_time_order.len() / WINDOW_SAMPLES).max(1);
    (0..windows)
        .map(|i| {
            let lo = i * in_time_order.len() / windows;
            let hi = (i + 1) * in_time_order.len() / windows;
            quantile(&in_time_order[lo..hi], q)
        })
        .collect()
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn windowed_quantile_ignores_one_stalled_window() {
        let mut v: Vec<f64> = (0..3_000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_quantile(&v, 0.99), 98.0);
        // A stall slows every sample of the last window.
        v[2_000..].iter_mut().for_each(|x| *x += 1e3);
        assert_eq!(windowed_quantile(&v, 0.99), 98.0);
        assert_eq!(quantile(&v, 0.99), 1096.0);
        // Too few samples for two windows: the plain quantile.
        assert_eq!(
            windowed_quantile(&v[..1_500], 0.5),
            quantile(&v[..1_500], 0.5)
        );
    }
}
