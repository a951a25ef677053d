//! The estimator behind every wall-clock number: split the phase into
//! windows, take each window's value, report the median of the windows.
//! A scheduling hiccup on the shared host ruins one window of twenty
//! instead of dragging a whole-run mean.

/// Windows per phase. Shorten the windows if time is short, never this.
pub const WINDOWS: usize = 20;

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `p`-th percentile (0..=100) of sorted samples, nearest rank.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A metric as estimated from per-window values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Windows that contributed.
    pub windows: usize,
    /// Underlying samples (operations, round trips) across the windows.
    pub samples: u64,
}

impl Windowed {
    pub fn of(mut per_window: Vec<f64>, samples: u64) -> Windowed {
        let median = median(&mut per_window);
        Windowed {
            median,
            min: per_window[0],
            max: per_window[per_window.len() - 1],
            windows: per_window.len(),
            samples,
        }
    }

    /// The same estimate with every value multiplied by `factor`.
    pub fn scaled(self, factor: f64) -> Windowed {
        Windowed {
            median: self.median * factor,
            min: self.min * factor,
            max: self.max * factor,
            ..self
        }
    }
}

/// Quartile spread as a share of the median — the steadiness figure the
/// bounds are set against (the method of Python's
/// `statistics.quantiles(values, n=4)`, exclusive).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        v[lo - 1] + (pos - lo as f64).clamp(0.0, 1.0) * (v[hi - 1] - v[lo - 1])
    };
    let med = median(&mut v.clone());
    if med == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_windows_ignores_a_stalled_window() {
        let mut windows = vec![100.0; 19];
        windows.push(3.0); // one window lost to the hypervisor
        let w = Windowed::of(windows.clone(), 1903);
        assert_eq!(w.median, 100.0);
        assert_eq!((w.min, w.max, w.windows, w.samples), (3.0, 100.0, 20, 1903));
        let mean = windows.iter().sum::<f64>() / 20.0;
        assert!(mean < 96.0, "the mean would have moved: {mean}");
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
