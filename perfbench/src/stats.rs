//! Order statistics and span self-time arithmetic.

/// Linearly interpolated quantile of an ascending slice (`q` in `[0, 1]`),
/// the definition of numpy's default and Python's
/// `statistics.quantiles(method="inclusive")`. `NaN` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Median of unsorted samples (mean of the two middle values when even).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation (n − 1 denominator); 0 below two samples.
pub fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let ss: f64 = samples.iter().map(|x| (x - m) * (x - m)).sum();
    (ss / (samples.len() - 1) as f64).sqrt()
}

/// One window's summary from [`WindowAcc`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    pub count: f64,
    pub weight: f64,
    pub p50: f64,
    pub p99: f64,
    /// Window length in seconds.
    pub secs: f64,
}

/// Summary of one window's `values` (sorted in place) carrying `weight`
/// over `secs`; `None` when the window is empty.
pub fn summarize(values: &mut [f64], weight: f64, secs: f64) -> Option<WindowSummary> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(WindowSummary {
        count: values.len() as f64,
        weight,
        p50: quantile_sorted(values, 0.5),
        p99: quantile_sorted(values, 0.99),
        secs,
    })
}

/// Summarizes timed calls arriving in time order, window by window,
/// keeping only the current window's values (memory does not grow with
/// the run). A window's `secs` is its calls' busy time, the sum of their
/// latencies.
pub struct WindowAcc {
    window_ns: u64,
    current: u64,
    values: Vec<f64>,
    weight: f64,
    busy_s: f64,
    done: Vec<WindowSummary>,
}

impl WindowAcc {
    pub fn new(window_ns: u64) -> Self {
        Self {
            window_ns: window_ns.max(1),
            current: 0,
            values: Vec::new(),
            weight: 0.0,
            busy_s: 0.0,
            done: Vec::new(),
        }
    }

    /// A call that ended at `t_ns` (from the run's start), took
    /// `latency_ms` and carried `weight` (e.g. reports).
    pub fn push(&mut self, t_ns: u64, latency_ms: f64, weight: f64) {
        let w = t_ns / self.window_ns;
        if w != self.current {
            self.close();
            self.current = w;
        }
        self.values.push(latency_ms);
        self.weight += weight;
        self.busy_s += latency_ms / 1e3;
    }

    fn close(&mut self) {
        if let Some(w) = summarize(&mut self.values, self.weight, self.busy_s) {
            self.done.push(w);
        }
        self.values.clear();
        self.weight = 0.0;
        self.busy_s = 0.0;
    }

    /// The complete windows (the one still open is dropped); when none
    /// completed, the open one.
    pub fn finish(mut self) -> Vec<WindowSummary> {
        if self.done.is_empty() {
            self.close();
        }
        self.done
    }
}

/// Median across windows of `f(window)` — robust to a transient stall
/// on a shared machine spoiling one window.
pub fn median_of(windows: &[WindowSummary], f: impl Fn(&WindowSummary) -> f64) -> f64 {
    median(&windows.iter().map(f).collect::<Vec<f64>>())
}

/// Length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// that its children cover (children clipped to the parent; overlapping
/// children, e.g. from parallel threads, count once).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    (end - start).saturating_sub(union_len(&mut clipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert!((quantile_sorted(&s, 0.25) - 1.75).abs() < 1e-12);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_and_p99_of_unsorted_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // 1..=100: the 99th percentile sits 0.01 of a rank below the max.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert!((quantile(&v, 0.99) - 99.01).abs() < 1e-9);
        assert!((quantile(&v, 0.5) - 50.5).abs() < 1e-9);
    }

    #[test]
    fn mean_and_spread() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.138).abs() < 1e-3);
        assert_eq!(std_dev(&[3.0]), 0.0);
    }

    #[test]
    fn window_acc_summarizes_closed_windows_only() {
        let mut acc = WindowAcc::new(10);
        for (t, v) in [(0, 1.0), (5, 3.0), (12, 2.0), (19, 4.0), (35, 100.0)] {
            acc.push(t, v, 2.0);
        }
        let w = acc.finish();
        assert_eq!(w.len(), 2, "the open window [30, 40) is dropped");
        assert_eq!((w[0].count, w[0].weight, w[0].p50), (2.0, 4.0, 2.0));
        assert_eq!(w[1].p50, 3.0);
        assert!((w[1].p99 - 3.98).abs() < 1e-12);
        // Busy time: the latencies (ms) of the window's calls.
        assert!((w[0].secs - 4e-3).abs() < 1e-15);
        assert_eq!(median_of(&w, |w| w.p50), 2.5);
        // Shorter than one window: the open window stands in for the run.
        let mut short = WindowAcc::new(100);
        short.push(3, 7.0, 1.0);
        assert!((short.finish()[0].secs - 7e-3).abs() < 1e-15);
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut [(3, 4), (0, 1)]), 2);
        assert_eq!(union_len(&mut [(0, 5), (5, 7)]), 7);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        // Two sequential children inside a 100 ns parent.
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Parallel children overlap: the covered part counts once.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 70)]), 40);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // No children: all of it is self time.
        assert_eq!(self_time(5, 9, &[]), 4);
    }
}
