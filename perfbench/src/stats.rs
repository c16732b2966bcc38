//! Summary statistics: the nearest-rank percentile rule, medians, a
//! stall-resistant throughput, and the process's peak resident set.

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
/// at 1-based rank `ceil(p · n)`, clamped to `1..=n`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p` percentile among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// One printed percentile line: value, unit, and the sample count with
/// how many samples lie beyond the reported rank.
pub fn describe_percentile(name: &str, sorted: &[f64], p: f64, unit: &str) -> String {
    let n = sorted.len();
    let r = rank(n, p);
    format!(
        "{name:<28} {:>14.4} {unit:<6} (p{:.0} nearest rank {r} of n={n}, {} beyond)",
        sorted[r - 1],
        p * 100.0,
        n - r
    )
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Throughput of a run made of timed units `(operations, seconds)`: the
/// units are cut into `windows` consecutive groups of near-equal size,
/// each group's operations over its busy seconds is one window rate,
/// and the median window rate is returned. One transient stall lands in
/// one window and cannot move the median.
pub fn windowed_rate(units: &[(u64, f64)], windows: usize) -> f64 {
    median(&window_rates(units, windows))
}

/// The window rates behind [`windowed_rate`], in run order.
pub fn window_rates(units: &[(u64, f64)], windows: usize) -> Vec<f64> {
    assert!(!units.is_empty(), "throughput of no work");
    let w = windows.clamp(1, units.len());
    (0..w)
        .map(|i| {
            let lo = i * units.len() / w;
            let hi = (i + 1) * units.len() / w;
            let ops: u64 = units[lo..hi].iter().map(|u| u.0).sum();
            let secs: f64 = units[lo..hi].iter().map(|u| u.1).sum();
            ops as f64 / secs
        })
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line in /proc/self/status");
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB");
    kb / 1024.0
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Arithmetic mean, or 0 with no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 0.91), 10.0);
        assert_eq!(percentile(&ten, 1.0), 10.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 0.9), 4.0);
        let three = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&three, 0.5), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(rank(256, 0.9), 231);
    }

    #[test]
    fn printed_line_carries_the_sample_count() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let line = describe_percentile("batch_p90_ms", &v, 0.9, "ms");
        assert!(line.contains("n=200"), "{line}");
        assert!(line.contains("20 beyond"), "{line}");
        assert!(line.contains("rank 180"), "{line}");
        assert!(line.contains("180.0000"), "{line}");
    }

    #[test]
    fn one_stall_cannot_move_the_windowed_rate() {
        let steady: Vec<(u64, f64)> = vec![(100, 0.01); 200];
        let mut stalled = steady.clone();
        stalled[37].1 = 5.0;
        let a = windowed_rate(&steady, 20);
        assert!((a - 10_000.0).abs() < 1e-6);
        assert!((windowed_rate(&stalled, 20) - a).abs() < 1e-6);
    }
}
