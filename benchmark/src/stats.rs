//! Small statistics helpers: nearest-rank percentiles, the supported-tail
//! picker, and the `VmHWM` parser behind `peak_rss_mb`.

/// Percentiles the picker may report, ascending.
const CANDIDATES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a percentile for it to be
/// reported (choosing-metrics §1).
const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest candidate percentile, at most `cap`, that still has at
/// least ten samples beyond it; the median when the sample supports
/// nothing higher.
pub fn supported_percentile(n: usize, cap: f64) -> f64 {
    CANDIDATES
        .iter()
        .copied()
        // (100 - p) * n / 100 keeps 10 % of 100 at exactly 10.
        .filter(|&p| p <= cap && (100.0 - p) * n as f64 / 100.0 >= MIN_BEYOND - 1e-9)
        .fold(50.0, f64::max)
}

/// `num / den`, or 0 when there is nothing to divide by (a layer the
/// workload never entered).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sort a sample ascending (NaN-free by construction: wall times).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median (mean of the two middle samples on even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Call `setup` repeatedly — at least `min` times, then until `budget_s`
/// is used up or `max` is reached — and return the last value with the
/// median wall time of one call. Each value is dropped before the next
/// call, so repeated set-ups never hold two copies of the inputs.
pub fn median_setup<T>(
    min: usize,
    max: usize,
    budget_s: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min || (times.len() < max && start.elapsed().as_secs_f64() < budget_s) {
        // Tearing the previous set-up down is not part of setting up.
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("min is at least 1"), median(&times)))
}

/// `(p50, tail percentile, tail value)` of an ascending-sorted latency
/// sample: the median, and the highest supported percentile up to p95
/// (which is the median itself on a small sample).
pub fn latency_summary(sorted: &[f64]) -> (f64, f64, f64) {
    let p50 = median(sorted);
    let tail_p = supported_percentile(sorted.len(), 95.0);
    let tail = percentile(sorted, tail_p).unwrap_or(0.0).max(p50);
    (p50, tail_p, tail)
}

/// Parse the `VmHWM` line (peak resident set, kB) out of
/// `/proc/<pid>/status` text, in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set so far, in MB (`None` off Linux).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        // 300 samples: p95 leaves 15 beyond, p99 only 3.
        assert_eq!(supported_percentile(300, 99.9), 95.0);
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(supported_percentile(200, 99.9), 95.0);
        // 199 samples: p95 leaves 9.95, so p90 is the highest supported.
        assert_eq!(supported_percentile(199, 99.9), 90.0);
        assert_eq!(supported_percentile(100, 99.9), 90.0);
        assert_eq!(supported_percentile(40, 99.9), 75.0);
        assert_eq!(supported_percentile(20, 99.9), 50.0);
        // Too few for any tail: fall back to the median.
        assert_eq!(supported_percentile(3, 99.9), 50.0);
        // The cap wins over a generous sample.
        assert_eq!(supported_percentile(100_000, 95.0), 95.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 95.0), Some(95.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn latency_summary_never_reports_a_tail_below_the_median() {
        assert_eq!(latency_summary(&[1.0, 3.0]), (2.0, 50.0, 2.0));
        let s: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(latency_summary(&s), (150.5, 95.0, 285.0));
        assert_eq!(latency_summary(&[]), (0.0, 50.0, 0.0));
    }

    #[test]
    fn median_setup_repeats_and_keeps_only_the_last_value() {
        let mut live = 0i32;
        let mut calls = 0;
        let (last, s) = median_setup(3, 5, 0.0, || {
            calls += 1;
            live += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!((last, calls), (3, 3));
        assert!(s >= 0.0);
        // A generous budget runs up to the cap; an error stops at once.
        let mut n = 0;
        assert_eq!(
            median_setup(1, 4, 60.0, || {
                n += 1;
                Ok(())
            })
            .map(|_| n),
            Ok(4)
        );
        assert!(median_setup::<()>(2, 4, 0.0, || Err("boom".into())).is_err());
    }

    #[test]
    fn vm_hwm_parser_reads_the_peak_line() {
        let status =
            "Name:\tlt-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tgarbage kB\n"), None);
    }
}
