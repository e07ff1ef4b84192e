//! Counter / gauge / histogram registry with Prometheus text export.
//!
//! A registry is a plain value: `publish` calls fill a fresh one on pull
//! and [`MetricRegistry::render_prometheus`] turns it into the Prometheus
//! text exposition format (`# HELP` / `# TYPE` headers, one
//! `name{labels} value` line per series, cumulative `_bucket{le=...}` plus
//! `_sum`/`_count` for histograms). Asking for the same name + label set
//! twice returns the same series.

use serde::Serialize;
use std::collections::BTreeMap;

/// A monotonically increasing integer series, published as a snapshot of
/// a count kept elsewhere.
#[derive(Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Overwrite the value with the publisher's current count.
    pub fn set(&mut self, v: u64) {
        self.value = v;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A settable float series.
#[derive(Default)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// Set the value.
    pub fn set(&mut self, v: f64) {
        self.value = v;
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// A histogram series. Like a [`Counter`] published with `set`, it holds
/// a snapshot that is overwritten whole, so publishing an accumulated
/// distribution twice never double-counts it.
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// One count per finite bucket plus the trailing `+Inf` bucket.
    counts: Vec<u64>,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            bounds: Vec::new(),
            counts: vec![0],
            sum: 0.0,
        }
    }
}

impl Histogram {
    /// Overwrite the snapshot. `bounds` are the inclusive upper bounds of
    /// the finite buckets (strictly increasing), `counts` holds one count
    /// per finite bucket plus one for the trailing `+Inf` bucket, and
    /// `sum` is the sum of the observed values.
    pub fn set(&mut self, bounds: &[f64], counts: &[u64], sum: f64) {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert_eq!(
            counts.len(),
            bounds.len() + 1,
            "one count per finite bucket plus +Inf"
        );
        self.bounds = bounds.to_vec();
        self.counts = counts.to_vec();
        self.sum = sum;
    }
}

/// One family's series, keyed by the rendered label block
/// (`{a="x",b="y"}` or empty). The variant is the family's type.
enum Series {
    Counter(BTreeMap<String, Counter>),
    Gauge(BTreeMap<String, Gauge>),
    Histogram(BTreeMap<String, Histogram>),
}

impl Series {
    fn type_name(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    help: String,
    series: Series,
}

/// A metric registry: the families one scrape published, by name.
#[derive(Default)]
pub struct MetricRegistry {
    families: BTreeMap<String, Family>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .enumerate()
            .all(|(i, b)| b == b'_' || b.is_ascii_lowercase() || (i > 0 && b.is_ascii_digit()))
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| {
            debug_assert!(valid_name(k), "invalid label name {k:?}");
            format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn two_types(name: &str) -> ! {
    panic!("metric {name:?} registered with two different types")
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The series of family `name`, created as `empty` with `help` if it
    /// is new.
    fn family(&mut self, name: &str, help: &str, empty: Series) -> &mut Series {
        assert!(
            valid_name(name),
            "metric name {name:?} must match [a-z_][a-z0-9_]*"
        );
        let fam = self.families.entry(name.to_string()).or_insert(Family {
            help: help.to_string(),
            series: empty,
        });
        &mut fam.series
    }

    /// Get or create a counter series.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> &mut Counter {
        match self.family(name, help, Series::Counter(BTreeMap::new())) {
            Series::Counter(s) => s.entry(render_labels(labels)).or_default(),
            _ => two_types(name),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> &mut Gauge {
        match self.family(name, help, Series::Gauge(BTreeMap::new())) {
            Series::Gauge(s) => s.entry(render_labels(labels)).or_default(),
            _ => two_types(name),
        }
    }

    /// Get or create a histogram series (empty until [`Histogram::set`]).
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> &mut Histogram {
        match self.family(name, help, Series::Histogram(BTreeMap::new())) {
            Series::Histogram(s) => s.entry(render_labels(labels)).or_default(),
            _ => two_types(name),
        }
    }

    /// Render every family in the Prometheus text exposition format.
    /// Families and series are emitted in sorted order, so the output is
    /// deterministic for a given set of values.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            out.push_str(&format!("# HELP {name} {}\n", fam.help));
            out.push_str(&format!("# TYPE {name} {}\n", fam.series.type_name()));
            match &fam.series {
                Series::Counter(s) => {
                    for (labels, c) in s {
                        out.push_str(&format!("{name}{labels} {}\n", c.value));
                    }
                }
                Series::Gauge(s) => {
                    for (labels, g) in s {
                        out.push_str(&format!("{name}{labels} {}\n", fmt_f64(g.value)));
                    }
                }
                Series::Histogram(s) => {
                    for (labels, h) in s {
                        let mut cum = 0u64;
                        for (b, c) in h.bounds.iter().zip(&h.counts) {
                            cum += c;
                            let le = bucket_labels(labels, &fmt_f64(*b));
                            out.push_str(&format!("{name}_bucket{le} {cum}\n"));
                        }
                        let count: u64 = h.counts.iter().sum();
                        let le = bucket_labels(labels, "+Inf");
                        out.push_str(&format!("{name}_bucket{le} {count}\n"));
                        out.push_str(&format!("{name}_sum{labels} {}\n", fmt_f64(h.sum)));
                        out.push_str(&format!("{name}_count{labels} {count}\n"));
                    }
                }
            }
        }
        out
    }
}

/// Merge an `le` label into an existing rendered label block.
fn bucket_labels(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
    }
}

/// Render a float the way Prometheus clients do: integral values without a
/// trailing `.0`, everything else via the shortest round-trip form.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// `p50`/`p95`/`p99`/`p999` summary of a walk-length histogram, in steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct LengthPercentiles {
    /// Median walk length.
    pub p50: u64,
    /// 95th-percentile walk length.
    pub p95: u64,
    /// 99th-percentile walk length.
    pub p99: u64,
    /// 99.9th-percentile walk length (the tail the per-tenant
    /// step-latency export cares about).
    pub p999: u64,
}

impl LengthPercentiles {
    /// The quantiles this summary reports, with their label names —
    /// the canonical `p50/p95/p99/p999` export set.
    pub const QUANTILES: [(&'static str, f64); 4] =
        [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)];

    /// Build the summary off a log₂-bucketed histogram
    /// ([`log2_histogram_percentile`]). `None` when every bucket is
    /// empty.
    pub fn from_log2_histogram(buckets: &[u64]) -> Option<LengthPercentiles> {
        Some(LengthPercentiles {
            p50: log2_histogram_percentile(buckets, 0.50)?,
            p95: log2_histogram_percentile(buckets, 0.95)?,
            p99: log2_histogram_percentile(buckets, 0.99)?,
            p999: log2_histogram_percentile(buckets, 0.999)?,
        })
    }
}

/// The bucket [`log2_histogram_percentile`] reads `v` from: `i` holds
/// `[2^i, 2^(i+1))`, 0 also holds 0. Every log2 histogram files through it.
pub fn log2_bucket(v: u64) -> usize {
    v.checked_ilog2().unwrap_or(0) as usize
}

/// Percentile over a log2-bucketed histogram where bucket `i` counts
/// values in `[2^i, 2^(i+1))` (bucket 0 also holds value 0; see
/// [`log2_bucket`]). Returns the inclusive upper bound of the bucket
/// containing the `q`-quantile rank, or `None` when every bucket is empty.
pub fn log2_histogram_percentile(buckets: &[u64], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return Some(u64::MAX >> 63usize.saturating_sub(i));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("lt_steps_total", "Total steps", &[]);
        c.set(10);
        assert_eq!(c.get(), 10);
        // Same name + labels returns the same series.
        assert_eq!(reg.counter("lt_steps_total", "Total steps", &[]).get(), 10);
        let g = reg.gauge("lt_util", "Utilization", &[("engine", "compute")]);
        g.set(0.75);
        assert!((g.get() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn invalid_metric_name_panics() {
        MetricRegistry::new().counter("Bad-Name", "nope", &[]);
    }

    #[test]
    #[should_panic(expected = "two different types")]
    fn one_name_has_one_type() {
        let mut reg = MetricRegistry::new();
        reg.counter("lt_x", "x", &[]).set(1);
        reg.gauge("lt_x", "x", &[("a", "b")]);
    }

    #[test]
    fn histogram_set_overwrites_the_snapshot() {
        let mut reg = MetricRegistry::new();
        reg.histogram("lt_len", "Lengths", &[]);
        assert!(reg.render_prometheus().contains("lt_len_count 0\n"));
        let h = reg.histogram("lt_len", "Lengths", &[]);
        h.set(&[1.0], &[3, 0], 3.0);
        // A wider, newer snapshot replaces the old one instead of adding.
        h.set(&[1.0, 3.0], &[3, 2, 0], 9.0);
        let text = reg.render_prometheus();
        assert!(text.contains("lt_len_bucket{le=\"1\"} 3\n"));
        assert!(text.contains("lt_len_bucket{le=\"3\"} 5\n"));
        assert!(text.contains("lt_len_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("lt_len_sum 9\n"));
        assert!(text.contains("lt_len_count 5\n"));
    }

    #[test]
    fn prometheus_rendering_shape() {
        let mut reg = MetricRegistry::new();
        reg.counter("lt_walks_total", "Walks finished", &[]).set(7);
        reg.gauge("lt_overlap_ratio", "Copy/compute overlap", &[])
            .set(0.5);
        reg.histogram("lt_copy_ns", "Copy latency", &[("engine", "h2d")])
            .set(&[10.0, 100.0], &[1, 1, 1], 555.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP lt_walks_total Walks finished\n"));
        assert!(text.contains("# TYPE lt_walks_total counter\n"));
        assert!(text.contains("lt_walks_total 7\n"));
        assert!(text.contains("lt_overlap_ratio 0.5\n"));
        assert!(text.contains("lt_copy_ns_bucket{engine=\"h2d\",le=\"10\"} 1\n"));
        assert!(text.contains("lt_copy_ns_bucket{engine=\"h2d\",le=\"100\"} 2\n"));
        assert!(text.contains("lt_copy_ns_bucket{engine=\"h2d\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("lt_copy_ns_sum{engine=\"h2d\"} 555\n"));
        assert!(text.contains("lt_copy_ns_count{engine=\"h2d\"} 3\n"));
        // Every sample line matches the exposition grammar the CI job checks.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value) = line.rsplit_once(' ').unwrap();
            let name_end = name_part.find('{').unwrap_or(name_part.len());
            assert!(super::valid_name(&name_part[..name_end]), "line {line:?}");
            assert!(value.parse::<f64>().is_ok(), "line {line:?}");
        }
    }

    #[test]
    fn log2_percentiles_edge_cases() {
        assert_eq!(log2_histogram_percentile(&[], 0.5), None);
        assert_eq!(log2_histogram_percentile(&[0, 0, 0], 0.99), None);
        // Single occupied bucket: every quantile reports that bucket.
        let single = [0, 0, 5, 0];
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(log2_histogram_percentile(&single, q), Some(7));
        }
        // Skewed mass: 90 in bucket 0 ([0,2)), 10 in bucket 4 ([16,32)).
        let skew = [90, 0, 0, 0, 10];
        assert_eq!(log2_histogram_percentile(&skew, 0.5), Some(1));
        assert_eq!(log2_histogram_percentile(&skew, 0.95), Some(31));
        assert_eq!(log2_histogram_percentile(&skew, 0.99), Some(31));
        assert_eq!(log2_histogram_percentile(&skew, 0.999), Some(31));
    }

    /// One observation `v` reads back as a p50 in `[v, 2v)`: the bucket
    /// it is filed in is the bucket the percentile reads.
    #[test]
    fn one_observation_reads_back_within_a_factor_of_two() {
        for v in [1u64, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let mut buckets = vec![0u64; 64];
            buckets[log2_bucket(v)] += 1;
            let p50 = log2_histogram_percentile(&buckets, 0.5).unwrap();
            assert!(p50 >= v && p50 / 2 < v, "v {v} read back as {p50}");
        }
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_histogram_percentile(&[1], 0.5), Some(1));
    }

    #[test]
    fn p999_separates_the_extreme_tail() {
        // 999 observations in bucket 1 ([2,4)), one in bucket 9
        // ([512,1024)): p99 stays in the body, p999 lands on the outlier.
        let mut buckets = vec![0u64; 10];
        buckets[1] = 999;
        buckets[9] = 1;
        let p = LengthPercentiles::from_log2_histogram(&buckets).unwrap();
        assert_eq!(p.p50, 3);
        assert_eq!(p.p99, 3);
        assert_eq!(p.p999, 3, "rank ceil(0.999*1000)=999 is still in the body");
        buckets[9] = 2;
        let p = LengthPercentiles::from_log2_histogram(&buckets).unwrap();
        assert_eq!(p.p999, 1023, "rank 1000 of 1001 reaches the outlier bucket");
        assert_eq!(p.p99, 3);
        assert_eq!(LengthPercentiles::from_log2_histogram(&[0, 0]), None);
    }
}
