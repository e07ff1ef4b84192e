//! Golden-file tests pinning the Prometheus exporter's byte format.

use lt_telemetry::MetricRegistry;

/// The Prometheus text output is byte-stable: sorted families, sorted
/// series, `# HELP`/`# TYPE` headers, cumulative histogram buckets.
#[test]
fn prometheus_text_matches_golden_file() {
    let mut reg = MetricRegistry::new();
    reg.counter("lt_walks_total", "Walks finished", &[]).set(42);
    reg.counter("lt_faults_total", "Injected faults", &[("kind", "crash")])
        .set(2);
    reg.counter(
        "lt_faults_total",
        "Injected faults",
        &[("kind", "straggler")],
    )
    .set(3);
    reg.gauge(
        "lt_overlap_ratio",
        "Fraction of copy time hidden behind compute",
        &[],
    )
    .set(0.75);
    // Observations 500, 5000 and 50000: one per bucket, `+Inf` included.
    reg.histogram("lt_copy_ns", "Copy op latency", &[("engine", "h2d")])
        .set(&[1000.0, 10000.0], &[1, 1, 1], 55500.0);

    let golden = include_str!("golden/metrics.prom");
    assert_eq!(reg.render_prometheus(), golden);
}

/// Every metric sample line matches the grammar the CI job enforces:
/// `^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$`.
#[test]
fn prometheus_sample_lines_match_exposition_grammar() {
    let mut reg = MetricRegistry::new();
    reg.counter("lt_a_total", "a", &[]).set(1);
    reg.gauge("lt_b", "b", &[("x", "y")]).set(-1.25e-3);
    reg.histogram("lt_c_ns", "c", &[])
        .set(&[0.5, 2.0], &[0, 1, 0], 1.0);
    for line in reg.render_prometheus().lines() {
        if line.starts_with('#') {
            continue;
        }
        let (head, value) = line.rsplit_once(' ').expect("name value split");
        let name: String = head.chars().take_while(|c| *c != '{').collect();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "bad metric name in {line:?}"
        );
        if let Some(rest) = head.strip_prefix(&name) {
            if !rest.is_empty() {
                assert!(rest.starts_with('{') && rest.ends_with('}'), "{line:?}");
            }
        }
        assert!(
            !value.is_empty()
                && value
                    .chars()
                    .all(|c| c.is_ascii_digit() || ".eE+-".contains(c)),
            "bad value in {line:?}"
        );
        assert!(value.parse::<f64>().is_ok(), "{line:?}");
    }
}
