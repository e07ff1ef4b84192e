//! Golden-file tests pinning the exporter byte formats, plus property
//! tests over the event serialization.

use lt_telemetry::event::deterministic_jsonl;
use lt_telemetry::{EventBus, Level, MetricRegistry};
use proptest::prelude::*;

/// The Prometheus text output is byte-stable: sorted families, sorted
/// series, `# HELP`/`# TYPE` headers, cumulative histogram buckets.
#[test]
fn prometheus_text_matches_golden_file() {
    let reg = MetricRegistry::new();
    reg.counter("lt_walks_total", "Walks finished", &[]).add(42);
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

/// The deterministic JSONL event schema is byte-stable: sorted keys,
/// compact separators, no `host_ns`.
#[test]
fn jsonl_event_schema_matches_golden_file() {
    let bus = EventBus::new(Level::Debug);
    let ring = bus.ring(64).unwrap();
    bus.emit(
        Level::Debug,
        0,
        "gpusim",
        "op",
        vec![
            ("category", "WalkLoad".into()),
            ("engine", 0u64.into()),
            ("start_ns", 0u64.into()),
            ("end_ns", 1000u64.into()),
            ("stream", 0u64.into()),
        ],
    );
    bus.emit(
        Level::Warn,
        1500,
        "gpusim",
        "fault",
        vec![
            ("kind", "straggler".into()),
            ("op_index", 1u64.into()),
            ("engine", 2u64.into()),
        ],
    );
    bus.emit(
        Level::Info,
        2000,
        "engine",
        "checkpoint",
        vec![("iteration", 3u64.into()), ("walkers", 128u64.into())],
    );

    let golden = include_str!("golden/events.jsonl");
    assert_eq!(deterministic_jsonl(&ring.snapshot()), golden);
}

/// Every metric sample line matches the grammar the CI job enforces:
/// `^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$`.
#[test]
fn prometheus_sample_lines_match_exposition_grammar() {
    let reg = MetricRegistry::new();
    reg.counter("lt_a_total", "a", &[]).add(1);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Masked serialization never leaks the host clock: two events that
    /// differ only in `host_ns` produce identical deterministic bytes,
    /// and those bytes parse back as JSON with the expected fields.
    fn masked_jsonl_is_host_independent(
        seq in 0u64..1_000_000,
        sim_ns in 0u64..u64::MAX / 2,
        host_a in 0u64..u64::MAX / 2,
        host_b in 0u64..u64::MAX / 2,
        val in 0u64..u64::MAX,
    ) {
        let make = |host_ns| lt_telemetry::Event {
            seq,
            sim_ns,
            host_ns,
            level: Level::Info,
            scope: "prop",
            name: "ev",
            fields: vec![("v", val.into())],
        };
        let a = make(host_a).to_jsonl(false);
        let b = make(host_b).to_jsonl(false);
        prop_assert_eq!(&a, &b);
        let parsed: serde_json::Value = serde_json::from_str(&a).unwrap();
        prop_assert_eq!(parsed["seq"].as_u64(), Some(seq));
        prop_assert_eq!(parsed["sim_ns"].as_u64(), Some(sim_ns));
        prop_assert_eq!(parsed["fields"]["v"].as_u64(), Some(val));
        prop_assert!(parsed["host_ns"].is_null());
    }
}
