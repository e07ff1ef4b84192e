//! Serving-layer observability acceptance: the attribution tentpole's
//! user-visible surfaces — labeled Prometheus series, the traffic
//! report, per-job traces, and on-demand flight records — all agree with
//! each other and with the device's own counters after a multi-tenant
//! run, and the served registry carries the engine's own series.

use lt_engine::{EngineConfig, JobSpec, JobStatus, LightTraffic, UniformSampling};
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::Csr;
use lt_server::{Scheduler, Server, ServerConfig};
use lt_telemetry::{derive_trace_id, FlightRecord, MetricRegistry};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The scheduler's series, published into a fresh registry and rendered.
fn scrape(sched: &Scheduler) -> String {
    let mut registry = MetricRegistry::new();
    sched.publish(&mut registry);
    registry.render_prometheus()
}

fn graph() -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 9,
            edge_factor: 8,
            ..Default::default()
        })
        .csr,
    )
}

fn scheduler() -> Scheduler {
    let mut cfg = ServerConfig::new(EngineConfig::light_traffic(8 << 10, 4));
    cfg.tranche_walkers = 64;
    Scheduler::new(graph(), cfg).expect("scheduler builds")
}

/// Sum every sample of `name` in the Prometheus text that carries all of
/// `label_filters` as `key="value"` substrings.
fn prom_sum(text: &str, name: &str, label_filters: &[(&str, &str)]) -> u64 {
    let mut sum = 0u64;
    for line in text.lines() {
        if !line.starts_with(name) || !line[name.len()..].starts_with('{') {
            continue;
        }
        if label_filters
            .iter()
            .all(|(k, v)| line.contains(&format!("{k}=\"{v}\"")))
        {
            let value = line.rsplit(' ').next().expect("prometheus sample value");
            sum += value.parse::<f64>().expect("numeric sample") as u64;
        }
    }
    sum
}

/// The value of the unlabeled sample `name`, if the text carries it.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

/// Family names from the `# TYPE` headers that start with `prefix`.
fn prom_families(text: &str, prefix: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .filter(|name| name.starts_with(prefix))
        .map(String::from)
        .collect()
}

/// Distinct values of `label` across all samples of `name`.
fn prom_label_values(text: &str, name: &str, label: &str) -> Vec<String> {
    let needle = format!("{label}=\"");
    let mut out: Vec<String> = text
        .lines()
        .filter(|l| l.starts_with(name) && l[name.len()..].starts_with('{'))
        .filter_map(|l| {
            let at = l.find(&needle)? + needle.len();
            Some(l[at..l[at..].find('"')? + at].to_string())
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The headline invariant, server-side: per-tenant traffic series
/// (including the `shared` pseudo-tenant) sum to exactly the device's
/// global copy bytes, per direction — no byte unattributed, none double
/// counted.
#[test]
fn tenant_traffic_series_sum_to_global_copy_bytes() {
    let mut sched = scheduler();
    let tenants = ["acme", "beta", "corp", "dune"];
    let ids: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            sched
                .submit(t, JobSpec::deepwalk(150 + 25 * i as u64, 8, i as u64))
                .expect("submit")
                .0
        })
        .collect();
    sched.run_until_idle().expect("run completes");
    for &id in &ids {
        assert_eq!(sched.status(id), Some(JobStatus::Done));
    }

    // Every series is pulled: the scheduler publishes into a registry on
    // demand (the server's `metrics` op does this for us).
    let text = scrape(&sched);
    let global_h2d = prom_sum(&text, "lt_gpu_bytes_total", &[("category", "graph_load")])
        + prom_sum(&text, "lt_gpu_bytes_total", &[("category", "walk_load")])
        + prom_sum(&text, "lt_gpu_bytes_total", &[("category", "zero_copy")]);
    let global_d2h = prom_sum(&text, "lt_gpu_bytes_total", &[("category", "walk_evict")]);
    assert!(global_h2d > 0, "workload moved no bytes");

    let tenant_h2d = prom_sum(
        &text,
        "lt_server_tenant_traffic_bytes_total",
        &[("direction", "h2d")],
    );
    let tenant_d2h = prom_sum(
        &text,
        "lt_server_tenant_traffic_bytes_total",
        &[("direction", "d2h")],
    );
    assert_eq!(
        tenant_h2d, global_h2d,
        "tenant shares drift from device H2D"
    );
    assert_eq!(
        tenant_d2h, global_d2h,
        "tenant shares drift from device D2H"
    );

    // Every tenant appears, plus the shared pseudo-tenant for graph
    // partition loads.
    let seen = prom_label_values(&text, "lt_server_tenant_traffic_bytes_total", "tenant");
    for t in tenants.iter().chain(std::iter::once(&"shared")) {
        assert!(seen.iter().any(|s| s == t), "missing tenant series: {t}");
    }

    // Per-partition heat series reconcile with the same global totals.
    let part_h2d = prom_sum(
        &text,
        "lt_traffic_partition_bytes_total",
        &[("direction", "h2d")],
    );
    assert_eq!(
        part_h2d, global_h2d,
        "partition heat drifts from device H2D"
    );

    // The report view agrees too, and ranks hot partitions descending.
    let report = sched
        .traffic_report(8)
        .expect("attribution is on by default");
    assert_eq!(report.h2d_bytes, global_h2d);
    assert_eq!(report.d2h_bytes, global_d2h);
    for pair in report.hot_partitions.windows(2) {
        assert!(
            pair[0].h2d_bytes + pair[0].d2h_bytes >= pair[1].h2d_bytes + pair[1].d2h_bytes,
            "hot partitions not sorted by heat"
        );
    }

    // Step-latency quantiles exist per tenant with the full quantile set.
    let quantiles = prom_label_values(&text, "lt_server_tenant_step_latency_ns", "quantile");
    assert_eq!(quantiles, vec!["p50", "p95", "p99", "p999"]);
}

/// Link bytes in one scraped text, per direction: the device's
/// `lt_gpu_bytes_total` categories, then the per-tenant shares.
fn link_bytes(text: &str) -> [(u64, u64); 2] {
    let device = |c| prom_sum(text, "lt_gpu_bytes_total", &[("category", c)]);
    let tenants = |d| {
        prom_sum(
            text,
            "lt_server_tenant_traffic_bytes_total",
            &[("direction", d)],
        )
    };
    [
        (
            device("graph_load") + device("walk_load") + device("zero_copy"),
            tenants("h2d"),
        ),
        (device("walk_evict"), tenants("d2h")),
    ]
}

/// Each `ServerHandle::metrics` call is one snapshot: while four tenants'
/// jobs run, two threads scrape over and over, and every text they get
/// satisfies the per-tenant = device identity exactly, per direction. A
/// scrape rendered from a registry another scrape publishes into at the
/// same time mixes two pump rounds and breaks it.
#[test]
fn every_scrape_is_one_snapshot() {
    let mut cfg = ServerConfig::new(EngineConfig::light_traffic(8 << 10, 4));
    cfg.tranche_walkers = 64;
    cfg.pump_iterations = 1;
    // A scale-12 graph has enough partitions, and so partition series,
    // that one scrape's render outlasts a pump round: the window in which
    // a shared registry mixed two rounds.
    let graph = rmat(RmatParams {
        scale: 12,
        edge_factor: 8,
        ..Default::default()
    });
    let server = Server::start(Arc::new(graph.csr), cfg).expect("server starts");
    let handle = server.handle();
    let ids: Vec<_> = ["acme", "beta", "corp", "dune"]
        .iter()
        .enumerate()
        .map(|(i, t)| {
            handle
                .submit(t, JobSpec::deepwalk(1_500 + 250 * i as u64, 12, i as u64))
                .expect("submit")
                .0
        })
        .collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let scrapers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let (mut scrapes, mut moved) = (0u32, 0u32);
                    while !done.load(Ordering::Relaxed) || scrapes < 20 {
                        let (text, _) = handle.metrics(0).expect("scrape");
                        let bytes = link_bytes(&text);
                        for (direction, (device, tenants)) in ["h2d", "d2h"].iter().zip(bytes) {
                            assert_eq!(tenants, device, "{direction} drifts in scrape {scrapes}");
                        }
                        scrapes += 1;
                        moved += u32::from(bytes[0].0 > 0);
                    }
                    (scrapes, moved)
                })
            })
            .collect();
        for id in ids {
            while handle.info(id).expect("info").expect("known job").status != JobStatus::Done {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        done.store(true, Ordering::Relaxed);
        for scraper in scrapers {
            let (scrapes, moved) = scraper.join().expect("no scrape broke the identity");
            assert!(moved > 0, "none of {scrapes} scrapes saw traffic");
        }
    });
}

/// The served registry is the engine's export plus the server's own
/// series: the `lt_engine_*` counters match what the jobs report, and the
/// `lt_engine_*`, `lt_gpu_*` and `lt_exec_*` families are exactly those a
/// direct [`LightTraffic::publish`] writes.
#[test]
fn served_registry_carries_the_engine_families() {
    let mut sched = scheduler();
    let ids: Vec<_> = ["acme", "beta", "corp", "dune"]
        .iter()
        .enumerate()
        .map(|(i, t)| {
            sched
                .submit(t, JobSpec::deepwalk(150 + 25 * i as u64, 8, i as u64))
                .expect("submit")
                .0
        })
        .collect();
    sched.run_until_idle().expect("run completes");
    let text = scrape(&sched);

    let finished: u64 = ids
        .iter()
        .map(|&id| sched.result(id).expect("done jobs keep results").finished)
        .sum();
    assert_eq!(finished, 150 + 175 + 200 + 225);
    assert_eq!(
        prom_value(&text, "lt_engine_finished_walks_total"),
        Some(finished as f64)
    );
    assert!(prom_value(&text, "lt_exec_workers").is_some());

    let mut direct = MetricRegistry::new();
    LightTraffic::new(
        graph(),
        Arc::new(UniformSampling::new(8)),
        EngineConfig::light_traffic(8 << 10, 4),
    )
    .expect("engine builds")
    .publish(&mut direct);
    let direct = direct.render_prometheus();
    for prefix in ["lt_engine_", "lt_gpu_", "lt_exec_"] {
        let served = prom_families(&text, prefix);
        assert!(!served.is_empty(), "no {prefix}* families served");
        assert_eq!(served, prom_families(&direct, prefix), "{prefix}*");
    }
}

/// The pulled per-tenant counters agree with the engine and with what
/// the test drove, after a four-tenant run with one budget park and one
/// cancel.
#[test]
fn pulled_tenant_counters_match_the_engine() {
    let mut cfg = ServerConfig::new(EngineConfig::light_traffic(8 << 10, 4));
    cfg.tranche_walkers = 64;
    cfg.default_budget = 500;
    let mut sched = Scheduler::new(graph(), cfg).expect("scheduler builds");
    let tenants = ["acme", "beta", "corp", "dune"];
    // Every tenant but `corp` can pay for its job; `corp` parks.
    for t in ["acme", "beta", "dune"] {
        sched.top_up(t, 1 << 40);
    }
    let ids: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            sched
                .submit(t, JobSpec::deepwalk(150 + 25 * i as u64, 8, i as u64))
                .expect("submit")
                .0
        })
        .collect();
    sched.pump().expect("pump");
    assert!(sched.cancel(ids[3]), "dune's job is cancelled mid-run");
    sched.run_until_idle().expect("run completes");
    assert!(matches!(
        sched.status(ids[2]),
        Some(JobStatus::Blocked { .. })
    ));
    sched.top_up("corp", 1 << 40);
    sched.run_until_idle().expect("run completes");
    for &id in &ids[..3] {
        assert_eq!(sched.status(id), Some(JobStatus::Done));
    }
    assert_eq!(sched.status(ids[3]), Some(JobStatus::Evicted));

    let text = scrape(&sched);
    let engine_steps = prom_value(&text, "lt_engine_steps_total").expect("engine steps") as u64;
    assert!(engine_steps > 0);
    assert_eq!(
        prom_sum(&text, "lt_server_tenant_steps_total", &[]),
        engine_steps
    );
    let admitted: u64 = ids
        .iter()
        .map(|&id| sched.info(id).expect("known job").injected)
        .sum();
    assert_eq!(
        prom_sum(&text, "lt_server_tenant_walkers_total", &[]),
        admitted
    );
    for t in tenants {
        let count = |name| prom_sum(&text, name, &[("tenant", t)]);
        assert_eq!(count("lt_server_jobs_submitted_total"), 1, "{t}");
        assert_eq!(
            count("lt_server_jobs_evicted_total"),
            u64::from(t == "dune"),
            "{t}"
        );
        assert_eq!(
            count("lt_server_jobs_parked_total"),
            u64::from(t == "corp"),
            "{t}"
        );
    }
}

/// Per-job traces: deterministic trace ids, a full lifecycle span
/// stream, and a parseable on-demand flight record.
#[test]
fn job_traces_and_flight_records_are_complete() {
    let mut sched = scheduler();
    let (a, _rx) = sched.submit("acme", JobSpec::deepwalk(120, 6, 1)).unwrap();
    let (b, _rx) = sched
        .submit("beta", JobSpec::node2vec(90, 5, 0.5, 2.0, 2))
        .unwrap();
    sched.run_until_idle().expect("run completes");

    for (i, &id) in [a, b].iter().enumerate() {
        let t = sched.trace(id).expect("trace exists");
        assert_eq!(t.trace_id, derive_trace_id(42, i as u32));
        let phases: Vec<_> = t.spans().map(|s| s.phase.as_str()).collect();
        assert_eq!(
            phases,
            vec!["submitted", "queued", "admitted", "running", "done"]
        );
        assert!(
            t.spans().last().unwrap().step_clock > 0,
            "done span carries steps"
        );
    }

    let dump = sched.flight_record(a, "inspect").expect("flight record");
    let records = FlightRecord::parse_jsonl(&dump).expect("the dump reads back");
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert_eq!(
        (r.job, r.tenant.as_str(), r.reason.as_str()),
        (0, "acme", "inspect")
    );
    assert_eq!(r.trace_id, derive_trace_id(42, 0));
    assert!(r
        .spans
        .iter()
        .eq(sched.trace(a).expect("trace exists").spans()));
    assert!(
        !r.traffic.is_empty(),
        "flight record carries no traffic rows"
    );
}
