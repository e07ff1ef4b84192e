//! Determinism contract of the event layer: with the host-wall clock
//! masked, the structured event stream of a run is *bit-identical* across
//! host thread counts — engine events are emitted only from the driver
//! thread and stamped with the simulated clock, and device events are
//! sequenced under the device mutex in enqueue order. And the bus only
//! observes: a run with it enabled has the deterministic fingerprint of
//! the same run with it disabled.

use lt_engine::algorithm::PageRank;
use lt_engine::{EngineConfig, EventBus, Level, LightTraffic};
use lt_graph::gen::{rmat, RmatParams};
use lt_telemetry::event::deterministic_jsonl;
use proptest::prelude::*;
use std::sync::Arc;

/// Run `walks` PageRank walks on `bus` and return the run's deterministic
/// fingerprint.
fn run_on(bus: EventBus, graph_seed: u64, walks: u64, kernel_threads: usize) -> String {
    let g = Arc::new(
        rmat(RmatParams {
            scale: 10,
            edge_factor: 8,
            seed: graph_seed,
            ..RmatParams::default()
        })
        .csr,
    );
    let cfg = EngineConfig {
        batch_capacity: 256,
        kernel_threads,
        checkpoint_every: Some(8),
        gpu: lt_gpusim::GpuConfig {
            telemetry: bus,
            ..Default::default()
        },
        ..EngineConfig::light_traffic(16 << 10, 4)
    };
    let mut e = LightTraffic::new(g, Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
    e.run(walks).unwrap().deterministic_fingerprint()
}

/// [`run_on`] with full telemetry: the host-masked JSONL event stream and
/// the run's fingerprint.
fn event_stream(graph_seed: u64, walks: u64, kernel_threads: usize) -> (String, String) {
    let bus = EventBus::new(Level::Debug);
    let ring = bus.ring(1 << 16).expect("bus is enabled");
    let fingerprint = run_on(bus, graph_seed, walks, kernel_threads);
    assert_eq!(ring.dropped(), 0, "ring must hold the whole stream");
    (deterministic_jsonl(&ring.snapshot()), fingerprint)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn event_stream_is_bit_identical_across_kernel_threads(
        graph_seed in 1u64..100,
        walks in 500u64..2_000,
    ) {
        let (seq, observed) = event_stream(graph_seed, walks, 1);
        let (par, _) = event_stream(graph_seed, walks, 4);
        prop_assert!(!seq.is_empty(), "an enabled bus must observe events");
        prop_assert!(seq.contains("\"name\":\"iteration\""));
        prop_assert!(seq.contains("\"name\":\"run_complete\""));
        prop_assert_eq!(seq, par);
        prop_assert_eq!(
            observed,
            run_on(EventBus::disabled(), graph_seed, walks, 1),
            "telemetry changed the run"
        );
    }
}

/// The same contract under injected retryable faults: retry events land at
/// identical simulated times whatever the host fan-out.
#[test]
fn faulted_event_stream_is_thread_count_independent() {
    let run = |kernel_threads: usize| {
        let g = Arc::new(
            rmat(RmatParams {
                scale: 10,
                edge_factor: 8,
                seed: 7,
                ..RmatParams::default()
            })
            .csr,
        );
        let bus = EventBus::new(Level::Debug);
        let ring = bus.ring(1 << 16).unwrap();
        let cfg = EngineConfig {
            batch_capacity: 256,
            kernel_threads,
            gpu: lt_gpusim::GpuConfig {
                telemetry: bus,
                faults: Some(lt_gpusim::FaultPlan::retryable_only(11, 0.25)),
                ..Default::default()
            },
            ..EngineConfig::light_traffic(16 << 10, 4)
        };
        let mut e = LightTraffic::new(g, Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
        e.run(2_000).unwrap();
        deterministic_jsonl(&ring.snapshot())
    };
    let seq = run(1);
    assert!(
        seq.contains("\"name\":\"copy_retry\"") || seq.contains("\"name\":\"fault\""),
        "fault plan must surface in the stream"
    );
    assert_eq!(seq, run(4));
}
