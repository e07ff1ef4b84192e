//! Property tests of the simulator core: arbitrary op sequences over
//! arbitrary stream assignments must always produce a physically
//! consistent timeline, exact byte accounting, and monotone stream order
//! (DESIGN.md invariant 6).

use lt_gpusim::sim::{Direction, Gpu, GpuConfig};
use lt_gpusim::{Category, CostModel, KernelCost};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    CopyH2D {
        bytes: u64,
        stream: usize,
    },
    CopyD2H {
        bytes: u64,
        stream: usize,
    },
    Kernel {
        update_ns: u64,
        zc_bytes: u64,
        stream: usize,
    },
    Sync {
        stream: usize,
    },
    HostWork {
        ns: u64,
    },
    DeviceSync,
}

fn op_strategy(num_streams: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..1_000_000, 0..num_streams).prop_map(|(bytes, stream)| Op::CopyH2D { bytes, stream }),
        (1u64..1_000_000, 0..num_streams).prop_map(|(bytes, stream)| Op::CopyD2H { bytes, stream }),
        (
            0u64..500_000,
            prop_oneof![Just(0u64), 1u64..100_000],
            0..num_streams
        )
            .prop_map(|(update_ns, zc_bytes, stream)| Op::Kernel {
                update_ns,
                zc_bytes,
                stream
            }),
        (0..num_streams).prop_map(|stream| Op::Sync { stream }),
        (1u64..100_000).prop_map(|ns| Op::HostWork { ns }),
        Just(Op::DeviceSync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn timeline_is_always_consistent(
        ops in prop::collection::vec(op_strategy(3), 1..80),
    ) {
        let gpu = Gpu::new(GpuConfig {
            memory_bytes: 1 << 30,
            cost: CostModel::pcie3(),
            record_ops: true,
            ..Default::default()
        });
        let streams: Vec<_> = (0..3).map(|i| gpu.create_stream(&format!("s{i}"))).collect();
        let mut h2d_bytes = 0u64;
        let mut d2h_bytes = 0u64;
        let mut host_clock_prev = 0;
        for op in &ops {
            match *op {
                Op::CopyH2D { bytes, stream } => {
                    gpu.copy_async(Direction::HostToDevice, bytes, Category::GraphLoad, streams[stream]).unwrap();
                    h2d_bytes += bytes;
                }
                Op::CopyD2H { bytes, stream } => {
                    gpu.copy_async(Direction::DeviceToHost, bytes, Category::WalkEvict, streams[stream]).unwrap();
                    d2h_bytes += bytes;
                }
                Op::Kernel { update_ns, zc_bytes, stream } => {
                    gpu.kernel_async(
                        KernelCost { update_ns, zero_copy_bytes: zc_bytes, ..Default::default() },
                        if zc_bytes > 0 { Category::ZeroCopy } else { Category::Compute },
                        streams[stream],
                    );
                }
                Op::Sync { stream } => gpu.synchronize(streams[stream]),
                Op::HostWork { ns } => gpu.host_advance(ns, Category::HostWork),
                Op::DeviceSync => gpu.device_synchronize(),
            }
            // The host clock never runs backwards.
            let now = gpu.now();
            prop_assert!(now >= host_clock_prev);
            host_clock_prev = now;
        }
        gpu.device_synchronize();
        let stats = gpu.stats();
        let log = gpu.op_log();

        // Engines never run two ops at once.
        for e in 0..3 {
            let mut eops: Vec<_> = log.iter().filter(|o| o.engine == e).collect();
            eops.sort_by_key(|o| (o.start, o.end));
            for w in eops.windows(2) {
                prop_assert!(w[1].start >= w[0].end, "engine {e} overlap: {:?} {:?}", w[0], w[1]);
            }
        }

        // Per-stream completion times are monotone in enqueue order.
        // (Zero-copy link reservations share the kernel's stream id but end
        // earlier than the kernel; compare compute-engine rows per stream.)
        for s in 0..3 {
            let ends: Vec<_> = log
                .iter()
                .filter(|o| {
                    o.stream == s && !(o.engine == 0 && o.category == Category::ZeroCopy)
                })
                .map(|o| o.end)
                .collect();
            for w in ends.windows(2) {
                prop_assert!(w[1] >= w[0], "stream {s} order violated");
            }
        }

        // Byte accounting is exact (zero-copy traffic counted separately,
        // rounded up to cachelines).
        prop_assert_eq!(stats.graph_load.bytes, h2d_bytes);
        prop_assert_eq!(stats.walk_evict.bytes, d2h_bytes);
        prop_assert!(stats.zero_copy.bytes.is_multiple_of(128));

        // Makespan covers every op and the host clock equals it after a
        // device sync (or exceeds it via host work).
        let max_end = log.iter().map(|o| o.end).max().unwrap_or(0);
        prop_assert!(stats.makespan_ns >= max_end);
        prop_assert!(gpu.now() >= max_end);

        // Busy time per engine equals the sum of its op durations.
        for (e, busy) in [
            (0usize, stats.h2d_busy_ns),
            (1, stats.d2h_busy_ns),
            (2, stats.compute_busy_ns),
        ] {
            let sum: u64 = log.iter().filter(|o| o.engine == e).map(|o| o.end - o.start).sum();
            prop_assert_eq!(busy, sum, "engine {} busy mismatch", e);
        }
    }

    #[test]
    fn fault_schedules_reproduce_exactly(
        seed in any::<u64>(),
        retry_rate in 0.0f64..0.5,
        fatal_rate in 0.0f64..0.1,
        straggler_rate in 0.0f64..0.5,
        sizes in prop::collection::vec(1u64..1_000_000, 1..60),
    ) {
        let run = || {
            let gpu = Gpu::new(GpuConfig {
                memory_bytes: 1 << 30,
                cost: CostModel::pcie3(),
                record_ops: true,
                faults: Some(lt_gpusim::FaultPlan {
                    seed,
                    copy_retryable_rate: retry_rate,
                    copy_fatal_rate: fatal_rate,
                    straggler_rate,
                    ..lt_gpusim::FaultPlan::default()
                }),
            });
            let s = gpu.create_stream("s");
            let outcomes: Vec<Option<u64>> = sizes
                .iter()
                .map(|&b| gpu.copy_async(Direction::HostToDevice, b, Category::GraphLoad, s).ok())
                .collect();
            (outcomes, gpu.stats().faults_injected, gpu.fault_log().len(), gpu.stats().makespan_ns)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.0, &b.0, "copy outcomes must reproduce");
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
        // Every attempt is charged whether it failed or not.
        prop_assert_eq!(a.1 as usize, a.2);
    }

    #[test]
    fn malloc_free_never_corrupts_accounting(
        sizes in prop::collection::vec(1u64..1_000_000, 1..40),
        free_order in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
    ) {
        let gpu = Gpu::new(GpuConfig {
            memory_bytes: 1 << 30,
            ..Default::default()
        });
        let mut allocs = Vec::new();
        let mut expected = 0u64;
        for &s in &sizes {
            if let Ok(a) = gpu.malloc(s) {
                expected += s;
                allocs.push(a);
            }
        }
        prop_assert_eq!(gpu.used_bytes(), expected);
        for idx in free_order {
            if allocs.is_empty() {
                break;
            }
            let i = idx.index(allocs.len());
            let a = allocs.swap_remove(i);
            expected -= a.bytes();
            gpu.free(a);
            prop_assert_eq!(gpu.used_bytes(), expected);
        }
        prop_assert_eq!(gpu.live_allocations(), allocs.len() as u64);
    }
}
