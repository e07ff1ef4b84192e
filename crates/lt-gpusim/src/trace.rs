//! Chrome-trace export of the simulated timeline.
//!
//! With [`crate::GpuConfig::record_ops`] enabled, the op log can be dumped
//! in the Chrome Trace Event format (`chrome://tracing`, Perfetto) with
//! one row per engine — the same view as Figure 8's pipeline diagram, but
//! for a real run. Useful to eyeball whether preemptive kernels actually
//! fill the load-stream gaps.
//!
//! A device renders as one trace *process* ([`DeviceTrace`] /
//! [`render_devices_into`]) with its three engine rows, so the serving
//! layer can put per-job tracks beside it in one file. Injected faults
//! always ride along as instant markers — there is one writer,
//! [`write_chrome_trace`], and it takes the fault log.

use crate::fault::FaultRecord;
use crate::sim::OpRecord;
use crate::telemetry::ENGINE_NAMES;
use lt_telemetry::chrome::ChromeTraceBuilder;
use serde::Serialize;
use serde_json::json;

/// Engine row label; engines past the modeled three keep their index so
/// extended device models never collapse onto one anonymous row.
fn engine_name(e: usize) -> String {
    match ENGINE_NAMES.get(e) {
        Some(name) => format!("{name} engine"),
        None => format!("engine {e}"),
    }
}

/// One device's recorded timeline.
#[derive(Clone, Debug, Serialize)]
pub struct DeviceTrace {
    /// Process label in the viewer (e.g. `"gpu 0"`).
    pub name: String,
    /// The device's op log.
    pub ops: Vec<OpRecord>,
    /// The device's fault log (rendered as instant markers).
    pub faults: Vec<FaultRecord>,
}

/// Render one trace process per device into an existing builder: a
/// `process_name` metadata record, named engine rows covering every
/// engine index that appears, `ph:"X"` spans for ops, and `ph:"i"`
/// instants for faults. Callers (the serving layer's per-job tracks)
/// compose device rows with their own processes in one trace file.
/// Devices occupy pids `0..devices.len()`; composers should claim pids
/// above that range.
pub fn render_devices_into(b: &mut ChromeTraceBuilder, devices: &[DeviceTrace]) {
    for (pid, dev) in devices.iter().enumerate() {
        let pid = pid as u64;
        b.process_name(pid, &dev.name);
        let engines = dev
            .ops
            .iter()
            .map(|o| o.engine + 1)
            .chain(dev.faults.iter().map(|f| f.engine + 1))
            .chain(std::iter::once(ENGINE_NAMES.len()))
            .max()
            .unwrap_or(0);
        for e in 0..engines {
            b.thread_name(pid, e as u64, &engine_name(e));
        }
        for op in &dev.ops {
            let args = match op.fault {
                Some(kind) => json!({
                    "stream": op.stream,
                    "host_threads": op.host_threads,
                    "fault": kind.name(),
                }),
                None => json!({ "stream": op.stream, "host_threads": op.host_threads }),
            };
            b.span(
                pid,
                op.engine as u64,
                op.category.name(),
                "sim",
                op.start,
                op.end,
                args,
            );
        }
        for f in &dev.faults {
            b.instant(
                pid,
                f.engine as u64,
                f.kind.name(),
                "fault",
                f.at_ns,
                json!({ "op_index": f.op_index }),
            );
        }
    }
}

/// Serialize a single device's op log (no fault markers) as trace process
/// 0. Prefer [`write_chrome_trace`], which includes the fault log.
pub fn to_chrome_trace(ops: &[OpRecord]) -> String {
    to_chrome_trace_with_faults(ops, &[])
}

/// Single-device trace with fault instant markers.
pub fn to_chrome_trace_with_faults(ops: &[OpRecord], faults: &[FaultRecord]) -> String {
    let mut b = ChromeTraceBuilder::new();
    render_devices_into(
        &mut b,
        &[DeviceTrace {
            name: "gpu 0".to_string(),
            ops: ops.to_vec(),
            faults: faults.to_vec(),
        }],
    );
    b.build()
}

/// Write a device's full timeline — ops *and* injected faults — to `path`.
/// Pass `&gpu.fault_log()` (empty without a fault plan); faults are never
/// silently dropped on the way to disk.
pub fn write_chrome_trace(
    ops: &[OpRecord],
    faults: &[FaultRecord],
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_trace_with_faults(ops, faults))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;
    use crate::sim::{Direction, Gpu, GpuConfig};
    use crate::stats::Category;

    fn sample_gpu() -> Gpu {
        let g = Gpu::new(GpuConfig {
            record_ops: true,
            ..Default::default()
        });
        let load = g.create_stream("load");
        let comp = g.create_stream("comp");
        g.copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, load)
            .unwrap();
        g.kernel_async(
            KernelCost {
                update_ns: 5_000,
                zero_copy_bytes: 4096,
                ..Default::default()
            },
            Category::ZeroCopy,
            comp,
        );
        g
    }

    #[test]
    fn trace_is_valid_json_with_all_ops() {
        let ops = sample_gpu().op_log();
        let json = to_chrome_trace(&ops);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        // 1 process-name + 3 thread-name metadata records + one per op.
        assert_eq!(arr.len(), 4 + ops.len());
        let op_events: Vec<_> = arr.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(op_events.len(), ops.len());
        for e in op_events {
            assert!(e["dur"].as_f64().unwrap() >= 0.0);
            assert!(e["tid"].as_u64().unwrap() < 3);
            assert!(e["args"]["host_threads"].as_u64().unwrap() >= 1);
        }
        let names: Vec<_> = arr
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .map(|e| e["args"]["name"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["h2d copy engine", "d2h copy engine", "compute engine"]
        );
    }

    #[test]
    fn faulty_ops_and_fault_instants_appear_in_trace() {
        use crate::fault::FaultPlan;
        let g = Gpu::new(GpuConfig {
            record_ops: true,
            faults: Some(FaultPlan::retryable_only(3, 1.0)),
            ..Default::default()
        });
        let load = g.create_stream("load");
        let err = g
            .copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, load)
            .unwrap_err();
        assert!(err.is_retryable());
        let ops = g.op_log();
        let faults = g.fault_log();
        assert_eq!(faults.len(), 1);
        let json = to_chrome_trace_with_faults(&ops, &faults);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        // 1 process + 3 threads metadata + 1 op + 1 fault instant.
        assert_eq!(arr.len(), 4 + ops.len() + faults.len());
        let instants: Vec<_> = arr.iter().filter(|e| e["ph"] == "i").collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0]["name"], "copy retryable");
        let op_event = arr.iter().find(|e| e["ph"] == "X").unwrap();
        assert_eq!(op_event["args"]["fault"], "copy retryable");
    }

    #[test]
    fn each_device_gets_its_own_process() {
        let devices: Vec<DeviceTrace> = (0..3)
            .map(|i| {
                let g = sample_gpu();
                DeviceTrace {
                    name: format!("gpu {i}"),
                    ops: g.op_log(),
                    faults: g.fault_log(),
                }
            })
            .collect();
        let mut b = ChromeTraceBuilder::new();
        render_devices_into(&mut b, &devices);
        let v: serde_json::Value = serde_json::from_str(&b.build()).unwrap();
        let arr = v.as_array().unwrap();
        let procs: Vec<_> = arr.iter().filter(|e| e["name"] == "process_name").collect();
        assert_eq!(procs.len(), 3);
        for (i, p) in procs.iter().enumerate() {
            assert_eq!(p["pid"].as_u64(), Some(i as u64));
            assert_eq!(
                p["args"]["name"].as_str(),
                Some(format!("gpu {i}").as_str())
            );
        }
        // Every device's ops land in its own process, never all on pid 0.
        for pid in 0..3u64 {
            assert!(
                arr.iter()
                    .any(|e| e["ph"] == "X" && e["pid"].as_u64() == Some(pid)),
                "pid {pid} has no op spans"
            );
        }
    }

    #[test]
    fn engine_rows_past_the_modeled_three_keep_their_index() {
        let mut ops = sample_gpu().op_log();
        ops.push(OpRecord {
            engine: 5,
            ..ops[0]
        });
        let v: serde_json::Value = serde_json::from_str(&to_chrome_trace(&ops)).unwrap();
        let names: Vec<String> = v
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .map(|e| e["args"]["name"].as_str().unwrap().to_string())
            .collect();
        assert!(names.contains(&"engine 3".to_string()));
        assert!(names.contains(&"engine 5".to_string()));
        assert!(!names.contains(&"engine".to_string()), "no anonymous rows");
    }

    #[test]
    fn trace_writes_to_disk_with_faults() {
        let g = sample_gpu();
        let path = std::env::temp_dir().join("lt_trace_test.json");
        write_chrome_trace(&g.op_log(), &g.fault_log(), &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("graph load"));
        assert!(content.contains("zero copy"));
        std::fs::remove_file(&path).ok();
    }
}
