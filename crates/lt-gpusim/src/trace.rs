//! Chrome-trace export of the simulated timeline.
//!
//! With [`crate::GpuConfig::record_ops`] enabled, the op log can be dumped
//! in the Chrome Trace Event format (`chrome://tracing`, Perfetto) as one
//! process, `gpu 0`, with one row per engine — the same view as Figure 8's
//! pipeline diagram, but for a real run. Useful to eyeball whether
//! preemptive kernels actually fill the load-stream gaps. Ops render as
//! `ph:"X"` complete spans and injected faults as `ph:"i"` thread-scoped
//! instants; timestamps are microseconds, fractions kept.

use crate::fault::FaultRecord;
use crate::sim::OpRecord;
use serde_json::{json, Value};

/// Display names of the three engine rows, indexed by engine id.
pub const ENGINE_NAMES: [&str; 3] = ["h2d copy", "d2h copy", "compute"];

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A device's full timeline — ops *and* injected faults — as a Chrome
/// trace (the JSON array form). Pass `gpu.fault_log()`, which is empty
/// without a fault plan.
pub fn chrome_trace(ops: &[OpRecord], faults: &[FaultRecord]) -> String {
    let meta = |name: &str, tid: usize, label: String| {
        json!({
            "ph": "M",
            "name": name,
            "pid": 0,
            "tid": tid,
            "args": { "name": label },
        })
    };
    let mut events = vec![meta("process_name", 0, "gpu 0".to_string())];
    for (tid, name) in ENGINE_NAMES.iter().enumerate() {
        events.push(meta("thread_name", tid, format!("{name} engine")));
    }
    for op in ops {
        let args = match op.fault {
            Some(kind) => json!({ "stream": op.stream, "fault": kind.name() }),
            None => json!({ "stream": op.stream }),
        };
        events.push(json!({
            "ph": "X",
            "name": op.category.name(),
            "cat": "sim",
            "pid": 0,
            "tid": op.engine,
            "ts": us(op.start),
            "dur": us(op.end.saturating_sub(op.start)),
            "args": args,
        }));
    }
    for f in faults {
        events.push(json!({
            "ph": "i",
            "s": "t",
            "name": f.kind.name(),
            "cat": "fault",
            "pid": 0,
            "tid": f.engine,
            "ts": us(f.at_ns),
            "args": { "op_index": f.op_index },
        }));
    }
    serde_json::to_string_pretty(&Value::Array(events)).expect("trace serializes")
}

/// Write [`chrome_trace`] to `path`.
pub fn write_chrome_trace(
    ops: &[OpRecord],
    faults: &[FaultRecord],
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(ops, faults))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;
    use crate::sim::{Direction, Gpu, GpuConfig};
    use crate::stats::Category;

    fn sample_gpu() -> Gpu {
        let mut g = Gpu::new(GpuConfig {
            record_ops: true,
            ..Default::default()
        });
        let load = g.create_stream();
        let comp = g.create_stream();
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
        let gpu = sample_gpu();
        let ops = gpu.op_log();
        let json = chrome_trace(ops, &[]);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        // 1 process-name + 3 thread-name metadata records + one per op.
        assert_eq!(arr.len(), 4 + ops.len());
        let op_events: Vec<_> = arr.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(op_events.len(), ops.len());
        for (e, op) in op_events.iter().zip(ops) {
            // Microseconds on the simulated clock, fractions kept.
            assert_eq!(e["ts"].as_f64(), Some(op.start as f64 / 1e3));
            assert_eq!(e["dur"].as_f64(), Some((op.end - op.start) as f64 / 1e3));
            assert_eq!(e["tid"].as_u64(), Some(op.engine as u64));
            assert_eq!(e["args"]["stream"].as_u64(), Some(op.stream as u64));
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
        let mut g = Gpu::new(GpuConfig {
            record_ops: true,
            faults: Some(FaultPlan::retryable_only(3, 1.0)),
            ..Default::default()
        });
        let load = g.create_stream();
        let err = g
            .copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, load)
            .unwrap_err();
        assert!(err.is_retryable());
        let ops = g.op_log();
        let faults = g.fault_log();
        assert_eq!(faults.len(), 1);
        let json = chrome_trace(ops, faults);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        // 1 process + 3 threads metadata + 1 op + 1 fault instant.
        assert_eq!(arr.len(), 4 + ops.len() + faults.len());
        let instants: Vec<_> = arr.iter().filter(|e| e["ph"] == "i").collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0]["name"], "copy retryable");
        assert_eq!(instants[0]["s"], "t");
        assert_eq!(instants[0]["args"]["op_index"], faults[0].op_index);
        let op_event = arr.iter().find(|e| e["ph"] == "X").unwrap();
        assert_eq!(op_event["args"]["fault"], "copy retryable");
    }

    #[test]
    fn trace_writes_to_disk_with_faults() {
        let g = sample_gpu();
        let path = std::env::temp_dir().join("lt_trace_test.json");
        write_chrome_trace(g.op_log(), g.fault_log(), &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("graph load"));
        assert!(content.contains("zero copy"));
        std::fs::remove_file(&path).ok();
    }
}
